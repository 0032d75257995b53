//! `fleet-moving`: the paper's own scenario, in process, no sockets.
//!
//! 2,000 clients in 200 depots drive random-waypoint trajectories over
//! skewed (NA-like) data. Every tick each client first tests the
//! validity region it holds (`QueryAnswer::valid_at`); only the clients
//! that left theirs form one `Engine::submit` batch. This is the only
//! place the paper's payoff — position updates that never reach the
//! server — is measured directly, and it bypasses `net`/`proto`
//! entirely: `serve` (tiling, pool, group kNN, promotion churn) and
//! `core` do the work.

use crate::check::{CheckReport, Oracle};
use crate::loadgen::tier_slot;
use crate::metrics::Values;
use crate::stats;
use crate::tcp::Setup;
use crate::workload::{self, FleetSpec};
use lbq_obs::STAGE_COUNT;
use lbq_serve::{Engine, EngineConfig, QueryAnswer, QueryReq};
use std::sync::Arc;
use std::time::Instant;

/// How a fleet run's `--seconds` are spent.
#[derive(Debug, Clone, Copy)]
pub struct FleetPlan {
    /// Dataset size.
    pub points: usize,
    /// Untimed ticks at the start: every client's first query and the
    /// first hot-tile promotions land here.
    pub warm_ticks: usize,
    /// Timed ticks.
    pub timed_ticks: usize,
    /// Set-ups timed for `setup_s`.
    pub setups: usize,
}

/// Timed ticks per second of `--seconds`. The *work* is fixed, not the
/// time, so that `client_reuse_share` is a pure function of the seed;
/// on a 2-core box 400 ticks take 7–9 s after ~8 s of warm-up (the
/// promotions of the densest tiles cost seconds), which is what fits
/// the driver's cap. One repetition: a second fresh engine would pay
/// the warm-up again and leave half the ticks for each.
const TICKS_PER_SECOND: f64 = 20.0;
/// Check every n-th server response / client-side reuse.
const CHECK_SERVER_EVERY: usize = 64;
const CHECK_REUSE_EVERY: usize = 256;
/// A tick this many times slower than the median of its neighbours
/// (±[`NEIGHBOURS`] ticks) spent its time building a hot tile.
const BUILD_FACTOR: f64 = 4.0;
const NEIGHBOURS: usize = 5;

impl FleetPlan {
    /// The plan of an end-to-end run.
    pub fn end_to_end(seconds: f64, quick: bool) -> FleetPlan {
        FleetPlan {
            points: if quick {
                workload::QUICK_POINTS
            } else {
                workload::FULL_POINTS
            },
            warm_ticks: 20,
            timed_ticks: ((TICKS_PER_SECOND * seconds) as usize).max(10),
            setups: if quick { 1 } else { 5 },
        }
    }

    /// The plan of a traced run: fewer ticks, leaving time for the
    /// replay.
    pub fn traced(seconds: f64, quick: bool) -> FleetPlan {
        FleetPlan {
            timed_ticks: ((TICKS_PER_SECOND * 0.5 * seconds) as usize).max(20),
            setups: 1,
            ..FleetPlan::end_to_end(seconds, quick)
        }
    }
}

/// One timed tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    /// Wall time of the whole tick (region tests + submit + install), s.
    pub wall_s: f64,
    /// Wall time inside `Engine::submit`, s.
    pub submit_s: f64,
    /// Requests in the batch (clients that left their region).
    pub requests: u64,
    /// The engine recorded stage times during this tick.
    pub traced: bool,
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct FleetRep {
    /// Clients (position updates per tick).
    pub clients: u64,
    /// The timed ticks, in order.
    pub ticks: Vec<Tick>,
    /// Per tick, warm-up included: tick wall time, ms.
    pub tick_ms: Vec<f64>,
    /// Wire bytes the timed responses would occupy (measured with the
    /// `lbq-proto` encoder, outside the timed part).
    pub resp_bytes: u64,
    /// Server responses in the timed ticks by tier: tree, cache, hot.
    pub tiers: [u64; 3],
    /// Stage nanoseconds summed over the timed responses.
    pub stages: [u64; STAGE_COUNT],
    /// TPNN-chain nanoseconds and probes of tree-tier kNN responses.
    pub tree_tpnn_ns: u64,
    /// See [`FleetRep::tree_tpnn_ns`].
    pub tree_tpnn_probes: u64,
    /// All position updates, warm-up included.
    pub attempted: u64,
    /// Requests the engine did not answer.
    pub failed: u64,
    /// Answer check.
    pub check: CheckReport,
    /// A sample of the requests that reached the engine (for replay).
    pub sampled_reqs: Vec<QueryReq>,
}

/// Marks the ticks that spent their time building a hot tile: slower
/// than [`BUILD_FACTOR`] × the median of their neighbours. Whether the
/// densest tile is demoted and rebuilt inside the timed window (1–2 s a
/// time) is decided by probe counts near a threshold, so the *rate*
/// metrics leave those ticks out and the per-layer table reports them
/// (`serve.tick_max_ms`); the latency percentiles keep every tick.
pub fn build_ticks(wall: &[f64]) -> Vec<bool> {
    (0..wall.len())
        .map(|i| {
            let lo = i.saturating_sub(NEIGHBOURS);
            let hi = (i + NEIGHBOURS + 1).min(wall.len());
            let around: Vec<f64> = (lo..hi).filter(|&j| j != i).map(|j| wall[j]).collect();
            stats::median(&around).is_some_and(|m| wall[i] > BUILD_FACTOR * m)
        })
        .collect()
}

impl FleetRep {
    /// Position updates in the timed ticks.
    pub fn updates(&self) -> u64 {
        self.clients * self.ticks.len() as u64
    }

    /// Requests that reached the server in the timed ticks.
    pub fn server_requests(&self) -> u64 {
        self.ticks.iter().map(|t| t.requests).sum()
    }

    /// Share of the timed updates answered from the client's region.
    pub fn reuse_share(&self) -> Option<f64> {
        let updates = self.updates();
        (updates > 0).then(|| 1.0 - self.server_requests() as f64 / updates as f64)
    }

    /// `(updates/s, server requests/s of submit time)` over the timed
    /// ticks that did not build a hot tile.
    pub fn steady_rates(&self) -> Option<(f64, f64)> {
        let wall: Vec<f64> = self.ticks.iter().map(|t| t.wall_s).collect();
        let building = build_ticks(&wall);
        let steady = || {
            self.ticks
                .iter()
                .zip(&building)
                .filter(|(_, b)| !**b)
                .map(|(t, _)| t)
        };
        let wall_s: f64 = steady().map(|t| t.wall_s).sum();
        let submit_s: f64 = steady().map(|t| t.submit_s).sum();
        let requests: u64 = steady().map(|t| t.requests).sum();
        let updates = self.clients * steady().count() as u64;
        (wall_s > 0.0 && submit_s > 0.0)
            .then(|| (updates as f64 / wall_s, requests as f64 / submit_s))
    }

    /// Percentile `q` of the latency of a request that reached the
    /// server: the wall time of the batch it travelled in, weighted by
    /// batch size. Every timed tick counts.
    pub fn latency_us(&self, q: f64) -> Option<f64> {
        let mut b: Vec<(f64, u64)> = self
            .ticks
            .iter()
            .map(|t| (t.submit_s * 1e6, t.requests))
            .collect();
        b.sort_by(|x, y| x.0.total_cmp(&y.0));
        let total: u64 = b.iter().map(|x| x.1).sum();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        b.iter()
            .find(|(_, n)| {
                seen += n;
                seen >= rank
            })
            .map(|&(us, _)| us)
    }
}

/// Runs one repetition against a fresh default engine. `keep_reqs`
/// bounds the request sample kept for the replay. With
/// `trace_block = Some(b)` the recorder (which the caller has armed)
/// is switched on and off every `b` timed ticks, so that traced and
/// untraced ticks sample the same stretch of a workload that gets
/// cheaper as the fleet disperses.
pub fn repetition(
    spec: &FleetSpec,
    plan: &FleetPlan,
    setup: &Setup,
    oracle: &Oracle,
    seed: u64,
    keep_reqs: usize,
    trace_block: Option<usize>,
) -> (FleetRep, Engine) {
    let engine = Engine::new(Arc::clone(&setup.server), EngineConfig::default());
    let ticks = plan.warm_ticks + plan.timed_ticks;
    let fleet = spec.fleet(&setup.data, ticks, seed);
    let mut cached: Vec<Option<Arc<QueryAnswer>>> = vec![None; spec.clients];
    let mut rep = FleetRep {
        clients: spec.clients as u64,
        ..FleetRep::default()
    };
    let mut batch: Vec<QueryReq> = Vec::with_capacity(spec.clients);
    let mut owners: Vec<usize> = Vec::with_capacity(spec.clients);
    let mut wire: Vec<u8> = Vec::with_capacity(8 * 1024);
    let (mut nth_server, mut nth_reuse) = (0usize, 0usize);
    // Spread the request sample over the whole timed part.
    let expected = (plan.timed_ticks * spec.clients / 2).max(1);
    let keep_every = (expected / keep_reqs.max(1)).max(1);

    for tick in 0..=ticks {
        let timed = tick > plan.warm_ticks;
        let traced = match trace_block {
            Some(b) if timed => ((tick - plan.warm_ticks - 1) / b.max(1)) % 2 == 0,
            _ => false,
        };
        lbq_obs::set_recording(traced);
        batch.clear();
        owners.clear();
        let t0 = Instant::now();
        for (c, traj) in fleet.trajectories.iter().enumerate() {
            let pos = traj[tick];
            match &cached[c] {
                Some(ans) if ans.valid_at(pos) => {}
                _ => {
                    batch.push(spec.request(c, pos));
                    owners.push(c);
                }
            }
        }
        let t_submit = Instant::now();
        let resps = engine.submit(batch.clone());
        let submit_s = t_submit.elapsed().as_secs_f64();
        for (&c, r) in owners.iter().zip(&resps) {
            cached[c] = Some(Arc::clone(&r.answer));
        }
        let wall_s = t0.elapsed().as_secs_f64();

        // Everything below is bookkeeping, outside the timed part.
        rep.tick_ms.push(wall_s * 1e3);
        rep.attempted += spec.clients as u64;
        rep.failed += batch.len().saturating_sub(resps.len()) as u64;
        if timed {
            rep.ticks.push(Tick {
                wall_s,
                submit_s,
                requests: batch.len() as u64,
                traced,
            });
            for (req, r) in batch.iter().zip(&resps) {
                rep.tiers[tier_slot(r.tier)] += 1;
                for (a, b) in rep.stages.iter_mut().zip(r.stages.0) {
                    *a += b;
                }
                if let (QueryAnswer::Knn(nn), 0, true) = (&*r.answer, tier_slot(r.tier), traced) {
                    rep.tree_tpnn_probes += nn.tpnn_queries as u64;
                    rep.tree_tpnn_ns += r.stages.get(lbq_obs::Stage::TpnnChain);
                }
                wire.clear();
                if lbq_proto::encode_query_response(0, r, &mut wire).is_ok() {
                    rep.resp_bytes += wire.len() as u64;
                }
                if nth_server % keep_every == 0 && rep.sampled_reqs.len() < keep_reqs {
                    rep.sampled_reqs.push(*req);
                }
                if nth_server % CHECK_SERVER_EVERY == 0 {
                    rep.check.record(oracle.check(req, &r.answer));
                }
                nth_server += 1;
            }
        }
        // The paper's payoff is only worth its speed if the reused
        // answers are right: check some of them where the client is now.
        for (c, traj) in fleet.trajectories.iter().enumerate() {
            if owners.binary_search(&c).is_ok() {
                continue;
            }
            if nth_reuse % CHECK_REUSE_EVERY == 0 {
                if let Some(ans) = &cached[c] {
                    rep.check
                        .record(oracle.check(&spec.request(c, traj[tick]), ans));
                }
            }
            nth_reuse += 1;
        }
    }
    lbq_obs::set_recording(false);
    (rep, engine)
}

/// The end-to-end metrics of a fleet run. On this in-process workload a
/// "request" is a position update that reached the engine and its
/// latency is the wall time of the `Engine::submit` batch it rode in;
/// `resp_bytes_mean` is what the responses *would* weigh on the wire.
pub fn end_to_end_values(setup: &Setup, rep: &FleetRep) -> Values {
    let mut v = Values::default();
    v.set("setup_s", setup.setup_s);
    let mut put = |name: &str, x: Option<f64>| {
        if let Some(x) = x {
            v.set(name, x);
        }
    };
    put("p50_us", rep.latency_us(0.50));
    put("p99_us", rep.latency_us(0.99));
    put("updates_per_s", rep.steady_rates().map(|r| r.0));
    put("capacity_rps", rep.steady_rates().map(|r| r.1));
    put("client_reuse_share", rep.reuse_share());
    let served = rep.server_requests();
    put(
        "resp_bytes_mean",
        (served > 0).then(|| rep.resp_bytes as f64 / served as f64),
    );
    put("peak_rss_mb", crate::report::peak_rss_mb());
    v
}

/// What a traced fleet run produced.
pub struct Traced {
    /// The per-layer metrics.
    pub values: Values,
    /// The replay's spans.
    pub tracer: crate::spans::Tracer,
    /// Position updates, warm-up included.
    pub attempted: u64,
    /// Requests the engine did not answer.
    pub failed: u64,
    /// All answer checks.
    pub check: CheckReport,
}

/// Timed ticks per recorder on/off block of the traced run.
const TRACE_BLOCK: usize = 10;

/// The traced run: one repetition with the recorder armed on every
/// other block of [`TRACE_BLOCK`] ticks (`QueryResp::stages` filled
/// in), the blocks in between being the overhead baseline; then the
/// replay of a sample of the requests that reached the engine.
pub fn traced_run(
    spec: &FleetSpec,
    plan: &FleetPlan,
    setup: &Setup,
    oracle: &Oracle,
    seed: u64,
    replay_requests: usize,
) -> Traced {
    use crate::layers;
    let mut v = Values::default();
    setup.layer_values(&mut v);
    // No sockets and no pacing sender on this workload (the replay
    // below runs without its proto legs and reports them as 0 itself).
    for d in crate::metrics::PER_LAYER {
        if d.name.starts_with("net.")
            || d.name.starts_with("bench.gen_late")
            || d.name == "bench.backlog_growth"
            || d.name == "bench.reruns"
        {
            v.set(d.name, 0.0);
        }
    }

    lbq_obs::init_recorder(lbq_obs::RecorderConfig::default());
    let (rep, engine) = repetition(
        spec,
        plan,
        setup,
        oracle,
        seed,
        replay_requests,
        Some(TRACE_BLOCK),
    );

    let traced_requests: u64 = rep
        .ticks
        .iter()
        .filter(|t| t.traced)
        .map(|t| t.requests)
        .sum();
    layers::stage_values(
        &rep.stages,
        traced_requests,
        rep.tree_tpnn_ns,
        rep.tree_tpnn_probes,
        &mut v,
    );
    layers::tier_values(&rep.tiers, &mut v);
    layers::engine_counters(&engine, &mut v);
    let busy: Vec<u64> = layers::worker_busy(&engine);
    // Busy time covers the warm-up ticks too; so does the wall time.
    let wall_s = rep.tick_ms.iter().sum::<f64>() / 1e3;
    layers::worker_load(&vec![0; busy.len()], &busy, wall_s, &mut v);
    layers::submit_costs(&engine, &rep.sampled_reqs, &mut v);
    drop(engine);
    v.set(
        "serve.batch_mean",
        rep.server_requests() as f64 / rep.ticks.len().max(1) as f64,
    );
    let tick_ms = |traced: Option<bool>| -> Vec<f64> {
        rep.ticks
            .iter()
            .filter(|t| traced.is_none_or(|want| t.traced == want))
            .map(|t| t.wall_s * 1e3)
            .collect()
    };
    v.set(
        "serve.tick_p50_ms",
        stats::median(&tick_ms(None)).unwrap_or(0.0),
    );
    v.set(
        "serve.tick_max_ms",
        rep.tick_ms.iter().copied().fold(0.0, f64::max),
    );
    if let (Some(t), Some(u)) = (
        stats::median(&tick_ms(Some(true))),
        stats::median(&tick_ms(Some(false))),
    ) {
        v.set("obs.trace_overhead_pct", (t - u) / u * 100.0);
        // Fixed work per tick: the loss of rate is the same figure.
        v.set("obs.trace_overhead_capacity_pct", (1.0 - u / t) * 100.0);
    }

    let tracer = layers::replay(&setup.server, &rep.sampled_reqs, false, &mut v);
    Traced {
        values: v,
        tracer,
        attempted: rep.attempted,
        failed: rep.failed,
        check: rep.check,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_ticks_are_local_outliers() {
        // A slow early regime that speeds up is not a build; a lone
        // spike in either regime is.
        let mut wall: Vec<f64> = (0..40)
            .map(|i| if i < 20 { 0.055 } else { 0.012 })
            .collect();
        wall[8] = 0.400;
        wall[30] = 1.300;
        let marks = build_ticks(&wall);
        let marked: Vec<usize> = (0..40).filter(|&i| marks[i]).collect();
        assert_eq!(marked, vec![8, 30]);
        assert!(build_ticks(&[0.1]).iter().all(|b| !b));
    }

    #[test]
    fn rates_skip_build_ticks_percentiles_do_not() {
        let tick = |wall_s: f64, requests: u64| Tick {
            wall_s,
            submit_s: wall_s * 0.9,
            requests,
            traced: false,
        };
        let mut rep = FleetRep {
            clients: 100,
            ticks: vec![tick(0.010, 50); 20],
            ..FleetRep::default()
        };
        rep.ticks[10] = tick(1.0, 50);
        let (updates, capacity) = rep.steady_rates().unwrap();
        assert!((updates - 100.0 / 0.010).abs() < 1e-6);
        assert!((capacity - 50.0 / 0.009).abs() < 1e-6);
        assert_eq!(rep.updates(), 2_000);
        assert_eq!(rep.reuse_share(), Some(0.5));
        // 5 % of the requests rode in the slow batch.
        assert!((rep.latency_us(0.50).unwrap() - 9_000.0).abs() < 1e-6);
        assert!((rep.latency_us(0.99).unwrap() - 900_000.0).abs() < 1e-6);
        assert_eq!(FleetRep::default().latency_us(0.5), None);
    }
}
