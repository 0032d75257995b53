//! The three TCP workloads, end to end: one process hosts the server
//! that ships (`LbqServer::from_items`, `EngineConfig::default()`,
//! `NetConfig::default()`) on `127.0.0.1:0` and the load generator.
//!
//! Latency on a small box is bimodal per server instance (thread
//! placement), so a run is several **repetitions**, each against a
//! fresh `Engine` + `NetServer` over the one shared tree: warm-up
//! (untimed) → open loop at the fixed rate → closed loop.

use crate::check::{CheckReport, Oracle};
use crate::loadgen::{
    closed_loop, open_loop, ClosedResult, OpenResult, PhaseCtx, Probe, Sample, Tally, Until,
};
use crate::metrics::Values;
use crate::stats;
use crate::workload::{self, arrivals, stream_seed, tag, TcpSpec};
use lbq_core::LbqServer;
use lbq_data::Dataset;
use lbq_net::{NetConfig, NetServer};
use lbq_proto::Frame;
use lbq_serve::{Engine, EngineConfig, QueryAnswer};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a run's `--seconds` are spent.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Dataset size.
    pub points: usize,
    /// Repetitions (fresh engine + server each).
    pub reps: usize,
    /// Open-loop seconds per repetition.
    pub open_s: f64,
    /// Closed-loop seconds per repetition.
    pub closed_s: f64,
    /// Warm-up requests are divided by this (`--quick`).
    pub warmup_div: usize,
    /// Set-ups timed for `setup_s`.
    pub setups: usize,
}

/// A late generator or a growing backlog invalidates a repetition.
const MAX_LATE_P99_US: f64 = 1_000.0;
const MAX_BACKLOG_GROWTH: f64 = 2.0;
/// Requests of the TCP leg of the warm-up (connection threads, socket
/// buffers), after the engine-side warm-up.
const TCP_WARMUP: usize = 256;
/// Engine-side warm-up batch size.
const WARMUP_BATCH: usize = 64;
/// Latency percentiles are taken over windows of this many consecutive
/// requests (p99 then has ten samples beyond it), this far apart.
const WINDOW: usize = 1_000;
const WINDOW_STEP: usize = 250;
/// Keep every n-th open-loop / closed-loop response for the checks.
const OPEN_SAMPLE_EVERY: usize = 8;
const CLOSED_SAMPLE_EVERY: usize = 64;

impl Plan {
    /// The plan of an end-to-end run: 60 % of the time open loop, 40 %
    /// closed loop, split over the repetitions.
    pub fn end_to_end(seconds: f64, quick: bool) -> Plan {
        let reps = if quick { 1 } else { 8 };
        Plan {
            points: if quick {
                workload::QUICK_POINTS
            } else {
                workload::FULL_POINTS
            },
            reps,
            open_s: 0.6 * seconds / reps as f64,
            closed_s: 0.4 * seconds / reps as f64,
            warmup_div: if quick { 10 } else { 1 },
            setups: if quick { 1 } else { 5 },
        }
    }

    /// The plan of a traced run: the two phases once traced and once
    /// untraced on one instance, leaving time for the replay.
    pub fn traced(seconds: f64, quick: bool) -> Plan {
        Plan {
            reps: 1,
            open_s: 0.2 * seconds,
            closed_s: 0.15 * seconds,
            setups: 1,
            ..Plan::end_to_end(seconds, quick)
        }
    }
}

/// The built database and what building it cost.
pub struct Setup {
    /// The dataset (raw items for the oracle).
    pub data: Dataset,
    /// The server that ships.
    pub server: Arc<LbqServer>,
    /// Dataset generation, seconds (last set-up).
    pub gen_s: f64,
    /// `LbqServer::from_items`, seconds (last set-up).
    pub build_s: f64,
    /// Median over the set-ups of: generation + `from_items` +
    /// `Engine::new` + `NetServer::bind` + first connection accepted.
    pub setup_s: f64,
}

impl Setup {
    /// The per-layer metrics a set-up yields by itself.
    pub fn layer_values(&self, v: &mut Values) {
        v.set("data.gen_s", self.gen_s);
        v.set("rtree.build_s", self.build_s);
        v.set("rtree.nodes", self.server.tree().node_count() as f64);
        v.set("rtree.height", f64::from(self.server.tree().height()));
    }
}

/// A live server instance: engine + TCP front-end.
pub struct Instance {
    /// The engine behind the front-end.
    pub engine: Arc<Engine>,
    net: NetServer,
}

impl Instance {
    /// What ships: default engine (cache + hot tier on, workers =
    /// available parallelism) behind a default front-end on an
    /// ephemeral loopback port.
    pub fn start(server: &Arc<LbqServer>) -> Instance {
        let engine = Arc::new(Engine::new(Arc::clone(server), EngineConfig::default()));
        let net = NetServer::bind("127.0.0.1:0", Arc::clone(&engine), NetConfig::default())
            .expect("bind an ephemeral loopback port");
        Instance { engine, net }
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// Drains and joins the front-end.
    pub fn stop(mut self) {
        self.net.shutdown();
    }
}

/// Builds the database `setups` times, timing each from nothing to
/// "the first request can be accepted"; keeps the last.
pub fn setup(setups: usize, generate: impl Fn() -> Dataset, with_front_end: bool) -> Setup {
    let mut times = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups.max(1) {
        drop(last.take()); // one database resident at a time
        let t0 = Instant::now();
        let data = generate();
        let gen_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let server = Arc::new(workload::build_server(&data));
        let build_s = t1.elapsed().as_secs_f64();
        if with_front_end {
            let inst = Instance::start(&server);
            TcpStream::connect(inst.addr()).expect("the fresh server accepts a connection");
            times.push(t0.elapsed().as_secs_f64());
            inst.stop();
        } else {
            let engine = Engine::new(Arc::clone(&server), EngineConfig::default());
            times.push(t0.elapsed().as_secs_f64());
            drop(engine);
        }
        last = Some((data, server, gen_s, build_s));
    }
    let (data, server, gen_s, build_s) = last.expect("at least one set-up ran");
    Setup {
        data,
        server,
        gen_s,
        build_s,
        setup_s: stats::median(&times).expect("at least one set-up ran"),
    }
}

/// The figures of one repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// The p50 of the quietest open-loop window, µs.
    pub p50_us: Option<f64>,
    /// The p99 of the quietest open-loop window, µs.
    pub p99_us: Option<f64>,
    /// Mean open-loop latency, µs.
    pub mean_us: Option<f64>,
    /// Sender lateness, µs.
    pub late_p50_us: f64,
    /// See [`Rep::late_p50_us`].
    pub late_p99_us: f64,
    /// Last-window p50 ÷ first-window p50.
    pub backlog_growth: f64,
    /// Closed-loop responses per second.
    pub capacity_rps: f64,
    /// Open-loop accounting.
    pub open: Tally,
    /// Closed-loop accounting.
    pub closed: Tally,
    /// Warm-up accounting (TCP leg).
    pub warm: Tally,
    /// Answer check over this repetition's samples.
    pub check: CheckReport,
}

impl Rep {
    /// `true` when the generator kept its schedule and the server kept
    /// up: the latency figures mean what they say.
    pub fn valid(&self) -> bool {
        self.late_p99_us <= MAX_LATE_P99_US && self.backlog_growth <= MAX_BACKLOG_GROWTH
    }
}

/// Shared state of a run's repetitions.
pub struct Runner<'a> {
    /// The workload.
    pub spec: TcpSpec,
    /// The time plan.
    pub plan: Plan,
    /// The run seed.
    pub seed: u64,
    /// The database.
    pub setup: &'a Setup,
    /// The brute-force oracle over the same raw items.
    pub oracle: &'a Oracle,
    /// Next unused `request_id`.
    pub next_id: u64,
}

impl Runner<'_> {
    fn ctx(&mut self, addr: SocketAddr, ids: usize, sample_every: usize) -> PhaseCtx {
        let base_id = self.next_id;
        self.next_id += ids as u64;
        PhaseCtx {
            addr,
            base_id,
            points: self.setup.data.len(),
            sample_every,
            // Sampled phases are the timed ones: probe those.
            probe: (sample_every > 0).then(|| Probe {
                step: self.spec.step,
                universe: self.setup.data.universe,
                salt: stream_seed(self.seed, tag::STEPS),
            }),
        }
    }

    /// Untimed warm-up of a fresh instance: the engine's memo tiers and
    /// worker scratch through `Engine::submit`, then the connection
    /// path with a short closed loop.
    pub fn warm_up(&mut self, inst: &Instance, rep: usize) -> Tally {
        let mut stream = self.spec.stream(stream_seed(self.seed, tag::warmup(rep)));
        let mut left = self.spec.warmup / self.plan.warmup_div;
        while left > 0 {
            let n = left.min(WARMUP_BATCH);
            inst.engine.submit(stream.take(n));
            left -= n;
        }
        let ctx = self.ctx(inst.addr(), TCP_WARMUP, 0);
        closed_loop(ctx, &mut stream, 32, Until::Count(TCP_WARMUP)).tally
    }

    /// The open-loop phase of repetition `rep`.
    pub fn open_phase(&mut self, inst: &Instance, rep: usize) -> OpenResult {
        let due = arrivals(
            stream_seed(self.seed, tag::arrivals(rep)),
            self.spec.rate,
            self.plan.open_s,
        );
        let reqs = self
            .spec
            .stream(stream_seed(self.seed, tag::open(rep)))
            .take(due.len());
        let ctx = self.ctx(inst.addr(), reqs.len(), OPEN_SAMPLE_EVERY);
        open_loop(ctx, &reqs, &due)
    }

    /// The closed-loop phase of repetition `rep`.
    pub fn closed_phase(&mut self, inst: &Instance, rep: usize) -> ClosedResult {
        let mut stream = self.spec.stream(stream_seed(self.seed, tag::closed(rep)));
        // Ids are claimed after the fact: the count is not known yet.
        let ctx = self.ctx(inst.addr(), 0, CLOSED_SAMPLE_EVERY);
        let out = closed_loop(
            ctx,
            &mut stream,
            self.spec.inflight,
            Until::Elapsed(Duration::from_secs_f64(self.plan.closed_s)),
        );
        self.next_id += out.tally.attempted;
        out
    }

    /// Checks `samples` against the oracle.
    pub fn examine(&self, samples: &[Sample], rep: &mut Rep) {
        for s in samples {
            let answer = match &s.frame {
                Frame::KnnResponse(f) => QueryAnswer::Knn(f.body.clone()),
                Frame::WindowResponse(f) => QueryAnswer::Window(f.body.clone()),
                // `Tally::book` only lets response frames through.
                _ => continue,
            };
            rep.check.record(self.oracle.check(&s.req, &answer));
        }
    }

    /// Folds the two phases into a repetition's figures.
    pub fn reduce(&self, warm: Tally, open: OpenResult, closed: ClosedResult) -> Rep {
        let windows = stats::windows(&open.latencies, WINDOW, WINDOW_STEP);
        let first = windows.first().and_then(|w| stats::percentile(w, 0.5));
        let last = windows.last().and_then(|w| stats::percentile(w, 0.5));
        let mut rep = Rep {
            p50_us: stats::quietest(&windows, 0.50),
            p99_us: stats::quietest(&windows, 0.99),
            mean_us: stats::mean(&open.latencies),
            late_p50_us: stats::percentile(&open.late_us, 0.50).unwrap_or(0.0),
            late_p99_us: stats::percentile(&open.late_us, 0.99).unwrap_or(0.0),
            backlog_growth: match (first, last) {
                (Some(f), Some(l)) if f > 0.0 => l / f,
                _ => 1.0,
            },
            capacity_rps: closed.rate(),
            ..Rep::default()
        };
        self.examine(&open.samples, &mut rep);
        self.examine(&closed.samples, &mut rep);
        rep.warm = warm;
        rep.open = open.tally;
        rep.closed = closed.tally;
        rep
    }

    /// One whole repetition against a fresh instance.
    pub fn repetition(&mut self, rep: usize) -> Rep {
        let inst = Instance::start(&self.setup.server);
        let warm = self.warm_up(&inst, rep);
        let open = self.open_phase(&inst, rep);
        let closed = self.closed_phase(&inst, rep);
        inst.stop();
        self.reduce(warm, open, closed)
    }
}

/// Everything an end-to-end run of a TCP workload produced.
pub struct Outcome {
    /// Valid repetitions, in order.
    pub reps: Vec<Rep>,
    /// Repetitions re-run because they were invalid.
    pub reruns: u64,
    /// All requests, all phases (warm-up included).
    pub total: Tally,
    /// All answer checks.
    pub check: CheckReport,
}

/// Runs `plan.reps` repetitions, re-running an invalid one once.
pub fn run_reps(runner: &mut Runner<'_>) -> Outcome {
    let mut out = Outcome {
        reps: Vec::new(),
        reruns: 0,
        total: Tally::default(),
        check: CheckReport::default(),
    };
    for r in 0..runner.plan.reps {
        let mut rep = runner.repetition(r);
        if !rep.valid() {
            eprintln!(
                "repetition {r} invalid (generator late p99 {:.0} us, backlog growth {:.2}): re-running once",
                rep.late_p99_us, rep.backlog_growth
            );
            absorb(&mut out, &rep);
            out.reruns += 1;
            // Fresh traffic for the second attempt.
            rep = runner.repetition(r + runner.plan.reps);
        }
        absorb(&mut out, &rep);
        out.reps.push(rep);
    }
    out
}

fn absorb(out: &mut Outcome, rep: &Rep) {
    out.total.absorb(&rep.warm);
    out.total.absorb(&rep.open);
    out.total.absorb(&rep.closed);
    out.check.absorb(rep.check.clone());
}

/// The per-repetition figures `f` picks, for a reduction over
/// repetitions.
fn over_reps(reps: &[Rep], f: impl Fn(&Rep) -> Option<f64>) -> Vec<f64> {
    reps.iter().filter_map(f).collect()
}

/// The end-to-end metrics of a TCP workload run.
pub fn end_to_end_values(setup: &Setup, out: &Outcome) -> Values {
    let mut v = Values::default();
    v.set("setup_s", setup.setup_s);
    // Latency: the quietest window of each repetition, then the median
    // over repetitions — a repetition that never had a quiet second
    // does not move it. (Measured on identical raw data from a noisy
    // half hour: run-to-run spread of p99 9 % this way, 13 % with the
    // mean over repetitions, 61 % with the median window and the mean.)
    if let Some(x) = stats::median(&over_reps(&out.reps, |r| r.p50_us)) {
        v.set("p50_us", x);
    }
    if let Some(x) = stats::median(&over_reps(&out.reps, |r| r.p99_us)) {
        v.set("p99_us", x);
    }
    let timed_responses: u64 = out
        .reps
        .iter()
        .map(|r| r.open.responses + r.closed.responses)
        .sum();
    let timed_bytes: u64 = out.reps.iter().map(|r| r.open.bytes + r.closed.bytes).sum();
    if timed_responses > 0 {
        v.set(
            "resp_bytes_mean",
            timed_bytes as f64 / timed_responses as f64,
        );
    }
    let stay: u64 = out
        .reps
        .iter()
        .map(|r| r.open.stayed + r.closed.stayed)
        .sum();
    let probed: u64 = out
        .reps
        .iter()
        .map(|r| r.open.probed + r.closed.probed)
        .sum();
    if let Some(cap) = stats::mean(&over_reps(&out.reps, |r| Some(r.capacity_rps))) {
        v.set("capacity_rps", cap);
        if probed > 0 {
            let share = stay as f64 / probed as f64;
            v.set("client_reuse_share", share);
            // A client that stays inside its region does not call: the
            // server's closed-loop rate carries 1 / (1 − share) updates.
            if share < 1.0 {
                v.set("updates_per_s", cap / (1.0 - share));
            }
        }
    }
    if let Some(rss) = crate::report::peak_rss_mb() {
        v.set("peak_rss_mb", rss);
    }
    v
}

/// What a traced run of a TCP workload produced.
pub struct Traced {
    /// The per-layer metrics.
    pub values: Values,
    /// The replay's spans.
    pub tracer: crate::spans::Tracer,
    /// All requests of both repetitions.
    pub total: Tally,
    /// All answer checks.
    pub check: CheckReport,
}

/// The current value of a registered `lbq-obs` metric.
fn metric(name: &str) -> Option<lbq_obs::MetricValue> {
    lbq_obs::metrics_snapshot()
        .into_iter()
        .find_map(|(n, v)| (n == name).then_some(v))
}

fn histogram_of(name: &str) -> Option<lbq_obs::HistogramSummary> {
    match metric(name)? {
        lbq_obs::MetricValue::Histogram(h) => Some(h),
        _ => None,
    }
}

fn counter_of(name: &str) -> u64 {
    match metric(name) {
        Some(lbq_obs::MetricValue::Counter(c)) => c,
        _ => 0,
    }
}

/// The traced run, all on **one** server instance (a second instance
/// would land in the other latency mode as often as not and drown the
/// recorder's cost): `lbq_obs::init_recorder` armed, so that response
/// frames carry the seven stage nanos → warm-up → open loop → closed
/// loop → recording off → the same two phases again, untraced, as the
/// overhead baseline → submit-cost probes → the single-threaded replay.
///
/// The client's mean latency splits, by construction, into
/// `net.wire_mean_us + net.wait_mean_us + serve.stage_total_us`.
pub fn traced_run(runner: &mut Runner<'_>, replay_requests: usize) -> Traced {
    use crate::layers;
    let mut v = Values::default();
    let setup = runner.setup;
    setup.layer_values(&mut v);
    // Fleet-only metrics: not on a TCP workload's path.
    for name in ["serve.batch_mean", "serve.tick_p50_ms", "serve.tick_max_ms"] {
        v.set(name, 0.0);
    }

    let mut reruns = 0u64;
    let mut total = Tally::default();
    let mut check = CheckReport::default();
    let (traced, untraced) = loop {
        let first = 2 * reruns as usize;
        // A fresh registry per attempt: the net histograms then hold
        // the traced open-loop phase plus the 256-request TCP warm-up
        // (< 2 % of the samples) and nothing else.
        lbq_obs::reset_metrics();
        lbq_obs::init_recorder(lbq_obs::RecorderConfig::default());
        let inst = Instance::start(&setup.server);
        let warm = runner.warm_up(&inst, first);
        let open = runner.open_phase(&inst, first);
        // Read the net layer now: the closed loop is a different regime.
        let socket = histogram_of("net-socket-latency");
        let coalesce = histogram_of("net-coalesce-batch");
        let frames_out = counter_of("net-frames-out");
        let busy_before = layers::worker_busy(&inst.engine);
        let closed = runner.closed_phase(&inst, first);
        let busy_after = layers::worker_busy(&inst.engine);
        let closed_wall = closed.window_s;
        lbq_obs::set_recording(false);
        let traced = runner.reduce(warm, open, closed);
        let open = runner.open_phase(&inst, first + 1);
        let closed = runner.closed_phase(&inst, first + 1);
        let untraced = runner.reduce(Tally::default(), open, closed);
        for rep in [&traced, &untraced] {
            total.absorb(&rep.warm);
            total.absorb(&rep.open);
            total.absorb(&rep.closed);
            check.absorb(rep.check.clone());
        }
        if !traced.valid() && reruns == 0 {
            eprintln!(
                "traced repetition invalid (generator late p99 {:.0} us, backlog growth {:.2}): re-running once",
                traced.late_p99_us, traced.backlog_growth
            );
            inst.stop();
            reruns += 1;
            continue;
        }
        if let Some(h) = socket {
            v.set("net.server_mean_us", h.mean_ns as f64 / 1e3);
            v.set("net.server_p99_us", h.p99_ns as f64 / 1e3);
        }
        if let Some(h) = coalesce.filter(|h| h.count > 0) {
            // The histogram's own mean is truncated to an integer;
            // frames out ÷ batches is exact.
            v.set(
                "net.coalesce_batch_mean",
                frames_out as f64 / h.count as f64,
            );
            v.set("net.batches", h.count as f64);
        }
        layers::worker_load(&busy_before, &busy_after, closed_wall, &mut v);
        v.set(
            "net.protocol_errors",
            counter_of("net-protocol-errors") as f64,
        );
        let mut stream = runner.spec.stream(stream_seed(runner.seed, tag::REPLAY));
        layers::submit_costs(&inst.engine, &stream.take(512 * 30), &mut v);
        layers::engine_counters(&inst.engine, &mut v);
        inst.stop();
        break (traced, untraced);
    };

    // Stage means over the open-loop phase: the same requests the
    // client and server means are taken over.
    let stage_total_us = layers::stage_values(
        &traced.open.stages,
        traced.open.responses,
        traced.open.tree_tpnn_ns + traced.closed.tree_tpnn_ns,
        traced.open.tree_tpnn_probes + traced.closed.tree_tpnn_probes,
        &mut v,
    );
    let mut tiers = traced.open.tiers;
    for (a, b) in tiers.iter_mut().zip(traced.closed.tiers) {
        *a += b;
    }
    layers::tier_values(&tiers, &mut v);
    if let (Some(client), Some(server)) = (traced.mean_us, v.get("net.server_mean_us")) {
        v.set("net.client_mean_us", client);
        v.set("net.wire_mean_us", client - server);
        v.set("net.wait_mean_us", server - stage_total_us);
    }
    v.set("bench.gen_late_p50_us", traced.late_p50_us);
    v.set("bench.gen_late_p99_us", traced.late_p99_us);
    v.set("bench.backlog_growth", traced.backlog_growth);
    v.set("bench.reruns", reruns as f64);
    if let (Some(t), Some(u)) = (traced.p50_us, untraced.p50_us) {
        v.set("obs.trace_overhead_pct", (t - u) / u * 100.0);
    }
    if untraced.capacity_rps > 0.0 {
        v.set(
            "obs.trace_overhead_capacity_pct",
            (untraced.capacity_rps - traced.capacity_rps) / untraced.capacity_rps * 100.0,
        );
    }

    let reqs = runner
        .spec
        .stream(stream_seed(runner.seed, tag::REPLAY))
        .take(replay_requests);
    let tracer = layers::replay(&setup.server, &reqs, true, &mut v);
    Traced {
        values: v,
        tracer,
        total,
        check,
    }
}
