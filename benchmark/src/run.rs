//! One run of one workload: what the contract's command line asks for.

use crate::check::{CheckReport, Oracle};
use crate::metrics::{self, Decl, Values};
use crate::{fleet, layers, report, spans, tcp, workload};
use std::path::PathBuf;

/// The options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (one of [`workload::NAMES`]).
    pub workload: String,
    /// Traffic seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// `false`: the end-to-end run; `true`: the traced run.
    pub trace: bool,
    /// Smoke sizing: 10k points, one repetition.
    pub quick: bool,
}

/// What one run produced.
#[derive(Debug)]
pub struct Output {
    /// Header, tables, notes — for people.
    pub text: String,
    /// The result line — for the driver. `Err` when a declared metric
    /// could not be measured.
    pub result: Result<String, String>,
    /// No failed request, no wrong answer, every metric measured.
    pub correct: bool,
}

/// Where the traced run leaves its spans.
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results"))
        .join(format!("{workload}.trace.jsonl"))
}

/// What went wrong, if anything, in a run.
struct Verdict<'a> {
    attempted: u64,
    failed: u64,
    check: &'a CheckReport,
    notes: &'a [String],
}

fn finish(
    opts: &Options,
    table: &'static [Decl],
    values: &Values,
    verdict: Verdict<'_>,
    mut text: String,
) -> Output {
    let Verdict {
        attempted,
        failed,
        check,
        notes,
    } = verdict;
    let title = if opts.trace {
        "per-layer metrics"
    } else {
        "end-to-end metrics"
    };
    let rows: Vec<(String, f64, &str)> = table
        .iter()
        .filter_map(|d| values.get(d.name).map(|v| (d.name.to_string(), v, d.unit)))
        .collect();
    text.push_str(&report::table(title, &rows));
    let failed = failed + check.wrong;
    text.push_str(&format!(
        "requests: {attempted} attempted, {failed} failed (fail_share {:.6}); answer check: {} checked, {} wrong\n",
        failed as f64 / attempted.max(1) as f64,
        check.checked,
        check.wrong
    ));
    for n in notes.iter().chain(&check.notes) {
        text.push_str(&format!("  failure: {n}\n"));
    }
    let metrics_obj = metrics::render_metrics(table, values);
    let correct = failed == 0 && metrics_obj.is_ok();
    Output {
        text,
        result: metrics_obj.map(|m| metrics::result_line(correct, attempted.max(1), failed, &m)),
        correct,
    }
}

fn write_trace(opts: &Options, tracer: &spans::Tracer, text: &mut String) {
    let path = trace_path(&opts.workload);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| tracer.write_jsonl(std::io::BufWriter::new(f)));
    match written {
        Ok(()) => text.push_str(&format!(
            "trace: {} spans written to {}\n",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => text.push_str(&format!("trace: not written ({e})\n")),
    }
}

/// Runs `opts.workload` once. Returns `None` for an unknown workload.
pub fn run(opts: &Options) -> Option<Output> {
    let started = std::time::Instant::now();
    let mut text = report::header(
        &opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.quick,
    );
    let replay = if opts.quick {
        layers::REPLAY_REQUESTS / 10
    } else {
        layers::REPLAY_REQUESTS
    };
    let mut out = if let Some(spec) = workload::tcp_spec(&opts.workload) {
        let plan = if opts.trace {
            tcp::Plan::traced(opts.seconds, opts.quick)
        } else {
            tcp::Plan::end_to_end(opts.seconds, opts.quick)
        };
        let setup = tcp::setup(plan.setups, || spec.dataset(plan.points), true);
        let oracle = Oracle::new(&setup.data.items);
        let mut runner = tcp::Runner {
            spec,
            plan,
            seed: opts.seed,
            setup: &setup,
            oracle: &oracle,
            next_id: 1,
        };
        text.push_str(&format!(
            "plan: {} points, {} repetition(s) of {:.2} s open loop at {} req/s + {:.2} s closed loop with {} in flight\n",
            plan.points, plan.reps, plan.open_s, spec.rate, plan.closed_s, spec.inflight
        ));
        if opts.trace {
            let t = tcp::traced_run(&mut runner, replay);
            write_trace(opts, &t.tracer, &mut text);
            if let (Some(c), Some(w), Some(q), Some(s)) = (
                t.values.get("net.client_mean_us"),
                t.values.get("net.wire_mean_us"),
                t.values.get("net.wait_mean_us"),
                t.values.get("serve.stage_total_us"),
            ) {
                text.push_str(&format!(
                    "latency budget: client mean {c:.1} us = wire {w:.1} + wait {q:.1} + stages {s:.1}\n"
                ));
            }
            finish(
                opts,
                metrics::PER_LAYER,
                &t.values,
                Verdict {
                    attempted: t.total.attempted,
                    failed: t.total.failures(),
                    check: &t.check,
                    notes: &t.total.notes,
                },
                text,
            )
        } else {
            let o = tcp::run_reps(&mut runner);
            for (i, r) in o.reps.iter().enumerate() {
                text.push_str(&format!(
                    "repetition {i}: p50 {:.0} us, p99 {:.0} us, capacity {:.0} req/s, generator late p50/p99 {:.0}/{:.0} us, backlog growth {:.2}, tiers tree/cache/hot {:?}\n",
                    r.p50_us.unwrap_or(f64::NAN),
                    r.p99_us.unwrap_or(f64::NAN),
                    r.capacity_rps,
                    r.late_p50_us,
                    r.late_p99_us,
                    r.backlog_growth,
                    r.open.tiers,
                ));
            }
            text.push_str(&format!(
                "repetitions run: {}, re-run: {}, reconnects: {}\n",
                o.reps.len() as u64 + o.reruns,
                o.reruns,
                o.total.reconnects
            ));
            let values = tcp::end_to_end_values(&setup, &o);
            finish(
                opts,
                metrics::END_TO_END,
                &values,
                Verdict {
                    attempted: o.total.attempted,
                    failed: o.total.failures(),
                    check: &o.check,
                    notes: &o.total.notes,
                },
                text,
            )
        }
    } else if opts.workload == "fleet-moving" {
        let spec = workload::FLEET;
        let plan = if opts.trace {
            fleet::FleetPlan::traced(opts.seconds, opts.quick)
        } else {
            fleet::FleetPlan::end_to_end(opts.seconds, opts.quick)
        };
        let setup = tcp::setup(plan.setups, || spec.dataset(plan.points), false);
        let oracle = Oracle::new(&setup.data.items);
        text.push_str(&format!(
            "plan: {} points, {} clients in {} depots, {} warm-up + {} timed ticks, closed loop in process\n",
            plan.points, spec.clients, spec.depots, plan.warm_ticks, plan.timed_ticks
        ));
        if opts.trace {
            let t = fleet::traced_run(&spec, &plan, &setup, &oracle, opts.seed, replay);
            write_trace(opts, &t.tracer, &mut text);
            finish(
                opts,
                metrics::PER_LAYER,
                &t.values,
                Verdict {
                    attempted: t.attempted,
                    failed: t.failed,
                    check: &t.check,
                    notes: &[],
                },
                text,
            )
        } else {
            let (rep, _engine) =
                fleet::repetition(&spec, &plan, &setup, &oracle, opts.seed, 0, None);
            let wall: Vec<f64> = rep.ticks.iter().map(|t| t.wall_s).collect();
            let builds: Vec<String> = fleet::build_ticks(&wall)
                .iter()
                .zip(&wall)
                .filter(|(b, _)| **b)
                .map(|(_, w)| format!("{:.0}", w * 1e3))
                .collect();
            text.push_str(&format!(
                "repetitions run: 1, re-run: 0; hot-tile build ticks left out of the rates: {} ({} ms)\n",
                builds.len(),
                builds.join(", ")
            ));
            let values = fleet::end_to_end_values(&setup, &rep);
            finish(
                opts,
                metrics::END_TO_END,
                &values,
                Verdict {
                    attempted: rep.attempted,
                    failed: rep.failed,
                    check: &rep.check,
                    notes: &[],
                },
                text,
            )
        }
    } else {
        return None;
    };
    out.text.push_str(&format!(
        "wall time: {:.1} s\n",
        started.elapsed().as_secs_f64()
    ));
    Some(out)
}
