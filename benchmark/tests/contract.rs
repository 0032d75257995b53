//! The builder's contract, pinned: `BENCHMARK.json` is the file the
//! metric tables generate, and every run's result line names every
//! metric that file declares and no other.

use lbq_benchmark::json::{self, Json};
use lbq_benchmark::metrics::{self, Decl};
use lbq_benchmark::workload;
use std::process::Command;
use std::time::{Duration, Instant};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn benchmark_json_is_generated_from_the_tables() {
    assert_eq!(
        benchmark_json(),
        metrics::benchmark_json(),
        "regenerate with: lbq-benchmark --print-benchmark-json > BENCHMARK.json"
    );
}

#[test]
fn benchmark_json_has_the_contract_shape() {
    let doc = json::parse(&benchmark_json()).unwrap();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = doc.get("command").and_then(Json::as_arr).unwrap();
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let names = |key: &str, fields: &[&str]| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|entry| {
                let got: Vec<&str> = entry
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(got, fields, "keys of a {key} entry");
                entry
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    };
    assert_eq!(names("workloads", &["name", "why"]), workload::NAMES);
    let declared = |t: &[Decl]| t.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
    assert_eq!(
        names("end_to_end", &["name", "unit", "better", "bound"]),
        declared(metrics::END_TO_END)
    );
    assert_eq!(
        names("per_layer", &["name", "unit", "better"]),
        declared(metrics::PER_LAYER)
    );
    // 4 + 22 × workloads runs, with set-up and two builds, in 3420 s.
    let runs = 4 + 22 * workload::NAMES.len() as u64;
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(runs as f64 * (seconds + 10.0) + 2.0 * 120.0 < 3420.0);
}

/// Runs the binary; returns its parsed result line.
fn run(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_lbq-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{args:?} exited with {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

/// The smoke: all four workloads, both kinds of run, at `--quick` size
/// (10k points, one repetition, ~1-s phases), answer check on.
#[test]
fn quick_smoke_names_every_declared_metric_and_no_other() {
    let started = Instant::now();
    for w in workload::NAMES {
        for (trace, table) in [("0", metrics::END_TO_END), ("1", metrics::PER_LAYER)] {
            let r = run(&["--workload", w, "--seed", "5", "--trace", trace, "--quick"]);
            let keys: Vec<&str> = r
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                r.get("correct"),
                Some(&Json::Bool(true)),
                "{w} trace {trace}"
            );
            assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(r.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let got = r.get("metrics").and_then(Json::as_obj).unwrap();
            let got_names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
            let want_names: Vec<&str> = table.iter().map(|d| d.name).collect();
            assert_eq!(got_names, want_names, "{w} trace {trace}");
            for ((name, m), d) in got.iter().zip(table) {
                let fields: Vec<&str> = m
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(fields, ["value", "unit"]);
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
                let v = m.get("value").and_then(Json::as_f64).unwrap();
                assert!(v.is_finite(), "{name} = {v}");
                if trace == "0" {
                    assert!(v > 0.0, "end-to-end metric {name} is {v} on {w}");
                }
            }
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "the quick smoke took {:?}",
        started.elapsed()
    );
}

#[test]
fn result_line_round_trips() {
    let mut v = metrics::Values::default();
    for (i, d) in metrics::END_TO_END.iter().enumerate() {
        v.set(d.name, 0.1 + i as f64 * 1_234.567_890_123);
    }
    let obj = metrics::render_metrics(metrics::END_TO_END, &v).unwrap();
    let line = metrics::result_line(true, 1_000, 0, &obj);
    assert!(!line.contains('\n'));
    let back = json::parse(&line).unwrap();
    assert_eq!(back.get("attempted").and_then(Json::as_f64), Some(1_000.0));
    for d in metrics::END_TO_END {
        let m = back.get("metrics").unwrap().get(d.name).unwrap();
        // Every digit survives the trip.
        assert_eq!(m.get("value").and_then(Json::as_f64), v.get(d.name));
    }
}

#[test]
fn unknown_arguments_and_workloads_are_refused() {
    for args in [
        &["--workload", "no-such-workload", "--trace", "0"][..],
        &["--frobnicate"][..],
        &["--trace", "2"][..],
        &["--seconds", "0"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_lbq-benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
