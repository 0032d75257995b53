//! `lbq-benchmark` — see `README.md` beside this crate.
//!
//! ```text
//! lbq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! lbq-benchmark [--seed <n>] [--seconds <s>] [--quick]                     all four workloads, both runs
//! lbq-benchmark --spread <runs> [--workload <name>]                        two sets of runs, spreads vs bounds
//! lbq-benchmark --print-benchmark-json                                     the contract file, from the tables
//! ```

use lbq_benchmark::json::{self, Json};
use lbq_benchmark::metrics::{self, Better, RUN_SECONDS};
use lbq_benchmark::run::{self, Options};
use lbq_benchmark::{stats, workload};
use std::process::{Command, ExitCode};
use std::time::Instant;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    spread: Option<usize>,
    print_json: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        quick: false,
        spread: None,
        print_json: false,
    };
    let mut seconds_given = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                cli.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--spread" => {
                cli.spread = Some(
                    value("a run count")?
                        .parse()
                        .map_err(|e| format!("--spread: {e}"))?,
                )
            }
            "--quick" => cli.quick = true,
            "--print-benchmark-json" => cli.print_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if cli.quick && !seconds_given {
        cli.seconds = 2.0;
    }
    if cli.workload.as_deref() == Some("all") {
        cli.workload = None;
    }
    if let Some(w) = &cli.workload {
        if !workload::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; the workloads are {}",
                workload::NAMES.join(", ")
            ));
        }
    }
    Ok(cli)
}

/// The workloads a multi-run mode covers: the one named, or all.
fn selected(cli: &Cli) -> Vec<&str> {
    match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => workload::NAMES.to_vec(),
    }
}

/// One child run of this same binary; its standard output.
fn child(w: &str, seed: u64, cli: &Cli, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w, "--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{w} (trace {}) exited with {}:\n{stdout}{}",
            u8::from(trace),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(stdout)
}

/// The metric values of a child's result line.
fn result_values(stdout: &str) -> Result<Vec<(String, f64)>, String> {
    let line = stdout.lines().last().ok_or("no output")?;
    let v = json::parse(line)?;
    if v.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("run not correct: {line}"));
    }
    v.get("metrics")
        .and_then(Json::as_obj)
        .ok_or("no metrics object")?
        .iter()
        .map(|(k, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|x| (k.clone(), x))
                .ok_or(format!("metric {k} has no value"))
        })
        .collect()
}

/// Every workload, end-to-end run then traced run, each in its own
/// process so that `setup_s` and `peak_rss_mb` are its own.
fn run_all(cli: &Cli) -> ExitCode {
    let started = Instant::now();
    let mut ok = true;
    for w in selected(cli) {
        for trace in [false, true] {
            match child(w, cli.seed, cli, trace) {
                Ok(stdout) => println!("{stdout}"),
                Err(e) => {
                    println!("{e}");
                    ok = false;
                }
            }
        }
    }
    println!(
        "== whole command: {:.1} s, {} ==",
        started.elapsed().as_secs_f64(),
        if ok {
            "every answer checked out"
        } else {
            "FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two sets of `runs` end-to-end runs per workload, seeds
/// `seed, seed + 1, …`: the spread of each set (interquartile distance
/// over the median, the acceptance rule of this benchmark) and whether
/// the second set's median is worse than the first's by more than the
/// metric's bound.
fn run_spread(cli: &Cli, runs: usize) -> ExitCode {
    let mut ok = true;
    for w in selected(cli) {
        let mut sets: Vec<Vec<Vec<(String, f64)>>> = Vec::new();
        for _set in 0..2 {
            let mut rows = Vec::new();
            for i in 0..runs {
                match child(w, cli.seed + i as u64, cli, false).and_then(|s| result_values(&s)) {
                    Ok(v) => rows.push(v),
                    Err(e) => {
                        println!("{e}");
                        ok = false;
                    }
                }
            }
            sets.push(rows);
        }
        println!("== {w}: two sets of {runs} runs ==");
        println!(
            "{:<20} {:>12} {:>8} {:>12} {:>8} {:>9} {:>6}  verdict",
            "metric", "median 1", "spread", "median 2", "spread", "2 vs 1", "bound"
        );
        for d in metrics::END_TO_END {
            let column = |set: &Vec<Vec<(String, f64)>>| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.iter().find(|(k, _)| k == d.name).map(|&(_, v)| v))
                    .collect()
            };
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let (Some(ma), Some(mb)) = (stats::median(&a), stats::median(&b)) else {
                continue;
            };
            let (sa, sb) = (
                stats::iqr_share(&a).unwrap_or(0.0),
                stats::iqr_share(&b).unwrap_or(0.0),
            );
            // Positive = the second set is worse.
            let worse = match d.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let spread_ok = d.name == "setup_s" || (sa <= d.bound && sb <= d.bound);
            let agree = worse <= d.bound;
            let verdict = match (spread_ok && agree, sa.max(sb) <= d.bound / 3.0) {
                (true, true) => "ok",
                (true, false) => "ok (spread above a third of the bound)",
                (false, _) => "OUTSIDE BOUND",
            };
            ok &= spread_ok && agree;
            println!(
                "{:<20} {:>12.4} {:>7.2}% {:>12.4} {:>7.2}% {:>+8.2}% {:>5.0}%  {verdict}",
                d.name,
                ma,
                sa * 100.0,
                mb,
                sb * 100.0,
                worse * 100.0,
                d.bound * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("lbq-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.print_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some(runs) = cli.spread {
        return run_spread(&cli, runs.max(2));
    }
    let (Some(workload), Some(trace)) = (cli.workload.clone(), cli.trace) else {
        return run_all(&cli);
    };
    let opts = Options {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace,
        quick: cli.quick,
    };
    let Some(out) = run::run(&opts) else {
        eprintln!("lbq-benchmark: unknown workload {}", opts.workload);
        return ExitCode::from(2);
    };
    print!("{}", out.text);
    match out.result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("lbq-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
