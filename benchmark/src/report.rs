//! The run header (what machine, what build, what configuration) and
//! the small pieces of `/proc` the benchmark reads about itself.

use lbq_net::NetConfig;
use lbq_serve::EngineConfig;
use std::process::Command;

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn cpuinfo_field(field: &str) -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The header printed above every result: enough to tell two reports
/// from different machines, builds or configurations apart.
pub fn header(workload: &str, seed: u64, seconds: f64, trace: bool, quick: bool) -> String {
    let engine = EngineConfig::default();
    let net = NetConfig::default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut h = String::new();
    h.push_str(&format!(
        "== lbq-benchmark: {workload} (seed {seed}, {seconds} s, {}{}) ==\n",
        if trace {
            "traced run"
        } else {
            "end-to-end run"
        },
        if quick { ", --quick" } else { "" }
    ));
    h.push_str(&format!(
        "machine: nproc {nproc}, cpu {}\n",
        cpuinfo_field("model name")
    ));
    h.push_str(&format!("cpu flags: {}\n", cpuinfo_field("flags")));
    h.push_str(&format!(
        "build: {}, commit {}\n",
        command_line("rustc", &["-V"]),
        // The driver's checkout is not a git repository.
        command_line("git", &["rev-parse", "--short", "HEAD"])
    ));
    h.push_str(&format!(
        "engine: {} workers, tile_size {}, cache {} shards x {} (grid {}), hot promote_after {} / max_tiles {} / max_cells {}\n",
        engine.workers,
        engine.tile_size,
        engine.cache.shards,
        engine.cache.per_shard,
        engine.cache.grid,
        engine.hot.promote_after,
        engine.hot.max_tiles,
        engine.hot.max_cells_per_tile,
    ));
    h.push_str(&format!(
        "net: coalesce_window {} us, max_batch {}, max_inflight {}, loopback 127.0.0.1\n",
        net.coalesce_window.as_micros(),
        net.max_batch,
        net.max_inflight,
    ));
    h
}

/// Formats a metric table for people: one `name value unit` row each.
pub fn table(title: &str, rows: &[(String, f64, &str)]) -> String {
    let width = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
    let mut s = format!("-- {title} --\n");
    for (name, value, unit) in rows {
        // Region areas are ~1e-7 of the universe: keep their digits.
        if *value != 0.0 && value.abs() < 1e-3 {
            s.push_str(&format!("{name:<width$}  {value:>14.4e} {unit}\n"));
        } else {
            s.push_str(&format!("{name:<width$}  {value:>14.4} {unit}\n"));
        }
    }
    s
}
