//! Minimal std-only micro-benchmark runner.
//!
//! The build environment has no crates.io access, so the former
//! criterion benches are plain `harness = false` mains built on this
//! module: warm up, take a fixed number of wall-clock samples with
//! [`std::time::Instant`], and report min/median/mean. No statistical
//! machinery — the numbers are indicative, the paper's real cost metric
//! (node accesses / page faults) is measured in the figure harness.

use std::hint::black_box;
use std::time::Instant;

/// Samples per benchmark (criterion's default is 100; these runs are
/// kept short).
const SAMPLES: usize = 15;

/// One timed result, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Fastest observed sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// Arithmetic mean over all samples.
    pub mean_ns: f64,
}

/// Times `f`, auto-calibrating the per-sample iteration count so each
/// sample lasts roughly 10 ms, and prints one aligned report line.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Sample {
    // Calibrate: grow the iteration count until a batch takes >= 1 ms.
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let el = t.elapsed();
        if el.as_secs_f64() >= 1e-3 || iters >= 1 << 20 {
            // Scale so one sample lasts ~10 ms.
            let per = el.as_secs_f64() / iters as f64;
            // lbq-check: allow(local-epsilon) — division floor, not a tolerance
            iters = ((10e-3 / per.max(1e-12)) as u64).clamp(1, 1 << 24);
            break;
        }
        iters *= 4;
    }
    let mut per_iter: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let s = Sample {
        min_ns: per_iter[0],
        median_ns: per_iter[per_iter.len() / 2],
        mean_ns: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
    };
    println!(
        "{name:<44} {:>12}/iter  (min {}, mean {})",
        fmt_ns(s.median_ns),
        fmt_ns(s.min_ns),
        fmt_ns(s.mean_ns)
    );
    s
}

/// Human-readable duration from nanoseconds.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_returns_sane_stats() {
        let mut x = 0u64;
        let s = bench("noop-ish", || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x
        });
        assert!(s.min_ns > 0.0);
        assert!(s.min_ns <= s.median_ns + 1e-9);
        assert!(s.median_ns.is_finite() && s.mean_ns.is_finite());
    }

    #[test]
    fn formatting_scales() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("µs"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
        assert!(fmt_ns(12e9).ends_with("s"));
    }
}
