//! The arithmetic every reported number goes through: percentiles,
//! windows of consecutive requests, and the window → repetition → run
//! reduction.
//!
//! A latency metric is reduced in three steps — percentile of each
//! window of 1,000 consecutive requests, the **quietest** window of a
//! repetition, median over the repetitions. The box's own stalls (a
//! hypervisor taking the CPU away for milliseconds, several times a
//! second, more in some minutes than in others) only ever *add*
//! latency, so the quietest window is the best estimate of what the
//! program does on that server instance; instances differ (thread
//! placement makes latency bimodal per instance), and a repetition may
//! never see a quiet second, so the run's figure is the median over
//! fresh instances.

/// Percentile `q` in `[0, 1]` of a sample, by the nearest-rank rule
/// (`ceil(q·n)`-th smallest). `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1).copied()
}

/// Median: the mean of the two middle values for even counts.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean (`None` when empty).
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Overlapping windows of `len` consecutive samples, `step` apart
/// (samples in request order). Fewer than `len` samples make one
/// window of everything; no samples make none.
pub fn windows(values: &[f64], len: usize, step: usize) -> Vec<&[f64]> {
    if values.is_empty() {
        return Vec::new();
    }
    if values.len() <= len {
        return vec![values];
    }
    (0..=values.len() - len)
        .step_by(step.max(1))
        .map(|i| &values[i..i + len])
        .collect()
}

/// One repetition's figure for percentile `q`: the smallest over its
/// windows of the window's percentile (the quietest window).
pub fn quietest(windows: &[&[f64]], q: f64) -> Option<f64> {
    windows
        .iter()
        .filter_map(|w| percentile(w, q))
        .min_by(f64::total_cmp)
}

/// First and third quartile by Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is
/// what the acceptance rule for this benchmark uses. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| -> f64 {
        // Position i·(n+1)/4 on a 1-based scale, linear interpolation,
        // clamped to the sample range — CPython's `quantiles`.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Run-to-run spread: interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn windows_of_consecutive_requests() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        let w = windows(&v, 4, 3);
        assert_eq!(w, vec![&v[0..4], &v[3..7], &v[6..10]]);
        // A tail shorter than a step is covered by the last full window
        // only as far as it reaches; nothing is read out of bounds.
        assert_eq!(windows(&v, 4, 4), vec![&v[0..4], &v[4..8]]);
        assert_eq!(windows(&v, 10, 3), vec![&v[..]]);
        assert_eq!(windows(&v, 50, 3), vec![&v[..]]);
        assert!(windows(&[], 4, 3).is_empty());
    }

    #[test]
    fn window_then_quietest_then_median() {
        // Repetition A: a stall in the middle of the phase raises the
        // windows that touch it; the quietest window does not see it.
        let mut a = vec![20.0; 12];
        a[5] = 900.0;
        a[6] = 900.0;
        let wa = windows(&a, 4, 4);
        assert_eq!(quietest(&wa, 0.5), Some(20.0));
        assert_eq!(quietest(&wa, 0.99), Some(20.0));
        // Repetition B sits in the slower placement mode throughout.
        let b = vec![40.0; 12];
        let wb = windows(&b, 4, 4);
        // Repetition C never had a quiet window.
        let c = vec![700.0; 12];
        let wc = windows(&c, 4, 4);
        let reps = [quietest(&wa, 0.5), quietest(&wb, 0.5), quietest(&wc, 0.5)];
        let flat: Vec<f64> = reps.iter().flatten().copied().collect();
        assert_eq!(median(&flat), Some(40.0));
        // The percentile is taken inside a window, before windows compete.
        let tail = [1.0, 1.0, 1.0, 50.0, 2.0, 2.0, 2.0, 9.0];
        assert_eq!(quietest(&windows(&tail, 4, 4), 0.99), Some(9.0));
        assert_eq!(quietest(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        let share = iqr_share(&v).unwrap();
        assert!((share - 1.0).abs() < 1e-12);
    }
}
