//! Named counters, gauges, and latency histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap
//! `Arc<Atomic…>` wrappers: look one up once (e.g. in a `OnceLock`
//! outside the hot loop) and increment it lock-free afterwards. The
//! registry keys metrics by their `&'static str` name — names must be
//! kebab-case literals, enforced by the `obs-span-name` rule in
//! `lbq-check`.
//!
//! Histograms bucket durations log-linearly: four sub-buckets per
//! power-of-two octave ([`HISTOGRAM_BUCKETS`] = 160 buckets cover 1 ns
//! to ~36 minutes). Recording is still a single relaxed atomic add per
//! sample, but quantile estimates tighten from the old factor-of-two
//! bound to at most +25% (bucket ratios cycle 5/4, 6/5, 7/6, 8/7, a
//! geometric mean of 2^¼ ≈ +19%) — good enough to read p50/p95/p99 as
//! absolute numbers, not just trend lines.
//!
//! Lookups ([`counter`], [`gauge`], [`histogram`]) consult a
//! per-thread handle cache before touching the global registry mutex,
//! so steady-state code that re-resolves a name per call (instead of
//! stashing the handle in a `OnceLock`) no longer contends on the
//! registry lock. [`reset_metrics`] bumps a generation stamp that
//! invalidates every thread's cache.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-buckets per power-of-two octave in a [`Histogram`].
pub const HISTOGRAM_SUB_BUCKETS: usize = 4;

/// Number of log-linear histogram buckets. Buckets 0–3 hold the exact
/// values 0–3; from there each octave `[2^e, 2^(e+1))` splits into
/// [`HISTOGRAM_SUB_BUCKETS`] equal-width sub-buckets. The last bucket
/// absorbs overflow (≥ 2^41 ns ≈ 36 minutes).
pub const HISTOGRAM_BUCKETS: usize = 160;

/// A monotonically increasing counter.
#[derive(Clone, Default, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins signed gauge.
#[derive(Clone, Default, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram over nanosecond durations.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }))
    }
}

/// Log-linear bucket index for a duration. Values 0–3 map to buckets
/// 0–3 exactly; a value in octave `e = floor(log2(ns)) ≥ 2` lands in
/// bucket `4·(e−1) + sub` where `sub` is the next two bits below the
/// leading one. Contiguous and monotonic: 3→3, 4→4, 7→7, 8→8, …
#[inline]
fn bucket_of(ns: u64) -> usize {
    if ns < 4 {
        // lbq-check: allow(lossy-cast) — ns < 4 fits any usize
        return ns as usize;
    }
    let e = (63 - ns.leading_zeros()) as usize; // ≥ 2
    let sub = ((ns >> (e - 2)) & 3) as usize;
    (HISTOGRAM_SUB_BUCKETS * (e - 1) + sub).min(HISTOGRAM_BUCKETS - 1)
}

/// Largest value contained in bucket `i` (its inclusive upper bound).
fn bucket_upper(i: usize) -> u64 {
    if i < 4 {
        return i as u64;
    }
    let e = i / HISTOGRAM_SUB_BUCKETS + 1;
    let sub = (i % HISTOGRAM_SUB_BUCKETS) as u64;
    // Sub-bucket `sub` of octave `e` spans `[(4+sub)·2^(e−2), (5+sub)·2^(e−2))`.
    let width = 1u64 << (e - 2);
    (4 + sub) * width + width - 1
}

impl Histogram {
    /// Creates an empty, unregistered histogram (for local, per-run
    /// measurement; use [`histogram`] for the named global registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.0.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records an elapsed [`std::time::Duration`].
    #[inline]
    pub fn record(&self, d: std::time::Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records a raw unitless sample (tile sizes, batch occupancy, …):
    /// same log-linear bucket lattice, the value is taken as-is. The
    /// `_ns` fields of the summary then read as plain values.
    #[inline]
    pub fn record_value(&self, v: u64) {
        self.record_ns(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples, ns.
    pub fn sum_ns(&self) -> u64 {
        self.0.sum_ns.load(Ordering::Relaxed)
    }

    /// Copies the live buckets once; returns the copy and its total.
    /// Everything derived from one copy is mutually consistent however
    /// many `record_ns` calls race the read.
    fn snapshot(&self) -> ([u64; HISTOGRAM_BUCKETS], u64) {
        let mut copy = [0u64; HISTOGRAM_BUCKETS];
        let mut count = 0u64;
        for (c, b) in copy.iter_mut().zip(&self.0.buckets) {
            *c = b.load(Ordering::Relaxed);
            count += *c;
        }
        (copy, count)
    }

    /// Estimated value at quantile `q` in `[0, 1]`: the upper bound of
    /// the bucket containing that rank (0 when empty). Overestimates by
    /// at most 25% of the true value (typically ~10%).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let (buckets, count) = self.snapshot();
        quantile_of(&buckets, count, q)
    }

    /// Point-in-time p50/p95/p99/mean summary. `count` and the three
    /// quantiles come from one copy of the buckets, so they are ordered
    /// (p50 ≤ p95 ≤ p99) even while other threads record; `mean_ns` is
    /// the live sum over that count.
    pub fn summary(&self) -> HistogramSummary {
        let (buckets, count) = self.snapshot();
        let sum = self.0.sum_ns.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            p50_ns: quantile_of(&buckets, count, 0.50),
            p95_ns: quantile_of(&buckets, count, 0.95),
            p99_ns: quantile_of(&buckets, count, 0.99),
            mean_ns: if count == 0 { 0 } else { sum / count },
        }
    }
}

/// Quantile `q` of a bucket copy holding `count` samples in total.
fn quantile_of(buckets: &[u64; HISTOGRAM_BUCKETS], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    // lbq-check: allow(lossy-cast) — rank ≤ count by construction
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank {
            return bucket_upper(i);
        }
    }
    bucket_upper(HISTOGRAM_BUCKETS - 1)
}

/// A copyable snapshot of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Median estimate (bucket upper bound), ns.
    pub p50_ns: u64,
    /// 95th percentile estimate, ns.
    pub p95_ns: u64,
    /// 99th percentile estimate, ns.
    pub p99_ns: u64,
    /// Exact arithmetic mean, ns.
    pub mean_ns: u64,
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

static REGISTRY: Mutex<BTreeMap<&'static str, Metric>> = Mutex::new(BTreeMap::new());

/// Bumped by [`reset_metrics`]; per-thread handle caches self-clear
/// when their recorded generation falls behind.
static RESET_GEN: AtomicU64 = AtomicU64::new(0);

struct HandleCache {
    generation: u64,
    map: BTreeMap<&'static str, Metric>,
}

thread_local! {
    static HANDLE_CACHE: RefCell<HandleCache> = const {
        RefCell::new(HandleCache { generation: 0, map: BTreeMap::new() })
    };
}

fn with_registry<R>(f: impl FnOnce(&mut BTreeMap<&'static str, Metric>) -> R) -> R {
    let mut g = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    f(&mut g)
}

/// Thread-cached lookup: consult this thread's handle cache first;
/// on miss run `fetch` against the global registry and cache its
/// registered handle (kind-mismatched detached handles are never
/// cached, preserving the "fresh detached handle per call" contract).
fn cached_lookup<T>(
    name: &'static str,
    pick: impl Fn(&Metric) -> Option<T>,
    fetch: impl FnOnce() -> (T, Option<Metric>),
) -> T {
    let generation = RESET_GEN.load(Ordering::Acquire);
    let hit = HANDLE_CACHE.with(|c| {
        let mut c = c.borrow_mut();
        if c.generation != generation {
            c.map.clear();
            c.generation = generation;
        }
        c.map.get(name).and_then(&pick)
    });
    if let Some(handle) = hit {
        return handle;
    }
    let (handle, entry) = fetch();
    if let Some(entry) = entry {
        HANDLE_CACHE.with(|c| {
            c.borrow_mut().map.insert(name, entry);
        });
    }
    handle
}

/// Looks up (or creates) the counter named `name`. If the name is
/// already registered as a different metric kind, a fresh unregistered
/// counter is returned rather than panicking.
pub fn counter(name: &'static str) -> Counter {
    cached_lookup(
        name,
        |m| match m {
            Metric::Counter(c) => Some(c.clone()),
            _ => None,
        },
        || {
            with_registry(|r| {
                match r
                    .entry(name)
                    .or_insert_with(|| Metric::Counter(Counter::default()))
                {
                    Metric::Counter(c) => (c.clone(), Some(Metric::Counter(c.clone()))),
                    _ => (Counter::default(), None),
                }
            })
        },
    )
}

/// Looks up (or creates) the gauge named `name`. Kind mismatches yield
/// a fresh unregistered gauge.
pub fn gauge(name: &'static str) -> Gauge {
    cached_lookup(
        name,
        |m| match m {
            Metric::Gauge(g) => Some(g.clone()),
            _ => None,
        },
        || {
            with_registry(|r| {
                match r
                    .entry(name)
                    .or_insert_with(|| Metric::Gauge(Gauge::default()))
                {
                    Metric::Gauge(g) => (g.clone(), Some(Metric::Gauge(g.clone()))),
                    _ => (Gauge::default(), None),
                }
            })
        },
    )
}

/// Looks up (or creates) the histogram named `name`. Kind mismatches
/// yield a fresh unregistered histogram.
pub fn histogram(name: &'static str) -> Histogram {
    cached_lookup(
        name,
        |m| match m {
            Metric::Histogram(h) => Some(h.clone()),
            _ => None,
        },
        || {
            with_registry(|r| {
                match r
                    .entry(name)
                    .or_insert_with(|| Metric::Histogram(Histogram::default()))
                {
                    Metric::Histogram(h) => (h.clone(), Some(Metric::Histogram(h.clone()))),
                    _ => (Histogram::default(), None),
                }
            })
        },
    )
}

/// A registered metric's current value, as captured by
/// [`metrics_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram summary.
    Histogram(HistogramSummary),
}

/// Snapshot of every registered metric, sorted by name.
pub fn metrics_snapshot() -> Vec<(&'static str, MetricValue)> {
    with_registry(|r| {
        r.iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.summary()),
                };
                (*name, v)
            })
            .collect()
    })
}

/// Unregisters every metric. Existing handles keep working but are no
/// longer visible to [`metrics_snapshot`]; intended for tests and for
/// benches separating phases. Also invalidates every thread's handle
/// cache, so subsequent lookups re-register.
pub fn reset_metrics() {
    with_registry(|r| r.clear());
    RESET_GEN.fetch_add(1, Ordering::Release);
}

/// Serializes unit tests that touch the process-global registry: a
/// concurrent [`reset_metrics`] would detach another test's handles
/// mid-assertion.
#[cfg(test)]
pub(crate) static TEST_REGISTRY_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // Exact small values.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 3);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(3), 3);
        // First split octave: 4..8 are still exact (width-1 buckets).
        assert_eq!(bucket_of(4), 4);
        assert_eq!(bucket_of(7), 7);
        assert_eq!(bucket_upper(4), 4);
        assert_eq!(bucket_upper(7), 7);
        // Octave [8,16) has four width-2 sub-buckets.
        assert_eq!(bucket_of(8), 8);
        assert_eq!(bucket_of(9), 8);
        assert_eq!(bucket_of(10), 9);
        assert_eq!(bucket_of(15), 11);
        assert_eq!(bucket_upper(8), 9);
        assert_eq!(bucket_upper(11), 15);
        // A mid-range value: 1500 ∈ [1280, 1536).
        assert_eq!(bucket_upper(bucket_of(1500)), 1535);
        // Overflow clamps into the last bucket.
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), (1u64 << 41) - 1);
    }

    #[test]
    fn buckets_contiguous_and_monotonic() {
        // Every bucket's upper bound + 1 lands in the next bucket, and
        // each value maps into a bucket whose range contains it.
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let upper = bucket_upper(i);
            assert_eq!(bucket_of(upper), i, "upper of bucket {i}");
            assert_eq!(bucket_of(upper + 1), i + 1, "successor of bucket {i}");
            assert!(bucket_upper(i + 1) > upper, "monotonic uppers at {i}");
        }
    }

    #[test]
    fn quantile_error_within_bound() {
        // The reported quantile is the bucket's upper bound, so the
        // worst overestimate is a value at a bucket's lower bound:
        // bounded by +25%, the largest sub-bucket ratio (5/4).
        for v in [4u64, 100, 1_000, 50_000, 1_000_000, 123_456_789] {
            let h = Histogram::new();
            h.record_ns(v);
            let est = h.quantile_ns(0.5);
            assert!(est >= v);
            assert!(
                (est - v) * 4 <= v,
                "estimate {est} overshoots {v} by more than 25%"
            );
        }
    }

    #[test]
    fn histogram_quantiles_and_summary() {
        let h = Histogram::new();
        assert_eq!(h.summary(), HistogramSummary::default());
        // 99 fast samples in sub-bucket [1280, 1536), one slow outlier.
        for _ in 0..99 {
            h.record_ns(1500);
        }
        h.record_ns(1_000_000);
        assert_eq!(h.count(), 100);
        let s = h.summary();
        assert_eq!(s.p50_ns, 1535);
        assert_eq!(s.p95_ns, 1535);
        // Rank 99 of 100 is still in the fast bucket; only the max
        // (rank 100) reaches the outlier's sub-bucket [917504, 2^20).
        assert_eq!(s.p99_ns, 1535);
        assert_eq!(h.quantile_ns(1.0), (1u64 << 20) - 1);
        assert_eq!(s.mean_ns, (99 * 1500 + 1_000_000) / 100);
    }

    #[test]
    fn counter_gauge_roundtrip() {
        let c = Counter::default();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn registry_dedupes_by_name_and_resets() {
        let _serial = TEST_REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Distinct names from the rest of the suite: the registry is
        // process-global and tests share it.
        let a = counter("test-registry-counter");
        let b = counter("test-registry-counter");
        a.incr();
        b.incr();
        assert_eq!(a.get(), 2);
        let snap = metrics_snapshot();
        assert!(snap
            .iter()
            .any(|(n, v)| *n == "test-registry-counter" && *v == MetricValue::Counter(2)));
        // Kind mismatch: returns a detached handle, keeps the original.
        let h = histogram("test-registry-counter");
        h.record_ns(10);
        assert_eq!(a.get(), 2);
        reset_metrics();
        assert!(!metrics_snapshot()
            .iter()
            .any(|(n, _)| *n == "test-registry-counter"));
        // Old handle still works, just unregistered.
        a.incr();
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn thread_cache_shares_one_underlying_metric() {
        let _serial = TEST_REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset_metrics();
        let local = counter("test-tls-cache-counter");
        local.incr();
        // A second lookup on this thread hits the cache; a lookup on a
        // fresh thread goes through the registry. All three handles
        // must alias the same atomic.
        let again = counter("test-tls-cache-counter");
        again.incr();
        let from_thread = std::thread::spawn(|| {
            let c = counter("test-tls-cache-counter");
            c.incr();
            c.get()
        })
        .join()
        .unwrap();
        assert_eq!(from_thread, 3);
        assert_eq!(local.get(), 3);
    }

    #[test]
    fn reset_invalidates_thread_cache() {
        let _serial = TEST_REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let a = counter("test-tls-gen-counter");
        a.incr();
        reset_metrics();
        // Post-reset the cached handle must not be reused: the lookup
        // re-registers, so the snapshot sees a fresh zeroed counter.
        let b = counter("test-tls-gen-counter");
        assert_eq!(b.get(), 0);
        b.incr();
        assert!(metrics_snapshot()
            .iter()
            .any(|(n, v)| *n == "test-tls-gen-counter" && *v == MetricValue::Counter(1)));
        // The pre-reset handle is detached but alive.
        a.incr();
        assert_eq!(a.get(), 2);
    }
}
