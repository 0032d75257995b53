//! Per-query stage attribution: where did this query's time go?
//!
//! The serve pipeline crosses three crates (cache lookup in
//! `lbq-serve`, tree traversals in `lbq-rtree`, clipping in
//! `lbq-core`), so per-stage timing cannot live in any one of them.
//! Instead each pipeline stage brackets itself with a [`stage_timer`]
//! guard; the elapsed nanoseconds accumulate in plain thread-local
//! cells (queries never migrate threads mid-flight — a serve worker
//! runs each query start to finish). When a query completes, the
//! engine calls [`take_stages`] to harvest and zero the cells, getting
//! a [`StageNanos`] breakdown it attaches to the response and feeds to
//! the flight recorder.
//!
//! When recording is off ([`set_recording`]) a timer is a single
//! relaxed atomic load and no clock is read. Re-entrant timers for the same stage are
//! inert at the inner level, so nesting never double-counts.
//!
//! Stage names are kebab-case literals in [`STAGE_NAMES`]; each stage
//! also feeds a registered `stage-*` histogram so aggregate per-stage
//! latency distributions appear in [`crate::metrics_snapshot`] and in
//! exporter snapshots without any extra plumbing.

use crate::metrics::{histogram, Histogram};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of attributed pipeline stages.
pub const STAGE_COUNT: usize = 7;

/// A timed stage of the serve pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Server-side cache probe (`lbq-serve`).
    CacheLookup = 0,
    /// Solo best-first kNN traversal (`lbq-rtree`).
    TreeKnn = 1,
    /// Shared-frontier group kNN traversal (`lbq-rtree`). No serving
    /// path produces it any more (cold kNN misses take the per-query
    /// kernel); it stays because the benchmark's layer report reads it.
    GroupKnn = 2,
    /// kNN validity-region construction: on the serving path, `lbq-core`'s
    /// nearest-first pass after its candidate fetch (clipping included);
    /// in the paper's TPNN chain, each TPNN probe (`lbq-rtree`). The name
    /// stays because the wire format and the benchmark read the slot.
    TpnnChain = 3,
    /// Half-plane clipping of the validity polygon (`lbq-core`) — the
    /// TPNN chain's clips; the serving path's pass counts its clips
    /// under [`Stage::TpnnChain`].
    Clip = 4,
    /// Window query + validity-region construction (`lbq-core`).
    WindowPass = 5,
    /// Hot-tile point location + memoized-cell probe (`lbq-serve`).
    HotLookup = 6,
}

/// Kebab-case display names, indexed by `Stage as usize`.
pub const STAGE_NAMES: [&str; STAGE_COUNT] = [
    "cache-lookup",
    "tree-knn",
    "group-knn",
    "tpnn-chain",
    "clip",
    "window-pass",
    "hot-lookup",
];

impl Stage {
    /// The stage's kebab-case name.
    pub fn name(self) -> &'static str {
        STAGE_NAMES[self as usize]
    }

    /// All stages in index order.
    pub fn all() -> [Stage; STAGE_COUNT] {
        [
            Stage::CacheLookup,
            Stage::TreeKnn,
            Stage::GroupKnn,
            Stage::TpnnChain,
            Stage::Clip,
            Stage::WindowPass,
            Stage::HotLookup,
        ]
    }
}

/// Master switch for stage timing and flight recording. Off by
/// default; [`crate::init_recorder`] turns it on.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// Whether stage timing / flight recording is currently on.
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Turns stage timing and flight recording on or off. Cheap and
/// race-free to flip at runtime; in-flight queries may report a
/// partial stage breakdown across the transition.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

thread_local! {
    /// Per-stage accumulated nanoseconds for the query currently
    /// running on this thread.
    static STAGE_ACC: [Cell<u64>; STAGE_COUNT] = const { [const { Cell::new(0) }; STAGE_COUNT] };
    /// Bitmask of stages with a live timer on this thread — makes
    /// nested same-stage timers inert instead of double-counting.
    static STAGE_ACTIVE: Cell<u32> = const { Cell::new(0) };
}

/// RAII guard from [`stage_timer`]: adds its elapsed time to the
/// thread's accumulator for the stage when dropped.
#[derive(Debug)]
pub struct StageTimer {
    stage: Stage,
    start: Option<Instant>,
}

/// Starts timing `stage` on this thread until the guard drops.
///
/// Inert (no clock read) when recording is off or when an enclosing
/// timer for the same stage is already running on this thread.
#[inline]
pub fn stage_timer(stage: Stage) -> StageTimer {
    if !recording() {
        return StageTimer { stage, start: None };
    }
    let bit = 1u32 << (stage as usize);
    let nested = STAGE_ACTIVE.with(|m| {
        let mask = m.get();
        if mask & bit != 0 {
            true
        } else {
            m.set(mask | bit);
            false
        }
    });
    StageTimer {
        stage,
        start: if nested { None } else { Some(Instant::now()) },
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let i = self.stage as usize;
            STAGE_ACC.with(|acc| acc[i].set(acc[i].get().saturating_add(ns)));
            let bit = 1u32 << i;
            STAGE_ACTIVE.with(|m| m.set(m.get() & !bit));
        }
    }
}

/// A per-query stage breakdown in nanoseconds, indexed like
/// [`STAGE_NAMES`]. `Copy`, 48 bytes — cheap to attach to responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageNanos(pub [u64; STAGE_COUNT]);

impl StageNanos {
    /// Nanoseconds attributed to `stage`.
    #[inline]
    pub fn get(&self, stage: Stage) -> u64 {
        self.0[stage as usize]
    }

    /// Sum across all stages.
    pub fn total(&self) -> u64 {
        self.0.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// True when no stage recorded any time (e.g. recording off).
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&ns| ns == 0)
    }

    /// `(name, ns)` pairs in stage order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        STAGE_NAMES.iter().copied().zip(self.0.iter().copied())
    }
}

/// Harvests and zeroes this thread's stage accumulators.
///
/// The engine calls this at each query boundary; a timer still live on
/// this thread keeps its not-yet-dropped elapsed time (it is charged
/// to whatever query is current when the guard drops).
pub fn take_stages() -> StageNanos {
    STAGE_ACC.with(|acc| {
        let mut out = [0u64; STAGE_COUNT];
        for (o, cell) in out.iter_mut().zip(acc.iter()) {
            *o = cell.replace(0);
        }
        StageNanos(out)
    })
}

/// The registered aggregate histogram for each stage (`stage-*`
/// metric names), created on first use.
pub fn stage_histograms() -> &'static [Histogram; STAGE_COUNT] {
    static HISTS: OnceLock<[Histogram; STAGE_COUNT]> = OnceLock::new();
    HISTS.get_or_init(|| {
        [
            histogram("stage-cache-lookup"),
            histogram("stage-tree-knn"),
            histogram("stage-group-knn"),
            histogram("stage-tpnn-chain"),
            histogram("stage-clip"),
            histogram("stage-window-pass"),
            histogram("stage-hot-lookup"),
        ]
    })
}

/// Feeds each non-zero stage of `stages` into its aggregate
/// `stage-*` histogram (zero stages are skipped so untouched stages
/// do not flood bucket 0).
pub fn record_stage_histograms(stages: &StageNanos) {
    let hists = stage_histograms();
    for (h, &ns) in hists.iter().zip(stages.0.iter()) {
        if ns > 0 {
            h.record_ns(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the process-global recording flag.
    static RECORDING_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_timer_records_nothing() {
        let _serial = RECORDING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        set_recording(false);
        {
            let _t = stage_timer(Stage::TreeKnn);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(take_stages().is_zero());
    }

    #[test]
    fn timer_accumulates_into_named_slot() {
        let _serial = RECORDING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        set_recording(true);
        {
            let _t = stage_timer(Stage::Clip);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = take_stages();
        set_recording(false);
        assert!(
            s.get(Stage::Clip) >= 1_000_000,
            "clip = {}",
            s.get(Stage::Clip)
        );
        assert_eq!(s.get(Stage::TreeKnn), 0);
        // A second take sees zeroed slots.
        assert!(take_stages().is_zero());
    }

    #[test]
    fn nested_same_stage_timer_is_inert() {
        let _serial = RECORDING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        set_recording(true);
        {
            let _outer = stage_timer(Stage::TpnnChain);
            {
                let _inner = stage_timer(Stage::TpnnChain);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            // Inner dropped: accumulator still untouched, outer owns it.
            assert!(STAGE_ACC.with(|a| a[Stage::TpnnChain as usize].get()) == 0);
        }
        let s = take_stages();
        set_recording(false);
        let ns = s.get(Stage::TpnnChain);
        assert!(ns >= 2_000_000, "outer timer owns the full window: {ns}");
        assert!(ns < 1_000_000_000, "no double count: {ns}");
    }

    #[test]
    fn stage_names_align_with_enum() {
        for stage in Stage::all() {
            assert_eq!(STAGE_NAMES[stage as usize], stage.name());
        }
        assert_eq!(Stage::all().len(), STAGE_COUNT);
    }

    #[test]
    fn hand_filled_total_is_zero_and_iter() {
        let mut a = StageNanos::default();
        assert!(a.is_zero());
        a.0[Stage::GroupKnn as usize] = 600;
        a.0[Stage::TpnnChain as usize] = 200;
        assert_eq!(a.get(Stage::TpnnChain), 200);
        assert_eq!(a.total(), 800);
        assert!(!a.is_zero());
        assert_eq!(
            a.iter().find(|(n, _)| *n == "group-knn").map(|(_, v)| v),
            Some(600)
        );
    }
}
