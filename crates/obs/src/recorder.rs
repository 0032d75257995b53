//! The flight recorder: a fixed-capacity, lock-free ring of recent
//! per-query event records, with automatic slow-query capture.
//!
//! Serve workers call [`record_query`] once per answered query (a
//! no-op unless [`init_recorder`] ran and recording is on). Each
//! record lands in a power-of-two ring of seqlock-stamped slots:
//! writers claim a ticket with one `fetch_add`, claim the slot by a CAS
//! of its stamp to odd, store the payload words, and stamp it even — no
//! locks, no allocation, readers never block writers. A writer that
//! finds its slot mid-write or already newer drops its record and
//! counts the drop. [`FlightRecorder::recent`]
//! walks the ring and keeps only slots whose stamp is stable across
//! the read (a torn slot is simply skipped).
//!
//! **Slow-query capture**: the recorder maintains a rolling latency
//! histogram; once `slow_min_samples` queries are in, any query slower
//! than `slow_multiplier × p99` (and ≥ `slow_floor_ns`) is captured —
//! its full per-stage breakdown is pushed to a small bounded capture
//! buffer ([`FlightRecorder::take_slow_captures`]) and dumped as a
//! `slow-query` event (stage tree flattened into fields) to whatever
//! trace subscriber is installed, e.g. the JSONL sink.

use crate::metrics::{Histogram, HistogramSummary};
use crate::stage::{self, StageNanos, STAGE_NAMES};
use crate::trace::{enabled, event_with, Value};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// What kind of query a [`QueryEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// k-nearest-neighbor query.
    Knn = 0,
    /// Window query.
    Window = 1,
}

impl QueryKind {
    /// Kebab-case label.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Knn => "knn",
            QueryKind::Window => "window",
        }
    }

    fn from_u64(v: u64) -> QueryKind {
        if v == 1 {
            QueryKind::Window
        } else {
            QueryKind::Knn
        }
    }
}

/// Which tier answered the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Full tree traversal, answered alone.
    Tree = 0,
    /// Served from the engine's validity-region cache.
    Cache = 1,
    /// Full traversal amortized across a tile group. The engine no
    /// longer produces it (every cold miss is answered alone); it stays
    /// because the benchmark's load generator matches on it.
    TreeGroup = 2,
    /// Hot-tile Voronoi fast path: point location into a lazily
    /// materialized order-k cell (`lbq-serve`'s hybrid index).
    HotVoronoi = 3,
}

impl CacheTier {
    /// Kebab-case label.
    pub fn name(self) -> &'static str {
        match self {
            CacheTier::Tree => "tree",
            CacheTier::Cache => "cache",
            CacheTier::TreeGroup => "tree-group",
            CacheTier::HotVoronoi => "hot-voronoi",
        }
    }

    fn from_u64(v: u64) -> CacheTier {
        match v {
            1 => CacheTier::Cache,
            2 => CacheTier::TreeGroup,
            3 => CacheTier::HotVoronoi,
            _ => CacheTier::Tree,
        }
    }
}

/// One per-query record as stored in (and read back from) the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryEvent {
    /// Engine-assigned query id (monotonic per engine).
    pub query_id: u64,
    /// Query kind.
    pub kind: QueryKind,
    /// `k` for kNN queries, 0 for windows.
    pub k: u32,
    /// Which tier answered.
    pub tier: CacheTier,
    /// Hilbert tile prefix the query's focus landed in.
    pub tile: u32,
    /// End-to-end latency as reported to the client, ns.
    pub latency_ns: u64,
    /// R-tree node accesses attributed to this query (approximate
    /// under concurrent traffic — see `RTree::with_stats`).
    pub node_accesses: u32,
    /// R-tree page accesses attributed to this query (same caveat).
    pub page_accesses: u32,
    /// Per-stage breakdown of the latency.
    pub stages: StageNanos,
}

impl Default for QueryEvent {
    fn default() -> Self {
        QueryEvent {
            query_id: 0,
            kind: QueryKind::Knn,
            k: 0,
            tier: CacheTier::Tree,
            tile: 0,
            latency_ns: 0,
            node_accesses: 0,
            page_accesses: 0,
            stages: StageNanos::default(),
        }
    }
}

/// Payload words per ring slot (plus one sequence word).
const SLOT_WORDS: usize = 5 + stage::STAGE_COUNT;

struct Slot {
    /// Seqlock stamp: 0 = never written, odd = write in progress,
    /// `2·ticket + 2` = stable.
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; SLOT_WORDS],
        }
    }
}

fn pack(ev: &QueryEvent) -> [u64; SLOT_WORDS] {
    let mut w = [0u64; SLOT_WORDS];
    w[0] = ev.query_id;
    w[1] = (ev.kind as u64) | ((ev.tier as u64) << 8) | ((u64::from(ev.k)) << 32);
    w[2] = u64::from(ev.tile);
    w[3] = ev.latency_ns;
    w[4] = (u64::from(ev.node_accesses) << 32) | u64::from(ev.page_accesses);
    w[5..].copy_from_slice(&ev.stages.0);
    w
}

fn unpack(w: &[u64; SLOT_WORDS]) -> QueryEvent {
    let mut stages = StageNanos::default();
    stages.0.copy_from_slice(&w[5..]);
    QueryEvent {
        query_id: w[0],
        kind: QueryKind::from_u64(w[1] & 0xff),
        tier: CacheTier::from_u64((w[1] >> 8) & 0xff),
        // lbq-check: allow(lossy-cast) — packed as u32, high bits zero
        k: (w[1] >> 32) as u32,
        // lbq-check: allow(lossy-cast) — packed as u32
        tile: w[2] as u32,
        latency_ns: w[3],
        // lbq-check: allow(lossy-cast) — packed as u32
        node_accesses: (w[4] >> 32) as u32,
        // lbq-check: allow(lossy-cast) — packed as u32, masked
        page_accesses: (w[4] & 0xffff_ffff) as u32,
        stages,
    }
}

/// Configuration for [`init_recorder`].
#[derive(Debug, Clone, Copy)]
pub struct RecorderConfig {
    /// Ring capacity in records; rounded up to a power of two.
    pub capacity: usize,
    /// Minimum latency samples before slow-query capture arms.
    pub slow_min_samples: u64,
    /// A query is slow when its latency exceeds `p99 × multiplier`.
    pub slow_multiplier: u64,
    /// Absolute floor: captures only fire at or above this latency,
    /// regardless of how tight the p99 is.
    pub slow_floor_ns: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            capacity: 1024,
            slow_min_samples: 256,
            slow_multiplier: 4,
            slow_floor_ns: 0,
        }
    }
}

/// Upper bound on buffered slow captures; older ones are dropped once
/// the buffer is full (the `recorder-slow-captured` total still counts
/// them).
const SLOW_CAPTURE_BUFFER: usize = 64;

/// How often (in records) the slow threshold is recomputed from the
/// rolling latency histogram.
const THRESHOLD_RECALC_EVERY: u64 = 64;

/// One captured slow query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowCapture {
    /// The offending query's record.
    pub event: QueryEvent,
    /// The threshold it exceeded, ns.
    pub threshold_ns: u64,
}

/// Point-in-time recorder statistics for snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderStats {
    /// Ring capacity in records.
    pub capacity: usize,
    /// Total records ever offered (may exceed capacity), dropped ones
    /// included.
    pub total: u64,
    /// Records whose ring write was dropped because their slot was
    /// held by another writer or already held a newer record
    /// (`recorder-dropped`). Their latency still feeds the slow-query
    /// threshold and capture.
    pub dropped: u64,
    /// Total slow-query captures fired.
    pub slow_captured: u64,
    /// Current slow threshold, ns (0 while warming up).
    pub threshold_ns: u64,
    /// Summary of the rolling latency histogram.
    pub latency: HistogramSummary,
}

/// The flight recorder. One process-global instance is created by
/// [`init_recorder`]; standalone instances can be built with
/// [`FlightRecorder::new`] for tests.
pub struct FlightRecorder {
    slots: Vec<Slot>,
    mask: u64,
    head: AtomicU64,
    latency: Histogram,
    threshold_ns: AtomicU64,
    slow: Mutex<VecDeque<SlowCapture>>,
    slow_captured: AtomicU64,
    dropped: AtomicU64,
    config: RecorderConfig,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("total", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// Builds a recorder with `config` (capacity rounded up to a power
    /// of two, minimum 2).
    pub fn new(config: RecorderConfig) -> FlightRecorder {
        let capacity = config.capacity.next_power_of_two().max(2);
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            mask: (capacity as u64) - 1,
            head: AtomicU64::new(0),
            latency: Histogram::new(),
            threshold_ns: AtomicU64::new(0),
            slow: Mutex::new(VecDeque::new()),
            slow_captured: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            config,
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever offered, dropped ones included.
    pub fn total(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Current slow threshold in ns (0 while warming up).
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Writes one record into the ring and runs slow-query detection.
    /// Lock-free on the ring; the capture buffer mutex is only touched
    /// for queries already classified as slow.
    ///
    /// Writers a ring length apart map to the same slot, so a writer
    /// first claims its slot: one CAS from a stable (even) stamp older
    /// than its own ticket to its odd in-progress stamp. A slot that
    /// is mid-write (odd) or already holds a newer record cannot be
    /// claimed; the record's ring write is then dropped and counted
    /// ([`RecorderStats::dropped`]). One writer per slot at a time is
    /// what lets a reader trust an unchanged even stamp.
    pub fn record(&self, ev: &QueryEvent) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        // lbq-check: allow(lossy-cast) — masked to ring capacity
        let slot = &self.slots[(ticket & self.mask) as usize];
        let stable = 2 * ticket + 2;
        // lbq-check: allow(atomic-ordering) — the claim publishes nothing; the release fence below orders it before the payload
        let mut seen = slot.seq.load(Ordering::Relaxed);
        let claimed = loop {
            if seen % 2 == 1 || seen >= stable {
                break false;
            }
            // lbq-check: allow(atomic-ordering) — the claim publishes nothing; the release fence below orders it before the payload
            match slot.seq.compare_exchange_weak(
                seen,
                stable - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break true,
                Err(now) => seen = now,
            }
        };
        if claimed {
            // Orders the odd stamp before the payload stores: a reader
            // that sees any of them sees the odd stamp (or later) on
            // its second stamp load.
            fence(Ordering::Release);
            for (w, v) in slot.words.iter().zip(pack(ev)) {
                w.store(v, Ordering::Relaxed);
            }
            slot.seq.store(stable, Ordering::Release);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }

        // Rolling slow threshold: recompute every few records once the
        // histogram is warm.
        self.latency.record_ns(ev.latency_ns);
        let n = self.latency.count();
        if n >= self.config.slow_min_samples
            && (n == self.config.slow_min_samples || n % THRESHOLD_RECALC_EVERY == 0)
        {
            let p99 = self.latency.quantile_ns(0.99);
            let thr = p99
                .saturating_mul(self.config.slow_multiplier)
                .max(self.config.slow_floor_ns)
                .max(1);
            self.threshold_ns.store(thr, Ordering::Relaxed);
        }
        let thr = self.threshold_ns.load(Ordering::Relaxed);
        if thr != 0 && ev.latency_ns > thr {
            self.capture_slow(ev, thr);
        }
    }

    /// Cold path: buffer the capture and dump it to the trace sink.
    fn capture_slow(&self, ev: &QueryEvent, threshold_ns: u64) {
        self.slow_captured.fetch_add(1, Ordering::Relaxed);
        {
            let mut buf = self.slow.lock().unwrap_or_else(|e| e.into_inner());
            if buf.len() >= SLOW_CAPTURE_BUFFER {
                buf.pop_front();
            }
            buf.push_back(SlowCapture {
                event: *ev,
                threshold_ns,
            });
        }
        if enabled() {
            let mut fields: Vec<(&'static str, Value)> = vec![
                ("query-id", Value::U64(ev.query_id)),
                ("kind", Value::Str(ev.kind.name())),
                ("tier", Value::Str(ev.tier.name())),
                ("k", Value::U64(u64::from(ev.k))),
                ("tile", Value::U64(u64::from(ev.tile))),
                ("latency-ns", Value::U64(ev.latency_ns)),
                ("threshold-ns", Value::U64(threshold_ns)),
                ("node-accesses", Value::U64(u64::from(ev.node_accesses))),
                ("page-accesses", Value::U64(u64::from(ev.page_accesses))),
            ];
            for (name, ns) in STAGE_NAMES.iter().zip(ev.stages.0) {
                fields.push((name, Value::U64(ns)));
            }
            event_with("slow-query", fields);
        }
    }

    /// Stable records currently in the ring, oldest first. Slots mid-
    /// write (or overwritten during the read) are skipped, so under
    /// heavy concurrent write pressure fewer than `capacity` records
    /// may come back.
    pub fn recent(&self) -> Vec<(u64, QueryEvent)> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let mut words = [0u64; SLOT_WORDS];
            for (w, a) in words.iter_mut().zip(slot.words.iter()) {
                *w = a.load(Ordering::Relaxed);
            }
            // Orders the payload loads before the second stamp load
            // (pairs with the writer's release fence).
            fence(Ordering::Acquire);
            // lbq-check: allow(atomic-ordering) — ordered by the acquire fence above, the seqlock reader's standard form
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // torn: a writer got in between
            }
            out.push(((s1 - 2) / 2, unpack(&words)));
        }
        out.sort_unstable_by_key(|(ticket, _)| *ticket);
        out
    }

    /// Drains the buffered slow captures (oldest first).
    pub fn take_slow_captures(&self) -> Vec<SlowCapture> {
        let mut buf = self.slow.lock().unwrap_or_else(|e| e.into_inner());
        buf.drain(..).collect()
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> RecorderStats {
        RecorderStats {
            capacity: self.capacity(),
            total: self.total(),
            slow_captured: self.slow_captured.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            threshold_ns: self.threshold_ns(),
            latency: self.latency.summary(),
        }
    }
}

static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();

/// Installs the process-global flight recorder (first call wins; later
/// calls return the existing instance unchanged) and turns recording
/// on. Returns the instance.
pub fn init_recorder(config: RecorderConfig) -> &'static FlightRecorder {
    let r = RECORDER.get_or_init(|| FlightRecorder::new(config));
    stage::set_recording(true);
    r
}

/// The process-global recorder, if [`init_recorder`] has run.
pub fn recorder() -> Option<&'static FlightRecorder> {
    RECORDER.get()
}

/// Records one query event into the global recorder and the aggregate
/// `stage-*` histograms. No-op (two relaxed loads) unless the recorder
/// is installed and recording is on.
#[inline]
pub fn record_query(ev: &QueryEvent) {
    if !stage::recording() {
        return;
    }
    if let Some(r) = RECORDER.get() {
        stage::record_stage_histograms(&ev.stages);
        r.record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, latency: u64) -> QueryEvent {
        QueryEvent {
            query_id: id,
            kind: QueryKind::Knn,
            k: 4,
            tier: CacheTier::TreeGroup,
            tile: 77,
            latency_ns: latency,
            node_accesses: 12,
            page_accesses: 3,
            stages: {
                let mut s = StageNanos::default();
                s.0[2] = latency / 2;
                s
            },
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let e = ev(42, 123_456);
        assert_eq!(unpack(&pack(&e)), e);
        let w = QueryEvent {
            kind: QueryKind::Window,
            tier: CacheTier::Cache,
            ..QueryEvent::default()
        };
        assert_eq!(unpack(&pack(&w)), w);
    }

    #[test]
    fn ring_keeps_most_recent_after_wraparound() {
        let r = FlightRecorder::new(RecorderConfig {
            capacity: 8,
            ..RecorderConfig::default()
        });
        for i in 0..20 {
            r.record(&ev(i, 1000));
        }
        assert_eq!(r.total(), 20);
        let recent = r.recent();
        assert_eq!(recent.len(), 8);
        // Tickets 12..20 survive, in order.
        let tickets: Vec<u64> = recent.iter().map(|(t, _)| *t).collect();
        assert_eq!(tickets, (12..20).collect::<Vec<_>>());
        assert_eq!(recent[0].1.query_id, 12);
        assert_eq!(recent[7].1.tile, 77);
    }

    #[test]
    fn slow_threshold_arms_and_captures() {
        let r = FlightRecorder::new(RecorderConfig {
            capacity: 64,
            slow_min_samples: 32,
            slow_multiplier: 4,
            slow_floor_ns: 0,
        });
        // Warm-up: uniform fast queries. No captures while arming.
        for i in 0..64 {
            r.record(&ev(i, 1_000));
        }
        let thr = r.threshold_ns();
        assert!(thr > 0, "threshold armed after warm-up");
        assert!(thr >= 4_000, "p99(~1 µs) × 4: {thr}");
        assert_eq!(r.stats().slow_captured, 0);
        // One pathological query far past the threshold.
        r.record(&ev(999, thr * 10));
        let caps = r.take_slow_captures();
        assert_eq!(caps.len(), 1);
        assert_eq!(caps[0].event.query_id, 999);
        assert_eq!(caps[0].threshold_ns, thr);
        assert_eq!(r.stats().slow_captured, 1);
        // Drained: a second take is empty.
        assert!(r.take_slow_captures().is_empty());
    }

    #[test]
    fn fast_queries_below_threshold_are_not_captured() {
        let r = FlightRecorder::new(RecorderConfig {
            capacity: 64,
            slow_min_samples: 16,
            slow_multiplier: 4,
            slow_floor_ns: 0,
        });
        for i in 0..200 {
            r.record(&ev(i, 1_000 + (i % 7) * 10));
        }
        assert_eq!(r.stats().slow_captured, 0);
    }
}
