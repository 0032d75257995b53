//! `lbq_obs` — zero-dependency tracing, metrics, and query profiling
//! for the lbq workspace.
//!
//! The paper's evaluation is cost accounting: node/page accesses per
//! query, TPNN iterations per validity region, influence-set sizes.
//! This crate makes those costs observable at runtime without pulling
//! in any external dependency (the workspace builds offline, std-only).
//!
//! Three layers:
//!
//! - **Tracing** ([`span`], [`event_with`], [`Subscriber`]): named,
//!   timed, nested spans with typed fields, delivered to a pluggable
//!   process-global subscriber ([`TextSubscriber`],
//!   [`JsonLinesSubscriber`], [`RingBufferSubscriber`]). With no
//!   subscriber installed every entry point is one relaxed atomic
//!   load — no clocks, no allocation.
//! - **Metrics** ([`counter`], [`gauge`], [`histogram`]): a named
//!   registry of lock-free handles (with per-thread lookup caches);
//!   histograms give p50/p95/p99 summaries from log-linear buckets
//!   (4 sub-buckets per octave, ≤ +25% quantile error).
//! - **Per-query attribution** ([`stage_timer`], [`take_stages`]):
//!   thread-local stage clocks bracketing each pipeline stage
//!   (cache lookup, tree kNN, group kNN, TPNN chain, clip, window),
//!   harvested per query into a [`StageNanos`] breakdown.
//! - **Flight recorder** ([`init_recorder`], [`record_query`]): a
//!   lock-free ring of recent [`QueryEvent`]s with automatic
//!   slow-query capture against a rolling p99 threshold.
//! - **Heatmaps** ([`heatmap()`]): per-Hilbert-tile hit/latency
//!   counters in flat atomic arrays — the traffic-concentration
//!   signal.
//! - **Snapshot exporter** ([`install_exporter_from_env`],
//!   [`render_snapshot`]): a background thread appending versioned
//!   JSONL snapshots of all of the above to a file on an interval
//!   (`LBQ_OBS_SNAPSHOT=path,period`).
//! - **Reporting** ([`ProfileTable`], [`render_metrics`]): the single
//!   end-of-run formatting path used by examples and benches, with a
//!   greppable `== lbq-obs profile ==` banner.
//!
//! Span and metric names are kebab-case string literals, enforced
//! workspace-wide by the `obs-span-name` rule in `lbq-check`. The
//! taxonomy lives in DESIGN.md §9.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! let ring = Arc::new(lbq_obs::RingBufferSubscriber::new(16));
//! lbq_obs::install(ring.clone());
//! {
//!     let mut outer = lbq_obs::span("rtree-knn");
//!     outer.record("k", 4u64);
//!     let _inner = lbq_obs::span("nn-influence-set");
//!     lbq_obs::event("tpnn-iteration");
//! }
//! lbq_obs::uninstall();
//! assert_eq!(ring.records().len(), 3); // event + two spans
//! ```

pub mod export;
pub mod heatmap;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod stage;
pub mod subscriber;
pub mod trace;

pub use export::{
    install_exporter, install_exporter_from_env, render_snapshot, snapshot_field, Exporter,
    SNAPSHOT_VERSION,
};
pub use heatmap::{
    heatmap, heatmaps_snapshot, Heatmap, TileStat, HEATMAP_SLOTS, HEATMAP_TILE_BITS,
};
pub use metrics::{
    counter, gauge, histogram, metrics_snapshot, reset_metrics, Counter, Gauge, Histogram,
    HistogramSummary, MetricValue, HISTOGRAM_BUCKETS, HISTOGRAM_SUB_BUCKETS,
};
pub use recorder::{
    init_recorder, record_query, recorder, CacheTier, FlightRecorder, QueryEvent, QueryKind,
    RecorderConfig, RecorderStats, SlowCapture,
};
pub use report::{fmt_ns, print_metrics, render_metrics, ProfileTable, PROFILE_HEADER};
pub use stage::{
    record_stage_histograms, recording, set_recording, stage_histograms, stage_timer, take_stages,
    Stage, StageNanos, StageTimer, STAGE_COUNT, STAGE_NAMES,
};
pub use subscriber::{
    flush, install, install_from_env, uninstall, JsonLinesSubscriber, RingBufferSubscriber,
    Subscriber, TextSubscriber, TraceRecord,
};
pub use trace::{
    enabled, event, event_with, span, span_depth, EventRecord, Field, Span, SpanRecord, Value,
};
