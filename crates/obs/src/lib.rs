//! `lbq_obs` — zero-dependency metrics and query profiling for the lbq
//! workspace.
//!
//! The paper's evaluation is cost accounting: node/page accesses per
//! query, TPNN iterations per validity region, influence-set sizes.
//! This crate makes those costs observable at runtime without pulling
//! in any external dependency (the workspace builds offline, std-only).
//! There is one event model: the flight recorder's per-request
//! [`QueryEvent`]; the other outputs are totals over it or over the
//! metrics registry.
//!
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
//! Metric, heatmap and snapshot-field names are kebab-case string
//! literals, enforced workspace-wide by the `obs-span-name` rule in
//! `lbq-check`. The taxonomy lives in DESIGN.md §9.
//!
//! # Example
//!
//! ```
//! let hits = lbq_obs::counter("doc-cache-hits");
//! hits.add(3);
//! hits.incr();
//! assert_eq!(hits.get(), 4);
//! lbq_obs::histogram("doc-lookup").record_ns(1_500);
//! let table = lbq_obs::render_metrics("global counters");
//! assert!(table.contains("doc-cache-hits") && table.contains("doc-lookup"));
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod export;
pub mod heatmap;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod stage;

pub use export::{
    install_exporter, install_exporter_from_env, render_snapshot, snapshot_field, Exporter, Value,
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
