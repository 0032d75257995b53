//! Per-query profiling probes.
//!
//! Each public query entry point threads a [`QueryProbe`] — plain local
//! counters, no allocation — through its traversal, then calls
//! [`RTree::finish_query_span`] to flush the query's own NA/PA into the
//! tree meter, the query scratch's own tally
//! ([`crate::QueryScratch::accesses`]) and the global `lbq_obs`
//! counters and, when tracing is enabled, to attach the per-query cost
//! fields (NA, PA, heap pops, depth reached, buffer hit rate) to the
//! query's span. Counting in the
//! probe keeps the innermost loop off shared cache lines, and makes the
//! per-query figures exact however many threads query the tree. The
//! probes cost a few integer ops per node visit, so the queries stay
//! within the no-subscriber overhead budget.

use crate::stats::Stats;
use crate::tree::RTree;
use lbq_obs::{Counter, Span};
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

/// Local counters for one query's traversal.
#[derive(Debug, Default)]
pub(crate) struct QueryProbe {
    /// Nodes read by this query.
    pub(crate) na: u64,
    /// Buffer misses of this query (equal to `na` unbuffered).
    pub(crate) pa: u64,
    /// Traversal steps: priority-queue pops for best-first searches,
    /// node visits for recursive descents.
    pub(crate) pops: u64,
    /// Smallest node level reached (0 = leaf), `None` before any visit.
    pub(crate) min_level: Option<u32>,
}

impl QueryProbe {
    /// Registers a visit to a node at `level`.
    #[inline]
    pub(crate) fn visit(&mut self, level: u32) {
        self.min_level = Some(self.min_level.map_or(level, |m| m.min(level)));
    }

    /// Registers one traversal step.
    #[inline]
    pub(crate) fn pop(&mut self) {
        self.pops += 1;
    }
}

fn na_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| lbq_obs::counter("rtree-node-accesses"))
}

fn pa_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| lbq_obs::counter("rtree-page-faults"))
}

impl RTree {
    /// Shared epilogue of the instrumented query wrappers: flushes this
    /// query's NA/PA into the tree meter, the scratch's `tally` and the
    /// global metrics registry (before the query returns, so
    /// [`RTree::with_stats`] scopes see it) and, when the span is live,
    /// records the per-query cost fields.
    pub(crate) fn finish_query_span(&self, span: &mut Span, probe: &QueryProbe, tally: &mut Stats) {
        let (na, pa) = (probe.na, probe.pa);
        tally.node_accesses += na;
        tally.page_faults += pa;
        self.stats.node_accesses.fetch_add(na, Ordering::Relaxed);
        self.stats.page_faults.fetch_add(pa, Ordering::Relaxed);
        na_counter().add(na);
        pa_counter().add(pa);
        if span.is_active() {
            span.record("na", na);
            span.record("pa", pa);
            span.record("heap-pops", probe.pops);
            if let Some(level) = probe.min_level {
                // Depth below the root: 0 = stopped at the root,
                // height−1 = reached a leaf.
                span.record("depth", u64::from(self.height() - 1 - level));
            }
            if na > 0 && self.has_buffer() {
                #[expect(
                    clippy::cast_precision_loss,
                    reason = "access counts are far below 2^52"
                )]
                span.record("buffer-hit-rate", (na - pa) as f64 / na as f64);
            }
        }
    }
}
