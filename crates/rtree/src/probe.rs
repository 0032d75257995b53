//! Per-query profiling probes.
//!
//! Each public query entry point threads a [`QueryProbe`] — plain local
//! counters, no allocation — through its traversal, then calls
//! [`RTree::finish_query_span`] to feed the global `lbq_obs` NA/PA
//! counters and, when tracing is enabled, to attach the per-query cost
//! fields (NA, PA, heap pops, depth reached, buffer hit rate) to the
//! query's span. The probes cost a few integer ops per node visit, so
//! the queries stay within the no-subscriber overhead budget.

use crate::stats::Stats;
use crate::tree::RTree;
use lbq_obs::{Counter, Span};
use std::sync::OnceLock;

/// Local counters for one query's traversal.
#[derive(Debug, Default)]
pub(crate) struct QueryProbe {
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
    /// Shared epilogue of the instrumented query wrappers: adds this
    /// query's NA/PA delta to the global metrics registry and, when the
    /// span is live, records the per-query cost fields.
    pub(crate) fn finish_query_span(&self, span: &mut Span, probe: &QueryProbe, before: Stats) {
        let delta = self.stats().delta_since(before);
        na_counter().add(delta.node_accesses);
        pa_counter().add(delta.page_faults);
        if span.is_active() {
            span.record("na", delta.node_accesses);
            span.record("pa", delta.page_faults);
            span.record("heap-pops", probe.pops);
            if let Some(level) = probe.min_level {
                // Depth below the root: 0 = stopped at the root,
                // height−1 = reached a leaf.
                span.record("depth", u64::from(self.height() - 1 - level));
            }
            if delta.node_accesses > 0 && self.has_buffer() {
                let hits = delta.node_accesses - delta.page_faults;
                #[expect(
                    clippy::cast_precision_loss,
                    reason = "access counts are far below 2^52"
                )]
                span.record("buffer-hit-rate", hits as f64 / delta.node_accesses as f64);
            }
        }
    }
}
