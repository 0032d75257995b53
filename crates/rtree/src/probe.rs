//! Per-query profiling probes.
//!
//! Each public query entry point threads a [`QueryProbe`] — two plain
//! local counters, no allocation — through its traversal, then calls
//! [`RTree::flush_probe`] to flush the query's own NA/PA into the tree
//! meter, the query scratch's own tally
//! ([`crate::QueryScratch::accesses`]) and the global `lbq_obs`
//! counters. Counting in the probe keeps the innermost loop off shared
//! cache lines, and makes the per-query figures exact however many
//! threads query the tree.

use crate::stats::Stats;
use crate::tree::RTree;
use lbq_obs::Counter;
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

/// Local counters for one query's traversal.
#[derive(Debug, Default)]
pub(crate) struct QueryProbe {
    /// Nodes read by this query.
    pub(crate) na: u64,
    /// Buffer misses of this query (equal to `na` unbuffered).
    pub(crate) pa: u64,
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
    /// global metrics registry, before the query returns, so
    /// [`RTree::with_stats`] scopes see it.
    pub(crate) fn flush_probe(&self, probe: &QueryProbe, tally: &mut Stats) {
        let (na, pa) = (probe.na, probe.pa);
        tally.node_accesses += na;
        tally.page_faults += pa;
        self.stats.node_accesses.fetch_add(na, Ordering::Relaxed);
        self.stats.page_faults.fetch_add(pa, Ordering::Relaxed);
        na_counter().add(na);
        pa_counter().add(pa);
    }
}
