//! # lbq-rtree — a disk-model R\*-tree for point data
//!
//! The index substrate of the `lbq` workspace (reproduction of
//! *"Location-based Spatial Queries"*, SIGMOD 2003). The paper's server
//! stores static point datasets in an R\*-tree `[BKSS90]` with 4 KiB pages
//! (node capacity 204) and measures query cost in **node accesses** (NA)
//! and, through an LRU buffer sized at 10% of the tree, **page accesses**
//! (PA, i.e. buffer faults). This crate reproduces that disk model:
//! the tree lives in memory, but every node visit is metered as if it
//! were a page read.
//!
//! ## What is implemented
//!
//! * **One immutable tree, built by STR** ([`RTree::bulk_load`]): the
//!   paper's server indexes static data, so Sort-Tile-Recursive packing
//!   is the only constructor and nothing mutates a built tree. Its node
//!   ids, order and MBRs are a pure function of the input order and the
//!   configuration. R\* insertion and deletion were removed: on the
//!   Fig. 27 workload they moved no figure nearer the paper and took
//!   minutes to build what STR builds in a second (the measured table
//!   is in `bulk.rs`).
//! * **Window queries** ([`RTree::window`]) — the classic recursive
//!   MBR-intersection descent, and its split form
//!   ([`RTree::window_split_in`], [`RTree::window_resume_in`]) for a
//!   window nested in a larger one known only after the first answer:
//!   the two halves read each node once.
//! * **k-nearest-neighbor search**: the optimal best-first traversal of
//!   Hjaltason & Samet `[HS99]` ([`RTree::knn`]), which reads exactly
//!   the nodes whose MBR meets the final k-NN disk.
//! * **Time-parameterized NN queries** `[TP02]` ([`RTree::tp_knn`]): given
//!   a query point moving along a ray and its current (k-)NN result, find
//!   the object with the minimum *influence time* — the moment the result
//!   first changes. This is the workhorse of the paper's validity-region
//!   construction (its Section 3).
//! * **Zero-allocation query mode**: every query algorithm has a
//!   `_in(&mut QueryScratch)` variant ([`RTree::knn_in`],
//!   [`RTree::window_in`], [`RTree::tp_knn_with_bound_in`], …) that reuses
//!   caller-owned working buffers, so a warmed-up query performs zero
//!   heap allocations. Nodes are stored struct-of-arrays (parallel
//!   MBR/child arrays, plain item arrays in leaves) so the scan loops
//!   stream contiguous rects. There is one arena layout — the one
//!   [`RTree::bulk_load`] packs — and one scan per kernel over it. See
//!   DESIGN.md §11.
//! * **Shared-frontier group kNN** ([`RTree::knn_group_in`]): a tile of
//!   co-located queries in one traversal, bit-identical per member to
//!   [`RTree::knn_in`]. No serving path calls it any more (cold misses
//!   take the per-query kernel); it stays because the benchmark's layer
//!   replay still measures it.
//!
//! ## Metering
//!
//! All read queries take `&self`; counters use interior mutability.
//! [`RTree::with_stats`] scopes a closure and returns the NA/PA delta
//! it incurred (nesting-safe); phase-attribution harnesses (e.g. "the
//! initial NN query" vs "the TPNN queries", as in the paper's Fig. 27)
//! nest such scopes rather than resetting any global counter.
//!
//! Every public query entry point counts its own NA/PA in two local
//! integers and flushes them once, before it returns, into the tree
//! meter, the scratch's tally ([`QueryScratch::accesses`]) and the
//! global `rtree-node-accesses` / `rtree-page-faults` counters (see
//! DESIGN.md §9).

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )
)]

mod bulk;
mod group;
pub mod hilbert;
mod nn;
mod node;
mod probe;
mod query;
mod scratch;
mod stats;
mod tp;
mod tree;
mod util;

pub use bulk::DEFAULT_BULK_FILL;
pub use node::{Item, NodeId};
pub use scratch::{QueryScratch, WindowBuffers};
pub use stats::{LruBuffer, Stats};
pub use tp::{TpBound, TpEvent};
pub use tree::RTree;
pub use util::OrdF64;

/// Structural parameters of the tree.
///
/// The defaults mirror the paper's setup: 4 KiB pages and 20-byte entries
/// give a fan-out of 204; the R\* recommendation sets the minimum fill to
/// 40% of capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeConfig {
    /// Maximum entries per node (page capacity).
    pub max_entries: usize,
    /// Minimum entries per non-root node.
    pub min_entries: usize,
}

impl RTreeConfig {
    /// Capacity derived from a page size and per-entry byte cost.
    ///
    /// The paper uses 4096-byte pages and point entries of 20 bytes
    /// (two 8-byte coordinates + 4-byte record pointer), giving 204.
    pub fn from_page_size(page_bytes: usize, entry_bytes: usize) -> Self {
        let cap = (page_bytes / entry_bytes).max(4);
        Self::with_capacity(cap)
    }

    /// The exact configuration of the paper's experiments
    /// (page 4 KiB → 204 entries/node).
    pub fn paper() -> Self {
        Self::from_page_size(4096, 20)
    }

    /// Capacity-first constructor with the R\* minimum fill.
    pub fn with_capacity(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "R-tree capacity must be at least 4");
        RTreeConfig {
            max_entries,
            min_entries: (max_entries * 2 / 5).max(2), // 40 %
        }
    }

    /// A tiny fan-out (8) used by tests to force deep trees on small
    /// inputs.
    pub fn tiny() -> Self {
        Self::with_capacity(8)
    }
}

impl Default for RTreeConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_sigmod_setup() {
        let c = RTreeConfig::paper();
        assert_eq!(c.max_entries, 204);
        assert_eq!(c.min_entries, 81);
    }

    #[test]
    fn capacity_floor() {
        let c = RTreeConfig::from_page_size(16, 20);
        assert_eq!(c.max_entries, 4);
        assert!(c.min_entries >= 2);
        assert!(c.min_entries <= c.max_entries / 2 + 1);
    }

    #[test]
    #[should_panic]
    fn rejects_degenerate_capacity() {
        let _ = RTreeConfig::with_capacity(3);
    }
}
