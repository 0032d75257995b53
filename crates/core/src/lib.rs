//! # lbq — location-based spatial queries
//!
//! A from-scratch Rust implementation of **"Location-based Spatial
//! Queries"** (Zhang, Zhu, Papadias, Tao, Lee — SIGMOD 2003).
//!
//! A mobile client issues a spatial query at its current position; the
//! server returns the result **plus a validity region**: an area within
//! which the result provably cannot change. While the client stays
//! inside, it answers follow-up queries locally — zero server
//! round-trips, zero network traffic. The region is represented
//! compactly by an *influence set* of data points (≈6 for nearest
//! neighbors, ≈4 for windows), and checking it costs a handful of
//! comparisons.
//!
//! ```
//! use lbq_core::LbqServer;
//! use lbq_geom::{Point, Rect};
//! use lbq_rtree::{Item, RTree, RTreeConfig};
//!
//! let universe = Rect::new(0.0, 0.0, 10.0, 10.0);
//! let items = vec![
//!     Item::new(Point::new(5.0, 5.0), 0),
//!     Item::new(Point::new(0.0, 5.0), 1),
//!     Item::new(Point::new(10.0, 5.0), 2),
//!     Item::new(Point::new(5.0, 0.0), 3),
//!     Item::new(Point::new(5.0, 10.0), 4),
//! ];
//! let server = LbqServer::new(RTree::bulk_load(items, RTreeConfig::tiny()), universe);
//!
//! let resp = server.knn_with_validity(Point::new(5.2, 4.9), 1);
//! assert_eq!(resp.result[0].id, 0);
//! // The validity region is the Voronoi cell of point 0 — the client
//! // keeps the answer anywhere inside it:
//! assert!(resp.validity.contains(Point::new(4.0, 6.0)));
//! assert!(!resp.validity.contains(Point::new(9.0, 5.0)));
//! ```
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`nn`] | §3 | kNN validity regions via TPNN vertex confirmation |
//! | [`window`] | §4 | window validity regions (inner rect − Minkowski holes) |
//! | [`analysis`] | §5 | expected region sizes, R-tree cost model |
//! | [`baselines`] | §2 | `[SR01]`, `[ZL01]`, `[TP02]` comparison techniques |
//! | [`client`] | §1 | trajectories, caching strategies, simulation |

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod analysis;
pub mod baselines;
pub mod client;
pub mod invariants;
pub mod nn;
pub mod region;
pub mod window;

pub use nn::{
    retrieve_influence_set, retrieve_influence_set_in, InfluencePair, NnResponse, NnValidity,
    NnValidityRef,
};
pub use region::{region_with_validity, RegionResponse, RegionValidity};
pub use window::{window_with_validity, window_with_validity_in, WindowResponse, WindowValidity};

use lbq_geom::{Point, Rect};
use lbq_rtree::{Item, QueryScratch, RTree, RTreeConfig, Stats};

/// The location-based query server: an R\*-tree over static points plus
/// the query-processing of the paper's Sections 3 and 4.
#[derive(Debug)]
pub struct LbqServer {
    tree: RTree,
    universe: Rect,
}

// Compile-time proof that an `Arc<LbqServer>` can fan out across the
// serve worker pool; a field losing Send or Sync must fail the build.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<LbqServer>();
};

impl LbqServer {
    /// Wraps an existing tree.
    pub fn new(tree: RTree, universe: Rect) -> Self {
        LbqServer { tree, universe }
    }

    /// Bulk-loads a server from items with the paper's page geometry.
    pub fn from_items(items: Vec<Item>, universe: Rect) -> Self {
        Self::new(RTree::bulk_load(items, RTreeConfig::paper()), universe)
    }

    /// The underlying index (e.g. to attach a buffer or read counters).
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// The data universe.
    pub fn universe(&self) -> Rect {
        self.universe
    }

    /// Location-based kNN (paper §3): result, influence set, validity
    /// region.
    ///
    /// Step (i) runs a best-first kNN `[HS99]`; step (ii) the
    /// TPNN-driven influence-set retrieval of Figs. 10/12; step (iii)
    /// packages the response.
    pub fn knn_with_validity(&self, q: Point, k: usize) -> NnResponse {
        let mut scratch = QueryScratch::new();
        self.knn_with_validity_in(q, k, &mut scratch)
    }

    /// [`LbqServer::knn_with_validity`] against a reusable
    /// [`QueryScratch`]: the initial kNN and the whole TPNN chain of the
    /// influence-set retrieval share one set of buffers. This is the
    /// entry point `lbq-serve` workers use with their thread-owned
    /// scratch.
    pub fn knn_with_validity_in(
        &self,
        q: Point,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> NnResponse {
        let result: Vec<Item> = self
            .tree
            .knn_in(q, k, scratch)
            .iter()
            .map(|&(i, _)| i)
            .collect();
        if result.is_empty() {
            return NnResponse {
                query: q,
                result,
                validity: NnValidity {
                    pairs: Vec::new(),
                    polygon: lbq_geom::ConvexPolygon::from_rect(&self.universe),
                    universe: self.universe,
                },
                tpnn_queries: 0,
            };
        }
        let (validity, tpnn_queries) =
            nn::retrieve_influence_set_in(&self.tree, q, &result, self.universe, scratch);
        let validity = validity.to_owned();
        NnResponse {
            query: q,
            result,
            validity,
            tpnn_queries,
        }
    }

    /// Location-based window query (paper §4) for a client at `c` with
    /// a window of half-extents `(hx, hy)`.
    pub fn window_with_validity(&self, c: Point, hx: f64, hy: f64) -> WindowResponse {
        window::window_with_validity(&self.tree, c, hx, hy, self.universe)
    }

    /// [`LbqServer::window_with_validity`] against a reusable
    /// [`QueryScratch`].
    pub fn window_with_validity_in(
        &self,
        c: Point,
        hx: f64,
        hy: f64,
        scratch: &mut QueryScratch,
    ) -> WindowResponse {
        window::window_with_validity_in(&self.tree, c, hx, hy, self.universe, scratch)
    }

    /// Location-based circular region query (the paper's §7 future-work
    /// extension) for a client at `c` with search radius `r`.
    pub fn region_with_validity(&self, c: Point, r: f64) -> RegionResponse {
        region::region_with_validity(&self.tree, c, r, self.universe)
    }

    /// Runs `f` against this server and returns its result together
    /// with the [`Stats`] delta the call incurred (see
    /// [`lbq_rtree::RTree::with_stats`] for the metering contract,
    /// including the caveat under concurrent access).
    pub fn with_stats<R>(&self, f: impl FnOnce(&Self) -> R) -> (R, Stats) {
        let before = self.tree.stats();
        let out = f(self);
        (out, self.tree.stats().delta_since(before))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_server_responses() {
        let server = LbqServer::new(
            RTree::new(RTreeConfig::tiny()),
            Rect::new(0.0, 0.0, 1.0, 1.0),
        );
        let nn = server.knn_with_validity(Point::new(0.5, 0.5), 3);
        assert!(nn.result.is_empty());
        assert_eq!(nn.tpnn_queries, 0);
        // Empty dataset: the (empty) result is valid everywhere.
        assert!(nn.validity.contains(Point::new(0.1, 0.9)));
        let w = server.window_with_validity(Point::new(0.5, 0.5), 0.1, 0.1);
        assert!(w.result.is_empty());
    }

    #[test]
    fn doc_example_compiles_and_holds() {
        let universe = Rect::new(0.0, 0.0, 10.0, 10.0);
        let items = vec![
            Item::new(Point::new(5.0, 5.0), 0),
            Item::new(Point::new(0.0, 5.0), 1),
            Item::new(Point::new(10.0, 5.0), 2),
            Item::new(Point::new(5.0, 0.0), 3),
            Item::new(Point::new(5.0, 10.0), 4),
        ];
        let server = LbqServer::new(RTree::bulk_load(items, RTreeConfig::tiny()), universe);
        let resp = server.knn_with_validity(Point::new(5.2, 4.9), 1);
        assert_eq!(resp.result[0].id, 0);
        assert!(resp.validity.contains(Point::new(4.0, 6.0)));
        assert!(!resp.validity.contains(Point::new(9.0, 5.0)));
    }
}
