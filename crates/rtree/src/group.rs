//! Shared-frontier multi-query kNN.
//!
//! No serving path calls this module: `lbq-serve` answers every
//! cache-miss kNN with the per-query kernel ([`RTree::knn_in`] and one
//! TPNN chain per region), which measured about twice the capacity of
//! grouping a Hilbert tile's misses. It stays because the benchmark's
//! layer replay (`rtree.knn_group_ns`) still measures it; it goes with
//! that metric.
//!
//! Given a spatially tight group of foci, [`RTree::knn_group_in`]
//! answers all of them in **one traversal**: a single best-first
//! frontier ordered by the rect-to-rect bound `mindist²(node, groupMBR)`
//! ([`lbq_geom::Rect::mindist_sq_rect`]), with one bounded candidate
//! array per query. Every leaf the frontier reaches is scanned once and
//! offered to all queries, so node pages shared between neighboring
//! queries are read once instead of once per query.
//!
//! ## Admissibility (why results are bit-identical)
//!
//! For every query `q` in the group rect `G` and every node MBR `E`,
//! `mindist²(E, G) ≤ mindist²(E, q)` — the group bound never exceeds a
//! per-query bound. A node is pruned only when its group bound strictly
//! exceeds `max_worst = max_i worst_i` (the largest of the per-query
//! k-th distances, `+∞` while any query is under-filled); for each
//! query `i` that implies `mindist²(E, qᵢ) > worst_i`, which is exactly
//! the single-query prune. Since the candidate sets resolve distance
//! ties by id (a total order — see [`crate::QueryScratch`]), the
//! surviving k of each query is a function of the point set alone, and
//! the group answer equals [`RTree::knn_in`]'s bit for bit.
//!
//! ## Spread fallback
//!
//! Sharing pays only while the tile is tight: `max_worst` is governed by
//! the *widest* query, so a spread-out tile drags the whole frontier
//! through the union of all search regions. The entry point probes the
//! first query with a standard kNN, whose k-th distance `r` estimates
//! every query's pruning radius. Per-query descent explores `m` disks of
//! area `≈ πr²`; the shared frontier explores one region of diameter
//! `≈ diag + 2r`, so sharing breaks even near `diag ≈ 2(√m − 1)·r`. The
//! heuristic keeps a safety margin under that — shared iff
//! `diag² ≤ m·r²` — and falls back to per-query descent (same
//! [`RTree::knn_core`], same results) beyond it.

use crate::node::Item;
use crate::probe::QueryProbe;
use crate::scratch::{CandidateSet, QueryScratch};
use crate::tree::RTree;
use crate::util::OrdF64;
use lbq_geom::{Point, Rect};
use std::cmp::Reverse;

impl RTree {
    /// Allocating convenience for [`RTree::knn_group_in`].
    pub fn knn_group(&self, queries: &[Point], k: usize) -> Vec<(Item, f64)> {
        let mut scratch = QueryScratch::new();
        self.knn_group_in(queries, k, &mut scratch).to_vec()
    }

    /// k-NN of every query point in one shared traversal (module docs).
    /// No serving path calls it; it stays for the benchmark's layer
    /// replay.
    ///
    /// Returns the per-query results concatenated with uniform stride
    /// `m = k.min(self.len())`: entries `[i*m, (i+1)*m)` are exactly
    /// `self.knn_in(queries[i], k, …)`, bit for bit — items in
    /// ascending `(distance, id)` order. The slice borrows the scratch
    /// and is valid until its next use.
    pub fn knn_group_in<'s>(
        &self,
        queries: &[Point],
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> &'s [(Item, f64)] {
        let _stage = lbq_obs::stage_timer(lbq_obs::Stage::GroupKnn);
        let mut span = lbq_obs::span("rtree-knn-group");
        let mut probe = QueryProbe::default();
        let shared = self.knn_group_probed(queries, k, scratch, &mut probe);
        span.record("queries", queries.len());
        span.record("k", k);
        span.record("shared", shared);
        span.record("results", scratch.out_nn.len());
        self.finish_query_span(&mut span, &probe, &mut scratch.accesses);
        &scratch.out_nn
    }

    /// Body of the group search; returns `true` when the shared
    /// frontier ran, `false` when it fell back to per-query descent.
    fn knn_group_probed(
        &self,
        queries: &[Point],
        k: usize,
        scratch: &mut QueryScratch,
        probe: &mut QueryProbe,
    ) -> bool {
        scratch.out_nn.clear();
        if k == 0 || self.is_empty() || queries.is_empty() {
            return false;
        }
        let m = queries.len();
        if scratch.group_cands.len() < m {
            scratch.group_cands.resize_with(m, CandidateSet::default);
        }
        let (queue, group) = (&mut scratch.queue, &mut scratch.group_cands);

        // Probe the first query with a standard descent; its k-th
        // distance is the tile's pruning radius estimate.
        self.knn_core(queries[0], k, queue, &mut group[0], probe);
        #[expect(clippy::expect_used, reason = "queries[0] was probed above")]
        let group_rect = Rect::bounding(queries).expect("queries is non-empty");
        let r_sq = group[0].worst(); // +∞ when k ≥ len (full scan anyway)
        let diag_sq =
            group_rect.width() * group_rect.width() + group_rect.height() * group_rect.height();
        #[expect(clippy::cast_precision_loss, reason = "group sizes are far below 2^52")]
        let shared = m > 1 && diag_sq <= r_sq * m as f64;

        if shared {
            // One frontier for the whole tile. The probe's candidates
            // are reset along with everyone else's: each query's set
            // must see every item exactly once (CandidateSet dedups by
            // eviction order, not identity).
            for c in group[..m].iter_mut() {
                c.reset(k);
            }
            queue.clear();
            queue.push(Reverse((OrdF64::new(0.0), self.root)));
            while let Some(Reverse((OrdF64(lb), node_id))) = queue.pop() {
                probe.pop();
                let max_worst = group[..m]
                    .iter()
                    .map(CandidateSet::worst)
                    .fold(0.0_f64, f64::max);
                // Strict, like the single-query prune: an equal-bound
                // node can still hold an id-tie-break winner.
                if lb > max_worst {
                    break;
                }
                self.access(node_id, probe);
                let node = self.node(node_id);
                probe.visit(node.level);
                if node.is_leaf() {
                    for &item in &node.items {
                        for (c, &q) in group[..m].iter_mut().zip(queries) {
                            c.consider(q.dist_sq(item.point), item);
                        }
                    }
                } else {
                    for (mbr, &child) in node.mbrs.iter().zip(&node.children) {
                        let lb = mbr.mindist_sq_rect(&group_rect);
                        if lb <= max_worst {
                            queue.push(Reverse((OrdF64::new(lb), child)));
                        }
                    }
                }
            }
        } else {
            // Per-query descent, reusing the probe's result for query 0.
            for (c, &q) in group[1..m].iter_mut().zip(&queries[1..]) {
                self.knn_core(q, k, queue, c, probe);
            }
        }

        let stride = k.min(self.len());
        for c in group[..m].iter() {
            debug_assert_eq!(c.slots().len(), stride);
            scratch
                .out_nn
                .extend(c.slots().iter().map(|c| (c.item, c.dist_sq.sqrt())));
        }
        shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Item, RTreeConfig};

    fn rand_items(n: usize, seed: u64) -> Vec<Item> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|i| {
                let x = (next() >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
                let y = (next() >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
                Item::new(Point::new(x, y), i as u64)
            })
            .collect()
    }

    /// Group answer must equal the concatenated per-query answers with
    /// every bit in place.
    fn assert_group_matches(tree: &RTree, queries: &[Point], k: usize) {
        let mut scratch = QueryScratch::new();
        let got = tree.knn_group(queries, k);
        let stride = k.min(tree.len());
        assert_eq!(got.len(), stride * queries.len());
        for (i, &q) in queries.iter().enumerate() {
            let want = tree.knn_in(q, k, &mut scratch);
            let tile = &got[i * stride..(i + 1) * stride];
            assert_eq!(tile.len(), want.len(), "query {i}");
            for (a, b) in tile.iter().zip(want) {
                assert_eq!(a.0.id, b.0.id, "query {i}");
                assert_eq!(a.0.point.x.to_bits(), b.0.point.x.to_bits());
                assert_eq!(a.0.point.y.to_bits(), b.0.point.y.to_bits());
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "query {i} distance bits");
            }
        }
    }

    #[test]
    fn tight_tile_matches_per_query() {
        let tree = RTree::bulk_load(rand_items(4000, 31), RTreeConfig::tiny());
        let queries: Vec<Point> = (0..16)
            .map(|i| Point::new(50.0 + (i % 4) as f64 * 0.2, 50.0 + (i / 4) as f64 * 0.2))
            .collect();
        for k in [1, 3, 10] {
            assert_group_matches(&tree, &queries, k);
        }
    }

    #[test]
    fn spread_tile_falls_back_and_matches() {
        let tree = RTree::bulk_load(rand_items(4000, 32), RTreeConfig::tiny());
        // Corners of the universe: diagonal ≫ any k-th distance.
        let queries = [
            Point::new(1.0, 1.0),
            Point::new(99.0, 1.0),
            Point::new(99.0, 99.0),
            Point::new(1.0, 99.0),
        ];
        for k in [1, 5] {
            assert_group_matches(&tree, &queries, k);
        }
    }

    #[test]
    fn grid_ties_resolve_identically() {
        // Integer grid: distance ties everywhere — the id tie-break must
        // make group and single-query answers agree exactly.
        let items: Vec<Item> = (0..30)
            .flat_map(|i| {
                (0..30).map(move |j| Item::new(Point::new(i as f64, j as f64), (i * 30 + j) as u64))
            })
            .collect();
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let queries: Vec<Point> = (0..9)
            .map(|i| Point::new(14.0 + (i % 3) as f64, 14.0 + (i / 3) as f64))
            .collect();
        for k in [1, 4, 9] {
            assert_group_matches(&tree, &queries, k);
        }
    }

    #[test]
    fn degenerate_inputs() {
        let tree = RTree::bulk_load(rand_items(100, 2), RTreeConfig::tiny());
        let mut scratch = QueryScratch::new();
        // Empty query slice, k = 0, empty tree.
        assert!(tree.knn_group_in(&[], 3, &mut scratch).is_empty());
        assert!(tree
            .knn_group_in(&[Point::new(1.0, 1.0)], 0, &mut scratch)
            .is_empty());
        let empty = RTree::bulk_load(Vec::new(), RTreeConfig::tiny());
        assert!(empty
            .knn_group_in(&[Point::new(1.0, 1.0)], 3, &mut scratch)
            .is_empty());
        // Single query is the plain kNN.
        assert_group_matches(&tree, &[Point::new(42.0, 17.0)], 5);
        // k beyond the dataset: stride collapses to len.
        assert_group_matches(&tree, &[Point::new(1.0, 2.0), Point::new(1.1, 2.1)], 500);
        // Identical query points.
        let dup = vec![Point::new(33.0, 66.0); 5];
        assert_group_matches(&tree, &dup, 4);
    }

    #[test]
    fn shared_traversal_reads_fewer_nodes_than_per_query() {
        let tree = RTree::bulk_load(rand_items(20_000, 77), RTreeConfig::tiny());
        let queries: Vec<Point> = (0..32)
            .map(|i| Point::new(40.0 + (i % 8) as f64 * 0.05, 60.0 + (i / 8) as f64 * 0.05))
            .collect();
        let mut scratch = QueryScratch::new();
        let (_, grouped) = tree.with_stats(|t| {
            t.knn_group_in(&queries, 8, &mut scratch);
        });
        let (_, single) = tree.with_stats(|t| {
            for &q in &queries {
                t.knn_in(q, 8, &mut scratch);
            }
        });
        assert!(
            grouped.node_accesses < single.node_accesses,
            "shared frontier {} NA must beat {} per-query NA on a tight tile",
            grouped.node_accesses,
            single.node_accesses
        );
    }

    #[test]
    fn zero_steady_state_allocations() {
        let tree = RTree::bulk_load(rand_items(5000, 13), RTreeConfig::tiny());
        let queries: Vec<Point> = (0..8)
            .map(|i| Point::new(20.0 + i as f64 * 0.1, 30.0))
            .collect();
        let mut scratch = QueryScratch::new();
        // Warm-up, then the scratch must stop growing (capacity proxy:
        // repeated calls return identical results and the group arrays
        // retain their lengths).
        for _ in 0..3 {
            let _ = tree.knn_group_in(&queries, 5, &mut scratch);
        }
        let cap = scratch.out_nn.capacity();
        for _ in 0..10 {
            let _ = tree.knn_group_in(&queries, 5, &mut scratch);
        }
        assert_eq!(scratch.out_nn.capacity(), cap);
    }
}
