//! k-nearest-neighbor search.
//!
//! [`RTree::knn`] / [`RTree::knn_in`] run the best-first (incremental)
//! traversal of Hjaltason and Samet `[HS99]`, which is I/O-optimal: it
//! visits exactly the nodes whose MBR intersects the final k-NN disk
//! (pinned by `tests/knn_optimality.rs`, which counts those MBRs). The
//! depth-first branch-and-bound of `[RKV95]` that the paper's Section 1
//! also surveys was removed: it never read fewer nodes, and nothing
//! but its own tests called it.
//!
//! The `_in` variants run against a caller-owned [`QueryScratch`] and
//! allocate nothing once the scratch buffers are warm; the plain
//! variants delegate to them with a fresh scratch and copy the result
//! out. Candidates live in an array keyed by slot (see
//! [`crate::QueryScratch`]), so items sharing a user-supplied id are
//! all reported rather than collapsing to one.

use crate::node::Item;
use crate::probe::QueryProbe;
use crate::scratch::QueryScratch;
use crate::tree::RTree;
use crate::util::OrdF64;
use lbq_geom::Point;
use std::cmp::Reverse;

impl RTree {
    /// Best-first k-NN `[HS99]`. Returns up to `k` items sorted by
    /// ascending distance from `q`, with their (exact) distances.
    pub fn knn(&self, q: Point, k: usize) -> Vec<(Item, f64)> {
        let mut scratch = QueryScratch::new();
        self.knn_in(q, k, &mut scratch).to_vec()
    }

    /// [`RTree::knn`] against a reusable scratch: zero steady-state
    /// allocations. The returned slice borrows the scratch and is valid
    /// until its next use.
    pub fn knn_in<'s>(
        &self,
        q: Point,
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> &'s [(Item, f64)] {
        let _stage = lbq_obs::stage_timer(lbq_obs::Stage::TreeKnn);
        let mut span = lbq_obs::span("rtree-knn");
        let mut probe = QueryProbe::default();
        self.knn_probed(q, k, scratch, &mut probe);
        span.record("k", k);
        span.record("results", scratch.out_nn.len());
        self.finish_query_span(&mut span, &probe, &mut scratch.accesses);
        &scratch.out_nn
    }

    fn knn_probed(&self, q: Point, k: usize, scratch: &mut QueryScratch, probe: &mut QueryProbe) {
        scratch.out_nn.clear();
        if k == 0 || self.is_empty() {
            return;
        }
        let (queue, cands) = (&mut scratch.queue, &mut scratch.cands);
        self.knn_core(q, k, queue, cands, probe);
        // The candidate array is already sorted by (dist², id), which is
        // exactly the output order (√ is monotone).
        scratch
            .out_nn
            .extend(cands.slots().iter().map(|c| (c.item, c.dist_sq.sqrt())));
    }

    /// The best-first kNN loop against caller-chosen buffers. Shared by
    /// the single-query path above and the per-query fallback of the
    /// group search ([`RTree::knn_group_in`]), so both produce the same
    /// candidates by construction. Leaves `cands` holding the best k in
    /// ascending `(dist², id)` order.
    ///
    /// It visits exactly the nodes `[HS99]` visits, in the same order,
    /// but pushes and scans less (DESIGN §3, "The best-first kNN
    /// kernel"):
    /// * `thresh` bounds the final k-th squared distance from above: the
    ///   exact k-th of the candidates once k are held, and while fewer
    ///   are, the smallest `maxdist²` over the children of an expanded
    ///   node whose every child subtree holds at least k points (the
    ///   R\* minimum fill). Children beyond it are never pushed.
    /// * Leaf scans append the items within `thresh` unordered; before
    ///   each pop's prune test the set is compacted to its best k, which
    ///   makes the k-th distance exact where it decides anything.
    /// * One sort at the end restores the output order.
    pub(crate) fn knn_core(
        &self,
        q: Point,
        k: usize,
        queue: &mut std::collections::BinaryHeap<Reverse<(OrdF64, crate::NodeId)>>,
        cands: &mut crate::scratch::CandidateSet,
        probe: &mut QueryProbe,
    ) {
        queue.clear();
        cands.reset(k);
        queue.push(Reverse((OrdF64::new(0.0), self.root)));
        // The exact k-th distance of the candidates (+∞ while fewer than
        // k), valid whenever `fresh` is false.
        let mut kth = f64::INFINITY;
        let mut thresh = f64::INFINITY;
        let mut fresh = false;

        while let Some(Reverse((OrdF64(lb), node_id))) = queue.pop() {
            probe.pop();
            if fresh {
                kth = cands.compact();
                thresh = thresh.min(kth);
                fresh = false;
            }
            // Strict comparison: a node at exactly the k-th distance may
            // still hold an id-tie-break winner (see CandidateSet), so
            // only nodes strictly beyond the k-th distance are pruned.
            if lb > kth {
                break; // no unexplored node can improve the result
            }
            self.access(node_id, probe);
            let node = self.node(node_id);
            probe.visit(node.level);
            if node.is_leaf() {
                for &item in &node.items {
                    let d = q.dist_sq(item.point);
                    if d <= thresh {
                        cands.push(d, item);
                        fresh = true;
                    }
                }
            } else {
                if !cands.full() && self.children_hold(node.level, k) {
                    // Each child subtree holds ≥ k points, all within
                    // its maxdist of q: the k-th distance is at most the
                    // smallest child maxdist.
                    let u = node
                        .mbrs
                        .iter()
                        .map(|mbr| mbr.maxdist_sq(q))
                        .fold(f64::INFINITY, f64::min);
                    thresh = thresh.min(u);
                }
                for (mbr, &child) in node.mbrs.iter().zip(&node.children) {
                    let lb = mbr.mindist_sq(q);
                    if lb <= thresh {
                        queue.push(Reverse((OrdF64::new(lb), child)));
                    }
                }
            }
        }
        cands.compact();
        cands.sort();
    }

    /// `true` when every child subtree of a node at `level` is
    /// guaranteed to hold at least `k` points: a non-root node holds at
    /// least `min_entries` entries (checked by
    /// [`RTree::check_invariants`]), so a child at level `level − 1`
    /// holds at least `min_entries^level` items. Children are never the
    /// root, which alone may be under-filled.
    #[inline]
    fn children_hold(&self, level: u32, k: usize) -> bool {
        self.config.min_entries.saturating_pow(level) >= k
    }

    /// The single nearest neighbor, `None` on an empty tree.
    pub fn nn(&self, q: Point) -> Option<(Item, f64)> {
        self.knn(q, 1).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RTreeConfig;
    use lbq_geom::Point;

    fn build(n: usize, seed: u64) -> (RTree, Vec<Item>) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let items: Vec<Item> = (0..n)
            .map(|i| {
                let x = (next() >> 11) as f64 / (1u64 << 53) as f64 * 10.0;
                let y = (next() >> 11) as f64 / (1u64 << 53) as f64 * 10.0;
                Item::new(Point::new(x, y), i as u64)
            })
            .collect();
        (RTree::bulk_load(items.clone(), RTreeConfig::tiny()), items)
    }

    fn brute_knn(items: &[Item], q: Point, k: usize) -> Vec<u64> {
        let mut v: Vec<(f64, u64)> = items.iter().map(|i| (q.dist_sq(i.point), i.id)).collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        v.into_iter().take(k).map(|(_, id)| id).collect()
    }

    #[test]
    fn knn_matches_brute_force() {
        let (tree, items) = build(600, 21);
        let queries = [
            Point::new(5.0, 5.0),
            Point::new(0.0, 0.0),
            Point::new(-3.0, 12.0), // outside the data MBR
            Point::new(9.99, 0.01),
        ];
        for &q in &queries {
            for k in [1usize, 2, 5, 17, 100] {
                let got: Vec<u64> = tree.knn(q, k).into_iter().map(|(i, _)| i.id).collect();
                let want = brute_knn(&items, q, k);
                assert_eq!(got, want, "best-first q={q} k={k}");
            }
        }
    }

    #[test]
    fn distances_are_sorted_and_correct() {
        let (tree, _) = build(300, 5);
        let q = Point::new(3.0, 7.0);
        let res = tree.knn(q, 10);
        assert_eq!(res.len(), 10);
        for w in res.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        for (item, d) in res {
            assert!((q.dist(item.point) - d).abs() < 1e-12);
        }
    }

    #[test]
    fn k_larger_than_dataset() {
        let (tree, items) = build(25, 9);
        let res = tree.knn(Point::new(1.0, 1.0), 100);
        assert_eq!(res.len(), items.len());
    }

    #[test]
    fn k_zero_and_empty_tree() {
        let (tree, _) = build(50, 1);
        assert!(tree.knn(Point::new(0.0, 0.0), 0).is_empty());
        let empty = RTree::bulk_load(Vec::new(), RTreeConfig::tiny());
        assert!(empty.knn(Point::new(0.0, 0.0), 3).is_empty());
        assert!(empty.nn(Point::new(0.0, 0.0)).is_none());
    }

    #[test]
    fn nn_on_duplicate_points() {
        let p = Point::new(1.0, 1.0);
        let mut items: Vec<Item> = (0..10).map(|i| Item::new(p, i)).collect();
        items.push(Item::new(Point::new(5.0, 5.0), 99));
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let res = tree.knn(Point::new(1.1, 1.0), 10);
        assert_eq!(res.len(), 10);
        // The far point is excluded; all ten duplicates win.
        assert!(res.iter().all(|(i, _)| i.id != 99));
    }

    #[test]
    fn duplicate_ids_all_reported() {
        // Regression: the old HashMap-keyed candidate store collapsed
        // distinct points sharing a user-supplied id into one result.
        // Eight distinct points, all under id 7.
        let mut items: Vec<Item> = (0..8)
            .map(|i| Item::new(Point::new(i as f64, 0.0), 7))
            .collect();
        items.push(Item::new(Point::new(100.0, 0.0), 1));
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let q = Point::new(0.0, 0.0);
        let res = tree.knn(q, 5);
        assert_eq!(res.len(), 5, "five nearest slots, duplicate ids kept");
        assert!(res.iter().all(|(i, _)| i.id == 7));
        for (rank, (item, d)) in res.iter().enumerate() {
            assert!((item.point.x - rank as f64).abs() < 1e-12);
            assert!((d - rank as f64).abs() < 1e-12);
        }
    }
}
