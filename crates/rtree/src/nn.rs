//! k-nearest-neighbor search.
//!
//! Two algorithms, as surveyed in the paper's Section 1:
//!
//! * [`RTree::knn`] / [`RTree::knn_in`] — the best-first (incremental)
//!   traversal of Hjaltason and Samet `[HS99]`, which is I/O-optimal: it
//!   visits exactly the nodes whose MBR intersects the final k-NN disk.
//! * [`RTree::knn_depth_first`] / [`RTree::knn_depth_first_in`] — the
//!   branch-and-bound of Roussopoulos, Kelley and Vincent `[RKV95]`:
//!   depth-first descent visiting entries in `mindist` order, pruning
//!   entries whose `mindist` exceeds the current k-th best distance.
//!
//! Both are exposed because Fig. 27/28 of the paper measure the NN query
//! cost explicitly, and the difference between the two is itself a
//! classic result worth benchmarking (see `lbq-bench`).
//!
//! The `_in` variants run against a caller-owned [`QueryScratch`] and
//! allocate nothing once the scratch buffers are warm; the plain
//! variants delegate to them with a fresh scratch and copy the result
//! out. Candidates live in a bounded sorted array keyed by slot (see
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
        self.finish_query_span(&mut span, &probe);
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
    /// candidates by construction.
    pub(crate) fn knn_core(
        &self,
        q: Point,
        k: usize,
        queue: &mut std::collections::BinaryHeap<Reverse<(OrdF64, crate::NodeId)>>,
        cands: &mut crate::scratch::CandidateSet,
        probe: &mut QueryProbe,
    ) {
        // Min-heap of (mindist², node) and the bounded best-k array.
        queue.clear();
        cands.reset(k);
        queue.push(Reverse((OrdF64::new(0.0), self.root)));

        while let Some(Reverse((OrdF64(lb), node_id))) = queue.pop() {
            probe.pop();
            // Strict comparison: a node at exactly the k-th distance may
            // still hold an id-tie-break winner (see CandidateSet), so
            // only nodes strictly beyond the k-th distance are pruned.
            if cands.full() && lb > cands.worst() {
                break; // no unexplored node can improve the result
            }
            self.access(node_id, probe);
            let node = self.node(node_id);
            probe.visit(node.level);
            if node.is_leaf() {
                for &item in &node.items {
                    cands.consider(q.dist_sq(item.point), item);
                }
            } else {
                for (mbr, &child) in node.mbrs.iter().zip(&node.children) {
                    let lb = mbr.mindist_sq(q);
                    if !cands.full() || lb <= cands.worst() {
                        queue.push(Reverse((OrdF64::new(lb), child)));
                    }
                }
            }
        }
    }

    /// Depth-first branch-and-bound k-NN `[RKV95]`. Same result contract
    /// as [`RTree::knn`]; typically touches a few more nodes (it commits
    /// to a subtree before knowing if a sibling is closer).
    pub fn knn_depth_first(&self, q: Point, k: usize) -> Vec<(Item, f64)> {
        let mut scratch = QueryScratch::new();
        self.knn_depth_first_in(q, k, &mut scratch).to_vec()
    }

    /// [`RTree::knn_depth_first`] against a reusable scratch: zero
    /// steady-state allocations. The returned slice borrows the scratch
    /// and is valid until its next use.
    pub fn knn_depth_first_in<'s>(
        &self,
        q: Point,
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> &'s [(Item, f64)] {
        let mut span = lbq_obs::span("rtree-knn-df");
        let mut probe = QueryProbe::default();
        self.knn_depth_first_probed(q, k, scratch, &mut probe);
        span.record("k", k);
        span.record("results", scratch.out_nn.len());
        self.finish_query_span(&mut span, &probe);
        &scratch.out_nn
    }

    fn knn_depth_first_probed(
        &self,
        q: Point,
        k: usize,
        scratch: &mut QueryScratch,
        probe: &mut QueryProbe,
    ) {
        scratch.out_nn.clear();
        if k == 0 || self.is_empty() {
            return;
        }
        let cands = &mut scratch.cands;
        cands.reset(k);
        // Explicit stack replacing the former recursion: children are
        // pushed closest-last so the traversal order (and therefore the
        // node-access count) matches the recursive [RKV95] descent; a
        // node whose bound fails against the *current* k-th best at pop
        // time is skipped exactly where the recursion would have pruned
        // it.
        let stack = &mut scratch.df_stack;
        stack.clear();
        stack.push((0.0, self.root));
        while let Some((lb, node_id)) = stack.pop() {
            // Strict, mirroring the best-first prune: distance ties at
            // the k-th slot are resolved by id, so equal-bound subtrees
            // must still be visited.
            if cands.full() && lb > cands.worst() {
                continue;
            }
            probe.pop();
            self.access(node_id, probe);
            let node = self.node(node_id);
            probe.visit(node.level);
            if node.is_leaf() {
                for &item in &node.items {
                    cands.consider(q.dist_sq(item.point), item);
                }
                continue;
            }
            // Visit children in mindist order (the RKV95 ordering
            // heuristic), pruning against the evolving k-th best.
            let order = &mut scratch.order;
            order.clear();
            order.extend(
                node.mbrs
                    .iter()
                    .zip(&node.children)
                    .map(|(mbr, &child)| (mbr.mindist_sq(q), child)),
            );
            order.sort_by(|a, b| a.0.total_cmp(&b.0));
            // Reversed: the closest child must be popped first.
            stack.extend(order.iter().rev().copied());
        }
        scratch
            .out_nn
            .extend(cands.slots().iter().map(|c| (c.item, c.dist_sq.sqrt())));
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
                let got_df: Vec<u64> = tree
                    .knn_depth_first(q, k)
                    .into_iter()
                    .map(|(i, _)| i.id)
                    .collect();
                assert_eq!(got_df, want, "depth-first q={q} k={k}");
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
        let empty = RTree::new(RTreeConfig::tiny());
        assert!(empty.knn(Point::new(0.0, 0.0), 3).is_empty());
        assert!(empty.nn(Point::new(0.0, 0.0)).is_none());
    }

    #[test]
    fn best_first_never_costs_more_than_depth_first() {
        // [HS99] optimality relative to [RKV95], in node accesses.
        let (tree, _) = build(2000, 77);
        let mut bf_total = 0;
        let mut df_total = 0;
        for i in 0..50 {
            let q = Point::new((i % 10) as f64, (i / 5) as f64 * 0.9);
            let (_, bf) = tree.with_stats(|t| t.knn(q, 5));
            bf_total += bf.node_accesses;
            let (_, df) = tree.with_stats(|t| t.knn_depth_first(q, 5));
            df_total += df.node_accesses;
        }
        assert!(
            bf_total <= df_total,
            "best-first {bf_total} must not exceed depth-first {df_total}"
        );
    }

    #[test]
    fn nn_on_duplicate_points() {
        let mut tree = RTree::new(RTreeConfig::tiny());
        let p = Point::new(1.0, 1.0);
        for i in 0..10 {
            tree.insert(Item::new(p, i));
        }
        tree.insert(Item::new(Point::new(5.0, 5.0), 99));
        let res = tree.knn(Point::new(1.1, 1.0), 10);
        assert_eq!(res.len(), 10);
        // The far point is excluded; all ten duplicates win.
        assert!(res.iter().all(|(i, _)| i.id != 99));
    }

    #[test]
    fn duplicate_ids_all_reported() {
        // Regression: the old HashMap-keyed candidate store collapsed
        // distinct points sharing a user-supplied id into one result.
        let mut tree = RTree::new(RTreeConfig::tiny());
        for i in 0..8 {
            // Eight distinct points, all under id 7.
            tree.insert(Item::new(Point::new(i as f64, 0.0), 7));
        }
        tree.insert(Item::new(Point::new(100.0, 0.0), 1));
        let q = Point::new(0.0, 0.0);
        let res = tree.knn(q, 5);
        assert_eq!(res.len(), 5, "five nearest slots, duplicate ids kept");
        assert!(res.iter().all(|(i, _)| i.id == 7));
        for (rank, (item, d)) in res.iter().enumerate() {
            assert!((item.point.x - rank as f64).abs() < 1e-12);
            assert!((d - rank as f64).abs() < 1e-12);
        }
        let res_df = tree.knn_depth_first(q, 5);
        assert_eq!(res_df.len(), 5);
        assert_eq!(
            res.iter().map(|(i, _)| i.point).collect::<Vec<_>>(),
            res_df.iter().map(|(i, _)| i.point).collect::<Vec<_>>()
        );
    }
}
