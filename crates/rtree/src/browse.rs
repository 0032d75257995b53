//! Incremental nearest-neighbor iteration ("distance browsing",
//! Hjaltason & Samet `[HS99]`).
//!
//! [`RTree::nearest_iter`] yields items in ascending distance from the
//! query point, lazily: pulling the (m+1)-th neighbor does only the
//! incremental work beyond the m-th. This is what a server would use
//! for the `[SR01]` baseline when `m` is tuned at runtime, and the natural
//! building block for "keep expanding until the influence condition
//! holds" style algorithms.

use crate::node::{Item, NodeId};
use crate::tree::RTree;
use crate::util::OrdF64;
use lbq_geom::Point;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Priority-queue element: either a node to expand or a materialized
/// item.
enum QueueEntry {
    Node(NodeId),
    Item(Item),
}

/// Lazy ascending-distance iterator over the tree's items.
pub struct NearestIter<'a> {
    tree: &'a RTree,
    q: Point,
    heap: BinaryHeap<Reverse<(OrdF64, u64, u8)>>,
    // Entries are stored out-of-band, keyed by a monotonically
    // increasing ticket, so the heap holds only POD keys (distance,
    // ticket, kind) and stays cheap to sift.
    slots: Vec<Option<QueueEntry>>,
}

impl<'a> NearestIter<'a> {
    pub(crate) fn new(tree: &'a RTree, q: Point) -> Self {
        let mut it = NearestIter {
            tree,
            q,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
        };
        if !tree.is_empty() {
            it.push(0.0, QueueEntry::Node(tree.root));
        }
        it
    }

    fn push(&mut self, dist_sq: f64, entry: QueueEntry) {
        let kind = match entry {
            QueueEntry::Node(_) => 0u8, // nodes first on ties: correctness
            QueueEntry::Item(_) => 1u8,
        };
        let ticket = self.slots.len() as u64;
        self.slots.push(Some(entry));
        self.heap
            .push(Reverse((OrdF64::new(dist_sq), ticket, kind)));
    }
}

impl Iterator for NearestIter<'_> {
    type Item = (Item, f64);

    fn next(&mut self) -> Option<(Item, f64)> {
        while let Some(Reverse((OrdF64(d_sq), ticket, _))) = self.heap.pop() {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::expect_used,
                reason = "ticket was minted from slots.len(); tickets are heap-unique"
            )]
            let entry = self.slots[ticket as usize]
                .take()
                .expect("each ticket is consumed once");
            match entry {
                QueueEntry::Item(item) => return Some((item, d_sq.sqrt())),
                QueueEntry::Node(id) => {
                    self.tree.access(id);
                    let node = self.tree.node(id);
                    if node.is_leaf() {
                        let items: Vec<Item> = node.items.clone();
                        for item in items {
                            let d = self.q.dist_sq(item.point);
                            self.push(d, QueueEntry::Item(item));
                        }
                    } else {
                        let children: Vec<(f64, NodeId)> = node
                            .mbrs
                            .iter()
                            .zip(&node.children)
                            .map(|(mbr, &child)| (mbr.mindist_sq(self.q), child))
                            .collect();
                        for (d, child) in children {
                            self.push(d, QueueEntry::Node(child));
                        }
                    }
                }
            }
        }
        None
    }
}

impl RTree {
    /// Items in ascending distance from `q`, computed incrementally
    /// `[HS99]`. Node accesses are metered as the iterator advances.
    pub fn nearest_iter(&self, q: Point) -> NearestIter<'_> {
        NearestIter::new(self, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RTreeConfig;

    fn build(n: usize, seed: u64) -> (RTree, Vec<Item>) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let items: Vec<Item> = (0..n)
            .map(|i| {
                let x = (next() >> 11) as f64 / (1u64 << 53) as f64;
                let y = (next() >> 11) as f64 / (1u64 << 53) as f64;
                Item::new(Point::new(x, y), i as u64)
            })
            .collect();
        (RTree::bulk_load(items.clone(), RTreeConfig::tiny()), items)
    }

    #[test]
    fn yields_every_item_in_ascending_order() {
        let (tree, items) = build(300, 3);
        let q = Point::new(0.4, 0.7);
        let got: Vec<(Item, f64)> = tree.nearest_iter(q).collect();
        assert_eq!(got.len(), items.len());
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12);
        }
        // Distances are exact.
        for (item, d) in &got {
            assert!((q.dist(item.point) - d).abs() < 1e-12);
        }
    }

    #[test]
    fn prefix_agrees_with_knn() {
        let (tree, _) = build(400, 9);
        let q = Point::new(0.1, 0.2);
        for k in [1usize, 7, 50] {
            let browsed: Vec<u64> = tree.nearest_iter(q).take(k).map(|(i, _)| i.id).collect();
            let knn: Vec<u64> = tree.knn(q, k).into_iter().map(|(i, _)| i.id).collect();
            // Same distances (ids may differ on exact ties, which the
            // generator never produces).
            assert_eq!(browsed, knn, "k={k}");
        }
    }

    #[test]
    fn lazy_cost_grows_with_consumption() {
        let (tree, _) = build(3_000, 5);
        let q = Point::new(0.5, 0.5);
        let (_, small_stats) = tree.with_stats(|t| t.nearest_iter(q).take(1).collect::<Vec<_>>());
        let small = small_stats.node_accesses;
        let (_, large_stats) =
            tree.with_stats(|t| t.nearest_iter(q).take(1_500).collect::<Vec<_>>());
        let large = large_stats.node_accesses;
        assert!(
            small < large,
            "taking one neighbor ({small} NA) must cost less than 1500 ({large} NA)"
        );
        assert!(
            small <= tree.height() as u64 + 4,
            "first item ≈ one root-leaf path"
        );
    }

    #[test]
    fn empty_tree_iterates_nothing() {
        let tree = RTree::new(RTreeConfig::tiny());
        assert_eq!(tree.nearest_iter(Point::ORIGIN).count(), 0);
    }
}
