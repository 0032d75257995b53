//! Sort-Tile-Recursive (STR) bulk loading — the only way to build a
//! tree.
//!
//! The paper's server indexes static point data, so the tree is built
//! once and never mutated. STR packs n points in O(n log n), with
//! nodes filled to 70% of capacity by default. The paper grew its tree
//! by R\* insertion; on the Fig. 27 workload (uniform, k = 1) the two
//! builds measured:
//!
//! | n    | build         | NN NA | TPNN NA |
//! |------|---------------|-------|---------|
//! | 1M   | STR           | 3.30  | 65.3    |
//! | 1M   | R\* insertion | 4.01  | 81.6    |
//! | 100k | STR           | 3.19  | 59.0    |
//! | 100k | R\* insertion | 3.21  | 59.0    |
//!
//! Insertion lands no nearer the paper's TPNN/NN ratio (≈ 12×), and
//! the insertion-built Fig. 27 run took about 3 minutes on a 2-vCPU
//! x86 box, nearly all of it building, where STR builds the same five
//! trees in about a second. So insertion was removed.
//!
//! STR packs items and `(MBR, child)` pairs straight into the node
//! arrays. Nodes are numbered in the order they are packed, leaves
//! first, and the root is the last node.

use crate::node::{Item, Node, NodeId};
use crate::stats::StatsCell;
use crate::tree::RTree;
use crate::util::node_id;
use crate::RTreeConfig;
use lbq_geom::{Point, Rect};
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;

/// Default pack fill: fraction of `max_entries` used per node.
pub const DEFAULT_BULK_FILL: f64 = 0.7;

impl RTree {
    /// Builds a tree from `items`, packing each node to
    /// [`DEFAULT_BULK_FILL`]` × max_entries` (clamped to
    /// `[min_entries, max_entries]`). An empty `items` gives the empty
    /// tree: one empty leaf as the root.
    ///
    /// # Panics
    ///
    /// On a non-finite point.
    pub fn bulk_load(items: Vec<Item>, config: RTreeConfig) -> RTree {
        for item in &items {
            assert!(item.point.is_finite(), "cannot index a non-finite point");
        }
        let len = items.len();
        let mut nodes = Vec::new();
        let root = if items.is_empty() {
            nodes.push(Node::new(0));
            0
        } else {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_precision_loss,
                clippy::cast_sign_loss,
                reason = "fill ∈ (0, 1], product is small"
            )]
            let node_cap = ((config.max_entries as f64 * DEFAULT_BULK_FILL).round() as usize)
                .clamp(config.min_entries.max(2), config.max_entries);
            // Level 0: tile the points into leaves; upper levels tile
            // the child entries until one node remains.
            let mut level_nodes = pack_level(&mut nodes, items, 0, node_cap, &config);
            let mut level = 1;
            while level_nodes.len() > 1 {
                level_nodes = pack_level(&mut nodes, level_nodes, level, node_cap, &config);
                level += 1;
            }
            level_nodes[0].1
        };
        let tree = RTree {
            nodes,
            root,
            config,
            len,
            stats: StatsCell::default(),
            buffer: Mutex::new(None),
            buffered: AtomicBool::new(false),
        };
        tree.debug_validate();
        tree
    }
}

/// One slot STR tiles: a leaf item, or an internal `(MBR, child)` pair.
trait Slot: Copy {
    /// The tiling key: the centre of the slot's MBR.
    fn center(&self) -> Point;
    /// A node at `level` holding `slots`.
    fn pack_node(level: u32, slots: &[Self]) -> Node;
}

impl Slot for Item {
    #[inline]
    fn center(&self) -> Point {
        Rect::from_point(self.point).center()
    }

    fn pack_node(level: u32, slots: &[Self]) -> Node {
        let mut node = Node::new(level);
        node.items = slots.to_vec();
        node
    }
}

impl Slot for (Rect, NodeId) {
    #[inline]
    fn center(&self) -> Point {
        self.0.center()
    }

    fn pack_node(level: u32, slots: &[Self]) -> Node {
        let mut node = Node::new(level);
        (node.mbrs, node.children) = slots.iter().copied().unzip();
        node
    }
}

/// Packs `slots` into nodes of `cap` entries at `level` using STR
/// tiling, appending them to `nodes` and returning their parent entries.
fn pack_level<S: Slot>(
    nodes: &mut Vec<Node>,
    mut slots: Vec<S>,
    level: u32,
    cap: usize,
    config: &RTreeConfig,
) -> Vec<(Rect, NodeId)> {
    let n = slots.len();
    if n <= cap {
        // Single node (possibly the root; roots may be under-filled),
        // in input order.
        return vec![append_node(nodes, S::pack_node(level, &slots))];
    }
    let node_count = n.div_ceil(cap);
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        reason = "√node_count is small and non-negative"
    )]
    let slice_count = (node_count as f64).sqrt().ceil() as usize;
    let slice_size = slice_count.max(1) * cap;

    slots.sort_by(|a, b| a.center().x.total_cmp(&b.center().x));
    let mut out = Vec::with_capacity(node_count);
    let mut rest = &mut slots[..];
    while !rest.is_empty() {
        // A slice must keep at least `min` entries behind it (or take
        // everything) so every slice can be chunked legally.
        let mut take = slice_size.min(rest.len());
        if rest.len() - take > 0 && rest.len() - take < config.min_entries {
            take = rest.len();
        }
        let (slice, tail) = rest.split_at_mut(take);
        slice.sort_by(|a, b| a.center().y.total_cmp(&b.center().y));
        let mut remaining = &slice[..];
        while !remaining.is_empty() {
            let take = chunk_size(remaining.len(), cap, config.min_entries, config.max_entries);
            let (group, after) = remaining.split_at(take);
            out.push(append_node(nodes, S::pack_node(level, group)));
            remaining = after;
        }
        rest = tail;
    }
    out
}

/// Appends `node` to the arena and returns its parent entry.
fn append_node(nodes: &mut Vec<Node>, node: Node) -> (Rect, NodeId) {
    #[expect(clippy::expect_used, reason = "STR never packs an empty node")]
    let mbr = node.mbr().expect("non-empty pack");
    let id = node_id(nodes.len());
    nodes.push(node);
    (mbr, id)
}

/// Next chunk size, targeting `target` per node but flexing within the
/// legal `[min, max]` range so no trailing group is ever starved.
///
/// Requires `max + 1 ≥ 2·min` (guaranteed by the 40% R\* fill rule).
fn chunk_size(remaining: usize, target: usize, min: usize, max: usize) -> usize {
    if remaining <= target {
        remaining
    } else if remaining - target >= min {
        target
    } else if remaining <= max {
        // The tail would starve; absorb everything into one legal node.
        remaining
    } else {
        // Leave exactly `min` behind; the current chunk stays ≤ max
        // because remaining < target + min ≤ max + min.
        remaining - min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Item, RTree, RTreeConfig};
    use lbq_geom::{Point, Rect};

    fn grid_items(side: usize) -> Vec<Item> {
        let mut v = Vec::new();
        for i in 0..side {
            for j in 0..side {
                v.push(Item::new(
                    Point::new(i as f64, j as f64),
                    (i * side + j) as u64,
                ));
            }
        }
        v
    }

    #[test]
    fn empty_and_tiny_loads() {
        let t = RTree::bulk_load(vec![], RTreeConfig::tiny());
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert_eq!(t.node_count(), 1);
        t.check_invariants().unwrap();

        let t = RTree::bulk_load(
            vec![Item::new(Point::new(1.0, 2.0), 9)],
            RTreeConfig::tiny(),
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_preserves_all_items_and_invariants() {
        let items = grid_items(40); // 1600 points
        let t = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 1600);
        let ids: std::collections::HashSet<u64> = t.iter_items().map(|i| i.id).collect();
        assert_eq!(ids.len(), 1600);
        assert!(t.height() >= 3);
    }

    #[test]
    fn bulk_tree_queryable() {
        let t = RTree::bulk_load(grid_items(20), RTreeConfig::tiny());
        let hits = t.window(&Rect::new(0.0, 0.0, 4.0, 4.0));
        assert_eq!(hits.len(), 25);
    }

    #[test]
    fn duplicate_points_coexist() {
        let p = Point::new(0.5, 0.5);
        let t = RTree::bulk_load(
            (0..40).map(|i| Item::new(p, i)).collect(),
            RTreeConfig::tiny(),
        );
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 40);
        assert_eq!(t.knn(p, 40).len(), 40);
    }

    #[test]
    fn clustered_duplicates_and_collinear_points() {
        // Pathological inputs: all on a line, many duplicates.
        let items: Vec<Item> = (0..120u64)
            .map(|id| {
                let i = id / 2;
                let x = if id % 2 == 0 { i } else { i / 10 };
                Item::new(Point::new(x as f64, 0.0), id)
            })
            .collect();
        let t = RTree::bulk_load(items, RTreeConfig::tiny());
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 120);
        assert_eq!(t.window(&Rect::new(0.0, -1.0, 5.0, 1.0)).len(), 66);
    }

    #[test]
    #[should_panic(expected = "non-finite point")]
    fn rejects_nan() {
        let _ = RTree::bulk_load(
            vec![Item::new(Point::new(f64::NAN, 0.0), 0)],
            RTreeConfig::tiny(),
        );
    }

    #[test]
    fn nodes_are_numbered_in_pack_order() {
        // Leaves first, then each level above, the root last: a child's
        // id is always below its parent's.
        let t = RTree::bulk_load(grid_items(30), RTreeConfig::tiny());
        assert_eq!(t.root as usize, t.nodes.len() - 1);
        for (id, node) in t.nodes.iter().enumerate() {
            assert!(node.children.iter().all(|&c| (c as usize) < id));
        }
        assert!(t.nodes.windows(2).all(|w| w[0].level <= w[1].level));
    }

    #[test]
    fn chunk_never_starves_tail() {
        // target 6, min 3, max 8.
        assert_eq!(chunk_size(5, 6, 3, 8), 5); // fits in one
        assert_eq!(chunk_size(12, 6, 3, 8), 6); // clean target chunk
        assert_eq!(chunk_size(8, 6, 3, 8), 8); // tail would starve → absorb
        assert_eq!(chunk_size(7, 6, 3, 8), 7); // same
                                               // target 4, min 3, max 8: remaining 5 must be absorbed (3+2 illegal).
        assert_eq!(chunk_size(5, 4, 3, 8), 5);
        // Too big to absorb: leave exactly min behind.
        assert_eq!(chunk_size(10, 8, 3, 8), 7);
        // Exhaustive feasibility: chunking any size ≥ min terminates with
        // all chunks in [min, max].
        for target in 3..=8usize {
            for mut n in 3..200usize {
                loop {
                    let c = chunk_size(n, target, 3, 8);
                    assert!((3..=8).contains(&c), "n={n} target={target} c={c}");
                    n -= c;
                    if n == 0 {
                        break;
                    }
                    assert!(n >= 3, "starved tail {n} for target {target}");
                }
            }
        }
    }
}
