//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! The experiments build trees over up to a million points; STR packs
//! them in O(n log n) instead of a million R\* inserts. The pack fill is
//! kept below capacity (70% by default) so the resulting node count —
//! and therefore the buffer-pool geometry and NA/PA figures — matches a
//! tree grown by insertion, which is what the paper used.

use crate::node::{Entry, Item, Node};
use crate::tree::RTree;
use crate::RTreeConfig;
use lbq_geom::Point;

/// Default pack fill: fraction of `max_entries` used per node.
pub const DEFAULT_BULK_FILL: f64 = 0.7;

impl RTree {
    /// Builds a tree from `items`, packing each node to
    /// [`DEFAULT_BULK_FILL`]` × max_entries` (clamped to
    /// `[min_entries, max_entries]`).
    pub fn bulk_load(items: Vec<Item>, config: RTreeConfig) -> RTree {
        for item in &items {
            assert!(item.point.is_finite(), "cannot index a non-finite point");
        }
        let mut tree = RTree::new(config);
        if items.is_empty() {
            return tree;
        }
        // lbq-check: allow(lossy-cast) — fill ∈ (0, 1], product is small
        let node_cap = ((config.max_entries as f64 * DEFAULT_BULK_FILL).round() as usize)
            .clamp(config.min_entries.max(2), config.max_entries);
        tree.len = items.len();
        // The empty bootstrap root is replaced by the packed tree;
        // recycle its page so node_count stays exact.
        tree.dealloc(0);

        // Level 0: tile the points into leaves.
        let leaf_entries: Vec<Entry> = items.into_iter().map(Entry::Leaf).collect();
        let mut level_nodes = pack_level(&mut tree, leaf_entries, 0, node_cap);

        // Upper levels: tile the child entries until one node remains.
        let mut level = 1;
        while level_nodes.len() > 1 {
            level_nodes = pack_level(&mut tree, level_nodes, level, node_cap);
            level += 1;
        }
        tree.root = level_nodes[0].child();
        tree.debug_validate();
        tree
    }
}

/// Packs `entries` into nodes of `cap` entries at `level` using STR
/// tiling, returning the parent entries for the new nodes.
fn pack_level(tree: &mut RTree, mut entries: Vec<Entry>, level: u32, cap: usize) -> Vec<Entry> {
    let n = entries.len();
    if n <= cap {
        // Single node (possibly the root; roots may be under-filled).
        let node = Node::from_entries(level, entries);
        // lbq-check: allow(no-unwrap-core) — pack_level is never called empty
        let mbr = node.mbr().expect("non-empty pack");
        let id = tree.alloc(node);
        return vec![Entry::Child { mbr, node: id }];
    }
    let node_count = n.div_ceil(cap);
    // lbq-check: allow(lossy-cast) — √node_count is small and non-negative
    let slice_count = (node_count as f64).sqrt().ceil() as usize;
    let slice_size = slice_count.max(1) * cap;

    let center = |e: &Entry| -> Point { e.mbr().center() };
    entries.sort_by(|a, b| center(a).x.total_cmp(&center(b).x));

    let min = tree.config.min_entries;
    let max = tree.config.max_entries;
    let mut out = Vec::with_capacity(node_count);
    let mut rest = entries;
    while !rest.is_empty() {
        // A slice must keep at least `min` entries behind it (or take
        // everything) so every slice can be chunked legally.
        let mut take = slice_size.min(rest.len());
        if rest.len() - take > 0 && rest.len() - take < min {
            take = rest.len();
        }
        let mut slice: Vec<Entry> = rest.drain(..take).collect();
        slice.sort_by(|a, b| center(a).y.total_cmp(&center(b).y));
        let mut remaining = slice;
        while !remaining.is_empty() {
            let take = chunk_size(remaining.len(), cap, min, max);
            let group: Vec<Entry> = remaining.drain(..take).collect();
            let node = Node::from_entries(level, group);
            // lbq-check: allow(no-unwrap-core) — chunk_size returns ≥ 1
            let mbr = node.mbr().expect("non-empty group");
            let id = tree.alloc(node);
            out.push(Entry::Child { mbr, node: id });
        }
    }
    out
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
    fn bulk_tree_queryable_and_mutable() {
        let items = grid_items(20);
        let mut t = RTree::bulk_load(items, RTreeConfig::tiny());
        // Query.
        let hits = t.window(&Rect::new(0.0, 0.0, 4.0, 4.0));
        assert_eq!(hits.len(), 25);
        // Mutate after bulk load.
        t.insert(Item::new(Point::new(100.0, 100.0), 10_000));
        assert!(t.delete(Point::new(0.0, 0.0), 0));
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 400);
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

    #[test]
    fn bulk_matches_insert_contents() {
        let items = grid_items(15);
        let bulk = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let mut incr = RTree::new(RTreeConfig::tiny());
        for &i in &items {
            incr.insert(i);
        }
        let a: std::collections::BTreeSet<u64> = bulk.iter_items().map(|i| i.id).collect();
        let b: std::collections::BTreeSet<u64> = incr.iter_items().map(|i| i.id).collect();
        assert_eq!(a, b);
    }
}
