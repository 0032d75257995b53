//! Window (range) queries.
//!
//! The classic descent: visit every node whose MBR intersects the query
//! rectangle. Each visited node is metered as one node access (and one
//! buffer touch), reproducing the paper's NA/PA accounting.
//!
//! One kernel runs every window traversal, on an explicit stack owned
//! by the caller's [`QueryScratch`], so steady-state window queries
//! perform no heap allocations; children are pushed in reverse slot
//! order so the visit sequence (and thus the result order and access
//! count) is identical to a recursive descent. It serves two shapes:
//!
//! * [`RTree::window_in`]: one descent from the root.
//! * A split query for a window nested in a larger one that is known
//!   only after the first answer (the validity construction of
//!   `lbq-core`: the result window, then the extended window that
//!   contains it). [`RTree::window_split_in`] answers the inner window
//!   and records, within a `reach` box the caller proves holds the
//!   outer window, the child entries whose MBR misses the inner window
//!   and the leaf items outside it. [`RTree::window_resume_in`] then
//!   answers the outer window minus the inner one from that record: the
//!   recorded items inside it, plus a descent from each recorded entry
//!   that meets it. No node is read twice, so the two calls together
//!   read exactly the nodes [`RTree::window_in`] reads for the outer
//!   window.

use crate::node::Item;
use crate::probe::QueryProbe;
use crate::scratch::QueryScratch;
use crate::tree::RTree;
use lbq_geom::{Point, Rect};

/// `r.contains(p)` with all four comparisons evaluated (`&`, not
/// `&&`): in a leaf scan their outcomes are unpredictable, and a branch
/// on each costs more than the comparisons (about a third of a window
/// query over 400k uniform points).
#[inline]
fn inside(r: &Rect, p: Point) -> bool {
    (p.x >= r.xmin) & (p.x <= r.xmax) & (p.y >= r.ymin) & (p.y <= r.ymax)
}

impl RTree {
    /// Returns all items inside the closed query rectangle `q`.
    pub fn window(&self, q: &Rect) -> Vec<Item> {
        let mut scratch = QueryScratch::new();
        self.window_in(q, &mut scratch).to_vec()
    }

    /// [`RTree::window`] against a reusable scratch: zero steady-state
    /// allocations. The returned slice borrows the scratch and is valid
    /// until its next use.
    pub fn window_in<'s>(&self, q: &Rect, scratch: &'s mut QueryScratch) -> &'s [Item] {
        scratch.out_items.clear();
        scratch.stack.clear();
        scratch.stack.push(self.root);
        self.window_descend(q, None, scratch);
        &scratch.out_items
    }

    /// The items inside the closed window `q`, as [`RTree::window_in`]
    /// returns them (same order, same node accesses), and the first half
    /// of a split query for an outer window known only after this
    /// answer. The caller vouches that the outer window lies inside
    /// `reach`, and inside `p ± around` for every item `p` this call
    /// finds in `q`; the kernel shrinks its reach by each such box as
    /// it finds them. Every child entry whose MBR misses `q` and every
    /// leaf item outside `q` is recorded in the scratch when it meets
    /// the reach at that moment. [`RTree::window_resume_in`] reads the
    /// record.
    pub fn window_split_in<'s>(
        &self,
        q: &Rect,
        reach: &Rect,
        around: (f64, f64),
        scratch: &'s mut QueryScratch,
    ) -> &'s [Item] {
        scratch.out_items.clear();
        scratch.split_entries.clear();
        scratch.split_items.clear();
        scratch.stack.clear();
        scratch.stack.push(self.root);
        scratch.split_reach = self.window_descend(q, Some((*reach, around)), scratch);
        &scratch.out_items
    }

    /// The second half of a split query: the items inside the closed
    /// window `q` that the last [`RTree::window_split_in`] on this
    /// scratch did not return. `q` must contain that call's window and
    /// lie inside the outer-window bounds that call was given; then the
    /// answer is exactly the items of `q` outside the first window, and
    /// the nodes read by both calls are exactly those
    /// [`RTree::window_in`] reads for `q`.
    pub fn window_resume_in<'s>(&self, q: &Rect, scratch: &'s mut QueryScratch) -> &'s [Item] {
        debug_assert!(
            scratch.split_reach.is_some_and(|r| r.contains_rect(q)),
            "resumed window {q:?} leaves the split query's reach {:?}",
            scratch.split_reach
        );
        let QueryScratch {
            ref mut out_items,
            ref mut stack,
            ref split_entries,
            ref split_items,
            ..
        } = *scratch;
        out_items.clear();
        out_items.extend(split_items.iter().filter(|it| q.contains(it.point)));
        stack.clear();
        stack.extend(
            split_entries
                .iter()
                .rev()
                .filter(|(mbr, _)| mbr.intersects(q))
                .map(|&(_, node)| node),
        );
        self.window_descend(q, None, scratch);
        &scratch.out_items
    }

    /// The one window kernel: pops the scratch stack until it is empty,
    /// appending the items inside `q` to the output. With a `split`
    /// reach and per-item half-extents, a child or item rejected by `q`
    /// but meeting the reach is recorded for [`RTree::window_resume_in`],
    /// and each item found shrinks the reach (see
    /// [`RTree::window_split_in`]); the final reach is returned.
    fn window_descend(
        &self,
        q: &Rect,
        mut split: Option<(Rect, (f64, f64))>,
        scratch: &mut QueryScratch,
    ) -> Option<Rect> {
        let mut probe = QueryProbe::default();
        // The reach never shrinks below `q`, so testing it first loses
        // no item of `q`.
        if let Some((ref mut reach, _)) = split {
            reach.expand_to_rect(q);
        }
        let QueryScratch {
            ref mut out_items,
            ref mut stack,
            ref mut split_entries,
            ref mut split_items,
            ref mut accesses,
            ..
        } = *scratch;
        while let Some(node_id) = stack.pop() {
            self.access(node_id, &mut probe);
            let node = self.node(node_id);
            if node.is_leaf() {
                match split {
                    Some((ref mut reach, (ax, ay))) => {
                        for item in &node.items {
                            let p = item.point;
                            if !inside(reach, p) {
                                continue;
                            }
                            if inside(q, p) {
                                out_items.push(*item);
                                reach.xmin = reach.xmin.max(p.x - ax).min(q.xmin);
                                reach.xmax = reach.xmax.min(p.x + ax).max(q.xmax);
                                reach.ymin = reach.ymin.max(p.y - ay).min(q.ymin);
                                reach.ymax = reach.ymax.min(p.y + ay).max(q.ymax);
                            } else {
                                split_items.push(*item);
                            }
                        }
                    }
                    None => {
                        out_items.extend(node.items.iter().filter(|it| inside(q, it.point)));
                    }
                }
                continue;
            }
            // Reverse order: slot 0 must pop first to match recursion.
            for (mbr, &child) in node.mbrs.iter().zip(&node.children).rev() {
                if mbr.intersects(q) {
                    stack.push(child);
                } else if let Some((reach, _)) = split {
                    if mbr.intersects(&reach) {
                        split_entries.push((*mbr, child));
                    }
                }
            }
        }
        self.flush_probe(&probe, accesses);
        split.map(|(reach, _)| reach)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Item, RTreeConfig};
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
                let x = (next() >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
                let y = (next() >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
                Item::new(Point::new(x, y), i as u64)
            })
            .collect();
        (RTree::bulk_load(items.clone(), RTreeConfig::tiny()), items)
    }

    fn brute(items: &[Item], q: &Rect) -> Vec<u64> {
        let mut v: Vec<u64> = items
            .iter()
            .filter(|i| q.contains(i.point))
            .map(|i| i.id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn window_matches_brute_force() {
        let (tree, items) = build(800, 3);
        let queries = [
            Rect::new(10.0, 10.0, 30.0, 40.0),
            Rect::new(0.0, 0.0, 100.0, 100.0),
            Rect::new(99.5, 99.5, 100.0, 100.0),
            Rect::new(-10.0, -10.0, -1.0, -1.0),
            Rect::new(50.0, 0.0, 50.0, 100.0), // degenerate line window
        ];
        for q in &queries {
            let mut got: Vec<u64> = tree.window(q).into_iter().map(|i| i.id).collect();
            got.sort_unstable();
            assert_eq!(got, brute(&items, q), "window {q:?}");
        }
    }

    #[test]
    fn empty_window_costs_one_access() {
        let (tree, _) = build(500, 11);
        let (out, s) = tree.with_stats(|t| t.window(&Rect::new(-50.0, -50.0, -40.0, -40.0)));
        assert!(out.is_empty());
        assert_eq!(s.node_accesses, 1, "only the root is read");
    }

    #[test]
    fn full_window_reads_every_node() {
        let (tree, _) = build(600, 13);
        let (out, s) = tree.with_stats(|t| t.window(&Rect::new(0.0, 0.0, 100.0, 100.0)));
        assert_eq!(out.len(), 600);
        assert_eq!(s.node_accesses as usize, tree.node_count());
    }
}
