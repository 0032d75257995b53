//! Window (range) queries.
//!
//! The classic descent: visit every node whose MBR intersects the query
//! rectangle. Each visited node is metered as one node access (and one
//! buffer touch), reproducing the paper's NA/PA accounting.
//!
//! [`RTree::window_in`] runs the traversal on an explicit stack owned by
//! the caller's [`QueryScratch`], so steady-state window queries perform
//! no heap allocations; children are pushed in reverse slot order so the
//! visit sequence (and thus the result order and access count) is
//! identical to the former recursive descent.

use crate::node::Item;
use crate::probe::QueryProbe;
use crate::scratch::QueryScratch;
use crate::tree::RTree;
use lbq_geom::Rect;

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
        let mut span = lbq_obs::span("rtree-window");
        let mut probe = QueryProbe::default();
        scratch.out_items.clear();
        let stack = &mut scratch.stack;
        stack.clear();
        stack.push(self.root);
        while let Some(node_id) = stack.pop() {
            probe.pop();
            self.access(node_id, &mut probe);
            let node = self.node(node_id);
            probe.visit(node.level);
            if node.is_leaf() {
                scratch
                    .out_items
                    .extend(node.items.iter().filter(|item| q.contains(item.point)));
                continue;
            }
            // Reverse order: slot 0 must pop first to match recursion.
            for (mbr, &child) in node.mbrs.iter().zip(&node.children).rev() {
                if mbr.intersects(q) {
                    stack.push(child);
                }
            }
        }
        span.record("results", scratch.out_items.len());
        self.finish_query_span(&mut span, &probe, &mut scratch.accesses);
        &scratch.out_items
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
