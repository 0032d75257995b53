//! Time-parameterized **window** queries `[TP02]` — the Fig. 6a scenario
//! of the paper: a window translating rigidly with the client, and the
//! question "when does the result change next, and how?".
//!
//! For a window of half-extents `(hx, hy)` centered at the moving
//! client `c + t·dir`, a point `p` is inside exactly while the client is
//! inside `p`'s Minkowski rectangle `Rect(p ± (hx, hy))`. So:
//!
//! * an object currently **in** the result *leaves* at the ray's exit
//!   time from its Minkowski rectangle (computed directly from the
//!   result set, no I/O);
//! * an object currently **out** *enters* at the ray's entry time
//!   (found with a best-first tree search whose subtree bound is the
//!   entry time into the child MBR inflated by the window half-extents
//!   — the Minkowski region of the whole subtree).

use crate::node::Item;
use crate::probe::QueryProbe;
use crate::scratch::QueryScratch;
use crate::tree::RTree;
use crate::util::OrdF64;
use lbq_geom::{Point, Rect, Vec2};
use std::cmp::Reverse;

/// How a TP window event changes the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpWindowChange {
    /// The object enters the window (gets added to the result).
    Enter,
    /// The object leaves the window (gets removed).
    Leave,
}

/// The first result-changing event of a moving window query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpWindowEvent {
    /// The object entering or leaving the window.
    pub object: Item,
    /// Whether the object enters or leaves.
    pub change: TpWindowChange,
    /// Distance traveled along `dir` until the change.
    pub time: f64,
}

impl RTree {
    /// Finds the earliest result change of the window of half-extents
    /// `(hx, hy)` centered at `c` moving along unit `dir`, within
    /// travel horizon `t_max`. `result` must be the exact current
    /// window content.
    pub fn tp_window(
        &self,
        c: Point,
        dir: Vec2,
        t_max: f64,
        hx: f64,
        hy: f64,
        result: &[Item],
    ) -> Option<TpWindowEvent> {
        let mut scratch = QueryScratch::new();
        self.tp_window_in(c, dir, t_max, hx, hy, result, &mut scratch)
    }

    /// [`RTree::tp_window`] against a reusable scratch: zero
    /// steady-state allocations.
    #[expect(
        clippy::too_many_arguments,
        reason = "tp_window's arguments plus the scratch"
    )]
    pub fn tp_window_in(
        &self,
        c: Point,
        dir: Vec2,
        t_max: f64,
        hx: f64,
        hy: f64,
        result: &[Item],
        scratch: &mut QueryScratch,
    ) -> Option<TpWindowEvent> {
        let mut span = lbq_obs::span("rtree-tp-window");
        let mut probe = QueryProbe::default();
        let out = self.tp_window_probed(c, dir, t_max, hx, hy, result, scratch, &mut probe);
        span.record("result-size", result.len());
        span.record("found", out.is_some());
        self.finish_query_span(&mut span, &probe, &mut scratch.accesses);
        out
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "tp_window_in's arguments plus probe state"
    )]
    fn tp_window_probed(
        &self,
        c: Point,
        dir: Vec2,
        t_max: f64,
        hx: f64,
        hy: f64,
        result: &[Item],
        scratch: &mut QueryScratch,
        probe: &mut QueryProbe,
    ) -> Option<TpWindowEvent> {
        debug_assert!((dir.norm() - 1.0).abs() < lbq_geom::EPS, "dir must be unit");
        assert!(hx > 0.0 && hy > 0.0);
        let mut best: Option<TpWindowEvent> = None;
        #[expect(clippy::float_cmp, reason = "exact time tie, broken by object id")]
        let better = |cand: &TpWindowEvent, best: &Option<TpWindowEvent>| -> bool {
            match best {
                None => true,
                Some(b) => {
                    cand.time < b.time || (cand.time == b.time && cand.object.id < b.object.id)
                }
            }
        };

        // Leave events: straight from the result set.
        for &item in result {
            let m = Rect::centered(item.point, hx, hy);
            if let Some((_, t_out)) = m.ray_interval(c, dir) {
                if t_out >= 0.0 && t_out <= t_max {
                    let ev = TpWindowEvent {
                        object: item,
                        change: TpWindowChange::Leave,
                        time: t_out.max(0.0),
                    };
                    if better(&ev, &best) {
                        best = Some(ev);
                    }
                }
            }
        }

        // Enter events: best-first search ordered by subtree entry time.
        let queue = &mut scratch.queue;
        queue.clear();
        if !self.is_empty() {
            queue.push(Reverse((OrdF64::new(0.0), self.root)));
        }
        while let Some(Reverse((OrdF64(lb), node_id))) = queue.pop() {
            probe.pop();
            let horizon = best.as_ref().map_or(t_max, |e| e.time.min(t_max));
            if lb > horizon {
                break;
            }
            self.access(node_id, probe);
            let node = self.node(node_id);
            probe.visit(node.level);
            if node.is_leaf() {
                for &item in &node.items {
                    if result.iter().any(|r| r.id == item.id) {
                        continue;
                    }
                    let m = Rect::centered(item.point, hx, hy);
                    if let Some((t_in, t_out)) = m.ray_interval(c, dir) {
                        // Strictly-future entry only: the object is
                        // outside now, so t_in > 0 (up to float noise).
                        if t_out >= 0.0 && t_in <= t_max {
                            let ev = TpWindowEvent {
                                object: item,
                                change: TpWindowChange::Enter,
                                time: t_in.max(0.0),
                            };
                            if ev.time <= t_max && better(&ev, &best) {
                                best = Some(ev);
                            }
                        }
                    }
                }
            } else {
                for (mbr, &child) in node.mbrs.iter().zip(&node.children) {
                    let inflated = mbr.inflate(hx, hy);
                    let lb = match inflated.ray_interval(c, dir) {
                        Some((t_in, t_out)) if t_out >= 0.0 => t_in.max(0.0),
                        _ => continue,
                    };
                    let horizon = best.as_ref().map_or(t_max, |e| e.time.min(t_max));
                    if lb <= horizon {
                        queue.push(Reverse((OrdF64::new(lb), child)));
                    }
                }
            }
        }
        best
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
                let x = (next() >> 11) as f64 / (1u64 << 53) as f64 * 10.0;
                let y = (next() >> 11) as f64 / (1u64 << 53) as f64 * 10.0;
                Item::new(Point::new(x, y), i as u64)
            })
            .collect();
        (RTree::bulk_load(items.clone(), RTreeConfig::tiny()), items)
    }

    fn brute(
        items: &[Item],
        c: Point,
        dir: Vec2,
        t_max: f64,
        hx: f64,
        hy: f64,
        result: &[Item],
    ) -> Option<TpWindowEvent> {
        let mut best: Option<TpWindowEvent> = None;
        #[expect(clippy::float_cmp, reason = "exact time tie, broken by object id")]
        let mut consider = |ev: TpWindowEvent| {
            if ev.time <= t_max
                && best.as_ref().is_none_or(|b| {
                    ev.time < b.time || (ev.time == b.time && ev.object.id < b.object.id)
                })
            {
                best = Some(ev);
            }
        };
        for &item in items {
            let m = Rect::centered(item.point, hx, hy);
            let in_result = result.iter().any(|r| r.id == item.id);
            if let Some((t_in, t_out)) = m.ray_interval(c, dir) {
                if in_result {
                    if t_out >= 0.0 {
                        consider(TpWindowEvent {
                            object: item,
                            change: TpWindowChange::Leave,
                            time: t_out.max(0.0),
                        });
                    }
                } else if t_out >= 0.0 {
                    consider(TpWindowEvent {
                        object: item,
                        change: TpWindowChange::Enter,
                        time: t_in.max(0.0),
                    });
                }
            }
        }
        best
    }

    #[test]
    fn paper_fig6a_style_example() {
        // Window ±1 around c=(4,5) moving east. Object b at (5.8,5)
        // inside? no: |5.8−4|=1.8 > 1 → outside, enters at t=0.8.
        // Object a at (4.5,5) inside, leaves when c passes 5.5 → t=1.5.
        let items = vec![
            Item::new(Point::new(4.5, 5.0), 0),
            Item::new(Point::new(5.8, 5.0), 1),
            Item::new(Point::new(0.0, 0.0), 2),
        ];
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let c = Point::new(4.0, 5.0);
        let result: Vec<Item> = vec![items[0]];
        let ev = tree
            .tp_window(c, Vec2::new(1.0, 0.0), 10.0, 1.0, 1.0, &result)
            .unwrap();
        assert_eq!(ev.object.id, 1);
        assert_eq!(ev.change, TpWindowChange::Enter);
        assert!((ev.time - 0.8).abs() < 1e-12);
        // With the entering object excluded (pretend it's not there),
        // the leave event surfaces.
        let no_b: Vec<Item> = vec![items[0], items[2]];
        let tree2 = RTree::bulk_load(no_b.clone(), RTreeConfig::tiny());
        let ev = tree2
            .tp_window(c, Vec2::new(1.0, 0.0), 10.0, 1.0, 1.0, &result)
            .unwrap();
        assert_eq!(ev.change, TpWindowChange::Leave);
        assert!((ev.time - 1.5).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force() {
        let (tree, items) = build(300, 13);
        for &(cx, cy, theta) in &[(5.0, 5.0, 0.3), (1.0, 9.0, 4.0), (9.5, 0.5, 2.2)] {
            let c = Point::new(cx, cy);
            let dir = Vec2::from_angle(theta);
            let (hx, hy) = (0.4, 0.3);
            let w = Rect::centered(c, hx, hy);
            let result: Vec<Item> = items
                .iter()
                .filter(|i| w.contains(i.point))
                .copied()
                .collect();
            for t_max in [0.5, 3.0, 20.0] {
                let got = tree.tp_window(c, dir, t_max, hx, hy, &result);
                let want = brute(&items, c, dir, t_max, hx, hy, &result);
                match (got, want) {
                    (None, None) => {}
                    (Some(g), Some(w)) => {
                        assert!((g.time - w.time).abs() < 1e-9, "{g:?} vs {w:?}");
                        assert_eq!(g.change, w.change);
                    }
                    (g, w) => panic!("mismatch: {g:?} vs {w:?}"),
                }
            }
        }
    }

    #[test]
    fn event_really_changes_the_result() {
        let (tree, items) = build(200, 21);
        let c = Point::new(3.0, 7.0);
        let dir = Vec2::new(0.8, -0.6);
        let (hx, hy) = (0.5, 0.5);
        let w = Rect::centered(c, hx, hy);
        let result: Vec<Item> = items
            .iter()
            .filter(|i| w.contains(i.point))
            .copied()
            .collect();
        if let Some(ev) = tree.tp_window(c, dir, 20.0, hx, hy, &result) {
            let before = Rect::centered(c + dir * (ev.time * 0.999), hx, hy);
            let after = Rect::centered(c + dir * (ev.time + 1e-6), hx, hy);
            let count = |w: &Rect| items.iter().filter(|i| w.contains(i.point)).count();
            assert_eq!(
                count(&before),
                result.len(),
                "result stable until the event"
            );
            assert_ne!(count(&after), result.len(), "result changes at the event");
        }
    }

    #[test]
    fn stable_result_returns_none() {
        // A single far-away point, moving away from it.
        let items = vec![Item::new(Point::new(9.0, 9.0), 0)];
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let ev = tree.tp_window(
            Point::new(1.0, 1.0),
            Vec2::new(
                -std::f64::consts::FRAC_1_SQRT_2,
                -std::f64::consts::FRAC_1_SQRT_2,
            ),
            100.0,
            0.5,
            0.5,
            &[],
        );
        assert!(ev.is_none());
    }
}
