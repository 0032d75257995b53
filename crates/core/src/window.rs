//! Location-based window queries — Section 4 of the paper.
//!
//! The client at `c` sees a window of half-extents `(hx, hy)` centered
//! on itself; the window translates rigidly as the client moves. The
//! result (points inside the window) stays valid while:
//!
//! * no **inner** point leaves — the client stays inside the *inner
//!   validity rectangle* `⋂ᵢ Rect(pᵢ ± (hx,hy))`, whose binding points
//!   are the *inner influence objects*; and
//! * no **outer** point enters — the client stays outside each outer
//!   candidate's **Minkowski region** `Rect(p ± (hx,hy))`; candidates
//!   are the points of the *extended window* (the original window
//!   inflated by the inner rectangle's extents — the paper's "marginal
//!   rectangle" is that extension minus the original, Fig. 17) outside
//!   the original window, and the candidates whose Minkowski regions
//!   actually shape the region are the *outer influence objects*.
//!
//! The paper fetches the candidates with a second window query over the
//! extended window, which re-reads every node of the first.
//! [`window_with_validity_in`] reads each node once instead: the result
//! descent ([`RTree::window_split_in`]) also records what it skips
//! inside a reach box proven to hold the extended window, and the
//! candidates are resumed from that record
//! ([`RTree::window_resume_in`]), so a request reads exactly the
//! extended window's nodes. [`window_validity_from_result`] keeps the
//! paper's two-query form (the cost split of Fig. 34): the same second
//! phase started at the root.
//!
//! The exact validity region is rectilinear (`inner − ⋃ Minkowski`);
//! its area is computed exactly by the sweepline in
//! [`lbq_geom::rect_union_area`]. A **conservative rectangle** (paper
//! Fig. 19) is also produced for clients that want a constant-time
//! check.

use lbq_geom::{rect_difference_area, rect_union_area_in, Point, Rect};
use lbq_obs::Counter;
use lbq_rtree::{Item, QueryScratch, RTree, WindowBuffers};
use std::cmp::Ordering;
use std::sync::OnceLock;

/// Above this many holes left by the dominance pass, the exact union
/// minimality step (O(m³ log m)) is skipped and the outer influence set
/// ships as dominance left it: possibly non-minimal, which costs bytes,
/// never correctness. Each skip is counted as `window-minimality-cap`.
const MINIMALITY_CAP: usize = 64;

/// The validity structure of a location-based window query.
#[derive(Debug, Clone)]
pub struct WindowValidity {
    /// Window half-extents (the client knows these; kept for
    /// self-containment of the wire format).
    pub half: (f64, f64),
    /// The inner validity rectangle (already clipped to the universe).
    pub inner_rect: Rect,
    /// Inner influence objects: result points binding `inner_rect`
    /// edges (≤ 4, ≈2 on average — Fig. 31).
    pub inner_influence: Vec<Item>,
    /// Outer influence objects: candidates whose Minkowski regions
    /// overlap `inner_rect` and contribute boundary (≈2 on average).
    pub outer_influence: Vec<Item>,
    /// The conservative rectangular validity region (Fig. 19):
    /// contains the query focus, avoids every Minkowski hole.
    pub conservative: Rect,
}

impl WindowValidity {
    /// Minkowski region of an outer point for this window geometry.
    fn minkowski(&self, p: Point) -> Rect {
        Rect::centered(p, self.half.0, self.half.1)
    }

    /// Exact client-side validity check at position `c`:
    /// inside the inner rectangle and outside every hole.
    pub fn contains(&self, c: Point) -> bool {
        self.inner_rect.contains(c)
            && !self
                .outer_influence
                .iter()
                .any(|p| self.minkowski(p.point).contains(c))
    }

    /// Constant-time conservative check (sound, may say `false` inside
    /// the exact region).
    pub fn contains_conservative(&self, c: Point) -> bool {
        self.conservative.contains(c)
    }

    /// Exact area of the validity region — the quantity of the paper's
    /// Figs. 29/30.
    // lbq-check: cold — owned-response metric computed off the hot path; builds a scratch hole list by design
    pub fn area(&self) -> f64 {
        let holes: Vec<Rect> = self
            .outer_influence
            .iter()
            .map(|p| self.minkowski(p.point))
            .collect();
        rect_difference_area(&self.inner_rect, &holes)
    }

    /// Total influence objects |S_inf| (Figs. 31/32).
    pub fn influence_count(&self) -> usize {
        self.inner_influence.len() + self.outer_influence.len()
    }
}

/// Server response to a location-based window query.
#[derive(Debug, Clone)]
pub struct WindowResponse {
    /// The query focus (window center).
    pub query: Point,
    /// The window evaluated.
    pub window: Rect,
    /// Points currently inside the window.
    pub result: Vec<Item>,
    /// Validity structure.
    pub validity: WindowValidity,
}

impl WindowResponse {
    /// The extended window (paper Fig. 17) the outer candidates came
    /// from. Meaningful only for a non-empty result.
    pub fn extended_window(&self) -> Rect {
        extended_window(&self.window, self.query, &self.validity.inner_rect)
    }
}

/// Evaluates a location-based window query: result, influence sets and
/// validity region. `c` is the client location (window center).
pub fn window_with_validity(
    tree: &RTree,
    c: Point,
    hx: f64,
    hy: f64,
    universe: Rect,
) -> WindowResponse {
    let mut scratch = QueryScratch::new();
    window_with_validity_in(tree, c, hx, hy, universe, &mut scratch)
}

/// [`window_with_validity`] against a reusable [`QueryScratch`]: one
/// traversal reads each node at most once, and once the scratch is warm
/// the only allocations are the owned response's `result`,
/// `inner_influence` and `outer_influence` (one each when non-empty).
pub fn window_with_validity_in(
    tree: &RTree,
    c: Point,
    hx: f64,
    hy: f64,
    universe: Rect,
    scratch: &mut QueryScratch,
) -> WindowResponse {
    assert!(hx > 0.0 && hy > 0.0, "window extents must be positive");
    let _stage = lbq_obs::stage_timer(lbq_obs::Stage::WindowPass);
    let window = Rect::centered(c, hx, hy);
    let (reach, around) = reach_bounds(c, hx, hy);
    let result = tree
        .window_split_in(&window, &reach, around, scratch)
        .to_vec();
    validity_phase(tree, c, (hx, hy), universe, result, true, scratch)
}

/// The paper's two-query form of [`window_with_validity`], kept so a
/// cost harness can attribute the result query and the outer-candidate
/// query to separate counters (Fig. 34): takes a `result` already
/// fetched for the window centered at `c` and runs the candidate phase
/// as a descent from the root over the extended window.
pub fn window_validity_from_result(
    tree: &RTree,
    c: Point,
    hx: f64,
    hy: f64,
    universe: Rect,
    result: Vec<Item>,
) -> WindowResponse {
    let mut scratch = QueryScratch::new();
    window_validity_from_result_in(tree, c, hx, hy, universe, result, &mut scratch)
}

/// [`window_validity_from_result`] against a reusable [`QueryScratch`].
pub fn window_validity_from_result_in(
    tree: &RTree,
    c: Point,
    hx: f64,
    hy: f64,
    universe: Rect,
    result: Vec<Item>,
    scratch: &mut QueryScratch,
) -> WindowResponse {
    validity_phase(tree, c, (hx, hy), universe, result, false, scratch)
}

/// Bounds on the extended window before it is known, as
/// [`RTree::window_split_in`] takes them: the box `c ± 3h` and the
/// per-result half-extents `2h`, each padded against rounding.
///
/// Proof. Every result point `p` lies in the window `c ± h`. The inner
/// rectangle lies inside `p ± h` for every result `p` (clipping to the
/// universe only shrinks it), hence inside `c ± 2h`. The extended
/// window is the window swept over the inner rectangle, `inner ± h`, so
/// it lies inside `p ± 2h` for every result `p`, and inside `c ± 3h`.
/// The pad covers the few roundings between these exact bounds and the
/// computed rectangles; it scales with the coordinates' magnitude, as
/// those roundings do.
pub fn reach_bounds(c: Point, hx: f64, hy: f64) -> (Rect, (f64, f64)) {
    let pad = lbq_geom::EPS * (c.x.abs() + c.y.abs() + 3.0 * (hx + hy)).max(1.0);
    (
        Rect::centered(c, 3.0 * hx + pad, 3.0 * hy + pad),
        (2.0 * hx + pad, 2.0 * hy + pad),
    )
}

/// The extended window (paper Fig. 17): every position the window
/// covers while its center stays inside `inner_rect`.
fn extended_window(window: &Rect, c: Point, inner_rect: &Rect) -> Rect {
    window.extend(
        c.x - inner_rect.xmin,
        inner_rect.xmax - c.x,
        c.y - inner_rect.ymin,
        inner_rect.ymax - c.y,
    )
}

fn cap_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| lbq_obs::counter("window-minimality-cap"))
}

/// Tie-break of the hole orders: id, then position. With it the
/// unstable sorts below give one order whatever order the candidates
/// arrive in.
fn by_id_point(a: &Item, b: &Item) -> Ordering {
    a.id.cmp(&b.id)
        .then(a.point.x.total_cmp(&b.point.x))
        .then(a.point.y.total_cmp(&b.point.y))
}

/// The validity phase shared by both forms: inner rectangle, outer
/// candidates, their minimization and the conservative rectangle.
/// With `from_record`, `scratch` holds what [`RTree::window_split_in`]
/// recorded for the window at `c` with [`reach_bounds`], and the
/// candidates resume from it (the resume debug-asserts that the
/// extended window lies inside the final reach); without, they come
/// from a descent from the root.
fn validity_phase(
    tree: &RTree,
    c: Point,
    (hx, hy): (f64, f64),
    universe: Rect,
    result: Vec<Item>,
    from_record: bool,
    scratch: &mut QueryScratch,
) -> WindowResponse {
    let window = Rect::centered(c, hx, hy);
    if result.is_empty() {
        return empty_window_response(tree, c, hx, hy, universe, window, scratch);
    }

    // Inner validity rectangle: intersection of per-point containment
    // rectangles. Track which point binds each side.
    let mut xmin = (f64::NEG_INFINITY, None::<Item>);
    let mut xmax = (f64::INFINITY, None::<Item>);
    let mut ymin = (f64::NEG_INFINITY, None::<Item>);
    let mut ymax = (f64::INFINITY, None::<Item>);
    for &it in &result {
        let p = it.point;
        if p.x - hx > xmin.0 {
            xmin = (p.x - hx, Some(it));
        }
        if p.x + hx < xmax.0 {
            xmax = (p.x + hx, Some(it));
        }
        if p.y - hy > ymin.0 {
            ymin = (p.y - hy, Some(it));
        }
        if p.y + hy < ymax.0 {
            ymax = (p.y + hy, Some(it));
        }
    }
    let mut inner_rect = Rect::new(xmin.0, ymin.0, xmax.0, ymax.0);
    debug_assert!(inner_rect.contains_eps(c, lbq_geom::EPS * universe.width().max(1.0)));
    // Sides can also be bound by the universe (client cannot meaningfully
    // see beyond it); keep influence attribution only for object-bound
    // sides.
    let mut inner_influence: Vec<Item> = Vec::new();
    let push_unique = |it: Option<Item>, binding: bool, list: &mut Vec<Item>| {
        if let (Some(it), true) = (it, binding) {
            if !list.contains(&it) {
                list.push(it);
            }
        }
    };
    if let Some(u) = inner_rect.intersection(&universe) {
        push_unique(
            xmin.1,
            inner_rect.xmin >= universe.xmin,
            &mut inner_influence,
        );
        push_unique(
            xmax.1,
            inner_rect.xmax <= universe.xmax,
            &mut inner_influence,
        );
        push_unique(
            ymin.1,
            inner_rect.ymin >= universe.ymin,
            &mut inner_influence,
        );
        push_unique(
            ymax.1,
            inner_rect.ymax <= universe.ymax,
            &mut inner_influence,
        );
        inner_rect = u;
    }

    // Outer candidates: the extended window's points outside the closed
    // window. Resumed from the result descent's record, they are
    // outside by construction (a recorded entry's MBR misses the
    // window); from the root, the window's own points are filtered out
    // by geometry.
    let extended = extended_window(&window, c, &inner_rect);
    let mut bufs = std::mem::take(&mut scratch.window);
    let WindowBuffers {
        holes,
        kept,
        keep,
        others,
        union,
    } = &mut bufs;
    let candidates = if from_record {
        tree.window_resume_in(&extended, scratch)
    } else {
        tree.window_in(&extended, scratch)
    };
    // Outer influence objects: candidates whose Minkowski region
    // overlaps the inner rectangle...
    holes.clear();
    holes.extend(
        candidates
            .iter()
            .filter(|it| from_record || !window.contains(it.point))
            .filter_map(|&it| {
                Rect::centered(it.point, hx, hy)
                    .intersection(&inner_rect)
                    .filter(|ov| ov.area() > 0.0)
                    .map(|ov| (it, ov))
            }),
    );
    // ...minimized in two passes. First, containment dominance, largest
    // hole first: a hole whose clipped rect lies inside a kept hole
    // contributes nothing. This is O(m·|kept|) and collapses the
    // pathological case of boundary-overhanging windows, where
    // thousands of same-size Minkowski rects nest along a thin inner
    // rectangle.
    holes.sort_unstable_by(|a, b| {
        b.1.area()
            .total_cmp(&a.1.area())
            .then_with(|| by_id_point(&a.0, &b.0))
    });
    kept.clear();
    for &(it, ov) in holes.iter() {
        if !kept.iter().any(|(_, k)| k.contains_rect(&ov)) {
            kept.push((it, ov));
        }
    }
    // Second, exact union minimality (drop a hole covered by the union
    // of the others) — O(m³ log m), affordable only on the small sets
    // dominance leaves behind.
    if kept.len() <= MINIMALITY_CAP {
        kept.sort_unstable_by(|a, b| {
            a.1.area()
                .total_cmp(&b.1.area())
                .then_with(|| by_id_point(&a.0, &b.0))
        });
        keep.clear();
        keep.resize(kept.len(), true);
        for i in 0..kept.len() {
            let hole = kept[i].1;
            others.clear();
            others.extend(
                kept.iter()
                    .zip(keep.iter())
                    .enumerate()
                    .filter(|&(j, (_, &k))| j != i && k)
                    .filter_map(|(_, ((_, ov), _))| ov.intersection(&hole)),
            );
            let covered = rect_union_area_in(others, union);
            // lbq-check: allow(local-epsilon) — 1e-300 is an underflow guard, not a tolerance
            if covered >= hole.area() - lbq_geom::EPS_TIGHT * hole.area().max(1e-300) {
                keep[i] = false;
            }
        }
        let mut flags = keep.iter();
        kept.retain(|_| flags.next().copied().unwrap_or(true));
    } else {
        cap_counter().add(1);
    }
    let outer_influence: Vec<Item> = kept.iter().map(|(it, _)| *it).collect();
    scratch.window = bufs;

    let conservative = conservative_rect(
        inner_rect,
        c,
        outer_influence
            .iter()
            .map(|it| Rect::centered(it.point, hx, hy)),
    );

    let validity = WindowValidity {
        half: (hx, hy),
        inner_rect,
        inner_influence,
        outer_influence,
        conservative,
    };
    crate::invariants::debug_validate_window(&validity, c);
    WindowResponse {
        query: c,
        window,
        result,
        validity,
    }
}

/// Empty-result handling (not discussed by the paper): a sound
/// conservative region derived from the nearest point. The window at
/// `c'` is certainly empty while `dist(c', p*) > √(hx²+hy²)` for the
/// nearest point `p*`, so a square of half-extent
/// `(dist(c,p*) − √(hx²+hy²)) / √2` around `c` is valid.
fn empty_window_response(
    tree: &RTree,
    c: Point,
    hx: f64,
    hy: f64,
    universe: Rect,
    window: Rect,
    scratch: &mut QueryScratch,
) -> WindowResponse {
    let nearest = tree.knn_in(c, 1, scratch).first().copied();
    let (inner_rect, outer_influence) = match nearest {
        Some((nearest, d)) => {
            let slack = d - (hx * hx + hy * hy).sqrt();
            let half = (slack / std::f64::consts::SQRT_2).max(0.0);
            let r = Rect::centered(c, half, half)
                .intersection(&universe)
                .unwrap_or(Rect::from_point(c));
            (r, vec![nearest])
        }
        // Empty dataset: every position shows the same (empty) window.
        None => (universe, Vec::new()),
    };
    let validity = WindowValidity {
        half: (hx, hy),
        inner_rect,
        inner_influence: Vec::new(),
        outer_influence,
        conservative: inner_rect,
    };
    crate::invariants::debug_validate_window(&validity, c);
    WindowResponse {
        query: c,
        window,
        result: Vec::new(),
        validity,
    }
}

/// The conservative rectangular validity region (paper Fig. 19):
/// greedily clip `rect` by an axis-aligned half-plane avoiding each
/// overlapping hole, choosing the cut that keeps `c` and the most area.
fn conservative_rect(mut rect: Rect, c: Point, holes: impl Iterator<Item = Rect>) -> Rect {
    for hole in holes {
        let Some(ov) = hole.intersection(&rect) else {
            continue;
        };
        if ov.area() <= 0.0 {
            continue;
        }
        // Four candidate cuts; each valid only if it excises the hole
        // while keeping c.
        let mut best: Option<Rect> = None;
        let candidates = [
            (hole.xmax <= rect.xmax && c.x >= hole.xmax)
                .then(|| Rect::new(hole.xmax, rect.ymin, rect.xmax, rect.ymax)),
            (hole.xmin >= rect.xmin && c.x <= hole.xmin)
                .then(|| Rect::new(rect.xmin, rect.ymin, hole.xmin, rect.ymax)),
            (hole.ymax <= rect.ymax && c.y >= hole.ymax)
                .then(|| Rect::new(rect.xmin, hole.ymax, rect.xmax, rect.ymax)),
            (hole.ymin >= rect.ymin && c.y <= hole.ymin)
                .then(|| Rect::new(rect.xmin, rect.ymin, rect.xmax, hole.ymin)),
        ];
        for cand in candidates.into_iter().flatten() {
            if cand.xmin <= cand.xmax
                && cand.ymin <= cand.ymax
                && cand.contains(c)
                && best.as_ref().is_none_or(|b| cand.area() > b.area())
            {
                best = Some(cand);
            }
        }
        match best {
            Some(b) => rect = b,
            // The hole contains c (possible only in degenerate tie
            // cases): the conservative region collapses to the point.
            None => return Rect::from_point(c),
        }
    }
    rect
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbq_rtree::RTreeConfig;

    fn unit() -> Rect {
        Rect::new(0.0, 0.0, 1.0, 1.0)
    }

    fn pseudo_random_items(n: usize, seed: u64) -> Vec<Item> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n)
            .map(|i| Item::new(Point::new(next(), next()), i as u64))
            .collect()
    }

    /// Brute-force result of a window query centered at `c`.
    fn brute_window(items: &[Item], c: Point, hx: f64, hy: f64) -> Vec<u64> {
        let w = Rect::centered(c, hx, hy);
        let mut v: Vec<u64> = items
            .iter()
            .filter(|i| w.contains(i.point))
            .map(|i| i.id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn hand_crafted_inner_and_outer() {
        // Window half-extent 1 around c=(5,5). Inside: (4.6,5), (5.5,5.3).
        // Outside: (6.5,5) — 0.5 beyond the right edge.
        let items = vec![
            Item::new(Point::new(4.6, 5.0), 0),
            Item::new(Point::new(5.5, 5.3), 1),
            Item::new(Point::new(6.5, 5.0), 2),
        ];
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let universe = Rect::new(0.0, 0.0, 10.0, 10.0);
        let resp = window_with_validity(&tree, Point::new(5.0, 5.0), 1.0, 1.0, universe);
        assert_eq!(resp.result.len(), 2);
        // Inner rect: x ∈ [max(3.6,4.5), min(5.6,6.5)] = [4.5, 5.6],
        //             y ∈ [max(4.0,4.3), min(6.0,6.3)] = [4.3, 6.0].
        let ir = resp.validity.inner_rect;
        assert!((ir.xmin - 4.5).abs() < 1e-12);
        assert!((ir.xmax - 5.6).abs() < 1e-12);
        assert!((ir.ymin - 4.3).abs() < 1e-12);
        assert!((ir.ymax - 6.0).abs() < 1e-12);
        // Both result points bind sides → inner influence objects.
        assert_eq!(resp.validity.inner_influence.len(), 2);
        // Point 2's Minkowski region [5.5,7.5]×[4,6] overlaps the inner
        // rect in [5.5,5.6]×[4.3,6.0] → outer influence.
        assert_eq!(resp.validity.outer_influence.len(), 1);
        assert_eq!(resp.validity.outer_influence[0].id, 2);
        // Exact area: inner (1.1 × 1.7 = 1.87) minus hole (0.1 × 1.7).
        assert!((resp.validity.area() - (1.87 - 0.17)).abs() < 1e-9);
        // Conservative rectangle: cut at the hole's left edge x = 5.5.
        let cons = resp.validity.conservative;
        assert!((cons.xmax - 5.5).abs() < 1e-12);
        assert!((cons.area() - 1.0 * 1.7).abs() < 1e-9);
    }

    #[test]
    fn result_matches_brute_force_and_region_is_sound() {
        let items = pseudo_random_items(400, 11);
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let (hx, hy) = (0.06, 0.05);
        for &(cx, cy) in &[(0.5, 0.5), (0.2, 0.8), (0.93, 0.5), (0.05, 0.04)] {
            let c = Point::new(cx, cy);
            let resp = window_with_validity(&tree, c, hx, hy, unit());
            let mut got: Vec<u64> = resp.result.iter().map(|i| i.id).collect();
            got.sort_unstable();
            assert_eq!(got, brute_window(&items, c, hx, hy));
            let baseline = got;

            // Sample the plane: inside validity region ⇒ identical
            // result; outside (clear of boundary, within universe) ⇒
            // different.
            for i in 0..30 {
                for j in 0..30 {
                    let p = Point::new((i as f64 + 0.41) / 30.0, (j as f64 + 0.59) / 30.0);
                    let res = brute_window(&items, p, hx, hy);
                    if resp.validity.contains(p) {
                        assert_eq!(
                            res, baseline,
                            "inside region at {p} but result changed (c={c})"
                        );
                    }
                    if resp.validity.contains_conservative(p) {
                        assert!(resp.validity.contains(p), "conservative ⊄ exact at {p}");
                        assert_eq!(res, baseline);
                    }
                }
            }
        }
    }

    #[test]
    fn region_is_tight_outside() {
        // Points just outside the exact region (but inside the universe
        // and excluded by an object constraint) must see a different
        // result. Probe along rays from the query.
        let items = pseudo_random_items(300, 41);
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let c = Point::new(0.5, 0.5);
        let (hx, hy) = (0.07, 0.07);
        let resp = window_with_validity(&tree, c, hx, hy, unit());
        let baseline = brute_window(&items, c, hx, hy);
        for k in 0..32 {
            let theta = k as f64 * std::f64::consts::TAU / 32.0;
            let dir = lbq_geom::Vec2::from_angle(theta);
            // March until exiting the region; the first clearly-outside
            // point decided by an *object* (not the universe) must have
            // a different result.
            let mut t = 0.0;
            while t < 1.0 {
                t += 1e-3;
                let p = c + dir * t;
                if !unit().contains(p) {
                    break;
                }
                if !resp.validity.contains(p) {
                    let p2 = c + dir * (t + 2e-3); // clear the boundary band
                    if unit().contains(p2) && resp.validity.inner_rect.contains(p2)
                    // exited through a Minkowski hole
                    {
                        let res = brute_window(&items, p2, hx, hy);
                        assert_ne!(res, baseline, "hole at {p2} did not change result");
                    }
                    break;
                }
            }
        }
    }

    #[test]
    fn fig33_outer_object_replaces_inner_edge() {
        // The paper's Fig. 33 scenario: an outer object whose Minkowski
        // region spans an entire edge of the inner rectangle replaces
        // the inner influence object on that side; |S_inf| stays 4-ish
        // and the exact region remains a rectangle.
        let items = vec![
            Item::new(Point::new(5.0, 5.0), 0), // inner, binds everything
            Item::new(Point::new(6.2, 5.0), 1), // outer, right side, tall overlap
        ];
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let universe = Rect::new(0.0, 0.0, 10.0, 10.0);
        let resp = window_with_validity(&tree, Point::new(5.0, 5.0), 1.0, 1.0, universe);
        // Inner rect = [4,6]²; hole = [5.2,7.2]×[4,6] covers the whole
        // right part; exact region = [4,5.2]×[4,6] — a rectangle.
        assert!((resp.validity.area() - 1.2 * 2.0).abs() < 1e-9);
        let cons = resp.validity.conservative;
        assert!(
            (cons.area() - 1.2 * 2.0).abs() < 1e-9,
            "conservative is exact here"
        );
        assert_eq!(resp.validity.outer_influence.len(), 1);
    }

    #[test]
    fn minimality_cap_is_counted() {
        // One result at the origin (inner rectangle [-1, 1]²) and a
        // staircase of 100 outsiders right of the window: hole i spans
        // x ∈ [0.95 − 0.9·i/100, 1] and y ∈ [i/100 − 1, 1], so no hole
        // holds another and dominance keeps all 100 — above the cap.
        let mut items = vec![Item::new(Point::new(0.0, 0.0), 0)];
        for i in 0..100u32 {
            let t = f64::from(i) / 100.0;
            items.push(Item::new(Point::new(1.95 - 0.9 * t, t), u64::from(i) + 1));
        }
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let universe = Rect::new(-10.0, -10.0, 10.0, 10.0);
        let before = cap_counter().get();
        let resp = window_with_validity(&tree, Point::new(0.0, 0.0), 1.0, 1.0, universe);
        assert!(cap_counter().get() > before, "cap hit not counted");
        assert_eq!(resp.result.len(), 1);
        assert_eq!(resp.validity.outer_influence.len(), 100);
    }

    #[test]
    fn empty_window_gets_sound_region() {
        let items = vec![Item::new(Point::new(0.9, 0.9), 0)];
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let c = Point::new(0.2, 0.2);
        let resp = window_with_validity(&tree, c, 0.05, 0.05, unit());
        assert!(resp.result.is_empty());
        assert!(resp.validity.contains(c));
        // Everywhere inside the region the window must remain empty.
        let r = resp.validity.inner_rect;
        for i in 0..10 {
            for j in 0..10 {
                let p = Point::new(
                    r.xmin + r.width() * i as f64 / 9.0,
                    r.ymin + r.height() * j as f64 / 9.0,
                );
                assert!(brute_window(&items, p, 0.05, 0.05).is_empty());
            }
        }
    }

    #[test]
    fn empty_dataset_window() {
        let tree = RTree::bulk_load(Vec::new(), RTreeConfig::tiny());
        let resp = window_with_validity(&tree, Point::new(0.5, 0.5), 0.1, 0.1, unit());
        assert!(resp.result.is_empty());
        assert!((resp.validity.area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conservative_rect_cases() {
        let base = Rect::new(0.0, 0.0, 10.0, 10.0);
        let c = Point::new(2.0, 2.0);
        // Hole to the right: cut at its left edge.
        let r = conservative_rect(base, c, [Rect::new(6.0, 0.0, 8.0, 10.0)].into_iter());
        assert_eq!(r, Rect::new(0.0, 0.0, 6.0, 10.0));
        // Hole overlapping nothing: unchanged.
        let r = conservative_rect(base, c, [Rect::new(20.0, 20.0, 30.0, 30.0)].into_iter());
        assert_eq!(r, base);
        // Two holes boxing the query in.
        let r = conservative_rect(
            base,
            c,
            [
                Rect::new(5.0, 0.0, 7.0, 10.0),
                Rect::new(0.0, 5.0, 10.0, 7.0),
            ]
            .into_iter(),
        );
        assert_eq!(r, Rect::new(0.0, 0.0, 5.0, 5.0));
        // Hole containing c: collapses to the point but never panics.
        let r = conservative_rect(base, c, [Rect::new(1.0, 1.0, 3.0, 3.0)].into_iter());
        assert_eq!(r, Rect::from_point(c));
    }

    #[test]
    fn influence_counts_are_small() {
        // The paper's Fig. 31: ≈2 inner + ≈2 outer on uniform data.
        let items = pseudo_random_items(3000, 99);
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let mut inner_total = 0usize;
        let mut outer_total = 0usize;
        let mut n = 0usize;
        for i in 0..40 {
            let c = Point::new(0.15 + (i % 8) as f64 * 0.1, 0.15 + (i / 8) as f64 * 0.15);
            let resp = window_with_validity(&tree, c, 0.02, 0.02, unit());
            if resp.result.is_empty() {
                continue;
            }
            inner_total += resp.validity.inner_influence.len();
            outer_total += resp.validity.outer_influence.len();
            n += 1;
        }
        assert!(n > 20);
        let avg_inner = inner_total as f64 / n as f64;
        let avg_outer = outer_total as f64 / n as f64;
        assert!(avg_inner > 0.5 && avg_inner < 4.5, "avg inner {avg_inner}");
        assert!(avg_outer < 6.0, "avg outer {avg_outer}");
    }
}
