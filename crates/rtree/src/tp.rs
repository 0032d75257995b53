//! Time-parameterized (k-)nearest-neighbor queries `[TP02]`.
//!
//! The query point moves along the ray `q + t·dir` (unit speed). Given
//! the current k-NN result set (the *inner* objects), the **influence
//! time** of an outer object `p` is the first `t` at which `p` comes at
//! least as close to the moving query as some inner object — i.e. the
//! moment the result set would change by swapping `p` in. [`RTree::tp_knn`]
//! returns the outer object with minimum influence time within a time
//! horizon, together with the inner object whose bisector it crosses.
//!
//! That pair is exactly what the validity-region construction of the
//! paper needs: the bisector of `(inner, outer)` is the next edge of the
//! (order-k) Voronoi cell in direction `dir`.
//!
//! ## Influence time of a point
//!
//! With `|dir| = 1`, `f(t) = dist²(q+t·dir, p) − dist²(q+t·dir, oᵢ)` is
//! *linear*: the quadratic `t²` terms cancel. `f(t) = f(0) − 2t·dir·(oᵢ−p)`,
//! so the crossing is `t = f(0) / (2·dir·(p − oᵢ))`, valid when the
//! denominator is positive (the bisector lies ahead).
//!
//! ## Pruning bounds for subtrees
//!
//! Two admissible lower bounds on the influence time of anything inside
//! an MBR `E` are provided (selectable, see [`TpBound`]):
//!
//! * **Loose** (default): the query and a point can close their distance
//!   gap at rate at most 2 (each moves/appears to move at speed ≤ 1), so
//!   `t ≥ (mindist(q,E) − max_i dist(q,oᵢ)) / 2`. O(1) per entry.
//! * **Exact**: the smallest `t ≥ 0` with
//!   `mindist(q+t·dir, E) ≤ max_i dist(q+t·dir, oᵢ)`, solved piecewise —
//!   `mindist²` is piecewise-quadratic in `t` with breakpoints where the
//!   moving point crosses the slab boundaries of `E`. Tighter (prunes
//!   more nodes) but costs O(k) quadratic solves per entry. The
//!   `ablation_tpnn_bound` benchmark quantifies the trade.

use crate::node::Item;
use crate::probe::QueryProbe;
use crate::scratch::QueryScratch;
use crate::tree::RTree;
use crate::util::OrdF64;
use lbq_geom::{Point, Rect, Vec2};
use std::cmp::Reverse;

/// Relative slack widening the squared-space radial prune so it is
/// strictly conservative against the rounding of `r * r`: no child the
/// exact sqrt-based test would keep is ever dropped.
const RADIAL_SLACK: f64 = lbq_geom::EPS_TIGHT;

/// Relative slack widening the capsule interval tests against the
/// ≲1e-14 rounding of the dot products and the influence-time division.
const CAPSULE_SLACK: f64 = lbq_geom::EPS;

/// The result-changing event found by a TP query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpEvent {
    /// The outer object that enters the result ("+p" in TP notation).
    pub object: Item,
    /// The inner object whose bisector `object` crosses first (the one
    /// that leaves the result, "−o").
    pub partner: Item,
    /// Influence time: distance traveled along `dir` until the change.
    pub time: f64,
}

/// Subtree pruning bound used by [`RTree::tp_knn_with_bound_in`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TpBound {
    /// O(1) closing-speed bound (default).
    #[default]
    Loose,
    /// Piecewise-quadratic exact bound.
    Exact,
}

impl RTree {
    /// TPkNN with the default (loose) pruning bound and a fresh scratch:
    /// finds the outer object with minimum influence time w.r.t. the
    /// current result `inner`, searching only `t ∈ [0, t_max]`.
    ///
    /// `dir` must be (approximately) unit length — influence times are
    /// *distances traveled*, which is what the location-based algorithms
    /// compare against vertex distances.
    pub fn tp_knn(&self, q: Point, dir: Vec2, t_max: f64, inner: &[Item]) -> Option<TpEvent> {
        let mut scratch = QueryScratch::new();
        self.tp_knn_with_bound_in(q, dir, t_max, inner, TpBound::Loose, &mut scratch)
    }

    /// [`RTree::tp_knn`] with a chosen pruning bound, against a
    /// reusable scratch: zero steady-state allocations.
    pub fn tp_knn_with_bound_in(
        &self,
        q: Point,
        dir: Vec2,
        t_max: f64,
        inner: &[Item],
        bound: TpBound,
        scratch: &mut QueryScratch,
    ) -> Option<TpEvent> {
        let _stage = lbq_obs::stage_timer(lbq_obs::Stage::TpnnChain);
        let mut span = lbq_obs::span("rtree-tpnn");
        let mut probe = QueryProbe::default();
        let out = self.tp_knn_probed(q, dir, t_max, inner, bound, scratch, &mut probe);
        span.record("inner", inner.len());
        span.record("found", out.is_some());
        self.finish_query_span(&mut span, &probe, &mut scratch.accesses);
        out
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the public entry points' arguments plus probe state"
    )]
    fn tp_knn_probed(
        &self,
        q: Point,
        dir: Vec2,
        t_max: f64,
        inner: &[Item],
        bound: TpBound,
        scratch: &mut QueryScratch,
        probe: &mut QueryProbe,
    ) -> Option<TpEvent> {
        assert!(!inner.is_empty(), "TP query needs the current result set");
        debug_assert!(
            (dir.norm() - 1.0).abs() < lbq_geom::EPS,
            "dir must be unit length, got |dir| = {}",
            dir.norm()
        );
        let d_max = inner.iter().map(|o| q.dist(o.point)).fold(0.0f64, f64::max);
        // Rotated frame for the directional capsule prune: `u` is the
        // component of `p − q` along the ray, `w` across it. An event at
        // time `t ≤ h` needs `dist(q + t·dir, p) ≤ d_max + t` (p must
        // come as close as some inner object, which started ≤ d_max away
        // and recedes at rate ≤ 1). Projecting that disk sweep:
        //   u ∈ [−d_max, d_max + 2h],   |w| ≤ d_max + h.
        // The radial bound alone keeps the whole ball of radius
        // 2h + d_max; the capsule kills everything behind the query and
        // the perpendicular band — most of the ball when h is large.
        let perp = Vec2::new(-dir.y, dir.x);

        scratch.tp_inner_d2.clear();
        scratch
            .tp_inner_d2
            .extend(inner.iter().map(|o| q.dist_sq(o.point)));
        let QueryScratch {
            ref mut queue,
            ref tp_inner_d2,
            ..
        } = *scratch;
        let inner_d2: &[f64] = tp_inner_d2;
        queue.clear();
        queue.push(Reverse((OrdF64::new(0.0), self.root)));
        let mut best: Option<TpEvent> = None;

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
                scan_leaf(
                    &node.items,
                    q,
                    dir,
                    perp,
                    d_max,
                    t_max,
                    inner,
                    inner_d2,
                    &mut best,
                );
            } else {
                // `best` only changes in leaf scans, so the horizon is
                // loop-invariant here.
                let horizon = best.as_ref().map_or(t_max, |ev| ev.time.min(t_max));
                match bound {
                    TpBound::Loose => {
                        // The loose bound keeps a child iff
                        // `(mindist − d_max)/2 ≤ horizon`, i.e.
                        // `mindist ≤ 2·horizon + d_max`. Testing that in
                        // squared space skips the sqrt for every pruned
                        // child — at paper fanout that is ~200 sqrts per
                        // node. The slack keeps the squared test strictly
                        // conservative, so no child the exact test would
                        // keep is ever dropped; survivors get the same
                        // sqrt-based bound as before, so pop order and
                        // results are unchanged.
                        let r = (2.0 * horizon + d_max) * (1.0 + RADIAL_SLACK);
                        let keep_sq = r * r;
                        let u_hi = d_max + 2.0 * horizon;
                        let w_hi = d_max + horizon;
                        for (mbr, &child) in node.mbrs.iter().zip(&node.children) {
                            let md_sq = mbr.mindist_sq(q);
                            if md_sq <= keep_sq {
                                // Directional capsule prune (see `perp`
                                // above), on the MBR's interval images in
                                // the rotated frame: center projection ±
                                // half-extent.
                                let c = q.to(mbr.center());
                                let hx = (mbr.xmax - mbr.xmin) * 0.5;
                                let hy = (mbr.ymax - mbr.ymin) * 0.5;
                                let u_c = dir.dot(c);
                                let u_half = dir.x.abs() * hx + dir.y.abs() * hy;
                                let w_c = perp.dot(c);
                                let w_half = perp.x.abs() * hx + perp.y.abs() * hy;
                                let sl =
                                    CAPSULE_SLACK * (r + u_c.abs() + w_c.abs() + u_half + w_half);
                                if !(u_c + u_half < -d_max - sl
                                    || u_c - u_half > u_hi + sl
                                    || w_c.abs() - w_half > w_hi + sl)
                                {
                                    let lb = ((md_sq.sqrt() - d_max) * 0.5).max(0.0);
                                    if lb <= horizon {
                                        queue.push(Reverse((OrdF64::new(lb), child)));
                                    }
                                }
                            }
                        }
                    }
                    TpBound::Exact => {
                        for (mbr, &child) in node.mbrs.iter().zip(&node.children) {
                            let lb = exact_entry_bound(q, dir, mbr, inner, t_max);
                            if lb <= horizon {
                                queue.push(Reverse((OrdF64::new(lb), child)));
                            }
                        }
                    }
                }
            }
        }
        best
    }
}

/// Scans one leaf's items, updating `best` in place.
///
/// Per-item prunes, refreshed whenever the horizon shrinks:
/// (a) closing-speed — the influence time of `p` is at least
/// `(dist(q,p) − d_max) / 2` (the gap to any inner object closes at rate
/// ≤ 2), so items beyond the disk of radius `2·horizon + d_max` cannot
/// beat the current best; (b) the directional capsule test on the
/// rotated components (see `tp_knn_probed`). The tiny relative slacks
/// keep every test strictly conservative against the ≲1e-14 rounding of
/// the influence-time division, so pruned and unpruned scans return
/// bit-identical events.
#[expect(
    clippy::too_many_arguments,
    reason = "the leaf scan threads the prune state"
)]
fn scan_leaf(
    items: &[Item],
    q: Point,
    dir: Vec2,
    perp: Vec2,
    d_max: f64,
    t_max: f64,
    inner: &[Item],
    inner_d2: &[f64],
    best: &mut Option<TpEvent>,
) {
    let mut horizon = best.as_ref().map_or(t_max, |e| e.time.min(t_max));
    let thresholds = |h: f64| -> (f64, f64, f64, f64) {
        let r = (2.0 * h + d_max) * (1.0 + RADIAL_SLACK);
        let sl = CAPSULE_SLACK * (r + d_max);
        (r * r, -d_max - sl, d_max + 2.0 * h + sl, d_max + h + sl)
    };
    let (mut reach_sq, mut u_lo, mut u_hi, mut w_abs) = thresholds(horizon);
    for &item in items {
        let v = q.to(item.point);
        let dp_sq = v.dot(v);
        // The rotated projections only past the reach gate: most items
        // fail it, so far items skip both dot products.
        if dp_sq <= reach_sq {
            let u = dir.dot(v);
            let w = perp.dot(v);
            if u >= u_lo && u <= u_hi && w.abs() <= w_abs && !inner.iter().any(|o| o.id == item.id)
            {
                if let Some((t, partner)) =
                    influence_time_from(dp_sq, dir, item.point, inner, inner_d2, horizon)
                {
                    #[expect(clippy::float_cmp, reason = "exact time tie, broken by object id")]
                    let better = t < horizon
                        || (t <= horizon
                            && best
                                .as_ref()
                                .is_some_and(|b| t == b.time && item.id < b.object.id));
                    if t <= t_max && better {
                        *best = Some(TpEvent {
                            object: item,
                            partner,
                            time: t,
                        });
                        horizon = t.min(t_max);
                        (reach_sq, u_lo, u_hi, w_abs) = thresholds(horizon);
                    }
                }
            }
        }
    }
}

/// Influence time of point `p` against the inner set: the earliest
/// bisector crossing, with the inner partner achieving it. `None` when
/// `p` never influences the result along this ray.
// The hot path precomputes dist² and calls `influence_time_from`; this
// convenience wrapper remains for the reference implementations in the
// test suite.
#[cfg_attr(
    not(test),
    expect(dead_code, reason = "only the reference scans in the tests call it")
)]
pub(crate) fn influence_time(q: Point, dir: Vec2, p: Point, inner: &[Item]) -> Option<(f64, Item)> {
    let inner_d2: Vec<f64> = inner.iter().map(|o| q.dist_sq(o.point)).collect();
    influence_time_from(q.dist_sq(p), dir, p, inner, &inner_d2, f64::INFINITY)
}

/// [`influence_time`] with `dist²(q, p)` precomputed — the leaf hot
/// path computes it anyway for the closing-speed prune.
///
/// `cutoff` is an upper bound on the influence times the caller still
/// cares about (the scan horizon; `f64::INFINITY` for "all"). Crossings
/// provably beyond it are skipped *before* the division — the division
/// latency chain is the kernel's dominant cost — via the conservative
/// multiply form `f0 ≥ lim·denom ⇒ f0/denom > cutoff` with `lim`
/// slack-widened, so no crossing that could win **or tie** at the
/// cutoff is ever skipped and the returned minimum is bit-identical
/// whenever it is ≤ `cutoff`. When the true minimum exceeds the cutoff
/// the result may be a partial minimum (or `None`); callers discard
/// those outcomes anyway.
fn influence_time_from(
    dp_sq: f64,
    dir: Vec2,
    p: Point,
    inner: &[Item],
    inner_d2: &[f64],
    cutoff: f64,
) -> Option<(f64, Item)> {
    // Relative slack on the prescreen: skipping demands
    // `t > lim/(1+PRESCREEN_SLACK)` with margin far beyond the ≤2-ulp
    // rounding of the multiply and divide, so boundary crossings take
    // the exact division path instead.
    const PRESCREEN_SLACK: f64 = lbq_geom::EPS;
    let mut best: Option<(f64, Item)> = None;
    let mut lim = cutoff * (1.0 + PRESCREEN_SLACK);
    for (&o, &od2) in inner.iter().zip(inner_d2) {
        let f0 = dp_sq - od2;
        if f0 <= 0.0 {
            // p is already at least as close as this inner object — the
            // result changes immediately (degenerate tie or stale inner
            // set). Nothing beats t = 0 under the strict-< minimum, and
            // a later tie at 0 would lose to this (first) partner.
            return Some((0.0, o));
        }
        let denom = 2.0 * dir.dot(o.point.to(p));
        // gap grows (or stays) along this direction when denom ≤ 0
        if denom > 0.0 && f0 < lim * denom {
            let t = f0 / denom;
            if best.as_ref().is_none_or(|(bt, _)| t < *bt) {
                best = Some((t, o));
                lim = t * (1.0 + PRESCREEN_SLACK);
            }
        }
    }
    best
}

/// Exact admissible lower bound on the influence time of any point in
/// `mbr`: the smallest `t ∈ [0, t_max]` with
/// `mindist(q+t·dir, mbr) ≤ dist(q+t·dir, oᵢ)` for some inner `oᵢ`
/// (`+∞`-like `t_max + 1` when none exists in the horizon).
fn exact_entry_bound(q: Point, dir: Vec2, mbr: &Rect, inner: &[Item], t_max: f64) -> f64 {
    // Inside the MBR right now → can influence immediately. mindist_sq
    // returns an exact 0.0 for interior points (clamped differences).
    // Comparing against that exact sentinel zero.
    if mbr.mindist_sq(q) == 0.0 {
        return 0.0;
    }
    // Interval breakpoints: where the moving point crosses the slab
    // boundaries of the MBR (the clamp regime of mindist changes). At
    // most six — 0, t_max, and four slab crossings — so a fixed array
    // keeps this bound computation allocation-free.
    let mut ts = [0.0, t_max, 0.0, 0.0, 0.0, 0.0];
    let mut n = 2;
    for (coord, d, lo, hi) in [
        (q.x, dir.x, mbr.xmin, mbr.xmax),
        (q.y, dir.y, mbr.ymin, mbr.ymax),
    ] {
        if d.abs() > 1e-15 {
            for b in [lo, hi] {
                let t = (b - coord) / d;
                if t > 0.0 && t < t_max {
                    ts[n] = t;
                    n += 1;
                }
            }
        }
    }
    let ts = &mut ts[..n];
    ts.sort_by(f64::total_cmp);
    let mut m = 1;
    for i in 1..ts.len() {
        if (ts[i] - ts[m - 1]).abs() >= 1e-15 {
            ts[m] = ts[i];
            m += 1;
        }
    }

    for w in ts[..m].windows(2) {
        let (t0, t1) = (w[0], w[1]);
        if t1 <= t0 {
            continue;
        }
        let mid = (t0 + t1) * 0.5;
        // mindist²(t) = X(t) + Y(t), each term a fixed quadratic within
        // this interval (regime determined at the midpoint).
        let (xa, xb, xc) = clamp_term(q.x, dir.x, mbr.xmin, mbr.xmax, mid);
        let (ya, yb, yc) = clamp_term(q.y, dir.y, mbr.ymin, mbr.ymax, mid);
        let (ma, mbq, mc) = (xa + ya, xb + yb, xc + yc);
        let mut earliest = f64::INFINITY;
        for o in inner {
            // dist²(q+t·dir, o) = t² + 2t·dir·(q−o) + |q−o|².
            let qo = o.point.to(q);
            let (da, db, dc) = (1.0, 2.0 * dir.dot(qo), q.dist_sq(o.point));
            // f(t) = mindist² − dist²; want earliest f(t) ≤ 0 in [t0,t1].
            let (a, b, c) = (ma - da, mbq - db, mc - dc);
            if let Some(t) = earliest_nonpositive(a, b, c, t0, t1) {
                earliest = earliest.min(t);
            }
        }
        if earliest.is_finite() {
            return earliest;
        }
    }
    t_max + 1.0
}

/// Coefficients `(a, b, c)` of the x- (or y-) term of `mindist²` as a
/// quadratic `a t² + b t + c`, for the clamp regime active at `t_probe`.
fn clamp_term(coord: f64, d: f64, lo: f64, hi: f64, t_probe: f64) -> (f64, f64, f64) {
    let pos = coord + d * t_probe;
    if pos < lo {
        // (lo − coord − d t)²
        let g = lo - coord;
        (d * d, -2.0 * d * g, g * g)
    } else if pos > hi {
        let g = coord - hi;
        (d * d, 2.0 * d * g, g * g)
    } else {
        (0.0, 0.0, 0.0)
    }
}

/// Earliest `t ∈ [t0, t1]` with `a t² + b t + c ≤ 0`, if any.
fn earliest_nonpositive(a: f64, b: f64, c: f64, t0: f64, t1: f64) -> Option<f64> {
    let f = |t: f64| a * t * t + b * t + c;
    if f(t0) <= 0.0 {
        return Some(t0);
    }
    if a.abs() < 1e-15 {
        if b.abs() < 1e-15 {
            return None; // constant positive
        }
        let root = -c / b;
        return (root > t0 && root <= t1).then_some(root);
    }
    let disc = b * b - 4.0 * a * c;
    if disc < 0.0 {
        // No real roots: the sign is constant, and f(t0) > 0.
        return None;
    }
    let sq = disc.sqrt();
    let r1 = (-b - sq) / (2.0 * a);
    let r2 = (-b + sq) / (2.0 * a);
    let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
    // f(t0) > 0. For a > 0, f ≤ 0 on [lo, hi]; earliest in window is lo.
    // For a < 0, f ≤ 0 outside (lo, hi); since f(t0) > 0, t0 ∈ (lo, hi),
    // so the earliest qualifying point is hi.
    let candidate = if a > 0.0 { lo } else { hi };
    (candidate > t0 && candidate <= t1).then_some(candidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RTree, RTreeConfig};

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
                let x = (next() >> 11) as f64 / (1u64 << 53) as f64;
                let y = (next() >> 11) as f64 / (1u64 << 53) as f64;
                Item::new(Point::new(x, y), i as u64)
            })
            .collect();
        (RTree::bulk_load(items.clone(), RTreeConfig::tiny()), items)
    }

    /// Brute-force reference: scan all items for the minimum influence
    /// time.
    fn brute_tp(
        items: &[Item],
        q: Point,
        dir: Vec2,
        t_max: f64,
        inner: &[Item],
    ) -> Option<TpEvent> {
        let mut best: Option<TpEvent> = None;
        for &item in items {
            if inner.iter().any(|o| o.id == item.id) {
                continue;
            }
            if let Some((t, partner)) = influence_time(q, dir, item.point, inner) {
                #[expect(clippy::float_cmp, reason = "exact time tie, broken by object id")]
                if t <= t_max
                    && best
                        .as_ref()
                        .is_none_or(|b| t < b.time || (t == b.time && item.id < b.object.id))
                {
                    best = Some(TpEvent {
                        object: item,
                        partner,
                        time: t,
                    });
                }
            }
        }
        best
    }

    #[test]
    fn influence_time_hand_example() {
        // q at origin moving east; NN at (1,0); candidate at (3,0).
        // Bisector of (1,0) and (3,0) is x = 2 → influence at t = 2:
        // f(0) = 9 − 1 = 8, denom = 2·dir·(p−o) = 2·2 = 4 → t = 2.
        let q = Point::ORIGIN;
        let dir = Vec2::new(1.0, 0.0);
        let inner = [Item::new(Point::new(1.0, 0.0), 0)];
        let (t, partner) = influence_time(q, dir, Point::new(3.0, 0.0), &inner).unwrap();
        assert!((t - 2.0).abs() < 1e-12);
        assert_eq!(partner.id, 0);
        // Moving west the candidate never influences.
        assert!(influence_time(q, Vec2::new(-1.0, 0.0), Point::new(3.0, 0.0), &inner).is_none());
    }

    #[test]
    fn tp_nn_matches_brute_force() {
        let (tree, items) = build(500, 33);
        let dirs = [
            Vec2::new(1.0, 0.0),
            Vec2::new(0.0, -1.0),
            Vec2::new(0.6, 0.8),
            Vec2::new(
                -std::f64::consts::FRAC_1_SQRT_2,
                std::f64::consts::FRAC_1_SQRT_2,
            ),
        ];
        for (qi, &qseed) in [(0.31, 0.47), (0.9, 0.1), (0.05, 0.95)].iter().enumerate() {
            let q = Point::new(qseed.0, qseed.1);
            let inner: Vec<Item> = tree.knn(q, 1 + qi).into_iter().map(|(i, _)| i).collect();
            for &dir in &dirs {
                for t_max in [0.05, 0.3, 2.0] {
                    let got = tree.tp_knn(q, dir, t_max, &inner);
                    let want = brute_tp(&items, q, dir, t_max, &inner);
                    match (got, want) {
                        (None, None) => {}
                        (Some(g), Some(w)) => {
                            assert!(
                                (g.time - w.time).abs() < 1e-9,
                                "time {} vs {}",
                                g.time,
                                w.time
                            );
                            assert_eq!(g.object.id, w.object.id);
                        }
                        (g, w) => panic!("mismatch: {g:?} vs {w:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn exact_bound_same_answers_fewer_accesses() {
        let (tree, items) = build(3000, 8);
        let q = Point::new(0.5, 0.5);
        let inner: Vec<Item> = tree.knn(q, 4).into_iter().map(|(i, _)| i).collect();
        let dir = Vec2::new(0.8, -0.6);
        let (loose, loose_stats) = tree.with_stats(|t| {
            t.tp_knn_with_bound_in(
                q,
                dir,
                1.0,
                &inner,
                TpBound::Loose,
                &mut QueryScratch::new(),
            )
        });
        let loose_na = loose_stats.node_accesses;
        let (exact, exact_stats) = tree.with_stats(|t| {
            t.tp_knn_with_bound_in(
                q,
                dir,
                1.0,
                &inner,
                TpBound::Exact,
                &mut QueryScratch::new(),
            )
        });
        let exact_na = exact_stats.node_accesses;
        let want = brute_tp(&items, q, dir, 1.0, &inner);
        assert_eq!(loose.map(|e| e.object.id), want.map(|e| e.object.id));
        assert_eq!(exact.map(|e| e.object.id), want.map(|e| e.object.id));
        assert!(
            exact_na <= loose_na,
            "exact bound should prune at least as hard: {exact_na} vs {loose_na}"
        );
    }

    #[test]
    fn horizon_respected() {
        let (tree, items) = build(400, 50);
        let q = Point::new(0.5, 0.5);
        let inner: Vec<Item> = tree.knn(q, 1).into_iter().map(|(i, _)| i).collect();
        let dir = Vec2::new(1.0, 0.0);
        // Find the unbounded first event, then query with a horizon just
        // below its time: must return None.
        let ev = brute_tp(&items, q, dir, f64::INFINITY, &inner)
            .expect("something influences eventually");
        let short = tree.tp_knn(q, dir, ev.time * 0.99, &inner);
        assert!(short.is_none(), "got {short:?} before horizon {}", ev.time);
        let long = tree.tp_knn(q, dir, ev.time * 1.01, &inner);
        assert_eq!(long.unwrap().object.id, ev.object.id);
    }

    #[test]
    fn knn_inner_set_excluded() {
        let (tree, _) = build(200, 4);
        let q = Point::new(0.4, 0.6);
        let inner: Vec<Item> = tree.knn(q, 5).into_iter().map(|(i, _)| i).collect();
        if let Some(ev) = tree.tp_knn(q, Vec2::new(0.0, 1.0), 10.0, &inner) {
            assert!(
                !inner.iter().any(|o| o.id == ev.object.id),
                "inner objects cannot influence themselves"
            );
            assert!(inner.iter().any(|o| o.id == ev.partner.id));
        }
    }

    #[test]
    fn earliest_nonpositive_cases() {
        // f(t) = t² − 1 ≤ 0 on [−1, 1]; from t0=0 → earliest is 0.
        assert_eq!(earliest_nonpositive(1.0, 0.0, -1.0, 0.0, 2.0), Some(0.0));
        // f(t) = (t−2)(t−3) > 0 at 0; earliest ≤ 0 at t=2.
        let t = earliest_nonpositive(1.0, -5.0, 6.0, 0.0, 10.0).unwrap();
        assert!((t - 2.0).abs() < 1e-12);
        // Roots outside window.
        assert_eq!(earliest_nonpositive(1.0, -5.0, 6.0, 0.0, 1.5), None);
        // Linear: 3 − t ≤ 0 at t = 3.
        let t = earliest_nonpositive(0.0, -1.0, 3.0, 0.0, 5.0).unwrap();
        assert!((t - 3.0).abs() < 1e-12);
        // Always positive.
        assert_eq!(earliest_nonpositive(1.0, 0.0, 1.0, 0.0, 100.0), None);
    }

    #[test]
    #[should_panic]
    fn empty_inner_set_rejected() {
        let (tree, _) = build(10, 1);
        let _ = tree.tp_knn(Point::ORIGIN, Vec2::new(1.0, 0.0), 1.0, &[]);
    }
}
