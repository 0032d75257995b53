//! Location-based **circular region queries** — the first future-work
//! item of the paper's Section 7 ("find all restaurants within a 5 km
//! radius"), where "the problem is more complex, conceptually and
//! computationally, since the validity region is defined by arcs
//! resulting from circle intersections".
//!
//! A client at `c` with search radius `r` sees every point of
//! `D(c, r)`. Translating the NN/window machinery:
//!
//! * the result is stable at `c'` iff every result point stays within
//!   `r` of `c'` (i.e. `c' ∈ ⋂_{p∈R} D(p, r)` — a convex lens bounded by
//!   arcs) **and** no other point comes within `r`
//!   (`c' ∉ ⋃_{p∉R} D(p, r)`);
//! * only points within `3r` of `c` can ever bound the region (any
//!   affecting disk must reach the region, which lies inside `D(p₀, r)`
//!   for any result point `p₀`, itself inside `D(c, 2r)`), so one range
//!   query fetches every candidate;
//! * a **conservative validity disk** of radius
//!   `min(min_{p∈R}(r − d(c,p)), min_{p∉R}(d(c,p) − r))` gives the
//!   constant-time client check, while the influence sets give the
//!   exact check.
//!
//! Exact arc-bounded *areas* are not needed by any client operation
//! (membership tests are plain distance comparisons); [`RegionValidity::area_grid`]
//! offers a grid approximation for instrumentation.

use lbq_geom::{Point, Rect};
use lbq_rtree::{Item, RTree};

/// Validity structure of a location-based circular region query.
#[derive(Debug, Clone)]
pub struct RegionValidity {
    /// The query radius.
    pub radius: f64,
    /// Result points whose disks bound the region ("stay close to
    /// these").
    pub inner_influence: Vec<Item>,
    /// Non-result candidates whose disks carve the region ("stay away
    /// from these").
    pub outer_influence: Vec<Item>,
    /// Radius of the conservative validity disk around the query focus
    /// (0 when a point lies exactly on the search circle).
    pub safe_radius: f64,
    /// Sound bound on how far from `origin` the validity region can
    /// extend: `min_{p∈R} d(origin, p) + radius` for non-empty results
    /// (implied by the inner constraints, made explicit), and the
    /// conservative disk for empty ones (where no inner constraint
    /// exists to bound the region, and candidates beyond it were never
    /// fetched).
    pub travel_bound: f64,
    /// The query focus the structure was computed at.
    pub origin: Point,
    /// The data universe (region clipped to it).
    pub universe: Rect,
}

impl RegionValidity {
    /// Exact client-side check: the cached result is still exact at
    /// `c`. O(|influence sets|) distance comparisons.
    pub fn contains(&self, c: Point) -> bool {
        let r_sq = self.radius * self.radius;
        self.universe.contains(c)
            && self.origin.dist(c) <= self.travel_bound
            && self
                .inner_influence
                .iter()
                .all(|p| c.dist_sq(p.point) <= r_sq)
            && !self
                .outer_influence
                .iter()
                .any(|p| c.dist_sq(p.point) < r_sq)
    }

    /// Constant-time conservative check: inside the safe disk.
    pub fn contains_conservative(&self, c: Point) -> bool {
        self.origin.dist(c) <= self.safe_radius && self.universe.contains(c)
    }

    /// Total influence objects (the wire payload beyond the result).
    pub fn influence_count(&self) -> usize {
        self.inner_influence.len() + self.outer_influence.len()
    }

    /// Grid approximation of the arc-bounded region's area, with
    /// `resolution²` samples over the candidate bounding box. For
    /// instrumentation only — no client operation needs areas.
    pub fn area_grid(&self, resolution: usize) -> f64 {
        assert!(resolution >= 2);
        // The region lies within `radius` of the origin's own disk
        // intersection; a 2r box around the origin always covers it.
        let bb = Rect::centered(self.origin, 2.0 * self.radius, 2.0 * self.radius);
        let bb = bb.intersection(&self.universe).unwrap_or(bb);
        let (w, h) = (bb.width(), bb.height());
        let cell = w * h / (resolution * resolution) as f64;
        let mut hits = 0usize;
        for i in 0..resolution {
            for j in 0..resolution {
                let p = Point::new(
                    bb.xmin + w * (i as f64 + 0.5) / resolution as f64,
                    bb.ymin + h * (j as f64 + 0.5) / resolution as f64,
                );
                if self.contains(p) {
                    hits += 1;
                }
            }
        }
        hits as f64 * cell
    }
}

/// Server response to a location-based region query.
#[derive(Debug, Clone)]
pub struct RegionResponse {
    /// The query focus.
    pub query: Point,
    /// The query radius.
    pub radius: f64,
    /// Points within `radius` of the query focus.
    pub result: Vec<Item>,
    /// Where the result stays valid.
    pub validity: RegionValidity,
}

/// Evaluates a location-based circular region query at `c` with search
/// radius `r`.
pub fn region_with_validity(tree: &RTree, c: Point, r: f64, universe: Rect) -> RegionResponse {
    assert!(r > 0.0, "search radius must be positive");
    let mut span = lbq_obs::span("region-validity");
    let r_sq = r * r;
    // One range query fetches the result and every possible influence
    // object (see module docs for the 3r bound).
    let candidates = tree.window(&Rect::centered(c, 3.0 * r, 3.0 * r));
    span.record("candidates", candidates.len());
    let (mut result, mut outer): (Vec<Item>, Vec<Item>) = (Vec::new(), Vec::new());
    for it in candidates {
        if c.dist_sq(it.point) <= r_sq {
            result.push(it);
        } else {
            outer.push(it);
        }
    }
    // Deterministic result order (ascending distance, then id).
    result.sort_by(|a, b| {
        c.dist_sq(a.point)
            .total_cmp(&c.dist_sq(b.point))
            .then(a.id.cmp(&b.id))
    });

    // Conservative disk: slack before any point crosses the circle.
    let inner_slack = result
        .iter()
        .map(|p| r - c.dist(p.point))
        .fold(f64::INFINITY, f64::min);
    let outer_slack = outer
        .iter()
        .map(|p| c.dist(p.point) - r)
        .fold(f64::INFINITY, f64::min);
    let safe_radius = inner_slack.min(outer_slack).min(2.0 * r).max(0.0);

    // Sound travel bound: the region lies inside D(p*, r) for the
    // closest result point p*, hence inside D(c, d(c,p*) + r). With an
    // empty result nothing bounds the region from inside, so fall back
    // to the conservative disk (candidates beyond it were never
    // inspected).
    let travel_bound = match result.first() {
        Some(p0) => c.dist(p0.point) + r, // result sorted by distance
        None => safe_radius,
    };
    // Outer pruning: a disk D(q, r) can carve the region only if it
    // reaches it, i.e. d(c, q) < r + travel_bound. (All candidates are
    // within the 3r fetch box because travel_bound ≤ 2r.)
    debug_assert!(travel_bound <= 2.0 * r + lbq_geom::EPS_TIGHT);
    let outer_influence: Vec<Item> = outer
        .into_iter()
        .filter(|p| c.dist(p.point) < r + travel_bound)
        .collect();

    if span.is_active() {
        span.record("results", result.len());
        span.record("outer-influence", outer_influence.len());
        span.record("safe-radius", safe_radius);
    }
    RegionResponse {
        query: c,
        radius: r,
        result: result.clone(),
        validity: RegionValidity {
            radius: r,
            inner_influence: result,
            outer_influence,
            safe_radius,
            travel_bound,
            origin: c,
            universe,
        },
    }
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

    fn brute_region(items: &[Item], c: Point, r: f64) -> Vec<u64> {
        let mut v: Vec<u64> = items
            .iter()
            .filter(|i| c.dist(i.point) <= r)
            .map(|i| i.id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn result_matches_brute_force() {
        let items = pseudo_random_items(500, 3);
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        for &(cx, cy, r) in &[(0.5, 0.5, 0.1), (0.05, 0.9, 0.2), (0.99, 0.01, 0.05)] {
            let c = Point::new(cx, cy);
            let resp = region_with_validity(&tree, c, r, unit());
            let mut got: Vec<u64> = resp.result.iter().map(|i| i.id).collect();
            got.sort_unstable();
            assert_eq!(got, brute_region(&items, c, r));
        }
    }

    #[test]
    fn region_is_sound_by_sampling() {
        let items = pseudo_random_items(400, 9);
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let c = Point::new(0.45, 0.55);
        let r = 0.08;
        let resp = region_with_validity(&tree, c, r, unit());
        let baseline = brute_region(&items, c, r);
        assert!(resp.validity.contains(c));
        for i in 0..40 {
            for j in 0..40 {
                let p = Point::new(
                    c.x - 0.2 + 0.4 * i as f64 / 39.0,
                    c.y - 0.2 + 0.4 * j as f64 / 39.0,
                );
                if resp.validity.contains(p) {
                    assert_eq!(
                        brute_region(&items, p, r),
                        baseline,
                        "result drifted inside region at {p}"
                    );
                }
                if resp.validity.contains_conservative(p) {
                    assert!(
                        resp.validity.contains(p),
                        "conservative disk ⊄ exact region at {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn safe_radius_semantics() {
        // One point just inside, one just outside: slack is the min gap.
        let items = vec![
            Item::new(Point::new(0.50, 0.58), 0), // dist 0.08 from c, inside r=0.1
            Item::new(Point::new(0.50, 0.35), 1), // dist 0.15, outside by 0.05
        ];
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let c = Point::new(0.5, 0.5);
        let resp = region_with_validity(&tree, c, 0.1, unit());
        assert_eq!(resp.result.len(), 1);
        // inner slack 0.02, outer slack 0.05 → safe radius 0.02.
        assert!((resp.validity.safe_radius - 0.02).abs() < 1e-12);
    }

    #[test]
    fn empty_region_still_guarded() {
        let items = vec![Item::new(Point::new(0.9, 0.9), 0)];
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let c = Point::new(0.2, 0.2);
        let resp = region_with_validity(&tree, c, 0.05, unit());
        assert!(resp.result.is_empty());
        // Conservative disk only (no inner points): anywhere inside it
        // the region stays empty.
        let r = resp.validity.safe_radius;
        for k in 0..12 {
            let theta = k as f64 * std::f64::consts::TAU / 12.0;
            let p = c + lbq_geom::Vec2::from_angle(theta) * (r * 0.95);
            if unit().contains(p) {
                assert!(brute_region(&items, p, 0.05).is_empty());
            }
        }
    }

    #[test]
    fn area_grid_reasonable() {
        // Single point at the center, generous radius: the validity
        // region is the lens ∩ complement of nothing = D(p, r) clipped
        // to the universe ∩ ... with only one inner point the region is
        // D(p, r) (stay within r of p). Area ≈ πr².
        let items = vec![Item::new(Point::new(0.5, 0.5), 0)];
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let resp = region_with_validity(&tree, Point::new(0.5, 0.5), 0.1, unit());
        let a = resp.validity.area_grid(200);
        let expect = std::f64::consts::PI * 0.01;
        assert!(
            (a - expect).abs() / expect < 0.05,
            "grid area {a} vs πr² {expect}"
        );
    }

    #[test]
    fn outer_influence_pruned_but_sound() {
        let items = pseudo_random_items(800, 5);
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let c = Point::new(0.5, 0.5);
        let r = 0.06;
        let resp = region_with_validity(&tree, c, r, unit());
        // Pruning keeps strictly fewer objects than the 3r candidate
        // fetch on dense data...
        let all_candidates = items
            .iter()
            .filter(|i| {
                let d = c.dist(i.point);
                d > r && d < 3.0 * r
            })
            .count();
        assert!(resp.validity.outer_influence.len() <= all_candidates);
        // ...and the check stays exact (verified by the sampling test);
        // here verify no kept outer is a result member.
        for o in &resp.validity.outer_influence {
            assert!(!resp.result.iter().any(|i| i.id == o.id));
        }
    }
}
