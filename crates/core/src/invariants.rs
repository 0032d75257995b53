//! Runtime invariant layer for the query machinery.
//!
//! Every validity structure the server ships to a client carries
//! mathematical obligations (the soundness side of the paper's
//! Lemma 3.1 for kNN, the inner-rectangle/Minkowski construction of
//! Section 4 for windows). This module states those obligations as
//! executable validators:
//!
//! * [`NnValidity::validate`] — the region polygon is consistent with
//!   the influence pairs that supposedly generate it;
//! * [`WindowValidity::validate`] — the conservative rectangle nests
//!   inside the exact region and avoids every Minkowski hole;
//! * [`lbq_rtree::RTree::validate`] and
//!   `lbq_geom::ConvexPolygon::validate` — the structural counterparts
//!   in the substrate crates.
//!
//! The query paths call the `debug_validate_*` wrappers, which run the
//! full check in debug builds and compile to nothing in release builds
//! — queries stay O(answer), but every test run exercises the
//! validators on every region ever built. Corruption tests in each
//! crate verify the validators actually fire (a validator that cannot
//! fail verifies nothing).

use crate::nn::NnValidity;
use crate::window::WindowValidity;
use lbq_geom::Point;

/// Relative tolerance used by the validators, scaled to the size of the
/// geometry being checked. Derived from [`lbq_geom::EPS`] so the whole
/// workspace agrees on what "numerically equal" means.
fn scaled_eps(extent: f64) -> f64 {
    lbq_geom::EPS * extent.abs().max(1.0)
}

impl NnValidity {
    /// Checks the region against the influence pairs that generated it.
    ///
    /// Verified obligations, for a query focus `q`:
    ///
    /// 1. the polygon is structurally valid (CCW, convex, no duplicate
    ///    vertices) — delegated to `ConvexPolygon::validate`;
    /// 2. every polygon vertex lies inside the data universe;
    /// 3. `q` itself lies inside the polygon (a region that excludes
    ///    its own query is useless and wrong);
    /// 4. every polygon vertex lies on the *inner* side of every
    ///    influence pair's bisector — the polygon really is (a subset
    ///    of) the intersection the pairs describe;
    /// 5. every pair's bisector touches the region boundary: some
    ///    vertex lies on it (within tolerance). A pair whose bisector
    ///    misses the region entirely is redundant wire weight and
    ///    indicates a bookkeeping bug in the vertex-confirmation loop.
    ///
    /// The empty polygon (a degenerate tie: `q` equidistant from an
    /// inner and an outer object) is legal and skips the geometric
    /// checks.
    pub fn validate(&self, q: Point) -> Result<(), String> {
        if self.polygon.is_empty() {
            return Ok(());
        }
        self.polygon.validate()?;
        let eps = scaled_eps(self.universe.width().max(self.universe.height()));
        for (i, v) in self.polygon.vertices().iter().enumerate() {
            if !self.universe.contains_eps(*v, eps) {
                return Err(format!("vertex {i} {v} escapes the universe"));
            }
        }
        if !self.polygon.contains_eps(q, eps) {
            return Err(format!("region excludes its own query focus {q}"));
        }
        for (i, pair) in self.pairs.iter().enumerate() {
            let h = pair.half_plane();
            let mut touches = false;
            for v in self.polygon.vertices() {
                let d = h.signed_dist(*v);
                if d > eps {
                    return Err(format!(
                        "vertex {v} lies {d} outside the bisector of pair {i} \
                         (inner {}, outer {})",
                        pair.inner.id, pair.outer.id
                    ));
                }
                if d.abs() <= eps {
                    touches = true;
                }
            }
            if !touches {
                return Err(format!(
                    "bisector of pair {i} (inner {}, outer {}) never touches \
                     the region boundary",
                    pair.inner.id, pair.outer.id
                ));
            }
        }
        Ok(())
    }
}

impl WindowValidity {
    /// Checks the window validity structure for a query focus `c`.
    ///
    /// Verified obligations:
    ///
    /// 1. the inner rectangle is well-formed and contains `c`;
    /// 2. the conservative rectangle nests inside the inner rectangle
    ///    and also contains `c`;
    /// 3. the conservative rectangle avoids every Minkowski hole — a
    ///    client trusting the constant-time check must never sit on a
    ///    stale result;
    /// 4. no site (id and position: ids may repeat) is both inner and
    ///    outer influence.
    pub fn validate(&self, c: Point) -> Result<(), String> {
        let ir = self.inner_rect;
        if !(ir.xmin <= ir.xmax && ir.ymin <= ir.ymax) {
            return Err(format!("inner rectangle {ir:?} is inverted"));
        }
        let eps = scaled_eps(ir.width().max(ir.height()));
        if !ir.contains_eps(c, eps) {
            return Err(format!("inner rectangle {ir:?} excludes the client {c}"));
        }
        let cons = self.conservative;
        if !ir.contains_rect(&cons.inflate(-eps, -eps)) {
            return Err(format!(
                "conservative rectangle {cons:?} is not nested in {ir:?}"
            ));
        }
        if !cons.contains_eps(c, eps) {
            return Err(format!(
                "conservative rectangle {cons:?} excludes the client {c}"
            ));
        }
        let area_eps = eps * ir.width().max(ir.height()).max(1.0);
        for it in &self.outer_influence {
            let hole = lbq_geom::Rect::centered(it.point, self.half.0, self.half.1);
            if hole.overlap_area(&cons) > area_eps {
                return Err(format!(
                    "conservative rectangle overlaps the Minkowski hole of \
                     outer object {}",
                    it.id
                ));
            }
        }
        for it in &self.inner_influence {
            if self.outer_influence.contains(it) {
                return Err(format!(
                    "object {} at {} is both inner and outer influence",
                    it.id, it.point
                ));
            }
        }
        Ok(())
    }
}

/// Debug-build trap for [`NnValidity::validate`]; compiled out in
/// release builds. Called at the end of the vertex-confirmation loop
/// on the scratch-backed view — the owned copy the validator needs is
/// built only in debug builds, keeping the release hot path
/// allocation-free.
// lbq-check: cold — debug_assertions-only; absent from the release builds the zero-alloc proof measures
#[inline]
#[cfg_attr(
    debug_assertions,
    expect(clippy::panic, reason = "debug-only invariant trap")
)]
pub(crate) fn debug_validate_nn(validity: &crate::nn::NnValidityRef<'_>, q: Point) {
    #[cfg(debug_assertions)]
    if let Err(e) = validity.to_owned().validate(q) {
        panic!("NN validity invariant violated: {e}");
    }
    let _ = (validity, q);
}

/// Debug-build trap for [`WindowValidity::validate`]; compiled out in
/// release builds. Called when a window validity structure is built.
// lbq-check: cold — debug_assertions-only; absent from the release builds the zero-alloc proof measures
#[inline]
#[cfg_attr(
    debug_assertions,
    expect(clippy::panic, reason = "debug-only invariant trap")
)]
pub(crate) fn debug_validate_window(validity: &WindowValidity, c: Point) {
    #[cfg(debug_assertions)]
    if let Err(e) = validity.validate(c) {
        panic!("window validity invariant violated: {e}");
    }
    let _ = (validity, c);
}

#[cfg(test)]
mod tests {
    use crate::nn::{retrieve_influence_set, InfluencePair};
    use crate::window::window_with_validity;
    use lbq_geom::{ConvexPolygon, Point, Rect};
    use lbq_rtree::{Item, RTree, RTreeConfig};

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

    #[test]
    fn real_nn_regions_pass_validation() {
        let tree = RTree::bulk_load(pseudo_random_items(250, 61), RTreeConfig::tiny());
        for &(x, y) in &[(0.5, 0.5), (0.05, 0.93), (0.99, 0.01)] {
            let q = Point::new(x, y);
            for k in [1usize, 5] {
                let inner: Vec<Item> = tree.knn(q, k).into_iter().map(|(i, _)| i).collect();
                let (v, _) = retrieve_influence_set(&tree, q, &inner, unit());
                v.validate(q).unwrap();
            }
        }
    }

    #[test]
    fn corrupt_nn_polygon_is_caught() {
        let tree = RTree::bulk_load(pseudo_random_items(250, 61), RTreeConfig::tiny());
        let q = Point::new(0.5, 0.5);
        let inner: Vec<Item> = tree.knn(q, 1).into_iter().map(|(i, _)| i).collect();
        let (mut v, _) = retrieve_influence_set(&tree, q, &inner, unit());
        // Reversing the vertex ring turns the polygon CW — exactly what
        // a sign error in the clipper would produce. `try_new` already
        // refuses to build it...
        let mut verts = v.polygon.vertices().to_vec();
        verts.reverse();
        assert!(ConvexPolygon::try_new(verts).is_err());
        // ...so corrupt the structure a validator can still receive: a
        // well-formed polygon translated clean out of the universe.
        let shifted: Vec<Point> = v
            .polygon
            .vertices()
            .iter()
            .map(|p| Point::new(p.x + 5.0, p.y + 5.0))
            .collect();
        v.polygon = ConvexPolygon::try_new(shifted).unwrap();
        assert!(v.validate(q).is_err());
    }

    #[test]
    fn corrupt_nn_pair_is_caught() {
        let tree = RTree::bulk_load(pseudo_random_items(250, 61), RTreeConfig::tiny());
        let q = Point::new(0.4, 0.6);
        let inner: Vec<Item> = tree.knn(q, 1).into_iter().map(|(i, _)| i).collect();
        let (mut v, _) = retrieve_influence_set(&tree, q, &inner, unit());
        assert!(!v.pairs.is_empty());
        // A pair whose bisector slices through the region interior:
        // swap inner and outer — the kept side flips.
        let p = v.pairs[0];
        v.pairs[0] = InfluencePair {
            inner: p.outer,
            outer: p.inner,
        };
        assert!(v.validate(q).is_err());
        // A pair whose bisector misses the region entirely (far-away
        // phantom object) is also rejected.
        let (mut v, _) = retrieve_influence_set(&tree, q, &inner, unit());
        v.pairs.push(InfluencePair {
            inner: inner[0],
            outer: Item::new(Point::new(100.0, 100.0), 9999),
        });
        assert!(v.validate(q).is_err());
    }

    #[test]
    fn corrupt_nn_query_outside_region_is_caught() {
        let tree = RTree::bulk_load(pseudo_random_items(250, 61), RTreeConfig::tiny());
        let q = Point::new(0.5, 0.5);
        let inner: Vec<Item> = tree.knn(q, 1).into_iter().map(|(i, _)| i).collect();
        let (v, _) = retrieve_influence_set(&tree, q, &inner, unit());
        // Validating against a focus far outside the cell must fail.
        assert!(v.validate(Point::new(0.01, 0.99)).is_err());
    }

    #[test]
    fn real_window_regions_pass_validation() {
        let tree = RTree::bulk_load(pseudo_random_items(500, 13), RTreeConfig::tiny());
        for &(x, y) in &[(0.5, 0.5), (0.2, 0.8), (0.97, 0.5)] {
            let c = Point::new(x, y);
            let resp = window_with_validity(&tree, c, 0.06, 0.05, unit());
            resp.validity.validate(c).unwrap();
        }
    }

    #[test]
    fn corrupt_window_conservative_is_caught() {
        let tree = RTree::bulk_load(pseudo_random_items(500, 13), RTreeConfig::tiny());
        let c = Point::new(0.5, 0.5);
        let resp = window_with_validity(&tree, c, 0.06, 0.05, unit());
        let mut v = resp.validity;
        // Inflate the conservative rectangle beyond the inner rectangle:
        // the constant-time client check would accept stale positions.
        v.conservative = v.inner_rect.inflate(0.1, 0.1);
        assert!(v.validate(c).is_err());
    }

    #[test]
    fn corrupt_window_hole_overlap_is_caught() {
        // Hand-build a geometry where the conservative rect covers a
        // hole: inner [0,1]², hole centered at (0.5, 0.5).
        let tree = RTree::bulk_load(
            vec![
                Item::new(Point::new(0.5, 0.2), 0),
                Item::new(Point::new(0.62, 0.2), 1),
            ],
            RTreeConfig::tiny(),
        );
        let c = Point::new(0.5, 0.2);
        let resp = window_with_validity(&tree, c, 0.1, 0.1, unit());
        let mut v = resp.validity;
        assert_eq!(v.outer_influence.len(), 1);
        // Un-cut the conservative rectangle (pretend the hole was never
        // excised).
        v.conservative = v.inner_rect;
        assert!(v.validate(c).is_err());
    }
}
