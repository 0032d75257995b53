//! Closed half-planes, in particular those bounded by perpendicular
//! bisectors.
//!
//! The validity region of a nearest-neighbor query (paper, Observation in
//! Section 3.1) is the intersection of the half-planes
//! "closer to the result point `o` than to data point `a`" over all other
//! points `a` — i.e. the Voronoi cell of `o`. [`HalfPlane::bisector`]
//! builds exactly that half-plane.

use crate::point::{Point, Vec2};

/// The closed half-plane `a·x + b·y ≤ c`, with `(a, b)` the *outward*
/// normal (pointing away from the kept side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HalfPlane {
    /// Normal x component.
    pub a: f64,
    /// Normal y component.
    pub b: f64,
    /// Offset: the boundary is `a·x + b·y = c`.
    pub c: f64,
}

impl HalfPlane {
    /// Builds the half-plane `a·x + b·y ≤ c` directly from coefficients.
    ///
    /// The normal `(a, b)` must be non-zero; coefficients are normalized
    /// so that `(a, b)` is a unit vector, which makes
    /// [`HalfPlane::signed_dist`] a true Euclidean distance and keeps the
    /// numeric behaviour of downstream clipping independent of the
    /// magnitude of the inputs.
    pub fn new(a: f64, b: f64, c: f64) -> Self {
        let n = (a * a + b * b).sqrt();
        assert!(n > 0.0, "half-plane normal must be non-zero");
        HalfPlane {
            a: a / n,
            b: b / n,
            c: c / n,
        }
    }

    /// The half-plane of points at least as close to `keep` as to
    /// `other`, bounded by their perpendicular bisector.
    ///
    /// `keep` strictly satisfies the constraint and `other` strictly
    /// violates it (assuming the points are distinct).
    ///
    /// Derivation: `|x−keep|² ≤ |x−other|²` ⟺
    /// `2(other−keep)·x ≤ |other|² − |keep|²`.
    pub fn bisector(keep: Point, other: Point) -> Self {
        let a = 2.0 * (other.x - keep.x);
        let b = 2.0 * (other.y - keep.y);
        let c = (other.x * other.x + other.y * other.y) - (keep.x * keep.x + keep.y * keep.y);
        HalfPlane::new(a, b, c)
    }

    /// The half-plane on the side of the line through `p` with outward
    /// normal `n` (points `x` with `n·(x − p) ≤ 0` are kept).
    pub fn through(p: Point, outward_normal: Vec2) -> Self {
        HalfPlane::new(
            outward_normal.x,
            outward_normal.y,
            outward_normal.x * p.x + outward_normal.y * p.y,
        )
    }

    /// Signed distance of `p` to the boundary line: negative strictly
    /// inside (kept side), zero on the line, positive strictly outside.
    #[inline]
    pub fn signed_dist(&self, p: Point) -> f64 {
        self.a * p.x + self.b * p.y - self.c
    }

    /// Closed containment test.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.signed_dist(p) <= 0.0
    }

    /// Containment with tolerance `eps` (points within `eps` outside the
    /// line still count as inside).
    #[inline]
    pub fn contains_eps(&self, p: Point, eps: f64) -> bool {
        self.signed_dist(p) <= eps
    }

    /// The boundary line's direction vector (unit length, 90° CCW from
    /// the outward normal, so the kept side is to its *left*).
    #[inline]
    pub fn direction(&self) -> Vec2 {
        Vec2::new(-self.b, self.a)
    }

    /// The point of the boundary line closest to the origin.
    #[inline]
    pub fn boundary_point(&self) -> Point {
        // With unit normal, the line is n·x = c, closest point is c·n.
        Point::new(self.a * self.c, self.b * self.c)
    }

    /// Intersection point of the boundary lines of two half-planes, or
    /// `None` when (numerically) parallel.
    pub fn line_intersection(&self, other: &HalfPlane) -> Option<Point> {
        let det = self.a * other.b - other.a * self.b;
        if det.abs() <= crate::EPS {
            return None;
        }
        let x = (self.c * other.b - other.c * self.b) / det;
        let y = (self.a * other.c - other.a * self.c) / det;
        Some(Point::new(x, y))
    }

    /// Time `t ≥ 0` at which the ray `origin + t·dir` crosses the
    /// boundary from inside to outside (or meets it), or `None` if the
    /// ray never leaves the half-plane.
    ///
    /// Used by the TPNN machinery: the crossing time of the bisector of
    /// (current NN, candidate) along the client's direction of travel is
    /// the candidate's *influence time*.
    pub fn ray_exit_time(&self, origin: Point, dir: Vec2) -> Option<f64> {
        let d0 = self.signed_dist(origin);
        let v = self.a * dir.x + self.b * dir.y; // rate of change of signed dist
        if v <= crate::EPS {
            // Moving parallel to or deeper into the half-plane.
            return None;
        }
        let t = -d0 / v;
        if t >= 0.0 {
            Some(t)
        } else {
            // Origin already outside and moving further out.
            Some(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn bisector_sides() {
        let o = Point::new(0.0, 0.0);
        let a = Point::new(4.0, 0.0);
        let h = HalfPlane::bisector(o, a);
        assert!(h.contains(o));
        assert!(!h.contains(a));
        // The midpoint is exactly on the boundary.
        assert!(approx_eq(h.signed_dist(o.midpoint(a)), 0.0));
        // Points equidistant stay on the boundary.
        assert!(approx_eq(h.signed_dist(Point::new(2.0, 17.0)), 0.0));
        // Signed distance equals Euclidean distance to the line.
        assert!(approx_eq(h.signed_dist(Point::new(5.0, 3.0)), 3.0));
        assert!(approx_eq(h.signed_dist(Point::new(-1.0, 3.0)), -3.0));
    }

    #[test]
    fn bisector_matches_distance_comparison() {
        // Property sampled deterministically over a grid.
        let keep = Point::new(1.5, -2.0);
        let other = Point::new(-0.5, 3.0);
        let h = HalfPlane::bisector(keep, other);
        for i in -10..=10 {
            for j in -10..=10 {
                let p = Point::new(i as f64 * 0.7, j as f64 * 0.9);
                let closer = p.dist_sq(keep) <= p.dist_sq(other);
                assert_eq!(h.contains_eps(p, 1e-9), closer, "at {p}");
            }
        }
    }

    #[test]
    fn through_normal() {
        let h = HalfPlane::through(Point::new(2.0, 0.0), Vec2::new(1.0, 0.0));
        // Keeps x ≤ 2.
        assert!(h.contains(Point::new(1.9, 100.0)));
        assert!(!h.contains(Point::new(2.1, -100.0)));
        assert!(approx_eq(h.signed_dist(Point::new(2.0, 5.0)), 0.0));
    }

    #[test]
    fn line_intersection_basic() {
        let hx = HalfPlane::through(Point::new(3.0, 0.0), Vec2::new(1.0, 0.0)); // x = 3
        let hy = HalfPlane::through(Point::new(0.0, -1.0), Vec2::new(0.0, 1.0)); // y = -1
        let p = hx.line_intersection(&hy).unwrap();
        assert!(approx_eq(p.x, 3.0) && approx_eq(p.y, -1.0));
        // Parallel lines do not intersect.
        let hx2 = HalfPlane::through(Point::new(5.0, 0.0), Vec2::new(1.0, 0.0));
        assert!(hx.line_intersection(&hx2).is_none());
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn ray_exit_times() {
        let h = HalfPlane::through(Point::new(2.0, 0.0), Vec2::new(1.0, 0.0)); // keep x ≤ 2
        let o = Point::new(0.0, 0.0);
        // Straight at the boundary: exits at t = 2.
        let t = h.ray_exit_time(o, Vec2::new(1.0, 0.0)).unwrap();
        assert!(approx_eq(t, 2.0));
        // At 45°: exits at t = 2√2.
        let d = Vec2::new(1.0, 1.0).normalized().unwrap();
        let t = h.ray_exit_time(o, d).unwrap();
        assert!(approx_eq(t, 2.0 * 2.0f64.sqrt()));
        // Moving away: never exits.
        assert!(h.ray_exit_time(o, Vec2::new(-1.0, 0.0)).is_none());
        // Parallel: never exits.
        assert!(h.ray_exit_time(o, Vec2::new(0.0, 1.0)).is_none());
        // Starting outside: exits immediately.
        let t = h
            .ray_exit_time(Point::new(3.0, 0.0), Vec2::new(1.0, 0.0))
            .unwrap();
        assert_eq!(t, 0.0);
    }

    #[test]
    fn normalization() {
        let h = HalfPlane::new(30.0, 40.0, 100.0);
        assert!(approx_eq(h.a * h.a + h.b * h.b, 1.0));
        assert!(approx_eq(h.a, 0.6));
        assert!(approx_eq(h.b, 0.8));
        assert!(approx_eq(h.c, 2.0));
    }

    #[test]
    #[should_panic]
    fn zero_normal_panics() {
        let _ = HalfPlane::new(0.0, 0.0, 1.0);
    }
}
