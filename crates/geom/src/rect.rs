//! Axis-aligned rectangles.
//!
//! Rectangles serve three distinct roles in the workspace and this type
//! covers all of them:
//!
//! * **MBRs** of R-tree entries (`lbq-rtree`);
//! * **query windows**, described by a center (the mobile client's
//!   location) and half-extents;
//! * **Minkowski regions** of window queries: the set of client positions
//!   at which a given data point lies inside the (translating) window —
//!   a rectangle of the window's dimensions centered at the point.

use crate::point::{Point, Vec2};

/// A closed axis-aligned rectangle `[xmin, xmax] × [ymin, ymax]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub xmin: f64,
    /// Bottom edge.
    pub ymin: f64,
    /// Right edge.
    pub xmax: f64,
    /// Top edge.
    pub ymax: f64,
}

impl Rect {
    /// Creates a rectangle from its extrema. Panics (debug only) if the
    /// bounds are inverted.
    #[inline]
    pub fn new(xmin: f64, ymin: f64, xmax: f64, ymax: f64) -> Self {
        debug_assert!(xmin <= xmax && ymin <= ymax, "inverted rect bounds");
        Rect {
            xmin,
            ymin,
            xmax,
            ymax,
        }
    }

    /// The degenerate rectangle containing exactly `p`.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect::new(p.x, p.y, p.x, p.y)
    }

    /// Rectangle from two opposite corners given in any order.
    #[inline]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect::new(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))
    }

    /// Rectangle with center `c` and *half*-extents `hx`, `hy`.
    ///
    /// This is the natural constructor for query windows ("the client at
    /// `c` sees a `2hx × 2hy` window") and for Minkowski regions.
    #[inline]
    pub fn centered(c: Point, hx: f64, hy: f64) -> Self {
        debug_assert!(hx >= 0.0 && hy >= 0.0);
        Rect::new(c.x - hx, c.y - hy, c.x + hx, c.y + hy)
    }

    /// The smallest rectangle enclosing all points of a non-empty slice.
    /// Returns `None` for an empty slice.
    pub fn bounding(points: &[Point]) -> Option<Self> {
        let first = *points.first()?;
        let mut r = Rect::from_point(first);
        for &p in &points[1..] {
            r.expand_to(p);
        }
        Some(r)
    }

    /// Width along the x-axis.
    #[inline]
    pub fn width(&self) -> f64 {
        self.xmax - self.xmin
    }

    /// Height along the y-axis.
    #[inline]
    pub fn height(&self) -> f64 {
        self.ymax - self.ymin
    }

    /// Area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Perimeter (the R*-tree split heuristic minimizes this "margin").
    #[inline]
    pub fn margin(&self) -> f64 {
        2.0 * (self.width() + self.height())
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.xmin + self.xmax) * 0.5, (self.ymin + self.ymax) * 0.5)
    }

    /// The four corners in counter-clockwise order starting at
    /// `(xmin, ymin)`.
    #[inline]
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.xmin, self.ymin),
            Point::new(self.xmax, self.ymin),
            Point::new(self.xmax, self.ymax),
            Point::new(self.xmin, self.ymax),
        ]
    }

    /// Closed containment test for a point.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.xmin && p.x <= self.xmax && p.y >= self.ymin && p.y <= self.ymax
    }

    /// Containment with a symmetric tolerance band of width `eps`.
    #[inline]
    pub fn contains_eps(&self, p: Point, eps: f64) -> bool {
        p.x >= self.xmin - eps
            && p.x <= self.xmax + eps
            && p.y >= self.ymin - eps
            && p.y <= self.ymax + eps
    }

    /// `true` iff `other` lies entirely inside `self` (closed).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.xmin >= self.xmin
            && other.xmax <= self.xmax
            && other.ymin >= self.ymin
            && other.ymax <= self.ymax
    }

    /// Closed intersection test (touching rectangles intersect).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.xmin <= other.xmax
            && other.xmin <= self.xmax
            && self.ymin <= other.ymax
            && other.ymin <= self.ymax
    }

    /// The intersection rectangle, or `None` when disjoint.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let xmin = self.xmin.max(other.xmin);
        let ymin = self.ymin.max(other.ymin);
        let xmax = self.xmax.min(other.xmax);
        let ymax = self.ymax.min(other.ymax);
        if xmin <= xmax && ymin <= ymax {
            Some(Rect::new(xmin, ymin, xmax, ymax))
        } else {
            None
        }
    }

    /// Area of `self ∩ other` (zero when disjoint).
    #[inline]
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        self.intersection(other).map_or(0.0, |r| r.area())
    }

    /// The smallest rectangle containing both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect::new(
            self.xmin.min(other.xmin),
            self.ymin.min(other.ymin),
            self.xmax.max(other.xmax),
            self.ymax.max(other.ymax),
        )
    }

    /// Grows `self` in place to cover `p`.
    #[inline]
    pub fn expand_to(&mut self, p: Point) {
        self.xmin = self.xmin.min(p.x);
        self.ymin = self.ymin.min(p.y);
        self.xmax = self.xmax.max(p.x);
        self.ymax = self.ymax.max(p.y);
    }

    /// Grows `self` in place to cover `other`.
    #[inline]
    pub fn expand_to_rect(&mut self, other: &Rect) {
        self.xmin = self.xmin.min(other.xmin);
        self.ymin = self.ymin.min(other.ymin);
        self.xmax = self.xmax.max(other.xmax);
        self.ymax = self.ymax.max(other.ymax);
    }

    /// The rectangle inflated by `dx` on each x-side and `dy` on each
    /// y-side (negative values shrink; the result is clamped to be valid,
    /// collapsing to the center line when over-shrunk).
    #[inline]
    pub fn inflate(&self, dx: f64, dy: f64) -> Rect {
        let mut xmin = self.xmin - dx;
        let mut xmax = self.xmax + dx;
        let mut ymin = self.ymin - dy;
        let mut ymax = self.ymax + dy;
        if xmin > xmax {
            let m = (xmin + xmax) * 0.5;
            xmin = m;
            xmax = m;
        }
        if ymin > ymax {
            let m = (ymin + ymax) * 0.5;
            ymin = m;
            ymax = m;
        }
        Rect::new(xmin, ymin, xmax, ymax)
    }

    /// The rectangle inflated by possibly asymmetric amounts per side.
    ///
    /// Used for the *extended window* `q'` of the paper's Section 4: the
    /// original window grown by the inner-validity extents
    /// `dist_x−, dist_x+, dist_y−, dist_y+` in each direction.
    #[inline]
    pub fn extend(&self, left: f64, right: f64, down: f64, up: f64) -> Rect {
        Rect::new(
            self.xmin - left,
            self.ymin - down,
            self.xmax + right,
            self.ymax + up,
        )
    }

    /// Minimum distance from `p` to this rectangle (0 when inside).
    ///
    /// This is the `mindist` metric of the classic branch-and-bound
    /// nearest-neighbor search `[RKV95]`.
    #[inline]
    pub fn mindist(&self, p: Point) -> f64 {
        self.mindist_sq(p).sqrt()
    }

    /// Squared `mindist` — cheaper, and what the R-tree search actually
    /// compares.
    #[inline]
    pub fn mindist_sq(&self, p: Point) -> f64 {
        let dx = (self.xmin - p.x).max(0.0).max(p.x - self.xmax);
        let dy = (self.ymin - p.y).max(0.0).max(p.y - self.ymax);
        dx * dx + dy * dy
    }

    /// Squared minimum distance between this rectangle and `other`
    /// (zero when they intersect).
    ///
    /// Admissible group bound: for every `q ∈ other`,
    /// `self.mindist_sq_rect(other) ≤ self.mindist_sq(q)` — the
    /// shared-frontier group kNN of `lbq-rtree` prunes whole subtrees
    /// against a tile of query points with one evaluation.
    #[inline]
    pub fn mindist_sq_rect(&self, other: &Rect) -> f64 {
        let dx = (self.xmin - other.xmax)
            .max(0.0)
            .max(other.xmin - self.xmax);
        let dy = (self.ymin - other.ymax)
            .max(0.0)
            .max(other.ymin - self.ymax);
        dx * dx + dy * dy
    }

    /// Maximum distance from `p` to any point of the rectangle.
    #[inline]
    pub fn maxdist(&self, p: Point) -> f64 {
        self.maxdist_sq(p).sqrt()
    }

    /// Squared maximum distance.
    #[inline]
    pub fn maxdist_sq(&self, p: Point) -> f64 {
        let dx = (p.x - self.xmin).abs().max((p.x - self.xmax).abs());
        let dy = (p.y - self.ymin).abs().max((p.y - self.ymax).abs());
        dx * dx + dy * dy
    }

    /// The point of the rectangle closest to `p` (i.e. `p` clamped).
    #[inline]
    pub fn clamp_point(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.xmin, self.xmax),
            p.y.clamp(self.ymin, self.ymax),
        )
    }

    /// Translates the rectangle by `v`.
    #[inline]
    pub fn translate(&self, v: Vec2) -> Rect {
        Rect::new(
            self.xmin + v.x,
            self.ymin + v.y,
            self.xmax + v.x,
            self.ymax + v.y,
        )
    }

    /// The **Minkowski region** of a data point `p` with respect to a
    /// window of half-extents `(hx, hy)` centered at the client: the set
    /// of client positions for which `p` falls inside the window.
    #[inline]
    pub fn minkowski_of(p: Point, hx: f64, hy: f64) -> Rect {
        Rect::centered(p, hx, hy)
    }

    /// `true` when the rectangle has (numerically) zero area.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.width() <= crate::EPS || self.height() <= crate::EPS
    }

    /// Parameter interval `[t_in, t_out]` for which the line
    /// `origin + t·dir` lies inside the rectangle (slab method), or
    /// `None` when the line misses it. The interval is not clamped to
    /// `t ≥ 0`; callers decide ray semantics.
    ///
    /// Used by the time-parameterized *window* queries: the moving
    /// client enters the Minkowski region of a point at `t_in` and
    /// leaves it at `t_out`.
    pub fn ray_interval(&self, origin: Point, dir: Vec2) -> Option<(f64, f64)> {
        let mut t_in = f64::NEG_INFINITY;
        let mut t_out = f64::INFINITY;
        for (o, d, lo, hi) in [
            (origin.x, dir.x, self.xmin, self.xmax),
            (origin.y, dir.y, self.ymin, self.ymax),
        ] {
            if d.abs() <= 1e-300 {
                if o < lo || o > hi {
                    return None; // parallel outside the slab
                }
                continue;
            }
            let (a, b) = ((lo - o) / d, (hi - o) / d);
            let (a, b) = if a <= b { (a, b) } else { (b, a) };
            t_in = t_in.max(a);
            t_out = t_out.min(b);
            if t_in > t_out {
                return None;
            }
        }
        Some((t_in, t_out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn unit() -> Rect {
        Rect::new(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn basic_measures() {
        let r = Rect::new(1.0, 2.0, 4.0, 6.0);
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.margin(), 14.0);
        assert_eq!(r.center(), Point::new(2.5, 4.0));
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn centered_roundtrip() {
        let c = Point::new(3.0, -1.0);
        let r = Rect::centered(c, 2.0, 0.5);
        assert_eq!(r.center(), c);
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 1.0);
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn containment_and_intersection() {
        let r = unit();
        assert!(r.contains(Point::new(0.5, 0.5)));
        assert!(r.contains(Point::new(0.0, 1.0))); // closed boundary
        assert!(!r.contains(Point::new(1.0 + 1e-12, 0.5)));

        let s = Rect::new(0.5, 0.5, 2.0, 2.0);
        assert!(r.intersects(&s));
        let i = r.intersection(&s).unwrap();
        assert_eq!(i, Rect::new(0.5, 0.5, 1.0, 1.0));
        assert_eq!(r.overlap_area(&s), 0.25);

        let far = Rect::new(5.0, 5.0, 6.0, 6.0);
        assert!(!r.intersects(&far));
        assert!(r.intersection(&far).is_none());
        assert_eq!(r.overlap_area(&far), 0.0);

        // Touching counts as intersecting (closed rectangles).
        let touch = Rect::new(1.0, 0.0, 2.0, 1.0);
        assert!(r.intersects(&touch));
        assert_eq!(r.overlap_area(&touch), 0.0);
    }

    #[test]
    fn union_expand() {
        let mut r = Rect::from_point(Point::new(1.0, 1.0));
        r.expand_to(Point::new(-1.0, 3.0));
        assert_eq!(r, Rect::new(-1.0, 1.0, 1.0, 3.0));
        let u = r.union(&unit());
        assert_eq!(u, Rect::new(-1.0, 0.0, 1.0, 3.0));
        assert!(u.contains_rect(&r));
        assert!(u.contains_rect(&unit()));
    }

    #[test]
    fn bounding_points() {
        assert!(Rect::bounding(&[]).is_none());
        let pts = [
            Point::new(0.0, 5.0),
            Point::new(2.0, -1.0),
            Point::new(1.0, 1.0),
        ];
        let r = Rect::bounding(&pts).unwrap();
        assert_eq!(r, Rect::new(0.0, -1.0, 2.0, 5.0));
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn mindist_maxdist() {
        let r = unit();
        // Inside → 0.
        assert_eq!(r.mindist(Point::new(0.5, 0.5)), 0.0);
        // Left of the rect → horizontal gap.
        assert!(approx_eq(r.mindist(Point::new(-2.0, 0.5)), 2.0));
        // Diagonal corner.
        assert!(approx_eq(r.mindist(Point::new(-3.0, -4.0)), 5.0));
        // maxdist from the center is half the diagonal.
        assert!(approx_eq(
            r.maxdist(Point::new(0.5, 0.5)),
            (0.5f64 * 0.5 * 2.0).sqrt()
        ));
        // maxdist ≥ mindist always.
        assert!(r.maxdist(Point::new(-3.0, -4.0)) >= r.mindist(Point::new(-3.0, -4.0)));
    }

    #[test]
    fn clamp() {
        let r = unit();
        assert_eq!(r.clamp_point(Point::new(2.0, -1.0)), Point::new(1.0, 0.0));
        assert_eq!(r.clamp_point(Point::new(0.3, 0.7)), Point::new(0.3, 0.7));
    }

    #[test]
    fn inflate_and_extend() {
        let r = unit();
        assert_eq!(r.inflate(1.0, 2.0), Rect::new(-1.0, -2.0, 2.0, 3.0));
        // Over-shrinking collapses to the center, never inverts.
        let collapsed = r.inflate(-5.0, -5.0);
        // Collapse produces an exact 0.0
        assert!(collapsed.width() == 0.0 && collapsed.height() == 0.0);
        assert_eq!(collapsed.center(), r.center());

        let e = r.extend(0.1, 0.2, 0.3, 0.4);
        assert_eq!(e, Rect::new(-0.1, -0.3, 1.2, 1.4));
    }

    #[test]
    fn minkowski_region_semantics() {
        // Client at c with window half-extents (hx, hy) sees p
        // ⟺ c ∈ minkowski_of(p, hx, hy).
        let p = Point::new(4.0, 4.0);
        let (hx, hy) = (1.0, 2.0);
        let m = Rect::minkowski_of(p, hx, hy);
        for &(cx, cy, inside) in &[
            (4.0, 4.0, true),
            (4.9, 5.9, true),
            (5.1, 4.0, false),
            (4.0, 6.1, false),
        ] {
            let c = Point::new(cx, cy);
            let window = Rect::centered(c, hx, hy);
            assert_eq!(window.contains(p), inside, "client at {c}");
            assert_eq!(m.contains(c), inside, "minkowski at {c}");
        }
    }

    #[test]
    fn ray_interval_cases() {
        let r = Rect::new(2.0, 0.0, 4.0, 1.0);
        // Straight through along x.
        let (a, b) = r
            .ray_interval(Point::new(0.0, 0.5), Vec2::new(1.0, 0.0))
            .unwrap();
        assert!(approx_eq(a, 2.0) && approx_eq(b, 4.0));
        // Backwards parameterization still reported (negative t).
        let (a, b) = r
            .ray_interval(Point::new(5.0, 0.5), Vec2::new(1.0, 0.0))
            .unwrap();
        assert!(approx_eq(a, -3.0) && approx_eq(b, -1.0));
        // Miss.
        assert!(r
            .ray_interval(Point::new(0.0, 5.0), Vec2::new(1.0, 0.0))
            .is_none());
        // Parallel inside the slab, crossing the other axis.
        let (a, b) = r
            .ray_interval(Point::new(3.0, -2.0), Vec2::new(0.0, 1.0))
            .unwrap();
        assert!(approx_eq(a, 2.0) && approx_eq(b, 3.0));
        // Diagonal.
        let d = Vec2::new(1.0, 0.25).normalized().unwrap();
        let (a, b) = r.ray_interval(Point::new(0.0, 0.0), d).unwrap();
        assert!(a < b && a > 0.0);
        // Entry/exit points really are on the boundary.
        let pin = Point::new(0.0, 0.0) + d * a;
        let pout = Point::new(0.0, 0.0) + d * b;
        assert!(r.contains_eps(pin, 1e-9) && r.contains_eps(pout, 1e-9));
    }

    #[test]
    fn corners_ccw() {
        let r = Rect::new(0.0, 0.0, 2.0, 1.0);
        let c = r.corners();
        // Shoelace of corners must be positive (CCW) and equal the area.
        let mut twice_area = 0.0;
        for i in 0..4 {
            let a = c[i];
            let b = c[(i + 1) % 4];
            twice_area += a.x * b.y - b.x * a.y;
        }
        assert!(approx_eq(twice_area * 0.5, r.area()));
    }
}
