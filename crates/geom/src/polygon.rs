//! Convex polygons with half-plane clipping.
//!
//! The nearest-neighbor validity region starts as the data universe (a
//! rectangle) and is clipped by one bisector half-plane per influence
//! object, exactly as in the paper's Fig. 8. [`ConvexPolygon::clip`] is
//! the Sutherland–Hodgman step specialised to a single convex clip
//! half-plane, which keeps the region convex by construction.

use crate::halfplane::HalfPlane;
use crate::point::{orient, Point};
use crate::rect::Rect;

/// A (possibly empty) convex polygon, vertices in counter-clockwise
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvexPolygon {
    vertices: Vec<Point>,
}

impl ConvexPolygon {
    /// Polygon from a CCW vertex list.
    ///
    /// Debug builds assert the full invariant ([`Self::validate`]);
    /// release builds trust the caller (all internal constructors
    /// maintain the invariant).
    pub fn new(vertices: Vec<Point>) -> Self {
        let poly = ConvexPolygon { vertices };
        debug_assert!(
            poly.validate().is_ok(),
            "invalid polygon: {:?}",
            poly.validate()
        );
        poly
    }

    /// Checked constructor: like [`Self::new`] but returns the violated
    /// invariant instead of trusting the caller. This is the entry point
    /// for vertex lists from outside the crate (deserialized wire
    /// payloads, tests corrupting data on purpose).
    pub fn try_new(vertices: Vec<Point>) -> Result<Self, String> {
        let poly = ConvexPolygon { vertices };
        poly.validate()?;
        Ok(poly)
    }

    /// Verifies the full representation invariant, returning a
    /// description of the first violation:
    ///
    /// 1. the vertex count is 0 (the empty polygon) or ≥ 3;
    /// 2. no two cyclically adjacent vertices coincide (within
    ///    [`crate::EPS`]);
    /// 3. the ring is convex and counter-clockwise
    ///    ([`Self::is_convex_ccw`]).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.vertices.len();
        if n == 0 {
            return Ok(());
        }
        if n < 3 {
            return Err(format!("degenerate polygon with {n} vertices"));
        }
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            if a.dist_sq(b) <= crate::EPS * crate::EPS {
                return Err(format!(
                    "duplicate adjacent vertices {i} and {}: {a}",
                    (i + 1) % n
                ));
            }
        }
        if !self.is_convex_ccw() {
            return Err("vertex ring is not convex counter-clockwise".to_string());
        }
        Ok(())
    }

    /// The empty polygon.
    pub fn empty() -> Self {
        ConvexPolygon {
            vertices: Vec::new(),
        }
    }

    /// Clones `other`'s vertices into `self`, reusing the allocation
    /// (`Clone::clone_from` with scratch-friendly intent made explicit).
    pub fn assign(&mut self, other: &ConvexPolygon) {
        self.vertices.clear();
        self.vertices.extend_from_slice(&other.vertices);
    }

    /// The polygon covering a rectangle.
    pub fn from_rect(r: &Rect) -> Self {
        ConvexPolygon {
            vertices: r.corners().to_vec(),
        }
    }

    /// Resets this polygon in place to cover a rectangle, reusing the
    /// vertex allocation. The in-place counterpart of
    /// [`ConvexPolygon::from_rect`] for scratch-hosted polygons that are
    /// rebuilt every query.
    pub fn assign_rect(&mut self, r: &Rect) {
        self.vertices.clear();
        self.vertices.extend_from_slice(&r.corners());
    }

    /// Vertices in CCW order.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices (= number of edges for a non-degenerate
    /// polygon).
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// `true` when the polygon has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Signed area via the shoelace formula (non-negative for CCW
    /// polygons).
    pub fn area(&self) -> f64 {
        if self.vertices.len() < 3 {
            return 0.0;
        }
        let mut twice = 0.0;
        for i in 0..self.vertices.len() {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % self.vertices.len()];
            twice += a.x * b.y - b.x * a.y;
        }
        twice * 0.5
    }

    /// The arithmetic-mean centroid of the vertices (inside the polygon
    /// by convexity; sufficient for seeding searches, *not* the area
    /// centroid).
    pub fn vertex_centroid(&self) -> Option<Point> {
        if self.vertices.is_empty() {
            return None;
        }
        let n = self.vertices.len() as f64;
        let (sx, sy) = self
            .vertices
            .iter()
            .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
        Some(Point::new(sx / n, sy / n))
    }

    /// Closed point-containment test with tolerance `eps`.
    ///
    /// This is the *client-side validity check* of the paper: the mobile
    /// client verifies its new position is still inside every bisector
    /// half-plane. Cost is O(edges) — around 6 on average (Fig. 24).
    pub fn contains_eps(&self, p: Point, eps: f64) -> bool {
        if self.vertices.len() < 3 {
            return false;
        }
        for i in 0..self.vertices.len() {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % self.vertices.len()];
            // Left-of-edge test; signed area of (a,b,p) scaled by |ab|.
            let o = orient(a, b, p);
            let len = a.dist(b);
            if o < -eps * len.max(1.0) {
                return false;
            }
        }
        true
    }

    /// Closed containment with the library-default tolerance.
    pub fn contains(&self, p: Point) -> bool {
        self.contains_eps(p, crate::EPS)
    }

    /// Clips the polygon by a half-plane, returning the (possibly empty)
    /// intersection.
    ///
    /// Single-clip Sutherland–Hodgman: walk the boundary, keep inside
    /// vertices, and insert the boundary crossing on each inside/outside
    /// transition. Runs in O(n) and preserves convexity and CCW order.
    pub fn clip(&self, h: &HalfPlane) -> ConvexPolygon {
        if self.vertices.is_empty() {
            return ConvexPolygon::empty();
        }
        let mut out: Vec<Point> = Vec::with_capacity(self.vertices.len() + 1);
        clip_ring(&self.vertices, h, &mut out);
        dedup_ring(&mut out);
        // Degenerate slivers (all vertices collinear within EPS) are
        // reported as empty so callers can stop refining them.
        let poly = ConvexPolygon { vertices: out };
        if poly.vertices.len() < 3 || poly.area() <= crate::EPS * crate::EPS {
            return ConvexPolygon::empty();
        }
        debug_assert!(
            poly.validate().is_ok(),
            "clip broke the polygon invariant: {:?}",
            poly.validate()
        );
        poly
    }

    /// [`ConvexPolygon::clip`], mutating `self` and staging the new ring
    /// in `buf` (capacity retained across calls): repeated clipping —
    /// e.g. the validity-region construction — runs with zero
    /// steady-state allocations.
    pub fn clip_in_place(&mut self, h: &HalfPlane, buf: &mut Vec<Point>) {
        buf.clear();
        if self.vertices.is_empty() {
            return;
        }
        clip_ring(&self.vertices, h, buf);
        dedup_ring(buf);
        std::mem::swap(&mut self.vertices, buf);
        if self.vertices.len() < 3 || self.area() <= crate::EPS * crate::EPS {
            self.vertices.clear();
            return;
        }
        debug_assert!(
            self.validate().is_ok(),
            "clip broke the polygon invariant: {:?}",
            self.validate()
        );
    }

    /// Clips by every half-plane in `hs` in sequence.
    pub fn clip_all<'a>(&self, hs: impl IntoIterator<Item = &'a HalfPlane>) -> ConvexPolygon {
        let mut poly = self.clone();
        for h in hs {
            if poly.is_empty() {
                break;
            }
            poly = poly.clip(h);
        }
        poly
    }

    /// Axis-aligned bounding rectangle, or `None` when empty.
    pub fn bounding_rect(&self) -> Option<Rect> {
        Rect::bounding(&self.vertices)
    }

    /// Checks the CCW-convexity invariant (used by debug assertions and
    /// tests). Collinear triples are tolerated.
    pub fn is_convex_ccw(&self) -> bool {
        let n = self.vertices.len();
        if n < 3 {
            return true;
        }
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            let c = self.vertices[(i + 2) % n];
            let scale = a.dist(b).max(b.dist(c)).max(1.0);
            if orient(a, b, c) < -crate::EPS * scale * scale {
                return false;
            }
        }
        true
    }
}

impl Default for ConvexPolygon {
    /// The empty polygon — lets scratch structs hosting a polygon derive
    /// `Default`.
    fn default() -> Self {
        Self::empty()
    }
}

/// Removes consecutive (cyclically) duplicate points from a vertex ring.
/// Single-clip Sutherland–Hodgman over a vertex ring: keeps inside
/// vertices and inserts the boundary crossing on each inside/outside
/// transition, appending the new ring to `out`.
fn clip_ring(ring: &[Point], h: &HalfPlane, out: &mut Vec<Point>) {
    let n = ring.len();
    for i in 0..n {
        let cur = ring[i];
        let nxt = ring[(i + 1) % n];
        let dc = h.signed_dist(cur);
        let dn = h.signed_dist(nxt);
        if dc <= 0.0 {
            out.push(cur);
        }
        // Strict sign change → one crossing point on the open edge.
        if (dc < 0.0 && dn > 0.0) || (dc > 0.0 && dn < 0.0) {
            let t = dc / (dc - dn);
            out.push(cur.lerp(nxt, t));
        }
    }
}

fn dedup_ring(v: &mut Vec<Point>) {
    v.dedup_by(|a, b| a.dist_sq(*b) <= crate::EPS * crate::EPS);
    while v.len() >= 2 {
        let first = v[0];
        #[expect(clippy::expect_used, reason = "the loop guard keeps len ≥ 2")]
        let last = *v.last().expect("len >= 2");
        if first.dist_sq(last) <= crate::EPS * crate::EPS {
            v.pop();
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::point::Vec2;

    fn unit_square() -> ConvexPolygon {
        ConvexPolygon::from_rect(&Rect::new(0.0, 0.0, 1.0, 1.0))
    }

    #[test]
    fn assign_reuses_allocation() {
        let mut p = ConvexPolygon::default();
        assert!(p.is_empty());
        p.assign_rect(&Rect::new(1.0, 1.0, 4.0, 3.0));
        assert_eq!(p, ConvexPolygon::from_rect(&Rect::new(1.0, 1.0, 4.0, 3.0)));
        let cap = p.vertices.capacity();
        p.assign_rect(&Rect::new(0.0, 0.0, 1.0, 1.0));
        assert_eq!(p, unit_square());
        assert_eq!(p.vertices.capacity(), cap, "re-assign must not reallocate");
        let mut q = ConvexPolygon::empty();
        q.assign(&p);
        assert_eq!(q, p);
    }

    #[test]
    fn area_of_rect_polygon() {
        let p = ConvexPolygon::from_rect(&Rect::new(1.0, 1.0, 4.0, 3.0));
        assert!(approx_eq(p.area(), 6.0));
        assert_eq!(p.len(), 4);
        assert!(p.is_convex_ccw());
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn empty_polygon() {
        let e = ConvexPolygon::empty();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        assert!(!e.contains(Point::new(0.0, 0.0)));
        assert!(e.bounding_rect().is_none());
        assert!(e.vertex_centroid().is_none());
        // Clipping the empty polygon stays empty.
        let h = HalfPlane::new(1.0, 0.0, 0.5);
        assert!(e.clip(&h).is_empty());
    }

    #[test]
    fn clip_keeps_half() {
        let sq = unit_square();
        // Keep x ≤ 0.5.
        let h = HalfPlane::through(Point::new(0.5, 0.0), Vec2::new(1.0, 0.0));
        let c = sq.clip(&h);
        assert!(approx_eq(c.area(), 0.5));
        assert!(c.contains(Point::new(0.25, 0.5)));
        assert!(!c.contains(Point::new(0.75, 0.5)));
        assert!(c.is_convex_ccw());
    }

    #[test]
    fn clip_diagonal_triangle() {
        let sq = unit_square();
        // Keep x + y ≤ 1 → lower-left triangle of area 1/2.
        let h = HalfPlane::new(1.0, 1.0, 1.0);
        let c = sq.clip(&h);
        assert!(approx_eq(c.area(), 0.5));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn clip_no_effect_when_containing() {
        let sq = unit_square();
        let h = HalfPlane::through(Point::new(5.0, 0.0), Vec2::new(1.0, 0.0));
        let c = sq.clip(&h);
        assert!(approx_eq(c.area(), 1.0));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn clip_to_empty() {
        let sq = unit_square();
        let h = HalfPlane::through(Point::new(-1.0, 0.0), Vec2::new(1.0, 0.0)); // keep x ≤ −1
        assert!(sq.clip(&h).is_empty());
    }

    #[test]
    fn clip_all_bisectors_gives_voronoi_cell() {
        // Universe [0,10]²; sites: o at center plus 4 axis neighbors.
        // The Voronoi cell of o is the square (2.5,2.5)-(7.5,7.5).
        let o = Point::new(5.0, 5.0);
        let others = [
            Point::new(0.0, 5.0),
            Point::new(10.0, 5.0),
            Point::new(5.0, 0.0),
            Point::new(5.0, 10.0),
        ];
        let hs: Vec<HalfPlane> = others.iter().map(|&a| HalfPlane::bisector(o, a)).collect();
        let cell = ConvexPolygon::from_rect(&Rect::new(0.0, 0.0, 10.0, 10.0)).clip_all(hs.iter());
        assert!(approx_eq(cell.area(), 25.0));
        let br = cell.bounding_rect().unwrap();
        assert!(approx_eq(br.xmin, 2.5) && approx_eq(br.xmax, 7.5));
        assert!(approx_eq(br.ymin, 2.5) && approx_eq(br.ymax, 7.5));
    }

    #[test]
    fn clip_monotone_area() {
        // Clipping never increases area; sequence of random-ish planes.
        let mut poly = unit_square();
        let planes = [
            HalfPlane::new(1.0, 0.3, 0.9),
            HalfPlane::new(-0.5, 1.0, 0.7),
            HalfPlane::new(0.2, -1.0, -0.1),
            HalfPlane::new(1.0, 1.0, 1.2),
        ];
        let mut prev = poly.area();
        for h in &planes {
            poly = poly.clip(h);
            let a = poly.area();
            assert!(a <= prev + 1e-12, "area grew: {prev} -> {a}");
            assert!(poly.is_convex_ccw());
            prev = a;
        }
    }

    #[test]
    fn contains_boundary() {
        let sq = unit_square();
        assert!(sq.contains(Point::new(0.0, 0.0)));
        assert!(sq.contains(Point::new(1.0, 0.5)));
        assert!(!sq.contains(Point::new(1.0 + 1e-6, 0.5)));
    }

    #[test]
    fn vertex_centroid_inside() {
        let sq = unit_square();
        let c = sq.vertex_centroid().unwrap();
        assert!(sq.contains(c));
        assert!(approx_eq(c.x, 0.5) && approx_eq(c.y, 0.5));
    }

    #[test]
    fn try_new_rejects_corrupt_vertex_lists() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let c = Point::new(0.0, 1.0);
        let d = Point::new(1.0, 1.0);
        // Clockwise ring (reversed) is rejected.
        assert!(ConvexPolygon::try_new(vec![c, b, a]).is_err());
        // Duplicate adjacent vertex is rejected.
        assert!(ConvexPolygon::try_new(vec![a, a, b, c]).is_err());
        // Too few vertices.
        assert!(ConvexPolygon::try_new(vec![a, b]).is_err());
        // Non-convex (bowtie) ring is rejected.
        assert!(ConvexPolygon::try_new(vec![a, d, b, c]).is_err());
        // Valid CCW rings (and the empty polygon) pass.
        assert!(ConvexPolygon::try_new(vec![a, b, c]).is_ok());
        assert!(ConvexPolygon::try_new(vec![a, b, d, c]).is_ok());
        assert!(ConvexPolygon::try_new(Vec::new()).is_ok());
    }

    #[test]
    fn validate_agrees_with_constructors() {
        assert!(unit_square().validate().is_ok());
        assert!(ConvexPolygon::empty().validate().is_ok());
        let clipped = unit_square().clip(&HalfPlane::new(1.0, 1.0, 1.0));
        assert!(clipped.validate().is_ok());
    }

    #[test]
    fn dedup_ring_removes_cyclic_dupes() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(1.0, 0.0);
        let r = Point::new(0.0, 1.0);
        let mut ring = vec![p, p, q, q, r, p];
        dedup_ring(&mut ring);
        assert_eq!(ring, vec![p, q, r]);
    }
}
