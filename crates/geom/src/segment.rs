//! Line segments — used by the synthetic "street network" dataset
//! generator (GR-like data places points at segment centroids) and by
//! geometric tests.

use crate::point::{Point, Vec2};

/// A directed line segment from `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment between two endpoints.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length of the segment.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// Midpoint (the "centroid" of a street segment, which is what the
    /// GR dataset of the paper stores).
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(self.b)
    }

    /// The point at parameter `t ∈ [0, 1]` along the segment.
    #[inline]
    pub fn at(&self, t: f64) -> Point {
        self.a.lerp(self.b, t)
    }

    /// Direction vector (not normalized).
    #[inline]
    pub fn dir(&self) -> Vec2 {
        self.a.to(self.b)
    }

    /// Distance from `p` to the closest point of the segment.
    pub fn dist_to_point(&self, p: Point) -> f64 {
        let d = self.dir();
        let len_sq = d.norm_sq();
        if len_sq <= crate::EPS * crate::EPS {
            return self.a.dist(p);
        }
        let t = (self.a.to(p).dot(d) / len_sq).clamp(0.0, 1.0);
        self.at(t).dist(p)
    }

    /// Splits the segment into `n` equal pieces and returns their
    /// midpoints (`n ≥ 1`).
    pub fn piece_midpoints(&self, n: usize) -> Vec<Point> {
        assert!(n >= 1, "need at least one piece");
        (0..n)
            .map(|i| self.at((i as f64 + 0.5) / n as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn length_midpoint() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(3.0, 4.0));
        assert_eq!(s.length(), 5.0);
        assert_eq!(s.midpoint(), Point::new(1.5, 2.0));
        assert_eq!(s.at(0.0), s.a);
        assert_eq!(s.at(1.0), s.b);
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn point_distance() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        // Above the middle: perpendicular distance.
        assert!(approx_eq(s.dist_to_point(Point::new(5.0, 3.0)), 3.0));
        // Beyond an endpoint: distance to the endpoint.
        assert!(approx_eq(s.dist_to_point(Point::new(13.0, 4.0)), 5.0));
        // On the segment: zero.
        assert_eq!(s.dist_to_point(Point::new(7.0, 0.0)), 0.0);
        // Degenerate segment behaves like a point.
        let d = Segment::new(Point::new(1.0, 1.0), Point::new(1.0, 1.0));
        assert!(approx_eq(d.dist_to_point(Point::new(4.0, 5.0)), 5.0));
    }

    #[test]
    fn piece_midpoints_cover_evenly() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
        let mids = s.piece_midpoints(4);
        assert_eq!(mids.len(), 4);
        assert!(approx_eq(mids[0].x, 0.5));
        assert!(approx_eq(mids[3].x, 3.5));
        // All midpoints are on the segment.
        for m in mids {
            assert!(approx_eq(s.dist_to_point(m), 0.0));
        }
    }
}
