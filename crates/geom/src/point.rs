//! Points and vectors in the plane.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point in the plane.
///
/// `Point` and [`Vec2`] are distinct types on purpose: a validity-region
/// computation mixes absolute positions (data points, query focus) with
/// displacements (query movement direction, bisector normals) and keeping
/// them apart catches a class of sign errors at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// A displacement / direction vector in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Squared Euclidean distance to `other`.
    ///
    /// Prefer this over [`Point::dist`] inside comparisons: it avoids the
    /// square root and is exact for exactly-representable inputs.
    #[inline]
    pub fn dist_sq(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Vector from `self` to `other` (i.e. `other - self`).
    #[inline]
    pub fn to(&self, other: Point) -> Vec2 {
        Vec2::new(other.x - self.x, other.y - self.y)
    }

    /// The midpoint of `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: Point) -> Point {
        Point::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(&self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Both coordinates are finite (not NaN / ±∞).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Vec2 {
    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Unit vector at angle `theta` radians from the positive x-axis.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Vec2::new(theta.cos(), theta.sin())
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2D cross product (z-component of the 3D cross product).
    ///
    /// Positive when `other` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(&self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Squared length.
    #[inline]
    pub fn norm_sq(&self) -> f64 {
        self.dot(*self)
    }

    /// Length.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Returns the vector scaled to unit length, or `None` if its length
    /// is below `crate::EPS` (direction undefined).
    #[inline]
    pub fn normalized(&self) -> Option<Vec2> {
        let n = self.norm();
        if n <= crate::EPS {
            None
        } else {
            Some(Vec2::new(self.x / n, self.y / n))
        }
    }

    /// Perpendicular vector, rotated +90° (counter-clockwise).
    #[inline]
    pub fn perp(&self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Angle in radians from the positive x-axis, in `(-π, π]`.
    #[inline]
    pub fn angle(&self) -> f64 {
        self.y.atan2(self.x)
    }
}

/// Orientation of the ordered triple `(a, b, c)`.
///
/// Returns a positive value when the triple turns counter-clockwise,
/// negative when clockwise, and (approximately) zero when collinear.
#[inline]
pub fn orient(a: Point, b: Point, c: Point) -> f64 {
    a.to(b).cross(a.to(c))
}

impl Add<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn add(self, v: Vec2) -> Point {
        Point::new(self.x + v.x, self.y + v.y)
    }
}

impl AddAssign<Vec2> for Point {
    #[inline]
    fn add_assign(&mut self, v: Vec2) {
        self.x += v.x;
        self.y += v.y;
    }
}

impl Sub<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, v: Vec2) -> Point {
        Point::new(self.x - v.x, self.y - v.y)
    }
}

impl Sub<Point> for Point {
    type Output = Vec2;
    #[inline]
    fn sub(self, p: Point) -> Vec2 {
        Vec2::new(self.x - p.x, self.y - p.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, v: Vec2) -> Vec2 {
        Vec2::new(self.x + v.x, self.y + v.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, v: Vec2) -> Vec2 {
        Vec2::new(self.x - v.x, self.y - v.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, v: Vec2) {
        self.x -= v.x;
        self.y -= v.y;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, s: f64) -> Vec2 {
        Vec2::new(self.x / s, self.y / s)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.x, self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.6}, {:.6}>", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn distances() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist_sq(b), 25.0);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(b.dist(a), 5.0);
        assert_eq!(a.dist(a), 0.0);
    }

    #[test]
    fn midpoint_and_lerp() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, 6.0);
        assert_eq!(a.midpoint(b), Point::new(2.0, 4.0));
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), a.midpoint(b));
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn vector_algebra() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.dot(Vec2::new(1.0, 0.0)), 3.0);
        assert_eq!(v.cross(Vec2::new(1.0, 0.0)), -4.0);
        assert_eq!(v.perp(), Vec2::new(-4.0, 3.0));
        assert!(approx_eq(v.perp().dot(v), 0.0));
        let u = v.normalized().unwrap();
        assert!(approx_eq(u.norm(), 1.0));
        assert!(Vec2::ZERO.normalized().is_none());
    }

    #[test]
    fn from_angle_is_unit() {
        for i in 0..16 {
            let theta = i as f64 * std::f64::consts::PI / 8.0;
            let v = Vec2::from_angle(theta);
            assert!(approx_eq(v.norm(), 1.0));
            // angle() is the inverse up to 2π wrapping.
            let diff = (v.angle() - theta).rem_euclid(2.0 * std::f64::consts::PI);
            assert!(diff < 1e-9 || (2.0 * std::f64::consts::PI - diff) < 1e-9);
        }
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn orientation_signs() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let ccw = Point::new(0.0, 1.0);
        let cw = Point::new(0.0, -1.0);
        let col = Point::new(2.0, 0.0);
        assert!(orient(a, b, ccw) > 0.0);
        assert!(orient(a, b, cw) < 0.0);
        assert_eq!(orient(a, b, col), 0.0);
    }

    #[test]
    fn point_vector_ops() {
        let p = Point::new(1.0, 1.0);
        let v = Vec2::new(2.0, -1.0);
        assert_eq!(p + v, Point::new(3.0, 0.0));
        assert_eq!((p + v) - v, p);
        assert_eq!(p + v - p, v);
        assert_eq!(v * 2.0, Vec2::new(4.0, -2.0));
        assert_eq!(v / 2.0, Vec2::new(1.0, -0.5));
        assert_eq!(-v, Vec2::new(-2.0, 1.0));
    }
}
