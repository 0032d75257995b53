//! # lbq-geom — 2D geometry kernel
//!
//! The computational-geometry substrate of the `lbq` workspace, a
//! reproduction of *"Location-based Spatial Queries"* (SIGMOD 2003).
//!
//! Everything here is first-party: points and vectors ([`Point`],
//! [`Vec2`]), axis-aligned rectangles ([`Rect`]), half-planes bounded by
//! perpendicular bisectors ([`HalfPlane`]), convex polygons with
//! half-plane clipping ([`ConvexPolygon`]) — the machinery used to build
//! nearest-neighbor validity regions — plus a rectangle-union sweepline
//! ([`rect_union_area`]) and numeric quadrature ([`quad`]) used by the
//! window-query validity regions and the analytical models of the paper's
//! Section 5.
//!
//! ## Conventions
//!
//! * Coordinates are `f64`. The library is a *query-processing* kernel,
//!   not an exact-arithmetic CGAL clone; all predicates take explicit or
//!   library-default epsilons (see [`EPS`]) and the algorithms in
//!   `lbq-core` are written to be robust to the resulting conservatism
//!   (a vertex that is confirmed twice costs one extra TPNN query; it
//!   never produces a wrong region).
//! * Convex polygons store vertices in counter-clockwise order.
//! * Half-planes are closed sets `a·x + b·y ≤ c`.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod halfplane;
pub mod point;
pub mod polygon;
pub mod quad;
pub mod rect;
pub mod rectunion;
pub mod segment;

pub use halfplane::HalfPlane;
pub use point::{orient, Point, Vec2};
pub use polygon::ConvexPolygon;
pub use rect::Rect;
pub use rectunion::{rect_difference_area, rect_union_area, rect_union_area_in, UnionScratch};
pub use segment::Segment;

/// Default absolute tolerance for geometric predicates.
///
/// Chosen for coordinates up to ~1e7 (the NA dataset universe is
/// 7,000,000 m wide); `1e-9` relative precision at that magnitude is
/// ~1e-2, far below any meaningful geometric feature of the workloads.
pub const EPS: f64 = 1e-9;

/// Tight tolerance for quantities already known to be O(1) — area
/// ratios, normalized determinants, convergence residuals. Use [`EPS`]
/// for anything carrying coordinate units.
pub const EPS_TIGHT: f64 = 1e-12;

/// Relative-or-absolute closeness test used throughout the workspace.
///
/// Returns `true` when `a` and `b` differ by at most `EPS` absolutely or
/// `EPS` relatively, whichever is larger.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    let diff = (a - b).abs();
    diff <= EPS || diff <= EPS * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(0.0, 1e-12));
        assert!(!approx_eq(0.0, 1e-3));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1e9, 1e9 + 0.5));
        assert!(!approx_eq(1e9, 1e9 + 1e3));
    }
}
