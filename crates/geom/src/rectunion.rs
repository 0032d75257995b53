//! Exact area of unions and differences of axis-aligned rectangles.
//!
//! The exact validity region of a location-based *window* query (paper,
//! Section 4) is `inner validity rectangle − ⋃ Minkowski(pᵢ)` over the
//! candidate outer points. Its area — the quantity plotted in Figs. 29,
//! 30 — is computed here with a coordinate-compression sweep: O(n²) per
//! union, which is ample for the ≈2 outer influence objects per query
//! the paper reports (and still fine for pathological workloads with a
//! few hundred).

use crate::rect::Rect;

/// Reusable sweep buffers for [`rect_union_area_in`]: the sorted slab
/// boundaries and one slab's y-intervals. They keep their capacity
/// across calls.
#[derive(Debug, Clone, Default)]
pub struct UnionScratch {
    xs: Vec<f64>,
    intervals: Vec<(f64, f64)>,
}

/// Area of `⋃ rects`, exact up to floating-point rounding.
pub fn rect_union_area(rects: &[Rect]) -> f64 {
    rect_union_area_in(rects, &mut UnionScratch::default())
}

/// [`rect_union_area`] on caller-owned sweep buffers: no allocation
/// once they have grown to the largest input seen.
///
/// Coordinate compression: sort the distinct x-coordinates, and for each
/// vertical slab accumulate the union of y-intervals of the rectangles
/// spanning it. Rectangles of zero area contribute nothing and are
/// skipped.
pub fn rect_union_area_in(rects: &[Rect], scratch: &mut UnionScratch) -> f64 {
    let UnionScratch { xs, intervals } = scratch;
    xs.clear();
    for r in rects.iter().filter(|r| r.area() > 0.0) {
        xs.push(r.xmin);
        xs.push(r.xmax);
    }
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable_by(f64::total_cmp);
    xs.dedup();

    let mut area = 0.0;
    for w in xs.windows(2) {
        let (x0, x1) = (w[0], w[1]);
        let width = x1 - x0;
        if width <= 0.0 {
            continue;
        }
        intervals.clear();
        intervals.extend(
            rects
                .iter()
                .filter(|r| r.area() > 0.0 && r.xmin <= x0 && r.xmax >= x1)
                .map(|r| (r.ymin, r.ymax)),
        );
        area += width * interval_union_len(intervals);
    }
    area
}

/// Area of `base − ⋃ holes` (set difference), exact.
pub fn rect_difference_area(base: &Rect, holes: &[Rect]) -> f64 {
    let clipped: Vec<Rect> = holes.iter().filter_map(|h| base.intersection(h)).collect();
    (base.area() - rect_union_area(&clipped)).max(0.0)
}

/// Total length of the union of 1D closed intervals. Sorts in place.
fn interval_union_len(intervals: &mut [(f64, f64)]) -> f64 {
    if intervals.is_empty() {
        return 0.0;
    }
    intervals.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut total = 0.0;
    let (mut lo, mut hi) = intervals[0];
    for &(a, b) in &intervals[1..] {
        if a > hi {
            total += hi - lo;
            lo = a;
            hi = b;
        } else if b > hi {
            hi = b;
        }
    }
    total + (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn empty_union() {
        assert_eq!(rect_union_area(&[]), 0.0);
        // Degenerate rectangles contribute nothing.
        assert_eq!(rect_union_area(&[Rect::new(0.0, 0.0, 0.0, 5.0)]), 0.0);
    }

    #[test]
    fn single_rect() {
        assert!(approx_eq(
            rect_union_area(&[Rect::new(1.0, 1.0, 3.0, 4.0)]),
            6.0
        ));
    }

    #[test]
    fn disjoint_rects_add() {
        let rs = [
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(2.0, 0.0, 3.0, 1.0),
            Rect::new(0.0, 2.0, 1.0, 3.0),
        ];
        assert!(approx_eq(rect_union_area(&rs), 3.0));
    }

    #[test]
    fn overlapping_rects() {
        // Two unit squares overlapping in a 0.5×1 strip.
        let rs = [Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(0.5, 0.0, 1.5, 1.0)];
        assert!(approx_eq(rect_union_area(&rs), 1.5));
    }

    #[test]
    fn contained_rect_free() {
        let rs = [Rect::new(0.0, 0.0, 4.0, 4.0), Rect::new(1.0, 1.0, 2.0, 2.0)];
        assert!(approx_eq(rect_union_area(&rs), 16.0));
    }

    #[test]
    fn plus_shape() {
        // Horizontal 3×1 and vertical 1×3 bars crossing in a unit cell.
        let rs = [Rect::new(0.0, 1.0, 3.0, 2.0), Rect::new(1.0, 0.0, 2.0, 3.0)];
        assert!(approx_eq(rect_union_area(&rs), 5.0));
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn difference_basic() {
        let base = Rect::new(0.0, 0.0, 4.0, 4.0);
        // A corner bite of area 1.
        let holes = [Rect::new(3.0, 3.0, 5.0, 5.0)];
        assert!(approx_eq(rect_difference_area(&base, &holes), 15.0));
        // Hole fully covering → zero, never negative.
        let big = [Rect::new(-1.0, -1.0, 5.0, 5.0)];
        assert_eq!(rect_difference_area(&base, &big), 0.0);
        // Disjoint hole → full base.
        let far = [Rect::new(10.0, 10.0, 11.0, 11.0)];
        assert!(approx_eq(rect_difference_area(&base, &far), 16.0));
    }

    #[test]
    fn difference_overlapping_holes_not_double_counted() {
        let base = Rect::new(0.0, 0.0, 4.0, 2.0);
        let holes = [Rect::new(0.0, 0.0, 2.0, 2.0), Rect::new(1.0, 0.0, 3.0, 2.0)];
        // Union of holes inside base covers [0,3]×[0,2] = 6.
        assert!(approx_eq(rect_difference_area(&base, &holes), 2.0));
    }

    #[test]
    fn interval_union() {
        let mut iv = vec![(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)];
        assert!(approx_eq(interval_union_len(&mut iv), 3.0));
        let mut single = vec![(2.0, 2.5)];
        assert!(approx_eq(interval_union_len(&mut single), 0.5));
    }

    #[test]
    fn union_matches_monte_carlo() {
        // Deterministic pseudo-random rectangles; compare sweep against a
        // dense grid estimate.
        let mut rects = Vec::new();
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        for _ in 0..12 {
            let x = next() * 8.0;
            let y = next() * 8.0;
            let w = next() * 3.0 + 0.1;
            let h = next() * 3.0 + 0.1;
            rects.push(Rect::new(x, y, x + w, y + h));
        }
        let exact = rect_union_area(&rects);
        // Grid check on [0,12]² with 600² cells.
        let n = 600;
        let cell = 12.0 / n as f64;
        let mut covered = 0u64;
        for i in 0..n {
            for j in 0..n {
                let cx = (i as f64 + 0.5) * cell;
                let cy = (j as f64 + 0.5) * cell;
                if rects
                    .iter()
                    .any(|r| cx >= r.xmin && cx <= r.xmax && cy >= r.ymin && cy <= r.ymax)
                {
                    covered += 1;
                }
            }
        }
        let approx = covered as f64 * cell * cell;
        assert!(
            (exact - approx).abs() < 0.35,
            "sweep {exact} vs grid {approx}"
        );
    }
}
