//! Hilbert space-filling curve keys.
//!
//! The locality pipeline (DESIGN.md §12) orders the query stream of a
//! served batch by this curve (`lbq-serve` sorts each batch by the
//! Hilbert key of the query focus before chunking it into locality
//! tiles), and a key prefix names the tile footprint the hot tier and
//! the heatmap aggregate over ([`tile_rect`]). The Hilbert curve is the
//! standard choice because consecutive keys are always **grid
//! neighbors** (unlike the Z-order curve, which jumps), so key-adjacent
//! queries touch overlapping R-tree subtrees.
//!
//! The implementation is the classical iterative rotate-and-flip
//! mapping on a `2^order × 2^order` grid (Hamilton's compact form):
//! [`xy2d`] folds a cell into its curve position, [`d2xy`] unfolds it.
//! Both are exact inverses for every `order ≤ 31`.

use lbq_geom::{Point, Rect};

/// Grid order used for continuous-coordinate keys: the universe is
/// quantized to a `2^16 × 2^16` lattice, giving 32-bit keys with
/// sub-page spatial resolution for every dataset the workloads use.
pub const KEY_ORDER: u32 = 16;

/// Curve position of grid cell `(x, y)` on a `2^order` grid.
///
/// `x` and `y` must be `< 2^order`. The result is `< 4^order`.
pub fn xy2d(order: u32, mut x: u32, mut y: u32) -> u64 {
    debug_assert!((1..=31).contains(&order));
    debug_assert!(x < (1u32 << order) && y < (1u32 << order));
    let n: u32 = 1 << order;
    let mut d: u64 = 0;
    let mut s: u32 = n / 2;
    while s > 0 {
        let rx = u32::from(x & s != 0);
        let ry = u32::from(y & s != 0);
        d += u64::from(s) * u64::from(s) * u64::from((3 * rx) ^ ry);
        // Rotate the quadrant so the sub-curve enters/exits correctly.
        if ry == 0 {
            if rx == 1 {
                x = n - 1 - x;
                y = n - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Grid cell `(x, y)` of curve position `d` on a `2^order` grid —
/// the exact inverse of [`xy2d`].
pub fn d2xy(order: u32, d: u64) -> (u32, u32) {
    debug_assert!((1..=31).contains(&order));
    debug_assert!(d < (1u64 << (2 * order)));
    let (mut x, mut y) = (0u32, 0u32);
    let mut t = d;
    let mut s: u32 = 1;
    while s < (1 << order) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "masked to the low bit right here"
        )]
        let rx = 1 & (t / 2) as u32;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "masked to the low bit right here"
        )]
        let ry = 1 & ((t as u32) ^ rx);
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x, y)
}

/// Hilbert key of a continuous point inside `universe`, on the
/// [`KEY_ORDER`] lattice. Points outside the universe clamp to its
/// boundary; a degenerate (zero-extent) universe maps everything to
/// cell 0 on that axis. Equal points always produce equal keys, so a
/// **stable** sort by this key preserves the input order of duplicates.
pub fn hilbert_key(p: Point, universe: &Rect) -> u64 {
    let side = (1u32 << KEY_ORDER) - 1;
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "t ∈ [0, 1], product ≤ side"
    )]
    let quant = |v: f64, lo: f64, extent: f64| -> u32 {
        if extent <= 0.0 || !v.is_finite() {
            return 0;
        }
        let t = ((v - lo) / extent).clamp(0.0, 1.0);
        (t * f64::from(side)).round() as u32
    };
    let x = quant(p.x, universe.xmin, universe.width());
    let y = quant(p.y, universe.ymin, universe.height());
    xy2d(KEY_ORDER, x, y)
}

/// The universe footprint of a Hilbert *tile*: the set of points whose
/// [`hilbert_key`] has `tile` as its top `tile_bits` bits.
///
/// The iterative mapping transforms the high bits of a cell coordinate
/// independently of the low bits (the quadrant flips complement and
/// swap whole bit prefixes), so the top `tile_bits` bits of a
/// [`KEY_ORDER`] key equal `xy2d(tile_bits / 2, x >> s, y >> s)` with
/// `s = KEY_ORDER - tile_bits / 2` — one aligned square block of the
/// coarse grid. `tile_bits` must be even and at most `2 * KEY_ORDER`.
///
/// Because [`hilbert_key`] quantizes by *rounding* onto the
/// `2^KEY_ORDER - 1` scale, a grid cell `g` covers the continuous
/// interval `[(g - ½) / side, (g + ½) / side]`; the returned rect is
/// that exact preimage, clamped to the universe. This is the footprint
/// the hot-tile index fetches sites from (`lbq-serve`), and the shape
/// `lbq-obs` heatmap slots aggregate over.
pub fn tile_rect(universe: &Rect, tile: u32, tile_bits: u32) -> Rect {
    debug_assert!((2..=2 * KEY_ORDER).contains(&tile_bits) && tile_bits % 2 == 0);
    let order = tile_bits / 2;
    debug_assert!(u64::from(tile) < (1u64 << tile_bits));
    let (cx, cy) = d2xy(order, u64::from(tile));
    let span = 1u32 << (KEY_ORDER - order);
    let side = f64::from((1u32 << KEY_ORDER) - 1);
    let lo = |c: u32| (f64::from(c * span) - 0.5).max(0.0) / side;
    let hi = |c: u32| ((f64::from((c + 1) * span - 1) + 0.5) / side).min(1.0);
    let (w, h) = (universe.width(), universe.height());
    Rect::new(
        universe.xmin + lo(cx) * w,
        universe.ymin + lo(cy) * h,
        universe.xmin + hi(cx) * w,
        universe.ymin + hi(cy) * h,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_exact_small_orders() {
        // Exhaustive over the whole grid for orders 1..=5: d2xy ∘ xy2d
        // is the identity in both directions.
        for order in 1..=5u32 {
            let side = 1u32 << order;
            for x in 0..side {
                for y in 0..side {
                    let d = xy2d(order, x, y);
                    assert_eq!(d2xy(order, d), (x, y), "order {order} cell ({x},{y})");
                }
            }
            for d in 0..u64::from(side) * u64::from(side) {
                let (x, y) = d2xy(order, d);
                assert_eq!(xy2d(order, x, y), d, "order {order} d {d}");
            }
        }
    }

    #[test]
    fn round_trip_at_key_order() {
        // Spot checks at the production order, including the corners.
        let side = 1u32 << KEY_ORDER;
        for &(x, y) in &[
            (0, 0),
            (side - 1, 0),
            (0, side - 1),
            (side - 1, side - 1),
            (12345, 54321),
            (side / 2, side / 3),
        ] {
            let d = xy2d(KEY_ORDER, x, y);
            assert_eq!(d2xy(KEY_ORDER, d), (x, y));
        }
    }

    #[test]
    fn consecutive_keys_are_grid_neighbors() {
        // The defining Hilbert property: |d2xy(d+1) - d2xy(d)| is one
        // grid step (Manhattan distance exactly 1), for the entire
        // curve at small orders and a sampled window at KEY_ORDER.
        for order in 1..=6u32 {
            let cells = 1u64 << (2 * order);
            let mut prev = d2xy(order, 0);
            for d in 1..cells {
                let cur = d2xy(order, d);
                let step = prev.0.abs_diff(cur.0) + prev.1.abs_diff(cur.1);
                assert_eq!(step, 1, "order {order}: jump at d={d}");
                prev = cur;
            }
        }
        let mut prev = d2xy(KEY_ORDER, 1 << 20);
        for d in (1 << 20) + 1..(1 << 20) + 4096 {
            let cur = d2xy(KEY_ORDER, d);
            assert_eq!(prev.0.abs_diff(cur.0) + prev.1.abs_diff(cur.1), 1);
            prev = cur;
        }
    }

    #[test]
    fn continuous_key_respects_universe_and_clamps() {
        let u = Rect::new(0.0, 0.0, 10.0, 10.0);
        // Same cell → same key; outside points clamp to the boundary.
        assert_eq!(
            hilbert_key(Point::new(3.0, 7.0), &u),
            hilbert_key(Point::new(3.0, 7.0), &u)
        );
        assert_eq!(
            hilbert_key(Point::new(-5.0, -5.0), &u),
            hilbert_key(Point::new(0.0, 0.0), &u)
        );
        assert_eq!(
            hilbert_key(Point::new(99.0, 99.0), &u),
            hilbert_key(Point::new(10.0, 10.0), &u)
        );
        // Degenerate universe: everything lands on one cell.
        let line = Rect::new(2.0, 5.0, 2.0, 5.0);
        assert_eq!(
            hilbert_key(Point::new(2.0, 5.0), &line),
            hilbert_key(Point::new(7.0, 9.0), &line)
        );
    }

    #[test]
    fn nearby_points_have_nearby_keys_on_average() {
        // Locality sanity: pairs at distance 1/256 of the universe have
        // far smaller mean key distance than random pairs.
        let u = Rect::new(0.0, 0.0, 1.0, 1.0);
        let mut s = 0x5EEDu64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let (mut near_sum, mut far_sum) = (0u64, 0u64);
        const PAIRS: u64 = 4000;
        for _ in 0..PAIRS {
            let p = Point::new(next() * 0.99, next() * 0.99);
            let q = Point::new(p.x + 1.0 / 256.0, p.y);
            let r = Point::new(next(), next());
            near_sum += hilbert_key(p, &u).abs_diff(hilbert_key(q, &u));
            far_sum += hilbert_key(p, &u).abs_diff(hilbert_key(r, &u));
        }
        assert!(
            near_sum * 8 < far_sum,
            "near pairs {near_sum} should be ≪ random pairs {far_sum}"
        );
    }

    #[test]
    fn stable_sort_on_duplicate_points_preserves_input_order() {
        // Key sorts that must be reproducible rely on slice::sort_by_key
        // being stable: duplicate points (equal keys) keep their
        // original relative order, so tiled batches reproduce the
        // untiled response order.
        let u = Rect::new(0.0, 0.0, 1.0, 1.0);
        let dup = Point::new(0.25, 0.75);
        let mut tagged: Vec<(Point, usize)> = vec![
            (Point::new(0.9, 0.1), 0),
            (dup, 1),
            (Point::new(0.1, 0.1), 2),
            (dup, 3),
            (dup, 4),
            (Point::new(0.5, 0.5), 5),
            (dup, 6),
        ];
        tagged.sort_by_key(|(p, _)| hilbert_key(*p, &u));
        let dup_order: Vec<usize> = tagged
            .iter()
            .filter(|(p, _)| *p == dup)
            .map(|(_, tag)| *tag)
            .collect();
        assert_eq!(
            dup_order,
            vec![1, 3, 4, 6],
            "stable sort must not reorder duplicates"
        );
    }

    #[test]
    fn tile_rect_is_the_key_prefix_preimage() {
        // Both directions, for every order-6 tile (the heatmap / hot
        // tier granularity): points sampled strictly inside the rect
        // key back to the tile, and random points land inside the rect
        // of their own key's tile.
        let universe = Rect::new(-3.0, 1.0, 5.0, 7.0);
        const TILE_BITS: u32 = 12;
        let shift = 2 * KEY_ORDER - TILE_BITS;
        for tile in 0..(1u32 << TILE_BITS) {
            let r = tile_rect(&universe, tile, TILE_BITS);
            for (fx, fy) in [(0.3, 0.3), (0.3, 0.7), (0.7, 0.3), (0.7, 0.7), (0.5, 0.5)] {
                let p = Point::new(r.xmin + fx * r.width(), r.ymin + fy * r.height());
                let key = hilbert_key(p, &universe);
                // Top 12 bits fit in u32.
                assert_eq!((key >> shift) as u32, tile, "tile {tile} probe ({fx},{fy})");
            }
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let tx = (state >> 11) as f64 / (1u64 << 53) as f64;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ty = (state >> 11) as f64 / (1u64 << 53) as f64;
            let p = Point::new(
                universe.xmin + tx * universe.width(),
                universe.ymin + ty * universe.height(),
            );
            let key = hilbert_key(p, &universe);
            #[expect(clippy::cast_possible_truncation, reason = "top 12 bits fit in u32")]
            let tile = (key >> shift) as u32;
            let r = tile_rect(&universe, tile, TILE_BITS);
            assert!(
                p.x >= r.xmin - 1e-12
                    && p.x <= r.xmax + 1e-12
                    && p.y >= r.ymin - 1e-12
                    && p.y <= r.ymax + 1e-12,
                "point {p:?} escaped tile_rect({tile}) = {r:?}"
            );
        }
    }
}
