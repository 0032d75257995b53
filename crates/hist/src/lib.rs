//! # lbq-hist — the Minskew spatial histogram
//!
//! Selectivity-estimation substrate of the `lbq` workspace (reproduction
//! of *"Location-based Spatial Queries"*, SIGMOD 2003). The paper's
//! Section 5 derives expected validity-region sizes for **uniform** data
//! and then extends them to skewed real datasets "with the aid of
//! histograms", specifically **Minskew** `[APR99]`: the space is
//! partitioned into rectangular buckets of near-uniform density, and the
//! uniform-data formulas are applied with the data cardinality `N`
//! replaced by an *effective cardinality* `N′` derived from the buckets
//! around the query (eq. 5-6). The paper's setup: 500 buckets built from
//! 10,000 initial cells — the defaults here.
//!
//! ## Construction
//!
//! [`Minskew::build`] bins the points into a `g × g` grid and then
//! greedily splits buckets: starting from one bucket covering the grid,
//! repeatedly perform the (bucket, axis, position) split that maximally
//! reduces the total **spatial skew** — the summed variance of cell
//! counts within each bucket — until the bucket budget is reached.
//! This is the exact greedy of the Minskew paper; each candidate split
//! is evaluated in O(rows + cols) via prefix sums.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use lbq_geom::{Point, Rect};

/// One histogram bucket: a rectangle with a point count, assumed
/// internally uniform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// The bucket's extent.
    pub rect: Rect,
    /// Points inside `rect`.
    pub count: f64,
}

impl Bucket {
    /// Density (points per unit area).
    pub fn density(&self) -> f64 {
        let a = self.rect.area();
        if a > 0.0 {
            self.count / a
        } else {
            0.0
        }
    }
}

/// A Minskew histogram over a 2D point set.
#[derive(Debug, Clone)]
pub struct Minskew {
    universe: Rect,
    buckets: Vec<Bucket>,
    total: f64,
}

/// A bucket under construction: a rectangular block of grid cells.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// Grid-cell bounds, half-open: columns `[c0, c1)`, rows `[r0, r1)`.
    c0: usize,
    c1: usize,
    r0: usize,
    r1: usize,
}

impl Minskew {
    /// The paper's configuration: 10,000 initial cells (100×100 grid)
    /// merged into 500 buckets.
    pub fn paper(points: &[Point], universe: Rect) -> Self {
        Self::build(points, universe, 100, 500)
    }

    /// Builds a histogram from a `grid × grid` binning reduced to at
    /// most `bucket_budget` buckets.
    pub fn build(points: &[Point], universe: Rect, grid: usize, bucket_budget: usize) -> Self {
        assert!(grid >= 1 && bucket_budget >= 1);
        let g = grid;
        let mut cells = vec![0.0f64; g * g];
        let w = universe.width();
        let h = universe.height();
        for p in points {
            debug_assert!(universe.contains_eps(*p, lbq_geom::EPS * w.max(h)));
            let cx = (((p.x - universe.xmin) / w * g as f64) as usize).min(g - 1);
            let cy = (((p.y - universe.ymin) / h * g as f64) as usize).min(g - 1);
            cells[cy * g + cx] += 1.0;
        }

        // Prefix sums over the grid for O(1) block count/sq-count sums.
        let pre = Prefix::new(&cells, g);

        let mut blocks = vec![Block {
            c0: 0,
            c1: g,
            r0: 0,
            r1: g,
        }];
        // Greedy: always apply the globally best skew-reducing split.
        while blocks.len() < bucket_budget {
            let mut best: Option<(f64, usize, Block, Block)> = None;
            for (i, b) in blocks.iter().enumerate() {
                if let Some((gain, lo, hi)) = best_split(b, &pre) {
                    if best.as_ref().is_none_or(|(bg, ..)| gain > *bg) {
                        best = Some((gain, i, lo, hi));
                    }
                }
            }
            match best {
                Some((gain, i, lo, hi)) if gain > 0.0 => {
                    blocks.swap_remove(i);
                    blocks.push(lo);
                    blocks.push(hi);
                }
                _ => break, // nothing left to gain (all blocks uniform)
            }
        }

        let cell_w = w / g as f64;
        let cell_h = h / g as f64;
        let buckets = blocks
            .iter()
            .map(|b| Bucket {
                rect: Rect::new(
                    universe.xmin + b.c0 as f64 * cell_w,
                    universe.ymin + b.r0 as f64 * cell_h,
                    universe.xmin + b.c1 as f64 * cell_w,
                    universe.ymin + b.r1 as f64 * cell_h,
                ),
                count: pre.block_sum(b),
            })
            .collect();
        Minskew {
            universe,
            buckets,
            total: points.len() as f64,
        }
    }

    /// The buckets.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// The universe the histogram covers.
    pub fn universe(&self) -> Rect {
        self.universe
    }

    /// Total points summarized.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Expected number of points inside `r` (uniformity within each
    /// bucket).
    pub fn estimate_count(&self, r: &Rect) -> f64 {
        self.buckets
            .iter()
            .map(|b| {
                let ov = b.rect.overlap_area(r);
                if ov > 0.0 && b.rect.area() > 0.0 {
                    b.count * ov / b.rect.area()
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// The paper's eq. (5-6) for **window queries**: effective uniform
    /// cardinality `N′` from the density around the *boundary* of the
    /// query window — where result-changing points live — scaled to the
    /// whole universe so the uniform formulas apply unchanged.
    ///
    /// Implemented at sub-bucket granularity: the density is measured
    /// over a band `q ± 15%` of the window extents (expected counts via
    /// fractional bucket overlap), which degrades gracefully when a
    /// single merged bucket is much larger than the window — whole-bucket
    /// summation would otherwise wash out locality on extreme skew
    /// (line-clustered street data).
    pub fn effective_cardinality_window(&self, q: &Rect) -> f64 {
        let dx = q.width() * 0.15;
        let dy = q.height() * 0.15;
        let outer = q.inflate(dx, dy);
        let inner = q.inflate(-dx, -dy);
        let band_count = (self.estimate_count(&outer) - self.estimate_count(&inner)).max(0.0);
        let band_area = outer.area() - inner.area();
        if band_area <= 0.0 || band_count <= 0.0 {
            // Degenerate window or genuinely empty neighborhood: fall
            // back to whole-bucket boundary summation, then global.
            let mut n = 0.0;
            let mut a = 0.0;
            for b in &self.buckets {
                if b.rect.intersects(q) && !strictly_inside(&b.rect, q) {
                    n += b.count;
                    a += b.rect.area();
                }
            }
            if a <= 0.0 || n <= 0.0 {
                return self.total;
            }
            return (n / a) * self.universe.area();
        }
        (band_count / band_area) * self.universe.area()
    }

    /// Effective cardinality for **nearest-neighbor queries** at `q`:
    /// grow a square region around `q` from the scale of the bucket
    /// containing it until the expected point count suffices for a k-NN
    /// result (the paper grows a bucket neighborhood; geometric region
    /// growth over the same buckets is equivalent and simpler), then
    /// scale the local density to the universe.
    pub fn effective_cardinality_nn(&self, q: Point, k: usize) -> f64 {
        let need = (4 * k + 16) as f64;
        let start = self
            .buckets
            .iter()
            .find(|b| b.rect.contains(q))
            .map(|b| 0.5 * (b.rect.width().min(b.rect.height())))
            .unwrap_or(self.universe.width() / 100.0)
            // lbq-check: allow(local-epsilon) — probe floor, not a tolerance
            .max(self.universe.width() * 1e-6);
        let mut half = start;
        let max_half = self.universe.width().max(self.universe.height());
        loop {
            let r = Rect::centered(q, half, half);
            let cnt = self.estimate_count(&r);
            if cnt >= need || half >= max_half {
                let area = r
                    .intersection(&self.universe)
                    .map_or(r.area(), |i| i.area());
                if area <= 0.0 || cnt <= 0.0 {
                    return self.total;
                }
                return (cnt / area) * self.universe.area();
            }
            half *= 1.5;
        }
    }
}

/// `inner` lies strictly inside `outer` (touching boundaries excluded).
fn strictly_inside(inner: &Rect, outer: &Rect) -> bool {
    inner.xmin > outer.xmin
        && inner.xmax < outer.xmax
        && inner.ymin > outer.ymin
        && inner.ymax < outer.ymax
}

/// 2D prefix sums of counts and squared counts.
struct Prefix {
    g: usize,
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
}

impl Prefix {
    fn new(cells: &[f64], g: usize) -> Self {
        let stride = g + 1;
        let mut sum = vec![0.0; stride * stride];
        let mut sum_sq = vec![0.0; stride * stride];
        for r in 0..g {
            for c in 0..g {
                let v = cells[r * g + c];
                let idx = (r + 1) * stride + (c + 1);
                sum[idx] = v + sum[idx - 1] + sum[idx - stride] - sum[idx - stride - 1];
                sum_sq[idx] =
                    v * v + sum_sq[idx - 1] + sum_sq[idx - stride] - sum_sq[idx - stride - 1];
            }
        }
        Prefix { g, sum, sum_sq }
    }

    fn rect_sum(&self, v: &[f64], r0: usize, r1: usize, c0: usize, c1: usize) -> f64 {
        let s = self.g + 1;
        v[r1 * s + c1] - v[r0 * s + c1] - v[r1 * s + c0] + v[r0 * s + c0]
    }

    fn block_sum(&self, b: &Block) -> f64 {
        self.rect_sum(&self.sum, b.r0, b.r1, b.c0, b.c1)
    }

    fn block_sum_sq(&self, b: &Block) -> f64 {
        self.rect_sum(&self.sum_sq, b.r0, b.r1, b.c0, b.c1)
    }

    /// Spatial skew of a block: Σ (nᵢ − n̄)² = Σ nᵢ² − (Σ nᵢ)²/cells.
    fn skew(&self, b: &Block) -> f64 {
        let cells = ((b.r1 - b.r0) * (b.c1 - b.c0)) as f64;
        // Integer-valued cast, 0.0 is exact
        if cells == 0.0 {
            return 0.0;
        }
        let s = self.block_sum(b);
        (self.block_sum_sq(b) - s * s / cells).max(0.0)
    }
}

/// Best skew-reducing split of a block, if any: returns
/// `(gain, low_block, high_block)`.
fn best_split(b: &Block, pre: &Prefix) -> Option<(f64, Block, Block)> {
    let base = pre.skew(b);
    if base <= 0.0 {
        return None;
    }
    let mut best: Option<(f64, Block, Block)> = None;
    // Vertical splits (between columns).
    for c in (b.c0 + 1)..b.c1 {
        let lo = Block { c1: c, ..*b };
        let hi = Block { c0: c, ..*b };
        let gain = base - pre.skew(&lo) - pre.skew(&hi);
        if best.as_ref().is_none_or(|(g, ..)| gain > *g) {
            best = Some((gain, lo, hi));
        }
    }
    // Horizontal splits (between rows).
    for r in (b.r0 + 1)..b.r1 {
        let lo = Block { r1: r, ..*b };
        let hi = Block { r0: r, ..*b };
        let gain = base - pre.skew(&lo) - pre.skew(&hi);
        if best.as_ref().is_none_or(|(g, ..)| gain > *g) {
            best = Some((gain, lo, hi));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::new(0.0, 0.0, 1.0, 1.0)
    }

    fn uniform_points(n: usize, seed: u64) -> Vec<Point> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n).map(|_| Point::new(next(), next())).collect()
    }

    #[test]
    fn buckets_partition_and_counts_sum() {
        let pts = uniform_points(5000, 9);
        let h = Minskew::build(&pts, unit(), 20, 32);
        assert!(h.buckets().len() <= 32);
        let total: f64 = h.buckets().iter().map(|b| b.count).sum();
        assert!((total - 5000.0).abs() < 1e-6);
        let area: f64 = h.buckets().iter().map(|b| b.rect.area()).sum();
        assert!((area - 1.0).abs() < 1e-9, "bucket areas sum to {area}");
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn estimate_full_universe_is_total() {
        let pts = uniform_points(2000, 3);
        let h = Minskew::build(&pts, unit(), 16, 20);
        assert!((h.estimate_count(&unit()) - 2000.0).abs() < 1e-6);
        assert_eq!(h.estimate_count(&Rect::new(2.0, 2.0, 3.0, 3.0)), 0.0);
    }

    #[test]
    fn uniform_data_estimates_match_area_fraction() {
        let pts = uniform_points(20000, 5);
        let h = Minskew::build(&pts, unit(), 25, 50);
        let q = Rect::new(0.2, 0.3, 0.5, 0.7);
        let est = h.estimate_count(&q);
        let expect = 20000.0 * q.area();
        assert!((est - expect).abs() / expect < 0.1, "est {est} vs {expect}");
        // Effective cardinality ≈ true cardinality for uniform data.
        let n_eff = h.effective_cardinality_window(&q);
        assert!((n_eff - 20000.0).abs() / 20000.0 < 0.15, "N' = {n_eff}");
        let n_eff_nn = h.effective_cardinality_nn(Point::new(0.5, 0.5), 1);
        assert!(
            (n_eff_nn - 20000.0).abs() / 20000.0 < 0.25,
            "N'_nn = {n_eff_nn}"
        );
    }

    #[test]
    fn skewed_data_gets_dense_and_sparse_buckets() {
        // Left half has 10× the density of the right half.
        let mut pts = uniform_points(10000, 7)
            .into_iter()
            .map(|p| Point::new(p.x * 0.5, p.y))
            .collect::<Vec<_>>();
        pts.extend(
            uniform_points(1000, 8)
                .into_iter()
                .map(|p| Point::new(0.5 + p.x * 0.5, p.y)),
        );
        let h = Minskew::build(&pts, unit(), 20, 16);
        let left = Point::new(0.25, 0.5);
        let right = Point::new(0.75, 0.5);
        let nl = h.effective_cardinality_nn(left, 1);
        let nr = h.effective_cardinality_nn(right, 1);
        assert!(
            nl > 4.0 * nr,
            "left density must dominate: N'l={nl} N'r={nr}"
        );
        // Window straddling the divide sees an intermediate density.
        let q = Rect::centered(Point::new(0.5, 0.5), 0.1, 0.1);
        let nw = h.effective_cardinality_window(&q);
        assert!(nw < nl && nw > nr * 0.5, "straddling N'={nw}");
    }

    #[test]
    fn single_bucket_budget() {
        let pts = uniform_points(500, 2);
        let h = Minskew::build(&pts, unit(), 10, 1);
        assert_eq!(h.buckets().len(), 1);
        assert!((h.buckets()[0].count - 500.0).abs() < 1e-9);
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn empty_dataset() {
        let h = Minskew::build(&[], unit(), 10, 5);
        assert_eq!(h.estimate_count(&unit()), 0.0);
        assert_eq!(h.total(), 0.0);
    }

    #[test]
    fn splits_stop_when_uniform() {
        // A perfectly uniform grid of points: one point per cell →
        // zero skew → no splits beyond the first bucket.
        let mut pts = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                pts.push(Point::new(i as f64 / 10.0 + 0.05, j as f64 / 10.0 + 0.05));
            }
        }
        let h = Minskew::build(&pts, unit(), 10, 64);
        assert_eq!(h.buckets().len(), 1, "uniform data needs one bucket");
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn prefix_sums_correct() {
        let cells = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let p = Prefix::new(&cells, 3);
        let all = Block {
            c0: 0,
            c1: 3,
            r0: 0,
            r1: 3,
        };
        assert_eq!(p.block_sum(&all), 45.0);
        assert_eq!(p.block_sum_sq(&all), 285.0);
        let mid = Block {
            c0: 1,
            c1: 3,
            r0: 1,
            r1: 2,
        };
        assert_eq!(p.block_sum(&mid), 11.0); // cells 5 + 6
                                             // Skew of a constant block is zero.
        let row = Block {
            c0: 0,
            c1: 1,
            r0: 0,
            r1: 1,
        };
        assert_eq!(p.skew(&row), 0.0);
    }
}
