//! Analytical models — Section 5 of the paper.
//!
//! The paper derives the *expected size of the validity region* for both
//! query types under uniform data (and, via a Minskew histogram, for
//! skewed data), plus R-tree node-access estimates. These models drive
//! the "estimated" series of Figs. 22, 23, 29 and 30.
//!
//! ## Window queries (eqs. 5-4, 5-5)
//!
//! The validity region is star-shaped around the query focus; its area
//! is `A = ½ ∫₀^{2π} E[dist(θ)²] dθ`, where `dist(θ)` is how far the
//! focus can travel in direction θ before the result changes. The result
//! changes exactly when the window boundary *sweeps* over a point; for
//! travel ξ at angle θ the swept area is
//! `P_single(ξ,θ) = 2ξ(q_y cosθ + q_x sinθ) − ξ² cosθ sinθ`
//! (window extents `q_x × q_y`, unit-square universe), so
//! `P{dist(θ) > ξ} = (1 − P_single)^N`. `E[dist(θ)²]` follows by the
//! tail formula and numeric quadrature.
//!
//! ## Nearest-neighbor queries
//!
//! Same sweeping-region argument with a disk: the 1-NN result at
//! distance `r` is invalidated when a point falls in the *lune*
//! `D(q+ξe_θ, r′) ∖ D(q, r)` (`r′` = distance from the moved focus to
//! the old neighbor). Averaging the Poisson void probability of that
//! lune over the NN-distance density `2πNr·e^{−Nπr²}` and the
//! neighbor's bearing gives the survival function; the region area is
//! again `π·E[dist²]`. For `k > 1` the paper invokes the `[OBSC00]`
//! result that the expected order-k cell area scales as `1/(2k−1)`,
//! which is exactly how [`nn_validity_area`] extends the k = 1 integral.
//!
//! ## Non-uniform data (eq. 5-6)
//!
//! All formulas take the cardinality `N` as a parameter; for skewed
//! data, pass the **effective cardinality** `N′` from
//! [`lbq_hist::Minskew`] (local density around the query scaled to the
//! universe).

use lbq_geom::quad::{expect_sq_from_survival, simpson};
use std::f64::consts::PI;

/// Expected validity-region area of a location-based **window query**
/// with extents `qx × qy` among `n` uniform points in the unit square
/// (eqs. 5-4 / 5-5).
pub fn window_validity_area(n: f64, qx: f64, qy: f64) -> f64 {
    assert!(n > 0.0 && qx > 0.0 && qy > 0.0);
    // 4-fold symmetry: integrate θ over one quadrant.
    let quadrant = simpson(
        |theta| window_e_dist_sq(n, qx, qy, theta),
        0.0,
        PI / 2.0,
        48,
    );
    // A = ½∫₀^{2π} = ½ · 4 · ∫ quadrant.
    2.0 * quadrant
}

/// `E[dist(θ)²]` for the window model.
fn window_e_dist_sq(n: f64, qx: f64, qy: f64, theta: f64) -> f64 {
    let s = qy * theta.cos() + qx * theta.sin(); // linear sweep coefficient
    let cs = theta.cos() * theta.sin();
    if s <= 0.0 {
        return 0.0;
    }
    // Survival S(ξ) = (1 − P_single)^n, P_single = 2ξs − ξ²cs.
    let survival = move |xi: f64| {
        let p = (2.0 * xi * s - xi * xi * cs).clamp(0.0, 1.0);
        (1.0 - p).powf(n)
    };
    // Integrate until the survival is negligible: P_single ≈ 2ξs, so
    // n·2ξs ≈ 40 ⇒ ξ* = 20/(n·s); cap at the universe diagonal.
    let cutoff = (20.0 / (n * s)).min(std::f64::consts::SQRT_2);
    expect_sq_from_survival(survival, cutoff, 512)
}

/// Expected validity-region area of a location-based **k-NN query**
/// among `n` uniform points in the unit square.
///
/// k = 1 is the full sweeping-lune integral. For k > 1 the *typical*
/// order-k Voronoi cell shrinks as `1/(2k−1)` `[OBSC00]` — the law the
/// paper's Fig. 22b cites — but the validity region is the cell
/// **containing the query point**, which is size-biased
/// (`E[A²]/E[A]`), and the bias grows with the cell-area variance of
/// higher-order diagrams. The correction `γ(k) = 3 − 2·k^(−0.7)`
/// (γ(1) = 1, saturating near 3) was calibrated once against uniform
/// workloads (see `tests/models_vs_measurement.rs` and EXPERIMENTS.md)
/// and holds across n and k to within ~15%.
pub fn nn_validity_area(n: f64, k: usize) -> f64 {
    assert!(n > 0.0 && k >= 1);
    let kf = k as f64;
    let size_bias = 3.0 - 2.0 * kf.powf(-0.7);
    nn_validity_area_1(n) * size_bias / (2.0 * kf - 1.0)
}

/// The k = 1 integral: `A = π · E[dist²]` with the lune-void survival
/// function.
fn nn_validity_area_1(n: f64) -> f64 {
    // Scales: NN distance ~ 1/(2√n); travel distances of interest are a
    // few times that.
    let r_max = (30.0 / (n * PI)).sqrt();
    let xi_max = 5.0 / n.sqrt();
    let survival = |xi: f64| -> f64 {
        // Exact sentinel for the zero-travel case
        if xi == 0.0 {
            return 1.0;
        }
        // E over r (NN distance) of E over α (neighbor bearing) of the
        // void probability of the swept lune.
        simpson(
            |r| {
                let pdf = 2.0 * PI * n * r * (-n * PI * r * r).exp();
                if pdf < 1e-300 {
                    return 0.0;
                }
                let inner = simpson(
                    |alpha| {
                        let r2_sq = r * r + xi * xi - 2.0 * r * xi * alpha.cos();
                        let r2 = r2_sq.max(0.0).sqrt();
                        let lune = (PI * r2_sq - circle_overlap_area(r, r2, xi)).max(0.0);
                        (-n * lune).exp()
                    },
                    0.0,
                    PI, // cos symmetry halves the bearing integral
                    24,
                ) / PI;
                pdf * inner
            },
            0.0,
            r_max,
            48,
        )
    };
    PI * expect_sq_from_survival(survival, xi_max, 96)
}

/// Area of the intersection of two disks with radii `r1`, `r2` and
/// center distance `d` (the standard lens formula).
pub fn circle_overlap_area(r1: f64, r2: f64, d: f64) -> f64 {
    if d >= r1 + r2 {
        return 0.0;
    }
    let (small, big) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
    if d + small <= big {
        return PI * small * small; // full containment
    }
    let d2 = d * d;
    let a1 = ((d2 + r1 * r1 - r2 * r2) / (2.0 * d * r1)).clamp(-1.0, 1.0);
    let a2 = ((d2 + r2 * r2 - r1 * r1) / (2.0 * d * r2)).clamp(-1.0, 1.0);
    let t1 = a1.acos();
    let t2 = a2.acos();
    r1 * r1 * t1 + r2 * r2 * t2
        - 0.5
            * ((-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
                .max(0.0)
                .sqrt()
}

/// Expected inner-validity-rectangle extents of a window query
/// (eq. 5-7): the focus travels `1/(N·q_y)` along ±x and `1/(N·q_x)`
/// along ±y before an inner point hits the window edge.
pub fn window_inner_extents(n: f64, qx: f64, qy: f64) -> (f64, f64) {
    (1.0 / (n * qy), 1.0 / (n * qx))
}

/// The `[TSS00]` R-tree cost model for uniform unit-square data: node
/// geometry per level and expected node accesses for window queries.
#[derive(Debug, Clone, Copy)]
pub struct RtreeCostModel {
    /// Data cardinality.
    pub n: f64,
    /// Average entries per leaf (capacity × fill).
    pub leaf_occupancy: f64,
    /// Average fan-out of internal nodes.
    pub fanout: f64,
}

impl RtreeCostModel {
    /// Model for a tree built like the paper's (204-entry pages at 70%
    /// fill).
    pub fn paper(n: f64) -> Self {
        RtreeCostModel {
            n,
            leaf_occupancy: 204.0 * 0.7,
            fanout: 204.0 * 0.7,
        }
    }

    /// `(node_count, node_extent)` per level, level 0 = leaves, root
    /// excluded when it would hold one node.
    pub fn levels(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut count = (self.n / self.leaf_occupancy).max(1.0);
        loop {
            // A node at this level covers n/count of the data ⇒ its
            // expected extent is √(1/count) on uniform data.
            let s = (1.0 / count).sqrt().min(1.0);
            out.push((count, s));
            if count <= 1.0 {
                break;
            }
            count = (count / self.fanout).max(1.0);
        }
        out
    }

    /// Expected node accesses of a window query `qx × qy` (the Minkowski
    /// sum argument of `[TSS00]`): a node is visited iff its MBR
    /// intersects the window.
    pub fn window_na(&self, qx: f64, qy: f64) -> f64 {
        self.levels()
            .iter()
            .map(|(count, s)| (count * (s + qx).min(1.0) * (s + qy).min(1.0)).min(*count))
            .sum()
    }

    /// Expected number of nodes fully *contained* in the window.
    pub fn window_contained(&self, qx: f64, qy: f64) -> f64 {
        self.levels()
            .iter()
            .map(|(count, s)| {
                let fx = (qx - s).max(0.0);
                let fy = (qy - s).max(0.0);
                (count * fx * fy).min(*count)
            })
            .sum()
    }

    /// The paper's estimate for the *second* (outer-candidate) window
    /// query: nodes intersecting the extended window `q′` minus nodes
    /// contained in the original `q` (those are buffer-resident).
    pub fn marginal_query_na(&self, qx: f64, qy: f64, qx_ext: f64, qy_ext: f64) -> f64 {
        (self.window_na(qx_ext, qy_ext) - self.window_contained(qx, qy)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn circle_overlap_limits() {
        // Disjoint.
        assert_eq!(circle_overlap_area(1.0, 1.0, 3.0), 0.0);
        // Identical circles, zero distance.
        assert!((circle_overlap_area(1.0, 1.0, 0.0) - PI).abs() < 1e-12);
        // Containment.
        assert!((circle_overlap_area(0.5, 2.0, 1.0) - PI * 0.25).abs() < 1e-12);
        // Half-overlap sanity: circles r=1 at distance 1 overlap in a
        // lens of area 2π/3 − √3/2.
        let lens = 2.0 * PI / 3.0 - 3.0f64.sqrt() / 2.0;
        assert!((circle_overlap_area(1.0, 1.0, 1.0) - lens).abs() < 1e-9);
        // Symmetry.
        assert!(
            (circle_overlap_area(0.7, 1.3, 1.1) - circle_overlap_area(1.3, 0.7, 1.1)).abs() < 1e-12
        );
        // Monotone in d.
        let mut prev = circle_overlap_area(1.0, 1.5, 0.0);
        for i in 1..=10 {
            let cur = circle_overlap_area(1.0, 1.5, i as f64 * 0.3);
            assert!(cur <= prev + 1e-12);
            prev = cur;
        }
    }

    #[test]
    fn nn_area_k1_matches_poisson_voronoi_theory() {
        // The area of the Voronoi cell *containing a random point* of a
        // Poisson process has expectation ≈ 1.280/N (size-biased cell).
        for n in [1e4, 1e5] {
            let a = nn_validity_area(n, 1);
            let ratio = a * n;
            assert!(
                (1.0..1.6).contains(&ratio),
                "N={n}: N·E[A] = {ratio}, expected ≈ 1.28"
            );
        }
    }

    #[test]
    fn nn_area_scales_inverse_n_and_2k_minus_1() {
        let a10k = nn_validity_area(1e4, 1);
        let a100k = nn_validity_area(1e5, 1);
        let ratio = a10k / a100k;
        assert!((8.0..12.5).contains(&ratio), "1/N scaling: ratio {ratio}");
        // Order-k law with the size-bias correction:
        // a(1)/a(10) = 19 / γ(10), γ(10) = 3 − 2·10^{−0.7} ≈ 2.60.
        let a_k10 = nn_validity_area(1e5, 10);
        let gamma10 = 3.0 - 2.0 * 10f64.powf(-0.7);
        assert!(
            (a100k / a_k10 - 19.0 / gamma10).abs() < 1e-9,
            "order-k law with size bias: got {}",
            a100k / a_k10
        );
        // Monotone decreasing in k.
        let mut prev = a100k;
        for k in [2usize, 5, 20, 100] {
            let a = nn_validity_area(1e5, k);
            assert!(a < prev, "k={k}");
            prev = a;
        }
    }

    #[test]
    fn window_area_decreases_in_n_and_qs() {
        let a = window_validity_area(1e5, 0.0316, 0.0316); // qs ≈ 0.1 %
        let b = window_validity_area(1e6, 0.0316, 0.0316);
        assert!(a > b, "larger N shrinks the region: {a} vs {b}");
        let c = window_validity_area(1e5, 0.1, 0.1); // qs = 1 %
        assert!(a > c, "larger window shrinks the region: {a} vs {c}");
        assert!(a > 0.0 && a < 1.0);
    }

    #[test]
    fn window_area_closed_form_sanity() {
        // For very small windows the region behaves like
        // dist ~ Exp-ish with rate 2ns̄; E[A] ≈ ∫ ... within a factor.
        // Check against a direct Monte-Carlo of the model (not data):
        // simulate dist(θ) by inverting the survival, per θ.
        let (n, q) = (1e4, 0.05);
        let model = window_validity_area(n, q, q);
        let mut s: u64 = 99;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let mut acc = 0.0;
        let trials = 4000;
        for t in 0..trials {
            let theta = (t as f64 + 0.5) / trials as f64 * std::f64::consts::TAU;
            let s_theta = q * theta.cos().abs() + q * theta.sin().abs();
            let cs = (theta.cos() * theta.sin()).abs();
            // Sample dist by inverse CDF on a grid.
            let u: f64 = next();
            let mut xi = 0.0;
            let step = 1e-5;
            while xi < 1.0 {
                let p = (2.0 * xi * s_theta - xi * xi * cs).clamp(0.0, 1.0);
                if (1.0 - p).powf(n) <= u {
                    break;
                }
                xi += step;
            }
            acc += xi * xi;
        }
        let mc = 0.5 * acc / trials as f64 * std::f64::consts::TAU;
        assert!((model - mc).abs() / mc < 0.05, "model {model} vs MC {mc}");
    }

    #[test]
    fn inner_extents_formula() {
        let (dx, dy) = window_inner_extents(1e5, 0.02, 0.04);
        assert!((dx - 1.0 / (1e5 * 0.04)).abs() < 1e-18);
        assert!((dy - 1.0 / (1e5 * 0.02)).abs() < 1e-18);
    }

    #[test]
    fn cost_model_shapes() {
        let m = RtreeCostModel::paper(1e5);
        let lv = m.levels();
        assert!(lv.len() >= 2, "100k points need at least 2 levels");
        // Bigger windows touch more nodes; containment below
        // intersection.
        let small = m.window_na(0.01, 0.01);
        let large = m.window_na(0.2, 0.2);
        assert!(large > small);
        assert!(m.window_contained(0.2, 0.2) < m.window_na(0.2, 0.2));
        // The whole universe touches every node.
        let total: f64 = lv.iter().map(|(c, _)| c).sum();
        assert!((m.window_na(1.0, 1.0) - total).abs() < 1e-9);
        // Marginal query never negative.
        assert!(m.marginal_query_na(0.1, 0.1, 0.12, 0.12) >= 0.0);
    }
}
