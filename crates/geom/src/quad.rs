//! Numeric quadrature used by the analytical models of the paper's
//! Section 5.
//!
//! The expected validity-region area integrates `E[dist(θ)²]` over the
//! travel direction θ (eq. 5-3) and, inside that, a probability density
//! over the travel distance ξ (eq. 5-5). Both integrands are smooth, so
//! composite Simpson with a modest panel count is accurate to far below
//! the statistical noise of the 500-query workloads.

/// Composite Simpson integration of `f` over `[a, b]` with `n` panels
/// (`n` is rounded up to the next even number, minimum 2).
pub fn simpson(f: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
    assert!(b >= a, "invalid integration bounds");
    #[expect(
        clippy::float_cmp,
        reason = "a zero-width interval integrates to exactly 0"
    )]
    if a == b {
        return 0.0;
    }
    let n = n.max(2).next_multiple_of(2);
    let h = (b - a) / n as f64;
    let mut sum = f(a) + f(b);
    for i in 1..n {
        let x = a + h * i as f64;
        sum += f(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
    }
    sum * h / 3.0
}

/// Expectation `E[g(X)] = ∫ g(ξ) p(ξ) dξ` computed from the survival
/// function `S(ξ) = P{X > ξ}` via the tail formula, avoiding an explicit
/// derivative:
///
/// `E[g(X)] = g(0) + ∫₀^∞ g'(ξ) S(ξ) dξ`.
///
/// Specialised here to `g(ξ) = ξ²` (the paper needs `E[dist(θ)²]`):
/// `E[X²] = 2 ∫₀^b ξ S(ξ) dξ`, with `b` a cutoff beyond which `S ≈ 0`.
pub fn expect_sq_from_survival(survival: impl Fn(f64) -> f64, cutoff: f64, n: usize) -> f64 {
    2.0 * simpson(|xi| xi * survival(xi).clamp(0.0, 1.0), 0.0, cutoff, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn simpson_polynomials_exact() {
        // Simpson is exact for cubics.
        let f = |x: f64| 3.0 * x * x * x - x + 2.0;
        let exact = |x: f64| 0.75 * x.powi(4) - 0.5 * x * x + 2.0 * x;
        let got = simpson(f, -1.0, 2.5, 2);
        assert!(approx_eq(got, exact(2.5) - exact(-1.0)));
    }

    #[test]
    fn simpson_sine() {
        let got = simpson(f64::sin, 0.0, std::f64::consts::PI, 64);
        // Composite Simpson error bound for n=64: (π^5/180·64⁴) ≈ 1e-7.
        assert!((got - 2.0).abs() < 1e-6);
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn simpson_degenerate_interval() {
        assert_eq!(simpson(|x| x * x, 3.0, 3.0, 10), 0.0);
    }

    #[test]
    fn simpson_odd_panels_rounded_up() {
        // n = 3 gets rounded to 4; result must still be sane.
        let got = simpson(|x| x, 0.0, 1.0, 3);
        assert!(approx_eq(got, 0.5));
    }

    #[test]
    fn expectation_of_exponential() {
        // X ~ Exp(λ): S(ξ)=e^{−λξ}, E[X²] = 2/λ².
        let lambda = 3.0;
        let got = expect_sq_from_survival(|xi| (-lambda * xi).exp(), 10.0, 2000);
        assert!((got - 2.0 / (lambda * lambda)).abs() < 1e-6);
    }

    #[test]
    fn expectation_of_uniform() {
        // X ~ U[0,1]: S(ξ) = 1−ξ on [0,1], E[X²] = 1/3.
        let got = expect_sq_from_survival(|xi| (1.0 - xi).max(0.0), 1.0, 1000);
        assert!((got - 1.0 / 3.0).abs() < 1e-6);
    }
}
