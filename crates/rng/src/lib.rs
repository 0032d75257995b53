//! # lbq-rng — vendored pseudo-random number generation
//!
//! The container this workspace builds in has **no crates.io access**,
//! so the `rand` crate cannot be resolved. Everything the workspace
//! needs from it is a seedable, deterministic, fast generator for
//! synthetic datasets, query workloads and randomized tests — which is
//! exactly what this ~150-line module provides, with zero dependencies.
//!
//! Two classic generators are vendored:
//!
//! * [`SplitMix64`] — the 64-bit finalizer-style generator of Steele,
//!   Lea & Flood. Used to expand a single `u64` seed into the 256-bit
//!   state of the main generator (the construction recommended by the
//!   xoshiro authors), and handy on its own for cheap hashing-style
//!   randomness.
//! * [`Xoshiro256ss`] (xoshiro256\*\*, Blackman & Vigna 2018) — the
//!   workhorse. Passes BigCrush, 2^256 − 1 period, four `u64`s of
//!   state.
//!
//! The API mirrors the subset of `rand::Rng` the workspace used
//! (`gen_range(a..b)`, `gen_bool(p)`), so call sites port by swapping
//! the import. Determinism per seed is guaranteed and locked by tests:
//! datasets named in EXPERIMENTS.md must not drift between releases.

#![deny(missing_docs)]

use std::ops::Range;

/// SplitMix64: `z = (x += golden); mix(z)`.
///
/// Statistically strong for its size and stateless-feeling: every call
/// advances a counter and hashes it, so streams never short-cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Generator starting from `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* — the workspace's general-purpose generator.
///
/// Replaces `rand::rngs::StdRng` at every former call site. Seeding
/// with the same `u64` always produces the same stream, across
/// platforms and releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xoshiro256ss {
    s: [u64; 4],
}

impl Xoshiro256ss {
    /// Expands `seed` through [`SplitMix64`] into the 256-bit state, as
    /// the xoshiro reference implementation recommends.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // All-zero state is the one fixed point; the SplitMix64
        // expansion cannot produce it for any seed, but keep the guard
        // for direct state construction paths.
        debug_assert!(s.iter().any(|&w| w != 0));
        Xoshiro256ss { s }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // Standard bit-shift construction: top 53 bits scaled by 2⁻⁵³.
        (self.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) as f64))
    }

    /// Uniform draw from `range` (see [`SampleRange`] for the supported
    /// operand types). Panics on an empty range, matching `rand`.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform index into a non-empty slice-like collection of `len`
    /// elements.
    #[inline]
    pub fn gen_index(&mut self, len: usize) -> usize {
        self.gen_range(0..len)
    }
}

/// Range types [`Xoshiro256ss::gen_range`] can sample from, mirroring
/// the `rand` call sites the workspace ported away from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut Xoshiro256ss) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Xoshiro256ss) -> f64 {
        assert!(self.start < self.end, "empty f64 range");
        let span = self.end - self.start;
        // One rejection step keeps the result strictly below `end` even
        // when rounding in `start + u·span` lands exactly on `end`.
        loop {
            let v = self.start + rng.gen_f64() * span;
            if v < self.end {
                return v;
            }
        }
    }
}

impl SampleRange for Range<usize> {
    type Output = usize;
    #[inline]
    fn sample(self, rng: &mut Xoshiro256ss) -> usize {
        assert!(self.start < self.end, "empty usize range");
        let span = (self.end - self.start) as u64;
        self.start + bounded_u64(rng, span) as usize
    }
}

impl SampleRange for Range<u64> {
    type Output = u64;
    #[inline]
    fn sample(self, rng: &mut Xoshiro256ss) -> u64 {
        assert!(self.start < self.end, "empty u64 range");
        self.start + bounded_u64(rng, self.end - self.start)
    }
}

impl SampleRange for Range<u32> {
    type Output = u32;
    #[inline]
    fn sample(self, rng: &mut Xoshiro256ss) -> u32 {
        assert!(self.start < self.end, "empty u32 range");
        self.start + bounded_u64(rng, u64::from(self.end - self.start)) as u32
    }
}

/// Unbiased uniform draw from `[0, bound)` via Lemire-style rejection.
#[inline]
fn bounded_u64(rng: &mut Xoshiro256ss, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Rejection sampling on the top of the range removes modulo bias;
    // the loop rejects fewer than one draw in expectation for any bound.
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let r = rng.next_u64();
        let (hi, lo) = widening_mul(r, bound);
        if lo >= threshold {
            return hi;
        }
    }
}

/// 64×64→128-bit multiply returning `(high, low)` words.
#[inline]
fn widening_mul(a: u64, b: u64) -> (u64, u64) {
    let wide = u128::from(a) * u128::from(b);
    ((wide >> 64) as u64, wide as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c by Sebastiano Vigna.
        let mut sm = SplitMix64::new(1234567);
        let first: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(first[0], 6457827717110365317);
        assert_eq!(first[1], 3203168211198807973);
        assert_eq!(first[2], 9817491932198370423);
    }

    #[test]
    fn xoshiro_is_deterministic_per_seed() {
        let mut a = Xoshiro256ss::seed_from_u64(42);
        let mut b = Xoshiro256ss::seed_from_u64(42);
        let mut c = Xoshiro256ss::seed_from_u64(43);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = Xoshiro256ss::seed_from_u64(7);
        let n = 20_000;
        let mut sum = 0.0;
        let mut low = 0usize;
        for _ in 0..n {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
            if v < 0.5 {
                low += 1;
            }
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let frac = low as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "below-half fraction {frac}");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = Xoshiro256ss::seed_from_u64(99);
        for _ in 0..10_000 {
            let f = rng.gen_range(-3.5..7.25);
            assert!((-3.5..7.25).contains(&f));
            let u = rng.gen_range(5usize..17);
            assert!((5..17).contains(&u));
            let w = rng.gen_range(0u64..3);
            assert!(w < 3);
            let x = rng.gen_range(10u32..11);
            assert_eq!(x, 10);
        }
    }

    #[test]
    fn integer_ranges_hit_every_value() {
        let mut rng = Xoshiro256ss::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all of 0..10 drawn: {seen:?}");
    }

    #[test]
    fn bounded_draw_is_unbiased_enough() {
        // Chi-squared-ish sanity test over a bound that does not divide
        // 2^64 (the case rejection sampling exists for).
        let mut rng = Xoshiro256ss::seed_from_u64(11);
        let bound = 7u64;
        let n = 70_000;
        let mut counts = [0usize; 7];
        for _ in 0..n {
            counts[bounded_u64(&mut rng, bound) as usize] += 1;
        }
        let expected = n as f64 / bound as f64;
        for (v, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "value {v} count {c} deviates {dev}");
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = Xoshiro256ss::seed_from_u64(5);
        let n = 50_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "p=0.3 measured {frac}");
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        let mut rng = Xoshiro256ss::seed_from_u64(1);
        let _ = rng.gen_range(5usize..5);
    }
}
