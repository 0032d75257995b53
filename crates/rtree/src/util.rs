//! Small utilities shared by the tree algorithms.

use crate::node::NodeId;
use std::cmp::Ordering;

/// Arena index of a node id. `u32 → usize` is lossless on every
/// platform this crate supports (the arena itself could not be addressed
/// otherwise); routing every hop through this helper keeps the
/// narrowing-cast lints meaningful at the remaining sites.
#[inline]
pub(crate) fn idx(id: NodeId) -> usize {
    // u32 → usize is widening here
    id as usize
}

/// Node id for an arena slot index. The arena is bounded far below
/// `u32::MAX` nodes (≈4 G pages ≈ 16 TB at the paper's 4 KB page size),
/// so overflow means a bug, and the conversion is checked exactly once —
/// here.
#[inline]
#[expect(clippy::expect_used, reason = "arena cannot reach u32::MAX slots")]
pub(crate) fn node_id(i: usize) -> NodeId {
    i.try_into().expect("node arena exceeded u32::MAX slots")
}

/// A totally ordered `f64` wrapper for priority queues.
///
/// All values produced by the tree (distances, influence times) are
/// finite or `+∞`; NaNs indicate a bug upstream, so construction asserts
/// against them in debug builds and `cmp` treats NaN as greatest to stay
/// total in release builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl OrdF64 {
    /// Wraps `v`, debug-asserting it is not NaN.
    #[inline]
    pub fn new(v: f64) -> Self {
        debug_assert!(!v.is_nan(), "NaN entered a priority queue");
        OrdF64(v)
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).unwrap_or_else(|| {
            // NaN sorts last; keeps the order total without panicking in
            // release builds.
            match (self.0.is_nan(), other.0.is_nan()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (false, false) => unreachable!(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_like_f64() {
        let mut v = vec![OrdF64::new(3.0), OrdF64::new(-1.0), OrdF64::new(2.5)];
        v.sort();
        assert_eq!(
            v,
            vec![OrdF64::new(-1.0), OrdF64::new(2.5), OrdF64::new(3.0)]
        );
    }

    #[test]
    fn infinity_sorts_last() {
        let mut v = [OrdF64::new(f64::INFINITY), OrdF64::new(0.0)];
        v.sort();
        assert_eq!(v[0], OrdF64::new(0.0));
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn usable_in_binary_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut h = BinaryHeap::new();
        for x in [4.0, 1.0, 3.0] {
            h.push(Reverse(OrdF64::new(x)));
        }
        assert_eq!(h.pop().unwrap().0 .0, 1.0);
        assert_eq!(h.pop().unwrap().0 .0, 3.0);
        assert_eq!(h.pop().unwrap().0 .0, 4.0);
    }
}
