//! Reusable query scratch space.
//!
//! Every query algorithm in this crate has a `_in(&mut QueryScratch)`
//! variant that performs **zero heap allocations in steady state**: all
//! working storage (best-first frontier, k-candidate array, DFS stacks,
//! output buffers) lives in the scratch and retains its capacity across
//! calls. The classic allocating entry points (`knn`, `window`, …)
//! delegate to the `_in` variants with a fresh scratch, so results are
//! identical by construction.
//!
//! The k-candidate set is a plain array rather than the usual
//! `BinaryHeap` + id-keyed `HashMap` pair. The best-first kNN appends
//! unordered and compacts to the best k with one selection per heap
//! pop; the group traversal keeps it sorted by insertion. Either way candidates are keyed by their slot, not by
//! `item.id`, so two distinct points sharing a user-supplied id can no
//! longer silently collapse into one result.

use crate::node::{Item, NodeId};
use crate::stats::Stats;
use crate::util::OrdF64;
use lbq_geom::{ConvexPolygon, Point, Rect, UnionScratch};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A result candidate: squared distance plus the item itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub(crate) dist_sq: f64,
    pub(crate) item: Item,
}

/// Bounded best-k candidate array under the total `(dist_sq, item.id)`
/// order.
///
/// Two ways to fill it, never mixed within one query:
/// * **Sorted** ([`CandidateSet::consider`]): every offer is a sorted
///   insert, so the slots stay ascending and [`CandidateSet::worst`] is
///   the k-th distance. The group traversal uses it.
/// * **Batched** ([`CandidateSet::push`], [`CandidateSet::compact`],
///   [`CandidateSet::sort`]): a leaf scan appends its survivors
///   unordered, one `select_nth_unstable` per heap pop keeps the best
///   k and yields the exact k-th distance, and one sort at the end
///   restores the output order. The best-first kernel
///   ([`crate::RTree::knn_core`]) uses it.
///
/// Candidates are addressed by slot, so duplicate ids coexist.
#[derive(Debug, Default)]
pub(crate) struct CandidateSet {
    k: usize,
    slots: Vec<Candidate>,
}

/// The candidate order: ascending distance, ties broken by id, then by
/// position (so two points sharing an id and a distance still have a
/// defined winner, whatever order they arrive in).
#[inline]
fn by_dist_id(a: &Candidate, b: &Candidate) -> Ordering {
    a.dist_sq
        .total_cmp(&b.dist_sq)
        .then(a.item.id.cmp(&b.item.id))
        .then(a.item.point.x.total_cmp(&b.item.point.x))
        .then(a.item.point.y.total_cmp(&b.item.point.y))
}

impl CandidateSet {
    /// Empties the set and re-arms it for a new query with capacity `k`.
    /// Retains the backing allocation.
    pub(crate) fn reset(&mut self, k: usize) {
        self.slots.clear();
        self.k = k;
    }

    /// `true` when all `k` slots are occupied.
    #[inline]
    pub(crate) fn full(&self) -> bool {
        self.slots.len() == self.k
    }

    /// The pruning bound of the sorted mode: the k-th best squared
    /// distance, or `+∞` while the set is not yet full.
    #[inline]
    pub(crate) fn worst(&self) -> f64 {
        if self.full() {
            self.slots.last().map_or(f64::INFINITY, |c| c.dist_sq)
        } else {
            f64::INFINITY
        }
    }

    /// Batched mode: appends a candidate without ordering or bounding.
    #[inline]
    pub(crate) fn push(&mut self, dist_sq: f64, item: Item) {
        self.slots.push(Candidate { dist_sq, item });
    }

    /// Batched mode: keeps the best k of the appended candidates (in no
    /// particular order) and returns the exact k-th squared distance,
    /// or `+∞` while fewer than k are held.
    pub(crate) fn compact(&mut self) -> f64 {
        let k = self.k;
        if k == 0 || self.slots.len() < k {
            return f64::INFINITY;
        }
        let (_, kth, _) = self.slots.select_nth_unstable_by(k - 1, by_dist_id);
        let bound = kth.dist_sq;
        self.slots.truncate(k);
        bound
    }

    /// Batched mode: restores the ascending `(dist_sq, id)` order after
    /// the last [`CandidateSet::compact`].
    pub(crate) fn sort(&mut self) {
        self.slots.sort_unstable_by(by_dist_id);
    }

    /// Offers a candidate: inserted while the set is under-full, or when
    /// it beats the current worst under the total `(dist_sq, id)` order
    /// (which is then evicted). Breaking distance ties by id — instead
    /// of first-seen-wins — makes the surviving k a function of the
    /// *point set alone*, not of traversal order, which is what lets
    /// trees packed from permuted input or at other capacities, and the
    /// shared-frontier group kNN, promise bit-identical results.
    pub(crate) fn consider(&mut self, dist_sq: f64, item: Item) {
        let cand = Candidate { dist_sq, item };
        if self.full() {
            #[expect(clippy::expect_used, reason = "full() implies k ≥ 1 slot")]
            let last = self.slots.last().expect("full set is non-empty");
            if by_dist_id(last, &cand) != Ordering::Greater {
                return;
            }
            self.slots.pop();
        }
        let pos = self
            .slots
            .partition_point(|c| by_dist_id(c, &cand) != Ordering::Greater);
        self.slots.insert(pos, cand);
    }

    /// The candidates: ascending by `(dist_sq, id)` in the sorted mode
    /// and after [`CandidateSet::sort`].
    #[inline]
    pub(crate) fn slots(&self) -> &[Candidate] {
        &self.slots
    }
}

/// Working buffers of the window validity construction in `lbq-core`
/// (its outer-candidate minimization). Plain storage: the construction
/// clears each buffer before use and only their capacity carries over.
#[derive(Debug, Default)]
pub struct WindowBuffers {
    /// Outer candidates `(item, Minkowski region ∩ inner rectangle)`.
    pub holes: Vec<(Item, Rect)>,
    /// The holes that survive containment dominance, then union
    /// minimality: the outer influence objects.
    pub kept: Vec<(Item, Rect)>,
    /// Per-hole keep flags of the union-minimality step, parallel to
    /// [`WindowBuffers::kept`].
    pub keep: Vec<bool>,
    /// The other kept holes clipped to the hole under test.
    pub others: Vec<Rect>,
    /// Sweep buffers of [`lbq_geom::rect_union_area_in`].
    pub union: UnionScratch,
}

/// Reusable working storage for the tree's query algorithms.
///
/// Create one per thread (it is cheap and `Send`), pass it to the `_in`
/// query variants (`RTree::knn_in`, `RTree::window_in`,
/// `RTree::tp_knn_with_bound_in`, …), and reuse it across queries: after a warm-up
/// call every buffer holds enough capacity and subsequent queries touch
/// the allocator zero times. A scratch carries no query state between
/// calls — every algorithm resets the buffers it uses — so interleaving
/// different query kinds on one scratch is always sound.
///
/// ```
/// # use lbq_rtree::{QueryScratch, RTree, RTreeConfig, Item};
/// # use lbq_geom::Point;
/// # let items = (0..100).map(|i| Item::new(Point::new(i as f64, 0.0), i)).collect();
/// # let tree = RTree::bulk_load(items, RTreeConfig::tiny());
/// let mut scratch = QueryScratch::new();
/// for i in 0..10 {
///     let res = tree.knn_in(Point::new(i as f64, 0.0), 3, &mut scratch);
///     assert_eq!(res.len(), 3);
/// }
/// ```
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Best-first frontier: min-heap of (lower bound, node).
    pub(crate) queue: BinaryHeap<Reverse<(OrdF64, NodeId)>>,
    /// Bounded best-k candidate array.
    pub(crate) cands: CandidateSet,
    /// Plain DFS stack (window traversals).
    pub(crate) stack: Vec<NodeId>,
    /// Output buffer for (item, distance) results.
    pub(crate) out_nn: Vec<(Item, f64)>,
    /// Output buffer for item results.
    pub(crate) out_items: Vec<Item>,
    /// Child entries `(MBR, node)` a split window query
    /// ([`crate::RTree::window_split_in`]) rejected inside its reach,
    /// for [`crate::RTree::window_resume_in`] to descend.
    pub(crate) split_entries: Vec<(Rect, NodeId)>,
    /// Leaf items the same split query read outside its window but
    /// inside its reach.
    pub(crate) split_items: Vec<Item>,
    /// The same split query's final reach: the box its caller proved
    /// holds the outer window, shrunk by every item it found.
    pub(crate) split_reach: Option<Rect>,
    /// Vertex-confirmation ring `(vertex, confirmed)` for the
    /// validity-region construction in `lbq-core`. Hosted here so the
    /// one scratch threaded through the TPNN chain also serves the
    /// region loop allocation-free.
    pub region_vertices: Vec<(Point, bool)>,
    /// Double buffer for [`QueryScratch::region_vertices`] (the flag
    /// carry across a polygon clip reads the old ring while writing the
    /// new one).
    pub region_spare: Vec<(Point, bool)>,
    /// Staging buffer for in-place polygon clipping
    /// ([`lbq_geom::ConvexPolygon::clip_in_place`]).
    pub region_clip: Vec<Point>,
    /// Influence pairs `(inner, outer)` backing the borrowed validity
    /// region returned by `lbq-core`'s zero-allocation region path —
    /// hosted here (as raw items; `lbq-core` wraps them) so the whole
    /// kNN → TPNN → region chain runs on one scratch.
    pub region_pairs: Vec<(Item, Item)>,
    /// Region polygon backing the same borrowed validity-region view.
    /// Retains vertex capacity across queries.
    pub region_polygon: ConvexPolygon,
    /// The kNN result backing `lbq-core`'s nearest-first region
    /// construction (the first k of its candidate fetch).
    pub region_inner: Vec<Item>,
    /// Per-vertex reach `max_i |v − i|²` over the result, parallel to
    /// [`QueryScratch::region_polygon`]'s vertices, for the same
    /// construction.
    pub region_reach: Vec<f64>,
    /// Working buffers of `lbq-core`'s window validity construction,
    /// hosted here so the whole window pass runs on one scratch.
    pub window: WindowBuffers,
    /// Per-query candidate arrays for the shared-frontier group kNN
    /// ([`crate::RTree::knn_group_in`]): slot `i` collects the best k of
    /// query `i` in the tile. Grows to the largest tile seen.
    pub(crate) group_cands: Vec<CandidateSet>,
    /// NA/PA of every query run on this scratch, summed. Plain fields:
    /// a scratch serves one thread, so unlike the tree-global meter the
    /// tally holds only this scratch's own queries.
    pub(crate) accesses: Stats,
    /// Precomputed `dist²(q, oᵢ)` for the probe's inner set — these are
    /// probe-invariant, so the leaf scans reuse them instead of
    /// recomputing one per (item, inner) pair.
    pub(crate) tp_inner_d2: Vec<f64>,
}

// Compile-time proof that a scratch can be handed to a worker thread:
// the serve pool owns one per worker for the pool's lifetime, so a
// field losing Send must fail the build. (Sync holds too — the scratch
// has no interior mutability — and asserting it keeps the bar high.)
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryScratch>();
};

impl QueryScratch {
    /// Creates an empty scratch. Buffers grow on first use and are
    /// retained afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// The NA/PA of every tree query run on this scratch so far. The
    /// difference of two readings is exactly the cost of the queries
    /// between them, however many other threads query the same tree —
    /// unlike [`crate::RTree::stats`], whose meter is tree-global.
    pub fn accesses(&self) -> Stats {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbq_geom::Point;

    fn item(id: u64) -> Item {
        Item::new(Point::new(id as f64, 0.0), id)
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn keeps_best_k_sorted() {
        let mut c = CandidateSet::default();
        c.reset(3);
        for (d, id) in [(9.0, 1), (1.0, 2), (4.0, 3), (16.0, 4), (2.0, 5)] {
            c.consider(d, item(id));
        }
        let got: Vec<(f64, u64)> = c.slots().iter().map(|c| (c.dist_sq, c.item.id)).collect();
        assert_eq!(got, vec![(1.0, 2), (2.0, 5), (4.0, 3)]);
        assert_eq!(c.worst(), 4.0);
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn worst_is_infinite_while_underfull() {
        let mut c = CandidateSet::default();
        c.reset(2);
        assert_eq!(c.worst(), f64::INFINITY);
        c.consider(5.0, item(0));
        assert!(!c.full());
        assert_eq!(c.worst(), f64::INFINITY);
        c.consider(7.0, item(1));
        assert!(c.full());
        assert_eq!(c.worst(), 7.0);
    }

    #[test]
    fn equal_distance_ties_resolve_by_id() {
        // The (dist², id) order is total: on a distance tie the smaller
        // id wins regardless of arrival order, so the surviving set is
        // independent of tree traversal order.
        let mut c = CandidateSet::default();
        c.reset(1);
        c.consider(3.0, item(7));
        c.consider(3.0, item(1));
        assert_eq!(c.slots()[0].item.id, 1);
        let mut c = CandidateSet::default();
        c.reset(1);
        c.consider(3.0, item(1));
        c.consider(3.0, item(7));
        assert_eq!(c.slots()[0].item.id, 1, "arrival order must not matter");
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins exactly representable results")]
    fn batched_mode_matches_sorted_mode() {
        let offers = [(9.0, 1), (1.0, 2), (4.0, 9), (4.0, 3), (16.0, 4), (2.0, 5)];
        let mut sorted = CandidateSet::default();
        sorted.reset(3);
        let mut batched = CandidateSet::default();
        batched.reset(3);
        assert_eq!(batched.compact(), f64::INFINITY, "under-full");
        for (d, id) in offers {
            sorted.consider(d, item(id));
            batched.push(d, item(id));
        }
        // The k-th under (dist², id): the tie at 4.0 goes to id 3.
        assert_eq!(batched.compact(), 4.0);
        assert_eq!(batched.slots().len(), 3);
        batched.sort();
        let ids = |c: &CandidateSet| c.slots().iter().map(|c| c.item.id).collect::<Vec<_>>();
        assert_eq!(ids(&batched), vec![2, 5, 3]);
        assert_eq!(ids(&batched), ids(&sorted));
    }

    #[test]
    fn duplicate_ids_occupy_distinct_slots() {
        let mut c = CandidateSet::default();
        c.reset(4);
        c.consider(1.0, Item::new(Point::new(1.0, 0.0), 42));
        c.consider(2.0, Item::new(Point::new(0.0, 1.4), 42));
        assert_eq!(c.slots().len(), 2, "same id must not collapse slots");
    }

    #[test]
    fn reset_retains_capacity() {
        let mut c = CandidateSet::default();
        c.reset(8);
        for i in 0..8 {
            c.consider(i as f64, item(i));
        }
        let cap = c.slots.capacity();
        c.reset(8);
        assert!(c.slots().is_empty());
        assert_eq!(c.slots.capacity(), cap);
    }
}
