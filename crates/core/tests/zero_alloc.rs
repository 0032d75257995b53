//! Steady-state zero allocation of the cold-path kernels: once one
//! [`QueryScratch`] is warm on the exact call shapes, `RTree::knn_in`,
//! `RTree::tp_knn_with_bound_in`, `RTree::window_in`, `knn_region_in` (the serving path's region construction) and
//! `retrieve_influence_set_in` (the paper's TPNN chain) never touch the
//! heap, and `window_with_validity_in` allocates only its owned
//! response. The runtime twin of the `hot` annotations `lbq-check`
//! verifies statically.
//!
//! Counts come from the allocator shim shared with `lbq-obs`'s
//! zero-allocation test and are per thread, so the test harness cannot
//! interfere.

#[path = "../../obs/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use lbq_core::{knn_region_in, retrieve_influence_set_in, window_with_validity_in};
use lbq_geom::{Point, Rect, Vec2};
use lbq_rtree::{Item, QueryScratch, RTree, RTreeConfig, TpBound};
use std::hint::black_box;

const QUERIES: usize = 64;
const K: usize = 10;
const T_MAX: f64 = 0.25;
/// Half-extent of the window queries.
const H: f64 = 0.01;

/// Allocations the calling thread makes across `iters` calls of `f`.
///
/// Every kernel is warmed over all `QUERIES` foci before it is measured:
/// a buffer shared between kernels (the best-first frontier, say) must
/// reach each kernel's own high-water mark, not ride on whatever an
/// earlier kernel happened to grow it to.
fn allocs_over(iters: usize, mut f: impl FnMut(usize)) -> u64 {
    let before = allocations();
    for i in 0..iters {
        f(i % QUERIES);
    }
    allocations() - before
}

#[test]
fn warm_scratch_kernels_allocate_nothing() {
    let data = lbq_data::uniform_unit(10_000, 0xC0FFEE);
    let universe = data.universe;
    let mut rng = lbq_rng::Xoshiro256ss::seed_from_u64(7);
    let foci: Vec<Point> = (0..QUERIES)
        .map(|_| Point::new(0.05 + 0.9 * rng.gen_f64(), 0.05 + 0.9 * rng.gen_f64()))
        .collect();
    let dirs: Vec<Vec2> = (0..QUERIES)
        .map(|_| {
            let a = rng.gen_f64() * std::f64::consts::TAU;
            Vec2::new(a.cos(), a.sin())
        })
        .collect();

    let tree = RTree::bulk_load(data.items, RTreeConfig::paper());
    let mut scratch = QueryScratch::new();
    let inners: Vec<Item> = foci
        .iter()
        .map(|&q| tree.knn_in(q, 1, &mut scratch)[0].0)
        .collect();
    let mut knn = |j: usize| {
        black_box(tree.knn_in(foci[j], K, &mut scratch).len());
    };
    allocs_over(QUERIES, &mut knn);
    assert_eq!(allocs_over(200, &mut knn), 0, "knn_in");

    let mut tpnn = |j: usize| {
        let inner = std::slice::from_ref(&inners[j]);
        let (q, d) = (foci[j], dirs[j]);
        black_box(tree.tp_knn_with_bound_in(q, d, T_MAX, inner, TpBound::Loose, &mut scratch));
    };
    allocs_over(QUERIES, &mut tpnn);
    assert_eq!(allocs_over(200, &mut tpnn), 0, "tp_knn_with_bound_in");

    let window_of = |c: Point| Rect::new(c.x - H, c.y - H, c.x + H, c.y + H);
    let mut window = |j: usize| {
        black_box(tree.window_in(&window_of(foci[j]), &mut scratch).len());
    };
    allocs_over(QUERIES, &mut window);
    assert_eq!(allocs_over(200, &mut window), 0, "window_in");

    // The whole region retrieval (TPNN chain + pair list + polygon
    // clipping) runs on the scratch too.
    let mut region = |j: usize| {
        let inner = std::slice::from_ref(&inners[j]);
        black_box(retrieve_influence_set_in(&tree, foci[j], inner, universe, &mut scratch).1);
    };
    allocs_over(QUERIES, &mut region);
    let region_allocs = allocs_over(100, &mut region);
    // Debug builds clone every region into the invariant trap
    // (`invariants::debug_validate_nn`); ci.sh runs this test under
    // `--release`, where the trap is compiled out.
    if !cfg!(debug_assertions) {
        assert_eq!(region_allocs, 0, "retrieve_influence_set_in");
    }

    // The serving path's nearest-first pass: candidate fetch, result,
    // pair list and polygon all on the scratch.
    let mut pass = |j: usize| {
        black_box(knn_region_in(&tree, foci[j], K, universe, &mut scratch).2);
    };
    allocs_over(QUERIES, &mut pass);
    let pass_allocs = allocs_over(200, &mut pass);
    if !cfg!(debug_assertions) {
        assert_eq!(pass_allocs, 0, "knn_region_in");
    }

    // The window pass: the split result descent, the resumed candidate
    // descent and the minimization all run on the scratch; what is left
    // is the owned response, one allocation per non-empty vector of
    // `result`, `inner_influence` and `outer_influence` (at most 3; an
    // empty window ships its nearest site as the one outer object).
    let owned = std::cell::Cell::new(0u64);
    let mut window_pass = |j: usize| {
        let resp = window_with_validity_in(&tree, foci[j], H, H, universe, &mut scratch);
        let v = &resp.validity;
        let vectors = [
            resp.result.len(),
            v.inner_influence.len(),
            v.outer_influence.len(),
        ];
        owned.set(owned.get() + vectors.iter().map(|&n| u64::from(n > 0)).sum::<u64>());
    };
    allocs_over(QUERIES, &mut window_pass);
    owned.set(0);
    let window_pass_allocs = allocs_over(200, &mut window_pass);
    let owned = owned.get();
    if !cfg!(debug_assertions) {
        assert!(owned > 0 && owned <= 3 * 200, "owned vectors {owned}");
        assert_eq!(window_pass_allocs, owned, "window_with_validity_in");
    }
}
