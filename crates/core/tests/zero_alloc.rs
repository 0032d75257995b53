//! Steady-state zero allocation of the cold-path kernels: once one
//! [`QueryScratch`] is warm on the exact call shapes, `RTree::knn_in`,
//! `RTree::tp_nn_in` and `retrieve_influence_set_in` never touch the
//! heap — on a `bulk_load` tree and on its `repack()`ed twin. The
//! runtime twin of the `hot` annotations `lbq-check` verifies statically.
//!
//! Counts come from the allocator shim shared with `lbq-obs`'s
//! zero-allocation test and are per thread, so the test harness cannot
//! interfere.

#[path = "../../obs/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use lbq_core::retrieve_influence_set_in;
use lbq_geom::{Point, Vec2};
use lbq_rtree::{Item, QueryScratch, RTree, RTreeConfig};
use std::hint::black_box;

const QUERIES: usize = 64;
const K: usize = 10;
const T_MAX: f64 = 0.25;

/// Allocations the calling thread makes across `iters` calls of `f`.
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

    let built = RTree::bulk_load(data.items, RTreeConfig::paper());
    let packed = built.repack();
    for (name, tree) in [("bulk_load", &built), ("repack", &packed)] {
        let mut scratch = QueryScratch::new();
        let inners: Vec<Item> = foci
            .iter()
            .map(|&q| tree.knn_in(q, 1, &mut scratch)[0].0)
            .collect();
        let mut knn = |j: usize| {
            black_box(tree.knn_in(foci[j], K, &mut scratch).len());
        };
        allocs_over(32, &mut knn);
        assert_eq!(allocs_over(200, &mut knn), 0, "{name}: knn_in");

        let mut tpnn = |j: usize| {
            black_box(tree.tp_nn_in(foci[j], dirs[j], T_MAX, inners[j], &mut scratch));
        };
        allocs_over(32, &mut tpnn);
        assert_eq!(allocs_over(200, &mut tpnn), 0, "{name}: tp_nn_in");

        // The whole region retrieval (TPNN chain + pair list + polygon
        // clipping) runs on the scratch too.
        let mut region = |j: usize| {
            let inner = std::slice::from_ref(&inners[j]);
            black_box(retrieve_influence_set_in(tree, foci[j], inner, universe, &mut scratch).1);
        };
        allocs_over(QUERIES, &mut region);
        let region_allocs = allocs_over(100, &mut region);
        // Debug builds clone every region into the invariant trap
        // (`invariants::debug_validate_nn`); ci.sh runs this test under
        // `--release`, where the trap is compiled out.
        if !cfg!(debug_assertions) {
            assert_eq!(region_allocs, 0, "{name}: retrieve_influence_set_in");
        }
    }
}
