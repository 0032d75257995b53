//! Asserts that a warm inline `Engine::submit` answered by the hot tier
//! allocates exactly once — the response vector it returns — and
//! nothing inside the engine: the runtime twin of the `hot` annotation
//! on the inline serve path.
//!
//! Counts come from the allocator shim shared with `lbq-obs`'s
//! zero-allocation test and are per thread: an inline submit runs on
//! the calling thread, so the pool workers and the test harness cannot
//! interfere.

#[path = "../../obs/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use lbq_core::LbqServer;
use lbq_geom::{Point, Rect};
use lbq_rtree::{Item, RTree, RTreeConfig};
use lbq_serve::{CacheTier, Engine, EngineConfig, HotConfig, QueryReq};
use std::sync::Arc;

#[test]
fn warm_inline_hot_hit_allocates_only_the_response_vector() {
    // A dense patch of sites in the middle of one hot tile (the hot
    // grid is 64 × 64 over the universe), skewed off the lattice.
    let universe = Rect::new(0.0, 0.0, 64.0, 64.0);
    let items: Vec<Item> = (0..900u64)
        .map(|i| {
            let skew = 0.001 * ((i * 7) % 5) as f64;
            Item::new(
                Point::new(
                    32.2 + 0.02 * (i % 30) as f64 + skew,
                    32.2 + 0.02 * (i / 30) as f64 - skew,
                ),
                i,
            )
        })
        .collect();
    let server = Arc::new(LbqServer::new(
        RTree::bulk_load(items, RTreeConfig::tiny()),
        universe,
    ));
    let engine = Engine::new(
        server,
        EngineConfig {
            workers: 1,
            hot: HotConfig {
                promote_after: 4,
                ..HotConfig::default()
            },
            ..EngineConfig::default()
        },
    );
    let foci = [
        Point::new(32.4137, 32.5271),
        Point::new(32.4719, 32.4453),
        Point::new(32.5533, 32.4911),
    ];
    let batch =
        |n: usize| -> Vec<QueryReq> { foci[..n].iter().map(|&q| QueryReq::knn(q, 4)).collect() };
    // Warm up. Promote the tile with traffic elsewhere in it first: a
    // cell is memoized by its first cache *miss* after promotion, and
    // a region cached before promotion would keep answering instead.
    for i in 0..8 {
        let q = Point::new(32.2537 + 0.01 * i as f64, 32.7137);
        engine.submit(vec![QueryReq::knn(q, 4)]);
    }
    // Then memoize the three cells, size the thread-local scratch and
    // initialise the lazily-registered metrics.
    for _ in 0..20 {
        engine.submit(batch(3));
    }
    // Request vectors belong to the caller: built outside the window.
    let mut prepared: Vec<Vec<QueryReq>> = (0..300).map(|i| batch(1 + i % 3)).collect();
    let mut answered = Vec::with_capacity(prepared.len());
    let before = allocations();
    for reqs in prepared.drain(..) {
        answered.push(engine.submit(reqs));
    }
    let allocated = allocations() - before;
    for resps in &answered {
        for r in resps {
            assert_eq!(r.tier, CacheTier::HotVoronoi);
            assert_eq!(r.worker, engine.workers(), "served inline");
        }
    }
    assert_eq!(
        allocated,
        answered.len() as u64,
        "a warm inline hot hit allocates its response vector and nothing else"
    );
}
