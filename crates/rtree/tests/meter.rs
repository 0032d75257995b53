//! The NA/PA meter under concurrent readers: every query counts its
//! node accesses locally and flushes them once, so the tree meter and
//! the global `rtree-node-accesses` / `rtree-page-faults` counters both
//! equal the sum of the queries' single-threaded counts at any thread
//! count. This file holds one test so that nothing else in its process
//! feeds the global counters.

use lbq_geom::Point;
use lbq_rtree::{QueryScratch, RTree, RTreeConfig};
use std::sync::Arc;

const THREADS: usize = 4;
const PER_THREAD: usize = 200;

#[test]
fn obs_counters_equal_tree_meter_under_concurrency() {
    let data = spread_items(20_000);
    let tree = Arc::new(RTree::bulk_load(data, RTreeConfig::paper()));
    let focus = |w: usize, i: usize| {
        let s = (w * PER_THREAD + i) as f64;
        Point::new((s * 0.618_034).fract(), (s * 0.414_214).fract())
    };
    let mut per_query = 0u64;
    for w in 0..THREADS {
        for i in 0..PER_THREAD {
            per_query += tree.with_stats(|t| t.knn(focus(w, i), 10)).1.node_accesses;
        }
    }
    let na = lbq_obs::counter("rtree-node-accesses");
    let pa = lbq_obs::counter("rtree-page-faults");
    let (na0, pa0, tree0) = (na.get(), pa.get(), tree.stats());
    let handles: Vec<_> = (0..THREADS)
        .map(|w| {
            let tree = Arc::clone(&tree);
            std::thread::spawn(move || {
                let mut scratch = QueryScratch::new();
                for i in 0..PER_THREAD {
                    tree.knn_in(focus(w, i), 10, &mut scratch);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let delta = tree.stats().delta_since(tree0);
    assert_eq!(delta.node_accesses, per_query, "tree meter");
    assert_eq!(delta.page_faults, per_query, "tree meter, unbuffered");
    assert_eq!(na.get() - na0, per_query, "rtree-node-accesses");
    assert_eq!(pa.get() - pa0, per_query, "rtree-page-faults");
}

/// `n` items spread over the unit square by a low-discrepancy walk.
fn spread_items(n: usize) -> Vec<lbq_rtree::Item> {
    (0..n)
        .map(|i| {
            let s = i as f64 + 0.5;
            lbq_rtree::Item::new(
                Point::new((s * 0.754_877_666).fract(), (s * 0.569_840_291).fract()),
                i as u64,
            )
        })
        .collect()
}
