//! Micro-benchmarks: server-side latency of every query type the
//! paper's server executes, at N = 100k uniform points with the paper's
//! page geometry.
//!
//! These complement the NA/PA tables (the paper's cost metric is I/O;
//! this is the CPU side of the same operations). Formerly criterion;
//! now a plain `harness = false` main over
//! [`lbq_bench::microbench::bench`] so the workspace builds offline.
//!
//! Run with `cargo bench -p lbq-bench --bench queries`.

use lbq_bench::microbench::bench;
use lbq_core::{retrieve_influence_set, window_with_validity};
use lbq_data::{paper_query_points, uniform_unit};
use lbq_geom::{Point, Rect, Vec2};
use lbq_rtree::{Item, RTree, RTreeConfig, TpBound};

fn setup(n: usize) -> (RTree, Rect, Vec<Point>) {
    let data = uniform_unit(n, 2003);
    let tree = RTree::bulk_load(data.items.clone(), RTreeConfig::paper());
    let queries = paper_query_points(&data, 7);
    (tree, data.universe, queries)
}

fn bench_knn() {
    let (tree, _, queries) = setup(100_000);
    for k in [1usize, 10, 100] {
        let mut i = 0;
        bench(&format!("knn/best_first/{k}"), || {
            i = (i + 1) % queries.len();
            tree.knn(queries[i], k)
        });
    }
}

fn bench_tpnn_bounds() {
    let (tree, _, queries) = setup(100_000);
    let inners: Vec<(Point, Vec<Item>)> = queries
        .iter()
        .take(64)
        .map(|&q| (q, tree.knn(q, 1).into_iter().map(|(i, _)| i).collect()))
        .collect();
    for (name, bound) in [("loose", TpBound::Loose), ("exact", TpBound::Exact)] {
        let mut i = 0;
        bench(&format!("tpnn_bound/{name}"), || {
            i = (i + 1) % inners.len();
            let (q, inner) = &inners[i];
            tree.tp_knn_with_bound(*q, Vec2::new(0.6, 0.8), 0.1, inner, bound)
        });
    }
}

fn bench_location_based_nn() {
    for n in [10_000usize, 100_000] {
        let (tree, universe, queries) = setup(n);
        for k in [1usize, 10] {
            let mut i = 0;
            bench(&format!("location_based_nn/n{n}/{k}"), || {
                i = (i + 1) % queries.len();
                let q = queries[i];
                let inner: Vec<Item> = tree.knn(q, k).into_iter().map(|(it, _)| it).collect();
                retrieve_influence_set(&tree, q, &inner, universe)
            });
        }
    }
}

fn bench_location_based_window() {
    let (tree, universe, queries) = setup(100_000);
    for frac in [0.0001f64, 0.001, 0.01] {
        let h = frac.sqrt() / 2.0;
        let mut i = 0;
        bench(&format!("location_based_window/qs{frac}"), || {
            i = (i + 1) % queries.len();
            window_with_validity(&tree, queries[i], h, h, universe)
        });
    }
}

fn bench_client_check() {
    // The client-side validity check the paper sizes its wire format
    // around: a handful of distance comparisons.
    let (tree, universe, queries) = setup(100_000);
    let q = queries[0];
    let inner: Vec<Item> = tree.knn(q, 1).into_iter().map(|(i, _)| i).collect();
    let (validity, _) = retrieve_influence_set(&tree, q, &inner, universe);
    let probe = Point::new(q.x + 1e-4, q.y - 1e-4);
    bench("client_validity_check", || {
        validity.contains(std::hint::black_box(probe))
    });
}

fn main() {
    // `LBQ_TRACE=text|jsonl` streams every query span to stderr.
    lbq_obs::install_from_env();
    bench_knn();
    bench_tpnn_bounds();
    bench_location_based_nn();
    bench_location_based_window();
    bench_client_check();
    // Global counters accumulated by the rtree probes over the run.
    println!();
    lbq_obs::print_metrics("bench totals");
}
