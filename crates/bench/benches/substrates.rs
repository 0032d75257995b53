//! Micro-benchmarks for the substrates: STR R-tree construction,
//! Delaunay/Voronoi construction (the `[ZL01]`
//! precomputation the paper argues against), and Minskew builds.
//!
//! Formerly criterion; now a plain `harness = false` main over
//! [`lbq_bench::microbench::bench`] so the workspace builds offline.
//!
//! Run with `cargo bench -p lbq-bench --bench substrates`.

use lbq_bench::microbench::bench;
use lbq_data::uniform_unit;
use lbq_hist::Minskew;
use lbq_rtree::{RTree, RTreeConfig};
use lbq_voronoi::VoronoiDiagram;

fn bench_tree_build() {
    for n in [10_000usize, 100_000] {
        let data = uniform_unit(n, 5);
        bench(&format!("rtree_build/bulk_str/{n}"), || {
            RTree::bulk_load(data.items.clone(), RTreeConfig::paper())
        });
    }
}

fn bench_voronoi_precompute() {
    // The [ZL01] server-side precomputation; compare against
    // `location_based_nn` in queries.rs to see the paper's point: one
    // diagram build pays for a great many on-the-fly validity regions.
    for n in [1_000usize, 5_000] {
        let data = uniform_unit(n, 9);
        let pts = data.points();
        bench(&format!("voronoi_precompute/{n}"), || {
            VoronoiDiagram::build(&pts, data.universe)
        });
    }
}

fn bench_minskew_build() {
    let data = uniform_unit(100_000, 4);
    let pts = data.points();
    bench("minskew_build/100k_500buckets", || {
        Minskew::paper(&pts, data.universe)
    });
}

fn main() {
    bench_tree_build();
    bench_voronoi_precompute();
    bench_minskew_build();
}
