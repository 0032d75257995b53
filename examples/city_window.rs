//! A map viewport ("all points of interest within my 4 km × 3 km
//! screen") sliding along a street network. Demonstrates location-based
//! window queries: the inner validity rectangle, the Minkowski holes of
//! outer points, and the conservative rectangle a thin client can check
//! in constant time.
//!
//! ```text
//! cargo run --release -p lbq-core --example city_window
//! ```

use lbq_core::LbqServer;
use lbq_data::gr_like_sized;
use lbq_geom::Vec2;
use lbq_obs::ProfileTable;
use lbq_rtree::{RTree, RTreeConfig};

fn main() {
    // A Greece-like street network: 23,268 segment centroids on an
    // 800 km square (the paper's GR dataset, synthesized).
    let data = gr_like_sized(23_268, 3);
    println!("dataset: {} points along synthetic streets", data.len());
    let server = LbqServer::new(
        RTree::bulk_load(data.items.clone(), RTreeConfig::paper()),
        data.universe,
    );

    // Start the viewport on a street point so the screen isn't empty.
    let start = data.items[data.len() / 2].point;
    let (hx, hy) = (2_000.0, 1_500.0); // 4 km × 3 km screen
    let mut pos = start;
    let dir = Vec2::from_angle(0.4);
    let step = 120.0; // meters per pan

    let mut cached = server.window_with_validity(pos, hx, hy);
    let mut server_queries = 1usize;
    let mut free_pans = 0usize;
    let mut conservative_hits = 0usize;
    println!(
        "initial viewport at {pos}: {} POIs, validity region {:.3} km² \
         (inner rect {:.3} km², {} inner + {} outer influence objects)\n",
        cached.result.len(),
        cached.validity.area() / 1e6,
        cached.validity.inner_rect.area() / 1e6,
        cached.validity.inner_influence.len(),
        cached.validity.outer_influence.len(),
    );

    for pan in 1..=400 {
        pos = data.universe.clamp_point(pos + dir * step);
        // Cheap test first (4 comparisons), exact test second.
        if cached.validity.contains_conservative(pos) {
            conservative_hits += 1;
            free_pans += 1;
        } else if cached.validity.contains(pos) {
            free_pans += 1;
        } else {
            cached = server.window_with_validity(pos, hx, hy);
            server_queries += 1;
            if server_queries <= 6 {
                println!(
                    "pan {pan:>3}: re-query — {} POIs now, new region {:.3} km²",
                    cached.result.len(),
                    cached.validity.area() / 1e6
                );
            }
        }
    }

    println!();
    let mut profile = ProfileTable::new("city window (400 pans)", &["quantity", "value"]);
    profile
        .row(&["server queries".to_string(), server_queries.to_string()])
        .row(&["free pans".to_string(), free_pans.to_string()])
        .row(&[
            "o(1) conservative hits".to_string(),
            conservative_hits.to_string(),
        ])
        .row(&[
            "savings vs naive".to_string(),
            format!("{:.1}%", (1.0 - server_queries as f64 / 400.0) * 100.0),
        ]);
    profile.print();
    println!(
        "\nthe conservative rectangle answers most pans in 4 comparisons; the \
         exact region catches the rest; only real result changes hit the server"
    );
}
