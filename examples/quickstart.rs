//! Quickstart: build a location-based query server, ask for the nearest
//! restaurant, and see how long the answer stays valid as you move.
//!
//! ```text
//! cargo run --release -p lbq-core --example quickstart
//! ```

use lbq_core::LbqServer;
use lbq_geom::{Point, Rect};
use lbq_obs::ProfileTable;
use lbq_rtree::{Item, RTree, RTreeConfig};

fn main() {
    // A 10 km × 10 km city with a handful of restaurants (meters).
    let universe = Rect::new(0.0, 0.0, 10_000.0, 10_000.0);
    let restaurants = [
        ("Noodle Bar", Point::new(5_000.0, 5_000.0)),
        ("Pierogi Palace", Point::new(1_200.0, 4_800.0)),
        ("Taco Stand", Point::new(8_700.0, 5_300.0)),
        ("Curry Corner", Point::new(5_100.0, 900.0)),
        ("Dumpling House", Point::new(4_900.0, 9_200.0)),
        ("Burger Bus", Point::new(7_800.0, 8_100.0)),
        ("Falafel Cart", Point::new(2_300.0, 1_700.0)),
    ];
    let items: Vec<Item> = restaurants
        .iter()
        .enumerate()
        .map(|(i, (_, p))| Item::new(*p, i as u64))
        .collect();
    let server = LbqServer::new(RTree::bulk_load(items, RTreeConfig::tiny()), universe);

    // The client asks: "nearest restaurant to me?"
    let me = Point::new(5_300.0, 4_700.0);
    let resp = server.knn_with_validity(me, 1);
    let nn = resp.result[0];
    println!("you are at {me}");
    println!(
        "nearest restaurant: {} at {} ({:.0} m away)",
        restaurants[nn.id as usize].0,
        nn.point,
        me.dist(nn.point)
    );

    // The server also returned a validity region: the Voronoi cell of
    // the answer, encoded as |S_inf| influence objects.
    println!(
        "validity region: {} edges, {:.2} km², influence set of {} objects",
        resp.validity.edge_count(),
        resp.validity.area() / 1e6,
        resp.validity.influence_count()
    );
    println!(
        "(the server tested {} nearby objects to build it)",
        resp.tpnn_queries
    );

    // Walk east and check locally — no server contact — until the
    // cached answer expires.
    println!("\nwalking east, checking the cached answer locally:");
    let mut pos = me;
    let mut revalidations = 0;
    loop {
        pos = Point::new(pos.x + 250.0, pos.y);
        let inside = resp.validity.contains(pos);
        revalidations += 1;
        println!(
            "  at x={:>6.0}: cached answer {}",
            pos.x,
            if inside {
                "still valid ✓"
            } else {
                "EXPIRED — re-query"
            }
        );
        if !inside {
            break;
        }
    }
    let fresh = server.knn_with_validity(pos, 1);
    println!(
        "\nafter {} free checks, one real query: nearest is now {}",
        revalidations - 1,
        restaurants[fresh.result[0].id as usize].0
    );

    println!();
    let mut profile = ProfileTable::new("quickstart", &["quantity", "value"]);
    profile
        .row(&[
            "region edges".to_string(),
            resp.validity.edge_count().to_string(),
        ])
        .row(&[
            "influence objects".to_string(),
            resp.validity.influence_count().to_string(),
        ])
        .row(&["objects tested".to_string(), resp.tpnn_queries.to_string()])
        .row(&[
            "free local checks".to_string(),
            (revalidations - 1).to_string(),
        ]);
    profile.print();
    println!();
    lbq_obs::print_metrics("global counters");
}
