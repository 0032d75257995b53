//! A taxi drives across a synthetic North-America-like dataset of
//! populated places while continuously monitoring its k nearest
//! neighbors. Compares every strategy from the paper's Related Work on
//! the same trajectory: server queries, network payload, client checks.
//!
//! ```text
//! cargo run --release -p lbq-core --example moving_client
//! ```

use lbq_core::baselines::Zl01Server;
use lbq_core::client::{random_waypoint, simulate_nn, NnStrategy};
use lbq_data::na_like_sized;
use lbq_geom::Point;
use lbq_obs::{fmt_ns, ProfileTable};
use lbq_rtree::{RTree, RTreeConfig};

fn main() {
    // 30k populated places on a 7000 km square continent.
    let data = na_like_sized(30_000, 42);
    println!("dataset: {} ({} points)", data.name, data.len());
    let tree = RTree::bulk_load(data.items.clone(), RTreeConfig::paper());
    let zl01 = Zl01Server::build(&data.items, data.universe);

    // A 2000-step drive; each step is 500 m.
    let traj = random_waypoint(
        data.universe,
        Point::new(3_500_000.0, 3_500_000.0),
        2_000,
        500.0,
        7,
    );
    println!(
        "trajectory: {} steps × 500 m = {:.0} km\n",
        traj.len() - 1,
        (traj.len() - 1) as f64 * 0.5
    );

    let k = 1;
    println!("continuous {k}-NN monitoring (every strategy verified exact at every step):\n");
    let mut table = ProfileTable::new(
        "nn strategies (k=1)",
        &[
            "strategy", "queries", "na", "pa", "shipped", "checks", "p50", "p95", "p99", "savings",
        ],
    );
    for (name, strat) in [
        ("naive (re-query)", NnStrategy::Naive),
        ("LBQ (this paper)", NnStrategy::Lbq),
        ("SR01 (m=6)", NnStrategy::Sr01 { m: 6 }),
        ("SR01 (m=20)", NnStrategy::Sr01 { m: 20 }),
        ("ZL01 (Voronoi)", NnStrategy::Zl01),
        ("TP (velocity)", NnStrategy::Tp),
    ] {
        let r = simulate_nn(&tree, data.universe, &traj, k, strat, Some(&zl01));
        table.row(&[
            name.to_string(),
            r.server_queries.to_string(),
            r.na.to_string(),
            r.pa.to_string(),
            r.objects_shipped.to_string(),
            r.validity_checks.to_string(),
            fmt_ns(r.latency.p50_ns),
            fmt_ns(r.latency.p95_ns),
            fmt_ns(r.latency.p99_ns),
            format!("{:.1}%", r.savings_ratio() * 100.0),
        ]);
    }
    table.print();
    println!();
    // Workspace-global counters fed by the rtree probes and the client
    // cache (na/pa here include the harness's verification queries).
    lbq_obs::print_metrics("global counters");

    println!(
        "\nLBQ's validity region is exact (the full order-k Voronoi cell), so it \
         re-queries only when the answer really changes; SR01 and ZL01 hold \
         conservative regions and give up earlier, TP expires on every turn."
    );
}
