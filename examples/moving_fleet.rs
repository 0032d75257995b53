//! A fleet of moving clients against the concurrent batched engine.
//!
//! Hundreds of taxis drive random-waypoint trajectories over a
//! NA-like dataset while continuously monitoring either their k
//! nearest neighbors or a window around themselves. Each simulation
//! tick gathers one batched [`lbq_serve::Engine::submit`] call from
//! every client whose cached validity region no longer contains it —
//! the paper's client-side caching — and the engine's server-side
//! region cache absorbs a further slice of those before they reach the
//! tree.
//!
//! ```text
//! cargo run --release -p lbq-serve --example moving_fleet
//! ```
//!
//! Set `LBQ_OBS_SNAPSHOT=fleet.jsonl,500ms` to arm the flight recorder
//! and stream periodic observability snapshots (stage histograms,
//! hot-tile heatmap, slow-query captures) to `fleet.jsonl` while the
//! fleet runs.

use lbq_core::client::random_waypoint;
use lbq_core::LbqServer;
use lbq_data::na_like_sized;
use lbq_geom::Point;
use lbq_obs::ProfileTable;
use lbq_rtree::{RTree, RTreeConfig};
use lbq_serve::{CacheTier, Engine, EngineConfig, QueryAnswer, QueryReq};
use std::sync::Arc;
use std::time::Instant;

struct Client {
    traj: Vec<Point>,
    kind: ClientKind,
    cached: Option<Arc<QueryAnswer>>,
}

enum ClientKind {
    Knn { k: usize },
    Window { hx: f64, hy: f64 },
}

impl Client {
    fn request_at(&self, pos: Point) -> QueryReq {
        match self.kind {
            ClientKind::Knn { k } => QueryReq::knn(pos, k),
            ClientKind::Window { hx, hy } => QueryReq::window(pos, hx, hy),
        }
    }
}

fn main() {
    let exporter = lbq_obs::install_exporter_from_env();
    let data = na_like_sized(20_000, 42);
    println!("dataset: {} ({} points)", data.name, data.len());
    let server = Arc::new(LbqServer::new(
        RTree::bulk_load(data.items.clone(), RTreeConfig::paper()),
        data.universe,
    ));
    let engine = Engine::new(Arc::clone(&server), EngineConfig::default());
    println!(
        "engine: {} workers, region cache {}\n",
        engine.workers(),
        if engine.cache().is_disabled() {
            "disabled"
        } else {
            "enabled"
        }
    );

    // 240 clients in 40 depots (6 per depot — co-located clients are
    // what the *server-side* cache exists for): half monitor kNN, half
    // a 60 km window; each drives 200 steps of 2 km.
    let fleet = 240;
    let steps = 200;
    let mut clients: Vec<Client> = (0..fleet)
        .map(|c| {
            let depot = data.items[(c % 40) * 97 % data.items.len()].point;
            Client {
                traj: random_waypoint(data.universe, depot, steps, 2_000.0, c as u64),
                kind: if c % 2 == 0 {
                    ClientKind::Knn { k: 1 + c % 2 }
                } else {
                    ClientKind::Window {
                        hx: 30_000.0,
                        hy: 30_000.0,
                    }
                },
                cached: None,
            }
        })
        .collect();

    let mut client_hits = 0u64; // steps answered on the client
    let mut submitted = 0u64; // requests reaching the engine
    let mut hot_hits = 0u64; // answered by the hot-tile Voronoi tier
    let mut cache_hits = 0u64; // answered by the server region cache
    let mut tree_queries = 0u64; // full traversals
    let started = Instant::now();
    let stats_before = server.tree().stats();
    for step in 0..=steps {
        // Clients whose cached region still holds answer locally.
        let mut batch = Vec::new();
        let mut owners = Vec::new();
        for (c, client) in clients.iter().enumerate() {
            let pos = client.traj[step];
            match &client.cached {
                Some(ans) if ans.valid_at(pos) => client_hits += 1,
                _ => {
                    batch.push(client.request_at(pos));
                    owners.push(c);
                }
            }
        }
        submitted += batch.len() as u64;
        let resps = engine.submit(batch);
        for (owner, resp) in owners.into_iter().zip(resps) {
            match resp.tier {
                CacheTier::HotVoronoi => hot_hits += 1,
                CacheTier::Cache => cache_hits += 1,
                CacheTier::Tree => tree_queries += 1,
                CacheTier::TreeGroup => unreachable!("the engine answers every miss alone"),
            }
            clients[owner].cached = Some(resp.answer);
        }
    }
    let elapsed = started.elapsed();
    let tree_cost = server.tree().stats().delta_since(stats_before);

    let total_steps = (fleet * (steps + 1)) as u64;
    let mut table = ProfileTable::new("moving fleet", &["tier", "answered", "share"]);
    let pct = |n: u64| format!("{:.1}%", n as f64 / total_steps as f64 * 100.0);
    table.row(&[
        "client region".into(),
        client_hits.to_string(),
        pct(client_hits),
    ]);
    table.row(&["hot voronoi".into(), hot_hits.to_string(), pct(hot_hits)]);
    table.row(&[
        "server cache".into(),
        cache_hits.to_string(),
        pct(cache_hits),
    ]);
    table.row(&["r-tree".into(), tree_queries.to_string(), pct(tree_queries)]);
    table.row(&["total steps".into(), total_steps.to_string(), String::new()]);
    table.print();
    println!();

    let per_query = |v: u64| {
        if tree_queries == 0 {
            0.0
        } else {
            v as f64 / tree_queries as f64
        }
    };
    println!(
        "engine: {submitted} requests in {:.2?} ({:.0} q/s), NA/query {:.1}, PA/query {:.1}\n",
        elapsed,
        submitted as f64 / elapsed.as_secs_f64(),
        per_query(tree_cost.node_accesses),
        per_query(tree_cost.page_faults),
    );
    engine.profile_table().print();
    println!();
    lbq_obs::print_metrics("global counters");
    let hot = engine.hot_stats();
    println!(
        "\nValidity regions answer {:.1}% of all steps before the tree is touched \
         (client-side {:.1}%, hot voronoi {:.1}%, server cache {:.1}%).",
        (client_hits + hot_hits + cache_hits) as f64 / total_steps as f64 * 100.0,
        client_hits as f64 / total_steps as f64 * 100.0,
        hot_hits as f64 / total_steps as f64 * 100.0,
        cache_hits as f64 / total_steps as f64 * 100.0,
    );
    println!(
        "hot tier: {} tiles promoted ({} demoted), {} cells materialized, \
         {}/{} probe hits",
        hot.promotions,
        hot.demotions,
        hot.cells,
        hot.hits,
        hot.misses + hot.hits,
    );
    if let Some(exporter) = exporter {
        if let Some(rec) = lbq_obs::recorder() {
            let s = rec.stats();
            println!(
                "\nflight recorder: {} records, {} slow captures (threshold {})",
                s.total,
                s.slow_captured,
                lbq_obs::fmt_ns(s.threshold_ns),
            );
        }
        // Dropping the exporter flushes one final snapshot block.
        drop(exporter);
    }
}
