//! Hot-tile Voronoi tier equivalence: with the fast path armed, the
//! engine must be *observably identical* to the cold pipeline — same
//! result set for every query, hot or cold — while actually serving a
//! measurable share of a skewed stream from memoized cells.
//!
//! The hot tier memoizes anchored answers (like the region cache), so
//! kNN result *ordering* and the `query` focus may reflect the anchor
//! rather than the probe point. Equivalence is therefore checked on
//! the sorted result-id set — the paper's Lemma 3.1 guarantees it is
//! invariant across the validity region — plus `valid_at(q)`, which
//! the lookup is required to verify before serving.

use lbq_core::LbqServer;
use lbq_data::uniform;
use lbq_geom::{Point, Rect};
use lbq_rng::Xoshiro256ss;
use lbq_rtree::{RTree, RTreeConfig};
use lbq_serve::{answer_on, CacheConfig, CacheTier, Engine, EngineConfig, HotConfig, QueryReq};
use std::sync::Arc;

fn build_server(n: usize, seed: u64) -> Arc<LbqServer> {
    let data = uniform(n, Rect::new(0.0, 0.0, 1.0, 1.0), seed);
    Arc::new(LbqServer::new(
        RTree::bulk_load(data.items, RTreeConfig::tiny()),
        data.universe,
    ))
}

/// A hot-tile friendly config: promote after a handful of probes and
/// fetch a wide apron so tiles at this site density hold enough
/// neighbors for small-k lookups to pass the soundness gates.
fn eager_hot() -> HotConfig {
    HotConfig {
        promote_after: 8,
        margin: 2.0,
        ..HotConfig::default()
    }
}

/// A mixed stream: bursts hammering a few hotspot tiles (small k, the
/// hot tier's target) interleaved with uniform cold kNN and window
/// queries that must flow through the ordinary pipeline untouched.
fn mixed_stream(count: usize, seed: u64) -> Vec<QueryReq> {
    let mut rng = Xoshiro256ss::seed_from_u64(seed);
    let hotspots = [
        Point::new(0.31, 0.52),
        Point::new(0.72, 0.28),
        Point::new(0.55, 0.81),
    ];
    (0..count)
        .map(|_| {
            if rng.gen_bool(0.7) {
                let c = hotspots[rng.gen_range(0.0..3.0) as usize];
                let p = Point::new(
                    c.x + (rng.gen_range(0.0..1.0) - 0.5) * 0.01,
                    c.y + (rng.gen_range(0.0..1.0) - 0.5) * 0.01,
                );
                QueryReq::knn(p, 1 + (rng.gen_range(0.0..3.0) as usize))
            } else {
                let p = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
                if rng.gen_bool(0.5) {
                    QueryReq::knn(p, 1 + (rng.gen_range(0.0..8.0) as usize))
                } else {
                    QueryReq::window(p, rng.gen_range(0.01..0.05), rng.gen_range(0.01..0.05))
                }
            }
        })
        .collect()
}

fn focus(req: &QueryReq) -> Point {
    match *req {
        QueryReq::Knn { q, .. } => q,
        QueryReq::Window { c, .. } => c,
    }
}

/// Every answer from a hot-enabled engine — whatever tier served it —
/// carries the same result-id set as the on-line construction, and its
/// validity region contains the probe point. The skewed stream must
/// actually exercise the fast path, or the test is vacuous; uniform
/// traffic must never promote a tile, or cold queries pay for builds.
#[test]
fn mixed_hot_cold_stream_matches_baseline() {
    let server = build_server(4_000, 3);
    let reqs = mixed_stream(2_000, 17);
    let baseline: Vec<Vec<u64>> = reqs
        .iter()
        .map(|r| answer_on(&server, r).result_ids())
        .collect();
    for workers in [1, 4] {
        let engine = Engine::new(
            Arc::clone(&server),
            EngineConfig {
                workers,
                cache: CacheConfig::disabled(),
                hot: eager_hot(),
                ..EngineConfig::default()
            },
        );
        let mut hot_served = 0u64;
        for (ci, chunk) in reqs.chunks(200).enumerate() {
            let offset = ci * 200;
            let resps = engine.submit(chunk.to_vec());
            for (i, resp) in resps.iter().enumerate() {
                let req = &reqs[offset + i];
                assert_eq!(
                    resp.answer.result_ids(),
                    baseline[offset + i],
                    "tier {:?} diverged from on-line construction for {req:?}",
                    resp.tier,
                );
                assert!(
                    resp.answer.valid_at(focus(req)),
                    "served answer's validity region excludes the probe point",
                );
                if resp.tier == CacheTier::HotVoronoi {
                    hot_served += 1;
                }
            }
        }
        let stats = engine.hot_stats();
        assert!(
            stats.promotions > 0 && stats.hits > 0 && hot_served > 0,
            "skewed stream never exercised the hot tier \
             (promotions {}, hits {}, hot responses {hot_served})",
            stats.promotions,
            stats.hits,
        );
        assert_eq!(stats.hits, hot_served, "stats disagree with response tiers");
    }

    // 64 distinct uniform batches under the default config: about two
    // probes per hot tile, far below `promote_after`.
    let engine = Engine::new(
        server,
        EngineConfig {
            cache: CacheConfig::disabled(),
            ..EngineConfig::default()
        },
    );
    let mut rng = Xoshiro256ss::seed_from_u64(31);
    for _ in 0..64 {
        let batch = (0..128)
            .map(|_| QueryReq::knn(Point::new(rng.gen_f64(), rng.gen_f64()), 10))
            .collect();
        engine.submit(batch);
    }
    assert_eq!(engine.hot_stats().promotions, 0, "uniform stream promoted");
}

/// Promotion/demotion churn racing concurrent submits must be
/// invisible in the results: a config that demotes every tile at every
/// decay sweep (and instantly re-promotes it) changes *when* the fast
/// path answers, never *what* it answers.
#[test]
fn promotion_churn_under_concurrent_submits_never_changes_results() {
    let server = build_server(4_000, 5);
    let engine = Arc::new(Engine::new(
        Arc::clone(&server),
        EngineConfig {
            workers: 4,
            cache: CacheConfig::disabled(),
            hot: HotConfig {
                promote_after: 4,
                // Higher than any halved counter can sit: every decay
                // sweep demotes every promoted tile.
                demote_below: u64::MAX,
                decay_every: 64,
                margin: 2.0,
                ..HotConfig::default()
            },
            ..EngineConfig::default()
        },
    ));
    let threads = 4;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let reqs = mixed_stream(600, 100 + t);
                for chunk in reqs.chunks(50) {
                    let resps = engine.submit(chunk.to_vec());
                    for (req, resp) in chunk.iter().zip(&resps) {
                        assert_eq!(
                            resp.answer.result_ids(),
                            answer_on(&server, req).result_ids(),
                            "churn changed a result for {req:?}",
                        );
                        assert!(resp.answer.valid_at(focus(req)));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter panicked");
    }
    let stats = engine.hot_stats();
    assert!(
        stats.demotions > 0,
        "churn config produced no demotions (promotions {}) — test is vacuous",
        stats.promotions,
    );
    assert!(
        stats.promotions > stats.demotions || stats.promotions >= 2,
        "tiles never re-promoted after demotion",
    );
}

/// The default engine keeps the hot tier on; a `disabled()` config
/// must never probe, promote, or report hot-tier responses.
#[test]
fn disabled_hot_tier_is_inert() {
    let server = build_server(1_000, 9);
    let engine = Engine::new(
        Arc::clone(&server),
        EngineConfig {
            workers: 2,
            cache: CacheConfig::disabled(),
            hot: HotConfig::disabled(),
            ..EngineConfig::default()
        },
    );
    for chunk in mixed_stream(400, 23).chunks(100) {
        for resp in engine.submit(chunk.to_vec()) {
            assert_ne!(resp.tier, CacheTier::HotVoronoi);
        }
    }
    let stats = engine.hot_stats();
    assert_eq!((stats.promotions, stats.hits, stats.misses), (0, 0, 0));
    assert_eq!(stats.hot_tiles, 0);
}
