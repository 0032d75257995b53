//! Recording-on integration: per-query stage attribution, flight
//! recorder, and heatmap, end to end through `Engine::submit` — the
//! bit-identical guarantee that arming recording changes no answer, and
//! a live engine under the snapshot exporter with an injected slow
//! query, and per-query NA/PA that stay exact under concurrent workers.
//!
//! Lives in its own integration-test process because recording
//! ([`lbq_obs::set_recording`]) and the flight recorder are
//! process-global: unit tests inside the crates must not see the flag
//! flipped mid-run. One `#[test]` for the same reason: the phases must
//! not race each other on that state.

#[path = "../../obs/tests/support/json.rs"]
mod json;

use json::Value as Json;
use lbq_core::LbqServer;
use lbq_geom::{Point, Rect};
use lbq_obs::{QueryKind, RecorderConfig};
use lbq_rtree::{Item, RTree, RTreeConfig};
use lbq_serve::{CacheConfig, Engine, EngineConfig, HotConfig, QueryReq, QueryResp};
use std::sync::Arc;
use std::time::Duration;

fn grid_server(n_side: u64) -> Arc<LbqServer> {
    let universe = Rect::new(0.0, 0.0, n_side as f64, n_side as f64);
    let items: Vec<Item> = (0..n_side * n_side)
        .map(|i| Item::new(Point::new((i % n_side) as f64, (i / n_side) as f64), i))
        .collect();
    Arc::new(LbqServer::new(
        RTree::bulk_load(items, RTreeConfig::default()),
        universe,
    ))
}

fn workload(n: usize) -> Vec<QueryReq> {
    (0..n)
        .map(|i| match i % 3 {
            0 => QueryReq::knn(Point::new((i % 17) as f64 + 0.3, (i % 13) as f64 + 0.6), 4),
            1 => QueryReq::knn(Point::new((i % 11) as f64 + 0.1, (i % 19) as f64 + 0.2), 8),
            _ => QueryReq::window(
                Point::new((i % 15) as f64 + 0.5, (i % 9) as f64 + 0.5),
                1.25,
                0.75,
            ),
        })
        .collect()
}

fn ids_of(resps: &[QueryResp]) -> Vec<Vec<u64>> {
    resps.iter().map(|r| r.answer.result_ids()).collect()
}

#[test]
fn attribution_recorder_and_heatmap_end_to_end() {
    let server = grid_server(20);
    let reqs = workload(120);

    // Baseline pass with recording off: answers and zeroed stages.
    let off = Engine::new(Arc::clone(&server), EngineConfig::with_workers(3));
    let baseline = off.submit(reqs.clone());
    assert!(baseline.iter().all(|r| r.stages.is_zero()));

    // Arm recording. The slow threshold re-arms right at the rolling
    // p99 after a short warm-up, so the slow query the exporter phase
    // injects is captured deterministically.
    lbq_obs::init_recorder(RecorderConfig {
        capacity: 256,
        slow_min_samples: 64,
        slow_multiplier: 1,
        slow_floor_ns: 0,
    });
    assert!(lbq_obs::recording());

    let on = Engine::new(Arc::clone(&server), EngineConfig::with_workers(3));
    let recorded = on.submit(reqs.clone());

    // Recording only observes. With the memo tiers on, only the result
    // *sets* are comparable — within a batch, whether a query hits an
    // entry that a concurrent tile just inserted depends on worker
    // scheduling; `exporter_smoke` compares whole answers with the
    // tiers off.
    assert_eq!(ids_of(&baseline), ids_of(&recorded));

    // Ids are request-ordered; every miss carries non-zero attribution.
    let ids: Vec<u64> = recorded.iter().map(|r| r.query_id).collect();
    assert_eq!(ids, (0..reqs.len() as u64).collect::<Vec<u64>>());
    let misses: Vec<&QueryResp> = recorded.iter().filter(|r| !r.from_cache).collect();
    assert!(!misses.is_empty(), "fresh engine must miss");
    for r in &misses {
        assert!(
            !r.stages.is_zero(),
            "miss {} has all-zero stage attribution",
            r.query_id
        );
    }
    // kNN misses spend time in the tree kNN; windows in the window pass.
    let knn_ns: u64 = misses
        .iter()
        .map(|r| r.stages.get(lbq_obs::Stage::TreeKnn))
        .sum();
    let window_ns: u64 = misses
        .iter()
        .map(|r| r.stages.get(lbq_obs::Stage::WindowPass))
        .sum();
    assert!(knn_ns > 0, "no time attributed to tree kNN");
    assert!(window_ns > 0, "no time attributed to the window pass");

    // A second identical batch is served from cache: its responses
    // attribute cache-lookup time and fresh ids.
    let cached = on.submit(reqs.clone());
    assert!(cached.iter().all(|r| r.from_cache));
    assert_eq!(
        cached[0].query_id,
        reqs.len() as u64,
        "ids continue across batches"
    );
    assert_eq!(ids_of(&cached), ids_of(&baseline));

    // The flight recorder saw every recorded query...
    let rec = lbq_obs::recorder().expect("recorder armed");
    let stats = rec.stats();
    assert_eq!(stats.total, 2 * reqs.len() as u64);
    // ...and its ring holds the most recent events, kinds intact.
    let recent = rec.recent();
    assert!(!recent.is_empty());
    assert!(recent
        .iter()
        .all(|(_, ev)| matches!(ev.kind, QueryKind::Knn | QueryKind::Window)));

    // Heatmap: the engine's tile counters saw exactly the same queries.
    let heat = lbq_obs::heatmap("serve-tile-heat");
    let tiles = heat.snapshot();
    assert!(!tiles.is_empty(), "heatmap empty after recorded batches");
    let hits: u64 = tiles.iter().map(|t| t.hits).sum();
    assert_eq!(hits, 2 * reqs.len() as u64);

    // Stage histograms aggregated across queries: the kNN misses timed
    // their tree traversal.
    let tree_knn = &lbq_obs::stage_histograms()[lbq_obs::Stage::TreeKnn as usize];
    assert!(tree_knn.summary().count > 0, "no tree-knn stage recorded");

    exporter_smoke(&reqs);
    accesses_are_per_query();
}

/// Each recorded event's NA/PA is its own query's cost: with the memo
/// tiers off, at one worker and at four, every event equals the
/// request's single-threaded `with_stats` measurement. A tree-global
/// meter diff would fold concurrent workers' accesses into it.
fn accesses_are_per_query() {
    let data = lbq_data::uniform(20_000, Rect::new(0.0, 0.0, 20.0, 20.0), 0xACCE55);
    let server = Arc::new(LbqServer::new(
        RTree::bulk_load(data.items, RTreeConfig::default()),
        data.universe,
    ));
    // Fewer requests than the ring holds, so none is overwritten.
    let reqs: Vec<QueryReq> = (0..200u32)
        .map(|i| {
            let q = Point::new(
                f64::from(i * 37 % 200) * 0.1 + 0.03,
                f64::from(i * 91 % 200) * 0.1 + 0.07,
            );
            if i % 4 == 3 {
                QueryReq::window(q, 0.4, 0.3)
            } else {
                QueryReq::knn(q, 1 + (i % 10) as usize)
            }
        })
        .collect();
    let mut scratch = lbq_rtree::QueryScratch::new();
    let want: Vec<(u32, u32)> = reqs
        .iter()
        .map(|req| {
            let (_, s) = server
                .tree()
                .with_stats(|_| lbq_serve::answer_on_with(&server, req, &mut scratch));
            let na = u32::try_from(s.node_accesses).expect("small NA");
            let pa = u32::try_from(s.page_faults).expect("small PA");
            (na, pa)
        })
        .collect();
    lbq_obs::set_recording(true);
    let rec = lbq_obs::recorder().expect("recorder armed");
    for workers in [1, 4] {
        let engine = Engine::new(
            Arc::clone(&server),
            EngineConfig {
                cache: CacheConfig::disabled(),
                hot: HotConfig::disabled(),
                ..EngineConfig::with_workers(workers)
            },
        );
        let first = rec.stats().total;
        let resps = engine.submit(reqs.clone());
        assert_eq!(resps.len(), reqs.len());
        let events: Vec<_> = rec
            .recent()
            .into_iter()
            .filter(|(ticket, _)| *ticket >= first)
            .map(|(_, ev)| ev)
            .collect();
        assert_eq!(
            events.len(),
            reqs.len(),
            "{workers} workers: one event per request"
        );
        for ev in events {
            let i = usize::try_from(ev.query_id).expect("small id");
            assert_eq!(
                (ev.node_accesses, ev.page_accesses),
                want[i],
                "{workers} workers: request {i} NA/PA"
            );
        }
    }
}

/// A live engine under the snapshot exporter: whole answers identical
/// obs-on vs obs-off, an injected pathological query captured as slow,
/// and every exported JSONL line well-formed.
fn exporter_smoke(reqs: &[QueryReq]) {
    let data = lbq_data::uniform(20_000, Rect::new(0.0, 0.0, 20.0, 20.0), 0xFEED);
    let server = Arc::new(LbqServer::new(
        RTree::bulk_load(data.items, RTreeConfig::default()),
        data.universe,
    ));
    // Memo tiers off: every answer is then a function of its request.
    let submit = |reqs: &[QueryReq]| -> Vec<String> {
        let config = EngineConfig {
            cache: CacheConfig::disabled(),
            hot: HotConfig::disabled(),
            ..EngineConfig::with_workers(3)
        };
        Engine::new(Arc::clone(&server), config)
            .submit(reqs.to_vec())
            .iter()
            .map(|r| format!("{:?}", r.answer))
            .collect()
    };
    lbq_obs::set_recording(false);
    let baseline = submit(reqs);
    lbq_obs::set_recording(true);

    let path = std::env::temp_dir().join(format!("lbq-obs-smoke-{}.jsonl", std::process::id()));
    let exporter =
        lbq_obs::install_exporter(&path, Duration::from_millis(40)).expect("open snapshot sink");
    for _ in 0..4 {
        for (i, (off, on)) in baseline.iter().zip(submit(reqs)).enumerate() {
            assert_eq!(*off, on, "request {i}: recorded answer diverged");
        }
    }
    // A k three orders of magnitude above the workload's: its latency
    // dwarfs the cheap-query p99.
    let rec = lbq_obs::recorder().expect("recorder armed");
    let captured_before = rec.stats().slow_captured;
    submit(&[QueryReq::knn(Point::new(10.0, 10.0), 4_000)]);
    let stats = rec.stats();
    assert!(
        stats.slow_captured > captured_before,
        "injected slow query was not captured (threshold {} ns, p99 {} ns)",
        stats.threshold_ns,
        stats.latency.p99_ns
    );
    drop(exporter); // the final snapshot flushes on shutdown

    let text = std::fs::read_to_string(&path).expect("read snapshot file");
    let _ = std::fs::remove_file(&path);
    let (mut snapshots, mut trailers, mut heat_tiles, mut recorder_lines) = (0, 0, 0, 0);
    let mut injected_exported = false;
    for line in text.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("unparseable line {line:?}: {e}"));
        match v.get("type").and_then(Json::as_str) {
            Some("snapshot") => snapshots += 1,
            Some("snapshot-end") => trailers += 1,
            Some("heatmap") => {
                heat_tiles += v.get("tiles").and_then(Json::as_arr).map_or(0, <[_]>::len)
            }
            Some("recorder") => recorder_lines += 1,
            Some("slow-query") => {
                assert!(v.get("latency-ns").and_then(Json::as_f64).is_some());
                injected_exported |= v.get("k").and_then(Json::as_f64) == Some(4_000.0);
            }
            Some("metric") => {}
            other => panic!("unknown record type {other:?} in {line:?}"),
        }
    }
    assert_eq!(snapshots, trailers, "unbalanced snapshot/trailer lines");
    assert!(heat_tiles >= 1, "exported heatmap is empty");
    assert!(recorder_lines >= 1, "no recorder stats exported");
    assert!(
        injected_exported,
        "the injected slow query was not exported"
    );
}
