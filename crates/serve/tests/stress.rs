//! Concurrency stress tests: the parallel engine must be
//! indistinguishable from the sequential server, byte for byte, and
//! the validity-region cache must be exactly as correct as the regions
//! it stores.
//!
//! No `loom` (the workspace is std-only): instead, determinism is
//! exploited — every query path is a pure function of the immutable
//! tree, so a parallel run can be compared against the sequential
//! baseline via the full `Debug` rendering of each response (floats
//! included). Any torn read, lost write, or cross-thread interference
//! would show up as a mismatch.

use lbq_core::LbqServer;
use lbq_data::uniform;
use lbq_geom::{Point, Rect};
use lbq_rng::Xoshiro256ss;
use lbq_rtree::{QueryScratch, RTree, RTreeConfig};
use lbq_serve::{
    answer_on, answer_on_with, CacheConfig, CacheTier, Engine, EngineConfig, HotConfig,
    QueryAnswer, QueryReq,
};
use std::sync::Arc;

fn build_server(n: usize, seed: u64) -> Arc<LbqServer> {
    let data = uniform(n, Rect::new(0.0, 0.0, 1.0, 1.0), seed);
    Arc::new(LbqServer::new(
        RTree::bulk_load(data.items, RTreeConfig::tiny()),
        data.universe,
    ))
}

/// A deterministic mixed workload: kNN (k 1–8) and window requests
/// scattered over the unit universe.
fn workload(count: usize, seed: u64) -> Vec<QueryReq> {
    let mut rng = Xoshiro256ss::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let p = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            if rng.gen_bool(0.5) {
                QueryReq::knn(p, 1 + (rng.gen_range(0.0..8.0) as usize))
            } else {
                QueryReq::window(p, rng.gen_range(0.01..0.05), rng.gen_range(0.01..0.05))
            }
        })
        .collect()
}

#[test]
fn parallel_results_byte_identical_to_sequential() {
    let server = build_server(5_000, 7);
    let reqs = workload(400, 11);
    let baseline: Vec<String> = reqs
        .iter()
        .map(|r| format!("{:?}", answer_on(&server, r)))
        .collect();
    for workers in [2, 4, 8] {
        let engine = Engine::new(
            Arc::clone(&server),
            EngineConfig {
                workers,
                cache: CacheConfig::disabled(),
                ..EngineConfig::default()
            },
        );
        let resps = engine.submit(reqs.clone());
        assert_eq!(resps.len(), baseline.len());
        for (i, (resp, expect)) in resps.iter().zip(&baseline).enumerate() {
            assert!(!resp.from_cache, "cache disabled");
            assert_eq!(
                format!("{:?}", resp.answer),
                *expect,
                "request {i} diverged under {workers} workers"
            );
        }
    }
}

#[test]
fn tiled_dispatch_byte_identical_to_untiled() {
    // The Hilbert tiling must be invisible in the output: same responses, same order, for
    // every tile size — including tiles that mix kNN ks and windows,
    // and duplicate foci that land in one tile.
    let server = build_server(4_000, 19);
    let mut reqs = workload(300, 29);
    reqs.extend_from_slice(&reqs.clone()[..50]); // duplicates
    let untiled = Engine::new(
        Arc::clone(&server),
        EngineConfig {
            workers: 3,
            cache: CacheConfig::disabled(),
            tile_size: 1,
            ..EngineConfig::default()
        },
    );
    let baseline: Vec<String> = untiled
        .submit(reqs.clone())
        .iter()
        .map(|r| format!("{:?}", r.answer))
        .collect();
    for tile_size in [2, 7, 32, 1024] {
        let tiled = Engine::new(
            Arc::clone(&server),
            EngineConfig {
                workers: 3,
                cache: CacheConfig::disabled(),
                tile_size,
                ..EngineConfig::default()
            },
        );
        let resps = tiled.submit(reqs.clone());
        assert_eq!(resps.len(), baseline.len());
        for (i, (resp, expect)) in resps.iter().zip(&baseline).enumerate() {
            assert_eq!(
                format!("{:?}", resp.answer),
                *expect,
                "request {i} diverged at tile size {tile_size}"
            );
        }
        let total: u64 = tiled.worker_summaries().iter().map(|s| s.jobs).sum();
        assert_eq!(
            total,
            reqs.len() as u64,
            "per-query accounting survives tiling"
        );
    }
}

/// Everything of a kNN answer that the cold path computes: result ids
/// in order, influence pair ids in discovery order, polygon vertex
/// bits and the TPNN probe count.
type KnnFingerprint = (Vec<u64>, Vec<(u64, u64)>, Vec<(u64, u64)>, usize);

fn knn_fingerprint(answer: &QueryAnswer) -> KnnFingerprint {
    let QueryAnswer::Knn(nn) = answer else {
        panic!("kNN request answered with a window");
    };
    (
        nn.result.iter().map(|i| i.id).collect(),
        nn.validity
            .pairs
            .iter()
            .map(|p| (p.inner.id, p.outer.id))
            .collect(),
        nn.validity
            .polygon
            .vertices()
            .iter()
            .map(|v| (v.x.to_bits(), v.y.to_bits()))
            .collect(),
        nn.tpnn_queries,
    )
}

#[test]
fn pooled_knn_batch_matches_the_per_query_kernel() {
    // A closed-loop-sized batch of uniform kNN misses through the
    // default pooled engine: every tile holds many same-k misses, and
    // each must come back exactly as the per-query kernel answers it
    // alone on a fresh scratch.
    let server = build_server(20_000, 61);
    let engine = Engine::new(
        Arc::clone(&server),
        EngineConfig {
            cache: CacheConfig::disabled(),
            hot: HotConfig::disabled(),
            ..EngineConfig::default()
        },
    );
    let mut rng = Xoshiro256ss::seed_from_u64(67);
    let reqs: Vec<QueryReq> = (0..256)
        .map(|i| {
            let p = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            QueryReq::knn(p, [1, 4, 10][i % 3])
        })
        .collect();
    assert!(reqs.len() > engine.tile_size(), "batch must take the pool");
    let resps = engine.submit(reqs.clone());
    assert_eq!(resps.len(), reqs.len());
    for (i, (req, resp)) in reqs.iter().zip(&resps).enumerate() {
        assert_eq!(resp.tier, CacheTier::Tree, "request {i}");
        let alone = answer_on_with(&server, req, &mut QueryScratch::new());
        assert_eq!(
            knn_fingerprint(&resp.answer),
            knn_fingerprint(&alone),
            "request {i} diverged from the per-query kernel"
        );
    }
}

#[test]
fn concurrent_submitters_each_get_exact_results() {
    let server = build_server(3_000, 23);
    let engine = Arc::new(Engine::new(
        Arc::clone(&server),
        EngineConfig {
            workers: 4,
            cache: CacheConfig::disabled(),
            ..EngineConfig::default()
        },
    ));
    // 4 submitter threads share the engine, each with its own batch;
    // batches interleave in the worker queue.
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let reqs = workload(150, 100 + t);
                let resps = engine.submit(reqs.clone());
                for (req, resp) in reqs.iter().zip(&resps) {
                    assert_eq!(
                        format!("{:?}", resp.answer),
                        format!("{:?}", answer_on(&server, req)),
                        "submitter {t} got a foreign or corrupted response"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter thread panicked");
    }
}

#[test]
fn cached_hit_returns_exact_cached_result_set() {
    let server = build_server(2_000, 31);
    let engine = Engine::new(Arc::clone(&server), EngineConfig::with_workers(2));

    let anchor = QueryReq::knn(Point::new(0.41, 0.63), 3);
    let first = engine.submit(vec![anchor]);
    assert!(!first[0].from_cache);
    let region_holds = |p: Point| first[0].answer.valid_at(p);

    // Pick a probe point strictly inside the anchor's validity region
    // by walking toward the anchor focus from a nearby offset.
    let mut probe = Point::new(0.41 + 3e-4, 0.63 - 2e-4);
    assert!(
        region_holds(probe) || {
            probe = anchor.focus();
            true
        }
    );
    let hit = engine.submit(vec![QueryReq::knn(probe, 3)]);
    assert!(hit[0].from_cache, "focus inside cached region must hit");
    // The exact cached result set (same Arc, even).
    assert!(Arc::ptr_eq(&hit[0].answer, &first[0].answer));
    assert_eq!(hit[0].answer.result_ids(), first[0].answer.result_ids());

    // A focus outside the region misses and recomputes.
    let outside = Point::new(0.91, 0.13);
    assert!(!region_holds(outside));
    let miss = engine.submit(vec![QueryReq::knn(outside, 3)]);
    assert!(!miss[0].from_cache, "focus outside cached region must miss");
    // And the recomputed answer matches the sequential server.
    assert_eq!(
        miss[0].answer.result_ids(),
        answer_on(&server, &QueryReq::knn(outside, 3)).result_ids()
    );
}

#[test]
fn cached_window_hit_is_exact() {
    let server = build_server(2_000, 37);
    let engine = Engine::new(Arc::clone(&server), EngineConfig::with_workers(2));
    let anchor = QueryReq::window(Point::new(0.5, 0.5), 0.06, 0.04);
    let first = engine.submit(vec![anchor]);
    assert!(!first[0].from_cache);

    // Inside the inner rectangle the result set cannot change.
    let nudged = QueryReq::window(anchor.focus(), 0.06, 0.04);
    let hit = engine.submit(vec![nudged]);
    assert!(hit[0].from_cache);
    assert_eq!(hit[0].answer.result_ids(), first[0].answer.result_ids());

    // Same focus, different window shape: a different query — miss.
    let other = engine.submit(vec![QueryReq::window(anchor.focus(), 0.05, 0.04)]);
    assert!(!other[0].from_cache);
}

#[test]
fn engine_under_cache_still_matches_sequential_result_sets() {
    // With the cache ON, responses may be anchored at an earlier
    // equivalent query — but the *result sets* must still be exactly
    // what the sequential server would return (that is Lemma 3.1/3.2
    // doing its job at serving time).
    let server = build_server(4_000, 43);
    let engine = Engine::new(Arc::clone(&server), EngineConfig::with_workers(4));
    // A workload with heavy focus reuse to actually exercise hits.
    let base = workload(120, 51);
    let mut reqs = Vec::new();
    let mut rng = Xoshiro256ss::seed_from_u64(99);
    for _ in 0..600 {
        reqs.push(base[rng.gen_range(0.0..base.len() as f64) as usize]);
    }
    let resps = engine.submit(reqs.clone());
    let mut hits = 0;
    for (req, resp) in reqs.iter().zip(&resps) {
        hits += usize::from(resp.from_cache);
        assert_eq!(
            resp.answer.result_ids(),
            answer_on(&server, req).result_ids(),
            "cache served a wrong result set"
        );
    }
    assert!(hits > 0, "repeated foci should produce cache hits");
    let stats = engine.cache().stats();
    assert_eq!(stats.hits as usize, hits);
}

/// Sites on the lattice `(i + off, j + off)`, `i, j < side`, ids row-major.
fn lattice(side: usize, off: f64) -> Vec<lbq_rtree::Item> {
    (0..side * side)
        .map(|n| {
            let (i, j) = (n / side, n % side);
            lbq_rtree::Item::new(Point::new(i as f64 + off, j as f64 + off), n as u64)
        })
        .collect()
}

/// The kNN answer of a one-request batch on a default engine.
fn served_knn(server: LbqServer, q: Point, k: usize) -> lbq_core::NnResponse {
    let engine = Engine::new(Arc::new(server), EngineConfig::default());
    let resp = engine.submit(vec![QueryReq::knn(q, k)]).remove(0);
    match &*resp.answer {
        QueryAnswer::Knn(nn) => nn.clone(),
        QueryAnswer::Window(_) => panic!("kNN request got a window answer"),
    }
}

#[test]
fn engine_serves_coincident_and_tied_sites_their_closed_cells() {
    // A repeated site is an outsider at the result's position: no panic,
    // and the region is the unit cell of the smaller id.
    let mut items = lattice(100, 0.0);
    items.push(lbq_rtree::Item::new(Point::new(50.0, 50.0), 10_000));
    let universe = Rect::new(0.0, 0.0, 100.0, 100.0);
    let nn = served_knn(
        LbqServer::from_items(items, universe),
        Point::new(50.2, 50.4),
        1,
    );
    assert_eq!(nn.result[0].id, 5050);
    assert_eq!(nn.validity.pairs.len(), 4);
    assert!((nn.validity.area() - 1.0).abs() < 1e-9);

    // A focus on a bisector: the tie goes to the smaller id, whose
    // closed cell has area 1 (not the 640 the TPNN chain reports).
    let universe = Rect::new(0.0, 0.0, 64.0, 64.0);
    let nn = served_knn(
        LbqServer::from_items(lattice(64, 0.5), universe),
        Point::new(10.0, 10.5),
        1,
    );
    assert_eq!(nn.result[0].point, Point::new(9.5, 10.5));
    assert!((nn.validity.area() - 1.0).abs() < 1e-9);

    // The same tied focus must not poison the cache: were its region
    // the 640-unit TPNN chain answer, the generic foci after it would
    // hit the cached entry and get a wrong neighbour. Submitted one at
    // a time and as one batch, behind the tied query on a fresh
    // engine each; every answer is checked against brute force, where
    // any site at the minimum distance is right.
    let sites = lattice(64, 0.5);
    let server = Arc::new(LbqServer::from_items(sites.clone(), universe));
    let mut rng = Xoshiro256ss::seed_from_u64(0x9015E);
    let foci: Vec<QueryReq> = (0..1_000)
        .map(|_| {
            QueryReq::knn(
                Point::new(rng.gen_range(5.0..15.0), rng.gen_range(5.0..15.0)),
                1,
            )
        })
        .collect();
    let check = |req: &QueryReq, answer: &QueryAnswer, how: &str| {
        let (QueryReq::Knn { q, .. }, QueryAnswer::Knn(nn)) = (req, answer) else {
            panic!("{how}: kNN request got a window answer");
        };
        let best = sites
            .iter()
            .map(|s| q.dist_sq(s.point))
            .fold(f64::INFINITY, f64::min);
        let got = q.dist_sq(nn.result[0].point);
        assert!(got <= best, "{how}: focus {q} got {:?}", nn.result[0]);
    };
    let tied = QueryReq::knn(Point::new(10.0, 10.5), 1);
    let engine = Engine::new(Arc::clone(&server), EngineConfig::default());
    engine.submit(vec![tied]);
    for req in &foci {
        check(req, &engine.submit(vec![*req])[0].answer, "one at a time");
    }
    let engine = Engine::new(Arc::clone(&server), EngineConfig::default());
    engine.submit(vec![tied]);
    for (req, resp) in foci.iter().zip(engine.submit(foci.clone())) {
        check(req, &resp.answer, "one batch");
    }
}

#[test]
fn window_outsider_sharing_a_result_id_still_cuts_the_region() {
    // Two sites share id 0: one inside the window (5, 5) ± 1, one
    // outside whose Minkowski region [5.5, 7.5] × [4, 6] cuts the inner
    // rectangle [4.5, 5.6] × [4.3, 6]. Outsiders are chosen by
    // position, not by id: were the outsider dropped for sharing a
    // result's id, the strip x ∈ [5.5, 5.6] would be accepted, and the
    // window there holds it.
    let items = vec![
        lbq_rtree::Item::new(Point::new(4.6, 5.0), 0),
        lbq_rtree::Item::new(Point::new(5.5, 5.3), 1),
        lbq_rtree::Item::new(Point::new(6.5, 5.0), 0),
    ];
    let universe = Rect::new(0.0, 0.0, 10.0, 10.0);
    let (c, h) = (Point::new(5.0, 5.0), 1.0);
    let sites = |q: Point| {
        let w = Rect::centered(q, h, h);
        let mut v: Vec<(u64, u64, u64)> = items
            .iter()
            .filter(|it| w.contains(it.point))
            .map(|it| (it.id, it.point.x.to_bits(), it.point.y.to_bits()))
            .collect();
        v.sort_unstable();
        v
    };
    let answer_sites = |answer: &QueryAnswer| {
        let QueryAnswer::Window(w) = answer else {
            panic!("window request got a kNN answer");
        };
        let mut v: Vec<(u64, u64, u64)> = w
            .result
            .iter()
            .map(|it| (it.id, it.point.x.to_bits(), it.point.y.to_bits()))
            .collect();
        v.sort_unstable();
        v
    };
    // Probes off the lattice of edges, over and around the inner
    // rectangle.
    let probes: Vec<Point> = (0..45)
        .flat_map(|i| (0..45).map(move |j| (i, j)))
        .map(|(i, j)| Point::new(4.0013 + 0.05 * i as f64, 4.0029 + 0.05 * j as f64))
        .collect();
    let baseline = sites(c);
    assert_eq!(baseline.len(), 2);
    let check = |v: &lbq_core::WindowValidity, how: &str| {
        let mut accepted = 0;
        for &p in &probes {
            if v.contains(p) {
                accepted += 1;
                assert_eq!(sites(p), baseline, "{how}: region accepts {p}");
            }
        }
        assert!(accepted > 100, "{how}: region accepts {accepted} probes");
        assert!(!v.contains(Point::new(5.58, 5.0)), "{how}: no hole");
    };

    let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
    let mut scratch = QueryScratch::new();
    let resp = lbq_core::window_with_validity_in(&tree, c, h, h, universe, &mut scratch);
    assert_eq!(resp.validity.outer_influence.len(), 1);
    check(&resp.validity, "window_with_validity_in");

    // A default engine: the miss, then every probe behind it, so the
    // foci inside the cached region are answered from it.
    let server = Arc::new(LbqServer::from_items(items.clone(), universe));
    let engine = Engine::new(server, EngineConfig::default());
    let first = engine.submit(vec![QueryReq::window(c, h, h)]).remove(0);
    let QueryAnswer::Window(w) = &*first.answer else {
        panic!("window request got a kNN answer");
    };
    check(&w.validity, "engine");
    let reqs: Vec<QueryReq> = probes.iter().map(|&p| QueryReq::window(p, h, h)).collect();
    let mut hits = 0;
    for (p, resp) in probes.iter().zip(engine.submit(reqs)) {
        hits += usize::from(resp.from_cache);
        assert_eq!(answer_sites(&resp.answer), sites(*p), "engine at {p}");
    }
    assert!(hits > 0, "no probe was answered from the cache");
}

#[test]
fn focus_outside_the_universe_gets_a_region_containing_it() {
    // Sites on a 25-unit lattice over [1e6, 1e6 + 500] × [2e6, 2e6 + 500];
    // every focus lies left of that universe. Clipped to the universe
    // alone, the kNN cell and the window's inner rectangle of the near
    // focus exclude it, and the far focus's window collapses to a point.
    let (x0, y0) = (1e6, 2e6);
    let items: Vec<lbq_rtree::Item> = lattice(20, 0.5)
        .into_iter()
        .map(|it| {
            let p = Point::new(x0 + 25.0 * it.point.x, y0 + 25.0 * it.point.y);
            lbq_rtree::Item::new(p, it.id)
        })
        .collect();
    let universe = Rect::new(x0, y0, x0 + 500.0, y0 + 500.0);
    let server = Arc::new(LbqServer::from_items(items.clone(), universe));
    let (k, h) = (3, 20.0);
    let brute = |req: &QueryReq, p: Point| -> Vec<u64> {
        let mut ids: Vec<u64> = match *req {
            QueryReq::Knn { .. } => {
                let mut by_dist: Vec<(f64, u64)> = items
                    .iter()
                    .map(|it| (p.dist_sq(it.point), it.id))
                    .collect();
                by_dist.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                by_dist.into_iter().take(k).map(|(_, id)| id).collect()
            }
            QueryReq::Window { hx, hy, .. } => {
                let w = Rect::centered(p, hx, hy);
                items
                    .iter()
                    .filter(|it| w.contains(it.point))
                    .map(|it| it.id)
                    .collect()
            }
        };
        ids.sort_unstable();
        ids
    };
    // The answer at the focus, then soundness at off-lattice probes
    // around it: wherever the region holds, the brute-force answer
    // there is the one shipped.
    let check = |req: &QueryReq, answer: &QueryAnswer, how: &str| {
        let focus = req.focus();
        assert!(answer.valid_at(focus), "{how}: region excludes {focus}");
        assert_eq!(answer.result_ids(), brute(req, focus), "{how}: answer");
        for (i, j) in (0..41).flat_map(|i| (0..41).map(move |j| (i, j))) {
            let p = Point::new(
                focus.x - 60.0 + 3.0013 * f64::from(i),
                focus.y - 60.0 + 3.0029 * f64::from(j),
            );
            if answer.valid_at(p) {
                assert_eq!(
                    brute(req, p),
                    answer.result_ids(),
                    "{how}: region accepts {p}"
                );
            }
        }
    };
    let near = Point::new(x0 - 3.0, y0 + 100.0);
    let far = Point::new(x0 - 300.0, y0 + 250.0);
    let reqs = [
        QueryReq::knn(near, k),
        QueryReq::window(near, h, h),
        QueryReq::knn(far, k),
        QueryReq::window(far, h, h),
    ];
    let mut scratch = QueryScratch::new();
    let engine = Engine::new(Arc::clone(&server), EngineConfig::default());
    for req in &reqs {
        let direct = match *req {
            QueryReq::Knn { q, k } => {
                QueryAnswer::Knn(server.knn_with_validity_in(q, k, &mut scratch))
            }
            QueryReq::Window { c, hx, hy } => {
                QueryAnswer::Window(server.window_with_validity_in(c, hx, hy, &mut scratch))
            }
        };
        check(req, &direct, "_with_validity_in");
        check(req, &engine.submit(vec![*req])[0].answer, "engine");
    }
}
