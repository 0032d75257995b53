//! The single-threaded replay: sampled requests of a workload pushed
//! through each layer's public functions with one `QueryScratch`, every
//! call wrapped in a benchmark-side span.
//!
//! The replay measures what a layer costs *at this workload's foci*,
//! cold — no memo tier, no pool, no socket — so a later change to one
//! layer has a number of its own to move. The traced repetition (stage
//! nanos on the wire) says how much of that cost the live system
//! actually pays.

use crate::metrics::Values;
use crate::spans::Tracer;
use lbq_core::LbqServer;
use lbq_geom::{ConvexPolygon, Point, Rect};
use lbq_obs::{CacheTier, StageNanos, HEATMAP_TILE_BITS};
use lbq_proto::{
    decode_frame, encode_frame, encode_query_response, query_request, request_query,
    validate_request, DEFAULT_CLIENT_MAX_PAYLOAD, DEFAULT_SERVER_MAX_PAYLOAD,
};
use lbq_rtree::hilbert::{hilbert_key, tile_rect, KEY_ORDER};
use lbq_rtree::QueryScratch;
use lbq_serve::{Engine, HotConfig, QueryAnswer, QueryReq, QueryResp};
use lbq_voronoi::{Delaunay, OrderKScratch};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Requests replayed per traced run.
pub const REPLAY_REQUESTS: usize = 20_000;
/// Members of one replayed group-kNN traversal (the engine's tile size).
const GROUP: usize = 32;
/// Empty spans timed to calibrate the span's own cost.
const CALIBRATION_SPANS: usize = 20_000;

/// Running mean.
#[derive(Debug, Default, Clone, Copy)]
struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }
    fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Replays `reqs` through proto (optionally), rtree, core and geom,
/// then the group-kNN and Voronoi probes; fills `values` and returns
/// the trace.
pub fn replay(
    server: &LbqServer,
    reqs: &[QueryReq],
    with_proto: bool,
    values: &mut Values,
) -> Tracer {
    let universe = server.universe();
    let tree = server.tree();
    let mut tr = Tracer::new();
    let mut scratch = QueryScratch::new();

    // What an empty span costs (two clock reads and a push).
    for i in 0..CALIBRATION_SPANS {
        tr.span("bench.empty", i as u64, |_| ());
    }

    let mut knn_na = Mean::default();
    let mut window_na = Mean::default();
    let mut tpnn = Mean::default();
    let mut pairs = Mean::default();
    let mut area = Mean::default();
    let mut model = Mean::default();
    let mut vertices = Mean::default();
    let mut halfplanes = 0u64;
    let mut poly = ConvexPolygon::empty();
    let mut clip_buf: Vec<Point> = Vec::new();
    let mut req_bytes: Vec<u8> = Vec::with_capacity(64);
    let mut resp_bytes: Vec<u8> = Vec::with_capacity(4096);
    let n_points = tree.len() as f64;
    // The Section 5 models are numerical integrals (milliseconds a
    // call) of the query *shape* only: evaluate each shape once.
    let mut model_of: Vec<(QueryReq, f64)> = Vec::new();
    let mut model_for = |shape: QueryReq| -> f64 {
        if let Some(&(_, m)) = model_of.iter().find(|(s, _)| *s == shape) {
            return m;
        }
        let m = match shape {
            QueryReq::Knn { k, .. } => lbq_core::analysis::nn_validity_area(n_points, k),
            QueryReq::Window { hx, hy, .. } => lbq_core::analysis::window_validity_area(
                n_points,
                2.0 * hx / universe.width(),
                2.0 * hy / universe.height(),
            ),
        };
        model_of.push((shape, m));
        m
    };

    for (i, req) in reqs.iter().enumerate() {
        let id = i as u64;
        tr.span("request", id, |tr| {
            if with_proto {
                req_bytes.clear();
                encode_frame(&query_request(id, req), &mut req_bytes)
                    .expect("request frames always encode");
                tr.span("proto.decode_req", id, |_| {
                    let Ok(lbq_proto::Decoded::Frame { frame, .. }) =
                        decode_frame(black_box(&req_bytes), DEFAULT_SERVER_MAX_PAYLOAD)
                    else {
                        panic!("a frame this benchmark encoded must decode");
                    };
                    validate_request(&frame).expect("workload requests are valid");
                    black_box(request_query(&frame));
                });
            }
            let answer = match *req {
                QueryReq::Knn { q, k } => {
                    let (_, cost) = tr.span("rtree.knn", id, |_| {
                        tree.with_stats(|t| black_box(t.knn_in(q, k, &mut scratch).len()))
                    });
                    knn_na.add(cost.node_accesses as f64);
                    let resp = tr.span("core.knn_validity", id, |_| {
                        server.knn_with_validity_in(q, k, &mut scratch)
                    });
                    tpnn.add(resp.tpnn_queries as f64);
                    pairs.add(resp.validity.pairs.len() as f64);
                    area.add(resp.validity.area() / universe.area());
                    model.add(model_for(QueryReq::knn(Point::ORIGIN, k)));
                    vertices.add(resp.validity.polygon.len() as f64);
                    halfplanes += resp.validity.pairs.len() as u64;
                    tr.span("geom.clip", id, |_| {
                        poly.assign_rect(&universe);
                        for p in &resp.validity.pairs {
                            poly.clip_in_place(&p.half_plane(), &mut clip_buf);
                        }
                        black_box(poly.len());
                    });
                    QueryAnswer::Knn(resp)
                }
                QueryReq::Window { c, hx, hy } => {
                    let rect = Rect::centered(c, hx, hy);
                    let (_, cost) = tr.span("rtree.window", id, |_| {
                        tree.with_stats(|t| black_box(t.window_in(&rect, &mut scratch).len()))
                    });
                    window_na.add(cost.node_accesses as f64);
                    let resp = tr.span("core.window_validity", id, |_| {
                        server.window_with_validity_in(c, hx, hy, &mut scratch)
                    });
                    pairs.add(resp.validity.influence_count() as f64);
                    area.add(resp.validity.area() / universe.area());
                    model.add(model_for(QueryReq::window(Point::ORIGIN, hx, hy)));
                    QueryAnswer::Window(resp)
                }
            };
            if with_proto {
                let resp = QueryResp {
                    answer: Arc::new(answer),
                    from_cache: false,
                    tier: CacheTier::Tree,
                    worker: 0,
                    latency_ns: 0,
                    query_id: id,
                    stages: StageNanos::default(),
                };
                resp_bytes.clear();
                tr.span("proto.encode_resp", id, |_| {
                    encode_query_response(id, &resp, &mut resp_bytes)
                        .expect("responses of this size always encode");
                });
                tr.span("proto.decode_resp", id, |_| {
                    black_box(
                        decode_frame(black_box(&resp_bytes), DEFAULT_CLIENT_MAX_PAYLOAD)
                            .expect("a frame the server encoder wrote must decode"),
                    );
                });
            }
        });
    }

    // Group kNN: tiles of Hilbert-adjacent foci, as the engine forms them.
    let mut knn: Vec<(Point, usize)> = reqs
        .iter()
        .filter_map(|r| match *r {
            QueryReq::Knn { q, k } => Some((q, k)),
            QueryReq::Window { .. } => None,
        })
        .collect();
    knn.sort_by_key(|&(q, _)| hilbert_key(q, &universe));
    let mut members = 0u64;
    for (g, tile) in knn.chunks(GROUP).enumerate() {
        let k = tile[0].1;
        let foci: Vec<Point> = tile.iter().map(|&(q, _)| q).collect();
        members += foci.len() as u64;
        tr.span("rtree.knn_group", g as u64, |_| {
            black_box(tree.knn_group_in(&foci, k, &mut scratch).len());
        });
    }

    // Voronoi: what promoting the hot tile under the first kNN focus
    // costs, and a k-set lookup on it (mirrors `HotTile::build`).
    let mut sites = 0usize;
    if let Some(&(focus, k)) = knn.first() {
        let key = hilbert_key(focus, &universe);
        let tile = lbq_obs::Heatmap::tile_of_key(key, 2 * KEY_ORDER);
        let core = tile_rect(&universe, tile, HEATMAP_TILE_BITS);
        let pad = HotConfig::default().margin * core.width().max(core.height());
        let fetch = Rect::new(
            (core.xmin - pad).max(universe.xmin),
            (core.ymin - pad).max(universe.ymin),
            (core.xmax + pad).min(universe.xmax),
            (core.ymax + pad).min(universe.ymax),
        );
        let mut positions: Vec<Point> = tree.window(&fetch).iter().map(|i| i.point).collect();
        positions.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        positions.dedup();
        sites = positions.len();
        let delaunay = tr.span("voronoi.build", 0, |_| Delaunay::build(&positions, fetch));
        let mut ok = OrderKScratch::default();
        let mut out = Vec::new();
        for (i, &(q, _)) in knn.iter().filter(|(q, _)| core.contains(*q)).enumerate() {
            tr.span("voronoi.k_nearest_sites", i as u64, |_| {
                delaunay.k_nearest_sites_in(q, k, &mut ok, &mut out);
                black_box(out.len());
            });
        }
    }

    let totals = tr.totals();
    let overhead = totals
        .get("bench.empty")
        .map_or(0.0, |t| t.total_ns as f64 / t.count as f64);
    // Mean duration of a span, minus what an empty span costs.
    let per_span = |name: &str| -> f64 {
        totals.get(name).map_or(0.0, |t| {
            (t.total_ns as f64 / t.count as f64 - overhead).max(0.0)
        })
    };
    values.set("bench.span_overhead_ns", overhead);
    values.set("proto.decode_req_ns", per_span("proto.decode_req"));
    values.set("proto.encode_resp_ns", per_span("proto.encode_resp"));
    values.set("proto.decode_resp_ns", per_span("proto.decode_resp"));
    values.set("rtree.knn_ns", per_span("rtree.knn"));
    values.set("rtree.knn_na", knn_na.get());
    values.set("rtree.window_ns", per_span("rtree.window"));
    values.set("rtree.window_na", window_na.get());
    values.set("core.knn_validity_ns", per_span("core.knn_validity"));
    values.set("core.window_validity_ns", per_span("core.window_validity"));
    values.set("core.tpnn_per_region", tpnn.get());
    values.set("core.influence_pairs", pairs.get());
    values.set("core.region_area_mean", area.get());
    values.set("core.region_area_model", model.get());
    values.set("geom.region_vertices", vertices.get());
    values.set(
        "geom.clip_ns_per_halfplane",
        match (totals.get("geom.clip"), halfplanes) {
            (Some(t), h) if h > 0 => {
                ((t.total_ns as f64 - overhead * t.count as f64) / h as f64).max(0.0)
            }
            _ => 0.0,
        },
    );
    values.set(
        "rtree.knn_group_ns",
        match (totals.get("rtree.knn_group"), members) {
            (Some(t), m) if m > 0 => {
                ((t.total_ns as f64 - overhead * t.count as f64) / m as f64).max(0.0)
            }
            _ => 0.0,
        },
    );
    values.set(
        "voronoi.build_us_per_site",
        if sites > 0 {
            per_span("voronoi.build") / 1e3 / sites as f64
        } else {
            0.0
        },
    );
    values.set(
        "voronoi.k_nearest_sites_ns",
        per_span("voronoi.k_nearest_sites"),
    );
    tr
}

/// Wall time of `Engine::submit` on batches of 1, 32 and 512 of the
/// workload's own requests (mean, µs), on the engine as the traced
/// repetition left it.
pub fn submit_costs(engine: &Engine, reqs: &[QueryReq], values: &mut Values) {
    for (size, name, batches) in [
        (1usize, "serve.submit_us_b1", 2_000usize),
        (32, "serve.submit_us_b32", 300),
        (512, "serve.submit_us_b512", 30),
    ] {
        let mut total = 0.0;
        let mut done = 0usize;
        for chunk in reqs.chunks(size).filter(|c| c.len() == size).take(batches) {
            let batch = chunk.to_vec();
            let t = Instant::now();
            black_box(engine.submit(batch));
            total += t.elapsed().as_secs_f64() * 1e6;
            done += 1;
        }
        values.set(name, if done > 0 { total / done as f64 } else { 0.0 });
    }
}

/// The engine-side counters of a repetition: hot tier, region cache.
pub fn engine_counters(engine: &Engine, values: &mut Values) {
    let hot = engine.hot_stats();
    values.set("serve.hot_promotions", hot.promotions as f64);
    values.set("serve.hot_demotions", hot.demotions as f64);
    values.set("serve.hot_cells", hot.cells as f64);
    let cache = engine.cache().stats();
    let lookups = cache.hits + cache.misses;
    values.set(
        "serve.cache_hit_share",
        if lookups > 0 {
            cache.hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
}

/// Per-worker busy nanoseconds, for a before/after difference.
pub fn worker_busy(engine: &Engine) -> Vec<u64> {
    engine
        .worker_summaries()
        .iter()
        .map(|w| w.busy_ns)
        .collect()
}

/// Busy share and imbalance of the workers over a phase of `wall_s`
/// seconds, from two [`worker_busy`] readings.
pub fn worker_load(before: &[u64], after: &[u64], wall_s: f64, values: &mut Values) {
    let busy: Vec<f64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b) as f64)
        .collect();
    let total: f64 = busy.iter().sum();
    let mean = total / busy.len().max(1) as f64;
    let max = busy.iter().copied().fold(0.0, f64::max);
    values.set(
        "serve.worker_busy_share",
        if wall_s > 0.0 {
            total / (busy.len().max(1) as f64 * wall_s * 1e9)
        } else {
            0.0
        },
    );
    values.set(
        "serve.worker_imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
}

/// The stage means of a traced repetition: `stages` summed over
/// `responses` responses, plus the per-probe TPNN cost.
pub fn stage_values(
    stages: &[u64; lbq_obs::STAGE_COUNT],
    responses: u64,
    tree_tpnn_ns: u64,
    tree_tpnn_probes: u64,
    values: &mut Values,
) -> f64 {
    use lbq_obs::Stage;
    let per = |s: Stage| {
        if responses == 0 {
            0.0
        } else {
            stages[s as usize] as f64 / responses as f64
        }
    };
    values.set("serve.cache_lookup_ns", per(Stage::CacheLookup));
    values.set("rtree.tree_knn_ns", per(Stage::TreeKnn));
    values.set("rtree.group_knn_ns", per(Stage::GroupKnn));
    values.set("core.tpnn_chain_ns", per(Stage::TpnnChain));
    values.set("geom.clip_ns", per(Stage::Clip));
    values.set("core.window_pass_ns", per(Stage::WindowPass));
    values.set("serve.hot_lookup_ns", per(Stage::HotLookup));
    values.set(
        "rtree.tpnn_probe_ns",
        if tree_tpnn_probes > 0 {
            tree_tpnn_ns as f64 / tree_tpnn_probes as f64
        } else {
            0.0
        },
    );
    let total_us = Stage::all().iter().map(|&s| per(s)).sum::<f64>() / 1e3;
    values.set("serve.stage_total_us", total_us);
    total_us
}

/// Tier shares from response counts `[tree, cache, hot]`.
pub fn tier_values(tiers: &[u64; 3], values: &mut Values) {
    let total: u64 = tiers.iter().sum();
    let share = |n: u64| {
        if total > 0 {
            n as f64 / total as f64
        } else {
            0.0
        }
    };
    values.set("serve.tier_tree_share", share(tiers[0]));
    values.set("serve.tier_cache_share", share(tiers[1]));
    values.set("serve.tier_hot_share", share(tiers[2]));
}
