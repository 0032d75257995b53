//! The mobile-client side: trajectories, caching strategies and the
//! end-to-end simulation that motivates the whole paper — *how many
//! server round-trips does a moving client save?*
//!
//! The paper's introduction frames the problem (re-querying on every
//! position update "could lead to high network overhead"); this module
//! quantifies it by replaying a client trajectory against every
//! strategy:
//!
//! * [`NnStrategy::Naive`] — query the server at every step;
//! * [`NnStrategy::Lbq`] — this paper: influence-set validity regions;
//! * [`NnStrategy::Sr01`] — cached `m`-of-`k` neighbors;
//! * [`NnStrategy::Zl01`] — Voronoi safe distance (k = 1 only);
//! * [`NnStrategy::Tp`] — time-parameterized expiry, invalidated by
//!   direction changes.
//!
//! Every simulation *verifies* each strategy's answer against the
//! ground-truth kNN at every step, so the reports compare equally
//! correct systems.

use crate::baselines::{sr01_query, tp_query, Sr01Cache, Zl01Server};
use crate::nn::retrieve_influence_set;
use lbq_geom::{Point, Rect, Vec2};
use lbq_obs::{Histogram, HistogramSummary};
use lbq_rng::Xoshiro256ss;
use lbq_rtree::{Item, RTree};

/// A random-waypoint trajectory: head toward a waypoint in fixed-length
/// steps; on arrival draw a new waypoint.
pub fn random_waypoint(
    universe: Rect,
    start: Point,
    steps: usize,
    step_len: f64,
    seed: u64,
) -> Vec<Point> {
    let mut rng = Xoshiro256ss::seed_from_u64(seed ^ 0x57A9);
    let mut out = Vec::with_capacity(steps + 1);
    let mut cur = universe.clamp_point(start);
    out.push(cur);
    let mut waypoint = random_point(&mut rng, &universe);
    for _ in 0..steps {
        while cur.dist(waypoint) < step_len {
            waypoint = random_point(&mut rng, &universe);
        }
        #[expect(clippy::expect_used, reason = "the loop above guarantees distance")]
        let dir = cur.to(waypoint).normalized().expect("waypoint ≠ cur");
        cur = universe.clamp_point(cur + dir * step_len);
        out.push(cur);
    }
    out
}

fn random_point(rng: &mut Xoshiro256ss, r: &Rect) -> Point {
    Point::new(rng.gen_range(r.xmin..r.xmax), rng.gen_range(r.ymin..r.ymax))
}

/// Client strategy for continuous kNN monitoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NnStrategy {
    /// Re-query the server at every step.
    Naive,
    /// This paper: validity region from the influence set.
    Lbq,
    /// This paper + the §7 "incremental computation" future-work item:
    /// on re-query the server ships only the result *delta* (objects
    /// added/removed versus the client's cached result) plus the fresh
    /// influence set.
    LbqDelta,
    /// `[SR01]` with the given `m`.
    Sr01 {
        /// Neighbors shipped per query (`m ≥ k`).
        m: usize,
    },
    /// `[ZL01]` Voronoi safe distance (requires `k == 1`).
    Zl01,
    /// `[TP02]` expiry times; a direction change invalidates the cache.
    Tp,
}

/// Size of the delta payload between two result sets: objects that must
/// be shipped (additions, full objects) plus removal tombstones (ids,
/// counted as one "object" each — pessimistic for the delta side).
pub fn delta_payload(old: &[Item], new: &[Item]) -> usize {
    let old_ids: std::collections::HashSet<u64> = old.iter().map(|i| i.id).collect();
    let new_ids: std::collections::HashSet<u64> = new.iter().map(|i| i.id).collect();
    let added = new.iter().filter(|i| !old_ids.contains(&i.id)).count();
    let removed = old.iter().filter(|i| !new_ids.contains(&i.id)).count();
    added + removed
}

/// Outcome of a simulated trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReport {
    /// Steps simulated (positions after the start).
    pub steps: usize,
    /// Server queries issued (the headline metric).
    pub server_queries: usize,
    /// Objects shipped server→client in total (network payload proxy).
    pub objects_shipped: usize,
    /// Client-side validity checks performed.
    pub validity_checks: usize,
    /// R-tree node accesses incurred by the strategy's server work
    /// (ground-truth verification queries excluded).
    pub na: u64,
    /// Buffer faults (page accesses) incurred by the strategy's server
    /// work.
    pub pa: u64,
    /// Wall-clock latency distribution of the server round-trips.
    pub latency: HistogramSummary,
}

impl SimReport {
    /// Queries saved relative to querying at every step.
    pub fn savings_ratio(&self) -> f64 {
        1.0 - self.server_queries as f64 / self.steps.max(1) as f64
    }
}

/// Runs one server round-trip `f`, charging its wall-clock time to
/// `latency` and its NA/PA delta (plus one query) to `report`. The
/// ground-truth verification queries the harness issues around it are
/// deliberately *not* routed through here, so the report reflects only
/// the strategy's own cost.
fn metered_query<R>(
    tree: &RTree,
    report: &mut SimReport,
    latency: &Histogram,
    f: impl FnOnce() -> R,
) -> R {
    report.server_queries += 1;
    let t0 = std::time::Instant::now();
    let (out, stats) = tree.with_stats(|_| f());
    latency.record(t0.elapsed());
    report.na += stats.node_accesses;
    report.pa += stats.page_faults;
    out
}

/// Feeds a cache-probe outcome to the global `lbq_obs` counters and,
/// when tracing is on, emits the per-step hit/miss event.
fn note_cache(hits: &lbq_obs::Counter, misses: &lbq_obs::Counter, hit: bool) {
    if hit {
        hits.incr();
        if lbq_obs::enabled() {
            lbq_obs::event("client-cache-hit");
        }
    } else {
        misses.incr();
        if lbq_obs::enabled() {
            lbq_obs::event("client-cache-miss");
        }
    }
}

/// Replays `trajectory` under `strategy`, asserting answer correctness
/// at every step. `zl01` must be provided iff the strategy is
/// [`NnStrategy::Zl01`].
pub fn simulate_nn(
    tree: &RTree,
    universe: Rect,
    trajectory: &[Point],
    k: usize,
    strategy: NnStrategy,
    zl01: Option<&Zl01Server>,
) -> SimReport {
    assert!(k >= 1 && !trajectory.is_empty());
    let mut report = SimReport {
        steps: trajectory.len() - 1,
        server_queries: 0,
        objects_shipped: 0,
        validity_checks: 0,
        na: 0,
        pa: 0,
        latency: HistogramSummary::default(),
    };
    let latency = Histogram::new();
    let cache_hits = lbq_obs::counter("client-cache-hits");
    let cache_misses = lbq_obs::counter("client-cache-misses");

    // Per-strategy cache state.
    let mut lbq_cache: Option<crate::nn::NnValidity> = None;
    let mut lbq_result: Vec<Item> = Vec::new();
    let mut sr_cache: Option<Sr01Cache> = None;
    let mut zl_cache: Option<(crate::baselines::Zl01Response, Point)> = None;
    let mut tp_cache: Option<(Vec<Item>, Option<f64>, Point, Vec2)> = None;

    for (step, &pos) in trajectory.iter().enumerate() {
        let truth: Vec<u64> = tree.knn(pos, k).into_iter().map(|(i, _)| i.id).collect();
        let answer: Vec<u64> = match strategy {
            NnStrategy::Naive => {
                // Re-issue the query under the meter rather than reusing
                // `truth`: the report charges the strategy its real cost.
                let res = metered_query(tree, &mut report, &latency, || tree.knn(pos, k));
                report.objects_shipped += k;
                res.into_iter().map(|(i, _)| i.id).collect()
            }
            NnStrategy::Lbq | NnStrategy::LbqDelta => {
                let hit = match &lbq_cache {
                    Some(v) => {
                        report.validity_checks += 1;
                        v.contains(pos)
                    }
                    None => false,
                };
                note_cache(&cache_hits, &cache_misses, hit);
                if !hit {
                    let (inner, validity) = metered_query(tree, &mut report, &latency, || {
                        let inner: Vec<Item> =
                            tree.knn(pos, k).into_iter().map(|(i, _)| i).collect();
                        let (validity, _) = retrieve_influence_set(tree, pos, &inner, universe);
                        (inner, validity)
                    });
                    let result_payload = if strategy == NnStrategy::LbqDelta {
                        delta_payload(&lbq_result, &inner)
                    } else {
                        k
                    };
                    report.objects_shipped += result_payload + validity.influence_count();
                    lbq_result = inner;
                    lbq_cache = Some(validity);
                }
                lbq_result.iter().map(|i| i.id).collect()
            }
            #[expect(clippy::expect_used, reason = "filled on miss above")]
            NnStrategy::Sr01 { m } => {
                let hit = match &sr_cache {
                    Some(c) => {
                        report.validity_checks += 1;
                        c.valid_at(pos)
                    }
                    None => false,
                };
                note_cache(&cache_hits, &cache_misses, hit);
                if !hit {
                    let c = metered_query(tree, &mut report, &latency, || {
                        sr01_query(tree, pos, k, m.max(k))
                    });
                    report.objects_shipped += c.payload();
                    sr_cache = Some(c);
                }
                sr_cache
                    .as_ref()
                    .expect("just filled")
                    .knn_at(pos)
                    .into_iter()
                    .map(|i| i.id)
                    .collect()
            }
            #[expect(
                clippy::expect_used,
                reason = "strategy precondition; harness datasets are non-empty; filled on miss above"
            )]
            NnStrategy::Zl01 => {
                assert_eq!(k, 1, "[ZL01] supports single NN only");
                let server = zl01.expect("ZL01 strategy needs the Voronoi server");
                let hit = match &zl_cache {
                    Some((resp, origin)) => {
                        report.validity_checks += 1;
                        origin.dist(pos) < resp.safe_distance
                    }
                    None => false,
                };
                note_cache(&cache_hits, &cache_misses, hit);
                if !hit {
                    report.objects_shipped += 1;
                    let resp = metered_query(tree, &mut report, &latency, || {
                        server.query(pos).expect("non-empty dataset")
                    });
                    zl_cache = Some((resp, pos));
                }
                vec![zl_cache.as_ref().expect("just filled").0.nn.id]
            }
            #[expect(clippy::expect_used, reason = "filled on miss above")]
            NnStrategy::Tp => {
                // Direction of travel this step (undefined at the last
                // position; reuse the previous one).
                let dir = trajectory
                    .get(step + 1)
                    .and_then(|next| pos.to(*next).normalized())
                    .or(tp_cache.as_ref().map(|(_, _, _, d)| *d));
                let hit = match (&tp_cache, dir) {
                    (Some((_, expiry, origin, cached_dir)), Some(d)) => {
                        report.validity_checks += 1;
                        let same_dir = cached_dir.dot(d) > 1.0 - lbq_geom::EPS;
                        let traveled = origin.dist(pos);
                        same_dir && expiry.is_none_or(|t| traveled < t)
                    }
                    _ => false,
                };
                note_cache(&cache_hits, &cache_misses, hit);
                if !hit {
                    let d = dir.unwrap_or(Vec2::new(1.0, 0.0));
                    let horizon = universe.width().hypot(universe.height());
                    let resp = metered_query(tree, &mut report, &latency, || {
                        tp_query(tree, pos, d, k, horizon)
                    });
                    report.objects_shipped += resp.result.len() + 1;
                    tp_cache = Some((resp.result.clone(), resp.expiry.map(|e| e.time), pos, d));
                }
                tp_cache
                    .as_ref()
                    .expect("just filled")
                    .0
                    .iter()
                    .map(|i| i.id)
                    .collect()
            }
        };
        let mut sorted = answer.clone();
        sorted.sort_unstable();
        let mut truth_sorted = truth.clone();
        truth_sorted.sort_unstable();
        assert_eq!(
            sorted, truth_sorted,
            "strategy {strategy:?} answered wrong at step {step} ({pos})"
        );
    }
    report.latency = latency.summary();
    report
}

/// Client strategy for continuous window monitoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowStrategy {
    /// Re-query at every step.
    Naive,
    /// This paper: exact validity region (inner rect minus Minkowski
    /// holes).
    Lbq,
    /// This paper, conservative rectangle only (constant-time check;
    /// re-queries earlier).
    LbqConservative,
}

/// Replays `trajectory` under a window-monitoring strategy (window of
/// half-extents `(hx, hy)` centered on the client), asserting result
/// exactness at every step.
pub fn simulate_window(
    tree: &RTree,
    universe: Rect,
    trajectory: &[Point],
    hx: f64,
    hy: f64,
    strategy: WindowStrategy,
) -> SimReport {
    assert!(!trajectory.is_empty());
    let mut report = SimReport {
        steps: trajectory.len() - 1,
        server_queries: 0,
        objects_shipped: 0,
        validity_checks: 0,
        na: 0,
        pa: 0,
        latency: HistogramSummary::default(),
    };
    let latency = Histogram::new();
    let cache_hits = lbq_obs::counter("client-cache-hits");
    let cache_misses = lbq_obs::counter("client-cache-misses");
    let mut lbq_cache: Option<(crate::window::WindowValidity, Vec<Item>)> = None;

    for (step, &pos) in trajectory.iter().enumerate() {
        let truth: Vec<u64> = {
            let mut v: Vec<u64> = tree
                .window(&lbq_geom::Rect::centered(pos, hx, hy))
                .into_iter()
                .map(|i| i.id)
                .collect();
            v.sort_unstable();
            v
        };
        let answer: Vec<u64> = match strategy {
            WindowStrategy::Naive => {
                // As in `simulate_nn`: pay for the query under the meter.
                let res = metered_query(tree, &mut report, &latency, || {
                    tree.window(&lbq_geom::Rect::centered(pos, hx, hy))
                });
                report.objects_shipped += res.len();
                res.into_iter().map(|i| i.id).collect()
            }
            #[expect(clippy::expect_used, reason = "filled on miss above")]
            WindowStrategy::Lbq | WindowStrategy::LbqConservative => {
                let hit = match &lbq_cache {
                    Some((v, _)) => {
                        report.validity_checks += 1;
                        if strategy == WindowStrategy::LbqConservative {
                            v.contains_conservative(pos)
                        } else {
                            v.contains(pos)
                        }
                    }
                    None => false,
                };
                note_cache(&cache_hits, &cache_misses, hit);
                if !hit {
                    let resp = metered_query(tree, &mut report, &latency, || {
                        crate::window::window_with_validity(tree, pos, hx, hy, universe)
                    });
                    report.objects_shipped += resp.result.len() + resp.validity.influence_count();
                    lbq_cache = Some((resp.validity, resp.result));
                }
                lbq_cache
                    .as_ref()
                    .expect("just filled")
                    .1
                    .iter()
                    .map(|i| i.id)
                    .collect()
            }
        };
        let mut sorted = answer;
        sorted.sort_unstable();
        assert_eq!(
            sorted, truth,
            "window strategy {strategy:?} wrong at step {step} ({pos})"
        );
    }
    report.latency = latency.summary();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbq_rtree::RTreeConfig;

    fn pseudo_random_items(n: usize, seed: u64) -> Vec<Item> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n)
            .map(|i| Item::new(Point::new(next(), next()), i as u64))
            .collect()
    }

    fn unit() -> Rect {
        Rect::new(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn trajectory_stays_in_universe_with_fixed_steps() {
        let traj = random_waypoint(unit(), Point::new(0.5, 0.5), 200, 0.01, 7);
        assert_eq!(traj.len(), 201);
        for w in traj.windows(2) {
            assert!(unit().contains(w[1]));
            // Clamping can shorten a step at the border, never lengthen.
            assert!(w[0].dist(w[1]) <= 0.01 + 1e-12);
        }
    }

    #[test]
    fn all_strategies_correct_and_lbq_saves() {
        let items = pseudo_random_items(800, 21);
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let zl = Zl01Server::build(&items, unit());
        let traj = random_waypoint(unit(), Point::new(0.3, 0.3), 300, 0.002, 5);

        let naive = simulate_nn(&tree, unit(), &traj, 1, NnStrategy::Naive, None);
        let lbq = simulate_nn(&tree, unit(), &traj, 1, NnStrategy::Lbq, None);
        let sr = simulate_nn(&tree, unit(), &traj, 1, NnStrategy::Sr01 { m: 6 }, None);
        let zl01 = simulate_nn(&tree, unit(), &traj, 1, NnStrategy::Zl01, Some(&zl));
        let tp = simulate_nn(&tree, unit(), &traj, 1, NnStrategy::Tp, None);

        assert_eq!(naive.server_queries, 301);
        // The validity-region approach must beat naive by a wide margin
        // on a slow-moving client.
        assert!(
            lbq.server_queries * 5 < naive.server_queries,
            "lbq used {} queries",
            lbq.server_queries
        );
        // And every cached strategy beats naive.
        for (name, r) in [("sr01", &sr), ("zl01", &zl01), ("tp", &tp)] {
            assert!(
                r.server_queries < naive.server_queries,
                "{name}: {} vs naive {}",
                r.server_queries,
                naive.server_queries
            );
        }
        // ZL01's region (the full Voronoi cell) can't beat LBQ's (the
        // same cell) by queries; safe-*distance* is conservative, so it
        // re-queries at least as often.
        assert!(zl01.server_queries >= lbq.server_queries);
    }

    #[test]
    fn knn_strategies_correct() {
        let items = pseudo_random_items(600, 3);
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let traj = random_waypoint(unit(), Point::new(0.6, 0.4), 150, 0.003, 11);
        for k in [2usize, 5] {
            let lbq = simulate_nn(&tree, unit(), &traj, k, NnStrategy::Lbq, None);
            let sr = simulate_nn(&tree, unit(), &traj, k, NnStrategy::Sr01 { m: 3 * k }, None);
            let tp = simulate_nn(&tree, unit(), &traj, k, NnStrategy::Tp, None);
            assert!(lbq.server_queries < 151);
            assert!(sr.server_queries < 151);
            assert!(tp.server_queries <= 151);
            assert!(lbq.savings_ratio() > 0.0);
        }
    }

    #[test]
    fn delta_strategy_ships_less() {
        let items = pseudo_random_items(700, 31);
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let traj = random_waypoint(unit(), Point::new(0.5, 0.5), 250, 0.002, 3);
        let k = 5;
        let full = simulate_nn(&tree, unit(), &traj, k, NnStrategy::Lbq, None);
        let delta = simulate_nn(&tree, unit(), &traj, k, NnStrategy::LbqDelta, None);
        // Same query count (identical validity logic), smaller payload:
        // exiting a validity region changes at most one set member.
        assert_eq!(full.server_queries, delta.server_queries);
        assert!(
            delta.objects_shipped < full.objects_shipped,
            "delta {} vs full {}",
            delta.objects_shipped,
            full.objects_shipped
        );
    }

    #[test]
    fn delta_payload_counts() {
        let a = [Item::new(Point::ORIGIN, 1), Item::new(Point::ORIGIN, 2)];
        let b = [Item::new(Point::ORIGIN, 2), Item::new(Point::ORIGIN, 3)];
        assert_eq!(delta_payload(&a, &b), 2); // +3, −1
        assert_eq!(delta_payload(&a, &a), 0);
        assert_eq!(delta_payload(&[], &b), 2);
        assert_eq!(delta_payload(&a, &[]), 2);
    }

    #[test]
    fn window_strategies_correct_and_ordered() {
        let items = pseudo_random_items(500, 13);
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        // A slow client: the expected validity travel at this density is
        // ~1/(2·N·s) ≈ 0.011, an order of magnitude above the step.
        let traj = random_waypoint(unit(), Point::new(0.4, 0.4), 200, 0.001, 9);
        let (hx, hy) = (0.05, 0.04);
        let naive = simulate_window(&tree, unit(), &traj, hx, hy, WindowStrategy::Naive);
        let lbq = simulate_window(&tree, unit(), &traj, hx, hy, WindowStrategy::Lbq);
        let cons = simulate_window(
            &tree,
            unit(),
            &traj,
            hx,
            hy,
            WindowStrategy::LbqConservative,
        );
        assert_eq!(naive.server_queries, 201);
        assert!(lbq.server_queries < naive.server_queries / 2);
        // The conservative rectangle is a subset of the exact region:
        // it can only re-query more often.
        assert!(cons.server_queries >= lbq.server_queries);
    }

    #[test]
    #[should_panic]
    fn zl01_rejects_k_above_one() {
        let items = pseudo_random_items(50, 2);
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let zl = Zl01Server::build(&items, unit());
        let traj = random_waypoint(unit(), Point::new(0.5, 0.5), 5, 0.01, 1);
        let _ = simulate_nn(&tree, unit(), &traj, 2, NnStrategy::Zl01, Some(&zl));
    }
}
