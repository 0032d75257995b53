//! One function per figure of the paper's Section 6.
//!
//! Conventions:
//!
//! * "actual" columns are workload averages over `cfg.queries`
//!   data-distributed queries (the paper uses 500);
//! * "estimated" columns come from `lbq_core::analysis` — on uniform
//!   data directly, on GR/NA via the Minskew effective cardinality
//!   (eq. 5-6);
//! * costs are per-query node accesses (NA) and page accesses (PA)
//!   through an LRU buffer of 10% of the tree, kept warm across the
//!   workload exactly as a server buffer would be.

use crate::harness::{mean, ExpConfig, Table};
use lbq_core::{analysis, retrieve_influence_set};
use lbq_data::{paper_query_points, uniform_unit, window_queries, window_queries_frac, Dataset};
use lbq_geom::{Point, Rect};
use lbq_hist::Minskew;
use lbq_rtree::{Item, RTree, RTreeConfig};

/// Builds the paper's R\*-tree (4 KiB pages) over a dataset.
pub fn build_tree(data: &Dataset) -> RTree {
    RTree::bulk_load(data.items.clone(), RTreeConfig::paper())
}

/// Aggregate measurements of a location-based NN workload.
pub struct NnWorkloadStats {
    /// Mean validity-region area (absolute units²).
    pub area: f64,
    /// Mean number of region edges.
    pub edges: f64,
    /// Mean |S_inf| (distinct influence objects).
    pub sinf: f64,
    /// Mean TPNN queries per location-based query.
    pub tpnn_queries: f64,
    /// Mean node accesses of the initial NN query.
    pub na_nn: f64,
    /// Mean node accesses of all TPNN queries.
    pub na_tp: f64,
    /// Mean page accesses (10% LRU buffer) of the initial NN query.
    pub pa_nn: f64,
    /// Mean page accesses of the TPNN queries.
    pub pa_tp: f64,
}

/// Runs a location-based kNN workload and aggregates the paper's
/// metrics.
pub fn run_nn_workload(
    tree: &RTree,
    universe: Rect,
    queries: &[Point],
    k: usize,
) -> NnWorkloadStats {
    tree.set_buffer_fraction(0.1);
    let (mut areas, mut edges, mut sinfs, mut tpnns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut na_nn, mut na_tp, mut pa_nn, mut pa_tp) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &q in queries {
        let (inner, s1) = tree.with_stats(|t| {
            t.knn(q, k)
                .into_iter()
                .map(|(i, _)| i)
                .collect::<Vec<Item>>()
        });
        if inner.is_empty() {
            continue;
        }
        let ((validity, tpnn), s2) =
            tree.with_stats(|t| retrieve_influence_set(t, q, &inner, universe));
        areas.push(validity.area());
        edges.push(validity.edge_count() as f64);
        sinfs.push(validity.influence_count() as f64);
        tpnns.push(tpnn as f64);
        na_nn.push(s1.node_accesses as f64);
        na_tp.push(s2.node_accesses as f64);
        pa_nn.push(s1.page_faults as f64);
        pa_tp.push(s2.page_faults as f64);
    }
    tree.clear_buffer();
    NnWorkloadStats {
        area: mean(&areas),
        edges: mean(&edges),
        sinf: mean(&sinfs),
        tpnn_queries: mean(&tpnns),
        na_nn: mean(&na_nn),
        na_tp: mean(&na_tp),
        pa_nn: mean(&pa_nn),
        pa_tp: mean(&pa_tp),
    }
}

/// Aggregate measurements of a location-based window workload.
pub struct WindowWorkloadStats {
    /// Mean exact validity-region area.
    pub area: f64,
    /// Mean inner influence objects.
    pub inner: f64,
    /// Mean outer influence objects.
    pub outer: f64,
    /// Mean node accesses of the result query.
    pub na_result: f64,
    /// Mean node accesses of the outer-candidate query.
    pub na_outer: f64,
    /// Mean page accesses of the result query (10% LRU).
    pub pa_result: f64,
    /// Mean page accesses of the outer-candidate query.
    pub pa_outer: f64,
}

/// Runs a location-based window workload.
pub fn run_window_workload(tree: &RTree, universe: Rect, windows: &[Rect]) -> WindowWorkloadStats {
    tree.set_buffer_fraction(0.1);
    let (mut areas, mut inner, mut outer) = (Vec::new(), Vec::new(), Vec::new());
    let (mut na1, mut na2, mut pa1, mut pa2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for w in windows {
        let c = w.center();
        let (hx, hy) = (w.width() / 2.0, w.height() / 2.0);
        // Phase 1: the result query; phase 2: only the extended-window
        // (outer-candidate) query, via the split entry point.
        let (result, s1) = tree.with_stats(|t| t.window(w));
        let (resp, s2) = tree.with_stats(|t| {
            lbq_core::window::window_validity_from_result(t, c, hx, hy, universe, result)
        });
        if resp.result.is_empty() {
            continue;
        }
        areas.push(resp.validity.area());
        inner.push(resp.validity.inner_influence.len() as f64);
        outer.push(resp.validity.outer_influence.len() as f64);
        na1.push(s1.node_accesses as f64);
        na2.push(s2.node_accesses as f64);
        pa1.push(s1.page_faults as f64);
        pa2.push(s2.page_faults as f64);
    }
    tree.clear_buffer();
    WindowWorkloadStats {
        area: mean(&areas),
        inner: mean(&inner),
        outer: mean(&outer),
        na_result: mean(&na1),
        na_outer: mean(&na2),
        pa_result: mean(&pa1),
        pa_outer: mean(&pa2),
    }
}

// ----------------------------------------------------------------- NN

/// Fig. 22a — area of V(q), 1-NN, uniform data vs cardinality.
pub fn fig22a(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "fig22a",
        "area of V(q) vs N (uniform, k=1), actual vs estimated",
        &["n", "actual", "estimated"],
    );
    for n in cfg.cardinalities() {
        let data = uniform_unit(n, cfg.seed);
        let tree = build_tree(&data);
        let queries = paper_query_points(&data, cfg.seed)
            .into_iter()
            .take(cfg.queries)
            .collect::<Vec<_>>();
        let st = run_nn_workload(&tree, data.universe, &queries, 1);
        t.push(vec![
            n as f64,
            st.area,
            analysis::nn_validity_area(n as f64, 1),
        ]);
    }
    t
}

/// Fig. 22b — area of V(q) vs k (uniform, N = 100k·scale).
pub fn fig22b(cfg: &ExpConfig) -> Table {
    let n = ((100_000.0 * cfg.scale) as usize).max(1_000);
    let data = uniform_unit(n, cfg.seed);
    let tree = build_tree(&data);
    let queries: Vec<Point> = paper_query_points(&data, cfg.seed)
        .into_iter()
        .take(cfg.queries)
        .collect();
    let mut t = Table::new(
        "fig22b",
        "area of V(q) vs k (uniform, N=100k), actual vs estimated",
        &["k", "actual", "estimated"],
    );
    for k in cfg.ks() {
        let st = run_nn_workload(&tree, data.universe, &queries, k);
        t.push(vec![
            k as f64,
            st.area,
            analysis::nn_validity_area(n as f64, k),
        ]);
    }
    t
}

/// Shared k-sweep over a real dataset with Minskew-corrected estimates
/// (Figs. 23 and 26 read different columns of the same run; Fig. 28
/// reads its cost columns).
pub fn real_dataset_k_sweep(cfg: &ExpConfig, data: &Dataset) -> Table {
    let tree = build_tree(data);
    let hist = Minskew::paper(&data.points(), data.universe);
    let queries: Vec<Point> = paper_query_points(data, cfg.seed)
        .into_iter()
        .take(cfg.queries)
        .collect();
    let mut t = Table::new(
        &format!("ksweep-{}", data.name),
        &format!("k sweep over {} (area, |Sinf|, cost)", data.name),
        &[
            "k", "area", "area_est", "sinf", "edges", "na_nn", "na_tp", "pa_nn", "pa_tp",
        ],
    );
    for k in cfg.ks() {
        let st = run_nn_workload(&tree, data.universe, &queries, k);
        // Estimate: per-query effective cardinality, averaged areas.
        let est = mean(
            &queries
                .iter()
                .map(|&q| {
                    let n_eff = hist.effective_cardinality_nn(q, k);
                    analysis::nn_validity_area(n_eff.max(1.0), k) * data.universe.area()
                })
                .collect::<Vec<_>>(),
        );
        t.push(vec![
            k as f64, st.area, est, st.sinf, st.edges, st.na_nn, st.na_tp, st.pa_nn, st.pa_tp,
        ]);
    }
    t
}

/// Fig. 23 — area of V(q) vs k on GR and NA.
pub fn fig23(cfg: &ExpConfig) -> Vec<Table> {
    let gr = lbq_data::gr_like_sized(cfg.gr_n(), cfg.seed);
    let na = lbq_data::na_like_sized(cfg.na_n(), cfg.seed);
    let mut out = Vec::new();
    for data in [gr, na] {
        let mut t = real_dataset_k_sweep(cfg, &data);
        t.id = format!("fig23-{}", data.name);
        t.caption = format!("area of V(q) vs k ({}), actual vs estimated", data.name);
        out.push(t);
    }
    out
}

/// Fig. 24 — number of edges of V(q) vs N and vs k (uniform; ≈6).
pub fn fig24(cfg: &ExpConfig) -> Vec<Table> {
    let mut by_n = Table::new(
        "fig24a",
        "edges of V(q) vs N (uniform, k=1); theory: ~6",
        &["n", "edges"],
    );
    for n in cfg.cardinalities() {
        let data = uniform_unit(n, cfg.seed);
        let tree = build_tree(&data);
        let queries: Vec<Point> = paper_query_points(&data, cfg.seed)
            .into_iter()
            .take(cfg.queries)
            .collect();
        let st = run_nn_workload(&tree, data.universe, &queries, 1);
        by_n.push(vec![n as f64, st.edges]);
    }
    let n = ((100_000.0 * cfg.scale) as usize).max(1_000);
    let data = uniform_unit(n, cfg.seed);
    let tree = build_tree(&data);
    let queries: Vec<Point> = paper_query_points(&data, cfg.seed)
        .into_iter()
        .take(cfg.queries)
        .collect();
    let mut by_k = Table::new(
        "fig24b",
        "edges of V(q) vs k (uniform, N=100k); theory: ~6",
        &["k", "edges"],
    );
    for k in cfg.ks() {
        let st = run_nn_workload(&tree, data.universe, &queries, k);
        by_k.push(vec![k as f64, st.edges]);
    }
    vec![by_n, by_k]
}

/// Fig. 25 — |S_inf| vs N and vs k (uniform; 6 dropping toward 4).
pub fn fig25(cfg: &ExpConfig) -> Vec<Table> {
    let mut by_n = Table::new(
        "fig25a",
        "|Sinf| vs N (uniform, k=1); theory: ~6",
        &["n", "sinf"],
    );
    for n in cfg.cardinalities() {
        let data = uniform_unit(n, cfg.seed);
        let tree = build_tree(&data);
        let queries: Vec<Point> = paper_query_points(&data, cfg.seed)
            .into_iter()
            .take(cfg.queries)
            .collect();
        let st = run_nn_workload(&tree, data.universe, &queries, 1);
        by_n.push(vec![n as f64, st.sinf]);
    }
    let n = ((100_000.0 * cfg.scale) as usize).max(1_000);
    let data = uniform_unit(n, cfg.seed);
    let tree = build_tree(&data);
    let queries: Vec<Point> = paper_query_points(&data, cfg.seed)
        .into_iter()
        .take(cfg.queries)
        .collect();
    let mut by_k = Table::new(
        "fig25b",
        "|Sinf| vs k (uniform, N=100k); drops toward ~4",
        &["k", "sinf"],
    );
    for k in cfg.ks() {
        let st = run_nn_workload(&tree, data.universe, &queries, k);
        by_k.push(vec![k as f64, st.sinf]);
    }
    vec![by_n, by_k]
}

/// Fig. 26 — |S_inf| vs k on GR and NA.
pub fn fig26(cfg: &ExpConfig) -> Vec<Table> {
    fig23(cfg)
        .into_iter()
        .map(|mut t| {
            t.id = t.id.replace("fig23", "fig26");
            t.caption = t.caption.replace("area of V(q)", "|Sinf|");
            t
        })
        .collect()
}

/// Fig. 27 — server cost of location-based NN vs N (uniform, k=1):
/// NA and PA split between the initial NN query and the TPNN queries.
pub fn fig27(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "fig27",
        "NN cost vs N (uniform, k=1): NA/PA split NN vs TPNN (10% LRU)",
        &["n", "na_nn", "na_tp", "pa_nn", "pa_tp"],
    );
    for n in cfg.cardinalities() {
        let data = uniform_unit(n, cfg.seed);
        let tree = build_tree(&data);
        let queries: Vec<Point> = paper_query_points(&data, cfg.seed)
            .into_iter()
            .take(cfg.queries)
            .collect();
        let st = run_nn_workload(&tree, data.universe, &queries, 1);
        t.push(vec![n as f64, st.na_nn, st.na_tp, st.pa_nn, st.pa_tp]);
    }
    t
}

/// Fig. 28 — NN cost vs k on GR and NA (same run as Fig. 23, cost
/// columns).
pub fn fig28(cfg: &ExpConfig) -> Vec<Table> {
    fig23(cfg)
        .into_iter()
        .map(|mut t| {
            t.id = t.id.replace("fig23", "fig28");
            t.caption = t
                .caption
                .replace("area of V(q) vs k", "NA and PA vs k (10% LRU)");
            t
        })
        .collect()
}

// ------------------------------------------------------------- window

/// Fig. 29 — window validity-region area, uniform: (a) vs N at
/// qs = 0.1%, (b) vs qs at N = 100k; actual vs estimated (eq. 5-4/5-5).
pub fn fig29(cfg: &ExpConfig) -> Vec<Table> {
    let mut by_n = Table::new(
        "fig29a",
        "window V(q) area vs N (uniform, qs=0.1%), actual vs estimated",
        &["n", "actual", "estimated"],
    );
    let frac = 0.001;
    for n in cfg.cardinalities() {
        let data = uniform_unit(n, cfg.seed);
        let tree = build_tree(&data);
        let windows: Vec<Rect> = window_queries_frac(&data, cfg.queries, frac, cfg.seed);
        let st = run_window_workload(&tree, data.universe, &windows);
        let q = frac.sqrt();
        by_n.push(vec![
            n as f64,
            st.area,
            analysis::window_validity_area(n as f64, q, q),
        ]);
    }
    let n = ((100_000.0 * cfg.scale) as usize).max(1_000);
    let data = uniform_unit(n, cfg.seed);
    let tree = build_tree(&data);
    let mut by_qs = Table::new(
        "fig29b",
        "window V(q) area vs qs (uniform, N=100k), actual vs estimated",
        &["qs_frac", "actual", "estimated"],
    );
    for frac in cfg.window_fractions() {
        let windows: Vec<Rect> = window_queries_frac(&data, cfg.queries, frac, cfg.seed);
        let st = run_window_workload(&tree, data.universe, &windows);
        let q = frac.sqrt();
        by_qs.push(vec![
            frac,
            st.area,
            analysis::window_validity_area(n as f64, q, q),
        ]);
    }
    vec![by_n, by_qs]
}

/// Shared qs-sweep over a real dataset (Figs. 30, 32, 35 read different
/// columns).
pub fn real_dataset_qs_sweep(cfg: &ExpConfig, data: &Dataset) -> Table {
    let tree = build_tree(data);
    let hist = Minskew::paper(&data.points(), data.universe);
    let mut t = Table::new(
        &format!("qsweep-{}", data.name),
        &format!("window qs sweep over {}", data.name),
        &[
            "qs_km2",
            "area_m2",
            "area_est_m2",
            "inner",
            "outer",
            "na_result",
            "na_outer",
            "pa_result",
            "pa_outer",
        ],
    );
    let side = data.universe.width();
    for km2 in cfg.window_km2() {
        let qs_m2 = km2 * 1e6;
        let windows = window_queries(data, cfg.queries, qs_m2, cfg.seed);
        let st = run_window_workload(&tree, data.universe, &windows);
        let est = mean(
            &windows
                .iter()
                .map(|w| {
                    let n_eff = hist.effective_cardinality_window(w).max(1.0);
                    analysis::window_validity_area(n_eff, w.width() / side, w.height() / side)
                        * data.universe.area()
                })
                .collect::<Vec<_>>(),
        );
        t.push(vec![
            km2,
            st.area,
            est,
            st.inner,
            st.outer,
            st.na_result,
            st.na_outer,
            st.pa_result,
            st.pa_outer,
        ]);
    }
    t
}

/// Fig. 30 — window V(q) area vs qs on GR and NA.
pub fn fig30(cfg: &ExpConfig) -> Vec<Table> {
    let gr = lbq_data::gr_like_sized(cfg.gr_n(), cfg.seed);
    let na = lbq_data::na_like_sized(cfg.na_n(), cfg.seed);
    [gr, na]
        .into_iter()
        .map(|d| {
            let mut t = real_dataset_qs_sweep(cfg, &d);
            t.id = format!("fig30-{}", d.name);
            t.caption = format!("window V(q) area vs qs ({}), actual vs estimated", d.name);
            t
        })
        .collect()
}

/// Fig. 31 — window |S_inf| (inner/outer split) vs N and vs qs
/// (uniform; ≈2+2).
pub fn fig31(cfg: &ExpConfig) -> Vec<Table> {
    let mut by_n = Table::new(
        "fig31a",
        "window |Sinf| vs N (uniform, qs=0.1%); ~2 inner + ~2 outer",
        &["n", "inner", "outer"],
    );
    for n in cfg.cardinalities() {
        let data = uniform_unit(n, cfg.seed);
        let tree = build_tree(&data);
        let windows = window_queries_frac(&data, cfg.queries, 0.001, cfg.seed);
        let st = run_window_workload(&tree, data.universe, &windows);
        by_n.push(vec![n as f64, st.inner, st.outer]);
    }
    let n = ((100_000.0 * cfg.scale) as usize).max(1_000);
    let data = uniform_unit(n, cfg.seed);
    let tree = build_tree(&data);
    let mut by_qs = Table::new(
        "fig31b",
        "window |Sinf| vs qs (uniform, N=100k)",
        &["qs_frac", "inner", "outer"],
    );
    for frac in cfg.window_fractions() {
        let windows = window_queries_frac(&data, cfg.queries, frac, cfg.seed);
        let st = run_window_workload(&tree, data.universe, &windows);
        by_qs.push(vec![frac, st.inner, st.outer]);
    }
    vec![by_n, by_qs]
}

/// Fig. 32 — window |S_inf| vs qs on GR and NA.
pub fn fig32(cfg: &ExpConfig) -> Vec<Table> {
    fig30(cfg)
        .into_iter()
        .map(|mut t| {
            t.id = t.id.replace("fig30", "fig32");
            t.caption = t
                .caption
                .replace("window V(q) area", "window |Sinf| (inner/outer)");
            t
        })
        .collect()
}

/// Fig. 34 — window cost vs N (uniform): NA split result-query vs
/// outer-candidate query (the paper's two queries), PA with the 10%
/// buffer, and the NA of the one-pass construction that serves
/// requests (`window_with_validity`: the result descent records what
/// the candidate phase needs, so no node is read twice).
pub fn fig34(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "fig34",
        "window cost vs N (uniform, qs=0.1%): NA/PA result vs inf-objs query",
        &[
            "n",
            "na_result",
            "na_outer",
            "pa_result",
            "pa_outer",
            "na_one_pass",
        ],
    );
    for n in cfg.cardinalities() {
        let data = uniform_unit(n, cfg.seed);
        let tree = build_tree(&data);
        let windows = window_queries_frac(&data, cfg.queries, 0.001, cfg.seed);
        let st = run_window_workload(&tree, data.universe, &windows);
        // Unbuffered and after the two-query run, so its PA columns are
        // untouched; NA does not depend on the buffer. Empty windows are
        // skipped, as in the workload.
        let one_pass: Vec<f64> = windows
            .iter()
            .filter_map(|w| {
                let (hx, hy) = (w.width() / 2.0, w.height() / 2.0);
                let (resp, s) = tree.with_stats(|t| {
                    lbq_core::window_with_validity(t, w.center(), hx, hy, data.universe)
                });
                (!resp.result.is_empty()).then_some(s.node_accesses as f64)
            })
            .collect();
        t.push(vec![
            n as f64,
            st.na_result,
            st.na_outer,
            st.pa_result,
            st.pa_outer,
            mean(&one_pass),
        ]);
    }
    t
}

/// Fig. 35 — window PA vs qs on GR and NA.
pub fn fig35(cfg: &ExpConfig) -> Vec<Table> {
    fig30(cfg)
        .into_iter()
        .map(|mut t| {
            t.id = t.id.replace("fig30", "fig35");
            t.caption = t
                .caption
                .replace("window V(q) area vs qs", "window PA vs qs (10% LRU)");
            t
        })
        .collect()
}

// -------------------------------------------------- beyond the paper

/// Mobile-client simulation: server queries per 1000 steps for every
/// strategy (the paper's motivating metric, Section 1).
pub fn fig_savings(cfg: &ExpConfig) -> Table {
    use lbq_core::baselines::Zl01Server;
    use lbq_core::client::{random_waypoint, simulate_nn, NnStrategy};
    let n = ((100_000.0 * cfg.scale) as usize).clamp(1_000, 20_000);
    let data = uniform_unit(n, cfg.seed);
    let tree = build_tree(&data);
    let zl = Zl01Server::build(&data.items, data.universe);
    let steps = (cfg.queries * 2).max(200);
    let traj = random_waypoint(
        data.universe,
        Point::new(0.5, 0.5),
        steps,
        0.2 / (n as f64).sqrt(), // a fraction of the typical NN distance
        cfg.seed,
    );
    let mut t = Table::new(
        "savings",
        "server queries/payload per trajectory (k=1); strategy: 0=naive 1=lbq 2=sr01(m=6) 3=zl01 4=tp 5=lbq-delta",
        &["strategy", "queries", "objects_shipped", "savings_pct"],
    );
    for (code, strat) in [
        (0.0, NnStrategy::Naive),
        (1.0, NnStrategy::Lbq),
        (2.0, NnStrategy::Sr01 { m: 6 }),
        (3.0, NnStrategy::Zl01),
        (4.0, NnStrategy::Tp),
        (5.0, NnStrategy::LbqDelta),
    ] {
        let r = simulate_nn(&tree, data.universe, &traj, 1, strat, Some(&zl));
        t.push(vec![
            code,
            r.server_queries as f64,
            r.objects_shipped as f64,
            r.savings_ratio() * 100.0,
        ]);
    }
    t
}

/// Ablation: loose vs exact TPNN entry bound — node accesses per
/// influence-set retrieval and per-query wall time.
pub fn ablation_tpnn_bound(cfg: &ExpConfig) -> Table {
    use lbq_rtree::{Item as RItem, TpEvent};
    let n = ((100_000.0 * cfg.scale) as usize).max(1_000);
    let data = uniform_unit(n, cfg.seed);
    let tree = build_tree(&data);
    let queries: Vec<Point> = paper_query_points(&data, cfg.seed)
        .into_iter()
        .take(cfg.queries)
        .collect();
    let mut t = Table::new(
        "ablation-tpnn",
        "TPNN entry bound: loose (O(1)) vs exact (piecewise quadratic)",
        &["bound", "na_per_tpnn", "events_found"],
    );
    for (code, bound) in [
        (0.0, lbq_rtree::TpBound::Loose),
        (1.0, lbq_rtree::TpBound::Exact),
    ] {
        let mut na = 0u64;
        let mut count = 0u64;
        let mut events = 0u64;
        for &q in &queries {
            let inner: Vec<RItem> = tree.knn(q, 1).into_iter().map(|(i, _)| i).collect();
            let (found, s) = tree.with_stats(|t| {
                let mut found = 0u64;
                for dir_i in 0..4 {
                    let theta = dir_i as f64 * std::f64::consts::FRAC_PI_2 + 0.3;
                    let ev: Option<TpEvent> = t.tp_knn_with_bound(
                        q,
                        lbq_geom::Vec2::from_angle(theta),
                        0.5,
                        &inner,
                        bound,
                    );
                    found += ev.is_some() as u64;
                    count += 1;
                }
                found
            });
            events += found;
            na += s.node_accesses;
        }
        t.push(vec![code, na as f64 / count as f64, events as f64]);
    }
    t
}

/// Ablation: buffer fraction vs per-query PA for location-based NN.
pub fn ablation_buffer(cfg: &ExpConfig) -> Table {
    let n = ((100_000.0 * cfg.scale) as usize).max(1_000);
    let data = uniform_unit(n, cfg.seed);
    let tree = build_tree(&data);
    let queries: Vec<Point> = paper_query_points(&data, cfg.seed)
        .into_iter()
        .take(cfg.queries)
        .collect();
    let mut t = Table::new(
        "ablation-buffer",
        "PA per location-based NN query vs LRU buffer fraction",
        &["buffer_frac", "pa_total", "na_total"],
    );
    for frac in [0.01, 0.05, 0.1, 0.25, 0.5] {
        tree.set_buffer_fraction(frac);
        let mut pa = 0u64;
        let mut na = 0u64;
        for &q in &queries {
            let (_, s) = tree.with_stats(|t| {
                let inner: Vec<Item> = t.knn(q, 1).into_iter().map(|(i, _)| i).collect();
                let _ = retrieve_influence_set(t, q, &inner, data.universe);
            });
            pa += s.page_faults;
            na += s.node_accesses;
        }
        tree.clear_buffer();
        t.push(vec![
            frac,
            pa as f64 / queries.len() as f64,
            na as f64 / queries.len() as f64,
        ]);
    }
    t
}

/// Runs a figure by id. Panics on unknown ids (the binary validates).
pub fn run_figure(id: &str, cfg: &ExpConfig) -> Vec<Table> {
    match id {
        "22a" => vec![fig22a(cfg)],
        "22b" => vec![fig22b(cfg)],
        "23" => fig23(cfg),
        "24" => fig24(cfg),
        "25" => fig25(cfg),
        "26" => fig26(cfg),
        "27" => vec![fig27(cfg)],
        "28" => fig28(cfg),
        "29" => fig29(cfg),
        "30" => fig30(cfg),
        "31" => fig31(cfg),
        "32" => fig32(cfg),
        "34" => vec![fig34(cfg)],
        "35" => fig35(cfg),
        "savings" => vec![fig_savings(cfg)],
        "ablation-tpnn" => vec![ablation_tpnn_bound(cfg)],
        "ablation-buffer" => vec![ablation_buffer(cfg)],
        other => panic!("unknown figure id: {other}"),
    }
}

/// All runnable figure ids, in paper order.
pub fn all_figure_ids() -> Vec<&'static str> {
    vec![
        "22a",
        "22b",
        "23",
        "24",
        "25",
        "26",
        "27",
        "28",
        "29",
        "30",
        "31",
        "32",
        "34",
        "35",
        "savings",
        "ablation-tpnn",
        "ablation-buffer",
    ]
}

/// Runs the whole evaluation, sharing the expensive real-dataset sweeps
/// between the figures that read different columns of them (23/26/28
/// share the k-sweep; 30/32/35 share the qs-sweep).
pub fn run_all(cfg: &ExpConfig) -> Vec<Table> {
    let mut out = Vec::new();
    out.push(fig22a(cfg));
    out.push(fig22b(cfg));

    // One k-sweep per real dataset feeds Figs. 23, 26, 28.
    let gr = lbq_data::gr_like_sized(cfg.gr_n(), cfg.seed);
    let na = lbq_data::na_like_sized(cfg.na_n(), cfg.seed);
    let sweeps: Vec<Table> = [&gr, &na]
        .into_iter()
        .map(|d| real_dataset_k_sweep(cfg, d))
        .collect();
    for (fig, what) in [
        ("fig23", "area of V(q) vs k"),
        ("fig26", "|Sinf| vs k"),
        ("fig28", "NA and PA vs k (10% LRU)"),
    ] {
        for s in &sweeps {
            let mut t = s.clone();
            t.id = s.id.replace("ksweep", fig);
            t.caption = format!("{what} ({})", s.caption);
            out.push(t);
        }
    }

    out.extend(fig24(cfg));
    out.extend(fig25(cfg));
    out.push(fig27(cfg));
    out.extend(fig29(cfg));

    // One qs-sweep per real dataset feeds Figs. 30, 32, 35.
    let qsweeps: Vec<Table> = [&gr, &na]
        .into_iter()
        .map(|d| real_dataset_qs_sweep(cfg, d))
        .collect();
    for (fig, what) in [
        ("fig30", "window V(q) area vs qs"),
        ("fig32", "window |Sinf| vs qs"),
        ("fig35", "window PA vs qs (10% LRU)"),
    ] {
        for s in &qsweeps {
            let mut t = s.clone();
            t.id = s.id.replace("qsweep", fig);
            t.caption = format!("{what} ({})", s.caption);
            out.push(t);
        }
    }

    out.extend(fig31(cfg));
    out.push(fig34(cfg));
    out.push(fig_savings(cfg));
    out.push(ablation_tpnn_bound(cfg));
    out.push(ablation_buffer(cfg));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            queries: 25,
            scale: 0.1,
            seed: 7,
        }
    }

    fn micro() -> ExpConfig {
        ExpConfig {
            queries: 15,
            scale: 0.01,
            seed: 7,
        }
    }

    #[test]
    fn fig22a_shape_linear_in_inverse_n() {
        let t = fig22a(&micro());
        let ns = t.column("n");
        let actual = t.column("actual");
        let est = t.column("estimated");
        // Area drops as N grows (both series).
        for w in actual.windows(2) {
            assert!(w[1] < w[0], "actual not decreasing: {actual:?}");
        }
        // Estimate within 2.5× of actual everywhere (paper: "accurate").
        for i in 0..ns.len() {
            let ratio = actual[i] / est[i];
            assert!((0.4..2.5).contains(&ratio), "n={} ratio {ratio}", ns[i]);
        }
    }

    #[test]
    fn fig22b_shape_drops_with_k() {
        // tiny() rather than micro(): at n = 1k the k = 100 cell covers
        // 10% of the dataset and boundary clipping drowns the trend.
        let t = fig22b(&tiny());
        let actual = t.column("actual");
        for w in actual.windows(2) {
            assert!(w[1] < w[0], "area must shrink with k: {actual:?}");
        }
    }

    #[test]
    fn fig24_25_shapes() {
        let cfg = micro();
        let t = fig24(&cfg);
        for edges in t[0]
            .column("edges")
            .iter()
            .chain(t[1].column("edges").iter())
        {
            assert!((3.5..9.0).contains(edges), "~6 edges expected, got {edges}");
        }
        let t = fig25(&cfg);
        for sinf in t[0].column("sinf") {
            assert!(
                (3.5..9.0).contains(&sinf),
                "~6 influence objects, got {sinf}"
            );
        }
        // |Sinf| at k=100 below |Sinf| at k=1 (pairs share outers).
        let by_k = &t[1];
        let sinf = by_k.column("sinf");
        assert!(sinf.last().unwrap() <= &(sinf[0] + 1.0));
    }

    #[test]
    fn fig27_buffer_collapses_tpnn_cost() {
        let t = fig27(&tiny());
        for row in &t.rows {
            let n = row[t.col("n")];
            if n < 5_000.0 {
                continue; // buffer degenerates to ~1 page at toy sizes
            }
            let (na_nn, na_tp, pa_tp) = (
                row[t.col("na_nn")],
                row[t.col("na_tp")],
                row[t.col("pa_tp")],
            );
            // TPNN phase reads many more nodes than the single NN query…
            assert!(na_tp > na_nn, "na_tp {na_tp} vs na_nn {na_nn}");
            // …but the warm buffer absorbs nearly all of it.
            assert!(
                pa_tp < na_tp * 0.5,
                "buffer should absorb: pa {pa_tp} na {na_tp}"
            );
        }
    }

    #[test]
    fn fig29_estimates_track_measurement() {
        let t = fig29(&tiny());
        for tab in &t {
            let xs = tab.column(&tab.columns[0]);
            let actual = tab.column("actual");
            let est = tab.column("estimated");
            let n_base = 10_000.0; // tiny() N for fig29b
            for i in 0..actual.len() {
                // The sweeping-region model assumes windows that hold
                // several points (n·qs ≳ 5), as in all the paper's
                // configurations; skip out-of-regime toy rows.
                let nqs = if tab.id == "fig29a" {
                    xs[i] * 0.001
                } else {
                    n_base * xs[i]
                };
                if actual[i] > 0.0 && nqs >= 5.0 {
                    let ratio = est[i] / actual[i];
                    assert!(
                        (0.3..3.0).contains(&ratio),
                        "{}: row {i} ratio {ratio}",
                        tab.id
                    );
                }
            }
            // Monotone decreasing in both sweeps.
            for w in actual.windows(2) {
                assert!(w[1] <= w[0] * 1.2, "{}: not decreasing {actual:?}", tab.id);
            }
        }
    }

    #[test]
    fn fig31_inner_outer_around_two() {
        let t = fig31(&micro());
        for tab in &t {
            for (i, o) in tab.column("inner").iter().zip(tab.column("outer")) {
                assert!((0.5..4.5).contains(i), "inner {i}");
                assert!((0.0..6.0).contains(&o), "outer {o}");
            }
        }
    }

    #[test]
    fn fig34_second_query_cheap_with_buffer() {
        let t = fig34(&tiny());
        for row in &t.rows {
            if row[t.col("n")] < 5_000.0 {
                continue; // toy buffers thrash
            }
            let (na2, pa2) = (row[t.col("na_outer")], row[t.col("pa_outer")]);
            assert!(
                pa2 <= na2 * 0.8 + 0.5,
                "outer query should be mostly buffered: pa {pa2} na {na2}"
            );
        }
    }

    #[test]
    fn fig34_one_pass_reads_only_the_extended_window() {
        // The one-pass construction reads exactly the extended window's
        // nodes, which is the two-query form's candidate query alone.
        let t = fig34(&tiny());
        for row in &t.rows {
            let (one, outer) = (row[t.col("na_one_pass")], row[t.col("na_outer")]);
            assert!(
                (one - outer).abs() < 1e-9,
                "one pass {one} vs outer query {outer}"
            );
            assert!(one < row[t.col("na_result")] + outer, "no saving: {row:?}");
        }
    }

    #[test]
    fn savings_simulation_orders_strategies() {
        let t = fig_savings(&micro());
        let queries = t.column("queries");
        // Row 0 is Naive — the ceiling; every cached strategy is below.
        for (i, q) in queries.iter().enumerate().skip(1) {
            assert!(
                q < &queries[0],
                "strategy {i} did not save: {q} vs {}",
                queries[0]
            );
        }
    }

    #[test]
    fn all_ids_run() {
        // Smoke: the registry is consistent (cheap figures only).
        let cfg = ExpConfig {
            queries: 5,
            scale: 0.01,
            seed: 1,
        };
        for id in ["22a", "27", "31", "savings", "ablation-buffer"] {
            let tables = run_figure(id, &cfg);
            assert!(!tables.is_empty());
            for t in tables {
                assert!(!t.rows.is_empty(), "{id} produced an empty table");
            }
        }
    }
}
