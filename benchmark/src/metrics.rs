//! Every metric the benchmark reports, declared once: name, unit,
//! direction, regression bound, and what it is. `BENCHMARK.json` is
//! generated from these tables ([`benchmark_json`]) and a test pins the
//! committed file to them, so a result can never name a metric the
//! contract does not declare.

use crate::workload;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The contract's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    /// Metric name (`<layer>.<metric>` for per-layer metrics).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
    /// One-line meaning (README table; not part of `BENCHMARK.json`).
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound,
        what,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, what: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: 0.0,
        what,
    }
}

use Better::{Higher, Lower};

/// How long one driver run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The end-to-end metrics: what a user of the system sees. Every
/// workload reports every one of them (see the README for what each
/// means on the in-process fleet).
pub const END_TO_END: &[Decl] = &[
    e2e("setup_s", "s", Lower, 0.25, "dataset generation + LbqServer::from_items + Engine::new + NetServer::bind, until the first request can be accepted (median of 5 set-ups)"),
    e2e("p50_us", "us", Lower, 0.25, "median latency of a request, from its intended send time to the last byte of its response, open loop at the workload's fixed rate"),
    e2e("p99_us", "us", Lower, 0.25, "99th percentile of the same latency"),
    e2e("capacity_rps", "req/s", Higher, 0.20, "server requests answered per second, closed loop"),
    e2e("updates_per_s", "upd/s", Higher, 0.20, "client position updates absorbed per second: those the client answers from its cached region plus those the server answers"),
    e2e("client_reuse_share", "share", Higher, 0.03, "share of position updates answered from the client's cached validity region, without the server"),
    e2e("resp_bytes_mean", "bytes", Lower, 0.15, "mean wire bytes of a response frame"),
    e2e("peak_rss_mb", "MiB", Lower, 0.20, "peak resident set of the benchmark process (VmHWM): server, dataset and generator"),
];

/// The per-layer metrics, from the traced run and the single-threaded
/// replay. A value of 0 means the layer is not on that workload's path.
pub const PER_LAYER: &[Decl] = &[
    layer("proto.decode_req_ns", "ns", Lower, "decode_frame + validate_request + request_query of one request frame (replay)"),
    layer("proto.encode_resp_ns", "ns", Lower, "encode_query_response of one response (replay)"),
    layer("proto.decode_resp_ns", "ns", Lower, "decode_frame of one response frame: the generator's own cost (replay)"),
    layer("net.client_mean_us", "us", Lower, "mean open-loop latency seen by the client in the traced run = wire + wait + stage total"),
    layer("net.server_mean_us", "us", Lower, "mean of net-socket-latency: frame decoded to response queued"),
    layer("net.server_p99_us", "us", Lower, "p99 of net-socket-latency (log-linear bucket upper bound)"),
    layer("net.wire_mean_us", "us", Lower, "client mean - server mean: sockets, reader and writer threads, generator"),
    layer("net.wait_mean_us", "us", Lower, "server mean - mean stage total: injector queue, coalesce window, dispatch serialisation, pool hand-off"),
    layer("net.coalesce_batch_mean", "count", Higher, "mean requests per coalesced Engine::submit (net-frames-out / batches, TCP warm-up included)"),
    layer("net.batches", "count", Lower, "coalesced batches dispatched up to the end of the open-loop phase"),
    layer("net.protocol_errors", "count", Lower, "net-protocol-errors counter"),
    layer("serve.stage_total_us", "us", Lower, "mean over requests of the sum of the seven engine stages"),
    layer("serve.tier_hot_share", "share", Higher, "share of responses answered by the hot-tile Voronoi tier"),
    layer("serve.tier_cache_share", "share", Higher, "share of responses answered by the region cache"),
    layer("serve.tier_tree_share", "share", Lower, "share of responses that needed the tree"),
    layer("serve.hot_lookup_ns", "ns", Lower, "hot-lookup stage, mean per request"),
    layer("serve.cache_lookup_ns", "ns", Lower, "cache-lookup stage, mean per request"),
    layer("serve.hot_promotions", "count", Lower, "Engine::hot_stats promotions"),
    layer("serve.hot_demotions", "count", Lower, "Engine::hot_stats demotions"),
    layer("serve.hot_cells", "count", Lower, "Engine::hot_stats memoized cells"),
    layer("serve.cache_hit_share", "share", Higher, "RegionCache::stats hits / lookups"),
    layer("serve.submit_us_b1", "us", Lower, "wall time of Engine::submit on 1 of the workload's requests"),
    layer("serve.submit_us_b32", "us", Lower, "wall time of Engine::submit on 32 of the workload's requests"),
    layer("serve.submit_us_b512", "us", Lower, "wall time of Engine::submit on 512 of the workload's requests"),
    layer("serve.worker_busy_share", "share", Higher, "worker busy time / (workers x wall) during the capacity phase"),
    layer("serve.worker_imbalance", "ratio", Lower, "busiest worker's busy time / mean busy time"),
    layer("serve.batch_mean", "count", Lower, "fleet-moving: mean requests per tick batch"),
    layer("serve.tick_p50_ms", "ms", Lower, "fleet-moving: median tick wall time"),
    layer("serve.tick_max_ms", "ms", Lower, "fleet-moving: slowest tick, warm-up included (hot-tile builds land here)"),
    layer("core.knn_validity_ns", "ns", Lower, "LbqServer::knn_with_validity_in, one request (replay)"),
    layer("core.window_validity_ns", "ns", Lower, "LbqServer::window_with_validity_in, one request (replay)"),
    layer("core.tpnn_per_region", "count", Lower, "NnResponse::tpnn_queries, mean (replay)"),
    layer("core.influence_pairs", "count", Lower, "influence pairs (kNN) or influence objects (window) per response (replay)"),
    layer("core.region_area_mean", "share", Higher, "mean validity-region area / universe area (replay)"),
    layer("core.region_area_model", "share", Higher, "the Section 5 model for the same query: analysis::nn_validity_area / window_validity_area"),
    layer("core.tpnn_chain_ns", "ns", Lower, "tpnn-chain stage, mean per request"),
    layer("core.window_pass_ns", "ns", Lower, "window-pass stage, mean per request"),
    layer("rtree.knn_ns", "ns", Lower, "RTree::knn_in, one request (replay)"),
    layer("rtree.knn_na", "count", Lower, "node accesses of that knn_in (with_stats, exact single-threaded)"),
    layer("rtree.knn_group_ns", "ns", Lower, "RTree::knn_group_in on 32 Hilbert-adjacent foci, per member (replay)"),
    layer("rtree.tpnn_probe_ns", "ns", Lower, "tpnn-chain stage / TPNN probes, tree-tier kNN responses"),
    layer("rtree.window_ns", "ns", Lower, "RTree::window_in, one request (replay)"),
    layer("rtree.window_na", "count", Lower, "node accesses of that window_in"),
    layer("rtree.tree_knn_ns", "ns", Lower, "tree-knn stage, mean per request"),
    layer("rtree.group_knn_ns", "ns", Lower, "group-knn stage, mean per request"),
    layer("rtree.build_s", "s", Lower, "LbqServer::from_items"),
    layer("rtree.nodes", "count", Lower, "RTree::node_count"),
    layer("rtree.height", "count", Lower, "RTree::height"),
    layer("geom.clip_ns", "ns", Lower, "clip stage, mean per request"),
    layer("geom.clip_ns_per_halfplane", "ns", Lower, "ConvexPolygon::clip_in_place replaying each response's influence half-planes, per half-plane"),
    layer("geom.region_vertices", "count", Lower, "vertices of the validity polygon, mean (replay)"),
    layer("voronoi.build_us_per_site", "us", Lower, "Delaunay::build on the sites of one hot-tile footprint, per site"),
    layer("voronoi.k_nearest_sites_ns", "ns", Lower, "Delaunay::k_nearest_sites_in on that triangulation"),
    layer("data.gen_s", "s", Lower, "dataset generation"),
    layer("obs.trace_overhead_pct", "pct", Lower, "traced vs untraced phases on one instance, p50_us (fleet-moving: tick time)"),
    layer("obs.trace_overhead_capacity_pct", "pct", Lower, "traced vs untraced phases on one instance, capacity_rps loss"),
    layer("bench.gen_late_p50_us", "us", Lower, "how late the open-loop sender ran, median"),
    layer("bench.gen_late_p99_us", "us", Lower, "how late the open-loop sender ran, p99"),
    layer("bench.backlog_growth", "ratio", Lower, "last-window p50 / first-window p50 of the open-loop phase"),
    layer("bench.reruns", "count", Lower, "repetitions re-run because the generator was late or the backlog grew"),
    layer("bench.span_overhead_ns", "ns", Lower, "duration of an empty benchmark-side span, already subtracted from every replay figure"),
];

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, name) in workload::NAMES.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            json_str(name),
            json_str(workload::why(name)),
            if i + 1 < workload::NAMES.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            json_str(d.name),
            json_str(d.unit),
            json_str(d.better.as_str()),
            d.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            json_str(d.name),
            json_str(d.unit),
            json_str(d.better.as_str()),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// A set of measured values, keyed by declared metric name.
#[derive(Debug, Clone, Default)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    /// Sets `name` to `value`. Panics on an undeclared name — that is a
    /// bug in the benchmark, not a measurement outcome.
    pub fn set(&mut self, name: &str, value: f64) {
        let decl = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        match self.0.iter_mut().find(|(n, _)| *n == decl.name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((decl.name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Renders the `metrics` object of the result line for the declared
/// `table`, in table order. A metric that was not measured, or is not a
/// finite number, is an error: the contract wants every one of them.
pub fn render_metrics(table: &[Decl], values: &Values) -> Result<String, String> {
    let mut parts = Vec::with_capacity(table.len());
    for d in table {
        let v = values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", d.name));
        }
        parts.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(d.name),
            v,
            json_str(d.unit)
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_obj: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_obj}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn declarations_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "name {}", d.name);
            assert!(unit_ok(d.unit), "unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        for w in workload::NAMES {
            assert!(name_ok(w));
            assert!(seen.insert(w), "workload name {w} collides");
            let why = workload::why(w);
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "bound of {}", d.name);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        // setup_s carries the largest bound.
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn values_reject_undeclared_and_missing() {
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        v.set("setup_s", 0.25);
        assert_eq!(v.get("setup_s"), Some(0.25));
        assert!(render_metrics(END_TO_END, &v).is_err());
        assert!(std::panic::catch_unwind(|| {
            let mut v = Values::default();
            v.set("no_such_metric", 1.0);
        })
        .is_err());
        let mut all = Values::default();
        for d in END_TO_END {
            all.set(d.name, 1.5);
        }
        assert!(render_metrics(END_TO_END, &all).is_ok());
        all.set("p50_us", f64::NAN);
        assert!(render_metrics(END_TO_END, &all).is_err());
    }
}
