//! Exporter schema round-trip: `lbq_obs::render_snapshot` output must
//! parse with the workspace's one JSON reader (`support/json.rs`) and
//! carry the versioned frame the snapshot consumers (the live-engine
//! smoke in `lbq-serve/tests/obs_attribution.rs`, offline tooling) key
//! on. In its own process because it arms the process-global recorder.

#[path = "support/json.rs"]
mod json;

use json::Value as Json;
use lbq_obs::{QueryEvent, QueryKind, RecorderConfig, StageNanos};

#[test]
fn snapshot_round_trips_through_json_reader() {
    // Populate every line type: metrics, a heatmap, recorder + a
    // guaranteed slow capture (floor 0, multiplier 1, tiny warmup).
    lbq_obs::counter("export-rt-counter").add(3);
    lbq_obs::gauge("export-rt-gauge").set(17);
    let h = lbq_obs::histogram("export-rt-latency");
    for i in 0..300u64 {
        h.record_ns(100 + i);
    }
    let heat = lbq_obs::heatmap("export-rt-heat");
    heat.record(5, 1_000);
    heat.record(4095, 2_000);
    lbq_obs::snapshot_field("export-rt-field", 42u64);
    let rec = lbq_obs::init_recorder(RecorderConfig {
        capacity: 64,
        slow_min_samples: 8,
        slow_multiplier: 1,
        slow_floor_ns: 0,
    });
    let mut ev = QueryEvent {
        query_id: 0,
        kind: QueryKind::Knn,
        k: 8,
        tier: lbq_obs::CacheTier::Tree,
        tile: 5,
        latency_ns: 1_000,
        node_accesses: 4,
        page_accesses: 1,
        stages: StageNanos::default(),
    };
    for i in 0..32 {
        ev.query_id = i;
        ev.latency_ns = 1_000;
        rec.record(&ev);
    }
    // The slow outlier: far above the rolling p99 of the 1µs crowd.
    ev.query_id = 99;
    ev.latency_ns = 50_000_000;
    rec.record(&ev);
    assert!(rec.stats().slow_captured >= 1, "outlier must be captured");

    let text = lbq_obs::render_snapshot(7);
    let mut saw = (false, false, false, false, false); // metric, heatmap, recorder, slow, end
    let mut lines = 0u64;
    for line in text.lines() {
        lines += 1;
        let v = json::parse(line).unwrap_or_else(|e| panic!("unparseable line {line:?}: {e}"));
        match v.get("type").and_then(Json::as_str) {
            Some("snapshot") => {
                assert_eq!(
                    v.get("version").and_then(Json::as_f64),
                    Some(lbq_obs::SNAPSHOT_VERSION as f64)
                );
                assert_eq!(v.get("seq").and_then(Json::as_f64), Some(7.0));
                let fields = v.get("fields").expect("header fields object");
                assert_eq!(
                    fields.get("export-rt-field").and_then(Json::as_f64),
                    Some(42.0)
                );
            }
            Some("metric") => {
                saw.0 = true;
                let name = v.get("name").and_then(Json::as_str).expect("metric name");
                match v.get("kind").and_then(Json::as_str) {
                    Some("counter") | Some("gauge") => {
                        assert!(v.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    }
                    Some("histogram") => {
                        for f in ["count", "p50-ns", "p95-ns", "p99-ns", "mean-ns"] {
                            assert!(
                                v.get(f).and_then(Json::as_f64).is_some(),
                                "histogram {name} missing {f}"
                            );
                        }
                    }
                    other => panic!("metric {name} has unknown kind {other:?}"),
                }
            }
            Some("heatmap") => {
                if v.get("name").and_then(Json::as_str) == Some("export-rt-heat") {
                    saw.1 = true;
                    assert_eq!(v.get("tiles-total").and_then(Json::as_f64), Some(2.0));
                    let tiles = v.get("tiles").and_then(Json::as_arr).expect("tiles");
                    // [tile, hits, total-ns] triples, tile-ascending.
                    assert_eq!(tiles.len(), 2);
                    let first = tiles[0].as_arr().expect("triple");
                    assert_eq!(first[0].as_f64(), Some(5.0));
                    assert_eq!(first[1].as_f64(), Some(1.0));
                    assert_eq!(first[2].as_f64(), Some(1_000.0));
                }
            }
            Some("recorder") => {
                saw.2 = true;
                for f in ["capacity", "total", "slow-captured", "threshold-ns"] {
                    assert!(v.get(f).and_then(Json::as_f64).is_some(), "recorder {f}");
                }
            }
            Some("slow-query") => {
                saw.3 = true;
                assert_eq!(v.get("query-id").and_then(Json::as_f64), Some(99.0));
                assert_eq!(v.get("latency-ns").and_then(Json::as_f64), Some(5e7));
                assert!(v.get("stages").is_some(), "slow line carries stages");
            }
            Some("snapshot-end") => {
                saw.4 = true;
                assert_eq!(v.get("seq").and_then(Json::as_f64), Some(7.0));
                assert_eq!(
                    v.get("lines").and_then(Json::as_f64),
                    Some(lines as f64),
                    "trailer line count must match actual lines"
                );
            }
            other => panic!("unknown line type {other:?} in {line:?}"),
        }
    }
    assert!(saw.0, "no metric lines");
    assert!(saw.1, "no heatmap line for export-rt-heat");
    assert!(saw.2, "no recorder line");
    assert!(saw.3, "no slow-query line");
    assert!(saw.4, "no snapshot-end trailer");
}

#[test]
fn json_reader_rejects_malformed_documents() {
    assert!(json::parse("{\"a\": 1} trailing").is_err());
    assert!(json::parse("{\"a\": }").is_err());
    assert!(json::parse("[1, 2").is_err());
    assert_eq!(
        json::parse("{\"a\": [1, \"x\\n\"]}").expect("well formed"),
        Json::Obj(std::collections::HashMap::from([(
            "a".to_string(),
            Json::Arr(vec![Json::Num(1.0), Json::Str("x\n".to_string())]),
        )]))
    );
}
