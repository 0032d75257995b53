//! Asserts the no-subscriber fast path performs zero heap allocations,
//! counted per thread by the shared allocator shim in
//! `support/counting_alloc.rs` (cargo runs the two tests below on
//! parallel threads; each sees only its own allocations).

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

#[test]
fn no_subscriber_path_allocates_nothing() {
    assert!(!lbq_obs::enabled());
    // Warm up lazily-initialized statics outside the measured window.
    {
        let mut s = lbq_obs::span("warmup-span");
        s.record("k", 1u64);
        lbq_obs::event("warmup-event");
    }
    let before = allocations();
    for i in 0..1_000u64 {
        let mut s = lbq_obs::span("rtree-knn");
        s.record("k", i);
        s.record("area", 0.5f64);
        lbq_obs::event_with("tpnn-iteration", [("vertices", lbq_obs::Value::U64(i))]);
        drop(s);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled tracing must not allocate (got {} allocations over 1000 iterations)",
        after - before
    );
}

#[test]
fn disabled_recording_paths_allocate_nothing() {
    assert!(!lbq_obs::recording());
    // Warm up: registry entries, thread-local handle cache, heatmap.
    let h = lbq_obs::histogram("warmup-histogram");
    let heat = lbq_obs::heatmap("warmup-heat");
    let ev = lbq_obs::QueryEvent {
        query_id: 0,
        kind: lbq_obs::QueryKind::Knn,
        k: 8,
        tier: lbq_obs::CacheTier::Tree,
        tile: 3,
        latency_ns: 500,
        node_accesses: 4,
        page_accesses: 1,
        stages: lbq_obs::StageNanos::default(),
    };
    {
        let _t = lbq_obs::stage_timer(lbq_obs::Stage::TreeKnn);
        lbq_obs::record_query(&ev);
        let _ = lbq_obs::take_stages();
        h.record_ns(1);
        heat.record(3, 1);
        let _ = lbq_obs::histogram("warmup-histogram");
    }
    let before = allocations();
    for i in 0..1_000u64 {
        // The per-query instrumentation the serve hot path runs with
        // recording off — plus the primitives that stay allocation-free
        // even when armed.
        let _t = lbq_obs::stage_timer(lbq_obs::Stage::GroupKnn);
        lbq_obs::record_query(&ev);
        let _ = lbq_obs::take_stages();
        h.record_ns(i);
        heat.record(i as u32, i);
        // Cached registry lookup (the TLS handle cache, post-warmup).
        let _ = lbq_obs::histogram("warmup-histogram");
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled recording paths must not allocate (got {} over 1000 iterations)",
        after - before
    );
}
