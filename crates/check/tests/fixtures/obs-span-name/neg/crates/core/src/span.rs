//! Fixture: obs-span-name negative case.

fn metered() {
    let _c = lbq_obs::counter("query-knn");
    let _g = lbq_obs::gauge("hot-cells");
    let _t = lbq_obs::histogram("tpnn-chain");
    let _h = lbq_obs::heatmap("serve-tile-heat");
    lbq_obs::snapshot_field("serve-config-workers", 4u64);
}
