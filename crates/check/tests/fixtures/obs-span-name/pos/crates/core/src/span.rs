//! Fixture: obs-span-name positive case.

fn metered(name: &str) {
    let _c = lbq_obs::counter("Query_KNN");
    let _g = lbq_obs::gauge(name);
    let _t = lbq_obs::histogram("tpnn--chain");
    let _h = lbq_obs::heatmap("HotTiles");
    lbq_obs::snapshot_field(name, 1u64);
}
