//! End-to-end integration for location-based window queries on
//! clustered data, including the disk-model cost story.

use lbq_core::LbqServer;
use lbq_data::{na_like_sized, window_queries};
use lbq_geom::{Point, Rect};
use lbq_rtree::{RTree, RTreeConfig};

#[test]
fn window_results_and_regions_exact_on_clustered_data() {
    let data = na_like_sized(12_000, 5);
    let server = LbqServer::new(
        RTree::bulk_load(data.items.clone(), RTreeConfig::paper()),
        data.universe,
    );
    let windows = window_queries(&data, 25, 2_000.0 * 1e6, 3); // 2000 km²
    for w in &windows {
        let c = w.center();
        let (hx, hy) = (w.width() / 2.0, w.height() / 2.0);
        let resp = server.window_with_validity(c, hx, hy);
        // Result equals brute force.
        let mut got: Vec<u64> = resp.result.iter().map(|i| i.id).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = data
            .items
            .iter()
            .filter(|i| w.contains(i.point))
            .map(|i| i.id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        // Probe around the window: inside the region the result is
        // frozen.
        let want_set: std::collections::BTreeSet<u64> = want.into_iter().collect();
        for dx in -3..=3 {
            for dy in -3..=3 {
                let p = Point::new(c.x + dx as f64 * hx * 0.4, c.y + dy as f64 * hy * 0.4);
                if resp.validity.contains(p) {
                    let w2 = Rect::centered(p, hx, hy);
                    let set: std::collections::BTreeSet<u64> = data
                        .items
                        .iter()
                        .filter(|i| w2.contains(i.point))
                        .map(|i| i.id)
                        .collect();
                    assert_eq!(set, want_set, "drifted at {p}");
                }
            }
        }
    }
}

#[test]
fn buffer_absorbs_the_second_window_query() {
    // The paper's Fig. 34 story, end to end: with a 10% LRU buffer the
    // outer-candidate query faults almost nothing because the result
    // query already paged the neighborhood in.
    let data = na_like_sized(60_000, 8);
    let tree = RTree::bulk_load(data.items.clone(), RTreeConfig::paper());
    tree.set_buffer_fraction(0.1);
    let windows = window_queries(&data, 60, 1_000.0 * 1e6, 4);
    let mut na2_total = 0.0;
    let mut pa2_total = 0.0;
    let mut counted = 0;
    for w in &windows {
        let c = w.center();
        let (hx, hy) = (w.width() / 2.0, w.height() / 2.0);
        let result = tree.window(w);
        if result.is_empty() {
            continue;
        }
        let (_, s2) = tree.with_stats(|t| {
            lbq_core::window::window_validity_from_result(t, c, hx, hy, data.universe, result)
        });
        na2_total += s2.node_accesses as f64;
        pa2_total += s2.page_faults as f64;
        counted += 1;
    }
    assert!(counted > 30, "workload mostly non-empty");
    assert!(
        pa2_total < na2_total * 0.35,
        "second query should be mostly buffered: PA {pa2_total} of NA {na2_total}"
    );
}

#[test]
fn degenerate_universe_edge_windows() {
    // Windows hugging the universe corners: regions clip to the
    // universe, checks stay sound.
    let data = na_like_sized(5_000, 2);
    let server = LbqServer::new(
        RTree::bulk_load(data.items.clone(), RTreeConfig::paper()),
        data.universe,
    );
    let u = data.universe;
    for c in [
        Point::new(u.xmin + 1.0, u.ymin + 1.0),
        Point::new(u.xmax - 1.0, u.ymax - 1.0),
        Point::new(u.xmin + 1.0, u.ymax - 1.0),
    ] {
        let resp = server.window_with_validity(c, 50_000.0, 50_000.0);
        assert!(resp.validity.inner_rect.xmin >= u.xmin - 1e-6);
        assert!(resp.validity.inner_rect.xmax <= u.xmax + 1e-6);
        // Degenerate regions report an exact 0.0
        assert!(resp.validity.contains(c) || resp.validity.area() == 0.0);
    }
}
