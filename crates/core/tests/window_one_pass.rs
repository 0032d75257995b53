//! The window pass reads each node once, checked against oracles that
//! do not depend on traversal order:
//!
//! * the outer candidates — what [`RTree::window_resume_in`] returns
//!   after [`RTree::window_split_in`] with the bounds of
//!   [`reach_bounds`] — equal, as a multiset of `(id, point)`, brute
//!   force over "inside the extended window, outside the closed
//!   window";
//! * the node accesses of one `window_with_validity_in` request equal
//!   those of `window_in` over its extended window alone: no node of
//!   the result descent is read again;
//! * the response is bit for bit the paper's two-query construction
//!   (`window_validity_from_result_in`, a descent from the root).
//!
//! Uniform, NA-like and GR-like data (unique ids), at the Fig. 29–30
//! extents and at the benchmark's two window shapes (window-uniform's
//! 0.025 % squares and the fleet's 30 km half-extent), with foci on the
//! data and uniform over the universe.

use lbq_core::window::{reach_bounds, window_validity_from_result_in};
use lbq_core::window_with_validity_in;
use lbq_data::Dataset;
use lbq_geom::{Point, Rect};
use lbq_rng::Xoshiro256ss;
use lbq_rtree::{Item, QueryScratch, RTree, RTreeConfig};

/// `(id, x bits, y bits)`, sorted: a multiset key independent of
/// traversal order.
fn multiset<'a>(items: impl Iterator<Item = &'a Item>) -> Vec<(u64, u64, u64)> {
    let mut v: Vec<_> = items
        .map(|it| (it.id, it.point.x.to_bits(), it.point.y.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

/// Windows at `half`-extents around data-distributed foci and uniform
/// foci over the universe.
fn windows(data: &Dataset, halves: &[f64], per: usize, seed: u64) -> Vec<(Point, f64)> {
    let u = data.universe;
    let mut rng = Xoshiro256ss::seed_from_u64(seed);
    let mut out = Vec::new();
    for &h in halves {
        for w in lbq_data::window_queries(data, per, 4.0 * h * h, seed) {
            out.push((w.center(), h));
        }
        for _ in 0..per {
            let c = Point::new(rng.gen_range(u.xmin..u.xmax), rng.gen_range(u.ymin..u.ymax));
            out.push((c, h));
        }
    }
    out
}

fn check(data: &Dataset, halves: &[f64], per: usize, ctx: &str) {
    let tree = RTree::bulk_load(data.items.clone(), RTreeConfig::paper());
    let universe = data.universe;
    let mut pass = QueryScratch::new();
    let mut other = QueryScratch::new();
    let mut nonempty = 0;
    for (i, (c, h)) in windows(data, halves, per, 0x0E_9A55)
        .into_iter()
        .enumerate()
    {
        let ctx = format!("{ctx} window {i} at {c} half {h}");
        let before = pass.accesses().node_accesses;
        let resp = window_with_validity_in(&tree, c, h, h, universe, &mut pass);
        let na = pass.accesses().node_accesses - before;

        let result = tree.window(&resp.window);
        let root =
            window_validity_from_result_in(&tree, c, h, h, universe, result.clone(), &mut other);
        assert_eq!(
            format!("{resp:?}"),
            format!("{root:?}"),
            "{ctx}: one pass differs from the two-query form"
        );
        if result.is_empty() {
            continue;
        }
        nonempty += 1;

        let extended = resp.extended_window();
        let before = other.accesses().node_accesses;
        tree.window_in(&extended, &mut other);
        let na_extended = other.accesses().node_accesses - before;
        assert_eq!(na, na_extended, "{ctx}: NA of the request");

        let (reach, around) = reach_bounds(c, h, h);
        assert!(reach.contains_rect(&extended), "{ctx}: reach box");
        let first = tree.window_split_in(&resp.window, &reach, around, &mut other);
        assert_eq!(multiset(first.iter()), multiset(result.iter()), "{ctx}");
        let got = multiset(tree.window_resume_in(&extended, &mut other).iter());
        let want = multiset(
            data.items
                .iter()
                .filter(|it| extended.contains(it.point) && !resp.window.contains(it.point)),
        );
        assert_eq!(got, want, "{ctx}: outer candidates");
    }
    assert!(nonempty > 0, "{ctx}: every window was empty");
}

#[test]
fn uniform_at_fig29_extents_and_window_uniform_shape() {
    let data = lbq_data::uniform_unit(20_000, 29);
    // Fig. 29's qs of 0.01 %, 0.1 %, 1 % and 10 %, then window-uniform's
    // 0.025 %.
    let halves: Vec<f64> = [0.0001, 0.001, 0.01, 0.1, 0.000_25]
        .iter()
        .map(|qs: &f64| 0.5 * qs.sqrt())
        .collect();
    check(&data, &halves, 12, "uniform");
}

#[test]
fn na_like_at_fig30_extents_and_fleet_shape() {
    let data = lbq_data::na_like_sized(40_000, 30);
    // Fig. 30's 100 … 10,000 km², then the fleet's 30 km half-extent.
    let mut halves: Vec<f64> = [100.0, 1_000.0, 10_000.0]
        .iter()
        .map(|km2: &f64| 0.5 * (km2 * 1e6).sqrt())
        .collect();
    halves.push(30_000.0);
    check(&data, &halves, 12, "na-like");
}

#[test]
fn gr_like_at_fig30_extents() {
    let data = lbq_data::gr_like_sized(23_268, 30);
    let halves: Vec<f64> = [100.0, 300.0, 1_000.0, 3_000.0, 10_000.0]
        .iter()
        .map(|km2: &f64| 0.5 * (km2 * 1e6).sqrt())
        .collect();
    check(&data, &halves, 12, "gr-like");
}

#[test]
fn deep_tiny_tree_and_far_foci() {
    // A deep tree (fan-out 8) on data far from the origin, foci inside
    // and on the edge of the universe: the reach box must hold the
    // extended window at any offset.
    let items: Vec<Item> =
        lbq_data::uniform(3_000, Rect::new(1e6, 2e6, 1e6 + 500.0, 2e6 + 500.0), 8).items;
    let universe = Rect::new(1e6, 2e6, 1e6 + 500.0, 2e6 + 500.0);
    let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
    let mut pass = QueryScratch::new();
    let mut other = QueryScratch::new();
    let foci = [
        Point::new(1e6 + 250.0, 2e6 + 250.0),
        Point::new(1e6, 2e6),
        Point::new(1e6 + 500.0, 2e6 + 17.0),
        Point::new(1e6 + 499.5, 2e6 + 500.0),
    ];
    for c in foci {
        for h in [1.0, 7.5, 40.0] {
            let before = pass.accesses().node_accesses;
            let resp = window_with_validity_in(&tree, c, h, h, universe, &mut pass);
            let na = pass.accesses().node_accesses - before;
            let result = tree.window(&resp.window);
            let root = window_validity_from_result_in(
                &tree,
                c,
                h,
                h,
                universe,
                result.clone(),
                &mut other,
            );
            assert_eq!(
                format!("{resp:?}"),
                format!("{root:?}"),
                "focus {c} half {h}"
            );
            if result.is_empty() {
                continue;
            }
            let before = other.accesses().node_accesses;
            tree.window_in(&resp.extended_window(), &mut other);
            assert_eq!(
                na,
                other.accesses().node_accesses - before,
                "focus {c} half {h}"
            );
        }
    }
}
