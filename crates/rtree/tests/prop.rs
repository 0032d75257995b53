//! Randomized property-style tests: the R\*-tree agrees with brute force
//! on every query type, under random data, random construction method
//! and random mutation.
//!
//! Formerly `proptest`; now seeded [`lbq_rng`] randomness (the build
//! environment has no crates.io access). Deterministic per run; the
//! `heavy-tests` feature multiplies case counts.

use lbq_geom::{Point, Rect, Vec2};
use lbq_rng::Xoshiro256ss;
use lbq_rtree::{Item, RTree, RTreeConfig};

/// Case-count knob: 8× under `--features heavy-tests`.
fn cases(base: usize) -> usize {
    if cfg!(feature = "heavy-tests") {
        base * 8
    } else {
        base
    }
}

fn rand_items(rng: &mut Xoshiro256ss, max: usize) -> Vec<Item> {
    let n = rng.gen_range(1..max);
    (0..n)
        .map(|i| {
            Item::new(
                Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                i as u64,
            )
        })
        .collect()
}

fn rand_rect(rng: &mut Xoshiro256ss) -> Rect {
    let x = rng.gen_range(0.0..100.0);
    let y = rng.gen_range(0.0..100.0);
    let w = rng.gen_range(0.1..60.0);
    let h = rng.gen_range(0.1..60.0);
    Rect::new(x, y, (x + w).min(100.0), (y + h).min(100.0))
}

fn build(items: &[Item], bulk: bool) -> RTree {
    if bulk {
        RTree::bulk_load(items.to_vec(), RTreeConfig::tiny())
    } else {
        let mut t = RTree::new(RTreeConfig::tiny());
        for &i in items {
            t.insert(i);
        }
        t
    }
}

#[test]
fn window_query_matches_brute_force() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x71D0);
    for case in 0..cases(64) {
        let items = rand_items(&mut rng, 400);
        let q = rand_rect(&mut rng);
        let bulk = rng.gen_bool(0.5);
        let tree = build(&items, bulk);
        tree.check_invariants().expect("structural invariants");
        let mut got: Vec<u64> = tree.window(&q).into_iter().map(|i| i.id).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = items
            .iter()
            .filter(|i| q.contains(i.point))
            .map(|i| i.id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "case {case} (bulk={bulk})");
    }
}

#[test]
fn knn_matches_brute_force() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x6EA3);
    for case in 0..cases(64) {
        let items = rand_items(&mut rng, 300);
        let q = Point::new(rng.gen_range(-10.0..110.0), rng.gen_range(-10.0..110.0));
        let k = rng.gen_range(1..20usize);
        let bulk = rng.gen_bool(0.5);
        let tree = build(&items, bulk);
        let got: Vec<u64> = tree.knn(q, k).into_iter().map(|(i, _)| i.id).collect();
        let got_df: Vec<u64> = tree
            .knn_depth_first(q, k)
            .into_iter()
            .map(|(i, _)| i.id)
            .collect();
        let mut all: Vec<(f64, u64)> = items.iter().map(|i| (q.dist_sq(i.point), i.id)).collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        let want: Vec<u64> = all.into_iter().take(k).map(|(_, id)| id).collect();
        assert_eq!(&got, &want, "case {case}: best-first");
        assert_eq!(&got_df, &want, "case {case}: depth-first");
    }
}

#[test]
fn tp_knn_matches_brute_force() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x7972);
    let mut tested = 0;
    while tested < cases(64) {
        let items = rand_items(&mut rng, 250);
        let qx = rng.gen_range(0.0..100.0);
        let qy = rng.gen_range(0.0..100.0);
        let theta = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
        let k = rng.gen_range(1..6usize);
        let t_max = rng.gen_range(1.0..200.0);
        if items.len() <= k {
            continue;
        }
        tested += 1;
        let tree = build(&items, true);
        let q = Point::new(qx, qy);
        let dir = Vec2::from_angle(theta);
        let inner: Vec<Item> = tree.knn(q, k).into_iter().map(|(i, _)| i).collect();

        let got = tree.tp_knn(q, dir, t_max, &inner);

        // Brute force: minimum bisector-crossing time over all outer
        // points and inner partners.
        let mut want: Option<(f64, u64)> = None;
        for item in &items {
            if inner.iter().any(|o| o.id == item.id) {
                continue;
            }
            let dp = q.dist_sq(item.point);
            for o in &inner {
                let f0 = dp - q.dist_sq(o.point);
                let denom = 2.0 * dir.dot(o.point.to(item.point));
                let t = if f0 <= 0.0 {
                    Some(0.0)
                } else if denom > 0.0 {
                    Some(f0 / denom)
                } else {
                    None
                };
                if let Some(t) = t {
                    #[expect(clippy::float_cmp, reason = "exact time tie, broken by object id")]
                    if t <= t_max
                        && want.is_none_or(|(bt, bid)| t < bt || (t == bt && item.id < bid))
                    {
                        want = Some((t, item.id));
                    }
                }
            }
        }
        match (got, want) {
            (None, None) => {}
            (Some(g), Some((wt, _))) => {
                // Times must agree; the object may differ only on exact ties.
                assert!(
                    (g.time - wt).abs() <= 1e-9 * wt.max(1.0),
                    "time {} vs brute {}",
                    g.time,
                    wt
                );
            }
            (g, w) => panic!("presence mismatch: {g:?} vs {w:?}"),
        }
    }
}

#[test]
fn delete_keeps_queries_correct() {
    let mut rng = Xoshiro256ss::seed_from_u64(0xDE1E);
    for case in 0..cases(64) {
        let items = rand_items(&mut rng, 200);
        let q = rand_rect(&mut rng);
        let mut tree = build(&items, false);
        let mut live: Vec<Item> = Vec::new();
        for &item in &items {
            if rng.gen_bool(0.5) {
                assert!(
                    tree.delete(item.point, item.id),
                    "case {case}: delete failed"
                );
            } else {
                live.push(item);
            }
        }
        tree.check_invariants()
            .expect("structural invariants after deletes");
        assert_eq!(tree.len(), live.len(), "case {case}");
        let mut got: Vec<u64> = tree.window(&q).into_iter().map(|i| i.id).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = live
            .iter()
            .filter(|i| q.contains(i.point))
            .map(|i| i.id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}");
    }
}

#[test]
fn bulk_and_incremental_agree() {
    let mut rng = Xoshiro256ss::seed_from_u64(0xB01C);
    for case in 0..cases(64) {
        let items = rand_items(&mut rng, 300);
        let q = rand_rect(&mut rng);
        let bulk = build(&items, true);
        let incr = build(&items, false);
        let mut a: Vec<u64> = bulk.window(&q).into_iter().map(|i| i.id).collect();
        let mut b: Vec<u64> = incr.window(&q).into_iter().map(|i| i.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "case {case}");
    }
}
