//! Equivalence suite for the zero-allocation `_in` query variants: for
//! every query kind, the scratch-backed path must return **bit-identical**
//! results to the plain allocating path (which itself delegates to `_in`
//! with a fresh scratch — these tests pin that delegation and prove a
//! *reused* scratch carries no state between calls, across query kinds
//! and across configs).

use lbq_geom::{Point, Rect, Vec2};
use lbq_rng::Xoshiro256ss;
use lbq_rtree::{Item, QueryScratch, RTree, RTreeConfig, TpBound};

fn rand_items(rng: &mut Xoshiro256ss, n: usize) -> Vec<Item> {
    (0..n)
        .map(|i| {
            Item::new(
                Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
                i as u64,
            )
        })
        .collect()
}

fn rand_dir(rng: &mut Xoshiro256ss) -> Vec2 {
    loop {
        let v = Vec2::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        if let Some(u) = v.normalized() {
            return u;
        }
    }
}

/// Bitwise equality for (item, distance) result lists.
fn assert_nn_identical(plain: &[(Item, f64)], scratch: &[(Item, f64)], ctx: &str) {
    assert_eq!(plain.len(), scratch.len(), "{ctx}: result length");
    for (i, (p, s)) in plain.iter().zip(scratch).enumerate() {
        assert_eq!(p.0.id, s.0.id, "{ctx}: id at {i}");
        assert_eq!(
            p.1.to_bits(),
            s.1.to_bits(),
            "{ctx}: distance bits at {i} ({} vs {})",
            p.1,
            s.1
        );
    }
}

fn configs() -> [RTreeConfig; 2] {
    [RTreeConfig::tiny(), RTreeConfig::paper()]
}

#[test]
fn knn_in_bit_identical_to_knn() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x51A7C4);
    for config in configs() {
        let tree = RTree::bulk_load(rand_items(&mut rng, 900), config);
        let mut scratch = QueryScratch::new();
        for case in 0..60 {
            let q = Point::new(rng.gen_range(-0.2..1.2), rng.gen_range(-0.2..1.2));
            let k = rng.gen_range(1..12usize);
            let plain = tree.knn(q, k);
            let reused = tree.knn_in(q, k, &mut scratch);
            assert_nn_identical(&plain, reused, &format!("knn case {case}"));
        }
    }
}

#[test]
fn window_in_bit_identical_to_window() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x77AA01);
    for config in configs() {
        let tree = RTree::bulk_load(rand_items(&mut rng, 800), config);
        let mut scratch = QueryScratch::new();
        for case in 0..60 {
            let x = rng.gen_range(0.0..0.9);
            let y = rng.gen_range(0.0..0.9);
            let w = Rect::new(
                x,
                y,
                x + rng.gen_range(0.01..0.4),
                y + rng.gen_range(0.01..0.4),
            );
            let plain = tree.window(&w);
            let reused = tree.window_in(&w, &mut scratch);
            assert_eq!(plain.len(), reused.len(), "window case {case}");
            for (p, s) in plain.iter().zip(reused) {
                assert_eq!(p.id, s.id, "window case {case}");
            }
        }
    }
}

#[test]
fn tp_knn_in_bit_identical_for_both_bounds() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x79AB2C);
    for config in configs() {
        let tree = RTree::bulk_load(rand_items(&mut rng, 600), config);
        let mut scratch = QueryScratch::new();
        for case in 0..40 {
            let q = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let dir = rand_dir(&mut rng);
            let t_max = rng.gen_range(0.01..1.5);
            let k = rng.gen_range(1..5usize);
            let inner: Vec<Item> = tree.knn(q, k).into_iter().map(|(i, _)| i).collect();
            for bound in [TpBound::Loose, TpBound::Exact] {
                let mut fresh = QueryScratch::new();
                let plain = tree.tp_knn_with_bound_in(q, dir, t_max, &inner, bound, &mut fresh);
                let reused = tree.tp_knn_with_bound_in(q, dir, t_max, &inner, bound, &mut scratch);
                match (plain, reused) {
                    (None, None) => {}
                    (Some(p), Some(s)) => {
                        assert_eq!(p.object.id, s.object.id, "tp case {case} {bound:?}");
                        assert_eq!(p.partner.id, s.partner.id, "tp case {case} {bound:?}");
                        assert_eq!(
                            p.time.to_bits(),
                            s.time.to_bits(),
                            "tp case {case} {bound:?}: time bits ({} vs {})",
                            p.time,
                            s.time
                        );
                    }
                    (p, s) => panic!("tp case {case} {bound:?}: {p:?} vs {s:?}"),
                }
            }
        }
    }
}

/// One scratch across 1000 interleaved queries of every kind: reuse
/// must never leak state from one query (or query *kind*) into the
/// next.
#[test]
fn one_scratch_across_mixed_query_stream() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x00A11A5);
    let tree = RTree::bulk_load(rand_items(&mut rng, 1000), RTreeConfig::tiny());
    let mut scratch = QueryScratch::new();
    for case in 0..1000 {
        let q = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        match case % 4 {
            0 => {
                let k = rng.gen_range(1..10usize);
                let plain = tree.knn(q, k);
                assert_nn_identical(&plain, tree.knn_in(q, k, &mut scratch), "mixed knn");
            }
            1 => {
                let w = Rect::centered(q, rng.gen_range(0.01..0.3), rng.gen_range(0.01..0.3));
                let plain = tree.window(&w);
                let reused = tree.window_in(&w, &mut scratch);
                assert_eq!(plain.len(), reused.len(), "mixed window case {case}");
                for (p, s) in plain.iter().zip(reused) {
                    assert_eq!(p.id, s.id, "mixed window case {case}");
                }
            }
            2 => {
                let dir = rand_dir(&mut rng);
                let inner: Vec<Item> = tree.knn(q, 2).into_iter().map(|(i, _)| i).collect();
                let plain = tree.tp_knn(q, dir, 0.5, &inner);
                let reused =
                    tree.tp_knn_with_bound_in(q, dir, 0.5, &inner, TpBound::Loose, &mut scratch);
                assert_eq!(
                    plain.map(|e| (e.object.id, e.time.to_bits())),
                    reused.map(|e| (e.object.id, e.time.to_bits())),
                    "mixed tp case {case}"
                );
            }
            _ => {
                let k = rng.gen_range(1..6usize);
                let tile = [q, Point::new(q.x + 0.02, q.y + 0.01)];
                let mut plain = tree.knn(tile[0], k);
                plain.extend(tree.knn(tile[1], k));
                assert_nn_identical(
                    &plain,
                    tree.knn_group_in(&tile, k, &mut scratch),
                    "mixed group knn",
                );
            }
        }
    }
}
