//! Answers are a function of the point set, not of the arena: two trees
//! holding the same items — one grown by R\* inserts, one STR
//! bulk-loaded, or one mutated after its build — must return
//! **bit-identical** kNN, TPNN and window answers. The candidate set
//! breaks distance ties by id and the TPNN scan breaks time ties by id,
//! so neither node order nor tree shape may leak into a result; this
//! suite pins that across both configs on a mixed ~250-query stream.

use lbq_geom::{Point, Rect, Vec2};
use lbq_rng::Xoshiro256ss;
use lbq_rtree::{Item, QueryScratch, RTree, RTreeConfig};

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

fn insert_built(items: &[Item], config: RTreeConfig) -> RTree {
    let mut tree = RTree::new(config);
    for &item in items {
        tree.insert(item);
    }
    tree
}

fn assert_nn_identical(a: &[(Item, f64)], b: &[(Item, f64)], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: result length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.0.id, y.0.id, "{ctx}: id at {i}");
        assert_eq!(
            x.1.to_bits(),
            y.1.to_bits(),
            "{ctx}: distance bits at {i} ({} vs {})",
            x.1,
            y.1
        );
    }
}

/// Window results come back in traversal order, which legitimately
/// differs between trees; the *set* must match exactly.
fn assert_window_identical(a: &[Item], b: &[Item], ctx: &str) {
    let mut a: Vec<u64> = a.iter().map(|i| i.id).collect();
    let mut b: Vec<u64> = b.iter().map(|i| i.id).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "{ctx}: window item set");
}

fn configs() -> [RTreeConfig; 2] {
    [RTreeConfig::tiny(), RTreeConfig::paper()]
}

/// A mixed ~250-query stream (kNN best-first, kNN depth-first, window,
/// TPNN) against both trees, all results compared bit-for-bit.
fn assert_stream_equiv(a: &RTree, b: &RTree, rng: &mut Xoshiro256ss, ctx: &str) {
    let mut sa = QueryScratch::new();
    let mut sb = QueryScratch::new();
    for case in 0..250 {
        let q = Point::new(rng.gen_range(-0.2..1.2), rng.gen_range(-0.2..1.2));
        match case % 4 {
            0 => {
                let k = rng.gen_range(1..14usize);
                assert_nn_identical(
                    a.knn_in(q, k, &mut sa),
                    b.knn_in(q, k, &mut sb),
                    &format!("{ctx}: knn case {case}"),
                );
            }
            1 => {
                let k = rng.gen_range(1..10usize);
                assert_nn_identical(
                    a.knn_depth_first_in(q, k, &mut sa),
                    b.knn_depth_first_in(q, k, &mut sb),
                    &format!("{ctx}: knn-df case {case}"),
                );
            }
            2 => {
                let w = rng.gen_range(0.01..0.3);
                let h = rng.gen_range(0.01..0.3);
                let win = Rect::new(q.x, q.y, q.x + w, q.y + h);
                assert_window_identical(
                    a.window_in(&win, &mut sa),
                    b.window_in(&win, &mut sb),
                    &format!("{ctx}: window case {case}"),
                );
            }
            _ => {
                // TPNN probe seeded like the validity-region loop: the
                // inner set is a kNN result, the ray is random.
                let k = rng.gen_range(1..6usize);
                let inner: Vec<Item> = a.knn_in(q, k, &mut sa).iter().map(|&(i, _)| i).collect();
                let dir = rand_dir(rng);
                let t_max = rng.gen_range(0.05..2.0);
                let ea = a.tp_knn_in(q, dir, t_max, &inner, &mut sa);
                let eb = b.tp_knn_in(q, dir, t_max, &inner, &mut sb);
                match (ea, eb) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        assert_eq!(x.object.id, y.object.id, "{ctx}: tpnn object {case}");
                        assert_eq!(x.partner.id, y.partner.id, "{ctx}: tpnn partner {case}");
                        assert_eq!(
                            x.time.to_bits(),
                            y.time.to_bits(),
                            "{ctx}: tpnn time bits {case}"
                        );
                    }
                    (x, y) => panic!("{ctx}: tpnn case {case} diverged: {x:?} vs {y:?}"),
                }
            }
        }
    }
}

#[test]
fn insert_built_and_bulk_loaded_trees_answer_bit_for_bit() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x9E9ACC);
    for config in configs() {
        let items = rand_items(&mut rng, 1200);
        let grown = insert_built(&items, config);
        let bulk = RTree::bulk_load(items, config);
        assert_eq!(grown.len(), bulk.len());
        grown.validate().expect("insert-built tree invariants");
        assert_stream_equiv(&grown, &bulk, &mut rng, "insert-built vs bulk-loaded");
    }
}

#[test]
fn mutated_tree_answers_bit_for_bit() {
    let mut rng = Xoshiro256ss::seed_from_u64(0xFA11BAC);
    for config in configs() {
        let items = rand_items(&mut rng, 900);
        // Inserts split nodes and claim arena slots, deletes condense
        // and free them; the mutated tree must still answer exactly as
        // a tree grown from its final item set.
        let mut mutated = RTree::bulk_load(items.clone(), config);
        let extra: Vec<Item> = (0..60)
            .map(|j| {
                Item::new(
                    Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
                    10_000 + j,
                )
            })
            .collect();
        for &item in &extra {
            mutated.insert(item);
        }
        for item in items.iter().step_by(7) {
            assert!(mutated.delete(item.point, item.id));
        }
        mutated.validate().expect("mutated tree invariants");
        let kept: Vec<Item> = items
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 7 != 0)
            .map(|(_, &item)| item)
            .chain(extra)
            .collect();
        let grown = insert_built(&kept, config);
        assert_eq!(mutated.len(), grown.len());
        assert_stream_equiv(&mutated, &grown, &mut rng, "mutated vs insert-built");
    }
}
