//! The best-first kNN is exact and `[HS99]`-optimal, checked against
//! oracles that do not depend on traversal order:
//!
//! * its answer equals brute force — ids and distance bits, distance
//!   ties broken by id;
//! * its node accesses equal `1 + #{non-root nodes whose stored MBR has
//!   mindist² ≤ d_k²}`: the root, plus exactly the pages whose MBR
//!   reaches the final k-NN disk (every page when k exceeds the data).
//!
//! The second identity is what the kernel's pruning must preserve: a
//! child bound that is too tight loses a page (or a result), a stale
//! k-th distance at the prune test or a bound taken from under-filled
//! subtrees reads pages the disk does not reach. The trees cover a
//! bulk-loaded paper-fanout tree, a deep tiny-fanout tree and trees
//! mutated by inserts and deletes; the data covers generic points,
//! lattice ties and stacks of coincident points; the foci sit inside,
//! on and outside the data MBR.

use lbq_geom::{Point, Rect};
use lbq_rng::Xoshiro256ss;
use lbq_rtree::{Item, QueryScratch, RTree, RTreeConfig};

fn uniform(rng: &mut Xoshiro256ss, n: usize) -> Vec<Item> {
    (0..n)
        .map(|i| {
            Item::new(
                Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
                i as u64,
            )
        })
        .collect()
}

/// A `side × side` integer lattice: every focus on a lattice point or
/// a cell centre sees exact distance ties.
fn lattice(side: usize) -> Vec<Item> {
    (0..side * side)
        .map(|i| Item::new(Point::new((i % side) as f64, (i / side) as f64), i as u64))
        .collect()
}

/// `sites` random locations, `copies` coincident points at each (so
/// whole leaves collapse to a point MBR), ids interleaved so a stack
/// never holds a contiguous id range.
fn stacks(rng: &mut Xoshiro256ss, sites: usize, copies: usize) -> Vec<Item> {
    let at: Vec<Point> = (0..sites)
        .map(|_| Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    (0..sites * copies)
        .map(|i| Item::new(at[i % sites], i as u64))
        .collect()
}

/// Inserts fresh points and deletes every seventh original, as
/// `arena_equiv.rs` does; returns the tree and its final item set.
fn mutated(items: &[Item], config: RTreeConfig, rng: &mut Xoshiro256ss) -> (RTree, Vec<Item>) {
    let mut tree = RTree::bulk_load(items.to_vec(), config);
    let base = items.len() as u64;
    let extra: Vec<Item> = (0..items.len() as u64 / 10)
        .map(|j| {
            Item::new(
                Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
                base + j,
            )
        })
        .collect();
    for &item in &extra {
        tree.insert(item);
    }
    for item in items.iter().step_by(7) {
        assert!(tree.delete(item.point, item.id));
    }
    let kept = items
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 7 != 0)
        .map(|(_, &item)| item)
        .chain(extra)
        .collect();
    (tree, kept)
}

/// Foci inside, on and outside the data MBR `r`, plus `extra`.
fn foci(r: Rect, rng: &mut Xoshiro256ss, extra: &[Point]) -> Vec<Point> {
    let (w, h) = (r.width().max(1.0), r.height().max(1.0));
    let mut out = vec![
        // On the MBR: corners and edge midpoints.
        Point::new(r.xmin, r.ymin),
        Point::new(r.xmax, r.ymax),
        Point::new(r.xmin, r.ymax),
        Point::new(0.5 * (r.xmin + r.xmax), r.ymin),
        Point::new(r.xmax, 0.5 * (r.ymin + r.ymax)),
        // Outside: near, diagonal and far.
        Point::new(r.xmin - 0.05 * w, 0.3 * r.ymin + 0.7 * r.ymax),
        Point::new(r.xmax + 0.5 * w, r.ymax + 0.5 * h),
        Point::new(r.xmin - 40.0 * w, r.ymin - 25.0 * h),
    ];
    out.extend(
        (0..5).map(|_| Point::new(rng.gen_range(r.xmin..r.xmax), rng.gen_range(r.ymin..r.ymax))),
    );
    out.extend_from_slice(extra);
    out
}

fn check(tree: &RTree, items: &[Item], foci: &[Point], ctx: &str) {
    tree.validate().expect("tree invariants");
    assert_eq!(tree.len(), items.len(), "{ctx}: item count");
    let mbrs: Vec<Rect> = tree.iter_child_mbrs().collect();
    assert_eq!(mbrs.len() + 1, tree.node_count(), "{ctx}: MBR census");
    let n = items.len();
    let m = tree.config().min_entries;
    let mut scratch = QueryScratch::new();
    for &q in foci {
        let mut brute: Vec<(f64, Item)> = items.iter().map(|&i| (q.dist_sq(i.point), i)).collect();
        brute.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id)));
        for k in [1, 4, 10, 34, m, m + 1, 124, n, n + 3] {
            let ctx = format!("{ctx}: q={q} k={k}");
            let (got, stats) = tree.with_stats(|t| t.knn_in(q, k, &mut scratch).to_vec());
            let want = &brute[..k.min(n)];
            assert_eq!(got.len(), want.len(), "{ctx}: result length");
            for (rank, ((gi, gd), (wd2, wi))) in got.iter().zip(want).enumerate() {
                assert_eq!(gi.id, wi.id, "{ctx}: id at rank {rank}");
                assert_eq!(
                    gd.to_bits(),
                    wd2.sqrt().to_bits(),
                    "{ctx}: distance bits at rank {rank}"
                );
            }
            let dk_sq = if k <= n { want[k - 1].0 } else { f64::INFINITY };
            let reached = mbrs.iter().filter(|r| r.mindist_sq(q) <= dk_sq).count();
            assert_eq!(
                stats.node_accesses,
                1 + reached as u64,
                "{ctx}: NA must be the root plus every page the k-NN disk reaches"
            );
        }
    }
}

#[test]
fn paper_fanout_bulk_loaded() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x0B71);
    let items = uniform(&mut rng, 30_000);
    let tree = RTree::bulk_load(items.clone(), RTreeConfig::paper());
    assert!(tree.height() >= 3, "paper tree must have an internal level");
    let r = tree.mbr().expect("non-empty");
    check(&tree, &items, &foci(r, &mut rng, &[]), "paper uniform");

    let items = lattice(160);
    let tree = RTree::bulk_load(items.clone(), RTreeConfig::paper());
    let r = tree.mbr().expect("non-empty");
    let ties = [Point::new(80.0, 80.0), Point::new(40.5, 99.5)];
    check(&tree, &items, &foci(r, &mut rng, &ties), "paper lattice");

    let items = stacks(&mut rng, 120, 200);
    let tree = RTree::bulk_load(items.clone(), RTreeConfig::paper());
    let r = tree.mbr().expect("non-empty");
    let on_stack = [items[17].point, items[3].point];
    check(&tree, &items, &foci(r, &mut rng, &on_stack), "paper stacks");
}

#[test]
fn tiny_fanout_deep_tree() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x71D1);
    let items = uniform(&mut rng, 3_000);
    let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
    assert!(tree.height() >= 5, "tiny tree must be deep");
    let r = tree.mbr().expect("non-empty");
    check(&tree, &items, &foci(r, &mut rng, &[]), "tiny uniform");

    let items = lattice(45);
    let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
    let r = tree.mbr().expect("non-empty");
    let ties = [
        Point::new(22.0, 22.0),
        Point::new(10.5, 30.5),
        Point::new(0.0, 7.0),
    ];
    check(&tree, &items, &foci(r, &mut rng, &ties), "tiny lattice");

    let items = stacks(&mut rng, 90, 24);
    let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
    let r = tree.mbr().expect("non-empty");
    let on_stack = [items[5].point, items[44].point];
    check(&tree, &items, &foci(r, &mut rng, &on_stack), "tiny stacks");
}

#[test]
fn insert_and_delete_mutated_trees() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x3D17);
    for config in [RTreeConfig::tiny(), RTreeConfig::paper()] {
        let base = uniform(&mut rng, 2_500);
        let (tree, items) = mutated(&base, config, &mut rng);
        let r = tree.mbr().expect("non-empty");
        check(&tree, &items, &foci(r, &mut rng, &[]), "mutated uniform");

        let base = lattice(40);
        let (tree, items) = mutated(&base, config, &mut rng);
        let r = tree.mbr().expect("non-empty");
        let ties = [Point::new(20.0, 20.0), Point::new(5.5, 33.5)];
        check(&tree, &items, &foci(r, &mut rng, &ties), "mutated lattice");

        let base = stacks(&mut rng, 60, 30);
        let (tree, items) = mutated(&base, config, &mut rng);
        let r = tree.mbr().expect("non-empty");
        let on_stack = [base[8].point];
        check(
            &tree,
            &items,
            &foci(r, &mut rng, &on_stack),
            "mutated stacks",
        );
    }
}
