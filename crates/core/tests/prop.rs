//! Randomized property tests for the paper's central soundness claims:
//!
//! * anywhere inside a kNN validity region, the kNN result set is
//!   byte-identical to the one computed at the query point (the region
//!   is the order-k Voronoi cell — Observation, §3.1);
//! * anywhere inside a window validity region, the window result is
//!   identical; the conservative rectangle is contained in the exact
//!   region;
//! * for k = 1 the region *equals* the Voronoi cell of the nearest
//!   neighbor (checked against the independent Delaunay-based
//!   construction in `lbq-voronoi`).
//!
//! Formerly `proptest`; now seeded [`lbq_rng`] randomness (no crates.io
//! access in the build environment). Every run checks the same cases.

use lbq_core::{retrieve_influence_set, window_with_validity};
use lbq_geom::{Point, Rect};
use lbq_rng::Xoshiro256ss;
use lbq_rtree::{Item, RTree, RTreeConfig};
use lbq_voronoi::VoronoiDiagram;

/// Random cases per property.
const CASES: usize = 40;

fn rand_items(rng: &mut Xoshiro256ss, min: usize, max: usize) -> Vec<Item> {
    let n = rng.gen_range(min..max);
    (0..n)
        .map(|i| {
            Item::new(
                Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
                i as u64,
            )
        })
        .collect()
}

fn rand_probes(rng: &mut Xoshiro256ss, n: usize) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect()
}

fn unit() -> Rect {
    Rect::new(0.0, 0.0, 1.0, 1.0)
}

#[test]
fn nn_region_equals_voronoi_cell() {
    let mut rng = Xoshiro256ss::seed_from_u64(0xF00);
    for case in 0..CASES {
        let items = rand_items(&mut rng, 3, 60);
        let q = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let inner: Vec<Item> = tree.knn(q, 1).into_iter().map(|(i, _)| i).collect();
        let (validity, _) = retrieve_influence_set(&tree, q, &inner, unit());

        // Independent ground truth: Delaunay-dual Voronoi cell.
        let sites: Vec<Point> = items.iter().map(|i| i.point).collect();
        let vd = VoronoiDiagram::build(&sites, unit());
        let cell = vd.cell(usize::try_from(inner[0].id).expect("small test id"));
        assert!(
            (validity.area() - cell.area()).abs() <= 1e-7 * cell.area().max(1e-12),
            "case {case}: region {} vs voronoi cell {}",
            validity.area(),
            cell.area()
        );
    }
}

#[test]
fn knn_region_is_sound() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x50D);
    let mut tested = 0;
    while tested < CASES {
        let items = rand_items(&mut rng, 8, 120);
        let q = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let k = rng.gen_range(1..6usize);
        let probes = rand_probes(&mut rng, 30);
        if items.len() <= k {
            continue;
        }
        tested += 1;
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let inner: Vec<Item> = tree.knn(q, k).into_iter().map(|(i, _)| i).collect();
        let inner_ids: std::collections::BTreeSet<u64> = inner.iter().map(|i| i.id).collect();
        let (validity, _) = retrieve_influence_set(&tree, q, &inner, unit());
        // Degenerate regions report an exact 0.0
        assert!(validity.contains(q) || validity.area() == 0.0);
        for p in probes {
            if validity.contains(p) {
                let set: std::collections::BTreeSet<u64> =
                    tree.knn(p, k).into_iter().map(|(i, _)| i.id).collect();
                assert_eq!(&set, &inner_ids, "at {p} (q={q})");
            }
        }
    }
}

#[test]
fn window_region_is_sound_and_conservative_nested() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x31D0);
    for case in 0..CASES {
        let items = rand_items(&mut rng, 5, 150);
        let c = Point::new(rng.gen_range(0.1..0.9), rng.gen_range(0.1..0.9));
        let hx = rng.gen_range(0.01..0.15);
        let hy = rng.gen_range(0.01..0.15);
        let probes = rand_probes(&mut rng, 30);
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let resp = window_with_validity(&tree, c, hx, hy, unit());
        let baseline: std::collections::BTreeSet<u64> = resp.result.iter().map(|i| i.id).collect();
        assert!(resp.validity.contains(c), "case {case}");
        for p in probes {
            if resp.validity.contains_conservative(p) {
                assert!(resp.validity.contains(p), "conservative ⊄ exact at {p}");
            }
            if resp.validity.contains(p) {
                let w = Rect::centered(p, hx, hy);
                let set: std::collections::BTreeSet<u64> = items
                    .iter()
                    .filter(|i| w.contains(i.point))
                    .map(|i| i.id)
                    .collect();
                assert_eq!(&set, &baseline, "at {p} (c={c})");
            }
        }
        // Area consistency: conservative ≤ exact ≤ inner rect.
        let exact = resp.validity.area();
        assert!(
            resp.validity.conservative.area() <= exact + 1e-9,
            "case {case}"
        );
        assert!(
            exact <= resp.validity.inner_rect.area() + 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn influence_pairs_are_necessary() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x4EC);
    let mut tested = 0;
    while tested < CASES {
        let items = rand_items(&mut rng, 5, 50);
        let q = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        // Each influence pair's half-plane must cut the region built
        // from the remaining pairs (minimality, Lemma 3.1 part ii).
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let inner: Vec<Item> = tree.knn(q, 1).into_iter().map(|(i, _)| i).collect();
        let (validity, _) = retrieve_influence_set(&tree, q, &inner, unit());
        if validity.area() <= 1e-12 {
            continue;
        }
        tested += 1;
        let planes: Vec<_> = validity.pairs.iter().map(|p| p.half_plane()).collect();
        for skip in 0..planes.len() {
            let rest: Vec<_> = planes
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, h)| *h)
                .collect();
            let poly = lbq_geom::ConvexPolygon::from_rect(&unit()).clip_all(rest.iter());
            // Removing a constraint can only grow the region.
            assert!(
                poly.area() > validity.area() - 1e-12,
                "pair {skip} did not constrain the region"
            );
            // "No false hits" (Lemma 3.1 ii): every pair's bisector
            // touches the region boundary — it contributes an edge,
            // possibly a degenerate one through a vertex.
            let touch = validity
                .polygon
                .vertices()
                .iter()
                .map(|&v| planes[skip].signed_dist(v).abs())
                .fold(f64::INFINITY, f64::min);
            assert!(
                touch <= 1e-7,
                "pair {skip}'s bisector is {touch} away from the region"
            );
        }
    }
}
