//! The serving path's nearest-first region construction
//! ([`knn_region_in`]) against the paper's TPNN chain
//! ([`retrieve_influence_set`]), plus the tie and duplicate recipes the
//! chain gets wrong.
//!
//! - Uniform data: the same influence pairs and the same polygon.
//! - Skewed data: the same area to 1e-5, and every pair the two
//!   constructions disagree on carries an edge shorter than the vertex
//!   tolerance (a numerically vanishing side of the cell).

use lbq_core::nn::vertex_eps;
use lbq_core::{knn_region_in, retrieve_influence_set, LbqServer, NnValidity};
use lbq_geom::{ConvexPolygon, HalfPlane, Point, Rect};
use lbq_rng::Xoshiro256ss;
use lbq_rtree::{Item, QueryScratch, RTree, RTreeConfig};

/// One region from the nearest-first pass, detached from the scratch.
fn pass(
    tree: &RTree,
    q: Point,
    k: usize,
    u: Rect,
    s: &mut QueryScratch,
) -> (Vec<Item>, NnValidity) {
    let (result, validity, _) = knn_region_in(tree, q, k, u, s);
    (result.to_vec(), validity.to_owned())
}

/// The chain's region for the same result, or `None` where it panics on
/// coincident sites (an open defect of the chain, not of this pass).
fn chain(tree: &RTree, q: Point, result: &[Item], u: Rect) -> Option<NnValidity> {
    std::panic::catch_unwind(|| retrieve_influence_set(tree, q, result, u).0).ok()
}

fn sorted_pairs(v: &NnValidity) -> Vec<(u64, u64)> {
    let mut p: Vec<(u64, u64)> = v.pairs.iter().map(|p| (p.inner.id, p.outer.id)).collect();
    p.sort_unstable();
    p
}

/// Every vertex of `a` lies within `eps` of a vertex of `b`.
fn vertices_covered(a: &ConvexPolygon, b: &ConvexPolygon, eps: f64) -> bool {
    a.vertices()
        .iter()
        .all(|v| b.vertices().iter().any(|w| v.dist(*w) <= eps))
}

/// Length of the longest edge of `v`'s polygon lying on the bisector of
/// the pair `(inner, outer)`; 0 when no edge does.
fn edge_on(v: &NnValidity, (inner, outer): (u64, u64), eps: f64) -> f64 {
    let pair = v
        .pairs
        .iter()
        .find(|p| (p.inner.id, p.outer.id) == (inner, outer))
        .unwrap();
    let h = HalfPlane::bisector(pair.inner.point, pair.outer.point);
    let ring = v.polygon.vertices();
    let on = |p: Point| h.signed_dist(p).abs() <= eps;
    (0..ring.len())
        .map(|j| (ring[j], ring[(j + 1) % ring.len()]))
        .filter(|&(a, b)| on(a) && on(b))
        .map(|(a, b)| a.dist(b))
        .fold(0.0, f64::max)
}

#[test]
fn uniform_regions_match_the_chain_pair_for_pair() {
    let data = lbq_data::uniform_unit(20_000, 0x5EED);
    let u = data.universe;
    let eps = vertex_eps(&u);
    let tree = RTree::bulk_load(data.items, RTreeConfig::paper());
    let mut rng = Xoshiro256ss::seed_from_u64(3);
    let mut scratch = QueryScratch::new();
    for k in [1usize, 4, 10] {
        for case in 0..150 {
            let q = Point::new(rng.gen_f64(), rng.gen_f64());
            let (result, fast) = pass(&tree, q, k, u, &mut scratch);
            let knn: Vec<Item> = tree.knn(q, k).into_iter().map(|(i, _)| i).collect();
            assert_eq!(result, knn, "k={k} case {case}: result");
            let slow = chain(&tree, q, &result, u).unwrap();
            assert_eq!(
                sorted_pairs(&fast),
                sorted_pairs(&slow),
                "k={k} case {case}"
            );
            assert_eq!(fast.polygon.len(), slow.polygon.len(), "k={k} case {case}");
            assert!(
                vertices_covered(&fast.polygon, &slow.polygon, eps)
                    && vertices_covered(&slow.polygon, &fast.polygon, eps),
                "k={k} case {case}: {:?} vs {:?}",
                fast.polygon,
                slow.polygon
            );
        }
    }
}

#[test]
fn skewed_regions_match_the_chain_up_to_vanishing_edges() {
    let data = lbq_data::na_like_sized(40_000, 7);
    let u = data.universe;
    let eps = vertex_eps(&u);
    let foci = lbq_data::query_points(&data, 200, 0.001, 5);
    let tree = RTree::bulk_load(data.items, RTreeConfig::paper());
    let mut scratch = QueryScratch::new();
    let mut compared = 0;
    for k in [1usize, 4, 10] {
        for (case, &q) in foci.iter().enumerate() {
            let (result, fast) = pass(&tree, q, k, u, &mut scratch);
            let Some(slow) = chain(&tree, q, &result, u) else {
                continue;
            };
            compared += 1;
            let rel = (fast.area() - slow.area()).abs() / slow.area();
            assert!(rel <= 1e-5, "k={k} case {case}: area off by {rel:e}");
            let (a, b) = (sorted_pairs(&fast), sorted_pairs(&slow));
            for &p in a.iter().filter(|p| !b.contains(p)) {
                let len = edge_on(&fast, p, eps);
                assert!(len < eps, "k={k} case {case}: extra pair {p:?}, edge {len}");
            }
            for &p in b.iter().filter(|p| !a.contains(p)) {
                let len = edge_on(&slow, p, eps);
                assert!(
                    len < eps,
                    "k={k} case {case}: missing pair {p:?}, edge {len}"
                );
            }
        }
    }
    assert!(compared >= 550, "only {compared} regions compared");
}

/// Sites on the lattice `(i + off, j + off)`, `i, j < side`, ids row-major.
fn lattice(side: usize, off: f64) -> Vec<Item> {
    (0..side * side)
        .map(|n| {
            let (i, j) = (n / side, n % side);
            Item::new(Point::new(i as f64 + off, j as f64 + off), n as u64)
        })
        .collect()
}

#[test]
fn coincident_site_answers_with_the_closed_cell() {
    // A 100 × 100 lattice with the site (50, 50) repeated under a second
    // id. The twin is an outsider at the result's position: it adds no
    // constraint, and no bisector of two equal points is built.
    let mut items = lattice(100, 0.0);
    items.push(Item::new(Point::new(50.0, 50.0), 10_000));
    let server = LbqServer::from_items(items, Rect::new(0.0, 0.0, 100.0, 100.0));
    let resp = server.knn_with_validity(Point::new(50.2, 50.4), 1);
    assert_eq!(resp.result.len(), 1);
    assert_eq!(
        resp.result[0].id,
        50 * 100 + 50,
        "ties go to the smaller id"
    );
    assert_eq!(resp.validity.pairs.len(), 4);
    assert!(
        (resp.validity.area() - 1.0).abs() < 1e-9,
        "area {}",
        resp.validity.area()
    );
}

#[test]
fn focus_on_a_bisector_gets_the_unit_cell() {
    // Half-integer lattice: (10, 10.5) is equidistant from (9.5, 10.5)
    // and (10.5, 10.5). The smaller id wins, and its region is its
    // closed Voronoi cell, the unit square [9, 10] × [10, 11].
    let server = LbqServer::from_items(lattice(64, 0.5), Rect::new(0.0, 0.0, 64.0, 64.0));
    let resp = server.knn_with_validity(Point::new(10.0, 10.5), 1);
    assert_eq!(resp.result[0].point, Point::new(9.5, 10.5));
    assert_eq!(resp.validity.pairs.len(), 4);
    assert!(
        (resp.validity.area() - 1.0).abs() < 1e-9,
        "area {}",
        resp.validity.area()
    );
    assert!(resp.validity.contains(Point::new(9.1, 10.9)));
    assert!(!resp.validity.contains(Point::new(10.1, 10.5)));
}

#[test]
fn no_outsiders_leaves_the_universe() {
    let data = lbq_data::uniform_unit(30, 1);
    let u = data.universe;
    let tree = RTree::bulk_load(data.items, RTreeConfig::tiny());
    let mut scratch = QueryScratch::new();
    let q = Point::new(0.3, 0.6);
    // k = 0, and a result holding the whole dataset (k ≥ n): nothing is
    // tested and the region is the universe.
    for k in [0, 30, 31] {
        let (result, validity, tested) = knn_region_in(&tree, q, k, u, &mut scratch);
        assert_eq!(result.len(), k.min(30), "k={k}");
        assert_eq!((validity.pair_count(), tested), (0, 0), "k={k}");
        assert!((validity.area() - 1.0).abs() < 1e-12, "k={k}");
    }
    // One outsider: the result's cell is cut by exactly its bisectors.
    let (_, validity, tested) = knn_region_in(&tree, q, 29, u, &mut scratch);
    assert_eq!(tested, 1);
    assert!(validity.pair_count() >= 1 && validity.area() < 1.0);
}
