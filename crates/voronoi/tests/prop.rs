//! Randomized property tests: the Delaunay triangulation and its
//! Voronoi dual on random point sets.
//!
//! Formerly `proptest`; now seeded [`lbq_rng`] randomness (no crates.io
//! access in the build environment). Every run checks the same cases.

use lbq_geom::{ConvexPolygon, HalfPlane, Point, Rect};
use lbq_rng::Xoshiro256ss;
use lbq_voronoi::{Delaunay, VoronoiDiagram};

/// Random cases per property.
const CASES: usize = 48;

fn rand_sites(rng: &mut Xoshiro256ss, max: usize) -> Vec<Point> {
    let n = rng.gen_range(1..max);
    (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect()
}

fn unit() -> Rect {
    Rect::new(0.0, 0.0, 1.0, 1.0)
}

#[test]
fn triangulation_is_delaunay_with_symmetric_adjacency() {
    let mut rng = Xoshiro256ss::seed_from_u64(0xDE1A);
    for case in 0..CASES {
        let sites = rand_sites(&mut rng, 80);
        let d = Delaunay::build(&sites, unit());
        d.check_adjacency()
            .unwrap_or_else(|e| panic!("case {case}: adjacency: {e}"));
        d.check_delaunay()
            .unwrap_or_else(|e| panic!("case {case}: delaunay: {e}"));
    }
}

#[test]
fn cells_tile_the_universe() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x711E);
    for case in 0..CASES {
        let sites = rand_sites(&mut rng, 60);
        let d = VoronoiDiagram::build(&sites, unit());
        let total: f64 = (0..d.len()).map(|i| d.cell(i).area()).sum();
        assert!((total - 1.0).abs() < 1e-6, "case {case}: total {total}");
    }
}

#[test]
fn cell_matches_all_pairs_clipping() {
    let mut rng = Xoshiro256ss::seed_from_u64(0xA11);
    for case in 0..CASES {
        let sites = rand_sites(&mut rng, 25);
        // The Delaunay-dual cell equals the brute-force intersection of
        // every bisector half-plane.
        let d = Delaunay::build(&sites, unit());
        for i in 0..sites.len() {
            let mut brute = ConvexPolygon::from_rect(&unit());
            for (j, &o) in sites.iter().enumerate() {
                if j != i && sites[i].dist(o) > 1e-12 {
                    brute = brute.clip(&HalfPlane::bisector(sites[i], o));
                }
            }
            let dual = d.voronoi_cell(i);
            assert!(
                (dual.area() - brute.area()).abs() < 1e-8,
                "case {case} site {i}: dual {} brute {}",
                dual.area(),
                brute.area()
            );
        }
    }
}

#[test]
fn nearest_site_owns_containing_cell() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x0EA5);
    for case in 0..CASES {
        let sites = rand_sites(&mut rng, 40);
        let q = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let d = VoronoiDiagram::build(&sites, unit());
        let ns = d.nearest_site(q).expect("non-empty site set");
        assert!(d.cell(ns).contains_eps(q, 1e-6), "case {case}: q {q}");
    }
}
