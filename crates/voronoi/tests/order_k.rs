//! Ground-truth suite for the order-k machinery: the greedy walk and
//! best-first k-nearest-site enumeration are each pinned against brute
//! force over dense sample grids.

use lbq_geom::{Point, Rect};
use lbq_rng::Xoshiro256ss;
use lbq_voronoi::{Delaunay, OrderKScratch};

fn universe() -> Rect {
    Rect::new(0.0, 0.0, 1.0, 1.0)
}

fn random_sites(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = Xoshiro256ss::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.gen_f64(), rng.gen_f64()))
        .collect()
}

/// Brute-force k nearest sites, sorted by distance with index
/// tie-break. Callers pass distinct site sets, so every index is its
/// own representative.
fn brute_k_nearest(_d: &Delaunay, sites: &[Point], q: Point, k: usize) -> Vec<usize> {
    let mut by_dist: Vec<(f64, usize)> = sites
        .iter()
        .enumerate()
        .map(|(i, s)| (q.dist(*s), i))
        .collect();
    by_dist.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    by_dist.into_iter().take(k).map(|(_, i)| i).collect()
}

#[test]
fn walk_matches_brute_nearest() {
    let sites = random_sites(80, 11);
    let d = Delaunay::build(&sites, universe());
    let mut rng = Xoshiro256ss::seed_from_u64(99);
    for trial in 0..500 {
        let q = Point::new(rng.gen_f64() * 1.4 - 0.2, rng.gen_f64() * 1.4 - 0.2);
        let hint = trial % sites.len();
        let got = d.nearest_site_walk(q, hint).expect("non-empty");
        let want = (0..sites.len())
            .min_by(|&a, &b| q.dist(sites[a]).total_cmp(&q.dist(sites[b])))
            .expect("non-empty");
        assert!(
            (q.dist(sites[got]) - q.dist(sites[want])).abs() < 1e-12,
            "walk from hint {hint} found {got} at {}, brute {want} at {}",
            q.dist(sites[got]),
            q.dist(sites[want])
        );
    }
}

#[test]
fn k_nearest_matches_brute_over_dense_grid() {
    let sites = random_sites(60, 7);
    let d = Delaunay::build(&sites, universe());
    let mut scratch = OrderKScratch::default();
    let mut out = Vec::new();
    for k in [1usize, 2, 3, 5, 8, 16] {
        for gy in 0..32 {
            for gx in 0..32 {
                let q = Point::new((gx as f64 + 0.5) / 32.0, (gy as f64 + 0.5) / 32.0);
                d.k_nearest_sites_in(q, k, &mut scratch, &mut out);
                let brute = brute_k_nearest(&d, &sites, q, k);
                let mut got = out.clone();
                got.sort_unstable();
                let mut want = brute;
                want.sort_unstable();
                assert_eq!(got, want, "k={k} q=({},{})", q.x, q.y);
            }
        }
    }
}

#[test]
fn k_nearest_orders_by_distance_and_caps_at_site_count() {
    let sites = random_sites(12, 3);
    let d = Delaunay::build(&sites, universe());
    let q = Point::new(0.31, 0.62);
    let got = d.k_nearest_sites(q, 40);
    assert_eq!(got.len(), 12, "k beyond the site count returns all sites");
    for w in got.windows(2) {
        assert!(
            q.dist(sites[w[0]]) <= q.dist(sites[w[1]]) + 1e-12,
            "pops must come in nondecreasing distance order"
        );
    }
}

#[test]
fn scratch_reuse_is_bit_identical_to_fresh_scratch() {
    let sites = random_sites(45, 17);
    let d = Delaunay::build(&sites, universe());
    let mut reused = OrderKScratch::default();
    let mut out = Vec::new();
    let mut rng = Xoshiro256ss::seed_from_u64(4);
    for _ in 0..200 {
        let q = Point::new(rng.gen_f64(), rng.gen_f64());
        let k = 1 + rng.gen_index(6);
        d.k_nearest_sites_in(q, k, &mut reused, &mut out);
        assert_eq!(
            out,
            d.k_nearest_sites(q, k),
            "k-set drifted under scratch reuse"
        );
    }
}

#[test]
fn duplicates_resolve_to_representatives() {
    let mut sites = random_sites(20, 13);
    sites.push(sites[3]);
    sites.push(sites[7]);
    let d = Delaunay::build(&sites, universe());
    let got = d.k_nearest_sites(sites[3], 3);
    assert!(
        got.contains(&3),
        "duplicate site must resolve to its representative"
    );
    assert!(
        !got.contains(&20),
        "the duplicate's own index never appears in k-sets"
    );
    let cell = d.voronoi_cell(20);
    let rep_cell = d.voronoi_cell(3);
    assert!((cell.area() - rep_cell.area()).abs() < 1e-12);
    assert_eq!(cell.vertices(), rep_cell.vertices());
}

#[test]
fn collinear_sites_stay_exact() {
    let sites: Vec<Point> = (0..9)
        .map(|i| Point::new(0.1 + 0.1 * i as f64, 0.5))
        .collect();
    let d = Delaunay::build(&sites, universe());
    let mut rng = Xoshiro256ss::seed_from_u64(31);
    for _ in 0..200 {
        let q = Point::new(rng.gen_f64(), rng.gen_f64());
        let got = d.nearest_site_walk(q, 0).expect("non-empty");
        let want = (0..sites.len())
            .min_by(|&a, &b| q.dist(sites[a]).total_cmp(&q.dist(sites[b])))
            .expect("non-empty");
        assert!((q.dist(sites[got]) - q.dist(sites[want])).abs() < 1e-12);
        let mut got3 = d.k_nearest_sites(q, 3);
        got3.sort_unstable();
        let mut want3 = brute_k_nearest(&d, &sites, q, 3);
        want3.sort_unstable();
        assert_eq!(got3, want3);
    }
}
