//! # lbq-voronoi — Delaunay triangulation and Voronoi cells
//!
//! The computational-geometry baseline substrate of the `lbq` workspace
//! (reproduction of *"Location-based Spatial Queries"*, SIGMOD 2003).
//!
//! The paper's Related Work compares against Zheng & Lee `[ZL01]`, which
//! **pre-computes the Voronoi diagram** of the dataset and answers
//! moving-NN queries from it. The paper's own approach deliberately
//! avoids that precomputation (Section 3 lists four reasons), but the
//! baseline still has to exist to be compared against — so this crate
//! builds it from scratch:
//!
//! * [`Delaunay`] — incremental Bowyer–Watson triangulation with
//!   walk-based point location;
//! * [`Delaunay::voronoi_cell`] — the dual Voronoi cell of any site,
//!   clipped to a bounding universe, derived by intersecting bisector
//!   half-planes with the site's Delaunay neighbors;
//! * [`VoronoiDiagram`] — all cells precomputed, the `[ZL01]` server state.
//!
//! Beyond the baseline, the crate is the *independent ground truth* for
//! the core library's tests: the paper's Observation (Section 3.1) says
//! the validity region of a 1-NN query **is** the Voronoi cell of its
//! result, so `lbq-core`'s TPNN-driven region construction is checked
//! cell-for-cell against this crate.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod delaunay;
mod order_k;

pub use delaunay::Delaunay;
pub use order_k::OrderKScratch;

use lbq_geom::{ConvexPolygon, Point, Rect};

/// A fully precomputed Voronoi diagram over a point set — the server
/// state of the `[ZL01]` baseline.
#[derive(Debug, Clone)]
pub struct VoronoiDiagram {
    sites: Vec<Point>,
    cells: Vec<ConvexPolygon>,
    universe: Rect,
}

impl VoronoiDiagram {
    /// Builds the diagram of `sites` clipped to `universe`.
    ///
    /// O(n log n) expected construction (incremental Delaunay) plus
    /// O(deg) per cell extraction.
    pub fn build(sites: &[Point], universe: Rect) -> Self {
        let tri = Delaunay::build(sites, universe);
        let cells = (0..sites.len()).map(|i| tri.voronoi_cell(i)).collect();
        VoronoiDiagram {
            sites: sites.to_vec(),
            cells,
            universe,
        }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` when the diagram has no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The clipping universe.
    pub fn universe(&self) -> Rect {
        self.universe
    }

    /// The sites.
    pub fn sites(&self) -> &[Point] {
        &self.sites
    }

    /// The cell of site `i` (clipped to the universe).
    pub fn cell(&self, i: usize) -> &ConvexPolygon {
        &self.cells[i]
    }

    /// Locates the site whose cell contains `q` — i.e. the nearest
    /// neighbor of `q` — by brute force over sites. The `[ZL01]` server
    /// would use an R-tree over cell MBRs; the `lbq-core::baselines`
    /// module wires that up, this method is the reference answer.
    pub fn nearest_site(&self, q: Point) -> Option<usize> {
        (0..self.sites.len()).min_by(|&a, &b| {
            q.dist_sq(self.sites[a])
                .total_cmp(&q.dist_sq(self.sites[b]))
        })
    }

    /// Distance from `q` to the boundary of the cell containing it
    /// (the `[ZL01]` validity radius: result guaranteed for travel shorter
    /// than this). Returns `None` if `q` is outside cell `i`.
    pub fn escape_distance(&self, i: usize, q: Point) -> Option<f64> {
        let cell = &self.cells[i];
        if !cell.contains_eps(q, lbq_geom::EPS) {
            return None;
        }
        Some(dist_to_boundary(cell, q))
    }
}

/// Minimum distance from an interior point to the polygon boundary.
pub fn dist_to_boundary(poly: &ConvexPolygon, p: Point) -> f64 {
    let vs = poly.vertices();
    let n = vs.len();
    let mut best = f64::INFINITY;
    for i in 0..n {
        let seg = lbq_geom::Segment::new(vs[i], vs[(i + 1) % n]);
        best = best.min(seg.dist_to_point(p));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::new(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn single_site_owns_universe() {
        let d = VoronoiDiagram::build(&[Point::new(0.3, 0.6)], unit());
        assert_eq!(d.len(), 1);
        assert!((d.cell(0).area() - 1.0).abs() < 1e-9);
        assert_eq!(d.nearest_site(Point::new(0.9, 0.9)), Some(0));
    }

    #[test]
    fn two_sites_split_by_bisector() {
        let d = VoronoiDiagram::build(&[Point::new(0.25, 0.5), Point::new(0.75, 0.5)], unit());
        assert!((d.cell(0).area() - 0.5).abs() < 1e-9);
        assert!((d.cell(1).area() - 0.5).abs() < 1e-9);
        assert!(d.cell(0).contains(Point::new(0.1, 0.1)));
        assert!(d.cell(1).contains(Point::new(0.9, 0.9)));
    }

    #[test]
    fn five_point_cross() {
        // Center plus 4 axis points in [0,10]²: the center's cell is the
        // square (2.5,2.5)-(7.5,7.5) (same fixture as the geom tests,
        // now derived via Delaunay instead of direct clipping).
        let universe = Rect::new(0.0, 0.0, 10.0, 10.0);
        let sites = [
            Point::new(5.0, 5.0),
            Point::new(0.0, 5.0),
            Point::new(10.0, 5.0),
            Point::new(5.0, 0.0),
            Point::new(5.0, 10.0),
        ];
        let d = VoronoiDiagram::build(&sites, universe);
        assert!(
            (d.cell(0).area() - 25.0).abs() < 1e-6,
            "area {}",
            d.cell(0).area()
        );
        // The four outer cells tile the rest.
        let total: f64 = (0..5).map(|i| d.cell(i).area()).sum();
        assert!((total - 100.0).abs() < 1e-6);
    }

    #[test]
    fn cells_partition_universe() {
        // Deterministic scattered sites; cell areas must sum to the
        // universe area and each site must sit in its own cell.
        let mut sites = Vec::new();
        let mut s: u64 = 12345;
        for _ in 0..60 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((s >> 17) % 1000) as f64 / 1000.0;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = ((s >> 17) % 1000) as f64 / 1000.0;
            sites.push(Point::new(x, y));
        }
        let d = VoronoiDiagram::build(&sites, unit());
        let total: f64 = (0..d.len()).map(|i| d.cell(i).area()).sum();
        assert!((total - 1.0).abs() < 1e-6, "areas sum to {total}");
        for (i, &site) in sites.iter().enumerate() {
            assert!(
                d.cell(i).contains_eps(site, 1e-9),
                "site {i} outside its cell"
            );
        }
    }

    #[test]
    fn nearest_site_matches_cell_membership() {
        let sites = [
            Point::new(0.2, 0.2),
            Point::new(0.8, 0.3),
            Point::new(0.5, 0.9),
        ];
        let d = VoronoiDiagram::build(&sites, unit());
        for i in 0..20 {
            for j in 0..20 {
                let q = Point::new(i as f64 / 20.0 + 0.02, j as f64 / 20.0 + 0.02);
                let ns = d.nearest_site(q).unwrap();
                assert!(d.cell(ns).contains_eps(q, 1e-6), "q={q} ns={ns}");
            }
        }
    }

    #[test]
    fn escape_distance_is_safe() {
        let sites = [Point::new(0.3, 0.3), Point::new(0.7, 0.7)];
        let d = VoronoiDiagram::build(&sites, unit());
        let q = Point::new(0.2, 0.2);
        let site = d.nearest_site(q).unwrap();
        let r = d.escape_distance(site, q).unwrap();
        assert!(r > 0.0);
        // Any point within r of q has the same nearest site.
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            let p = q + lbq_geom::Vec2::from_angle(theta) * (r * 0.99);
            if unit().contains(p) {
                assert_eq!(d.nearest_site(p), Some(site));
            }
        }
        // Outside the cell → None.
        assert!(d.escape_distance(site, Point::new(0.9, 0.9)).is_none());
    }

    #[test]
    fn dist_to_boundary_square() {
        let poly = ConvexPolygon::from_rect(&unit());
        assert!((dist_to_boundary(&poly, Point::new(0.5, 0.5)) - 0.5).abs() < 1e-12);
        assert!((dist_to_boundary(&poly, Point::new(0.1, 0.5)) - 0.1).abs() < 1e-12);
        assert!(dist_to_boundary(&poly, Point::new(0.0, 0.3)).abs() < 1e-12);
    }
}
