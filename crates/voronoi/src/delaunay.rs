//! Incremental (Bowyer–Watson) Delaunay triangulation.
//!
//! Construction inserts one site at a time: locate the triangle
//! containing the site by walking the adjacency graph, flood-fill the
//! set of triangles whose circumcircle contains it (the *cavity*),
//! delete them, and fan new triangles from the site to the cavity
//! boundary. Expected O(n log n) on shuffled input, O(n²) worst case —
//! ample for the baseline and ground-truth roles this crate plays.
//!
//! A "super-triangle" far outside the universe bootstraps the process;
//! its vertices are excluded from all public answers.

use lbq_geom::{orient, ConvexPolygon, HalfPlane, Point, Rect};

/// One triangle: vertex indices (CCW) and the neighbor across the edge
/// *opposite* each vertex (`neighbors[i]` faces edge
/// `(v[(i+1)%3], v[(i+2)%3])`).
#[derive(Debug, Clone, Copy)]
struct Tri {
    v: [usize; 3],
    neighbors: [Option<usize>; 3],
    alive: bool,
}

/// A Delaunay triangulation of a point set.
#[derive(Debug, Clone)]
pub struct Delaunay {
    /// Sites followed by the 3 super-triangle vertices.
    pub(crate) points: Vec<Point>,
    pub(crate) n_sites: usize,
    pub(crate) universe: Rect,
    tris: Vec<Tri>,
    free: Vec<usize>,
    hint: usize,
    /// `dup[i]`: index of the representative site if site `i` duplicates
    /// an earlier one (within 1e-12 of universe scale), else `i`.
    pub(crate) dup: Vec<usize>,
    /// Adjacency lists over sites (built once after insertion).
    pub(crate) adjacency: Vec<Vec<usize>>,
}

impl Delaunay {
    /// Triangulates `sites`; `universe` is used both to scale the
    /// super-triangle and to clip Voronoi cells later.
    pub fn build(sites: &[Point], universe: Rect) -> Self {
        let n = sites.len();
        let mut points = sites.to_vec();
        for p in &points {
            assert!(p.is_finite(), "cannot triangulate a non-finite point");
        }
        // Super-triangle: an equilateral triangle comfortably containing
        // every site and the universe.
        let mut bound = universe;
        if let Some(data_bb) = Rect::bounding(sites) {
            bound.expand_to_rect(&data_bb);
        }
        let c = bound.center();
        let r = 50.0 * (bound.width().max(bound.height()).max(lbq_geom::EPS));
        let sv = [
            Point::new(c.x, c.y + 2.0 * r),
            Point::new(c.x - 1.7320508 * r, c.y - r),
            Point::new(c.x + 1.7320508 * r, c.y - r),
        ];
        points.extend_from_slice(&sv);
        let sv_idx = [n, n + 1, n + 2];

        let mut d = Delaunay {
            points,
            n_sites: n,
            universe,
            tris: vec![Tri {
                v: sv_idx,
                neighbors: [None; 3],
                alive: true,
            }],
            free: Vec::new(),
            hint: 0,
            dup: (0..n).collect(),
            adjacency: Vec::new(),
        };
        // Orientation of the bootstrap triangle must be CCW.
        debug_assert!(orient(sv[0], sv[1], sv[2]) > 0.0);

        let scale = bound.width().max(bound.height()).max(1.0);
        let dup_eps = lbq_geom::EPS_TIGHT * scale;
        let mut seen: Vec<usize> = Vec::new();
        for i in 0..n {
            // Exact-duplicate handling: map to the first occurrence; the
            // triangulation only stores distinct sites.
            if let Some(&rep) = seen
                .iter()
                .find(|&&j| d.points[j].dist(d.points[i]) <= dup_eps)
            {
                d.dup[i] = rep;
                continue;
            }
            seen.push(i);
            d.insert(i);
        }
        d.build_adjacency();
        d
    }

    /// Number of (original, possibly duplicated) sites.
    pub fn len(&self) -> usize {
        self.n_sites
    }

    /// `true` when the triangulation has no sites.
    pub fn is_empty(&self) -> bool {
        self.n_sites == 0
    }

    /// The Delaunay neighbors of site `i` (duplicates resolved to their
    /// representative; super-triangle vertices excluded).
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adjacency[self.dup[i]]
    }

    /// The Voronoi cell of site `i`, clipped to the universe.
    ///
    /// Dual construction: intersect the half-planes toward each Delaunay
    /// neighbor. For sites on the hull the super-vertices are skipped;
    /// the universe rectangle bounds the otherwise-unbounded cell.
    pub fn voronoi_cell(&self, i: usize) -> ConvexPolygon {
        let rep = self.dup[i];
        let site = self.points[rep];
        let mut poly = ConvexPolygon::from_rect(&self.universe);
        for &nb in &self.adjacency[rep] {
            if poly.is_empty() {
                break;
            }
            poly = poly.clip(&HalfPlane::bisector(site, self.points[nb]));
        }
        poly
    }

    /// The position of site `i` (duplicates keep their own coordinates,
    /// which coincide with their representative's within `EPS_TIGHT`).
    pub fn site(&self, i: usize) -> Point {
        self.points[i]
    }

    /// All alive triangles as site-index triples (super-triangle
    /// incident triangles excluded).
    pub fn triangles(&self) -> Vec<[usize; 3]> {
        self.tris
            .iter()
            .filter(|t| t.alive && t.v.iter().all(|&v| v < self.n_sites))
            .map(|t| t.v)
            .collect()
    }

    /// Checks the empty-circumcircle property over all real triangles
    /// against all sites — O(T·n), for tests.
    pub fn check_delaunay(&self) -> Result<(), String> {
        for t in self.tris.iter().filter(|t| t.alive) {
            if t.v.iter().any(|&v| v >= self.n_sites) {
                continue; // super-triangle fringe
            }
            let (a, b, c) = (
                self.points[t.v[0]],
                self.points[t.v[1]],
                self.points[t.v[2]],
            );
            for (i, &p) in self.points[..self.n_sites].iter().enumerate() {
                if t.v.contains(&i) || self.dup[i] != i {
                    continue;
                }
                if in_circumcircle(a, b, c, p) {
                    return Err(format!(
                        "site {i} at {p} violates circumcircle of {:?}",
                        t.v
                    ));
                }
            }
        }
        Ok(())
    }

    /// Validates neighbor-pointer symmetry and shared edges — used by
    /// tests and debugging.
    pub fn check_adjacency(&self) -> Result<(), String> {
        for (i, t) in self.tris.iter().enumerate().filter(|(_, t)| t.alive) {
            for s in 0..3 {
                let Some(nb) = t.neighbors[s] else { continue };
                if !self.tris[nb].alive {
                    return Err(format!("tri {i} slot {s} points to dead {nb}"));
                }
                let a = t.v[(s + 1) % 3];
                let b = t.v[(s + 2) % 3];
                // The neighbor must hold the reversed edge and point back.
                let back = &self.tris[nb];
                let mut ok = false;
                for s2 in 0..3 {
                    let a2 = back.v[(s2 + 1) % 3];
                    let b2 = back.v[(s2 + 2) % 3];
                    if (a2, b2) == (b, a) {
                        ok = back.neighbors[s2] == Some(i);
                    }
                }
                if !ok {
                    return Err(format!(
                        "asymmetric adjacency: tri {i} ({:?}) slot {s} -> {nb} ({:?})",
                        t.v, back.v
                    ));
                }
            }
        }
        Ok(())
    }

    // ---- construction internals ------------------------------------

    fn insert(&mut self, site: usize) {
        let p = self.points[site];
        let start = self.locate(p);
        // Flood-fill the cavity of circumcircle-violating triangles.
        let mut bad = vec![start];
        let mut seen = std::collections::HashSet::from([start]);
        let mut stack = vec![start];
        while let Some(t) = stack.pop() {
            for nb in self.tris[t].neighbors.into_iter().flatten() {
                if seen.contains(&nb) || !self.tris[nb].alive {
                    continue;
                }
                let tv = self.tris[nb].v;
                if in_circumcircle(
                    self.points[tv[0]],
                    self.points[tv[1]],
                    self.points[tv[2]],
                    p,
                ) {
                    seen.insert(nb);
                    bad.push(nb);
                    stack.push(nb);
                }
            }
        }
        // Boundary edges of the cavity: (a, b, outer neighbor, dead id).
        let mut boundary: Vec<(usize, usize, Option<usize>, usize)> = Vec::new();
        for &t in &bad {
            let tri = self.tris[t];
            for i in 0..3 {
                let nb = tri.neighbors[i];
                let is_bad = nb.is_some_and(|nb| seen.contains(&nb));
                if !is_bad {
                    let a = tri.v[(i + 1) % 3];
                    let b = tri.v[(i + 2) % 3];
                    boundary.push((a, b, nb, t));
                }
            }
        }
        for &t in &bad {
            self.tris[t].alive = false;
            self.free.push(t);
        }
        // Fan new triangles from the site; the cavity is star-shaped
        // around p so (p, a, b) stays CCW.
        let mut start_of: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let mut end_of: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        let mut created = Vec::with_capacity(boundary.len());
        for &(a, b, outer, _dead) in &boundary {
            let id = self.alloc(Tri {
                v: [site, a, b],
                neighbors: [outer, None, None],
                alive: true,
            });
            created.push(id);
            start_of.insert(a, id);
            end_of.insert(b, id);
            // Re-point the outer neighbor at us. Matching by the shared
            // edge (it holds (b, a)) is essential: dead triangle ids are
            // recycled within this very loop, so matching by id could
            // clobber a slot that was already re-pointed.
            if let Some(o) = outer {
                for slot in 0..3 {
                    let oa = self.tris[o].v[(slot + 1) % 3];
                    let ob = self.tris[o].v[(slot + 2) % 3];
                    if (oa, ob) == (b, a) {
                        self.tris[o].neighbors[slot] = Some(id);
                    }
                }
            }
        }
        for &(a, b, _, _) in &boundary {
            let id = start_of[&a];
            // Edge (b, p) is opposite vertex a (slot 1): shared with the
            // new triangle whose boundary edge starts at b.
            self.tris[id].neighbors[1] = Some(start_of[&b]);
            // Edge (p, a) is opposite vertex b (slot 2): shared with the
            // triangle whose boundary edge ends at a.
            self.tris[id].neighbors[2] = Some(end_of[&a]);
        }
        self.hint = created[0];
    }

    /// Walks from the hint triangle to one containing `p`.
    #[expect(
        clippy::expect_used,
        reason = "the super-triangle is always alive and spans the data"
    )]
    fn locate(&self, p: Point) -> usize {
        let mut cur = if self.tris[self.hint].alive {
            self.hint
        } else {
            self.tris
                .iter()
                .position(|t| t.alive)
                .expect("triangulation never empty")
        };
        let limit = 4 * self.tris.len() + 16;
        'walk: for _ in 0..limit {
            let tri = self.tris[cur];
            for i in 0..3 {
                let a = self.points[tri.v[(i + 1) % 3]];
                let b = self.points[tri.v[(i + 2) % 3]];
                if orient(a, b, p) < 0.0 {
                    match tri.neighbors[i] {
                        Some(nb) if self.tris[nb].alive => {
                            cur = nb;
                            continue 'walk;
                        }
                        _ => break, // outside over a hull edge: fall back
                    }
                }
            }
            return cur;
        }
        // Fallback: exhaustive scan (handles rare walk cycles from
        // degeneracies).
        self.tris
            .iter()
            .enumerate()
            .filter(|(_, t)| t.alive)
            .find(|(_, t)| {
                let (a, b, c) = (
                    self.points[t.v[0]],
                    self.points[t.v[1]],
                    self.points[t.v[2]],
                );
                orient(a, b, p) >= 0.0 && orient(b, c, p) >= 0.0 && orient(c, a, p) >= 0.0
            })
            .map(|(i, _)| i)
            .expect("point lies inside the super-triangle")
    }

    fn alloc(&mut self, t: Tri) -> usize {
        if let Some(id) = self.free.pop() {
            self.tris[id] = t;
            id
        } else {
            self.tris.push(t);
            self.tris.len() - 1
        }
    }

    fn build_adjacency(&mut self) {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.n_sites];
        for t in self.tris.iter().filter(|t| t.alive) {
            for i in 0..3 {
                let a = t.v[i];
                let b = t.v[(i + 1) % 3];
                if a < self.n_sites && b < self.n_sites {
                    adj[a].push(b);
                    adj[b].push(a);
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        self.adjacency = adj;
    }
}

/// Strict in-circumcircle predicate for CCW triangle `(a, b, c)`.
fn in_circumcircle(a: Point, b: Point, c: Point, p: Point) -> bool {
    debug_assert!(orient(a, b, c) >= 0.0, "triangle must be CCW");
    let (ax, ay) = (a.x - p.x, a.y - p.y);
    let (bx, by) = (b.x - p.x, b.y - p.y);
    let (cx, cy) = (c.x - p.x, c.y - p.y);
    let det = (ax * ax + ay * ay) * (bx * cy - cx * by) - (bx * bx + by * by) * (ax * cy - cx * ay)
        + (cx * cx + cy * cy) * (ax * by - bx * ay);
    det > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::new(0.0, 0.0, 1.0, 1.0)
    }

    fn pseudo_random_sites(n: usize, seed: u64) -> Vec<Point> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n).map(|_| Point::new(next(), next())).collect()
    }

    #[test]
    fn triangle_of_three() {
        let sites = [
            Point::new(0.1, 0.1),
            Point::new(0.9, 0.2),
            Point::new(0.5, 0.8),
        ];
        let d = Delaunay::build(&sites, unit());
        assert_eq!(d.triangles().len(), 1);
        d.check_delaunay().unwrap();
        // Everyone is everyone's neighbor.
        for i in 0..3 {
            assert_eq!(d.neighbors(i).len(), 2);
        }
    }

    #[test]
    fn grid_is_delaunay() {
        let mut sites = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                // Tiny deterministic jitter avoids exact co-circularity.
                let jx = ((i * 7 + j * 13) % 11) as f64 * 1e-4;
                let jy = ((i * 3 + j * 5) % 7) as f64 * 1e-4;
                sites.push(Point::new(i as f64 / 6.0 + jx, j as f64 / 6.0 + jy));
            }
        }
        let d = Delaunay::build(&sites, unit());
        d.check_delaunay().unwrap();
        // Euler: for n points with h hull points, triangles = 2n − h − 2.
        let t = d.triangles().len();
        assert!(t >= 2 * sites.len() - 4 - sites.len(), "t = {t}");
    }

    #[test]
    fn random_sites_are_delaunay() {
        for seed in [1u64, 7, 42] {
            let sites = pseudo_random_sites(120, seed);
            let d = Delaunay::build(&sites, unit());
            d.check_delaunay().unwrap();
        }
    }

    #[test]
    fn duplicates_map_to_representative() {
        let p = Point::new(0.4, 0.4);
        let sites = [p, Point::new(0.8, 0.8), p, Point::new(0.1, 0.9)];
        let d = Delaunay::build(&sites, unit());
        d.check_delaunay().unwrap();
        // Site 2 duplicates site 0: identical neighbors and cell.
        assert_eq!(d.neighbors(0), d.neighbors(2));
        assert!((d.voronoi_cell(0).area() - d.voronoi_cell(2).area()).abs() < 1e-12);
    }

    #[test]
    fn voronoi_cells_tile_and_contain_sites() {
        let sites = pseudo_random_sites(80, 3);
        let d = Delaunay::build(&sites, unit());
        let total: f64 = (0..80).map(|i| d.voronoi_cell(i).area()).sum();
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
        for (i, &s) in sites.iter().enumerate() {
            assert!(d.voronoi_cell(i).contains_eps(s, 1e-9));
        }
    }

    #[test]
    fn voronoi_cell_matches_brute_force_clipping() {
        // Independent check: clip the universe by bisectors with *all*
        // other sites (no Delaunay involved) and compare areas.
        let sites = pseudo_random_sites(40, 99);
        let d = Delaunay::build(&sites, unit());
        for i in 0..sites.len() {
            let mut poly = ConvexPolygon::from_rect(&unit());
            for (j, &other) in sites.iter().enumerate() {
                if j != i {
                    poly = poly.clip(&HalfPlane::bisector(sites[i], other));
                }
            }
            let cell = d.voronoi_cell(i);
            assert!(
                (cell.area() - poly.area()).abs() < 1e-9,
                "site {i}: dual {} vs brute {}",
                cell.area(),
                poly.area()
            );
        }
    }

    #[test]
    fn collinear_sites_handled() {
        let sites: Vec<Point> = (0..10)
            .map(|i| Point::new(0.05 + i as f64 * 0.1, 0.5))
            .collect();
        let d = Delaunay::build(&sites, unit());
        // Cells are vertical slabs; areas sum to 1.
        let total: f64 = (0..10).map(|i| d.voronoi_cell(i).area()).sum();
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn incircle_predicate() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let c = Point::new(0.0, 1.0);
        // Circumcircle center (0.5, 0.5), radius √0.5.
        assert!(in_circumcircle(a, b, c, Point::new(0.5, 0.5)));
        assert!(in_circumcircle(a, b, c, Point::new(0.9, 0.9)));
        assert!(!in_circumcircle(a, b, c, Point::new(1.3, 1.3)));
        assert!(!in_circumcircle(a, b, c, Point::new(-1.0, -1.0)));
    }
}
