//! The competing techniques surveyed in the paper's Section 2, built as
//! faithful baselines for the experiments and the client simulator:
//!
//! * **`[SR01]`** Song & Roussopoulos — the server returns `m > k`
//!   neighbors; the client can re-answer the kNN query locally while
//!   `2·dist(q, q′) ≤ dist(m) − dist(k)`.
//! * **`[ZL01]`** Zheng & Lee — the server precomputes the Voronoi
//!   diagram, answers 1-NN queries from it and returns a validity
//!   *time* assuming a maximum client speed (here exposed as the
//!   underlying safe *distance*: the distance from the query to the
//!   nearest Voronoi cell boundary).
//! * **`[TP02]`** time-parameterized queries — the server returns
//!   `⟨R, T, C⟩`: the result, its expiry time under the client's
//!   *current velocity*, and the object swap happening at `T`. Valid
//!   only while the velocity holds.

use lbq_geom::{Point, Rect, Vec2};
use lbq_rtree::{Item, RTree, TpEvent};
use lbq_voronoi::VoronoiDiagram;

// ---------------------------------------------------------------- SR01

/// The client-side cache of the `[SR01]` technique.
#[derive(Debug, Clone)]
pub struct Sr01Cache {
    /// Where the cached answer was computed.
    pub origin: Point,
    /// The k requested.
    pub k: usize,
    /// The `m ≥ k` nearest neighbors of `origin`, ascending by distance.
    pub items: Vec<(Item, f64)>,
}

impl Sr01Cache {
    /// Is the cache still able to answer exactly at `p`?
    /// (`[SR01]` guarantee: `2·dist(origin, p) ≤ dist(m) − dist(k)`.)
    pub fn valid_at(&self, p: Point) -> bool {
        if self.items.len() < self.k || self.items.len() < 2 {
            return false;
        }
        let dist_k = self.items[self.k - 1].1;
        #[expect(clippy::expect_used, reason = "len ≥ 2 checked above")]
        let dist_m = self.items.last().expect("non-empty").1;
        2.0 * self.origin.dist(p) <= dist_m - dist_k
    }

    /// Recomputes the kNN at `p` from the cached `m` objects (exact when
    /// [`Sr01Cache::valid_at`] holds).
    pub fn knn_at(&self, p: Point) -> Vec<Item> {
        let mut v: Vec<(f64, Item)> = self
            .items
            .iter()
            .map(|(it, _)| (p.dist_sq(it.point), *it))
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id)));
        v.into_iter().take(self.k).map(|(_, it)| it).collect()
    }

    /// Objects shipped over the network for this cache.
    pub fn payload(&self) -> usize {
        self.items.len()
    }
}

/// Executes an `[SR01]` server query: `m` neighbors for a kNN request.
pub fn sr01_query(tree: &RTree, q: Point, k: usize, m: usize) -> Sr01Cache {
    assert!(m >= k && k >= 1);
    Sr01Cache {
        origin: q,
        k,
        items: tree.knn(q, m),
    }
}

// ---------------------------------------------------------------- ZL01

/// The `[ZL01]` server: a precomputed Voronoi diagram (plus the R-tree it
/// would use for point location — here the diagram's own locator).
#[derive(Debug)]
pub struct Zl01Server {
    diagram: VoronoiDiagram,
    items: Vec<Item>,
}

/// Response of a `[ZL01]` 1-NN query.
#[derive(Debug, Clone, Copy)]
pub struct Zl01Response {
    /// The nearest neighbor.
    pub nn: Item,
    /// Distance the client can travel (in any direction) with the
    /// answer guaranteed — the distance to the Voronoi cell boundary.
    /// The original paper reports this as a *time* `T = dist / v_max`.
    pub safe_distance: f64,
}

impl Zl01Server {
    /// Precomputes the diagram — the expensive step the location-based
    /// approach avoids (and which must be redone on updates; see the
    /// paper's Section 3 for the full argument).
    pub fn build(items: &[Item], universe: Rect) -> Self {
        let sites: Vec<Point> = items.iter().map(|i| i.point).collect();
        Zl01Server {
            diagram: VoronoiDiagram::build(&sites, universe),
            items: items.to_vec(),
        }
    }

    /// Answers a 1-NN query with its safe travel distance.
    pub fn query(&self, q: Point) -> Option<Zl01Response> {
        let idx = self.diagram.nearest_site(q)?;
        let safe = self.diagram.escape_distance(idx, q).unwrap_or(0.0);
        Some(Zl01Response {
            nn: self.items[idx],
            safe_distance: safe,
        })
    }

    /// The precomputed diagram (for inspection/tests).
    pub fn diagram(&self) -> &VoronoiDiagram {
        &self.diagram
    }
}

// ---------------------------------------------------------------- TP02

/// Response of a time-parameterized kNN query `[TP02]`: `⟨R, T, C⟩`.
#[derive(Debug, Clone)]
pub struct TpResponse {
    /// The current result.
    pub result: Vec<Item>,
    /// The first result-changing event along the stated velocity, or
    /// `None` if the result holds for the whole horizon.
    pub expiry: Option<TpEvent>,
}

/// Executes a TP kNN query for a client moving from `q` with unit
/// direction `dir`, looking ahead `horizon` distance units.
pub fn tp_query(tree: &RTree, q: Point, dir: Vec2, k: usize, horizon: f64) -> TpResponse {
    let result: Vec<Item> = tree.knn(q, k).into_iter().map(|(i, _)| i).collect();
    let expiry = if result.is_empty() {
        None
    } else {
        tree.tp_knn(q, dir, horizon, &result)
    };
    TpResponse { result, expiry }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbq_rtree::RTreeConfig;

    fn pseudo_random_items(n: usize, seed: u64) -> Vec<Item> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n)
            .map(|i| Item::new(Point::new(next(), next()), i as u64))
            .collect()
    }

    fn unit() -> Rect {
        Rect::new(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn sr01_guarantee_holds() {
        let items = pseudo_random_items(500, 4);
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let q = Point::new(0.5, 0.5);
        let cache = sr01_query(&tree, q, 2, 8);
        assert_eq!(cache.payload(), 8);
        // Probe positions; wherever the cache claims validity its local
        // answer must equal the true kNN.
        for i in 0..40 {
            let theta = i as f64 * std::f64::consts::TAU / 40.0;
            for r in [0.001, 0.005, 0.02, 0.1] {
                let p = q + Vec2::from_angle(theta) * r;
                if cache.valid_at(p) {
                    let local: Vec<u64> = cache.knn_at(p).into_iter().map(|i| i.id).collect();
                    let truth: Vec<u64> = tree.knn(p, 2).into_iter().map(|(i, _)| i.id).collect();
                    assert_eq!(local, truth, "at {p}");
                }
            }
        }
        // Validity shrinks to nothing far away.
        assert!(!cache.valid_at(Point::new(0.0, 0.0)));
    }

    #[test]
    fn sr01_m_equals_k_is_useless() {
        let items = pseudo_random_items(100, 9);
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let cache = sr01_query(&tree, Point::new(0.4, 0.4), 3, 3);
        // dist(m) − dist(k) = 0 ⇒ only the exact origin qualifies.
        assert!(!cache.valid_at(Point::new(0.41, 0.4)));
    }

    #[test]
    fn zl01_agrees_with_rtree_nn() {
        let items = pseudo_random_items(120, 17);
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let server = Zl01Server::build(&items, unit());
        for &(x, y) in &[(0.1, 0.2), (0.5, 0.5), (0.9, 0.8), (0.02, 0.97)] {
            let q = Point::new(x, y);
            let resp = server.query(q).unwrap();
            let truth = tree.nn(q).unwrap().0;
            assert_eq!(resp.nn.id, truth.id, "at {q}");
            // Safe distance really is safe.
            if resp.safe_distance > 1e-9 {
                for k in 0..8 {
                    let theta = k as f64 * std::f64::consts::TAU / 8.0;
                    let p = q + Vec2::from_angle(theta) * (resp.safe_distance * 0.95);
                    if unit().contains(p) {
                        assert_eq!(tree.nn(p).unwrap().0.id, resp.nn.id);
                    }
                }
            }
        }
    }

    #[test]
    fn tp_expiry_is_exact() {
        let items = pseudo_random_items(200, 33);
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let q = Point::new(0.3, 0.7);
        let dir = Vec2::new(1.0, 0.0);
        let resp = tp_query(&tree, q, dir, 1, 2.0);
        let ev = resp.expiry.expect("something ahead");
        // Just before the expiry the result holds; just after it
        // changed.
        let before = q + dir * (ev.time * 0.999);
        let after = q + dir * (ev.time * 1.001);
        assert_eq!(tree.nn(before).unwrap().0.id, resp.result[0].id);
        assert_eq!(tree.nn(after).unwrap().0.id, ev.object.id);
    }
}
