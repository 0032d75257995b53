//! Location-based (k-)nearest-neighbor queries — Section 3 of the
//! paper.
//!
//! The server answers a kNN query with the result **plus** an
//! *influence set*: the minimal set of outer objects whose perpendicular
//! bisectors with result objects bound the **validity region** — the
//! (order-k) Voronoi cell within which the result set cannot change.
//! The client re-uses the result for free while it stays inside.
//!
//! The region is computed *without* any precomputed Voronoi structure,
//! by the vertex-confirmation loop of the paper's Fig. 10 (k = 1) and
//! Fig. 12 (k > 1): start from the data universe, shoot a
//! time-parameterized NN query ([`lbq_rtree::RTree::tp_knn`]) toward an
//! unconfirmed region vertex, and either (a) discover a new influence
//! object — clip the region by its bisector — or (b) confirm the vertex.
//! Lemma 3.1 (completeness/soundness) and Lemma 3.2 (exactly
//! `n_inf + n_v` TPNN queries) carry over verbatim; both are asserted in
//! the test suite.

use lbq_geom::{ConvexPolygon, HalfPlane, Point, Rect};
use lbq_rtree::{Item, QueryScratch, RTree, TpEvent, TpProbe};

/// An influence pair `⟨inner, outer⟩`: the bisector of the two is an
/// edge (or potential edge) of the validity region; `inner` belongs to
/// the result, `outer` does not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InfluencePair {
    pub inner: Item,
    pub outer: Item,
}

impl InfluencePair {
    /// The half-plane this pair contributes (the `inner` side of the
    /// bisector).
    pub fn half_plane(&self) -> HalfPlane {
        HalfPlane::bisector(self.inner.point, self.outer.point)
    }
}

/// The validity region of a kNN query: the order-k Voronoi cell of the
/// result, as both its polygon and the influence pairs that generate it.
///
/// The *wire format* is `pairs` (plus the result set itself) — a handful
/// of points, as the paper's Figs. 25/26 show (≈6 for k = 1, dropping
/// toward 4 as k grows). The polygon is kept for convenience and
/// plotting; it is derivable from the pairs.
#[derive(Debug, Clone)]
pub struct NnValidity {
    /// Influence pairs in discovery order.
    pub pairs: Vec<InfluencePair>,
    /// The region polygon (clipped to the data universe).
    pub polygon: ConvexPolygon,
    /// The data universe used as the initial region.
    pub universe: Rect,
}

impl NnValidity {
    /// Client-side validity check: is the result still exact at `p`?
    ///
    /// O(|pairs| + 4) comparisons — the "limited computational
    /// capability" budget the paper allots the mobile client. Uses the
    /// half-plane tests directly (not the polygon) because that is what
    /// a client holding only the influence set can do.
    pub fn contains(&self, p: Point) -> bool {
        self.universe.contains(p)
            && self
                .pairs
                .iter()
                .all(|pr| p.dist_sq(pr.inner.point) <= p.dist_sq(pr.outer.point))
    }

    /// Area of the validity region.
    pub fn area(&self) -> f64 {
        self.polygon.area()
    }

    /// Number of region edges (the client-side check cost metric of the
    /// paper's Fig. 24; ≈6 on uniform data).
    pub fn edge_count(&self) -> usize {
        self.polygon.len()
    }

    /// Number of *distinct* influence objects |S_inf| (Figs. 25/26; an
    /// outer object may contribute several pairs when k > 1).
    // lbq-check: cold — owned-response metric; the hot path uses the scratch-backed NnValidityRef variant
    pub fn influence_count(&self) -> usize {
        let mut ids: Vec<u64> = self.pairs.iter().map(|p| p.outer.id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// The distinct influence objects (the payload actually shipped).
    pub fn influence_objects(&self) -> Vec<Item> {
        let mut out: Vec<Item> = Vec::new();
        for p in &self.pairs {
            if !out.iter().any(|o| o.id == p.outer.id) {
                out.push(p.outer);
            }
        }
        out
    }
}

/// A borrowed view of a validity region whose backing storage lives in
/// a [`QueryScratch`].
///
/// This is what [`retrieve_influence_set_in`] returns: the influence
/// pairs and the region polygon are read straight out of the scratch
/// buffers the retrieval built them in, so the steady-state hot path
/// performs **zero** heap allocations. The view stays valid until the
/// next query touches the same scratch; call
/// [`NnValidityRef::to_owned`] to detach an [`NnValidity`] that can
/// outlive it (that copy is the only allocation, paid exactly by the
/// paths that need ownership).
#[derive(Debug, Clone, Copy)]
pub struct NnValidityRef<'s> {
    pairs: &'s [(Item, Item)],
    polygon: &'s ConvexPolygon,
    universe: Rect,
}

impl<'s> NnValidityRef<'s> {
    /// Influence pairs in discovery order.
    pub fn pairs(&self) -> impl Iterator<Item = InfluencePair> + 's {
        self.pairs
            .iter()
            .map(|&(inner, outer)| InfluencePair { inner, outer })
    }

    /// Number of influence pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// The region polygon (clipped to the data universe).
    pub fn polygon(&self) -> &'s ConvexPolygon {
        self.polygon
    }

    /// The data universe used as the initial region.
    pub fn universe(&self) -> Rect {
        self.universe
    }

    /// Client-side validity check — see [`NnValidity::contains`].
    pub fn contains(&self, p: Point) -> bool {
        self.universe.contains(p)
            && self
                .pairs
                .iter()
                .all(|&(inner, outer)| p.dist_sq(inner.point) <= p.dist_sq(outer.point))
    }

    /// Area of the validity region.
    pub fn area(&self) -> f64 {
        self.polygon.area()
    }

    /// Number of region edges.
    pub fn edge_count(&self) -> usize {
        self.polygon.len()
    }

    /// Number of *distinct* influence objects |S_inf|. Quadratic scan
    /// over the (≈6-element) pair list so the view allocates nothing.
    pub fn influence_count(&self) -> usize {
        self.pairs
            .iter()
            .enumerate()
            .filter(|&(i, &(_, outer))| {
                !self.pairs[..i].iter().any(|&(_, prev)| prev.id == outer.id)
            })
            .count()
    }

    /// Detaches an owned [`NnValidity`] (copies pairs and polygon off
    /// the scratch).
    pub fn to_owned(&self) -> NnValidity {
        NnValidity {
            pairs: self.pairs().collect(),
            polygon: self.polygon.clone(),
            universe: self.universe,
        }
    }
}

/// Server response to a location-based kNN query.
#[derive(Debug, Clone)]
pub struct NnResponse {
    /// The query focus.
    pub query: Point,
    /// The k nearest neighbors, ascending by distance.
    pub result: Vec<Item>,
    /// Validity region + influence set.
    pub validity: NnValidity,
    /// Instrumentation: TPNN queries issued (Lemma 3.2: `n_inf + n_v`).
    pub tpnn_queries: usize,
}

/// Tolerance for vertex identity across clips, relative to the universe
/// scale.
fn vertex_eps(universe: &Rect) -> f64 {
    lbq_geom::EPS * universe.width().max(universe.height()).max(1.0)
}

/// Index of the unconfirmed vertex nearest to `q`, or `None` when all
/// are confirmed. The single-query loop and the grouped lockstep driver
/// share this selector, so both probe in the identical order.
fn nearest_unconfirmed(q: Point, vertices: &[(Point, bool)]) -> Option<usize> {
    vertices
        .iter()
        .enumerate()
        .filter(|(_, (_, confirmed))| !confirmed)
        .min_by(|(_, (a, _)), (_, (b, _))| {
            q.dist_sq(*a)
                .partial_cmp(&q.dist_sq(*b))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
}

/// Computes the influence set and validity region for a kNN result
/// (`inner`, non-empty) of the query at `q` — Figs. 10/12 of the paper.
///
/// Returns the validity structure plus the number of TPNN queries
/// issued.
pub fn retrieve_influence_set(
    tree: &RTree,
    q: Point,
    inner: &[Item],
    universe: Rect,
) -> (NnValidity, usize) {
    let mut scratch = QueryScratch::new();
    let (validity, tpnn) = retrieve_influence_set_in(tree, q, inner, universe, &mut scratch);
    (validity.to_owned(), tpnn)
}

/// [`retrieve_influence_set`] against a reusable [`QueryScratch`]: the
/// whole shrinking-polygon TPNN chain (one query per vertex probe), the
/// influence-pair list *and* the region polygon all live on one set of
/// scratch buffers, so in steady state the region hot path performs
/// zero heap allocations. The returned [`NnValidityRef`] borrows the
/// scratch; `.to_owned()` it if the region must outlive the next query.
// lbq-check: hot — static twin of the `tests/zero_alloc.rs` assertion on this entry point
pub fn retrieve_influence_set_in<'s>(
    tree: &RTree,
    q: Point,
    inner: &[Item],
    universe: Rect,
    scratch: &'s mut QueryScratch,
) -> (NnValidityRef<'s>, usize) {
    assert!(!inner.is_empty(), "kNN result must be non-empty");
    let mut span = lbq_obs::span("nn-influence-set");
    span.record("k", inner.len());
    // When the dataset is exactly the result set, nothing can ever
    // change: the region is the whole universe.
    if tree.len() <= inner.len() {
        scratch.region_pairs.clear();
        scratch.region_polygon.assign_rect(&universe);
        return (
            NnValidityRef {
                pairs: &scratch.region_pairs,
                polygon: &scratch.region_polygon,
                universe,
            },
            0,
        );
    }
    let eps = vertex_eps(&universe);
    let mut pairs = std::mem::take(&mut scratch.region_pairs);
    let mut polygon = std::mem::take(&mut scratch.region_polygon);
    pairs.clear();
    polygon.assign_rect(&universe);
    // Vertex set V with confirmation flags, and the clip staging buffer
    // — all borrowed from the scratch (and returned below) so the loop
    // allocates nothing in steady state. Taking them out lets the TPNN
    // calls borrow the scratch mutably in between.
    let mut vertices = std::mem::take(&mut scratch.region_vertices);
    let mut spare = std::mem::take(&mut scratch.region_spare);
    let mut clip_buf = std::mem::take(&mut scratch.region_clip);
    vertices.clear();
    vertices.extend(polygon.vertices().iter().map(|&v| (v, false)));
    let mut tpnn_count = 0usize;

    // Probe the *nearest* unconfirmed vertex first. Each discovered
    // pair clips the polygon, so near probes (cheap, short TPNN travel)
    // tend to cut away the far vertices before they are ever probed
    // with a universe-scale `t_max`. The confirmation loop is correct
    // under any probe order (each query still ends in a new pair or a
    // confirmed vertex, so Lemma 3.2's count is unchanged); this order
    // just makes the expensive probes vanishingly rare.
    while let Some(idx) = nearest_unconfirmed(q, &vertices) {
        let v = vertices[idx].0;
        let Some(dir) = q.to(v).normalized() else {
            // The vertex coincides with the query point (degenerate,
            // zero-area region) — nothing to probe.
            vertices[idx].1 = true;
            continue;
        };
        let t_max = q.dist(v);
        tpnn_count += 1;
        let event = tree.tp_knn_in(q, dir, t_max, inner, scratch);
        if lbq_obs::enabled() {
            lbq_obs::event_with(
                "tpnn-iteration",
                [
                    ("vertices", lbq_obs::Value::from(vertices.len())),
                    ("pairs", lbq_obs::Value::from(pairs.len())),
                    ("found", lbq_obs::Value::from(event.is_some())),
                ],
            );
        }
        match event {
            None => {
                vertices[idx].1 = true;
            }
            Some(ev) => {
                let known = pairs
                    .iter()
                    .any(|&(pi, po)| pi.id == ev.partner.id && po.id == ev.object.id);
                if known {
                    // Lemma 3.1 bookkeeping: a re-discovered pair means
                    // the vertex lies (numerically) on that bisector.
                    vertices[idx].1 = true;
                } else {
                    let _clip = lbq_obs::stage_timer(lbq_obs::Stage::Clip);
                    let pair = InfluencePair {
                        inner: ev.partner,
                        outer: ev.object,
                    };
                    polygon.clip_in_place(&pair.half_plane(), &mut clip_buf);
                    pairs.push((pair.inner, pair.outer));
                    if polygon.is_empty() {
                        // Degenerate: q sits on a bisector (tie). The
                        // region has zero area; report it honestly.
                        vertices.clear();
                        break;
                    }
                    // Carry confirmation flags to surviving vertices:
                    // read the old ring, write the new one, swap.
                    spare.clear();
                    spare.extend(polygon.vertices().iter().map(|&nv| {
                        let confirmed = vertices.iter().any(|(ov, c)| *c && ov.dist(nv) <= eps);
                        (nv, confirmed)
                    }));
                    std::mem::swap(&mut vertices, &mut spare);
                }
            }
        }
    }
    // Hand the (capacity-retaining) buffers back to the scratch. The
    // pair list and polygon go back too — the returned view borrows
    // them in place.
    vertices.clear();
    spare.clear();
    clip_buf.clear();
    scratch.region_vertices = vertices;
    scratch.region_spare = spare;
    scratch.region_clip = clip_buf;
    scratch.region_pairs = pairs;
    scratch.region_polygon = polygon;
    let validity = NnValidityRef {
        pairs: &scratch.region_pairs,
        polygon: &scratch.region_polygon,
        universe,
    };
    crate::invariants::debug_validate_nn(&validity, q);
    if span.is_active() {
        span.record("tpnn-queries", tpnn_count);
        span.record("pairs", validity.pair_count());
        span.record("influence", validity.influence_count());
        span.record("edges", validity.edge_count());
        span.record("area", validity.area());
    }
    (validity, tpnn_count)
}

/// Per-member loop state of [`retrieve_influence_set_group`].
struct MemberLoop {
    pairs: Vec<(Item, Item)>,
    polygon: ConvexPolygon,
    vertices: Vec<(Point, bool)>,
    tpnn: usize,
    done: bool,
}

/// Grouped [`retrieve_influence_set`]: computes the influence set and
/// validity region of every member `(q, result)` of one locality tile,
/// batching the members' TPNN probes into shared-frontier traversals
/// ([`lbq_rtree::RTree::tp_knn_group_in`]).
///
/// Every member's vertex-confirmation loop runs exactly as in
/// [`retrieve_influence_set_in`] — same vertex selection (shared
/// `nearest_unconfirmed`), same clips, same Lemma 3.2 query count — but
/// the loops advance in lockstep: each round collects every unfinished
/// member's next vertex probe and answers the whole round in one shared
/// traversal. The grouped TPNN returns bit-identical events, and no
/// member's state feeds another's, so each member's pairs, polygon, and
/// TPNN count equal the single-query path's bit for bit. On a Hilbert
/// tile the ~`n_inf + n_v` probes of all members search the same
/// neighborhood, so the shared frontier reads each node page once per
/// round instead of once per member.
///
/// Returns one `(validity, tpnn_queries)` per member, in member order.
pub fn retrieve_influence_set_group(
    tree: &RTree,
    members: &[(Point, &[Item])],
    universe: Rect,
    scratch: &mut QueryScratch,
) -> Vec<(NnValidity, usize)> {
    let mut span = lbq_obs::span("nn-influence-set-group");
    span.record("members", members.len());
    let eps = vertex_eps(&universe);
    let mut states: Vec<MemberLoop> = members
        .iter()
        .map(|&(_, inner)| {
            assert!(!inner.is_empty(), "kNN result must be non-empty");
            let polygon = ConvexPolygon::from_rect(&universe);
            // Whole dataset in the result: nothing can ever change.
            let done = tree.len() <= inner.len();
            let vertices = if done {
                Vec::new()
            } else {
                polygon.vertices().iter().map(|&v| (v, false)).collect()
            };
            MemberLoop {
                pairs: Vec::new(),
                polygon,
                vertices,
                tpnn: 0,
                done,
            }
        })
        .collect();
    let mut spare: Vec<(Point, bool)> = Vec::new();
    let mut clip_buf: Vec<Point> = Vec::new();
    let mut probes: Vec<TpProbe<'_>> = Vec::new();
    let mut slots: Vec<(usize, usize)> = Vec::new();
    let mut events: Vec<Option<TpEvent>> = Vec::new();
    loop {
        probes.clear();
        slots.clear();
        for (mi, st) in states.iter_mut().enumerate() {
            if st.done {
                continue;
            }
            let (q, inner) = members[mi];
            loop {
                let Some(idx) = nearest_unconfirmed(q, &st.vertices) else {
                    st.done = true;
                    break;
                };
                let v = st.vertices[idx].0;
                if let Some(dir) = q.to(v).normalized() {
                    st.tpnn += 1;
                    probes.push(TpProbe {
                        q,
                        dir,
                        t_max: q.dist(v),
                        inner,
                    });
                    slots.push((mi, idx));
                    break;
                }
                // The vertex coincides with the query point (degenerate,
                // zero-area region) — confirm and pick the next one, as
                // the single-query loop does.
                st.vertices[idx].1 = true;
            }
        }
        if probes.is_empty() {
            break;
        }
        tree.tp_knn_group_in(&probes, scratch, &mut events);
        for (&(mi, idx), event) in slots.iter().zip(&events) {
            let st = &mut states[mi];
            match *event {
                None => {
                    st.vertices[idx].1 = true;
                }
                Some(ev) => {
                    let known = st
                        .pairs
                        .iter()
                        .any(|&(pi, po)| pi.id == ev.partner.id && po.id == ev.object.id);
                    if known {
                        st.vertices[idx].1 = true;
                    } else {
                        let _clip = lbq_obs::stage_timer(lbq_obs::Stage::Clip);
                        let pair = InfluencePair {
                            inner: ev.partner,
                            outer: ev.object,
                        };
                        st.polygon.clip_in_place(&pair.half_plane(), &mut clip_buf);
                        st.pairs.push((pair.inner, pair.outer));
                        if st.polygon.is_empty() {
                            // Degenerate: q sits on a bisector (tie).
                            st.vertices.clear();
                            st.done = true;
                        } else {
                            spare.clear();
                            spare.extend(st.polygon.vertices().iter().map(|&nv| {
                                let confirmed =
                                    st.vertices.iter().any(|(ov, c)| *c && ov.dist(nv) <= eps);
                                (nv, confirmed)
                            }));
                            std::mem::swap(&mut st.vertices, &mut spare);
                        }
                    }
                }
            }
        }
    }
    if span.is_active() {
        span.record("tpnn-queries", states.iter().map(|s| s.tpnn).sum::<usize>());
    }
    states
        .into_iter()
        .zip(members)
        .map(|(st, &(q, _))| {
            let view = NnValidityRef {
                pairs: &st.pairs,
                polygon: &st.polygon,
                universe,
            };
            crate::invariants::debug_validate_nn(&view, q);
            (view.to_owned(), st.tpnn)
        })
        .collect()
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
    fn five_point_cross_region_is_voronoi_cell() {
        // The canonical fixture: center point's cell is the middle
        // square (2.5,2.5)-(7.5,7.5) of the [0,10]² universe.
        let universe = Rect::new(0.0, 0.0, 10.0, 10.0);
        let items = vec![
            Item::new(Point::new(5.0, 5.0), 0),
            Item::new(Point::new(0.0, 5.0), 1),
            Item::new(Point::new(10.0, 5.0), 2),
            Item::new(Point::new(5.0, 0.0), 3),
            Item::new(Point::new(5.0, 10.0), 4),
        ];
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let q = Point::new(5.2, 4.9);
        let inner: Vec<Item> = tree.knn(q, 1).into_iter().map(|(i, _)| i).collect();
        assert_eq!(inner[0].id, 0);
        let (validity, tpnn) = retrieve_influence_set(&tree, q, &inner, universe);
        assert!(
            (validity.area() - 25.0).abs() < 1e-6,
            "area {}",
            validity.area()
        );
        assert_eq!(validity.influence_count(), 4);
        assert_eq!(validity.edge_count(), 4);
        // Lemma 3.2: n_inf + n_v TPNN queries.
        assert_eq!(tpnn, 4 + 4);
        // The query itself is inside; the neighbors' positions are not.
        assert!(validity.contains(q));
        assert!(!validity.contains(Point::new(9.0, 9.0)));
    }

    #[test]
    fn region_matches_brute_force_voronoi_cell() {
        let items = pseudo_random_items(150, 17);
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        for &(qx, qy) in &[(0.5, 0.5), (0.12, 0.83), (0.95, 0.07)] {
            let q = Point::new(qx, qy);
            let inner: Vec<Item> = tree.knn(q, 1).into_iter().map(|(i, _)| i).collect();
            let (validity, _) = retrieve_influence_set(&tree, q, &inner, unit());
            // Brute-force Voronoi cell of the NN.
            let o = inner[0].point;
            let mut cell = ConvexPolygon::from_rect(&unit());
            for it in &items {
                if it.id != inner[0].id {
                    cell = cell.clip(&HalfPlane::bisector(o, it.point));
                }
            }
            assert!(
                (validity.area() - cell.area()).abs() < 1e-9,
                "q=({qx},{qy}): got {} want {}",
                validity.area(),
                cell.area()
            );
        }
    }

    #[test]
    fn knn_region_sound_by_sampling() {
        let items = pseudo_random_items(200, 5);
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let q = Point::new(0.4, 0.6);
        for k in [1usize, 3, 7] {
            let inner: Vec<Item> = tree.knn(q, k).into_iter().map(|(i, _)| i).collect();
            let inner_ids: std::collections::BTreeSet<u64> = inner.iter().map(|i| i.id).collect();
            let (validity, _) = retrieve_influence_set(&tree, q, &inner, unit());
            assert!(validity.contains(q), "k={k}: query inside its own region");
            // Sample a grid: inside region ⇒ same kNN set; outside (but
            // well clear of the boundary) ⇒ different set.
            for i in 0..25 {
                for j in 0..25 {
                    let p = Point::new(i as f64 / 25.0 + 0.017, j as f64 / 25.0 + 0.013);
                    let set: std::collections::BTreeSet<u64> =
                        tree.knn(p, k).into_iter().map(|(it, _)| it.id).collect();
                    let same = set == inner_ids;
                    if validity.contains(p) {
                        assert!(same, "k={k}: {p} inside region but kNN differs");
                    } else if validity.polygon.contains_eps(p, -1e-6) {
                        // Skip points hugging the boundary.
                    } else {
                        // Outside the region the set must differ...
                        // unless the region was truncated by the
                        // universe (kNN sets remain valid outside the
                        // data universe too). Only check interior
                        // points whose exclusion came from a bisector.
                        let excluded_by_pair = validity
                            .pairs
                            .iter()
                            .any(|pr| p.dist_sq(pr.inner.point) > p.dist_sq(pr.outer.point) + 1e-9);
                        if excluded_by_pair {
                            assert!(!same, "k={k}: {p} outside region but kNN identical");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn influence_set_is_minimal() {
        // Dropping any influence pair must strictly grow the region.
        let items = pseudo_random_items(120, 23);
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let q = Point::new(0.55, 0.45);
        for k in [1usize, 4] {
            let inner: Vec<Item> = tree.knn(q, k).into_iter().map(|(i, _)| i).collect();
            let (validity, _) = retrieve_influence_set(&tree, q, &inner, unit());
            let full_area = validity.area();
            assert!(full_area > 0.0);
            for skip in 0..validity.pairs.len() {
                let poly = ConvexPolygon::from_rect(&unit()).clip_all(
                    validity
                        .pairs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != skip)
                        .map(|(_, p)| p.half_plane())
                        .collect::<Vec<_>>()
                        .iter(),
                );
                assert!(
                    poly.area() > full_area + 1e-12,
                    "k={k}: pair {skip} is redundant"
                );
            }
        }
    }

    #[test]
    fn lemma_3_2_query_count() {
        // TPNN queries = n_inf(pairs) + n_vertices for k = 1 (each pair
        // is a distinct discovery; vertices of the final region each
        // consume one confirming query).
        let items = pseudo_random_items(300, 77);
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        for &(qx, qy) in &[(0.3, 0.3), (0.7, 0.2), (0.5, 0.9)] {
            let q = Point::new(qx, qy);
            let inner: Vec<Item> = tree.knn(q, 1).into_iter().map(|(i, _)| i).collect();
            let (validity, tpnn) = retrieve_influence_set(&tree, q, &inner, unit());
            assert_eq!(
                tpnn,
                validity.pairs.len() + validity.edge_count(),
                "at ({qx},{qy})"
            );
        }
    }

    #[test]
    fn whole_dataset_in_result_means_universe_region() {
        let items = pseudo_random_items(5, 3);
        let tree = RTree::bulk_load(items.clone(), RTreeConfig::tiny());
        let q = Point::new(0.5, 0.5);
        let inner: Vec<Item> = tree.knn(q, 5).into_iter().map(|(i, _)| i).collect();
        let (validity, tpnn) = retrieve_influence_set(&tree, q, &inner, unit());
        assert_eq!(tpnn, 0);
        assert!((validity.area() - 1.0).abs() < 1e-12);
        assert!(validity.contains(Point::new(0.01, 0.99)));
    }

    #[test]
    fn grouped_retrieval_is_bit_identical_to_single() {
        let items = pseudo_random_items(2500, 41);
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let mut scratch = QueryScratch::new();
        // A tight tile (the serve shape) plus spread members, mixed k.
        let mut members: Vec<(Point, Vec<Item>)> = Vec::new();
        for i in 0..20 {
            let q = Point::new(0.41 + (i % 5) as f64 * 0.003, 0.58 + (i / 5) as f64 * 0.003);
            let inner: Vec<Item> = tree
                .knn_in(q, 1 + i % 3, &mut scratch)
                .iter()
                .map(|&(it, _)| it)
                .collect();
            members.push((q, inner));
        }
        for &(x, y) in &[(0.07, 0.93), (0.88, 0.12)] {
            let q = Point::new(x, y);
            let inner: Vec<Item> = tree
                .knn_in(q, 4, &mut scratch)
                .iter()
                .map(|&(it, _)| it)
                .collect();
            members.push((q, inner));
        }
        let refs: Vec<(Point, &[Item])> = members.iter().map(|(q, r)| (*q, r.as_slice())).collect();
        let grouped = retrieve_influence_set_group(&tree, &refs, unit(), &mut scratch);
        assert_eq!(grouped.len(), members.len());
        for ((q, inner), (validity, tpnn)) in members.iter().zip(&grouped) {
            let (want, want_tpnn) =
                retrieve_influence_set_in(&tree, *q, inner, unit(), &mut scratch);
            assert_eq!(*tpnn, want_tpnn, "TPNN count at {q}");
            let want_pairs: Vec<(u64, u64)> =
                want.pairs().map(|p| (p.inner.id, p.outer.id)).collect();
            let got_pairs: Vec<(u64, u64)> = validity
                .pairs
                .iter()
                .map(|p| (p.inner.id, p.outer.id))
                .collect();
            assert_eq!(got_pairs, want_pairs, "pair discovery order at {q}");
            let want_bits: Vec<(u64, u64)> = want
                .polygon()
                .vertices()
                .iter()
                .map(|v| (v.x.to_bits(), v.y.to_bits()))
                .collect();
            let got_bits: Vec<(u64, u64)> = validity
                .polygon
                .vertices()
                .iter()
                .map(|v| (v.x.to_bits(), v.y.to_bits()))
                .collect();
            assert_eq!(got_bits, want_bits, "polygon vertex bits at {q}");
        }
    }

    #[test]
    fn single_point_dataset() {
        let items = vec![Item::new(Point::new(0.2, 0.8), 0)];
        let tree = RTree::bulk_load(items, RTreeConfig::tiny());
        let q = Point::new(0.9, 0.1);
        let inner: Vec<Item> = tree.knn(q, 1).into_iter().map(|(i, _)| i).collect();
        let (validity, _) = retrieve_influence_set(&tree, q, &inner, unit());
        assert!((validity.area() - 1.0).abs() < 1e-12);
        assert!(validity.pairs.is_empty());
    }
}
