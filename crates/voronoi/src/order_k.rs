//! Order-k machinery over the Delaunay adjacency graph: a greedy
//! point-location walk and exact k-nearest-site enumeration. This is
//! the geometry behind the hot-tile fast path in `lbq-serve` (see
//! `crates/serve/src/hot.rs`): the walk + expansion locate a query's
//! candidate k-set in `O(k log k)` expected time over a tile-local
//! site set.
//!
//! Correctness notes, referenced by the doc comments below:
//!
//! * **Greedy walk.** If site `s` is not a nearest site of `q`, then
//!   `q` lies outside `s`'s Voronoi cell, so the segment `s → q` exits
//!   the cell through an edge shared with a Voronoi neighbor `t` — a
//!   Delaunay neighbor of `s` — and the exit point `x` gives
//!   `d(q,t) ≤ d(q,x) + d(x,t) = d(q,x) + d(x,s) = d(q,s)` with
//!   equality only in degenerate ties. Greedy descent over Delaunay
//!   neighbors therefore never gets stuck before reaching a nearest
//!   site (Bose & Morin, "Online routing in triangulations").
//!
//! * **Best-first k-NN.** For any site `s`, walking the segment
//!   `s → q` as above yields a Delaunay neighbor `b` of `s` with
//!   `d(q,b) ≤ d(q,s)`. Inductively every site has a Delaunay path to
//!   the nearest site along which distance to `q` never increases, so
//!   a best-first expansion seeded at the nearest site (Dijkstra over
//!   `d(q,·)` as the priority) pops sites in exact nondecreasing
//!   distance order — the first `k` pops are the `k` nearest sites.

use crate::delaunay::Delaunay;
use lbq_geom::Point;

/// Reusable scratch for the order-k entry points — heap and visited
/// marks. One instance per worker thread keeps the hot lookups
/// allocation-free at steady state.
///
/// Marks are epoch-stamped: `begin` bumps the epoch instead of
/// clearing, so reuse across calls costs O(1).
#[derive(Debug, Default, Clone)]
pub struct OrderKScratch {
    /// Binary min-heap of `(dist², site)` pairs, keyed on `.0`.
    heap: Vec<(f64, u32)>,
    /// Epoch stamps: `visited[s] == visit_epoch` ⇔ `s` already heaped.
    visited: Vec<u32>,
    visit_epoch: u32,
    /// Walk hint: the site the previous query resolved to. Consecutive
    /// nearby queries (the hot-tile access pattern) start their walk
    /// one or two hops from the answer.
    hint: usize,
}

impl OrderKScratch {
    /// Prepares the marks for a triangulation of `n` sites and bumps
    /// the visit epoch.
    fn begin_visit(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        self.visit_epoch = self.visit_epoch.wrapping_add(1);
        if self.visit_epoch == 0 {
            self.visited.iter_mut().for_each(|m| *m = 0);
            self.visit_epoch = 1;
        }
        self.heap.clear();
    }

    fn visit(&mut self, s: usize) -> bool {
        if self.visited[s] == self.visit_epoch {
            return false;
        }
        self.visited[s] = self.visit_epoch;
        true
    }

    /// Pushes `(key, site)` maintaining the min-heap invariant on `.0`.
    fn heap_push(&mut self, key: f64, site: u32) {
        self.heap.push((key, site));
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].0 <= self.heap[i].0 {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    /// Pops the minimum-key entry.
    fn heap_pop(&mut self) -> Option<(f64, u32)> {
        let n = self.heap.len();
        if n == 0 {
            return None;
        }
        self.heap.swap(0, n - 1);
        let top = self.heap.pop();
        let mut i = 0;
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut small = i;
            if l < n && self.heap[l].0 < self.heap[small].0 {
                small = l;
            }
            if r < n && self.heap[r].0 < self.heap[small].0 {
                small = r;
            }
            if small == i {
                break;
            }
            self.heap.swap(i, small);
            i = small;
        }
        top
    }
}

impl Delaunay {
    /// A nearest site of `q` by greedy descent over the Delaunay
    /// adjacency graph, starting from `hint` (any site index; out of
    /// range is clamped). Returns the representative index, or `None`
    /// on an empty triangulation.
    ///
    /// Exact: greedy descent on a Delaunay triangulation cannot stall
    /// before a nearest site (see the module-level walk note). The
    /// step bound is defensive only — distances strictly decrease, so
    /// the walk cannot cycle.
    // lbq-check: hot — point-location entry for the serve hot tier.
    pub fn nearest_site_walk(&self, q: Point, hint: usize) -> Option<usize> {
        if self.n_sites == 0 {
            return None;
        }
        let mut cur = self.dup[hint.min(self.n_sites - 1)];
        let mut cur_d = q.dist_sq(self.points[cur]);
        for _ in 0..=self.n_sites {
            let mut best = cur;
            let mut best_d = cur_d;
            for &nb in &self.adjacency[cur] {
                let d = q.dist_sq(self.points[nb]);
                if d < best_d {
                    best = nb;
                    best_d = d;
                }
            }
            if best == cur {
                return Some(cur);
            }
            cur = best;
            cur_d = best_d;
        }
        Some(cur)
    }

    /// The `k` nearest (distinct) sites of `q` in nondecreasing
    /// distance order, written into `out` as representative indices.
    /// Returns fewer than `k` when the triangulation has fewer
    /// distinct sites. Exact — see the module-level best-first note.
    ///
    /// Allocation-free at steady state: the walk, heap, and marks all
    /// live in `scratch`, and `out` is reused.
    // lbq-check: hot — per-query k-set location on the serve hot tier.
    pub fn k_nearest_sites_in(
        &self,
        q: Point,
        k: usize,
        scratch: &mut OrderKScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        if self.n_sites == 0 || k == 0 {
            return;
        }
        let hint = scratch.hint;
        let Some(start) = self.nearest_site_walk(q, hint) else {
            return;
        };
        scratch.hint = start;
        scratch.begin_visit(self.n_sites);
        scratch.visit(start);
        scratch.heap_push(q.dist_sq(self.points[start]), sat_u32(start));
        while let Some((_, s)) = scratch.heap_pop() {
            let s = s as usize;
            out.push(s);
            if out.len() == k {
                return;
            }
            for &nb in &self.adjacency[s] {
                if scratch.visit(nb) {
                    scratch.heap_push(q.dist_sq(self.points[nb]), sat_u32(nb));
                }
            }
        }
    }

    /// Allocating convenience wrapper over
    /// [`Delaunay::k_nearest_sites_in`].
    pub fn k_nearest_sites(&self, q: Point, k: usize) -> Vec<usize> {
        let mut scratch = OrderKScratch::default();
        let mut out = Vec::new();
        self.k_nearest_sites_in(q, k, &mut scratch, &mut out);
        out
    }
}

/// Site indices are bounded by the u32 key space everywhere this crate
/// is deployed (tile-local site sets); saturate defensively.
fn sat_u32(i: usize) -> u32 {
    u32::try_from(i).unwrap_or(u32::MAX)
}
