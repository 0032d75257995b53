//! Hot-tile hybrid index: lazily materialized order-k Voronoi cells
//! answered by point location (DESIGN.md §16).
//!
//! The on-line pipeline computes a kNN answer *and* its validity
//! region — the order-k Voronoi cell of the result set — from scratch
//! for every cache miss (~17.5 µs at paper scale). Traffic
//! is not uniform: the Hilbert-tile heatmap (PR 7) shows fleets
//! concentrating in a handful of tiles. This module closes that loop:
//! tiles whose always-on traffic counters cross a promotion threshold
//! get a **tile-local Delaunay triangulation** of the sites in their
//! (margin-expanded) footprint, and every on-line answer served from a
//! promoted tile is memoized under its order-k identity — the set of
//! result ids. A later query in the tile runs greedy point location +
//! best-first k-set expansion over the local triangulation
//! (`lbq_voronoi::Delaunay::k_nearest_sites_in`, `O(k log k)`), looks
//! the set up, and — **only if the stored region provably contains the
//! query** — returns the stored answer without touching the R-tree.
//!
//! Correctness is *not* carried by the point location: a hot hit is
//! served only when `QueryAnswer::valid_at(q)` holds, and the stored
//! answer is a genuine on-line response, so by the validity-region
//! guarantee (paper Lemma 3.1) the result set at `q` is bit-identical
//! to what the full pipeline would produce. The located k-set is a
//! lookup *key*; if the tile-local view is unsound for `q` (an
//! unfetched site could intrude, a distance tie at the k-th rank, a
//! duplicate group straddling the cut) the lookup misses and the query
//! degrades to the cold path. Like the region cache, a hit returns the
//! response **anchored at the original query** (see [`QueryAnswer`]).
//!
//! Demotion mirrors promotion: counters decay by half on a fixed
//! cadence, and a hot tile whose decayed traffic drops below the
//! demotion floor is dropped — in-flight lookups keep their `Arc`,
//! promotion can happen again later, and churn never affects result
//! bytes (pinned by `tests/hot.rs`).

use crate::QueryAnswer;
use lbq_core::LbqServer;
use lbq_geom::{Point, Rect};
use lbq_obs::{Heatmap, HEATMAP_SLOTS};
use lbq_rtree::hilbert::{hilbert_key, tile_rect, KEY_ORDER};
use lbq_voronoi::{Delaunay, OrderKScratch};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Hilbert prefix bits of one heatmap/hot tile (4096 tiles = order-6).
const TILE_BITS: u32 = HEATMAP_SLOTS.trailing_zeros();

/// Promotion/demotion policy for the hot-tile index.
///
/// `promote_after == 0` disables the tier entirely: the engine builds
/// no index and the serve path carries zero hot-tier work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotConfig {
    /// Traffic count at which a cold tile is promoted (0 = disabled).
    pub promote_after: u64,
    /// Decayed traffic below which a hot tile is demoted.
    pub demote_below: u64,
    /// Probe cadence of the decay sweep (counters halve every `n`
    /// hot-eligible queries).
    pub decay_every: u64,
    /// Cap on concurrently promoted tiles.
    pub max_tiles: usize,
    /// Cap on memoized cells per tile.
    pub max_cells_per_tile: usize,
    /// Fetch-rect margin, as a fraction of the tile's larger extent:
    /// sites are fetched from the tile footprint expanded by this much
    /// on every side, so k-sets near the tile interior resolve locally.
    pub margin: f64,
}

impl Default for HotConfig {
    fn default() -> Self {
        HotConfig {
            promote_after: 64,
            demote_below: 8,
            decay_every: 16 * 1024,
            max_tiles: 64,
            max_cells_per_tile: 4096,
            margin: 0.5,
        }
    }
}

impl HotConfig {
    /// A configuration with the hot tier turned off.
    pub fn disabled() -> Self {
        HotConfig {
            promote_after: 0,
            ..HotConfig::default()
        }
    }

    /// `true` when the tier participates in serving.
    pub fn is_enabled(&self) -> bool {
        self.promote_after > 0
    }
}

/// Point-in-time statistics of the hot tier.
#[derive(Debug, Clone, Copy, Default)]
pub struct HotStats {
    /// Currently promoted tiles.
    pub hot_tiles: usize,
    /// Queries answered from a memoized cell.
    pub hits: u64,
    /// Lookups into a promoted tile that fell through to the pipeline.
    pub misses: u64,
    /// Lifetime promotions.
    pub promotions: u64,
    /// Lifetime demotions.
    pub demotions: u64,
    /// Currently memoized cells across all hot tiles.
    pub cells: u64,
}

/// Per-worker scratch for hot-tier lookups: the order-k walk state
/// plus the site-index and key buffers. Owned by the pool worker next
/// to its `QueryScratch`, so steady-state lookups are allocation-free.
#[derive(Debug, Default)]
pub(crate) struct HotScratch {
    order_k: OrderKScratch,
    sites: Vec<usize>,
    key: Vec<u64>,
}

/// Tile promotion state. `Building` parks concurrent lookups on the
/// cold path (no blocking on the builder) until the triangulation is
/// published.
enum TileState {
    Cold,
    Building,
    Hot(Arc<HotTile>),
}

/// One promoted tile: the tile-local site view and its memoized cells.
pub(crate) struct HotTile {
    /// Margin-expanded tile footprint the sites were fetched from
    /// (the key-prefix preimage of the tile, padded, clamped to the
    /// universe).
    fetch: Rect,
    /// Which fetch edges are clamped at the universe boundary — no
    /// sites exist beyond those, so they don't bound local soundness.
    open_edge: [bool; 4],
    /// Distinct site positions (index-aligned with `delaunay` sites).
    positions: Vec<Point>,
    /// Item ids at each position (duplicate items share a position).
    ids_at: Vec<Vec<u64>>,
    /// Tile-local triangulation for point location.
    delaunay: Delaunay,
    /// Memoized cells: `[k, sorted result ids…]` → the first on-line
    /// answer with that identity.
    cells: RwLock<HashMap<Box<[u64]>, Arc<QueryAnswer>>>,
}

impl HotTile {
    /// Builds the tile-local view by fetching every site in the
    /// expanded footprint from the server's tree.
    ///
    /// Reached from the per-query `probe`, but runs once per
    /// promotion (amortized across `promote_after` probes and
    /// executed outside the slot lock), so it is free to allocate.
    // lbq-check: cold — one-time tile materialization, not per-query work.
    fn build(server: &LbqServer, universe: &Rect, tile: u32, margin: f64) -> HotTile {
        let core = tile_rect(universe, tile, TILE_BITS);
        let pad = margin * core.width().max(core.height());
        let fetch = Rect::new(
            (core.xmin - pad).max(universe.xmin),
            (core.ymin - pad).max(universe.ymin),
            (core.xmax + pad).min(universe.xmax),
            (core.ymax + pad).min(universe.ymax),
        );
        let eps = lbq_geom::EPS * universe.width().max(universe.height()).max(1.0);
        let open_edge = [
            fetch.xmin <= universe.xmin + eps,
            fetch.ymin <= universe.ymin + eps,
            fetch.xmax >= universe.xmax - eps,
            fetch.ymax >= universe.ymax - eps,
        ];
        let items = server.tree().window(&fetch);
        let mut positions: Vec<Point> = Vec::new();
        let mut ids_at: Vec<Vec<u64>> = Vec::new();
        let mut index: HashMap<(u64, u64), usize> = HashMap::new();
        for it in items {
            let pk = (it.point.x.to_bits(), it.point.y.to_bits());
            let slot = *index.entry(pk).or_insert_with(|| {
                positions.push(it.point);
                ids_at.push(Vec::new());
                positions.len() - 1
            });
            ids_at[slot].push(it.id);
        }
        let delaunay = Delaunay::build(&positions, fetch);
        HotTile {
            fetch,
            open_edge,
            positions,
            ids_at,
            delaunay,
            cells: RwLock::new(HashMap::new()),
        }
    }

    /// Distance from `q` to the nearest *closed* fetch edge — the
    /// radius inside which the tile-local site view is provably
    /// complete. Universe-clamped edges are open (nothing beyond).
    fn sound_radius(&self, q: Point) -> f64 {
        let mut r = f64::INFINITY;
        if !self.open_edge[0] {
            r = r.min(q.x - self.fetch.xmin);
        }
        if !self.open_edge[1] {
            r = r.min(q.y - self.fetch.ymin);
        }
        if !self.open_edge[2] {
            r = r.min(self.fetch.xmax - q.x);
        }
        if !self.open_edge[3] {
            r = r.min(self.fetch.ymax - q.y);
        }
        r
    }

    /// Attempts to answer `knn(q, k)` from a memoized cell.
    ///
    /// Builds the candidate identity (the local k-set), then serves the
    /// stored answer only when its validity region contains `q` — the
    /// load-bearing guard. Every early `None` is a graceful degradation
    /// to the on-line pipeline, not an error.
    // lbq-check: hot — the per-query hot-tier probe; must not allocate at steady state.
    pub(crate) fn lookup(
        &self,
        q: Point,
        k: usize,
        scratch: &mut HotScratch,
    ) -> Option<Arc<QueryAnswer>> {
        if k == 0 || self.positions.is_empty() {
            return None;
        }
        // Local k-set: ask for k+1 positions so the rank-k/k+1
        // separation is checkable.
        self.delaunay
            .k_nearest_sites_in(q, k + 1, &mut scratch.order_k, &mut scratch.sites);
        scratch.key.clear();
        scratch.key.push(k as u64);
        let mut last_d = 0.0_f64;
        let mut taken = 0usize;
        let mut rank = 0usize;
        while taken < k {
            let &s = scratch.sites.get(rank)?;
            let ids = &self.ids_at[s];
            // A duplicate group straddling the k-cut makes the true
            // set depend on tree tie-breaks — degrade.
            if taken + ids.len() > k {
                return None;
            }
            scratch.key.extend_from_slice(ids);
            taken += ids.len();
            last_d = q.dist(self.positions[s]);
            rank += 1;
        }
        if let Some(&next) = scratch.sites.get(rank) {
            // Tie at the k-th distance: ambiguous identity — degrade.
            if q.dist(self.positions[next]) <= last_d {
                return None;
            }
        }
        // Soundness: no unfetched site may be closer than the k-th.
        if last_d >= self.sound_radius(q) {
            return None;
        }
        scratch.key[1..].sort_unstable();
        let cells = self.cells.read().unwrap_or_else(|e| e.into_inner());
        let answer = cells.get(&scratch.key[..])?;
        // The decisive guard: the stored region provably contains `q`,
        // so the stored result set *is* the answer at `q`.
        if answer.valid_at(q) {
            return Some(Arc::clone(answer));
        }
        None
    }

    /// Memoizes a fresh on-line answer under its order-k identity.
    /// Capped; first writer wins (identical identity ⇒ identical
    /// result set, and the anchored-answer semantics keep whichever
    /// anchor arrived first, exactly like the region cache).
    fn memoize(&self, k: usize, answer: &Arc<QueryAnswer>, cap: usize, cells_total: &AtomicU64) {
        let ids = answer.result_ids();
        if ids.len() != k {
            return;
        }
        let mut key = Vec::with_capacity(k + 1);
        key.push(k as u64);
        key.extend_from_slice(&ids);
        let mut cells = self.cells.write().unwrap_or_else(|e| e.into_inner());
        if cells.len() >= cap {
            return;
        }
        if !cells.contains_key(&key[..]) {
            cells.insert(key.into_boxed_slice(), Arc::clone(answer));
            cells_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[cfg(test)]
    pub(crate) fn cell_count(&self) -> usize {
        self.cells.read().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// The engine-wide hot-tile index: per-tile traffic counters (always
/// on — the heatmap is recording-gated, promotion must not be), the
/// promotion state machine, and the decay sweep.
pub(crate) struct HotIndex {
    config: HotConfig,
    universe: Rect,
    traffic: Vec<AtomicU64>,
    states: Vec<Mutex<TileState>>,
    promoted: AtomicUsize,
    probes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    promotions: AtomicU64,
    demotions: AtomicU64,
    cells: AtomicU64,
}

impl HotIndex {
    pub(crate) fn new(mut config: HotConfig, universe: Rect) -> HotIndex {
        config.decay_every = config.decay_every.max(1);
        HotIndex {
            config,
            universe,
            traffic: (0..HEATMAP_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            states: (0..HEATMAP_SLOTS)
                .map(|_| Mutex::new(TileState::Cold))
                .collect(),
            promoted: AtomicUsize::new(0),
            probes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            cells: AtomicU64::new(0),
        }
    }

    /// The hot tile id of a query focus.
    pub(crate) fn tile_of(&self, focus: Point) -> u32 {
        Heatmap::tile_of_key(hilbert_key(focus, &self.universe), 2 * KEY_ORDER)
    }

    /// Notes one kNN probe into `tile` and returns its hot view, if
    /// any. Crossing the promotion threshold builds the tile **on this
    /// thread** (the crossing query pays the build, then uses it);
    /// concurrent probes of a building tile stay on the cold path.
    // lbq-check: hot — per-query tier dispatch; constant-time outside promotion events.
    pub(crate) fn probe(&self, tile: u32, server: &LbqServer) -> Option<Arc<HotTile>> {
        let slot = tile as usize & (HEATMAP_SLOTS - 1);
        let count = self.traffic[slot].fetch_add(1, Ordering::Relaxed) + 1;
        let probes = self.probes.fetch_add(1, Ordering::Relaxed) + 1;
        if probes % self.config.decay_every == 0 {
            self.decay_sweep();
        }
        {
            let mut state = self.states[slot].lock().unwrap_or_else(|e| e.into_inner());
            match &*state {
                TileState::Hot(t) => return Some(Arc::clone(t)),
                TileState::Building => return None,
                TileState::Cold => {
                    if count < self.config.promote_after
                        || self.promoted.load(Ordering::Relaxed) >= self.config.max_tiles
                    {
                        return None;
                    }
                    *state = TileState::Building;
                }
            }
        }
        // Build outside the state lock so concurrent lookups never
        // block on the builder. One allocation per *promotion*, not
        // per probe — amortized across `promote_after` queries.
        // lbq-check: allow(hot-alloc) — once per promotion event, outside the steady state
        let built = Arc::new(HotTile::build(
            server,
            &self.universe,
            tile,
            self.config.margin,
        ));
        let mut state = self.states[slot].lock().unwrap_or_else(|e| e.into_inner());
        *state = TileState::Hot(Arc::clone(&built));
        self.promoted.fetch_add(1, Ordering::Relaxed);
        self.promotions.fetch_add(1, Ordering::Relaxed);
        Some(built)
    }

    /// Halves every traffic counter and demotes hot tiles that fell
    /// below the floor. Runs inline on the probing worker at a fixed
    /// cadence; a demoted tile's in-flight `Arc`s stay valid.
    fn decay_sweep(&self) {
        for slot in 0..HEATMAP_SLOTS {
            let halved = self.traffic[slot].load(Ordering::Relaxed) / 2;
            self.traffic[slot].store(halved, Ordering::Relaxed);
            if halved < self.config.demote_below {
                let mut state = self.states[slot].lock().unwrap_or_else(|e| e.into_inner());
                if let TileState::Hot(t) = &*state {
                    let dropped =
                        u64::try_from(t.cells.read().unwrap_or_else(|e| e.into_inner()).len())
                            .unwrap_or(0);
                    self.cells.fetch_sub(dropped, Ordering::Relaxed);
                    *state = TileState::Cold;
                    self.promoted.fetch_sub(1, Ordering::Relaxed);
                    self.demotions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Memoizes `answer` into `tile`'s cell store.
    pub(crate) fn memoize(&self, tile: &HotTile, k: usize, answer: &Arc<QueryAnswer>) {
        tile.memoize(k, answer, self.config.max_cells_per_tile, &self.cells);
    }

    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> HotStats {
        HotStats {
            hot_tiles: self.promoted.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            cells: self.cells.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for HotIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("HotIndex")
            .field("config", &self.config)
            .field("stats", &s)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{answer_on, QueryReq};
    use lbq_rtree::{Item, RTree, RTreeConfig};

    fn server(n: usize) -> Arc<LbqServer> {
        let universe = Rect::new(0.0, 0.0, 1.0, 1.0);
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            // Test-only uniform sample
            (rng >> 11) as f64 / (1u64 << 53) as f64
        };
        let items: Vec<Item> = (0..n)
            .map(|i| Item::new(Point::new(next(), next()), i as u64))
            .collect();
        Arc::new(LbqServer::new(
            RTree::bulk_load(items, RTreeConfig::default()),
            universe,
        ))
    }

    #[test]
    fn disabled_config_reports_disabled() {
        assert!(!HotConfig::disabled().is_enabled());
        assert!(HotConfig::default().is_enabled());
    }

    #[test]
    fn promotion_after_threshold_and_memoized_hit() {
        let server = server(4000);
        // A generous fetch margin keeps the k-set and its soundness
        // radius well inside the tile-local view at this density.
        let config = HotConfig {
            promote_after: 4,
            margin: 2.0,
            ..HotConfig::default()
        };
        let index = HotIndex::new(config, server.universe());
        let q = Point::new(0.431, 0.517);
        let tile = index.tile_of(q);
        let mut scratch = HotScratch::default();
        let mut hot = None;
        for _ in 0..8 {
            hot = index.probe(tile, &server);
        }
        let hot = hot.expect("tile promoted after threshold");
        assert_eq!(index.stats().promotions, 1);
        // Cold lookup misses, the on-line answer memoizes, the repeat
        // lookup hits with the identical Arc.
        assert!(hot.lookup(q, 3, &mut scratch).is_none());
        let answer = Arc::new(answer_on(&server, &QueryReq::knn(q, 3)));
        index.memoize(&hot, 3, &answer);
        assert_eq!(hot.cell_count(), 1);
        let hit = hot.lookup(q, 3, &mut scratch).expect("memoized cell hit");
        assert!(Arc::ptr_eq(&hit, &answer));
        // A nearby query inside the same cell shares the anchor.
        let q2 = Point::new(q.x + 1e-6, q.y);
        if answer.valid_at(q2) {
            let hit2 = hot.lookup(q2, 3, &mut scratch).expect("same-cell hit");
            assert!(Arc::ptr_eq(&hit2, &answer));
        }
    }

    #[test]
    fn lookup_degrades_near_fetch_boundary() {
        let server = server(4000);
        let config = HotConfig {
            promote_after: 1,
            margin: 0.1,
            ..HotConfig::default()
        };
        let index = HotIndex::new(config, server.universe());
        let q = Point::new(0.5, 0.5);
        let tile = index.tile_of(q);
        let hot = index.probe(tile, &server).expect("promoted on first probe");
        let mut scratch = HotScratch::default();
        // A huge k cannot resolve inside the tiny fetch rect: the
        // soundness radius gate must degrade, never serve.
        let answer = Arc::new(answer_on(&server, &QueryReq::knn(q, 512)));
        index.memoize(&hot, 512, &answer);
        assert!(hot.lookup(q, 512, &mut scratch).is_none());
    }

    #[test]
    fn decay_demotes_idle_tiles() {
        let server = server(1000);
        let config = HotConfig {
            promote_after: 2,
            demote_below: 64,
            decay_every: 32,
            ..HotConfig::default()
        };
        let index = HotIndex::new(config, server.universe());
        let q = Point::new(0.25, 0.75);
        let tile = index.tile_of(q);
        for _ in 0..4 {
            index.probe(tile, &server);
        }
        assert_eq!(index.stats().hot_tiles, 1);
        // Drive the decay cadence from a *different* tile: the idle
        // hot tile halves below the floor and demotes.
        let other = index.tile_of(Point::new(0.9, 0.1));
        assert_ne!(tile, other);
        for _ in 0..256 {
            index.probe(other, &server);
        }
        let stats = index.stats();
        assert!(stats.demotions >= 1, "idle tile must demote: {stats:?}");
    }

    #[test]
    fn max_tiles_caps_promotions() {
        let server = server(2000);
        let config = HotConfig {
            promote_after: 1,
            max_tiles: 2,
            ..HotConfig::default()
        };
        let index = HotIndex::new(config, server.universe());
        for i in 0..16 {
            // Small loop index
            let f = i as f64 / 16.0;
            let tile = index.tile_of(Point::new(f, f));
            index.probe(tile, &server);
        }
        assert!(index.stats().hot_tiles <= 2);
    }
}
