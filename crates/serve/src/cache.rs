//! The sharded LRU validity-region cache.
//!
//! The paper's client caches its own last response and re-uses it while
//! it stays inside the validity region. Server-side, the same check
//! works *across* clients: any query whose focus falls inside a cached
//! region — and whose parameters (k, or window extents) match the
//! anchor query's — can be answered from the cache, because the region
//! is precisely the locus where that result set is invariant
//! (Lemmas 3.1–3.2 for kNN; the inner-rectangle-minus-Minkowski-holes
//! argument of Section 4 for windows).
//!
//! ## Sharding
//!
//! Entries are keyed spatially: the universe is cut into a `grid ×
//! grid` lattice, each cell maps to one of `shards` lock-striped
//! shards, and an entry is replicated into **every shard its region's
//! bounding box overlaps** (validity regions are small — O(1/N) of the
//! universe, the paper's Section 5 — so that is 1–4 shards in
//! practice, each copy an `Arc` bump). A lookup therefore probes
//! exactly one shard: the one owning the incoming focus's cell.
//! Containment is tested exactly against the cached region, so a probe
//! can never return a wrong answer — at worst an evicted replica turns
//! a would-be hit into a recomputation.
//!
//! ## The inline box
//!
//! A miss scans a whole shard (up to `per_shard` entries) and rejects
//! almost every one. Each entry therefore carries its region's
//! conservative bounding box ([`QueryAnswer::region_bbox`]) inline, and
//! a probe tests the box before it dereferences the shared answer: a
//! rejection costs four comparisons on the shard's own memory instead
//! of a pointer chase and a pair scan. The box contains every point the
//! exact test accepts, so it changes no hit, miss or insert.
//!
//! Each shard is independently LRU: a logical clock stamps hits and
//! inserts, and insertion past capacity evicts the stalest entry of
//! that shard only.

use crate::{QueryAnswer, QueryReq};
use lbq_geom::{Point, Rect};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Geometry and capacity of a [`RegionCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of lock-striped shards (clamped to ≥ 1).
    pub shards: usize,
    /// Entries held per shard; `0` disables the cache entirely.
    pub per_shard: usize,
    /// Lattice resolution used to map a focus to a shard: the universe
    /// is split into `grid × grid` cells (clamped to ≥ 1).
    pub grid: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            per_shard: 64,
            grid: 64,
        }
    }
}

impl CacheConfig {
    /// A disabled cache (every lookup misses, inserts are dropped).
    pub fn disabled() -> Self {
        CacheConfig {
            shards: 1,
            per_shard: 0,
            grid: 1,
        }
    }
}

/// Parameter key of a cached entry: a region only revalidates queries
/// of the same kind and shape. Window extents are compared bit-exact
/// (`f64::to_bits`): a client re-issuing "the same" window sends the
/// same bits; anything else is a different query shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParamKey {
    Knn { k: usize },
    Window { hx: u64, hy: u64 },
}

impl ParamKey {
    fn of(req: &QueryReq) -> ParamKey {
        match *req {
            QueryReq::Knn { k, .. } => ParamKey::Knn { k },
            QueryReq::Window { hx, hy, .. } => ParamKey::Window {
                hx: hx.to_bits(),
                hy: hy.to_bits(),
            },
        }
    }
}

#[derive(Debug)]
struct Entry {
    key: ParamKey,
    /// [`QueryAnswer::region_bbox`], held inline so a probe rejects on
    /// it without dereferencing `answer` (`None`: no box, test the
    /// region).
    bbox: Option<Rect>,
    answer: Arc<QueryAnswer>,
    stamp: u64,
}

impl Entry {
    /// `true` when this entry answers a request of shape `key` at
    /// `focus`: the box test first, the exact region test only inside.
    #[inline]
    fn answers(&self, key: ParamKey, focus: Point) -> bool {
        self.key == key
            && self.bbox.is_none_or(|b| b.contains(focus))
            && self.answer.valid_at(focus)
    }
}

#[derive(Debug, Default)]
struct Shard {
    entries: Vec<Entry>,
}

/// Point-in-time hit/miss/insert counters of a [`RegionCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from a cached region.
    pub hits: u64,
    /// Lookups that fell through to the tree.
    pub misses: u64,
    /// Entries inserted (evictions are `inserts − resident`).
    pub inserts: u64,
}

/// The sharded LRU validity-region cache. See the module docs for the
/// sharding and correctness story.
#[derive(Debug)]
pub struct RegionCache {
    config: CacheConfig,
    universe: Rect,
    shards: Vec<Mutex<Shard>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

// Compile-time proof of the sharding story: every worker thread probes
// the cache concurrently through an `Arc<RegionCache>`, and each shard
// crosses threads inside its `Mutex` — so both must stay Send + Sync
// (the shard's `Arc<QueryAnswer>` payloads are the part that could
// silently regress).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RegionCache>();
    assert_send_sync::<Shard>();
};

impl RegionCache {
    /// Creates an empty cache over `universe` (the lattice spans it).
    pub fn new(universe: Rect, config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        RegionCache {
            config,
            universe,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// `true` when the cache stores nothing (`per_shard == 0`).
    pub fn is_disabled(&self) -> bool {
        self.config.per_shard == 0
    }

    /// Lattice cell of a point, clamped to the universe.
    fn cell_of(&self, p: Point) -> (usize, usize) {
        let g = self.config.grid.max(1);
        let w = (self.universe.width() / g as f64).max(f64::MIN_POSITIVE);
        let h = (self.universe.height() / g as f64).max(f64::MIN_POSITIVE);
        let cx = (((p.x - self.universe.xmin) / w).floor().max(0.0) as usize).min(g - 1);
        let cy = (((p.y - self.universe.ymin) / h).floor().max(0.0) as usize).min(g - 1);
        (cx, cy)
    }

    /// Shard index of a lattice cell.
    fn shard_of_cell(&self, (cx, cy): (usize, usize)) -> usize {
        (cx.wrapping_mul(31).wrapping_add(cy)) % self.shards.len()
    }

    /// Shard index of a focus point: lattice cell, hashed over shards.
    fn shard_of(&self, p: Point) -> usize {
        self.shard_of_cell(self.cell_of(p))
    }

    /// The distinct shards whose cells `bbox` overlaps. A validity
    /// region usually spans 1–4 cells; a degenerate huge region (empty
    /// dataset) is bounded by the shard count itself.
    fn shards_of_region(&self, bbox: &Rect) -> Vec<usize> {
        let (x0, y0) = self.cell_of(Point::new(bbox.xmin, bbox.ymin));
        let (x1, y1) = self.cell_of(Point::new(bbox.xmax, bbox.ymax));
        let mut out = Vec::new();
        for cx in x0..=x1 {
            for cy in y0..=y1 {
                let s = self.shard_of_cell((cx, cy));
                if !out.contains(&s) {
                    out.push(s);
                }
                if out.len() == self.shards.len() {
                    return out; // every shard already covered
                }
            }
        }
        out
    }

    fn lock(&self, idx: usize) -> MutexGuard<'_, Shard> {
        self.shards[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Probes the cache for a response whose validity region contains
    /// `req`'s focus and whose parameters match. A hit refreshes the
    /// entry's LRU stamp and returns the shared answer.
    pub fn lookup(&self, req: &QueryReq) -> Option<Arc<QueryAnswer>> {
        if self.is_disabled() {
            return None;
        }
        let focus = req.focus();
        let key = ParamKey::of(req);
        let mut shard = self.lock(self.shard_of(focus));
        let found = shard
            .entries
            .iter_mut()
            // lbq-check: allow(guard-across-call) — answers (box test, then valid_at) is pure geometry (no locks, no tree access); the guard must span the probe so the LRU stamp updates atomically with the match
            .find(|e| e.answers(key, focus));
        match found {
            Some(e) => {
                e.stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.answer))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly computed answer, keyed by the request that
    /// produced it. The entry is replicated (an `Arc` bump per copy)
    /// into every shard whose cells the region's bounding box overlaps,
    /// so a later focus anywhere inside the region probes a shard that
    /// holds it. Full shards evict their LRU entry.
    pub fn insert(&self, req: &QueryReq, answer: Arc<QueryAnswer>) {
        if self.is_disabled() {
            return;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let key = ParamKey::of(req);
        let bbox = answer.region_bbox();
        let targets = match bbox {
            Some(bbox) => self.shards_of_region(&bbox),
            None => vec![self.shard_of(req.focus())],
        };
        for idx in targets {
            let mut shard = self.lock(idx);
            if shard.entries.len() >= self.config.per_shard {
                if let Some(lru) = shard
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(i, _)| i)
                {
                    shard.entries.swap_remove(lru);
                }
            }
            shard.entries.push(Entry {
                key,
                bbox,
                answer: Arc::clone(&answer),
                stamp,
            });
        }
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap_or_else(|e| e.into_inner()).entries.clear();
        }
    }

    /// Entries currently resident across all shards.
    pub fn resident(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).entries.len())
            .sum()
    }

    /// Hit/miss/insert counters since creation.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer_on;
    use lbq_core::LbqServer;
    use lbq_rng::Xoshiro256ss;
    use lbq_rtree::{Item, RTree, RTreeConfig};

    fn grid_server() -> LbqServer {
        let universe = Rect::new(0.0, 0.0, 10.0, 10.0);
        let items: Vec<Item> = (0..100)
            .map(|i| Item::new(Point::new((i % 10) as f64, (i / 10) as f64), i))
            .collect();
        LbqServer::new(RTree::bulk_load(items, RTreeConfig::tiny()), universe)
    }

    #[test]
    fn hit_inside_region_miss_outside() {
        let server = grid_server();
        let cache = RegionCache::new(server.universe(), CacheConfig::default());
        let anchor = QueryReq::knn(Point::new(4.1, 4.2), 1);
        let ans = Arc::new(answer_on(&server, &anchor));
        cache.insert(&anchor, Arc::clone(&ans));

        // Same Voronoi cell (of the point (4,4)): hit, same answer.
        let near = QueryReq::knn(Point::new(4.2, 4.1), 1);
        let hit = cache.lookup(&near).expect("inside region must hit");
        assert_eq!(hit.result_ids(), ans.result_ids());

        // Far focus: different result, must miss.
        assert!(cache
            .lookup(&QueryReq::knn(Point::new(8.9, 8.9), 1))
            .is_none());
        // Same focus, different k: different query shape, must miss.
        assert!(cache
            .lookup(&QueryReq::knn(Point::new(4.2, 4.1), 2))
            .is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 2, 1));
    }

    #[test]
    fn disabled_cache_never_stores() {
        let server = grid_server();
        let cache = RegionCache::new(server.universe(), CacheConfig::disabled());
        let req = QueryReq::knn(Point::new(4.1, 4.2), 1);
        cache.insert(&req, Arc::new(answer_on(&server, &req)));
        assert_eq!(cache.resident(), 0);
        assert!(cache.lookup(&req).is_none());
    }

    #[test]
    fn lru_evicts_per_shard() {
        let server = grid_server();
        // One shard, two slots: the third insert evicts the stalest.
        let cache = RegionCache::new(
            server.universe(),
            CacheConfig {
                shards: 1,
                per_shard: 2,
                grid: 1,
            },
        );
        let reqs = [
            QueryReq::knn(Point::new(1.1, 1.1), 1),
            QueryReq::knn(Point::new(5.1, 5.1), 1),
            QueryReq::knn(Point::new(8.1, 8.1), 1),
        ];
        for r in &reqs[..2] {
            cache.insert(r, Arc::new(answer_on(&server, r)));
        }
        // Touch the first so the second becomes LRU.
        assert!(cache.lookup(&reqs[0]).is_some());
        cache.insert(&reqs[2], Arc::new(answer_on(&server, &reqs[2])));
        assert_eq!(cache.resident(), 2);
        assert!(cache.lookup(&reqs[0]).is_some(), "recently used survives");
        assert!(cache.lookup(&reqs[1]).is_none(), "LRU entry evicted");
    }

    #[test]
    fn window_hits_respect_extent_bits() {
        let server = grid_server();
        let cache = RegionCache::new(server.universe(), CacheConfig::default());
        let anchor = QueryReq::window(Point::new(5.0, 5.0), 1.5, 1.5);
        cache.insert(&anchor, Arc::new(answer_on(&server, &anchor)));
        // Nudged focus inside the inner rectangle: hit.
        assert!(cache
            .lookup(&QueryReq::window(Point::new(5.05, 4.95), 1.5, 1.5))
            .is_some());
        // Same focus, different extents: miss.
        assert!(cache
            .lookup(&QueryReq::window(Point::new(5.0, 5.0), 1.6, 1.5))
            .is_none());
    }

    /// Every box the cache stores, across all shards.
    fn stored_boxes(cache: &RegionCache) -> Vec<Option<Rect>> {
        (0..cache.shards.len())
            .flat_map(|i| {
                cache
                    .lock(i)
                    .entries
                    .iter()
                    .map(|e| e.bbox)
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Turns the box test off for every resident entry: with no box a
    /// probe falls through to the exact region test alone.
    fn drop_boxes(cache: &RegionCache) {
        for i in 0..cache.shards.len() {
            for e in &mut cache.lock(i).entries {
                e.bbox = None;
            }
        }
    }

    /// Sample points around a region: each corner and each edge
    /// midpoint of its outline, jittered at several scales (from far
    /// below the box's slack to far above it), plus jittered interior
    /// points.
    fn samples(outline: &[Point], rng: &mut Xoshiro256ss) -> Vec<Point> {
        let mut anchors: Vec<Point> = outline.to_vec();
        for (i, &a) in outline.iter().enumerate() {
            let b = outline[(i + 1) % outline.len()];
            anchors.push(Point::new(0.5 * (a.x + b.x), 0.5 * (a.y + b.y)));
        }
        for _ in 0..8 {
            let (mut x, mut y, mut wsum) = (0.0, 0.0, 0.0);
            for v in outline {
                let w = rng.gen_range(0.0..1.0);
                (x, y, wsum) = (x + w * v.x, y + w * v.y, wsum + w);
            }
            anchors.push(Point::new(x / wsum, y / wsum));
        }
        let mut out = anchors.clone();
        for &a in &anchors {
            for scale in [1e-15, 1e-12, 1e-10, 1e-8, 1e-5, 1e-2] {
                for _ in 0..6 {
                    out.push(Point::new(
                        a.x + scale * rng.gen_range(-1.0..1.0),
                        a.y + scale * rng.gen_range(-1.0..1.0),
                    ));
                }
            }
        }
        out
    }

    /// Inserts `req`'s answer and checks that the stored box holds every
    /// sampled point the exact region test accepts. Returns how many
    /// accepted samples there were.
    fn assert_box_conservative(
        server: &LbqServer,
        req: &QueryReq,
        rng: &mut Xoshiro256ss,
    ) -> usize {
        let cache = RegionCache::new(server.universe(), CacheConfig::default());
        let answer = Arc::new(answer_on(server, req));
        cache.insert(req, Arc::clone(&answer));
        let boxes = stored_boxes(&cache);
        assert!(!boxes.is_empty(), "{req:?}: entry stored");
        assert!(
            boxes.iter().all(|b| *b == answer.region_bbox()),
            "{req:?}: stored box"
        );
        let outline: Vec<Point> = match &*answer {
            QueryAnswer::Knn(r) if r.validity.polygon.is_empty() => vec![req.focus()],
            QueryAnswer::Knn(r) => r.validity.polygon.vertices().to_vec(),
            QueryAnswer::Window(r) => {
                let ir = r.validity.inner_rect;
                vec![
                    Point::new(ir.xmin, ir.ymin),
                    Point::new(ir.xmax, ir.ymin),
                    Point::new(ir.xmax, ir.ymax),
                    Point::new(ir.xmin, ir.ymax),
                ]
            }
        };
        let mut accepted = 0;
        for p in samples(&outline, rng) {
            if answer.valid_at(p) {
                accepted += 1;
                for b in boxes.iter().flatten() {
                    assert!(
                        b.contains(p),
                        "{req:?}: {p} is valid but outside the box {b:?}"
                    );
                }
            }
        }
        accepted
    }

    #[test]
    fn stored_box_holds_every_valid_point() {
        let mut rng = Xoshiro256ss::seed_from_u64(0xB0C5);
        // Generic data: kNN regions and windows.
        let universe = Rect::new(0.0, 0.0, 1.0, 1.0);
        let items: Vec<Item> = (0..600)
            .map(|i| {
                Item::new(
                    Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
                    i,
                )
            })
            .collect();
        let generic = LbqServer::new(RTree::bulk_load(items, RTreeConfig::tiny()), universe);
        let mut accepted = 0;
        for _ in 0..25 {
            let q = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            for k in [1, 3, 10] {
                accepted += assert_box_conservative(&generic, &QueryReq::knn(q, k), &mut rng);
            }
            let h = rng.gen_range(0.01..0.2);
            accepted += assert_box_conservative(&generic, &QueryReq::window(q, h, h), &mut rng);
        }
        // Lattice ties: foci on lattice points, edge midpoints and cell
        // centres, where several bisectors meet at one vertex.
        let grid = grid_server();
        for q in [
            Point::new(4.0, 4.0),
            Point::new(4.5, 4.0),
            Point::new(4.5, 4.5),
            Point::new(0.0, 9.0),
        ] {
            for k in [1, 2, 4, 5] {
                accepted += assert_box_conservative(&grid, &QueryReq::knn(q, k), &mut rng);
            }
            accepted += assert_box_conservative(&grid, &QueryReq::window(q, 1.5, 1.5), &mut rng);
        }
        // Empty influence set: k covers the whole dataset, the region is
        // the universe.
        let everything = QueryReq::knn(Point::new(3.3, 6.1), 100);
        let QueryAnswer::Knn(r) = answer_on(&grid, &everything) else {
            unreachable!("a kNN request answers with a kNN response")
        };
        assert!(
            r.validity.pairs.is_empty(),
            "k = n leaves no influence pair"
        );
        accepted += assert_box_conservative(&grid, &everything, &mut rng);
        assert!(accepted > 1_000, "only {accepted} samples were valid");
    }

    #[test]
    fn box_test_changes_no_hit_miss_or_insert() {
        // One fixed mixed stream against two caches, one of which has
        // its boxes dropped after every insert. Few slots per shard, so
        // evictions are part of the stream.
        let server = grid_server();
        let config = CacheConfig {
            shards: 4,
            per_shard: 10,
            grid: 8,
        };
        let boxed = RegionCache::new(server.universe(), config);
        let plain = RegionCache::new(server.universe(), config);
        let mut rng = Xoshiro256ss::seed_from_u64(0x57A7);
        let anchors: Vec<Point> = (0..16)
            .map(|_| Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        let mut hits = 0;
        for step in 0..1_500 {
            let a = anchors[rng.gen_range(0..anchors.len())];
            // Jittered around an anchor, kept inside the universe.
            let focus = Point::new(
                (a.x + rng.gen_range(-0.2..0.2)).clamp(0.0, 10.0),
                (a.y + rng.gen_range(-0.2..0.2)).clamp(0.0, 10.0),
            );
            let req = match step % 3 {
                0 => QueryReq::window(focus, 1.5, 1.5),
                _ => QueryReq::knn(focus, 1 + step % 2),
            };
            let (b, p) = (boxed.lookup(&req), plain.lookup(&req));
            assert_eq!(
                b.as_ref().map(|a| a.result_ids()),
                p.as_ref().map(|a| a.result_ids()),
                "step {step}: {req:?}"
            );
            if b.is_some() {
                hits += 1;
            } else {
                let answer = Arc::new(answer_on(&server, &req));
                boxed.insert(&req, Arc::clone(&answer));
                plain.insert(&req, answer);
                drop_boxes(&plain);
            }
        }
        assert_eq!(boxed.stats(), plain.stats());
        assert!(
            hits > 200 && boxed.stats().misses > 200,
            "{:?}",
            boxed.stats()
        );
        assert!(stored_boxes(&boxed).iter().all(Option::is_some));
    }
}
