//! The batch engine: pool + cache + shared tree, glued together.
//!
//! ## Tile-batched dispatch
//!
//! `submit` does not hand the pool one job per query. It sorts the
//! batch by the Hilbert key of each query focus
//! ([`lbq_rtree::hilbert`]), cuts the sorted order into **locality
//! tiles** of [`EngineConfig::tile_size`] queries, and enqueues one job
//! per tile. Two effects compound:
//!
//! * **fewer queue round-trips** — a 1024-query batch at tile size 32
//!   costs 32 Mutex+Condvar handoffs instead of 1024, so the injector
//!   lock stops being the bottleneck at high worker counts;
//! * **spatial locality per worker** — consecutive queries of a tile
//!   are Hilbert-adjacent, so a tile's cache-miss queries descend the
//!   same subtrees and its validity-region passes re-touch warm
//!   nodes.
//!
//! Inside a tile every query is answered on its own, in Hilbert order:
//! hot tier, then region cache, and on a miss one kNN (or window pass)
//! plus its validity region — the paper's per-query cold path, on the
//! thread's scratch. Responses are un-permuted before `submit` returns:
//! output order is request order, exactly as with per-query dispatch.
//!
//! ## Inline single-tile submits
//!
//! A batch of at most [`EngineConfig::tile_size`] requests is one tile
//! — one pool job — whichever way it is dispatched, so `submit` serves
//! it on the **calling thread** with a thread-local scratch: no
//! `Batch` countdown, no pool queue, no condvar round trips. This is
//! the regime the timer-free `lbq-net` dispatcher lives in (it submits
//! whatever is queued the moment it is free, mostly a handful of
//! requests). Same tiling, same tiers, same responses; accounting goes
//! to one extra [`WorkerSummary`] slot, index [`Engine::workers`].

use crate::cache::{CacheConfig, RegionCache};
use crate::hot::{HotConfig, HotIndex, HotScratch, HotStats, HotTile};
use crate::pool::{Job, Pool};
use crate::{answer_on_with, QueryAnswer, QueryReq, QueryResp};
use lbq_core::LbqServer;
use lbq_obs::{CacheTier, HistogramSummary, QueryEvent, QueryKind, StageNanos};
use lbq_rtree::hilbert::{hilbert_key, KEY_ORDER};
use lbq_rtree::{QueryScratch, Stats};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Sizing of an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Validity-region cache geometry ([`CacheConfig::disabled`] turns
    /// the cache off, e.g. for measuring raw tree throughput).
    pub cache: CacheConfig,
    /// Queries per locality tile (clamped to ≥ 1). `submit` sorts each
    /// batch along the Hilbert curve of the query foci and dispatches
    /// tiles of this many adjacent queries as single pool jobs, which
    /// amortises pool hand-offs and keeps a worker's misses in one
    /// neighbourhood; a batch of at most one tile is served inline.
    /// `1` disables tiling: one query per job, in submission order.
    /// Tiles no longer group their kNN misses into one traversal; the
    /// field also stays because the benchmark report prints it.
    pub tile_size: usize,
    /// Hot-tile Voronoi fast-path policy ([`HotConfig::disabled`]
    /// turns the tier off; see `crate::hot`).
    pub hot: HotConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            cache: CacheConfig::default(),
            tile_size: 32,
            hot: HotConfig::default(),
        }
    }
}

impl EngineConfig {
    /// A config with `workers` threads and the default cache.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig {
            workers,
            ..Default::default()
        }
    }
}

/// Per-worker accounting, aggregated lock-free by the workers.
#[derive(Debug, Default)]
struct WorkerStats {
    jobs: AtomicU64,
    cache_hits: AtomicU64,
    busy_ns: AtomicU64,
    latency: lbq_obs::Histogram,
}

/// A point-in-time copy of one worker's counters, for reporting.
#[derive(Debug, Clone)]
pub struct WorkerSummary {
    /// Worker index (thread `lbq-serve-<worker>`); index
    /// [`Engine::workers`] is the inline slot — single-tile batches
    /// served on their submitting threads.
    pub worker: usize,
    /// Requests served.
    pub jobs: u64,
    /// Requests answered from the region cache.
    pub cache_hits: u64,
    /// Total busy time, nanoseconds.
    pub busy_ns: u64,
    /// Service-latency distribution of this worker.
    pub latency: HistogramSummary,
}

/// State shared between `submit` and the jobs of one batch.
struct Batch {
    results: Mutex<Vec<Option<QueryResp>>>,
    remaining: AtomicUsize,
    done: Condvar,
    done_lock: Mutex<bool>,
}

/// Everything a tile needs to be served, shared between `submit` and
/// the pool jobs of its batches.
#[derive(Debug)]
struct Core {
    server: Arc<LbqServer>,
    cache: RegionCache,
    /// One slot per pool worker plus the inline slot (last).
    stats: Vec<WorkerStats>,
    latency: lbq_obs::Histogram,
    occupancy: lbq_obs::Histogram,
    /// Per-Hilbert-tile hit/latency counters (`serve-tile-heat`),
    /// fed on the recording path only.
    heat: lbq_obs::Heatmap,
    /// The hot-tile Voronoi index; `None` when the tier is disabled,
    /// so the disabled serve path carries zero hot-tier work.
    hot: Option<HotIndex>,
}

/// The concurrent batched query engine. See the crate docs for the
/// architecture; construction is [`Engine::new`], the entry point is
/// [`Engine::submit`].
#[derive(Debug)]
pub struct Engine {
    core: Arc<Core>,
    pool: Pool,
    tile_size: usize,
    /// Monotonic id source: `submit` claims one id per request, in
    /// request order, so ids are stable across tiling and scheduling.
    next_query_id: AtomicU64,
}

/// The submitting thread's buffers for inline single-tile serving: the
/// same scratch pair a pool worker owns, plus the tile and response
/// staging a pool job allocates per batch.
#[derive(Default)]
struct InlineScratch {
    query: QueryScratch,
    hot: HotScratch,
    tile: Vec<(usize, QueryReq)>,
    out: Vec<(usize, QueryResp)>,
}

thread_local! {
    static INLINE: RefCell<InlineScratch> = RefCell::default();
}

// Compile-time proof that the engine can be shared across submitting
// threads (`Arc<Engine>` is the intended ownership shape); a field
// losing Send or Sync must fail the build, not a load test.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

impl Engine {
    /// Builds an engine over `server` with `config` workers and cache.
    pub fn new(server: Arc<LbqServer>, config: EngineConfig) -> Self {
        let pool = Pool::new(config.workers);
        let cache = RegionCache::new(server.universe(), config.cache);
        let hot = config
            .hot
            .is_enabled()
            .then(|| HotIndex::new(config.hot, server.universe()));
        // Static engine geometry, stamped onto exporter snapshots.
        lbq_obs::snapshot_field("serve-config-workers", pool.workers());
        lbq_obs::snapshot_field("serve-config-tile-size", config.tile_size.max(1));
        Engine {
            core: Arc::new(Core {
                server,
                cache,
                stats: (0..=pool.workers())
                    .map(|_| WorkerStats::default())
                    .collect(),
                latency: lbq_obs::histogram("serve-query-latency"),
                occupancy: lbq_obs::histogram("serve-tile-size"),
                heat: lbq_obs::heatmap("serve-tile-heat"),
                hot,
            }),
            pool,
            tile_size: config.tile_size.max(1),
            next_query_id: AtomicU64::new(0),
        }
    }

    /// Queries per locality tile (see [`EngineConfig::tile_size`]).
    pub fn tile_size(&self) -> usize {
        self.tile_size
    }

    /// The shared server (tree + universe) the engine answers from.
    pub fn server(&self) -> &Arc<LbqServer> {
        &self.core.server
    }

    /// The validity-region cache fronting the tree.
    pub fn cache(&self) -> &RegionCache {
        &self.core.cache
    }

    /// Point-in-time statistics of the hot-tile Voronoi tier. All-zero
    /// when the tier is disabled ([`HotConfig::disabled`]).
    pub fn hot_stats(&self) -> HotStats {
        self.core
            .hot
            .as_ref()
            .map_or_else(HotStats::default, |h| h.stats())
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Serves a batch and blocks until every request is answered: a
    /// batch of at most one tile runs on the calling thread, a larger
    /// one fans out across the workers. Responses come back in request
    /// order (the Hilbert tiling below is un-permuted before returning).
    /// Window extents must be positive (checked up front, before
    /// anything is served).
    pub fn submit(&self, reqs: Vec<QueryReq>) -> Vec<QueryResp> {
        for r in &reqs {
            if let QueryReq::Window { hx, hy, .. } = *r {
                assert!(hx > 0.0 && hy > 0.0, "window extents must be positive");
            }
        }
        let n = reqs.len();
        if n == 0 {
            return Vec::new();
        }
        let mut span = lbq_obs::span("serve-batch");
        span.record("batch-size", n as u64);
        // One id per request, claimed in request order: response i of
        // this batch reports `first_id + i` no matter how the tiling
        // permutes or which thread serves it.
        let first_id = self.next_query_id.fetch_add(n as u64, Ordering::Relaxed);
        let out = if n <= self.tile_size {
            self.serve_inline(&reqs, first_id)
        } else {
            self.serve_pooled(&reqs, first_id)
        };
        let hits = out.iter().filter(|r| r.from_cache).count();
        span.record("cache-hits", hits as u64);
        record_hit_counters(hits as u64, (n - hits) as u64);
        out
    }

    /// Locality tiling: orders `tile` along the Hilbert curve of the
    /// query foci so each tile covers one small patch of the universe
    /// (ties keep request order). Tile size 1 keeps submission order —
    /// exactly the per-query dispatch of the untiled engine.
    fn hilbert_order(&self, tile: &mut [(usize, QueryReq)]) {
        if self.tile_size > 1 && tile.len() > 1 {
            let universe = self.core.server.universe();
            tile.sort_unstable_by_key(|&(i, r)| (hilbert_key(r.focus(), &universe), i));
        }
    }

    /// The single-tile path: serves `reqs` on the calling thread with
    /// its thread-local scratch. Steady state allocates the returned
    /// vector and nothing else.
    // lbq-check: hot — the net dispatcher's steady-state path; scratch-backed like `worker_loop`
    // lbq-check: no-panic — an unwinding submitter here is the net dispatcher: every connection would hang
    fn serve_inline(&self, reqs: &[QueryReq], first_id: u64) -> Vec<QueryResp> {
        INLINE.with(|cell| {
            // `serve` never re-enters `submit`, so the borrow is free.
            let mut guard = cell.borrow_mut();
            let s = &mut *guard;
            s.tile.clear();
            s.tile.extend(reqs.iter().copied().enumerate());
            self.hilbert_order(&mut s.tile);
            let run = TileRun {
                core: &self.core,
                first_id,
                worker: self.pool.workers(),
            };
            s.out.clear();
            run.serve(&s.tile, &mut s.query, &mut s.hot, &mut s.out);
            s.out.sort_unstable_by_key(|&(idx, _)| idx);
            // lbq-check: allow(hot-alloc) — the owned response vector `submit` returns
            s.out.drain(..).map(|(_, resp)| resp).collect()
        })
    }

    /// The multi-tile path: one pool job per tile, then wait for the
    /// batch countdown.
    fn serve_pooled(&self, reqs: &[QueryReq], first_id: u64) -> Vec<QueryResp> {
        let n = reqs.len();
        let batch = Arc::new(Batch {
            results: Mutex::new((0..n).map(|_| None).collect()),
            remaining: AtomicUsize::new(n),
            done: Condvar::new(),
            done_lock: Mutex::new(false),
        });
        let mut order: Vec<(usize, QueryReq)> = reqs.iter().copied().enumerate().collect();
        self.hilbert_order(&mut order);
        let jobs: Vec<Job> = order
            .chunks(self.tile_size)
            .map(|tile| {
                let job = TileJob {
                    tile: tile.to_vec(),
                    core: Arc::clone(&self.core),
                    batch: Arc::clone(&batch),
                    first_id,
                };
                Box::new(
                    move |worker: usize,
                          scratch: &mut QueryScratch,
                          hot_scratch: &mut HotScratch| {
                        job.run(worker, scratch, hot_scratch);
                    },
                ) as Job
            })
            .collect();
        self.pool.push_all(jobs);

        let mut flag = batch.done_lock.lock().unwrap_or_else(|e| e.into_inner());
        while !*flag {
            flag = batch.done.wait(flag).unwrap_or_else(|e| e.into_inner());
        }
        drop(flag);

        let mut results = batch.results.lock().unwrap_or_else(|e| e.into_inner());
        results
            .drain(..)
            .map(|r| {
                // Remaining hit zero, so every slot was filled by its worker.
                #[expect(
                    clippy::expect_used,
                    reason = "AcqRel countdown proves every slot is Some"
                )]
                r.expect("batch slot filled once remaining reaches zero")
            })
            .collect()
    }

    /// Per-worker accounting snapshots: entries `0..workers()` are
    /// index-aligned with the pool threads, and one more entry — the
    /// last, index [`Engine::workers`] — is the inline slot, so the
    /// result holds `workers() + 1` entries and its `jobs` add up to
    /// every request served. Per-thread figures (busy share, imbalance)
    /// should be taken over `[..workers()]` only.
    pub fn worker_summaries(&self) -> Vec<WorkerSummary> {
        self.core
            .stats
            .iter()
            .enumerate()
            .map(|(worker, ws)| WorkerSummary {
                worker,
                jobs: ws.jobs.load(Ordering::Relaxed),
                cache_hits: ws.cache_hits.load(Ordering::Relaxed),
                busy_ns: ws.busy_ns.load(Ordering::Relaxed),
                latency: ws.latency.summary(),
            })
            .collect()
    }

    /// Renders the per-worker table (jobs, hits, busy time, latency
    /// percentiles) in the workspace profile format.
    pub fn profile_table(&self) -> lbq_obs::ProfileTable {
        let mut t = lbq_obs::ProfileTable::new(
            "lbq-serve workers",
            &["worker", "jobs", "hits", "busy", "p50", "p95", "p99"],
        );
        for s in self.worker_summaries() {
            t.row(&[
                if s.worker == self.workers() {
                    "lbq-serve-inline".to_string()
                } else {
                    format!("lbq-serve-{}", s.worker)
                },
                s.jobs.to_string(),
                s.cache_hits.to_string(),
                lbq_obs::fmt_ns(s.busy_ns),
                lbq_obs::fmt_ns(s.latency.p50_ns),
                lbq_obs::fmt_ns(s.latency.p95_ns),
                lbq_obs::fmt_ns(s.latency.p99_ns),
            ]);
        }
        t
    }
}

/// One pool job: a Hilbert-adjacent tile of queries served on one
/// worker.
struct TileJob {
    /// `(original batch index, request)`, in Hilbert order.
    tile: Vec<(usize, QueryReq)>,
    core: Arc<Core>,
    batch: Arc<Batch>,
    /// Query id of the batch's first request (`id = first_id + idx`).
    first_id: u64,
}

/// One tile being served on one thread — a pool worker or, inline, the
/// submitter. Every query is answered on its own, in tile order.
struct TileRun<'a> {
    core: &'a Core,
    /// Query id of the batch's first request (`id = first_id + idx`).
    first_id: u64,
    /// Accounting slot: the pool worker's index, or `workers()` inline.
    worker: usize,
}

/// Recording-path context for one response: everything `respond` needs
/// to stamp a [`QueryEvent`] into the flight recorder and heatmap.
/// `None` whenever recording is off, so the disabled path builds
/// nothing.
struct Attribution {
    req: QueryReq,
    tier: CacheTier,
    stages: StageNanos,
    /// Tree accesses of this query: the difference of the serving
    /// scratch's own tally, so exact under any number of workers.
    accesses: Stats,
}

impl TileJob {
    fn run(self, worker: usize, scratch: &mut QueryScratch, hot_scratch: &mut HotScratch) {
        let run = TileRun {
            core: &self.core,
            first_id: self.first_id,
            worker,
        };
        let mut out = Vec::with_capacity(self.tile.len());
        run.serve(&self.tile, scratch, hot_scratch, &mut out);
        {
            let mut results = self.batch.results.lock().unwrap_or_else(|e| e.into_inner());
            for (idx, resp) in out {
                results[idx] = Some(resp);
            }
        }
        let served = self.tile.len();
        if self.batch.remaining.fetch_sub(served, Ordering::AcqRel) == served {
            let mut flag = self
                .batch
                .done_lock
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            *flag = true;
            drop(flag);
            self.batch.done.notify_all();
        }
    }
}

impl TileRun<'_> {
    /// Answers every query of `tile`, appending `(original index,
    /// response)` pairs to `out`.
    // lbq-check: cold — propagation boundary, as the boxed job is for `worker_loop`: misses build owned responses (allocate by design); hits are pinned allocation-free at runtime by tests/inline_alloc.rs
    fn serve(
        &self,
        tile: &[(usize, QueryReq)],
        scratch: &mut QueryScratch,
        hot_scratch: &mut HotScratch,
        out: &mut Vec<(usize, QueryResp)>,
    ) {
        let Core {
            server, cache, hot, ..
        } = self.core;
        self.core.occupancy.record_value(tile.len() as u64);
        let recording = lbq_obs::recording();
        if recording {
            // Discard stage time stranded on this thread by a
            // mid-flight recording toggle.
            let _ = lbq_obs::take_stages();
        }
        for &(idx, req) in tile {
            let start = Instant::now();
            let before = scratch.accesses();
            // Hot-tile Voronoi probe, ahead of the region cache: point
            // location over the tile-local triangulation plus a
            // memoized-cell lookup. Any failure degrades silently to
            // the ordinary path below.
            let mut hot_tile: Option<Arc<HotTile>> = None;
            if let (Some(hot), QueryReq::Knn { q, k }) = (hot, req) {
                let _probe = lbq_obs::stage_timer(lbq_obs::Stage::HotLookup);
                if let Some(tile) = hot.probe(hot.tile_of(q), server) {
                    match tile.lookup(q, k, hot_scratch) {
                        Some(answer) => {
                            hot.record_hit();
                            record_hot_counters(1, 0);
                            drop(_probe);
                            let attr = recording.then(|| Attribution {
                                req,
                                tier: CacheTier::HotVoronoi,
                                stages: lbq_obs::take_stages(),
                                accesses: scratch.accesses().delta_since(before),
                            });
                            out.push((
                                idx,
                                self.respond(
                                    answer,
                                    CacheTier::HotVoronoi,
                                    elapsed_ns(start),
                                    idx,
                                    attr,
                                ),
                            ));
                            continue;
                        }
                        None => {
                            hot.record_miss();
                            record_hot_counters(0, 1);
                            hot_tile = Some(tile);
                        }
                    }
                }
            }
            let hit = {
                let _probe = lbq_obs::stage_timer(lbq_obs::Stage::CacheLookup);
                cache.lookup(&req)
            };
            let (answer, tier) = match hit {
                Some(hit) => (hit, CacheTier::Cache),
                None => {
                    // A miss of either kind is answered in place: one kNN
                    // (or window pass) and its validity region on this
                    // thread's scratch, memoized into both tiers.
                    let fresh = Arc::new(answer_on_with(server, &req, scratch));
                    cache.insert(&req, Arc::clone(&fresh));
                    if let (Some(hot), Some(tile), QueryReq::Knn { k, .. }) = (hot, &hot_tile, req)
                    {
                        hot.memoize(tile, k, &fresh);
                    }
                    (fresh, CacheTier::Tree)
                }
            };
            let attr = recording.then(|| Attribution {
                req,
                tier,
                stages: lbq_obs::take_stages(),
                accesses: scratch.accesses().delta_since(before),
            });
            out.push((
                idx,
                self.respond(answer, tier, elapsed_ns(start), idx, attr),
            ));
        }
    }

    /// Builds one response and feeds the per-worker + global accounting
    /// (jobs are counted per *query*, not per tile). `tier` is the
    /// answer's provenance, stamped onto the response; with recording
    /// on, `attr` carries the stage/tier/access context this query
    /// stamps into the flight recorder and hot-tile heatmap.
    fn respond(
        &self,
        answer: Arc<QueryAnswer>,
        tier: CacheTier,
        elapsed: u64,
        idx: usize,
        attr: Option<Attribution>,
    ) -> QueryResp {
        let from_cache = tier == CacheTier::Cache;
        let core = self.core;
        let worker = self.worker;
        let ws = &core.stats[worker];
        ws.jobs.fetch_add(1, Ordering::Relaxed);
        ws.cache_hits
            .fetch_add(u64::from(from_cache), Ordering::Relaxed);
        ws.busy_ns.fetch_add(elapsed, Ordering::Relaxed);
        ws.latency.record_ns(elapsed);
        core.latency.record_ns(elapsed);
        let query_id = self.first_id + idx as u64;
        let stages = attr.as_ref().map_or_else(StageNanos::default, |a| a.stages);
        if let Some(a) = attr {
            let universe = core.server.universe();
            let tile =
                lbq_obs::Heatmap::tile_of_key(hilbert_key(a.req.focus(), &universe), 2 * KEY_ORDER);
            core.heat.record(tile, elapsed);
            let (kind, k) = match a.req {
                QueryReq::Knn { k, .. } => (QueryKind::Knn, sat32(k as u64)),
                QueryReq::Window { .. } => (QueryKind::Window, 0),
            };
            lbq_obs::record_query(&QueryEvent {
                query_id,
                kind,
                k,
                tier: a.tier,
                tile,
                latency_ns: elapsed,
                node_accesses: sat32(a.accesses.node_accesses),
                page_accesses: sat32(a.accesses.page_faults),
                stages,
            });
        }
        QueryResp {
            answer,
            from_cache,
            tier,
            worker,
            latency_ns: elapsed,
            query_id,
            stages,
        }
    }
}

/// Saturating narrowing for recorder fields (k, access counts).
fn sat32(v: u64) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Feeds the hot-tier hit/miss counters (cached handles: metric lookup
/// once per process, not per probe).
fn record_hot_counters(hits: u64, misses: u64) {
    use std::sync::OnceLock;
    static HIT: OnceLock<lbq_obs::Counter> = OnceLock::new();
    static MISS: OnceLock<lbq_obs::Counter> = OnceLock::new();
    HIT.get_or_init(|| lbq_obs::counter("serve-hot-hit"))
        .add(hits);
    MISS.get_or_init(|| lbq_obs::counter("serve-hot-miss"))
        .add(misses);
}

/// Feeds the global hit/miss counters (cached handles: metric lookup
/// once per process, not per batch).
fn record_hit_counters(hits: u64, misses: u64) {
    use std::sync::OnceLock;
    static HIT: OnceLock<lbq_obs::Counter> = OnceLock::new();
    static MISS: OnceLock<lbq_obs::Counter> = OnceLock::new();
    HIT.get_or_init(|| lbq_obs::counter("serve-cache-hit"))
        .add(hits);
    MISS.get_or_init(|| lbq_obs::counter("serve-cache-miss"))
        .add(misses);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer_on;
    use lbq_geom::{Point, Rect};
    use lbq_rtree::{Item, RTree, RTreeConfig};

    fn grid_engine(workers: usize, cache: CacheConfig) -> Engine {
        let universe = Rect::new(0.0, 0.0, 10.0, 10.0);
        let items: Vec<Item> = (0..100)
            .map(|i| Item::new(Point::new((i % 10) as f64, (i / 10) as f64), i))
            .collect();
        let server = Arc::new(LbqServer::new(
            RTree::bulk_load(items, RTreeConfig::tiny()),
            universe,
        ));
        Engine::new(
            server,
            EngineConfig {
                workers,
                cache,
                ..EngineConfig::default()
            },
        )
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let engine = grid_engine(2, CacheConfig::default());
        assert!(engine.submit(Vec::new()).is_empty());
    }

    #[test]
    fn batch_answers_in_request_order() {
        let engine = grid_engine(3, CacheConfig::disabled());
        let reqs: Vec<QueryReq> = (0..40)
            .map(|i| QueryReq::knn(Point::new((i % 10) as f64 + 0.3, (i / 4) as f64 * 0.9), 1))
            .collect();
        let resps = engine.submit(reqs.clone());
        assert_eq!(resps.len(), reqs.len());
        for (req, resp) in reqs.iter().zip(&resps) {
            let expect = answer_on(engine.server(), req);
            assert_eq!(resp.answer.result_ids(), expect.result_ids());
            assert!(!resp.from_cache);
        }
    }

    #[test]
    fn repeat_batch_is_served_from_cache() {
        let engine = grid_engine(2, CacheConfig::default());
        // Distinct foci in distinct Voronoi cells: the first batch
        // cannot hit (not even on its own insertions).
        let reqs: Vec<QueryReq> = (0..5)
            .map(|i| QueryReq::knn(Point::new(1.0 + i as f64 * 2.0, 5.1), 2))
            .collect();
        let first = engine.submit(reqs.clone());
        assert!(first.iter().all(|r| !r.from_cache));
        let second = engine.submit(reqs);
        assert!(
            second.iter().all(|r| r.from_cache),
            "identical foci must hit"
        );
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.answer.result_ids(), b.answer.result_ids());
        }
    }

    #[test]
    fn query_ids_are_request_ordered_and_unique_across_batches() {
        let engine = grid_engine(3, CacheConfig::default());
        let reqs: Vec<QueryReq> = (0..25)
            .map(|i| {
                QueryReq::knn(
                    Point::new((i % 5) as f64 * 1.9 + 0.4, (i / 5) as f64 * 1.7),
                    2,
                )
            })
            .collect();
        let first = engine.submit(reqs.clone());
        // Ids follow request order regardless of the Hilbert permutation.
        let ids: Vec<u64> = first.iter().map(|r| r.query_id).collect();
        assert_eq!(ids, (0..25).collect::<Vec<u64>>());
        // The next batch continues where the first left off.
        let second = engine.submit(reqs);
        let ids: Vec<u64> = second.iter().map(|r| r.query_id).collect();
        assert_eq!(ids, (25..50).collect::<Vec<u64>>());
    }

    #[test]
    fn stages_are_zero_when_recording_is_off() {
        // Engine unit tests share the process with other lbq-serve unit
        // tests, none of which arm recording — so stages must be zeros.
        // (The recording-on path is exercised by the serve integration
        // tests, which run in their own process.)
        let engine = grid_engine(2, CacheConfig::default());
        let resps = engine.submit(vec![
            QueryReq::knn(Point::new(4.2, 5.1), 3),
            QueryReq::window(Point::new(5.0, 5.0), 1.5, 1.5),
        ]);
        assert!(resps.iter().all(|r| r.stages.is_zero()));
    }

    #[test]
    #[should_panic(expected = "window extents must be positive")]
    fn rejects_degenerate_window_before_enqueue() {
        let engine = grid_engine(1, CacheConfig::default());
        let _ = engine.submit(vec![QueryReq::window(Point::new(5.0, 5.0), 0.0, 1.0)]);
    }

    #[test]
    fn worker_accounting_adds_up() {
        let engine = grid_engine(2, CacheConfig::default());
        let reqs: Vec<QueryReq> = (0..30)
            .map(|i| QueryReq::window(Point::new((i % 6) as f64 + 2.0, 5.0), 1.2, 1.2))
            .collect();
        let resps = engine.submit(reqs);
        let summaries = engine.worker_summaries();
        let total: u64 = summaries.iter().map(|s| s.jobs).sum();
        assert_eq!(total, 30);
        let hits: u64 = summaries.iter().map(|s| s.cache_hits).sum();
        assert_eq!(hits, resps.iter().filter(|r| r.from_cache).count() as u64);
        let table = engine.profile_table().render();
        assert!(table.contains("lbq-serve-0"));
        // 30 requests at tile size 32: one tile, served inline.
        assert!(table.contains("lbq-serve-inline"));
        assert_eq!(summaries[engine.workers()].jobs, 30);
    }

    /// What one submitter saw of one response: result ids, tier, and
    /// the query id's offset inside its batch.
    type Seen = (Vec<u64>, CacheTier, u64);

    /// Centre of submitter `t`'s quadrant of a 40 × 40 universe — the
    /// middle of a hot tile (the hot grid is 64 × 64, 0.625 a side).
    fn quadrant_centre(t: u64) -> (f64, f64) {
        (
            10.3125 + 20.0 * (t % 2) as f64,
            10.3125 + 20.0 * (t / 2) as f64,
        )
    }

    /// Four concurrent submitters, each confined to its own quadrant
    /// (so cache and hot-tier state — hence tiers — do not depend on
    /// how the threads interleave), each sending batches of every size
    /// `1..=tile_size`. Returns what each thread saw, the `worker`
    /// stamps, and every query id handed out.
    fn quadrant_storm(
        engine: &Engine,
        submit: impl Fn(&Engine, Vec<QueryReq>) -> Vec<QueryResp> + Sync,
    ) -> (Vec<Vec<Seen>>, Vec<usize>, Vec<u64>) {
        let start = std::sync::Barrier::new(4);
        let per_thread: Vec<(Vec<Seen>, Vec<usize>, Vec<u64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let (start, submit) = (&start, &submit);
                    scope.spawn(move || {
                        let mut rng = lbq_rng::Xoshiro256ss::seed_from_u64(900 + t);
                        let (cx, cy) = quadrant_centre(t);
                        let (mut seen, mut workers, mut ids) = (Vec::new(), Vec::new(), Vec::new());
                        start.wait();
                        for _round in 0..3 {
                            for n in 1..=engine.tile_size() {
                                let reqs: Vec<QueryReq> = (0..n)
                                    .map(|i| {
                                        let p = Point::new(
                                            cx + rng.gen_range(-0.1..0.1),
                                            cy + rng.gen_range(-0.1..0.1),
                                        );
                                        if i % 3 == 2 {
                                            QueryReq::window(p, 0.05, 0.03)
                                        } else {
                                            QueryReq::knn(p, 1 + 2 * (i % 2))
                                        }
                                    })
                                    .collect();
                                let resps = submit(engine, reqs);
                                assert_eq!(resps.len(), n);
                                for r in &resps {
                                    let offset = r.query_id - resps[0].query_id;
                                    seen.push((r.answer.result_ids(), r.tier, offset));
                                    workers.push(r.worker);
                                    ids.push(r.query_id);
                                }
                            }
                        }
                        (seen, workers, ids)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("submitter"))
                .collect()
        });
        let mut out = (Vec::new(), Vec::new(), Vec::new());
        for (seen, workers, ids) in per_thread {
            out.0.push(seen);
            out.1.extend(workers);
            out.2.extend(ids);
        }
        out
    }

    #[test]
    fn inline_tiles_match_the_pooled_path_under_concurrent_submitters() {
        let make = || {
            let universe = Rect::new(0.0, 0.0, 40.0, 40.0);
            // A dense 20 × 20 patch of sites around each quadrant centre
            // (a promoted tile needs enough local sites to be sound),
            // skewed off the lattice so k-th-rank distance ties are rare.
            let items: Vec<Item> = (0..1600u64)
                .map(|i| {
                    let (cx, cy) = quadrant_centre(i / 400);
                    let (col, row) = ((i % 400) % 20, (i % 400) / 20);
                    let skew = 0.001 * ((i * 7) % 5) as f64;
                    Item::new(
                        Point::new(
                            cx - 0.19 + 0.02 * col as f64 + skew,
                            cy - 0.19 + 0.02 * row as f64 - skew,
                        ),
                        i,
                    )
                })
                .collect();
            let server = Arc::new(LbqServer::new(
                RTree::bulk_load(items, RTreeConfig::tiny()),
                universe,
            ));
            Engine::new(
                server,
                EngineConfig {
                    workers: 2,
                    tile_size: 8,
                    // No evictions, early promotion: every tier shows up
                    // and none depends on a neighbour quadrant.
                    cache: CacheConfig {
                        per_shard: 4096,
                        ..CacheConfig::default()
                    },
                    hot: HotConfig {
                        promote_after: 8,
                        ..HotConfig::default()
                    },
                },
            )
        };
        let (inline, pooled) = (make(), make());
        let (seen_inline, workers_inline, mut ids) =
            quadrant_storm(&inline, |e, reqs| e.submit(reqs));
        let (seen_pooled, workers_pooled, _) = quadrant_storm(&pooled, |e, reqs| {
            let first_id = e
                .next_query_id
                .fetch_add(reqs.len() as u64, Ordering::Relaxed);
            e.serve_pooled(&reqs, first_id)
        });
        // Same result ids, same tiers, query ids in request order.
        assert_eq!(seen_inline, seen_pooled);
        let total = ids.len() as u64;
        assert_eq!(total, 4 * 3 * 36);
        for thread in &seen_inline {
            for tier in [CacheTier::Tree, CacheTier::Cache, CacheTier::HotVoronoi] {
                assert!(thread.iter().any(|s| s.1 == tier), "no {tier:?} response");
            }
            // Every miss takes the per-query path, inline or pooled.
            assert!(thread.iter().all(|s| s.1 != CacheTier::TreeGroup));
        }
        // Ids are unique across the concurrent submitters.
        ids.sort_unstable();
        assert_eq!(ids, (0..total).collect::<Vec<u64>>());
        // Every inline response is stamped with the inline slot, and
        // that slot alone did the work; the pooled twin never used it.
        assert!(workers_inline.iter().all(|&w| w == inline.workers()));
        assert!(workers_pooled.iter().all(|&w| w < pooled.workers()));
        for (engine, inline_jobs) in [(&inline, total), (&pooled, 0)] {
            let summaries = engine.worker_summaries();
            assert_eq!(summaries.len(), engine.workers() + 1);
            assert_eq!(summaries.iter().map(|s| s.jobs).sum::<u64>(), total);
            assert_eq!(summaries[engine.workers()].jobs, inline_jobs);
        }
    }
}
