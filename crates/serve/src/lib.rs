//! # lbq-serve — the concurrent batched query engine
//!
//! The paper's motivation (its Section 1) is *server load*: millions of
//! moving clients re-issuing spatial queries saturate the server, and
//! validity regions exist to absorb those repeats on the client. This
//! crate closes the loop on the server side. It turns the
//! single-threaded [`LbqServer`] into a shared, concurrent service:
//!
//! * an immutable [`Arc<LbqServer>`] (the R\*-tree is `Sync`; all query
//!   paths take `&self`) shared across a hand-rolled, zero-dependency
//!   worker thread pool ([`EngineConfig::workers`] threads);
//! * a **batch API** — [`Engine::submit`] takes a `Vec<QueryReq>` of
//!   kNN-with-validity and window-with-validity requests and returns
//!   the matching `Vec<QueryResp>`, fanning the batch out across the
//!   workers (the batching regime argued for by the BRkNN-style batch
//!   NN processing work in PAPERS.md); `submit` orders the batch along
//!   the Hilbert curve of the query foci and dispatches **locality
//!   tiles** of [`EngineConfig::tile_size`] adjacent queries as single
//!   jobs, each query of a tile answered on its own — responses stay
//!   byte-identical to untiled dispatch, in submission order;
//! * a **sharded LRU validity-region cache** ([`RegionCache`]) in front
//!   of the tree: an incoming query whose focus falls inside a cached
//!   response's validity region (the point-in-region tests of the
//!   paper's Lemmas 3.1–3.2 for kNN, Section 4 for windows) is answered
//!   without touching the tree — the paper's client-side caching,
//!   mirrored server-side so *different* clients share regions too.
//!
//! ## Observability
//!
//! Every batch opens a `serve-batch` span; per-query spans are the
//! existing rtree/core ones. Global metrics: `serve-cache-hit` /
//! `serve-cache-miss` counters, a `serve-queue-depth` gauge, and a
//! `serve-query-latency` histogram. Per-worker latency histograms are
//! kept engine-local and rendered by [`Engine::profile_table`].
//!
//! With recording armed ([`lbq_obs::init_recorder`], or
//! `LBQ_OBS_SNAPSHOT` via [`lbq_obs::install_exporter_from_env`]), the
//! engine additionally threads a [`QueryResp::query_id`] through the
//! submit → Hilbert-tile → hot/cache → tree pipeline and
//! attributes every response's latency to pipeline stages
//! ([`QueryResp::stages`]); each answered query feeds the
//! `serve-tile-heat` hot-tile heatmap and the flight recorder
//! (slow-query capture included). Answers are bit-identical with
//! recording on or off — the instrumentation only observes.
//!
//! # Example
//!
//! ```
//! use lbq_core::LbqServer;
//! use lbq_geom::{Point, Rect};
//! use lbq_rtree::{Item, RTree, RTreeConfig};
//! use lbq_serve::{Engine, EngineConfig, QueryReq, QueryAnswer};
//! use std::sync::Arc;
//!
//! let universe = Rect::new(0.0, 0.0, 10.0, 10.0);
//! let items: Vec<Item> = (0..100)
//!     .map(|i| Item::new(Point::new((i % 10) as f64, (i / 10) as f64), i))
//!     .collect();
//! let server = Arc::new(LbqServer::new(
//!     RTree::bulk_load(items, RTreeConfig::tiny()),
//!     universe,
//! ));
//! let engine = Engine::new(server, EngineConfig::default());
//!
//! let resps = engine.submit(vec![
//!     QueryReq::knn(Point::new(4.2, 5.1), 3),
//!     QueryReq::window(Point::new(5.0, 5.0), 1.5, 1.5),
//! ]);
//! assert_eq!(resps.len(), 2);
//! match &*resps[0].answer {
//!     QueryAnswer::Knn(nn) => assert_eq!(nn.result.len(), 3),
//!     _ => unreachable!(),
//! }
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod cache;
mod engine;
mod hot;
mod pool;

pub use cache::{CacheConfig, CacheStats, RegionCache};
pub use engine::{Engine, EngineConfig, WorkerSummary};
pub use hot::{HotConfig, HotStats};
pub use lbq_obs::CacheTier;

use lbq_core::{LbqServer, NnResponse, WindowResponse};
use lbq_geom::Point;
use lbq_rtree::QueryScratch;
use std::sync::Arc;

/// One location-based query request, as shipped by a mobile client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryReq {
    /// k nearest neighbors of `q` with a validity region (paper §3).
    Knn {
        /// Query focus (the client's position).
        q: Point,
        /// Number of neighbors.
        k: usize,
    },
    /// Window of half-extents `(hx, hy)` centered on the client at `c`,
    /// with a validity region (paper §4).
    Window {
        /// Window center (the client's position).
        c: Point,
        /// Half-width (must be positive).
        hx: f64,
        /// Half-height (must be positive).
        hy: f64,
    },
}

impl QueryReq {
    /// Shorthand for a kNN request.
    pub fn knn(q: Point, k: usize) -> Self {
        QueryReq::Knn { q, k }
    }

    /// Shorthand for a window request.
    pub fn window(c: Point, hx: f64, hy: f64) -> Self {
        QueryReq::Window { c, hx, hy }
    }

    /// The query focus — the client position the request is anchored
    /// at. Used for cache sharding and validity containment.
    pub fn focus(&self) -> Point {
        match *self {
            QueryReq::Knn { q, .. } => q,
            QueryReq::Window { c, .. } => c,
        }
    }
}

/// A served answer: the full validity-region response of the matching
/// query kind.
///
/// Cache hits return the response **anchored at the original query**
/// whose region the focus fell into: the result set is provably
/// identical (that is what a validity region means), but `query` /
/// `window` fields and kNN result *ordering* reflect the anchor focus,
/// exactly as they would on a client re-using its own cached response.
#[derive(Debug, Clone)]
pub enum QueryAnswer {
    /// Answer to a [`QueryReq::Knn`].
    Knn(NnResponse),
    /// Answer to a [`QueryReq::Window`].
    Window(WindowResponse),
}

impl QueryAnswer {
    /// The ids of the result set, sorted — the kind-independent payload
    /// used by tests and cache-equivalence checks.
    pub fn result_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = match self {
            QueryAnswer::Knn(r) => r.result.iter().map(|i| i.id).collect(),
            QueryAnswer::Window(r) => r.result.iter().map(|i| i.id).collect(),
        };
        ids.sort_unstable();
        ids
    }

    /// `true` when the validity region of this answer contains `p`.
    pub fn valid_at(&self, p: Point) -> bool {
        match self {
            QueryAnswer::Knn(r) => r.validity.contains(p),
            QueryAnswer::Window(r) => r.validity.contains(p),
        }
    }

    /// A bounding rectangle of the validity region (`None` when the
    /// region polygon is empty). Conservative: containment must still
    /// be tested with [`QueryAnswer::valid_at`]; the cache uses this
    /// only to decide which shards an entry belongs to.
    pub fn region_bbox(&self) -> Option<lbq_geom::Rect> {
        match self {
            QueryAnswer::Knn(r) => {
                if r.validity.pairs.is_empty() {
                    // Empty influence set: valid across the universe.
                    Some(r.validity.universe)
                } else {
                    r.validity.polygon.bounding_rect()
                }
            }
            QueryAnswer::Window(r) => Some(r.validity.inner_rect),
        }
    }
}

/// One served response: the answer plus serving metadata.
#[derive(Debug, Clone)]
pub struct QueryResp {
    /// The answer (shared with the cache — cloning a response is an
    /// `Arc` bump, not a region copy).
    pub answer: Arc<QueryAnswer>,
    /// `true` when the answer came from the validity-region cache
    /// without touching the tree. Kept for compatibility — always
    /// equal to `tier == CacheTier::Cache`.
    pub from_cache: bool,
    /// Which tier produced the answer: full tree traversal, the
    /// validity-region cache, or the hot-tile Voronoi fast path
    /// ([`HotConfig`]). The engine never reports
    /// [`CacheTier::TreeGroup`].
    pub tier: CacheTier,
    /// Index of the worker that served the request.
    pub worker: usize,
    /// Wall-clock service time of this request, nanoseconds (cache
    /// probe included).
    pub latency_ns: u64,
    /// Engine-assigned query id: unique per [`Engine`] instance,
    /// assigned at `submit` in request order — stable across tiling,
    /// worker scheduling, and recording on/off.
    pub query_id: u64,
    /// Per-stage breakdown of where this query's time went (hot and
    /// cache lookup, tree kNN, kNN region construction, clip, window
    /// pass), timed
    /// inside the `latency_ns` window. All zeros unless recording is
    /// on ([`lbq_obs::init_recorder`]).
    pub stages: lbq_obs::StageNanos,
}

/// Evaluates `req` directly against `server`, bypassing pool and cache.
/// The sequential baseline the stress tests compare the engine against.
/// Allocates a fresh [`QueryScratch`] per call; the engine's miss path
/// uses [`answer_on_with`] with the worker's thread-owned scratch
/// instead.
pub fn answer_on(server: &LbqServer, req: &QueryReq) -> QueryAnswer {
    let mut scratch = QueryScratch::new();
    answer_on_with(server, req, &mut scratch)
}

/// [`answer_on`] against a reusable [`QueryScratch`]: the engine's miss
/// path. Every query type — the kNN plus its nearest-first region
/// pass, or both window passes — runs on the caller's buffers, so a
/// worker thread reusing one scratch serves steady-state misses without
/// allocating query state.
pub fn answer_on_with(
    server: &LbqServer,
    req: &QueryReq,
    scratch: &mut QueryScratch,
) -> QueryAnswer {
    match *req {
        QueryReq::Knn { q, k } => QueryAnswer::Knn(server.knn_with_validity_in(q, k, scratch)),
        QueryReq::Window { c, hx, hy } => {
            QueryAnswer::Window(server.window_with_validity_in(c, hx, hy, scratch))
        }
    }
}
