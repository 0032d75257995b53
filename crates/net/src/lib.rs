//! # lbq-net — the TCP front-end
//!
//! Turns the in-process [`lbq_serve::Engine`] into a network service
//! speaking the `lbq-proto` wire format (normative spec:
//! `docs/PROTOCOL.md`). std-only, zero dependencies, threads all the
//! way down:
//!
//! * an **accept loop** hands each connection a dedicated
//!   reader/writer thread pair (`server` module);
//! * the **session layer** is timer-free: one dispatcher submits
//!   whatever all connections have queued the moment it is free, so a
//!   lone request is answered at once and a batch forms — *across
//!   connections*, feeding the engine's Hilbert tiling — only while
//!   the previous [`lbq_serve::Engine::submit`] runs (`session`
//!   module);
//! * hand-offs are **burst-sized**: one injection per socket read, one
//!   outbound buffer per connection per batch, one `write_all` per
//!   writer wake-up;
//! * **graceful shutdown** drains every accepted request and flushes
//!   every connection before a single thread is abandoned;
//! * per-connection **limits** (in-flight budget, request payload cap)
//!   turn resource abuse into protocol-error teardown.
//!
//! ## Observability
//!
//! `net-accepts` / `net-frames-in` / `net-frames-out` (frames, not
//! socket writes) / `net-protocol-errors` counters, a
//! `net-active-conns` gauge, a `net-coalesce-batch` histogram (requests
//! per `Engine::submit`: how much batching actually happens), a
//! `net-queue-wait` histogram (frame-decoded → dequeued by the
//! dispatcher) and a `net-socket-latency` histogram (frame-decoded →
//! response-queued, the server-side slice of a client's round trip;
//! minus the queue wait it is engine + encode time) — all in the
//! global [`lbq_obs`] registry, and in every exporter snapshot.
//!
//! # Example
//!
//! ```
//! use lbq_core::LbqServer;
//! use lbq_geom::{Point, Rect};
//! use lbq_net::{NetClient, NetConfig, NetServer};
//! use lbq_rtree::{Item, RTree, RTreeConfig};
//! use lbq_serve::{Engine, EngineConfig, QueryReq};
//! use lbq_proto::Frame;
//! use std::sync::Arc;
//!
//! let universe = Rect::new(0.0, 0.0, 10.0, 10.0);
//! let items: Vec<Item> = (0..100)
//!     .map(|i| Item::new(Point::new((i % 10) as f64, (i / 10) as f64), i))
//!     .collect();
//! let engine = Arc::new(Engine::new(
//!     Arc::new(LbqServer::new(RTree::bulk_load(items, RTreeConfig::tiny()), universe)),
//!     EngineConfig::default(),
//! ));
//! let mut server = NetServer::bind("127.0.0.1:0", engine, NetConfig::default()).unwrap();
//!
//! let mut client = NetClient::connect(server.local_addr()).unwrap();
//! client.send_query(7, &QueryReq::knn(Point::new(4.2, 5.1), 3)).unwrap();
//! match client.recv().unwrap() {
//!     Frame::KnnResponse(resp) => {
//!         assert_eq!(resp.request_id, 7);
//!         assert_eq!(resp.body.result.len(), 3);
//!         assert!(resp.body.validity.contains(Point::new(4.2, 5.1)));
//!     }
//!     other => panic!("unexpected frame {other:?}"),
//! }
//! server.shutdown();
//! ```

mod client;
mod server;
mod session;

pub use client::NetClient;
pub use server::NetServer;

use std::time::Duration;

/// Capacity hint for freshly-encoded response frames (a typical kNN
/// response with a handful of influence pairs).
pub(crate) const RESPONSE_CAPACITY_HINT: usize = 512;

/// Tuning knobs of a [`NetServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// How long the session layer holds a batch open after its first
    /// request. Zero by default — the dispatcher never waits on a clock
    /// and batches are whatever queued up behind the previous submit.
    /// Test instrument only (the loopback tests hold requests in flight
    /// with it), hidden so no new caller sets it: the field and its wait
    /// loop go once `benchmark/` stops printing it (ROADMAP item 3).
    #[doc(hidden)]
    pub coalesce_window: Duration,
    /// Hard cap on a batch (a non-zero window closes early when
    /// reached; the rest stays queued for the next batch).
    pub max_batch: usize,
    /// Per-connection in-flight request budget; exceeding it is a
    /// protocol error that tears the connection down
    /// ([`lbq_proto::ErrorCode::TooManyInFlight`]).
    pub max_inflight: usize,
    /// Payload cap applied to incoming frames
    /// ([`lbq_proto::DEFAULT_SERVER_MAX_PAYLOAD`] by default; request
    /// frames are ≤ 40 bytes, the headroom is for skippable future
    /// frame types).
    pub max_request_payload: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            coalesce_window: Duration::ZERO,
            max_batch: 512,
            max_inflight: 1024,
            max_request_payload: lbq_proto::DEFAULT_SERVER_MAX_PAYLOAD,
        }
    }
}
