//! The session layer: a timer-free cross-connection request batcher.
//!
//! Readers of *all* connections inject decoded requests into one
//! [`Injector`] — one lock and one wake-up per socket read; a single
//! dispatcher thread takes **whatever is queued the moment it is
//! free** and submits it as one [`lbq_serve::Engine::submit`] call. A
//! batch is more than one request only because the previous submit was
//! still running while they arrived: an idle server answers a lone
//! request at once (the engine serves a single tile inline, on the
//! dispatcher thread) and a loaded one still gets the Hilbert tiling
//! across sockets. No request
//! waits on a clock: [`crate::NetConfig::coalesce_window`] defaults to
//! zero and survives as a test instrument.
//!
//! Backpressure: the injector is unbounded, but every entry is covered
//! by its connection's in-flight budget
//! ([`crate::NetConfig::max_inflight`], enforced by the reader), so the
//! queue can never hold more than `connections × max_inflight`
//! requests. Overflowing a budget is a protocol error that tears the
//! offending connection down — a slow *reader of responses* throttles
//! itself, never its neighbors.

use crate::server::Conn;
use lbq_serve::{Engine, QueryReq};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One decoded, validated request waiting for dispatch.
pub(crate) struct Pending {
    /// The connection to route the response back to.
    pub(crate) conn: Arc<Conn>,
    /// Client-chosen correlation id, echoed in the response frame.
    pub(crate) request_id: u64,
    /// The engine request.
    pub(crate) req: QueryReq,
    /// When the reader finished decoding the frame — the start of the
    /// `net-queue-wait` and `net-socket-latency` windows.
    pub(crate) recv_at: Instant,
}

/// The shared request queue between connection readers and the
/// dispatcher.
pub(crate) struct Injector {
    q: Mutex<VecDeque<Pending>>,
    cvar: Condvar,
    stop: AtomicBool,
}

impl Injector {
    pub(crate) fn new() -> Injector {
        Injector {
            q: Mutex::new(VecDeque::new()),
            cvar: Condvar::new(),
            stop: AtomicBool::new(false),
        }
    }

    /// Enqueues a burst (everything one socket read decoded) under one
    /// lock and wakes the dispatcher once; `burst` is left empty.
    pub(crate) fn push_all(&self, burst: &mut Vec<Pending>) {
        if burst.is_empty() {
            return;
        }
        let mut q = self.q.lock().unwrap_or_else(|e| e.into_inner());
        q.extend(burst.drain(..));
        drop(q);
        self.cvar.notify_one();
    }

    /// Begins shutdown: the dispatcher drains whatever is queued, then
    /// [`Injector::next_batch`] starts returning `None`.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.cvar.notify_all();
    }

    /// Blocks for the next batch: waits for a first request, holds the
    /// door open for `window` (zero by default: not at all), then takes
    /// what is queued, oldest first, up to `max_batch`. Returns `None`
    /// only once stopped *and* drained, so every accepted request is
    /// answered even across a shutdown.
    pub(crate) fn next_batch(&self, window: Duration, max_batch: usize) -> Option<Vec<Pending>> {
        let mut q = self.q.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !q.is_empty() {
                break;
            }
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            q = self.cvar.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        // Hold the door open for `window` — a no-op at zero, and cut
        // short once stopping, to drain as fast as possible.
        let deadline = Instant::now() + window;
        while q.len() < max_batch && !self.stop.load(Ordering::Acquire) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, timeout) = self
                .cvar
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            q = guard;
            if timeout.timed_out() {
                break;
            }
        }
        let take = q.len().min(max_batch);
        Some(q.drain(..take).collect())
    }
}

/// The dispatcher loop: take what is queued, submit it as one engine
/// batch, encode the responses — batch-adjacent responses of one
/// connection into one outbound buffer, one hand-off to its writer —
/// and route them. Runs on the server's dedicated session thread until
/// the injector is stopped and drained.
pub(crate) fn dispatch_loop(engine: Arc<Engine>, injector: Arc<Injector>, cfg: crate::NetConfig) {
    let batch_hist = lbq_obs::histogram("net-coalesce-batch");
    let queue_wait = lbq_obs::histogram("net-queue-wait");
    let latency = lbq_obs::histogram("net-socket-latency");
    let frames_out = lbq_obs::counter("net-frames-out");
    while let Some(batch) = injector.next_batch(cfg.coalesce_window, cfg.max_batch) {
        let dequeued = Instant::now();
        batch_hist.record_value(batch.len() as u64);
        for p in &batch {
            queue_wait.record(dequeued.saturating_duration_since(p.recv_at));
        }
        let resps = engine.submit(batch.iter().map(|p| p.req).collect());
        let mut at = 0;
        for run in batch.chunk_by(|a, b| Arc::ptr_eq(&a.conn, &b.conn)) {
            let mut bytes = Vec::with_capacity(run.len() * crate::RESPONSE_CAPACITY_HINT);
            for (p, resp) in run.iter().zip(&resps[at..]) {
                if let Err(e) = lbq_proto::encode_query_response(p.request_id, resp, &mut bytes) {
                    // Out-of-contract giant response: answer with the error
                    // instead of silently dropping the request.
                    bytes.extend(lbq_proto::encode_error(p.request_id, e.code, e.detail));
                }
            }
            at += run.len();
            let conn = &run[0].conn;
            if conn.send_bytes(bytes) {
                frames_out.add(run.len() as u64);
            }
            let queued = Instant::now();
            for p in run {
                latency.record(queued.saturating_duration_since(p.recv_at));
            }
            conn.finish_requests(run.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbq_geom::Point;
    use std::net::{TcpListener, TcpStream};

    /// `n` pendings with request ids `from..from + n` on a throwaway
    /// loopback connection (a `Pending` needs a `Conn` to route to).
    fn pendings(from: u64, n: u64) -> Vec<Pending> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let conn = Arc::new(Conn::new(stream));
        (from..from + n)
            .map(|request_id| Pending {
                conn: Arc::clone(&conn),
                request_id,
                req: QueryReq::knn(Point::new(0.0, 0.0), 1),
                recv_at: Instant::now(),
            })
            .collect()
    }

    fn ids(batch: &[Pending]) -> Vec<u64> {
        batch.iter().map(|p| p.request_id).collect()
    }

    #[test]
    fn zero_window_takes_exactly_what_is_queued_in_order() {
        let inj = Injector::new();
        inj.push_all(&mut pendings(0, 3));
        inj.push_all(&mut pendings(3, 2));
        // Fewer than `max_batch` are queued and nobody will push more:
        // only a zero window lets this return.
        let batch = inj.next_batch(Duration::ZERO, 512).expect("batch");
        assert_eq!(ids(&batch), [0, 1, 2, 3, 4]);
        // Nothing is left behind, and a stopped, drained injector ends.
        inj.stop();
        assert!(inj.next_batch(Duration::ZERO, 512).is_none());
    }

    #[test]
    fn max_batch_still_caps_and_keeps_the_rest_queued() {
        let inj = Injector::new();
        inj.push_all(&mut pendings(0, 5));
        let first = inj.next_batch(Duration::ZERO, 2).expect("batch");
        assert_eq!(ids(&first), [0, 1]);
        // A long window closes early at the cap, too.
        let second = inj.next_batch(Duration::from_secs(60), 2).expect("batch");
        assert_eq!(ids(&second), [2, 3]);
        let third = inj.next_batch(Duration::ZERO, 2).expect("batch");
        assert_eq!(ids(&third), [4]);
    }

    #[test]
    fn push_all_wakes_a_parked_dispatcher_once_with_the_whole_burst() {
        let inj = Arc::new(Injector::new());
        let (tx, rx) = std::sync::mpsc::channel();
        let dispatcher = {
            let inj = Arc::clone(&inj);
            std::thread::spawn(move || {
                while let Some(batch) = inj.next_batch(Duration::ZERO, 512) {
                    tx.send(ids(&batch)).expect("send");
                }
            })
        };
        // Whether or not the dispatcher has parked yet, one burst is
        // one batch: it is enqueued under one lock.
        let mut burst = pendings(10, 4);
        inj.push_all(&mut burst);
        assert!(burst.is_empty());
        assert_eq!(rx.recv().expect("one batch"), [10, 11, 12, 13]);
        inj.push_all(&mut burst); // empty burst: no wake-up, no batch
        inj.stop();
        dispatcher.join().expect("dispatcher");
        assert!(rx.try_recv().is_err(), "the burst arrived as one batch");
    }
}
