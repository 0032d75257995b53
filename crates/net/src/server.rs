//! The TCP server: accept loop, per-connection reader/writer split,
//! and teardown/shutdown choreography.
//!
//! Every connection owns exactly two threads:
//!
//! * the **reader** decodes length-prefixed frames from the socket,
//!   validates them, and injects the requests of one socket read into
//!   the session layer ([`crate::session`]) as one burst; protocol
//!   errors are answered with an error frame and — when fatal
//!   ([`lbq_proto::ErrorCode::is_fatal`]) — tear the connection down;
//! * the **writer** owns the socket's write half and drains the
//!   connection's whole outbound queue into one `write_all` per
//!   wake-up; marking the connection *closing* makes the writer flush
//!   what is queued and then shut the socket down, so an error frame
//!   always reaches the peer before the FIN.
//!
//! A clean client EOF (peer finished sending) does **not** drop
//! in-flight requests: the connection lingers until its last response
//! is queued, then closes — the natural client pattern "pipeline
//! everything, `shutdown(Write)`, read all responses" works.

use crate::session::{dispatch_loop, Injector, Pending};
use crate::NetConfig;
use lbq_proto::{
    decode_frame, encode_error, request_query, validate_request, Decoded, ErrorCode, Frame,
};
use lbq_serve::Engine;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Read-buffer chunk size of a connection reader.
const READ_CHUNK: usize = 16 * 1024;

/// Cap on the buffer a writer merges queued frames into before each
/// `write_all` (bounds per-connection memory under a response backlog).
const WRITE_MERGE_CAP: usize = 256 * 1024;

/// One accepted connection: the socket plus the outbound queue shared
/// between its reader, its writer, and the dispatcher.
pub(crate) struct Conn {
    stream: TcpStream,
    out: Mutex<OutQueue>,
    cvar: Condvar,
    /// Requests decoded but not yet answered (budget:
    /// [`NetConfig::max_inflight`]).
    inflight: AtomicUsize,
    /// The peer sent a clean EOF: close once `inflight` drains to 0.
    eof: AtomicBool,
}

struct OutQueue {
    queue: VecDeque<Vec<u8>>,
    closing: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            out: Mutex::new(OutQueue {
                queue: VecDeque::new(),
                closing: false,
            }),
            cvar: Condvar::new(),
            inflight: AtomicUsize::new(0),
            eof: AtomicBool::new(false),
        }
    }

    /// Queues `bytes` for the writer. Returns `false` (dropping the
    /// frame) when the connection is already closing.
    pub(crate) fn send_bytes(&self, bytes: Vec<u8>) -> bool {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        if out.closing {
            return false;
        }
        out.queue.push_back(bytes);
        drop(out);
        self.cvar.notify_one();
        true
    }

    /// Marks the connection closing: the writer flushes the queue and
    /// shuts the socket down. Idempotent.
    pub(crate) fn close(&self) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        out.closing = true;
        drop(out);
        self.cvar.notify_all();
    }

    /// Called by the dispatcher once the responses of `n` requests are
    /// queued (or dropped): returns their in-flight budget slots, and
    /// completes a lingering clean-EOF close when they were the last
    /// outstanding requests.
    pub(crate) fn finish_requests(&self, n: usize) {
        let left = self.inflight.fetch_sub(n, Ordering::AcqRel) - n;
        if left == 0 && self.eof.load(Ordering::Acquire) {
            self.close();
        }
    }
}

/// Everything the accept, reader, writer and dispatcher threads share.
struct Shared {
    cfg: NetConfig,
    stop: AtomicBool,
    injector: Arc<Injector>,
    /// Live and finished connections; joined at shutdown. Bounded by
    /// the process's connection count (entries are not reaped early —
    /// the fleet scale here is tens of connections, not thousands of
    /// churned ones).
    registry: Mutex<Vec<ConnEntry>>,
}

struct ConnEntry {
    conn: Arc<Conn>,
    reader: Option<std::thread::JoinHandle<()>>,
    writer: Option<std::thread::JoinHandle<()>>,
}

/// A running TCP front-end over an [`Engine`]. Binding spawns the
/// accept loop and the session dispatcher; [`NetServer::shutdown`]
/// (also run on drop) stops accepting, drains every in-flight request,
/// flushes every connection, and joins all threads.
///
/// See the crate docs for a usage example.
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port) and starts serving `engine` with `cfg`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<Engine>,
        cfg: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        lbq_obs::snapshot_field(
            "net-config-coalesce-us",
            u64::try_from(cfg.coalesce_window.as_micros()).unwrap_or(u64::MAX),
        );
        lbq_obs::snapshot_field("net-config-max-batch", cfg.max_batch as u64);
        let shared = Arc::new(Shared {
            cfg,
            stop: AtomicBool::new(false),
            injector: Arc::new(Injector::new()),
            registry: Mutex::new(Vec::new()),
        });
        let dispatcher = {
            let engine = Arc::clone(&engine);
            let injector = Arc::clone(&shared.injector);
            std::thread::Builder::new()
                .name("lbq-net-session".into())
                .spawn(move || dispatch_loop(engine, injector, cfg))?
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lbq-net-accept".into())
                .spawn(move || accept_loop(listener, shared))?
        };
        Ok(NetServer {
            addr,
            shared,
            accept: Some(accept),
            dispatcher: Some(dispatcher),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, stop the readers, drain every
    /// injected request through the engine, flush every connection's
    /// outbound queue, join every thread. Idempotent; also run on drop.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Stop the readers: a socket read-shutdown makes their blocking
        // read return 0. Responses already in flight are unaffected.
        let mut registry = {
            let mut g = self
                .shared
                .registry
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *g)
        };
        for entry in &registry {
            let _ = entry.conn.stream.shutdown(Shutdown::Read);
        }
        for entry in &mut registry {
            if let Some(h) = entry.reader.take() {
                let _ = h.join();
            }
        }
        // Drain the session layer: the dispatcher answers everything
        // still queued, then exits.
        self.shared.injector.stop();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        // Flush and close every connection.
        for entry in &mut registry {
            entry.conn.close();
            if let Some(h) = entry.writer.take() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let accepts = lbq_obs::counter("net-accepts");
    let active = lbq_obs::gauge("net-active-conns");
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else {
            continue; // transient accept error
        };
        // Frames are small and latency-sensitive; never Nagle them.
        let _ = stream.set_nodelay(true);
        let Ok(wstream) = stream.try_clone() else {
            continue;
        };
        accepts.add(1);
        active.add(1);
        let conn = Arc::new(Conn::new(stream));
        let reader = {
            let conn = Arc::clone(&conn);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lbq-net-reader".into())
                .spawn(move || reader_loop(conn, shared))
        };
        let writer = {
            let conn = Arc::clone(&conn);
            let active = active.clone();
            std::thread::Builder::new()
                .name("lbq-net-writer".into())
                .spawn(move || writer_loop(conn, wstream, active))
        };
        match (reader, writer) {
            (Ok(r), Ok(w)) => {
                let mut g = shared.registry.lock().unwrap_or_else(|e| e.into_inner());
                g.push(ConnEntry {
                    conn,
                    reader: Some(r),
                    writer: Some(w),
                });
            }
            (r, w) => {
                // Could not staff the connection: close it and reap
                // whichever thread did start.
                conn.close();
                let _ = conn.stream.shutdown(Shutdown::Both);
                if let Ok(h) = r {
                    let _ = h.join();
                }
                if let Ok(h) = w {
                    let _ = h.join();
                }
                active.add(-1);
            }
        }
    }
}

/// The writer half: takes the whole outbound queue per wake-up and
/// writes it merged; once the connection is closing and the queue is
/// empty, shuts the socket down. Owns the active-connection gauge
/// decrement (runs exactly once per connection).
fn writer_loop(conn: Arc<Conn>, mut stream: TcpStream, active: lbq_obs::Gauge) {
    loop {
        let taken = {
            let mut out = conn.out.lock().unwrap_or_else(|e| e.into_inner());
            while out.queue.is_empty() && !out.closing {
                out = conn.cvar.wait(out).unwrap_or_else(|e| e.into_inner());
            }
            std::mem::take(&mut out.queue)
        };
        if taken.is_empty() {
            break; // closing and flushed
        }
        if write_merged(&mut stream, taken).is_err() {
            conn.close();
            break;
        }
    }
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
    active.add(-1);
}

/// Writes `queue` in order, neighbours merged into as few `write_all`
/// calls as [`WRITE_MERGE_CAP`] allows (a lone buffer is not copied).
fn write_merged(stream: &mut TcpStream, mut queue: VecDeque<Vec<u8>>) -> std::io::Result<()> {
    let Some(mut merged) = queue.pop_front() else {
        return Ok(());
    };
    for next in queue {
        if merged.len() + next.len() > WRITE_MERGE_CAP {
            stream.write_all(&merged)?;
            merged.clear();
        }
        merged.extend_from_slice(&next);
    }
    stream.write_all(&merged)
}

/// The reader half: buffered frame decoding, validation, and injection.
fn reader_loop(conn: Arc<Conn>, shared: Arc<Shared>) {
    let frames_in = lbq_obs::counter("net-frames-in");
    let proto_errors = lbq_obs::counter("net-protocol-errors");
    let mut stream = match conn.stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            conn.close();
            return;
        }
    };
    let mut buf: Vec<u8> = Vec::with_capacity(READ_CHUNK);
    let mut chunk = [0u8; READ_CHUNK];
    // The requests of one socket read, injected as one burst.
    let mut burst: Vec<Pending> = Vec::new();
    loop {
        // Decode every complete frame currently buffered.
        let mut consumed = 0;
        let mut fatal = false;
        while !fatal {
            match decode_frame(&buf[consumed..], shared.cfg.max_request_payload) {
                Ok(Decoded::Frame { frame, consumed: n }) => {
                    consumed += n;
                    frames_in.add(1);
                    // On a fatal frame the error frame is already queued.
                    fatal = !handle_frame(&conn, &shared, frame, &proto_errors, &mut burst);
                }
                Ok(Decoded::Unknown {
                    frame_type,
                    request_id,
                    consumed: n,
                }) => {
                    // Forward compatibility: skip the frame, tell the
                    // peer, keep the connection.
                    consumed += n;
                    frames_in.add(1);
                    proto_errors.add(1);
                    conn.send_bytes(encode_error(
                        request_id,
                        ErrorCode::UnknownFrameType,
                        format!("frame type 0x{frame_type:02x} unknown to this v1 server"),
                    ));
                }
                Ok(Decoded::Incomplete { .. }) => break,
                Err(e) => {
                    // Framing is broken: report and tear down.
                    proto_errors.add(1);
                    conn.send_bytes(encode_error(0, e.code, e.detail));
                    fatal = true;
                }
            }
        }
        shared.injector.push_all(&mut burst);
        if fatal {
            break;
        }
        buf.drain(..consumed);
        match stream.read(&mut chunk) {
            Ok(0) => {
                // Clean EOF: answer what is in flight, then close.
                conn.eof.store(true, Ordering::Release);
                if conn.inflight.load(Ordering::Acquire) == 0 {
                    conn.close();
                }
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    conn.close();
}

/// Handles one decoded frame on the server side: a valid request joins
/// `burst`. Returns `false` when the connection must be torn down.
fn handle_frame(
    conn: &Arc<Conn>,
    shared: &Arc<Shared>,
    frame: Frame,
    proto_errors: &lbq_obs::Counter,
    burst: &mut Vec<Pending>,
) -> bool {
    if let Err(e) = validate_request(&frame) {
        proto_errors.add(1);
        conn.send_bytes(encode_error(frame.request_id(), e.code, e.detail.clone()));
        return !e.code.is_fatal();
    }
    let Some((request_id, req)) = request_query(&frame) else {
        // Unreachable: validate_request only accepts request frames.
        return true;
    };
    let inflight = conn.inflight.fetch_add(1, Ordering::AcqRel) + 1;
    if inflight > shared.cfg.max_inflight {
        conn.inflight.fetch_sub(1, Ordering::AcqRel);
        proto_errors.add(1);
        conn.send_bytes(encode_error(
            request_id,
            ErrorCode::TooManyInFlight,
            format!(
                "connection exceeded its in-flight budget of {}",
                shared.cfg.max_inflight
            ),
        ));
        return false;
    }
    burst.push(Pending {
        conn: Arc::clone(conn),
        request_id,
        req,
        recv_at: Instant::now(),
    });
    true
}
