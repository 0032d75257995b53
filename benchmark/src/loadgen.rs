//! The load generator: one connection per phase, raw `lbq-proto`
//! frames, no `NetClient` (it cannot send and receive concurrently).
//!
//! * **Open loop** — a pacing sender thread and a blocking receiver
//!   thread share one connection (`TcpStream::try_clone`). Requests go
//!   out on a precomputed Poisson schedule whether or not earlier ones
//!   were answered; latency runs from the *intended* send time to the
//!   last byte of the response frame, so a stall is charged to every
//!   request it delays.
//! * **Closed loop** — one thread keeps a fixed number of requests in
//!   flight; the rate it sustains is the capacity.
//!
//! Neither loop may panic or hang on a misbehaving server: an `Error`
//! frame fails one request, a torn-down connection or a silent server
//! (read timeout) fails everything outstanding, then the generator
//! reconnects and carries on.

use crate::workload::{encode_requests, follow_up, RequestStream};
use lbq_obs::{CacheTier, STAGE_COUNT};
use lbq_proto::{
    decode_frame, encode_frame, query_request, Decoded, Frame, DEFAULT_CLIENT_MAX_PAYLOAD,
};
use lbq_serve::QueryReq;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long the receiver waits on a silent socket before it re-checks
/// whether the phase is over.
const POLL: Duration = Duration::from_millis(50);
/// Silence after which outstanding requests are declared lost.
const LOST_AFTER: Duration = Duration::from_secs(2);
/// The sender sleeps until this long before a request is due, then
/// spins: `thread::sleep` overshoots by ~60 µs, a spin does not.
const SPIN: Duration = Duration::from_micros(80);
const READ_CHUNK: usize = 64 * 1024;
/// Receive-time marker of a request that was answered wrongly.
const WRONG: u64 = u64::MAX;

/// What the generator learned about the responses of one phase, kept as
/// running sums so the timed path stores nothing per request but its
/// latency.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed: `Error` frame, lost with the connection,
    /// timed out, wrong frame kind or result count.
    pub failed: u64,
    /// Frames nobody asked for: duplicate or unknown `request_id`.
    pub strays: u64,
    /// Times the connection had to be re-established.
    pub reconnects: u64,
    /// Well-formed responses.
    pub responses: u64,
    /// Wire bytes of those responses.
    pub bytes: u64,
    /// Responses by serving tier: tree, region cache, hot Voronoi.
    pub tiers: [u64; 3],
    /// Per-stage nanoseconds, summed over all responses (zero unless
    /// the server records).
    pub stages: [u64; STAGE_COUNT],
    /// TPNN probes of the tree-tier kNN responses and their TPNN-chain
    /// stage nanoseconds (for the per-probe cost).
    pub tree_tpnn_probes: u64,
    /// See [`Tally::tree_tpnn_probes`].
    pub tree_tpnn_ns: u64,
    /// Responses probed with the client's follow-up step
    /// ([`PhaseCtx::probe`]), and those whose region still held there.
    pub probed: u64,
    /// See [`Tally::probed`].
    pub stayed: u64,
    /// Human-readable notes on the first few failures.
    pub notes: Vec<String>,
}

impl Tally {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.strays += other.strays;
        self.reconnects += other.reconnects;
        self.responses += other.responses;
        self.bytes += other.bytes;
        for (a, b) in self.tiers.iter_mut().zip(other.tiers) {
            *a += b;
        }
        for (a, b) in self.stages.iter_mut().zip(other.stages) {
            *a += b;
        }
        self.tree_tpnn_probes += other.tree_tpnn_probes;
        self.tree_tpnn_ns += other.tree_tpnn_ns;
        self.probed += other.probed;
        self.stayed += other.stayed;
        for n in &other.notes {
            self.note(n.clone());
        }
    }

    /// Everything that counts against `fail_share`.
    pub fn failures(&self) -> u64 {
        self.failed + self.strays
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.note(msg);
    }

    /// Books one response frame against the request it answers. Returns
    /// `false` when the frame does not answer `req` correctly.
    fn book(&mut self, req: &QueryReq, frame: &Frame, wire_len: usize, ctx: &PhaseCtx) -> bool {
        let next = ctx
            .probe
            .map(|p| follow_up(req.focus(), p.step, &p.universe, p.salt));
        let (tier, stages, tpnn, stays) = match (req, frame) {
            (QueryReq::Knn { k, .. }, Frame::KnnResponse(f)) => {
                let points = ctx.points;
                let want = (*k).min(points);
                if f.body.result.len() != want {
                    self.fail(format!(
                        "request {}: {} results for k={k} over {points} points",
                        f.request_id,
                        f.body.result.len()
                    ));
                    return false;
                }
                let stays = next.map(|p| f.body.validity.contains(p));
                (f.tier, f.stages, Some(f.body.tpnn_queries), stays)
            }
            (QueryReq::Window { .. }, Frame::WindowResponse(f)) => {
                let stays = next.map(|p| f.body.validity.contains(p));
                (f.tier, f.stages, None, stays)
            }
            (_, Frame::Error(e)) => {
                self.fail(format!(
                    "request {}: error frame code {} ({})",
                    e.request_id, e.code, e.detail
                ));
                return false;
            }
            (_, other) => {
                self.fail(format!(
                    "request {}: answered with a {:?} frame",
                    other.request_id(),
                    other.frame_type()
                ));
                return false;
            }
        };
        self.responses += 1;
        self.bytes += wire_len as u64;
        if let Some(stays) = stays {
            self.probed += 1;
            self.stayed += u64::from(stays);
        }
        self.tiers[tier_slot(tier)] += 1;
        for (a, b) in self.stages.iter_mut().zip(stages.0) {
            *a += b;
        }
        if let (Some(tpnn), CacheTier::Tree | CacheTier::TreeGroup) = (tpnn, tier) {
            self.tree_tpnn_probes += tpnn as u64;
            self.tree_tpnn_ns += stages.get(lbq_obs::Stage::TpnnChain);
        }
        true
    }
}

/// Slot of a serving tier in [`Tally::tiers`].
pub fn tier_slot(tier: CacheTier) -> usize {
    match tier {
        CacheTier::Tree | CacheTier::TreeGroup => 0,
        CacheTier::Cache => 1,
        CacheTier::HotVoronoi => 2,
    }
}

/// A response kept for the answer check, with the request it answers.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The request as sent.
    pub req: QueryReq,
    /// The decoded response frame.
    pub frame: Frame,
}

/// Result of one open-loop phase.
#[derive(Debug, Default)]
pub struct OpenResult {
    /// Response accounting.
    pub tally: Tally,
    /// Latency of each well-answered request, µs, from its intended
    /// send time, in request order.
    pub latencies: Vec<f64>,
    /// Per sent request: how late the sender ran, µs.
    pub late_us: Vec<f64>,
    /// Every `sample_every`-th response, for the answer check.
    pub samples: Vec<Sample>,
}

/// Result of one closed-loop phase.
#[derive(Debug, Default)]
pub struct ClosedResult {
    /// Response accounting.
    pub tally: Tally,
    /// Responses completed inside the timed window.
    pub completed: u64,
    /// Length of the timed window, seconds.
    pub window_s: f64,
    /// Every `sample_every`-th response, for the answer check.
    pub samples: Vec<Sample>,
}

impl ClosedResult {
    /// Responses per second over the timed window.
    pub fn rate(&self) -> f64 {
        self.completed as f64 / self.window_s
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(POLL))?;
    Ok(s)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Incremental frame reader over one socket.
struct FrameReader {
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

enum ReadOutcome {
    /// `n > 0` bytes arrived (decode with [`FrameReader::drain`]).
    Data,
    /// Nothing within [`POLL`].
    Idle,
    /// EOF or a socket error: the connection is gone.
    Closed,
}

impl FrameReader {
    fn new() -> FrameReader {
        FrameReader {
            buf: Vec::with_capacity(READ_CHUNK),
            chunk: vec![0u8; READ_CHUNK],
        }
    }

    fn read(&mut self, stream: &mut TcpStream) -> ReadOutcome {
        match stream.read(&mut self.chunk) {
            Ok(0) => ReadOutcome::Closed,
            Ok(n) => {
                self.buf.extend_from_slice(&self.chunk[..n]);
                ReadOutcome::Data
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                ReadOutcome::Idle
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => ReadOutcome::Idle,
            Err(_) => ReadOutcome::Closed,
        }
    }

    /// Decodes every complete buffered frame, handing each to `f` with
    /// its wire length. Returns `false` when the byte stream is broken
    /// (a framing error: the connection cannot be trusted any more).
    fn drain(&mut self, mut f: impl FnMut(Frame, usize)) -> bool {
        let mut used = 0;
        let ok = loop {
            match decode_frame(&self.buf[used..], DEFAULT_CLIENT_MAX_PAYLOAD) {
                Ok(Decoded::Frame { frame, consumed }) => {
                    used += consumed;
                    f(frame, consumed);
                }
                Ok(Decoded::Unknown { consumed, .. }) => used += consumed,
                Ok(Decoded::Incomplete { .. }) => break true,
                Err(_) => break false,
            }
        };
        self.buf.drain(..used);
        ok
    }
}

/// Everything a phase needs to know about its surroundings.
#[derive(Debug, Clone, Copy)]
pub struct PhaseCtx {
    /// Server address.
    pub addr: SocketAddr,
    /// First `request_id` of the phase (ids are never reused in a run).
    pub base_id: u64,
    /// Dataset size, for the `min(k, n)` check.
    pub points: usize,
    /// Keep every n-th response for the answer check (0 = none).
    pub sample_every: usize,
    /// Test every response at the client's follow-up position.
    pub probe: Option<Probe>,
}

/// The follow-up probe behind `client_reuse_share` on the TCP
/// workloads: would a client that takes one step from its focus still
/// be inside the region it was sent? Costs one point-in-region test per
/// response, on the generator's receive path.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Step length, universe units.
    pub step: f64,
    /// The universe (steps are clamped to it).
    pub universe: lbq_geom::Rect,
    /// Salt of the direction hash.
    pub salt: u64,
}

/// Runs `reqs` against `ctx.addr` on the open-loop schedule `due_ns`
/// (one ascending nanosecond offset per request).
pub fn open_loop(ctx: PhaseCtx, reqs: &[QueryReq], due_ns: &[u64]) -> OpenResult {
    assert_eq!(reqs.len(), due_ns.len());
    let n = reqs.len();
    let (bytes, bounds) = encode_requests(reqs, ctx.base_id);
    let mut out = OpenResult {
        late_us: Vec::with_capacity(n),
        latencies: Vec::with_capacity(n),
        ..OpenResult::default()
    };
    out.tally.attempted = n as u64;
    // 0 = unanswered, WRONG = answered wrongly; well-answered requests
    // hold their receive time + 1.
    let mut recv_ns = vec![0u64; n];
    let t0 = Instant::now();
    let mut next = 0usize;
    while next < n {
        let Ok(stream) = connect(ctx.addr) else {
            // Cannot even connect: everything left is lost.
            break;
        };
        let Ok(mut rstream) = stream.try_clone() else {
            break;
        };
        let first = next;
        let link = Link {
            first,
            sent: AtomicUsize::new(first),
            sender_done: AtomicBool::new(false),
            dead: AtomicBool::new(false),
        };
        let (late, after) = std::thread::scope(|s| {
            let sender = s.spawn(|| {
                let r = pace(stream, &bytes, &bounds, due_ns, t0, &link);
                link.sender_done.store(true, Ordering::Release);
                r
            });
            receive(&mut rstream, ctx, reqs, t0, &mut recv_ns, &mut out, &link);
            sender.join().expect("sender thread does not panic")
        });
        out.late_us.extend(late);
        // Whatever was sent on this connection and not answered is
        // lost with it.
        for (i, r) in recv_ns.iter().enumerate().take(after).skip(first) {
            if *r == 0 {
                out.tally
                    .fail(format!("request {}: no response", ctx.base_id + i as u64));
            }
        }
        next = after;
        if next < n {
            out.tally.reconnects += 1;
        }
    }
    for i in next..n {
        out.tally
            .fail(format!("request {}: never sent", ctx.base_id + i as u64));
    }
    for (i, &r) in recv_ns.iter().enumerate() {
        if r != 0 && r != WRONG {
            let lat = (r - 1).saturating_sub(due_ns[i]);
            out.latencies.push(lat as f64 / 1e3);
        }
    }
    out
}

/// What the sender and the receiver of one open-loop connection share.
struct Link {
    /// Index of the first request sent on this connection.
    first: usize,
    /// Index of the first request *not yet* sent.
    sent: AtomicUsize,
    /// The sender has returned (`sent` is final).
    sender_done: AtomicBool,
    /// The connection is gone or cannot be trusted: both threads stop.
    dead: AtomicBool,
}

/// The pacing sender: writes each request when it is due (all that are
/// due, in one write, when it runs late). Returns how late each send
/// was (µs) and the index of the first request *not* sent.
fn pace(
    mut stream: TcpStream,
    bytes: &[u8],
    bounds: &[usize],
    due_ns: &[u64],
    t0: Instant,
    link: &Link,
) -> (Vec<f64>, usize) {
    let n = due_ns.len();
    let mut late = Vec::with_capacity(n - link.first);
    let mut i = link.first;
    while i < n && !link.dead.load(Ordering::Acquire) {
        let now = nanos(t0.elapsed());
        if due_ns[i] > now {
            let wait = Duration::from_nanos(due_ns[i] - now);
            if wait > SPIN {
                std::thread::sleep(wait - SPIN);
            } else {
                std::hint::spin_loop();
            }
            continue;
        }
        let mut j = i + 1;
        while j < n && due_ns[j] <= now {
            j += 1;
        }
        if stream.write_all(&bytes[bounds[i]..bounds[j]]).is_err() {
            link.dead.store(true, Ordering::Release);
            break;
        }
        late.extend(due_ns[i..j].iter().map(|&d| (now - d) as f64 / 1e3));
        link.sent.store(j, Ordering::Release);
        i = j;
    }
    (late, i)
}

/// The blocking receiver of an open-loop connection.
fn receive(
    stream: &mut TcpStream,
    ctx: PhaseCtx,
    reqs: &[QueryReq],
    t0: Instant,
    recv_ns: &mut [u64],
    out: &mut OpenResult,
    link: &Link,
) {
    let Link {
        first,
        sent,
        sender_done,
        dead,
    } = link;
    let mut reader = FrameReader::new();
    let mut answered = 0usize;
    let mut last_progress = Instant::now();
    loop {
        // Order matters: read `sender_done` before `sent`, so a final
        // send cannot slip between the two loads.
        let done = sender_done.load(Ordering::Acquire);
        let outstanding = sent.load(Ordering::Acquire) - *first - answered;
        if done && outstanding == 0 {
            return;
        }
        match reader.read(stream) {
            ReadOutcome::Data => {
                let now = nanos(t0.elapsed());
                last_progress = Instant::now();
                let tally = &mut out.tally;
                let samples = &mut out.samples;
                let ok = reader.drain(|frame, wire_len| {
                    let idx = frame.request_id().wrapping_sub(ctx.base_id);
                    let slot = usize::try_from(idx).ok().filter(|&i| i < recv_ns.len());
                    match slot {
                        Some(i) if recv_ns[i] == 0 => {
                            recv_ns[i] = now + 1;
                            answered += 1;
                            if !tally.book(&reqs[i], &frame, wire_len, &ctx) {
                                // Answered, but wrongly: no latency figure.
                                recv_ns[i] = WRONG;
                            } else if ctx.sample_every > 0 && i % ctx.sample_every == 0 {
                                samples.push(Sample {
                                    req: reqs[i],
                                    frame,
                                });
                            }
                        }
                        _ => {
                            tally.strays += 1;
                            tally
                                .note(format!("stray frame for request id {}", frame.request_id()));
                        }
                    }
                });
                if !ok {
                    dead.store(true, Ordering::Release);
                    return;
                }
            }
            ReadOutcome::Idle => {
                if outstanding > 0 && last_progress.elapsed() > LOST_AFTER {
                    dead.store(true, Ordering::Release);
                    return;
                }
                if outstanding == 0 {
                    last_progress = Instant::now();
                }
            }
            ReadOutcome::Closed => {
                dead.store(true, Ordering::Release);
                return;
            }
        }
    }
}

/// When a closed loop stops issuing new requests.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many requests (warm-up).
    Count(usize),
    /// After this long (the capacity window).
    Elapsed(Duration),
}

/// Keeps `inflight` requests from `stream` outstanding until `until`,
/// then drains. Responses count towards `completed` only while the
/// window is open.
pub fn closed_loop(
    ctx: PhaseCtx,
    stream: &mut RequestStream,
    inflight: usize,
    until: Until,
) -> ClosedResult {
    let mut out = ClosedResult::default();
    let mut outstanding: HashMap<u64, QueryReq> = HashMap::with_capacity(inflight * 2);
    let mut next_id = ctx.base_id;
    let mut wbuf: Vec<u8> = Vec::with_capacity(inflight * 52);
    let t0 = Instant::now();
    let open = |issued: u64| match until {
        Until::Count(n) => issued < n as u64,
        Until::Elapsed(d) => t0.elapsed() < d,
    };
    'conn: loop {
        let Ok(mut sock) = connect(ctx.addr) else {
            break;
        };
        let mut reader = FrameReader::new();
        let mut last_progress = Instant::now();
        let mut credit = inflight;
        loop {
            // Refill the window.
            wbuf.clear();
            while credit > 0 && open(next_id - ctx.base_id) {
                let req = stream.next_req();
                encode_frame(&query_request(next_id, &req), &mut wbuf)
                    .expect("request frames always encode");
                outstanding.insert(next_id, req);
                next_id += 1;
                credit -= 1;
            }
            if !wbuf.is_empty() && sock.write_all(&wbuf).is_err() {
                break; // reconnect below
            }
            if outstanding.is_empty() {
                break 'conn;
            }
            match reader.read(&mut sock) {
                ReadOutcome::Data => {
                    last_progress = Instant::now();
                    let in_window = match until {
                        Until::Count(_) => true,
                        Until::Elapsed(d) => t0.elapsed() < d,
                    };
                    let tally = &mut out.tally;
                    let samples = &mut out.samples;
                    let mut good = 0u64;
                    let ok = reader.drain(|frame, wire_len| {
                        let id = frame.request_id();
                        match outstanding.remove(&id) {
                            Some(req) => {
                                credit += 1;
                                if tally.book(&req, &frame, wire_len, &ctx) {
                                    good += 1;
                                    let nth = (id - ctx.base_id) as usize;
                                    if ctx.sample_every > 0 && nth % ctx.sample_every == 0 {
                                        samples.push(Sample { req, frame });
                                    }
                                }
                            }
                            None => {
                                tally.strays += 1;
                                tally.note(format!("stray frame for request id {id}"));
                            }
                        }
                    });
                    if in_window {
                        out.completed += good;
                    }
                    if !ok {
                        break;
                    }
                }
                ReadOutcome::Idle => {
                    if last_progress.elapsed() > LOST_AFTER {
                        break;
                    }
                }
                ReadOutcome::Closed => break,
            }
        }
        // The connection is gone: what was outstanding is lost.
        for (id, _) in outstanding.drain() {
            out.tally
                .fail(format!("request {id}: lost with its connection"));
        }
        out.tally.reconnects += 1;
        if !open(next_id - ctx.base_id) {
            break;
        }
    }
    out.tally.attempted = next_id - ctx.base_id;
    out.window_s = match until {
        Until::Count(_) => t0.elapsed().as_secs_f64(),
        Until::Elapsed(d) => d.as_secs_f64(),
    };
    out
}
