//! The load generator against servers that misbehave: it must count the
//! damage and carry on — never panic, never hang.

use lbq_benchmark::loadgen::{closed_loop, open_loop, PhaseCtx, Until};
use lbq_benchmark::workload::{self, tcp_spec};
use lbq_core::LbqServer;
use lbq_geom::Point;
use lbq_net::{NetConfig, NetServer};
use lbq_serve::{Engine, EngineConfig, QueryReq};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

const POINTS: usize = 2_000;

fn server(cfg: NetConfig) -> NetServer {
    let data = lbq_data::uniform_unit(POINTS, workload::DATA_SEED);
    let lbq = Arc::new(LbqServer::from_items(data.items, data.universe));
    let engine = Arc::new(Engine::new(lbq, EngineConfig::with_workers(2)));
    NetServer::bind("127.0.0.1:0", engine, cfg).expect("bind loopback")
}

fn ctx(addr: std::net::SocketAddr, base_id: u64) -> PhaseCtx {
    PhaseCtx {
        addr,
        base_id,
        points: POINTS,
        sample_every: 1,
        probe: None,
    }
}

/// Evenly spaced arrivals, `gap_us` apart.
fn schedule(n: usize, gap_us: u64) -> Vec<u64> {
    (0..n as u64).map(|i| i * gap_us * 1_000).collect()
}

#[test]
fn healthy_server_answers_everything() {
    let mut net = server(NetConfig::default());
    let spec = tcp_spec("knn-uniform").unwrap();
    let reqs = spec.stream(1).take(300);
    let open = open_loop(ctx(net.local_addr(), 10), &reqs, &schedule(300, 200));
    assert_eq!((open.tally.attempted, open.tally.failures()), (300, 0));
    assert_eq!(open.latencies.len(), 300);
    assert_eq!(open.late_us.len(), 300);
    assert_eq!(open.samples.len(), 300);
    assert_eq!(open.tally.reconnects, 0);
    assert!(open.latencies.iter().all(|&l| l > 0.0));

    let mut stream = spec.stream(2);
    let closed = closed_loop(
        ctx(net.local_addr(), 1_000),
        &mut stream,
        16,
        Until::Count(500),
    );
    assert_eq!((closed.tally.attempted, closed.tally.failures()), (500, 0));
    assert_eq!(closed.completed, 500);
    let timed = closed_loop(
        ctx(net.local_addr(), 10_000),
        &mut stream,
        16,
        Until::Elapsed(Duration::from_millis(200)),
    );
    assert!(timed.completed > 0 && timed.completed <= timed.tally.attempted);
    assert_eq!(timed.tally.failures(), 0);
    assert!((timed.rate() - timed.completed as f64 / 0.2).abs() < 1e-6);
    net.shutdown();
}

#[test]
fn teardown_on_too_many_in_flight_is_counted_and_survived() {
    // 16 in flight against a budget of 4: the server answers with a
    // TooManyInFlight error frame and tears the connection down, again
    // and again.
    let mut net = server(NetConfig {
        max_inflight: 4,
        ..NetConfig::default()
    });
    let spec = tcp_spec("knn-uniform").unwrap();
    let mut stream = spec.stream(3);
    let started = Instant::now();
    let out = closed_loop(ctx(net.local_addr(), 1), &mut stream, 16, Until::Count(200));
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "generator hung"
    );
    assert_eq!(out.tally.attempted, 200);
    assert!(out.tally.failed > 0, "lost requests must count as failed");
    assert!(out.tally.reconnects > 0);
    // (A closing connection drops even the responses that were within
    // the budget, so there may be none at all.)
    assert_eq!(out.tally.responses + out.tally.failed, 200);
    assert!(!out.tally.notes.is_empty());

    // The open loop survives the same server: a burst of 50 at once.
    let reqs = spec.stream(4).take(50);
    let open = open_loop(ctx(net.local_addr(), 5_000), &reqs, &schedule(50, 0));
    assert_eq!(open.tally.attempted, 50);
    assert!(open.tally.failed > 0);
    assert_eq!(open.latencies.len() as u64 + open.tally.failed, 50);
    net.shutdown();
}

#[test]
fn error_frames_fail_one_request_each() {
    // k = 0 is semantically invalid: a recoverable InvalidRequest error
    // frame, the connection stays up and its neighbours are answered.
    let mut net = server(NetConfig::default());
    let mut reqs = tcp_spec("knn-uniform").unwrap().stream(5).take(40);
    for i in [3usize, 17, 31] {
        reqs[i] = QueryReq::knn(Point::new(0.5, 0.5), 0);
    }
    let open = open_loop(ctx(net.local_addr(), 100), &reqs, &schedule(40, 100));
    assert_eq!(open.tally.failed, 3);
    assert_eq!(open.tally.responses, 37);
    assert_eq!(open.latencies.len(), 37, "a failed request has no latency");
    assert_eq!(open.tally.reconnects, 0);
    assert!(open.tally.notes.iter().any(|n| n.contains("error frame")));
    net.shutdown();
}

#[test]
fn silent_and_absent_servers_time_out() {
    // Accepts, never answers: the read timeout declares the requests lost.
    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = silent.local_addr().unwrap();
    let reqs = tcp_spec("window-uniform").unwrap().stream(6).take(5);
    let started = Instant::now();
    let open = open_loop(ctx(addr, 1), &reqs, &schedule(5, 10));
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "generator hung"
    );
    assert_eq!((open.tally.attempted, open.tally.failed), (5, 5));
    assert!(open.latencies.is_empty());
    drop(silent);

    // Nobody listens at all.
    let open = open_loop(ctx(addr, 1), &reqs, &schedule(5, 10));
    assert_eq!((open.tally.attempted, open.tally.failed), (5, 5));
    let mut stream = tcp_spec("window-uniform").unwrap().stream(7);
    let closed = closed_loop(ctx(addr, 1), &mut stream, 4, Until::Count(10));
    assert_eq!(closed.completed, 0);
    assert_eq!(closed.tally.responses, 0);
}
