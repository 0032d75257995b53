//! The four named workloads and their seeded inputs.
//!
//! The *database* (points, hotspot cluster centres, fleet depots) is
//! fixed by [`DATA_SEED`]; the *traffic* (foci, arrival times, client
//! trajectories) is a pure function of `--seed`. Names are fixed: later
//! issues cite them.

use lbq_core::LbqServer;
use lbq_data::Dataset;
use lbq_geom::{Point, Rect};
use lbq_proto::{encode_frame, query_request};
use lbq_rng::{SplitMix64, Xoshiro256ss};
use lbq_serve::QueryReq;

/// Seed of every dataset: it is the database, not the traffic.
pub const DATA_SEED: u64 = 42;

/// Points per dataset at full size / under `--quick`.
pub const FULL_POINTS: usize = 400_000;
/// Points per dataset under `--quick`.
pub const QUICK_POINTS: usize = 10_000;

/// The four workloads, in reporting order.
pub const NAMES: [&str; 4] = [
    "knn-uniform",
    "knn-hotspot",
    "window-uniform",
    "fleet-moving",
];

/// One line per workload: why it is in the benchmark (also the `why`
/// of `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "knn-uniform" => "kNN k=10 at uniform foci over TCP: every request misses both memo tiers, so rtree, the core TPNN chain and the geom clip do the work (the paper's cold path)",
        "knn-hotspot" => "kNN k=10 inside 32 small clusters over TCP: the hot tier and region cache answer, so net and proto do the work and an rtree gain must not show",
        "window-uniform" => "window queries of ~100 results over TCP: window_in, the two-pass window validity and 3x larger frames; no hot tier, no group kNN",
        "fleet-moving" => "2,000 random-waypoint clients on skewed data, in process: only clients that left their validity region query the engine (the paper's own scenario)",
        _ => "",
    }
}

/// A TCP workload: what to ask, how fast, and how a client moves
/// between two position updates.
#[derive(Debug, Clone, Copy)]
pub struct TcpSpec {
    /// Workload name.
    pub name: &'static str,
    /// Open-loop arrival rate, requests per second.
    pub rate: f64,
    /// Closed-loop requests in flight.
    pub inflight: usize,
    /// Untimed warm-up requests submitted before each repetition.
    pub warmup: usize,
    /// Distance a client travels between two position updates, for the
    /// follow-up probe behind `client_reuse_share` (universe units).
    pub step: f64,
    shape: Shape,
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    KnnUniform { k: usize },
    KnnHotspot { k: usize, half: f64 },
    WindowUniform { half: f64 },
}

/// Number of hotspot clusters.
pub const HOTSPOT_CLUSTERS: usize = 32;

/// The TCP workload called `name`, if there is one.
pub fn tcp_spec(name: &str) -> Option<TcpSpec> {
    // Client steps are sized so that roughly half of the follow-up
    // positions stay inside the region at 400k points; the absolute
    // share is a property of the data density, its *change* is what a
    // later region-size regression moves.
    match name {
        "knn-uniform" => Some(TcpSpec {
            name: "knn-uniform",
            rate: 3_000.0,
            inflight: 256,
            warmup: 2_000,
            step: 2.0e-4,
            shape: Shape::KnnUniform { k: 10 },
        }),
        "knn-hotspot" => Some(TcpSpec {
            name: "knn-hotspot",
            // Do not raise: at ≥ 10k req/s a 100 ms neighbour stall
            // overruns max_inflight = 1024 and the server tears the
            // connection down.
            rate: 5_000.0,
            inflight: 256,
            // Promotion (64 probes per tile) must have finished.
            warmup: 30_000,
            step: 2.0e-4,
            shape: Shape::KnnHotspot { k: 10, half: 0.002 },
        }),
        "window-uniform" => Some(TcpSpec {
            name: "window-uniform",
            rate: 3_000.0,
            inflight: 256,
            warmup: 2_000,
            step: 4.0e-5,
            // Square windows covering 0.025 % of the unit universe.
            shape: Shape::WindowUniform {
                half: 0.5 * 0.000_25_f64.sqrt(),
            },
        }),
        _ => None,
    }
}

/// Derives an independent stream seed from the run seed and a tag
/// (repetition, phase), so phases never replay each other's traffic.
pub fn stream_seed(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Tags for [`stream_seed`].
pub mod tag {
    /// Engine warm-up traffic of repetition `rep`.
    pub fn warmup(rep: usize) -> u64 {
        rep as u64 * 8 + 1
    }
    /// Open-loop requests of repetition `rep`.
    pub fn open(rep: usize) -> u64 {
        rep as u64 * 8 + 2
    }
    /// Open-loop arrival times of repetition `rep`.
    pub fn arrivals(rep: usize) -> u64 {
        rep as u64 * 8 + 3
    }
    /// Closed-loop requests of repetition `rep`.
    pub fn closed(rep: usize) -> u64 {
        rep as u64 * 8 + 4
    }
    /// Follow-up step directions.
    pub const STEPS: u64 = 5;
    /// Fleet trajectories.
    pub const FLEET: u64 = 6;
    /// Requests of the single-threaded replay and the submit probe.
    pub const REPLAY: u64 = 7;
}

/// An endless seeded stream of one TCP workload's requests.
#[derive(Debug, Clone)]
pub struct RequestStream {
    rng: Xoshiro256ss,
    shape: Shape,
    centres: Vec<Point>,
}

impl TcpSpec {
    /// The dataset this workload queries.
    pub fn dataset(&self, points: usize) -> Dataset {
        lbq_data::uniform_unit(points, DATA_SEED)
    }

    /// The request stream for `seed` (see [`stream_seed`]).
    pub fn stream(&self, seed: u64) -> RequestStream {
        RequestStream {
            rng: Xoshiro256ss::seed_from_u64(seed),
            shape: self.shape,
            centres: hotspot_centres(),
        }
    }
}

/// The fixed hotspot cluster centres (part of the database).
pub fn hotspot_centres() -> Vec<Point> {
    let mut rng = Xoshiro256ss::seed_from_u64(DATA_SEED ^ 0x4807);
    (0..HOTSPOT_CLUSTERS)
        .map(|_| Point::new(rng.gen_range(0.05..0.95), rng.gen_range(0.05..0.95)))
        .collect()
}

impl RequestStream {
    /// The next request.
    pub fn next_req(&mut self) -> QueryReq {
        let rng = &mut self.rng;
        match self.shape {
            Shape::KnnUniform { k } => QueryReq::knn(Point::new(rng.gen_f64(), rng.gen_f64()), k),
            Shape::KnnHotspot { k, half } => {
                let c = self.centres[rng.gen_index(self.centres.len())];
                let q = Point::new(
                    c.x + rng.gen_range(-half..half),
                    c.y + rng.gen_range(-half..half),
                );
                QueryReq::knn(q, k)
            }
            Shape::WindowUniform { half } => {
                QueryReq::window(Point::new(rng.gen_f64(), rng.gen_f64()), half, half)
            }
        }
    }

    /// The next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<QueryReq> {
        (0..n).map(|_| self.next_req()).collect()
    }
}

/// Poisson arrival offsets (nanoseconds from phase start, ascending)
/// at `rate` per second, covering `seconds`.
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = Xoshiro256ss::seed_from_u64(seed);
    let end = seconds * 1e9;
    let mut t = 0.0_f64;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        // Exponential inter-arrival; 1 − u ∈ (0, 1] keeps ln finite.
        t += -(1.0 - rng.gen_f64()).ln() / rate * 1e9;
        if t >= end {
            return out;
        }
        out.push(t as u64);
    }
}

/// The wire bytes of `reqs` under ids `base_id, base_id + 1, …`:
/// concatenated frames plus the `n + 1` frame boundaries.
pub fn encode_requests(reqs: &[QueryReq], base_id: u64) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::with_capacity(reqs.len() * 52);
    let mut bounds = Vec::with_capacity(reqs.len() + 1);
    bounds.push(0);
    for (i, r) in reqs.iter().enumerate() {
        encode_frame(&query_request(base_id + i as u64, r), &mut bytes)
            .expect("request frames are fixed-size and always encode");
        bounds.push(bytes.len());
    }
    (bytes, bounds)
}

/// The follow-up position of a client that was at `focus`: one step of
/// length `step`, clamped to the universe. The direction is a hash of
/// the focus and `salt`, so it does not depend on the order in which
/// responses arrive.
pub fn follow_up(focus: Point, step: f64, universe: &Rect, salt: u64) -> Point {
    let bits = focus.x.to_bits() ^ focus.y.to_bits().rotate_left(21) ^ salt;
    let unit = (SplitMix64::new(bits).next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let theta = unit * std::f64::consts::TAU;
    universe.clamp_point(Point::new(
        focus.x + step * theta.cos(),
        focus.y + step * theta.sin(),
    ))
}

/// The moving fleet: who monitors what, and where everybody drives.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// One trajectory per client, `ticks + 1` positions each.
    pub trajectories: Vec<Vec<Point>>,
}

/// Fleet sizing.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// Clients.
    pub clients: usize,
    /// Depots the clients start from (`clients / depots` per depot).
    pub depots: usize,
    /// Step length per tick (universe units: metres).
    pub step: f64,
    /// `k` of the even clients' kNN monitor.
    pub k: usize,
    /// Half-extent of the odd clients' window monitor (metres).
    pub window_half: f64,
}

/// The fleet of the `fleet-moving` workload.
pub const FLEET: FleetSpec = FleetSpec {
    clients: 2_000,
    depots: 200,
    step: 2_000.0,
    k: 4,
    window_half: 30_000.0,
};

impl FleetSpec {
    /// The dataset the fleet drives over.
    pub fn dataset(&self, points: usize) -> Dataset {
        lbq_data::na_like_sized(points, DATA_SEED)
    }

    /// Trajectories of `ticks` steps: depots are data points (clients
    /// start where the data is dense), the driving is seeded traffic.
    pub fn fleet(&self, data: &Dataset, ticks: usize, seed: u64) -> Fleet {
        let trajectories = (0..self.clients)
            .map(|c| {
                let depot = data.items[(c % self.depots) * 97 % data.items.len()].point;
                lbq_core::client::random_waypoint(
                    data.universe,
                    depot,
                    ticks,
                    self.step,
                    stream_seed(seed, tag::FLEET).wrapping_add(c as u64),
                )
            })
            .collect();
        Fleet { trajectories }
    }

    /// What client `c` asks at `pos`: even clients kNN, odd clients a
    /// window.
    pub fn request(&self, c: usize, pos: Point) -> QueryReq {
        if c % 2 == 0 {
            QueryReq::knn(pos, self.k)
        } else {
            QueryReq::window(pos, self.window_half, self.window_half)
        }
    }
}

/// Bulk-loads the server that ships: `LbqServer::from_items`, the
/// unpacked tree.
pub fn build_server(data: &Dataset) -> LbqServer {
    LbqServer::from_items(data.items.clone(), data.universe)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(name: &str, seed: u64, n: usize) -> Vec<u8> {
        let spec = tcp_spec(name).unwrap();
        let reqs = spec.stream(stream_seed(seed, tag::open(0))).take(n);
        encode_requests(&reqs, 0).0
    }

    #[test]
    fn same_seed_same_stream_and_schedule() {
        for name in &NAMES[..3] {
            assert_eq!(stream_bytes(name, 7, 500), stream_bytes(name, 7, 500));
            assert_ne!(stream_bytes(name, 7, 500), stream_bytes(name, 8, 500));
        }
        let a = arrivals(stream_seed(7, tag::arrivals(0)), 3_000.0, 2.0);
        let b = arrivals(stream_seed(7, tag::arrivals(0)), 3_000.0, 2.0);
        let c = arrivals(stream_seed(8, tag::arrivals(0)), 3_000.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Repetitions and phases do not replay each other.
        assert_ne!(arrivals(stream_seed(7, tag::arrivals(1)), 3_000.0, 2.0), a);
    }

    #[test]
    fn arrivals_are_poisson_at_the_rate() {
        let a = arrivals(3, 5_000.0, 4.0);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 4_000_000_000);
        let n = a.len() as f64;
        // 20,000 expected, σ ≈ 141.
        assert!((n - 20_000.0).abs() < 800.0, "{n} arrivals");
        // Exponential gaps: the coefficient of variation is 1.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - m).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / m;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn hotspot_working_set_fits_the_hot_tier() {
        // Every focus lies within `half` of a fixed centre, and the
        // clusters touch at most 64 hot tiles (HotConfig::max_tiles).
        let spec = tcp_spec("knn-hotspot").unwrap();
        let universe = Rect::new(0.0, 0.0, 1.0, 1.0);
        let centres = hotspot_centres();
        let mut tiles = std::collections::BTreeSet::new();
        for r in spec.stream(1).take(20_000) {
            let q = r.focus();
            assert!(centres
                .iter()
                .any(|c| (c.x - q.x).abs() <= 0.002 && (c.y - q.y).abs() <= 0.002));
            let key = lbq_rtree::hilbert::hilbert_key(q, &universe);
            tiles.insert(lbq_obs::Heatmap::tile_of_key(
                key,
                2 * lbq_rtree::hilbert::KEY_ORDER,
            ));
        }
        assert!(tiles.len() <= 64, "{} tiles", tiles.len());
    }

    #[test]
    fn fleet_is_seeded_and_anchored_at_data() {
        let data = FLEET.dataset(2_000);
        let a = FLEET.fleet(&data, 10, 5);
        let b = FLEET.fleet(&data, 10, 5);
        let c = FLEET.fleet(&data, 10, 6);
        assert_eq!(a.trajectories.len(), FLEET.clients);
        assert_eq!(a.trajectories[3], b.trajectories[3]);
        assert_ne!(a.trajectories[3], c.trajectories[3]);
        // Same depot for clients 0 and 200; same start for every seed.
        assert_eq!(a.trajectories[0][0], a.trajectories[200][0]);
        assert_eq!(a.trajectories[0][0], c.trajectories[0][0]);
        assert!(matches!(
            FLEET.request(0, Point::new(1.0, 1.0)),
            QueryReq::Knn { k: 4, .. }
        ));
        assert!(matches!(
            FLEET.request(1, Point::new(1.0, 1.0)),
            QueryReq::Window { .. }
        ));
    }
}
