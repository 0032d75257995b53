//! # lbq-data — datasets and query workloads
//!
//! Data substrate of the `lbq` workspace (reproduction of
//! *"Location-based Spatial Queries"*, SIGMOD 2003). The paper evaluates
//! on three kinds of data:
//!
//! * **uniform** points in a square unit universe (10k–1000k points);
//! * **GR** — 23,268 centroids of street segments in Greece,
//!   800 km × 800 km;
//! * **NA** — 569,120 populated places of North America,
//!   ≈7000 km × 7000 km.
//!
//! The two real datasets (hosted on a long-gone university page) are
//! substituted by seeded synthetic generators that reproduce the
//! properties the experiments actually exercise — cardinality, universe
//! extent, and spatial skew/clustering structure (what the Minskew
//! histogram and the LRU buffer react to):
//!
//! * [`gr_like`] scatters points along random polyline "roads"
//!   (segment centroids with jitter), matching GR's line-clustered skew;
//! * [`na_like`] draws from a Gaussian-mixture with power-law cluster
//!   sizes (Zipf-distributed "city populations"), matching NA's
//!   settlement pattern.
//!
//! Workloads follow the paper's Section 6: 500 queries per experiment,
//! distributed like the data (a query location is a perturbed random
//! data point), with square window queries.

#![deny(missing_docs)]

use lbq_geom::{Point, Rect, Segment, Vec2};
use lbq_rng::Xoshiro256ss;
use lbq_rtree::Item;

/// A named point dataset with its universe.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Display name, as the experiment tables print it.
    pub name: String,
    /// The points, ids `0..len`.
    pub items: Vec<Item>,
    /// The rectangle every point lies in.
    pub universe: Rect,
}

impl Dataset {
    /// The bare points (no ids).
    pub fn points(&self) -> Vec<Point> {
        self.items.iter().map(|i| i.point).collect()
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Uniformly distributed points in `universe`.
pub fn uniform(n: usize, universe: Rect, seed: u64) -> Dataset {
    let mut rng = Xoshiro256ss::seed_from_u64(seed);
    let items = (0..n)
        .map(|i| {
            Item::new(
                Point::new(
                    rng.gen_range(universe.xmin..universe.xmax),
                    rng.gen_range(universe.ymin..universe.ymax),
                ),
                i as u64,
            )
        })
        .collect();
    Dataset {
        name: format!("uniform-{n}"),
        items,
        universe,
    }
}

/// Uniform data in the paper's square unit universe.
pub fn uniform_unit(n: usize, seed: u64) -> Dataset {
    uniform(n, Rect::new(0.0, 0.0, 1.0, 1.0), seed)
}

/// GR-like data: `n` street-segment centroids along random polyline
/// roads in an 800 km × 800 km universe (meters). Defaults match the
/// paper with [`gr_like`].
pub fn gr_like_sized(n: usize, seed: u64) -> Dataset {
    let universe = Rect::new(0.0, 0.0, 800_000.0, 800_000.0);
    let mut rng = Xoshiro256ss::seed_from_u64(seed);
    let mut points: Vec<Point> = Vec::with_capacity(n);
    // Roads: random-walk polylines. Road lengths are heavy-tailed, and
    // roads start preferentially near earlier roads (towns attract
    // streets), which yields the dense-city / sparse-country contrast
    // of real street data.
    while points.len() < n {
        let start = if points.is_empty() || rng.gen_bool(0.3) {
            Point::new(
                rng.gen_range(universe.xmin..universe.xmax),
                rng.gen_range(universe.ymin..universe.ymax),
            )
        } else {
            // Branch off an existing street point.
            let anchor = points[rng.gen_range(0..points.len())];
            let r = rng.gen_range(0.0..15_000.0);
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            universe.clamp_point(anchor + Vec2::from_angle(theta) * r)
        };
        let segments = rng.gen_range(3..60usize);
        let mut heading = rng.gen_range(0.0..std::f64::consts::TAU);
        let mut cur = start;
        for _ in 0..segments {
            if points.len() >= n {
                break;
            }
            heading += rng.gen_range(-0.5..0.5);
            let len = rng.gen_range(80.0..600.0);
            let next = universe.clamp_point(cur + Vec2::from_angle(heading) * len);
            let seg = Segment::new(cur, next);
            if seg.length() > 1.0 {
                points.push(seg.midpoint());
            }
            cur = next;
        }
    }
    points.truncate(n);
    Dataset {
        name: format!("gr-like-{n}"),
        items: points
            .into_iter()
            .enumerate()
            .map(|(i, p)| Item::new(p, i as u64))
            .collect(),
        universe,
    }
}

/// The paper's GR cardinality: 23,268 points.
pub fn gr_like(seed: u64) -> Dataset {
    let mut d = gr_like_sized(23_268, seed);
    d.name = "GR".into();
    d
}

/// NA-like data: `n` populated places as a Gaussian mixture with
/// Zipf-distributed cluster populations in a 7000 km square universe
/// (meters).
pub fn na_like_sized(n: usize, seed: u64) -> Dataset {
    let universe = Rect::new(0.0, 0.0, 7_000_000.0, 7_000_000.0);
    let mut rng = Xoshiro256ss::seed_from_u64(seed);
    // Cluster centers ("metro areas"); weights Zipf with s = 1.1.
    let n_clusters = 300.max(n / 2000);
    let centers: Vec<(Point, f64)> = (0..n_clusters)
        .map(|rank| {
            let c = Point::new(
                rng.gen_range(universe.xmin..universe.xmax),
                rng.gen_range(universe.ymin..universe.ymax),
            );
            // Spread grows mildly with metro size: big metros sprawl,
            // but all clusters stay tight relative to the continent.
            let spread =
                rng.gen_range(8_000.0..40_000.0) * (1.0 + 2.0 / (1.0 + rank as f64).sqrt());
            (c, spread)
        })
        .collect();
    let weights: Vec<f64> = (0..n_clusters)
        .map(|rank| (1.0 + rank as f64).powf(-1.1))
        .collect();
    let total_w: f64 = weights.iter().sum();
    // 5% uniform background (rural places).
    let items = (0..n)
        .map(|i| {
            let p = if rng.gen_bool(0.05) {
                Point::new(
                    rng.gen_range(universe.xmin..universe.xmax),
                    rng.gen_range(universe.ymin..universe.ymax),
                )
            } else {
                let mut pick = rng.gen_range(0.0..total_w);
                let mut idx = 0;
                for (j, w) in weights.iter().enumerate() {
                    if pick < *w {
                        idx = j;
                        break;
                    }
                    pick -= w;
                }
                let (c, spread) = centers[idx];
                // Box–Muller Gaussian offsets.
                let (u1, u2): (f64, f64) =
                    // lbq-check: allow(local-epsilon) — excludes ln(0), not a tolerance
                    (rng.gen_range(1e-12..1.0), rng.gen_range(0.0..std::f64::consts::TAU));
                let r = spread * (-2.0 * u1.ln()).sqrt();
                universe.clamp_point(c + Vec2::new(r * u2.cos(), r * u2.sin()))
            };
            Item::new(p, i as u64)
        })
        .collect();
    Dataset {
        name: format!("na-like-{n}"),
        items,
        universe,
    }
}

/// The paper's NA cardinality: 569,120 points.
pub fn na_like(seed: u64) -> Dataset {
    let mut d = na_like_sized(569_120, seed);
    d.name = "NA".into();
    d
}

/// Query focus locations distributed like the data: each is a random
/// data point perturbed by a Gaussian-ish jitter of `jitter_frac` of the
/// universe width (the paper's "distribution conforms to the
/// distribution of the data objects").
pub fn query_points(data: &Dataset, count: usize, jitter_frac: f64, seed: u64) -> Vec<Point> {
    assert!(
        !data.is_empty(),
        "cannot sample queries from an empty dataset"
    );
    let mut rng = Xoshiro256ss::seed_from_u64(seed ^ 0xC0FFEE);
    let scale = data.universe.width().max(data.universe.height()) * jitter_frac;
    (0..count)
        .map(|_| {
            let anchor = data.items[rng.gen_range(0..data.items.len())].point;
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            let r = rng.gen_range(0.0..scale.max(f64::MIN_POSITIVE));
            data.universe
                .clamp_point(anchor + Vec2::from_angle(theta) * r)
        })
        .collect()
}

/// The paper's workload: 500 data-distributed query points with a 1%
/// jitter.
pub fn paper_query_points(data: &Dataset, seed: u64) -> Vec<Point> {
    query_points(data, 500, 0.01, seed)
}

/// Square window queries of total area `qs` (absolute units²) centered
/// at data-distributed locations.
pub fn window_queries(data: &Dataset, count: usize, qs: f64, seed: u64) -> Vec<Rect> {
    let half = (qs.max(0.0)).sqrt() * 0.5;
    query_points(data, count, 0.01, seed)
        .into_iter()
        .map(|c| Rect::centered(c, half, half))
        .collect()
}

/// Square windows covering `fraction` of the universe area (the paper's
/// "qs = 0.1% of the data space" parameterization for uniform data).
pub fn window_queries_frac(data: &Dataset, count: usize, fraction: f64, seed: u64) -> Vec<Rect> {
    window_queries(data, count, fraction * data.universe.area(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_fills_universe() {
        let d = uniform_unit(10_000, 42);
        assert_eq!(d.len(), 10_000);
        for it in &d.items {
            assert!(d.universe.contains(it.point));
        }
        // Rough uniformity: each quadrant holds ~25%.
        let q = Rect::new(0.0, 0.0, 0.5, 0.5);
        let in_q = d.items.iter().filter(|i| q.contains(i.point)).count();
        assert!(
            (in_q as f64 - 2500.0).abs() < 300.0,
            "quadrant count {in_q}"
        );
    }

    #[test]
    fn determinism_by_seed() {
        let a = uniform_unit(100, 7);
        let b = uniform_unit(100, 7);
        let c = uniform_unit(100, 8);
        assert_eq!(a.items[..10].to_vec(), b.items[..10].to_vec());
        assert_ne!(a.items[0].point, c.items[0].point);
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn gr_like_properties() {
        let d = gr_like_sized(5000, 3);
        assert_eq!(d.len(), 5000);
        assert_eq!(d.universe.width(), 800_000.0);
        for it in &d.items {
            assert!(d.universe.contains_eps(it.point, 1e-6));
        }
        // Clustering: the average nearest-neighbor distance must be far
        // below the uniform expectation (½/√(n/A) ≈ 5.6 km for n=5000).
        let sample: Vec<Point> = d.items.iter().take(300).map(|i| i.point).collect();
        let mut total = 0.0;
        for (i, &p) in sample.iter().enumerate() {
            let mut best = f64::INFINITY;
            for (j, it) in d.items.iter().enumerate() {
                if i != j {
                    best = best.min(p.dist_sq(it.point));
                }
            }
            total += best.sqrt();
        }
        let avg_nn = total / sample.len() as f64;
        assert!(
            avg_nn < 2_000.0,
            "street points must cluster: avg NN {avg_nn} m"
        );
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "pins an exactly representable result")]
    fn na_like_properties() {
        let d = na_like_sized(20_000, 11);
        assert_eq!(d.len(), 20_000);
        assert_eq!(d.universe.width(), 7_000_000.0);
        for it in &d.items {
            assert!(d.universe.contains_eps(it.point, 1e-6));
        }
        // Skew: the densest 1% of grid cells must hold far more than 1%
        // of the points.
        let g = 50;
        let mut cells = vec![0usize; g * g];
        for it in &d.items {
            let cx = ((it.point.x / d.universe.width() * g as f64) as usize).min(g - 1);
            let cy = ((it.point.y / d.universe.height() * g as f64) as usize).min(g - 1);
            cells[cy * g + cx] += 1;
        }
        cells.sort_unstable_by(|a, b| b.cmp(a));
        let top: usize = cells[..g * g / 100].iter().sum();
        assert!(
            top as f64 > 0.10 * d.len() as f64,
            "top 1% of cells hold {top} of {}",
            d.len()
        );
    }

    #[test]
    fn query_points_follow_data() {
        let d = na_like_sized(10_000, 5);
        let qs = paper_query_points(&d, 1);
        assert_eq!(qs.len(), 500);
        for q in &qs {
            assert!(d.universe.contains(*q));
        }
        // Each query must be near some data point (jitter is 1%).
        let max_jitter = d.universe.width() * 0.011;
        for q in qs.iter().take(50) {
            let near = d.items.iter().any(|i| i.point.dist(*q) <= max_jitter);
            assert!(near, "query {q} too far from data");
        }
    }

    #[test]
    fn window_queries_have_requested_area() {
        let d = uniform_unit(1000, 2);
        let ws = window_queries_frac(&d, 20, 0.001, 3);
        assert_eq!(ws.len(), 20);
        for w in &ws {
            assert!((w.area() - 0.001).abs() < 1e-12);
            assert!((w.width() - w.height()).abs() < 1e-12, "square windows");
        }
        // Absolute variant (paper's km² parameterization for real data).
        let gr = gr_like_sized(1000, 1);
        let ws = window_queries(&gr, 5, 1000.0 * 1e6, 9); // 1000 km²
        for w in &ws {
            assert!((w.area() - 1e9).abs() < 1.0);
        }
    }

    #[test]
    fn ids_are_unique_and_dense() {
        let d = gr_like_sized(2000, 9);
        let mut ids: Vec<u64> = d.items.iter().map(|i| i.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 2000);
        assert_eq!(ids[0], 0);
        assert_eq!(ids[1999], 1999);
    }
}
