//! The answer check: an independent brute force over the raw items.
//!
//! It never touches the R-tree, the engine or the memo tiers. The raw
//! items are copied once, sorted by `x`; a check scans the `x` strip
//! that can hold a counter-example (every item whose `x` lies within
//! the kNN radius, or within the window) and tests each item in it.
//!
//! For a sampled response it verifies, at the *request's* focus (cache
//! and hot-tier answers are anchored elsewhere):
//!
//! * the result ids are real items and are the true kNN / window
//!   content at the focus;
//! * the validity region contains the focus;
//! * kNN only — the paper's contract: at the points 90 % of the way
//!   from the focus to each region vertex the true kNN set is still the
//!   same set.

use lbq_core::{NnResponse, WindowResponse};
use lbq_geom::{Point, Rect};
use lbq_rtree::Item;
use lbq_serve::{QueryAnswer, QueryReq};
use std::collections::HashMap;

/// How far towards each region vertex the kNN result is re-verified.
const VERTEX_REACH: f64 = 0.9;

/// The brute-force oracle over one dataset.
#[derive(Debug)]
pub struct Oracle {
    /// Items ascending by `x`.
    by_x: Vec<Item>,
    /// Item position by id.
    point_of: HashMap<u64, Point>,
}

impl Oracle {
    /// Builds the oracle from the raw items.
    pub fn new(items: &[Item]) -> Oracle {
        let mut by_x = items.to_vec();
        by_x.sort_by(|a, b| a.point.x.total_cmp(&b.point.x));
        let point_of = items.iter().map(|i| (i.id, i.point)).collect();
        Oracle { by_x, point_of }
    }

    /// Items whose `x` lies in `[lo, hi]`.
    fn strip(&self, lo: f64, hi: f64) -> &[Item] {
        let a = self.by_x.partition_point(|i| i.point.x < lo);
        let b = self.by_x.partition_point(|i| i.point.x <= hi);
        &self.by_x[a..b.max(a)]
    }

    /// `Ok` when `ids` is a true k-nearest-neighbour set of `p`: no
    /// item outside the set is strictly closer than the farthest member.
    fn is_knn_set(&self, p: Point, ids: &[u64]) -> Result<(), String> {
        let mut radius_sq = 0.0_f64;
        for id in ids {
            let Some(pt) = self.point_of.get(id) else {
                return Err(format!("result id {id} is not in the dataset"));
            };
            radius_sq = radius_sq.max(p.dist_sq(*pt));
        }
        let r = radius_sq.sqrt();
        for it in self.strip(p.x - r, p.x + r) {
            if p.dist_sq(it.point) < radius_sq && !ids.contains(&it.id) {
                return Err(format!(
                    "item {} at distance {} beats the result radius {} at ({}, {})",
                    it.id,
                    p.dist(it.point),
                    r,
                    p.x,
                    p.y
                ));
            }
        }
        Ok(())
    }

    /// Checks a kNN response against the request `(q, k)`.
    pub fn check_knn(&self, q: Point, k: usize, resp: &NnResponse) -> Result<(), String> {
        let want = k.min(self.by_x.len());
        let mut ids: Vec<u64> = resp.result.iter().map(|i| i.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != want {
            return Err(format!("{} distinct results, want {want}", ids.len()));
        }
        for it in &resp.result {
            if self.point_of.get(&it.id) != Some(&it.point) {
                return Err(format!("result item {} carries a wrong position", it.id));
            }
        }
        self.is_knn_set(q, &ids)?;
        if !resp.validity.contains(q) {
            return Err("validity region does not contain the focus".into());
        }
        for &v in resp.validity.polygon.vertices() {
            let p = q.lerp(v, VERTEX_REACH);
            self.is_knn_set(p, &ids)
                .map_err(|e| format!("result changes inside the region: {e}"))?;
        }
        Ok(())
    }

    /// Checks a window response against the request `(c, hx, hy)`.
    pub fn check_window(
        &self,
        c: Point,
        hx: f64,
        hy: f64,
        resp: &WindowResponse,
    ) -> Result<(), String> {
        let window = Rect::centered(c, hx, hy);
        let mut truth: Vec<u64> = self
            .strip(window.xmin, window.xmax)
            .iter()
            .filter(|i| window.contains(i.point))
            .map(|i| i.id)
            .collect();
        truth.sort_unstable();
        let mut ids: Vec<u64> = resp.result.iter().map(|i| i.id).collect();
        ids.sort_unstable();
        if ids != truth {
            return Err(format!(
                "window holds {} items, response has {}",
                truth.len(),
                ids.len()
            ));
        }
        if !resp.validity.contains(c) {
            return Err("validity region does not contain the focus".into());
        }
        Ok(())
    }

    /// Checks any answer against its request.
    pub fn check(&self, req: &QueryReq, answer: &QueryAnswer) -> Result<(), String> {
        match (req, answer) {
            (QueryReq::Knn { q, k }, QueryAnswer::Knn(r)) => self.check_knn(*q, *k, r),
            (QueryReq::Window { c, hx, hy }, QueryAnswer::Window(r)) => {
                self.check_window(*c, *hx, *hy, r)
            }
            _ => Err("answer kind does not match the request".into()),
        }
    }
}

/// Outcome of checking a batch of samples.
#[derive(Debug, Default, Clone)]
pub struct CheckReport {
    /// Samples checked.
    pub checked: u64,
    /// Samples that failed.
    pub wrong: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl CheckReport {
    /// Records the verdict on one sample.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.checked += 1;
        if let Err(e) = verdict {
            self.wrong += 1;
            if self.notes.len() < 8 {
                self.notes.push(e);
            }
        }
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: CheckReport) {
        self.checked += other.checked;
        self.wrong += other.wrong;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbq_core::LbqServer;

    fn setup() -> (Vec<Item>, LbqServer, Oracle) {
        let data = lbq_data::uniform_unit(3_000, 9);
        let server = LbqServer::from_items(data.items.clone(), data.universe);
        let oracle = Oracle::new(&data.items);
        (data.items, server, oracle)
    }

    #[test]
    fn strip_equals_linear_scan() {
        let (items, _, oracle) = setup();
        let (lo, hi) = (0.31, 0.36);
        let mut want: Vec<u64> = items
            .iter()
            .filter(|i| i.point.x >= lo && i.point.x <= hi)
            .map(|i| i.id)
            .collect();
        want.sort_unstable();
        let mut got: Vec<u64> = oracle.strip(lo, hi).iter().map(|i| i.id).collect();
        got.sort_unstable();
        assert_eq!(got, want);
        assert!(oracle.strip(2.0, 3.0).is_empty());
        assert!(oracle.strip(0.5, 0.4).is_empty());
    }

    #[test]
    fn accepts_true_answers() {
        let (_, server, oracle) = setup();
        let mut rng = lbq_rng::Xoshiro256ss::seed_from_u64(4);
        for _ in 0..200 {
            let q = Point::new(rng.gen_f64(), rng.gen_f64());
            let nn = server.knn_with_validity(q, 5);
            oracle.check_knn(q, 5, &nn).unwrap();
            let w = server.window_with_validity(q, 0.02, 0.03);
            oracle.check_window(q, 0.02, 0.03, &w).unwrap();
        }
    }

    #[test]
    fn rejects_wrong_answers() {
        let (items, server, oracle) = setup();
        let q = Point::new(0.4, 0.6);
        let good = server.knn_with_validity(q, 5);

        // A far item swapped into the result.
        let mut bad = good.clone();
        let far = items
            .iter()
            .max_by(|a, b| q.dist_sq(a.point).total_cmp(&q.dist_sq(b.point)))
            .unwrap();
        bad.result[0] = *far;
        assert!(oracle.check_knn(q, 5, &bad).is_err());

        // One result short.
        let mut short = good.clone();
        short.result.pop();
        assert!(oracle.check_knn(q, 5, &short).is_err());

        // A region that claims too much: the whole universe.
        let mut wide = good.clone();
        wide.validity.pairs.clear();
        wide.validity.polygon = lbq_geom::ConvexPolygon::from_rect(&wide.validity.universe);
        let e = oracle.check_knn(q, 5, &wide).unwrap_err();
        assert!(e.contains("inside the region"), "{e}");

        // The answer of another focus: right shape, wrong place.
        let elsewhere = server.knn_with_validity(Point::new(0.9, 0.1), 5);
        assert!(oracle.check_knn(q, 5, &elsewhere).is_err());

        // Window with an item dropped / with the wrong focus.
        let w = server.window_with_validity(q, 0.05, 0.05);
        assert!(!w.result.is_empty());
        let mut fewer = w.clone();
        fewer.result.pop();
        assert!(oracle.check_window(q, 0.05, 0.05, &fewer).is_err());
        assert!(oracle
            .check_window(Point::new(0.1, 0.1), 0.05, 0.05, &w)
            .is_err());

        // Kind mismatch.
        let req = QueryReq::knn(q, 5);
        assert!(oracle.check(&req, &QueryAnswer::Window(w)).is_err());
    }
}
