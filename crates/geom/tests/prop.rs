//! Randomized property-style tests for the geometry kernel.
//!
//! Formerly written with `proptest`; the build environment has no
//! crates.io access, so the same properties are now exercised with the
//! vendored, seeded [`lbq_rng`] generator. Every run is deterministic.

use lbq_geom::{
    rect_difference_area, rect_union_area, ConvexPolygon, HalfPlane, Point, Rect, Vec2,
};
use lbq_rng::Xoshiro256ss;

/// Random cases per property.
const CASES: usize = 256;

fn rand_point(rng: &mut Xoshiro256ss, range: f64) -> Point {
    Point::new(rng.gen_range(-range..range), rng.gen_range(-range..range))
}

fn rand_rect(rng: &mut Xoshiro256ss, range: f64) -> Rect {
    let c = rand_point(rng, range);
    Rect::centered(c, rng.gen_range(0.01..range), rng.gen_range(0.01..range))
}

#[test]
fn bisector_agrees_with_distance() {
    let mut rng = Xoshiro256ss::seed_from_u64(0xB15E);
    let mut tested = 0;
    while tested < CASES {
        let keep = rand_point(&mut rng, 100.0);
        let other = rand_point(&mut rng, 100.0);
        let probe = rand_point(&mut rng, 100.0);
        if keep.dist(other) <= 1e-6 {
            continue;
        }
        let dk = probe.dist(keep);
        let do_ = probe.dist(other);
        // Skip near-ties where float rounding decides arbitrarily.
        if (dk - do_).abs() <= 1e-7 {
            continue;
        }
        let h = HalfPlane::bisector(keep, other);
        assert_eq!(
            h.contains(probe),
            dk < do_,
            "keep {keep} other {other} probe {probe}"
        );
        tested += 1;
    }
}

#[test]
fn clip_area_never_grows() {
    let mut rng = Xoshiro256ss::seed_from_u64(0xC11F);
    for case in 0..CASES {
        let rect = rand_rect(&mut rng, 50.0);
        let mut poly = ConvexPolygon::from_rect(&rect);
        let mut prev = poly.area();
        let n_planes = rng.gen_range(1..8usize);
        for _ in 0..n_planes {
            let keep = rand_point(&mut rng, 50.0);
            let other = rand_point(&mut rng, 50.0);
            if keep.dist(other) < 1e-6 {
                continue;
            }
            poly = poly.clip(&HalfPlane::bisector(keep, other));
            let a = poly.area();
            assert!(
                a <= prev + 1e-9 * prev.max(1.0),
                "case {case}: {prev} -> {a}"
            );
            assert!(poly.is_convex_ccw(), "case {case}");
            prev = a;
        }
    }
}

#[test]
fn clipped_polygon_points_satisfy_all_planes() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x9A7E);
    for case in 0..CASES {
        let rect = rand_rect(&mut rng, 50.0);
        let n_pairs = rng.gen_range(1..6usize);
        let planes: Vec<HalfPlane> = (0..n_pairs)
            .filter_map(|_| {
                let k = rand_point(&mut rng, 50.0);
                let o = rand_point(&mut rng, 50.0);
                (k.dist(o) > 1e-6).then(|| HalfPlane::bisector(k, o))
            })
            .collect();
        let poly = ConvexPolygon::from_rect(&rect).clip_all(planes.iter());
        if poly.is_empty() {
            continue;
        }
        // Every vertex and the centroid satisfy every clip plane.
        let mut probes = poly.vertices().to_vec();
        probes.push(poly.vertex_centroid().expect("non-empty polygon"));
        for p in probes {
            assert!(
                rect.contains_eps(p, 1e-6),
                "case {case}: {p} outside base rect"
            );
            for h in &planes {
                assert!(h.contains_eps(p, 1e-6), "case {case}: {p} violates plane");
            }
        }
    }
}

#[test]
fn union_area_bounds() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x0A1EA);
    for case in 0..CASES {
        let n = rng.gen_range(1..12usize);
        let rects: Vec<Rect> = (0..n).map(|_| rand_rect(&mut rng, 30.0)).collect();
        let union = rect_union_area(&rects);
        let max_single = rects.iter().map(|r| r.area()).fold(0.0, f64::max);
        let sum: f64 = rects.iter().map(|r| r.area()).sum();
        assert!(union >= max_single - 1e-9 * max_single, "case {case}");
        assert!(union <= sum + 1e-9 * sum, "case {case}");
        // Union fits in the bounding box of all rects.
        let mut bb = rects[0];
        for r in &rects[1..] {
            bb.expand_to_rect(r);
        }
        assert!(union <= bb.area() + 1e-9 * bb.area(), "case {case}");
    }
}

#[test]
fn difference_complements_union() {
    let mut rng = Xoshiro256ss::seed_from_u64(0xD1FF);
    for case in 0..CASES {
        let base = rand_rect(&mut rng, 30.0);
        let n = rng.gen_range(0..8usize);
        let holes: Vec<Rect> = (0..n).map(|_| rand_rect(&mut rng, 30.0)).collect();
        let diff = rect_difference_area(&base, &holes);
        let clipped: Vec<Rect> = holes.iter().filter_map(|h| base.intersection(h)).collect();
        let covered = rect_union_area(&clipped);
        assert!(
            (diff + covered - base.area()).abs() <= 1e-6 * base.area().max(1.0),
            "case {case}: diff {diff} covered {covered} base {}",
            base.area()
        );
        assert!(diff >= 0.0, "case {case}");
        assert!(diff <= base.area() + 1e-9, "case {case}");
    }
}

#[test]
fn mindist_is_reachable() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x317D);
    for case in 0..CASES {
        let r = rand_rect(&mut rng, 40.0);
        let p = rand_point(&mut rng, 60.0);
        // mindist equals the distance to the clamped point, and no corner
        // is closer than mindist.
        let md = r.mindist(p);
        assert!(
            (md - r.clamp_point(p).dist(p)).abs() <= 1e-9 * md.max(1.0),
            "case {case}"
        );
        for c in r.corners() {
            assert!(c.dist(p) >= md - 1e-9 * md.max(1.0), "case {case}");
        }
        let mx = r.maxdist(p);
        assert!(mx >= md, "case {case}");
        // maxdist is attained at one of the corners.
        let corner_max = r.corners().iter().map(|c| c.dist(p)).fold(0.0, f64::max);
        assert!((mx - corner_max).abs() <= 1e-9 * mx.max(1.0), "case {case}");
    }
}

#[test]
fn ray_exit_time_is_boundary_crossing() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x4A7);
    let mut tested = 0;
    while tested < CASES {
        let keep = rand_point(&mut rng, 50.0);
        let other = rand_point(&mut rng, 50.0);
        let origin = rand_point(&mut rng, 50.0);
        let theta = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
        if keep.dist(other) <= 1e-3 {
            continue;
        }
        tested += 1;
        let h = HalfPlane::bisector(keep, other);
        let dir = Vec2::from_angle(theta);
        if let Some(t) = h.ray_exit_time(origin, dir) {
            let hit = origin + dir * t;
            if t > 0.0 {
                // The exit point lies on the boundary (zero signed dist).
                assert!(h.signed_dist(hit).abs() <= 1e-6 * (1.0 + t));
            }
            // Just past the exit, we are strictly outside.
            let past = origin + dir * (t + 1e-3);
            assert!(h.signed_dist(past) > -1e-9);
        } else if h.contains(origin) {
            // Never exits: points along the ray stay inside (sample some).
            for i in 1..=8 {
                let p = origin + dir * (f64::from(i) * 10.0);
                assert!(h.contains_eps(p, 1e-6));
            }
        }
    }
}
