//! Concurrency torture for the v2 observability primitives: histogram
//! records racing snapshots, flight-recorder writers racing seqlock
//! readers across wraparound, and heatmap updates from arbitrary tile
//! ids. Own integration-test process: it arms the process-global
//! recorder.

use lbq_obs::{FlightRecorder, QueryEvent, QueryKind, RecorderConfig, StageNanos};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn histogram_records_race_snapshots_without_loss() {
    let h = lbq_obs::histogram("conc-latency");
    const THREADS: u64 = 4;
    const PER: u64 = 50_000;
    let stop = Arc::new(AtomicBool::new(false));
    // A reader thread snapshotting mid-storm: counts must only grow,
    // and every intermediate summary must stay internally consistent.
    let reader = {
        let h = h.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let s = h.summary();
                assert!(s.count >= last, "count went backwards");
                assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
                last = s.count;
            }
            last
        })
    };
    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = h.clone();
            std::thread::spawn(move || {
                for i in 0..PER {
                    // Spread across buckets: 100ns .. ~100µs.
                    h.record_ns(100 + (i % 1000) * 100 + t);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    stop.store(true, Ordering::Relaxed);
    reader.join().expect("reader");
    assert_eq!(h.summary().count, THREADS * PER, "records lost in the race");
}

/// Regression (ROADMAP 1a): `summary()` used to walk the live buckets
/// once per quantile, each walk with a fresh `count`. A flood of low
/// samples landing between two walks then gave p50 (walked first, saw
/// only the lone high sample) above p95 (walked later, saw the flood).
/// The race is widest when the histogram is nearly empty, so every
/// round starts one from a single high sample.
#[test]
fn histogram_summary_is_one_consistent_snapshot() {
    const ROUNDS: usize = 2_000;
    const LOWS: u64 = 64;
    for round in 0..ROUNDS {
        let h = lbq_obs::Histogram::new();
        h.record_ns(1_000_000);
        let go = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !go.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                for _ in 0..LOWS {
                    h.record_ns(1);
                }
            });
            go.store(true, Ordering::Release);
            let mut last = 0u64;
            loop {
                let s = h.summary();
                assert!(
                    s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns,
                    "round {round}: quantiles out of order in {s:?}"
                );
                assert!(s.count >= last, "round {round}: count went backwards");
                last = s.count;
                if s.count == LOWS + 1 {
                    break;
                }
            }
        });
    }
}

/// An event every field of which is a pure function of its query_id,
/// so a torn read — slot words mixed from two different writes slipping
/// past the seqlock — shows up as an internally inconsistent event.
fn stamp(v: u64) -> QueryEvent {
    QueryEvent {
        query_id: v,
        kind: if v % 2 == 0 {
            QueryKind::Knn
        } else {
            QueryKind::Window
        },
        k: (v % 1_000) as u32,
        tier: lbq_obs::CacheTier::Tree,
        tile: (v % 4096) as u32,
        latency_ns: 1_000 + v % 7,
        node_accesses: (v % 97) as u32,
        page_accesses: (v % 13) as u32,
        stages: StageNanos::default(),
    }
}

/// Every event the ring hands out is whole.
fn assert_whole(rec: &FlightRecorder) {
    for (_, ev) in rec.recent() {
        assert_eq!(ev, stamp(ev.query_id), "torn read survived the seqlock");
    }
}

/// Regression: two writers a ring length apart used to stamp and fill
/// the same slot at once, so a slot could end up with an even (stable)
/// stamp over words mixed from both writes. On a two-slot ring two
/// writers collide on nearly every lap; a reader racing them, and the
/// ring at rest, must only ever see whole events.
#[test]
fn two_writers_never_share_a_slot() {
    const PER: u64 = 300_000;
    let rec = FlightRecorder::new(RecorderConfig {
        capacity: 2,
        ..RecorderConfig::default()
    });
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2u64)
            .map(|t| {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..PER {
                        rec.record(&stamp(t * PER + i));
                        // The writers read too: on a box with fewer cores
                        // than threads the reader alone may sit out a race.
                        if i % 16 == 0 {
                            assert_whole(rec);
                        }
                    }
                })
            })
            .collect();
        while !writers.iter().all(|w| w.is_finished()) {
            assert_whole(&rec);
        }
    });
    // At rest too.
    assert_whole(&rec);
    let stats = rec.stats();
    assert_eq!(stats.total, 2 * PER, "every record counted");
    assert!(stats.dropped < stats.total, "some records must land");
}

#[test]
fn recorder_wraparound_under_concurrent_readers() {
    let rec = lbq_obs::init_recorder(RecorderConfig {
        capacity: 128, // small ring: heavy wraparound
        slow_min_samples: 64,
        slow_multiplier: 2,
        slow_floor_ns: 0,
    });
    const THREADS: u64 = 4;
    const PER: u64 = 20_000;
    let stop = Arc::new(AtomicBool::new(false));
    // Readers race the wrapping writers.
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let rec = lbq_obs::recorder().expect("armed");
                while !stop.load(Ordering::Relaxed) {
                    for (_, ev) in rec.recent() {
                        assert_eq!(ev, stamp(ev.query_id), "torn read survived the seqlock");
                    }
                }
            })
        })
        .collect();
    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let rec = lbq_obs::recorder().expect("armed");
                for i in 0..PER {
                    rec.record(&stamp(t * PER + i));
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader");
    }
    let stats = rec.stats();
    assert_eq!(stats.total, THREADS * PER, "every record counted");
    // At rest the ring holds one completed write per slot, and each
    // slot should hold its final generation: one of the last 128
    // tickets. A slot LAGS when it holds an older ticket instead. That
    // happens only one way: the final ticket's writer found the slot
    // claimed by a writer with an older ticket, still mid-write after
    // the ring wrapped past it, and dropped its record. Each writer
    // holds at most one slot at a time, and the ticket it takes after
    // such a stall is itself in the final generation, so each writer
    // holds back at most one slot — and the writer that dropped is
    // another thread. With THREADS writers, fewer than THREADS slots
    // can lag.
    let recent = rec.recent();
    assert_eq!(recent.len(), 128);
    let final_generation = THREADS * PER - 128;
    let mut lagging = 0u64;
    let mut prev: Option<u64> = None;
    for (ticket, ev) in &recent {
        assert!(*ticket < THREADS * PER, "ticket {ticket} from the future");
        if *ticket < final_generation {
            lagging += 1;
        }
        if let Some(p) = prev {
            assert!(*ticket > p, "tickets must be strictly increasing");
        }
        prev = Some(*ticket);
        assert_eq!(*ev, stamp(ev.query_id));
    }
    assert!(
        lagging < THREADS,
        "{lagging} slots lag their final generation — more than \
         {THREADS} writers can hold back"
    );
    assert!(
        stats.dropped >= lagging,
        "every lagging slot is a dropped final-generation record"
    );
    assert!(stats.threshold_ns > 0, "threshold armed after warmup");
}

#[test]
fn heatmap_concurrent_arbitrary_tiles_stay_in_bounds() {
    let heat = lbq_obs::heatmap("conc-heat");
    const THREADS: u64 = 4;
    const PER: u64 = 100_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let heat = heat.clone();
            std::thread::spawn(move || {
                let mut x: u32 = 0x9E37_79B9u32.wrapping_mul(t as u32 + 1) | 1;
                for _ in 0..PER {
                    // Full-range u32 tile ids: record() must mask, not
                    // index out of bounds.
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    heat.record(x, 10);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer");
    }
    let tiles = heat.snapshot();
    let hits: u64 = tiles.iter().map(|t| t.hits).sum();
    let ns: u64 = tiles.iter().map(|t| t.total_ns).sum();
    assert_eq!(hits, THREADS * PER, "hits lost");
    assert_eq!(ns, THREADS * PER * 10, "latency mass lost");
    assert!(tiles
        .iter()
        .all(|t| (t.tile as usize) < lbq_obs::HEATMAP_SLOTS));
}
