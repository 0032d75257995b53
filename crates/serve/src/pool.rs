//! A hand-rolled, zero-dependency worker thread pool.
//!
//! `std`-only by workspace constraint: a `Mutex<VecDeque<Job>>` shared
//! injector, a `Condvar` for sleeping workers, and an atomic shutdown
//! latch. Each job receives the index of the worker that runs it (the
//! engine uses it for per-worker accounting) plus a mutable borrow of
//! that worker's thread-owned [`QueryScratch`], so query buffers are
//! allocated once per thread and reused across every job the worker
//! ever runs. Dropping the pool drains nothing: outstanding jobs are
//! completed before workers exit, so a submitted batch is never
//! abandoned.
//!
//! The queue depth is mirrored to the global `serve-queue-depth` gauge
//! on every push/pop, making backlog visible in metrics snapshots.

use crate::hot::HotScratch;
use lbq_rtree::QueryScratch;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

pub(crate) type Job = Box<dyn FnOnce(usize, &mut QueryScratch, &mut HotScratch) + Send + 'static>;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
}

struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
    shutdown: AtomicBool,
    depth: lbq_obs::Gauge,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The worker pool: `workers()` threads pulling jobs off one injector.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

// Compile-time proof that the pool (and the injector state the workers
// share) crosses thread boundaries: the engine is held behind an `Arc`
// by callers that submit from multiple threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Pool>();
    assert_send_sync::<Shared>();
};

impl Pool {
    /// Spawns `workers` threads (clamped to ≥ 1).
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            depth: lbq_obs::gauge("serve-queue-depth"),
        });
        #[expect(
            clippy::expect_used,
            reason = "construction-time resource exhaustion; no query in flight"
        )]
        let handles = (0..workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lbq-serve-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    // Spawn failure at construction is unrecoverable
                    // resource exhaustion.
                    .expect("spawning lbq-serve worker thread")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Enqueues a batch of jobs and wakes the workers.
    pub(crate) fn push_all(&self, jobs: impl IntoIterator<Item = Job>) {
        let mut q = self.shared.lock();
        q.jobs.extend(jobs);
        // Queue depth is far below i64::MAX
        self.shared.depth.set(q.jobs.len() as i64);
        drop(q);
        self.shared.available.notify_all();
    }
}

// lbq-check: hot — steady-state serve loop; scratch-backed queries must stay allocation-free
// lbq-check: no-panic — an unwinding worker strands its batch countdown and poisons the job queue
fn worker_loop(shared: &Shared, worker: usize) {
    // One scratch per worker thread, alive for the pool's lifetime:
    // after the first few jobs warm its buffers, steady-state queries
    // run allocation-free.
    let mut scratch = QueryScratch::new();
    let mut hot_scratch = HotScratch::default();
    loop {
        let job = {
            let mut q = shared.lock();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    // See push_all
                    shared.depth.set(q.jobs.len() as i64);
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                q = shared.available.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        match job {
            Some(job) => job(worker, &mut scratch, &mut hot_scratch),
            None => return,
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            // A worker that panicked already poisoned nothing (the
            // queue lock is poison-proof); ignore its join error.
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_all_jobs_across_workers() {
        let pool = Pool::new(3);
        assert_eq!(pool.workers(), 3);
        let sum = Arc::new(AtomicU64::new(0));
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        let jobs: Vec<Job> = (1..=100u64)
            .map(|i| {
                let sum = Arc::clone(&sum);
                let done = Arc::clone(&done);
                Box::new(
                    move |_w: usize, _s: &mut QueryScratch, _h: &mut HotScratch| {
                        sum.fetch_add(i, Ordering::Relaxed);
                        let (m, cv) = &*done;
                        *m.lock().unwrap() += 1;
                        cv.notify_all();
                    },
                ) as Job
            })
            .collect();
        pool.push_all(jobs);
        let (m, cv) = &*done;
        let mut g = m.lock().unwrap();
        while *g < 100 {
            g = cv.wait(g).unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn drop_completes_outstanding_jobs() {
        let ran = Arc::new(AtomicU64::new(0));
        {
            let pool = Pool::new(1);
            let jobs: Vec<Job> = (0..50)
                .map(|_| {
                    let ran = Arc::clone(&ran);
                    Box::new(
                        move |_w: usize, _s: &mut QueryScratch, _h: &mut HotScratch| {
                            ran.fetch_add(1, Ordering::Relaxed);
                        },
                    ) as Job
                })
                .collect();
            pool.push_all(jobs);
        } // drop joins
        assert_eq!(ran.load(Ordering::Relaxed), 50);
    }
}
