//! Access metering: node-access counters and the LRU buffer pool.
//!
//! The paper evaluates server cost as **NA** (node accesses — every node
//! the query touches) and **PA** (page accesses — NA filtered through an
//! LRU buffer sized as a fraction of the tree, 10% in the experiments).
//! The distinction matters: the headline result of Figs. 27/28/34/35 is
//! that the *extra* queries issued to build validity regions hit pages
//! that the initial query already faulted in, so their PA cost nearly
//! vanishes.

use crate::node::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative access counters. Read with [`crate::RTree::stats`], or
/// scoped as a delta with [`crate::RTree::with_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Nodes read (every node visit, buffered or not).
    pub node_accesses: u64,
    /// Buffer misses. Equal to `node_accesses` when no buffer is
    /// attached.
    pub page_faults: u64,
}

impl Stats {
    /// Element-wise difference from an `earlier` snapshot of the same
    /// counters. Saturating: should the counters ever run backwards
    /// (a snapshot racing a counter reset), the delta clamps to zero
    /// instead of wrapping.
    pub fn delta_since(self, earlier: Stats) -> Stats {
        Stats {
            node_accesses: self.node_accesses.saturating_sub(earlier.node_accesses),
            page_faults: self.page_faults.saturating_sub(earlier.page_faults),
        }
    }
}

/// Interior-mutable counter pair used by the tree (`&self` queries).
///
/// Atomics (relaxed) rather than `Cell` so a read-only tree can be
/// shared across threads (`Arc<RTree>` in `lbq-serve`); uncontended
/// relaxed increments cost the same as the former `Cell` bumps.
#[derive(Debug, Default)]
pub(crate) struct StatsCell {
    pub node_accesses: AtomicU64,
    pub page_faults: AtomicU64,
}

impl StatsCell {
    pub(crate) fn snapshot(&self) -> Stats {
        Stats {
            node_accesses: self.node_accesses.load(Ordering::Relaxed),
            page_faults: self.page_faults.load(Ordering::Relaxed),
        }
    }
}

/// A simulated LRU buffer pool over node pages.
///
/// Capacity is in pages. `touch` returns `true` on a *fault* (the page
/// was not resident). Recency is tracked with a logical clock and
/// eviction scans for the minimum stamp — O(capacity), which is
/// microseconds for the few hundred page buffers the experiments use,
/// and keeps the structure trivially correct.
#[derive(Debug)]
pub struct LruBuffer {
    capacity: usize,
    clock: u64,
    resident: HashMap<NodeId, u64>,
    faults: u64,
    hits: u64,
}

impl LruBuffer {
    /// Creates a buffer holding `capacity` pages (minimum 1).
    pub fn new(capacity: usize) -> Self {
        LruBuffer {
            capacity: capacity.max(1),
            clock: 0,
            resident: HashMap::new(),
            faults: 0,
            hits: 0,
        }
    }

    /// Registers an access to `page`; returns `true` if it faulted.
    pub fn touch(&mut self, page: NodeId) -> bool {
        self.clock += 1;
        let clock = self.clock;
        if let Some(stamp) = self.resident.get_mut(&page) {
            *stamp = clock;
            self.hits += 1;
            return false;
        }
        self.faults += 1;
        if self.resident.len() >= self.capacity {
            // Evict the least recently used page.
            #[expect(clippy::expect_used, reason = "guarded by the full check")]
            let victim = *self
                .resident
                .iter()
                .min_by_key(|(_, &stamp)| stamp)
                .map(|(id, _)| id)
                .expect("buffer non-empty when full");
            self.resident.remove(&victim);
        }
        self.resident.insert(page, clock);
        true
    }

    /// Number of pages the buffer can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently resident.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Total faults since creation/clear.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Total hits since creation/clear.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Empties the buffer and zeroes its counters (a "cold restart").
    pub fn clear(&mut self) {
        self.resident.clear();
        self.faults = 0;
        self.hits = 0;
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_then_hits() {
        let mut b = LruBuffer::new(2);
        assert!(b.touch(1)); // fault
        assert!(b.touch(2)); // fault
        assert!(!b.touch(1)); // hit
        assert_eq!(b.faults(), 2);
        assert_eq!(b.hits(), 1);
        assert_eq!(b.resident_count(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut b = LruBuffer::new(2);
        b.touch(1);
        b.touch(2);
        b.touch(1); // 2 is now LRU
        assert!(b.touch(3)); // evicts 2
        assert!(!b.touch(1)); // 1 still resident
        assert!(b.touch(2)); // 2 was evicted → fault
    }

    #[test]
    fn capacity_one_thrashes() {
        let mut b = LruBuffer::new(1);
        for _ in 0..3 {
            assert!(b.touch(1) || b.resident_count() == 1);
            b.touch(2);
        }
        // Alternating 1,2 with capacity 1: every access after the first
        // to a different page faults.
        b.clear();
        assert!(b.touch(1));
        assert!(b.touch(2));
        assert!(b.touch(1));
        assert_eq!(b.faults(), 3);
    }

    #[test]
    fn clear_resets() {
        let mut b = LruBuffer::new(4);
        b.touch(1);
        b.touch(2);
        b.clear();
        assert_eq!(b.faults(), 0);
        assert_eq!(b.resident_count(), 0);
        assert!(b.touch(1)); // cold again
    }

    #[test]
    fn zero_capacity_clamped() {
        let b = LruBuffer::new(0);
        assert_eq!(b.capacity(), 1);
    }
}
