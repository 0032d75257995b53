//! The tree handle: arena storage, metering, and structural invariants.

use crate::node::{Item, Node, NodeId};
use crate::probe::QueryProbe;
use crate::stats::{LruBuffer, Stats, StatsCell};
use crate::util::idx;
use crate::RTreeConfig;
use lbq_geom::Rect;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// A disk-model R\*-tree over 2D points. See the crate docs for the
/// feature inventory.
///
/// A built tree is `Send + Sync`: all read queries take `&self`, the
/// NA/PA meter is relaxed atomics, and the simulated LRU buffer sits
/// behind a `Mutex` — so an `Arc<RTree>` can be shared across worker
/// threads (this is what `lbq-serve` does). Note the buffer lock makes
/// *metering* a serialization point; `lbq-serve` benches therefore run
/// unbuffered unless PA is being measured.
#[derive(Debug)]
pub struct RTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    pub(crate) config: RTreeConfig,
    pub(crate) len: usize,
    pub(crate) stats: StatsCell,
    pub(crate) buffer: Mutex<Option<LruBuffer>>,
    /// Mirror of `buffer.is_some()`, so the unbuffered hot path can
    /// skip the lock entirely (checked relaxed in [`RTree::access`]).
    pub(crate) buffered: std::sync::atomic::AtomicBool,
}

// Compile-time proof of the sharing contract stated above: an
// `Arc<RTree>` crosses worker-thread boundaries in lbq-serve, so a
// field change that loses Send or Sync must fail the build, not a
// stress test.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RTree>();
};

impl RTree {
    /// Number of data points stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tree stores no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height: number of levels (1 for a root-only tree).
    pub fn height(&self) -> u32 {
        // lbq-check: allow(hot-panic) — `root` always indexes a live node; on the no-panic graph only because `Rect::height` aliases this name
        self.nodes[idx(self.root)].level + 1
    }

    /// Number of nodes (= pages occupied on disk in the cost model).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The structural configuration.
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    /// MBR of the whole dataset, `None` when empty.
    pub fn mbr(&self) -> Option<Rect> {
        self.nodes[idx(self.root)].mbr()
    }

    /// Attaches an LRU buffer of `pages` pages (replacing any existing
    /// buffer, cold). Pass the result of
    /// `(tree.node_count() as f64 * 0.1).ceil()` to reproduce the paper's
    /// "10% of the R-tree size" setting.
    pub fn set_buffer(&self, pages: usize) {
        *self.buf() = Some(LruBuffer::new(pages));
        self.buffered.store(true, Ordering::Release);
    }

    /// Detaches the buffer (PA becomes equal to NA again).
    pub fn clear_buffer(&self) {
        *self.buf() = None;
        self.buffered.store(false, Ordering::Release);
    }

    /// Locks the buffer slot (poison-proof: the buffer is a meter, a
    /// panicking query leaves it in a usable state).
    #[inline]
    pub(crate) fn buf(&self) -> std::sync::MutexGuard<'_, Option<LruBuffer>> {
        self.buffer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Convenience: attach a buffer sized as `fraction` of the current
    /// node count, as the paper does with 10%.
    pub fn set_buffer_fraction(&self, fraction: f64) {
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_precision_loss,
            clippy::cast_sign_loss,
            reason = "page count is small, positive, finite"
        )]
        let pages = ((self.node_count() as f64) * fraction).ceil().max(1.0) as usize;
        self.set_buffer(pages);
    }

    /// Runs `f` and returns its result together with the NA/PA cost
    /// the tree incurred *inside* `f`, measured as a snapshot delta.
    ///
    /// The counters are never reset (the legacy snapshot-and-reset
    /// `take_stats` was removed after its deprecation cycle), so scopes
    /// nest safely: an outer `with_stats` sees the sum of everything
    /// inside it, inner scopes see only their own slice, and concurrent
    /// users of [`RTree::stats`] are undisturbed.
    ///
    /// Each query flushes its own NA/PA into the meter before it
    /// returns, but the meter is tree-global: when other threads query
    /// the same tree concurrently, the delta includes their accesses
    /// too. For per-query attribution under concurrency, scope
    /// aggregate deltas around a whole parallel batch and divide, read
    /// the per-query `na`/`pa` span fields, or measure single-threaded.
    ///
    /// ```
    /// # use lbq_rtree::{RTree, RTreeConfig, Item};
    /// # use lbq_geom::Point;
    /// # let items = (0..100).map(|i| Item::new(Point::new(i as f64, 0.0), i)).collect();
    /// # let tree = RTree::bulk_load(items, RTreeConfig::tiny());
    /// let (result, cost) = tree.with_stats(|t| t.knn(Point::new(3.0, 0.0), 4));
    /// assert_eq!(result.len(), 4);
    /// assert!(cost.node_accesses > 0);
    /// ```
    pub fn with_stats<R>(&self, f: impl FnOnce(&Self) -> R) -> (R, Stats) {
        let before = self.stats.snapshot();
        let out = f(self);
        (out, self.stats.snapshot().delta_since(before))
    }

    /// Current counters without resetting.
    pub fn stats(&self) -> Stats {
        self.stats.snapshot()
    }

    /// `true` when an LRU buffer is attached (PA < NA possible).
    pub fn has_buffer(&self) -> bool {
        self.buffered.load(Ordering::Acquire)
    }

    /// Registers a read of `node` with the query's probe and the buffer.
    ///
    /// The unbuffered path (the serving configuration) touches no shared
    /// state: two local increments, flushed once per query by
    /// [`RTree::finish_query_span`]. Only an attached LRU buffer — a
    /// sequential disk-model simulation by nature — takes the lock.
    #[inline]
    pub(crate) fn access(&self, node: NodeId, probe: &mut QueryProbe) {
        probe.na += 1;
        // A stale read only mis-buckets one access — the None arm below
        // absorbs the race with clear_buffer — while an Acquire here
        // would tax every query.
        // lbq-check: allow(atomic-ordering) — deliberately Relaxed; the None arm absorbs the clear_buffer race
        let faulted = if self.buffered.load(Ordering::Relaxed) {
            match self.buf().as_mut() {
                Some(b) => b.touch(node),
                None => true, // raced with clear_buffer: count as a read
            }
        } else {
            true // unbuffered: every access is a page read
        };
        if faulted {
            probe.pa += 1;
        }
    }

    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[idx(id)]
    }

    /// Iterates over all stored items (unmetered — a maintenance scan,
    /// not a query).
    pub fn iter_items(&self) -> impl Iterator<Item = Item> + '_ {
        let mut stack = vec![self.root];
        let mut pending: Vec<Item> = Vec::new();
        std::iter::from_fn(move || loop {
            if let Some(item) = pending.pop() {
                return Some(item);
            }
            let id = stack.pop()?;
            let node = &self.nodes[idx(id)];
            if node.is_leaf() {
                pending.extend(node.items.iter().copied());
            } else {
                stack.extend(node.children.iter().copied());
            }
        })
    }

    /// Iterates over the stored MBR of every non-root node, as its
    /// parent's entry holds it (unmetered — a maintenance scan, not a
    /// query). A traversal-independent census of the tree's pages: the
    /// kNN optimality test counts the nodes these MBRs admit.
    pub fn iter_child_mbrs(&self) -> impl Iterator<Item = Rect> + '_ {
        let mut stack = vec![self.root];
        let mut pending: Vec<Rect> = Vec::new();
        std::iter::from_fn(move || loop {
            if let Some(mbr) = pending.pop() {
                return Some(mbr);
            }
            let id = stack.pop()?;
            let node = &self.nodes[idx(id)];
            pending.extend(node.mbrs.iter().copied());
            stack.extend(node.children.iter().copied());
        })
    }

    /// Verifies every structural invariant; returns a description of the
    /// first violation. Used by tests and debug assertions, never by
    /// query paths.
    ///
    /// Checked invariants:
    /// 1. parent MBRs exactly tight over children;
    /// 2. all leaves at level 0, levels decrease by 1 per step;
    /// 3. entry counts within `[min_entries, max_entries]` for non-root
    ///    nodes, root has ≥ 2 entries unless it is a leaf;
    /// 4. stored item count matches `len`.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut item_count = 0usize;
        self.check_node(self.root, None, true, &mut item_count)?;
        if item_count != self.len {
            return Err(format!(
                "len mismatch: counted {item_count}, recorded {}",
                self.len
            ));
        }
        Ok(())
    }

    /// Alias of [`Self::check_invariants`] — the name used by the
    /// workspace-wide invariant layer (see `lbq_core::invariants`).
    pub fn validate(&self) -> Result<(), String> {
        self.check_invariants()
    }

    /// Debug-build invariant trap, run once at the end of
    /// [`RTree::bulk_load`] (the tree never changes after it). Compiled
    /// out in release builds.
    // lbq-check: cold — debug_assertions-only; absent from the release builds the zero-alloc proof measures
    #[inline]
    #[cfg_attr(
        debug_assertions,
        expect(clippy::panic, reason = "debug-only invariant trap")
    )]
    pub(crate) fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.check_invariants() {
            panic!("R-tree invariant violated: {e}");
        }
    }

    fn check_node(
        &self,
        id: NodeId,
        expected_mbr: Option<Rect>,
        is_root: bool,
        item_count: &mut usize,
    ) -> Result<(), String> {
        let node = self.node(id);
        let n = node.len();
        if is_root {
            if !node.is_leaf() && n < 2 {
                return Err(format!("internal root with {n} entries"));
            }
        } else if n < self.config.min_entries || n > self.config.max_entries {
            return Err(format!(
                "node {id} at level {} has {n} entries (bounds {}..={})",
                node.level, self.config.min_entries, self.config.max_entries
            ));
        }
        if let Some(expect) = expected_mbr {
            let actual = node
                .mbr()
                .ok_or_else(|| format!("empty non-root node {id}"))?;
            if !rect_close(&expect, &actual) {
                return Err(format!(
                    "node {id} MBR {actual:?} differs from parent entry {expect:?}"
                ));
            }
        }
        if node.is_leaf() {
            if !node.children.is_empty() || !node.mbrs.is_empty() {
                return Err(format!("internal slots populated in leaf {id}"));
            }
            *item_count += n;
            return Ok(());
        }
        if !node.items.is_empty() {
            return Err(format!("leaf items in internal node {id}"));
        }
        if node.mbrs.len() != node.children.len() {
            return Err(format!(
                "node {id} parallel arrays diverge: {} MBRs vs {} children",
                node.mbrs.len(),
                node.children.len()
            ));
        }
        for (&mbr, &child) in node.mbrs.iter().zip(&node.children) {
            let child_node = self.node(child);
            if child_node.level + 1 != node.level {
                return Err(format!(
                    "child {child} level {} under node {id} level {}",
                    child_node.level, node.level
                ));
            }
            self.check_node(child, Some(mbr), false, item_count)?;
        }
        Ok(())
    }
}

fn rect_close(a: &Rect, b: &Rect) -> bool {
    let eps = lbq_geom::EPS
        * a.width()
            .abs()
            .max(a.height().abs())
            .max(b.width().abs())
            .max(b.height().abs())
            .max(1.0);
    (a.xmin - b.xmin).abs() <= eps
        && (a.ymin - b.ymin).abs() <= eps
        && (a.xmax - b.xmax).abs() <= eps
        && (a.ymax - b.ymax).abs() <= eps
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbq_geom::Point;

    /// A tiny-fan-out tree over points `0..n` placed by `at`.
    fn tree_of(n: u64, at: impl Fn(u64) -> Point) -> RTree {
        let items = (0..n).map(|i| Item::new(at(i), i)).collect();
        RTree::bulk_load(items, RTreeConfig::tiny())
    }

    #[test]
    fn tree_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RTree>();
        // The serving layer relies on exactly this bound:
        assert_send_sync::<std::sync::Arc<RTree>>();
    }

    #[test]
    fn concurrent_readers_meter_every_access() {
        let t = tree_of(300, |i| {
            Point::new((i * 37 % 100) as f64, (i * 53 % 100) as f64)
        });
        let query =
            |w: u64, i: u64| Point::new((w * 13 + i) as f64 % 100.0, (i * 7) as f64 % 100.0);
        // Each query's own NA, measured alone.
        let mut per_query = 0u64;
        for w in 0..4 {
            for i in 0..50 {
                per_query += t.with_stats(|t| t.knn(query(w, i), 3)).1.node_accesses;
            }
        }
        let t = std::sync::Arc::new(t);
        let before = t.stats();
        let na = na_counter_value();
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let t = std::sync::Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        t.knn(query(w, i), 3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let delta = t.stats().delta_since(before);
        // Each query flushes exactly its own count, so four threads add
        // up to the single-threaded sum.
        assert_eq!(delta.node_accesses, per_query);
        assert_eq!(delta.page_faults, per_query); // unbuffered
                                                  // The obs counter is process-global and the other tests of this
                                                  // binary feed it too; tests/meter.rs checks it for equality.
        assert!(na_counter_value() - na >= per_query);
    }

    fn na_counter_value() -> u64 {
        lbq_obs::counter("rtree-node-accesses").get()
    }

    #[test]
    fn empty_tree_shape() {
        let t = RTree::bulk_load(Vec::new(), RTreeConfig::tiny());
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 1);
        assert_eq!(t.node_count(), 1);
        assert!(t.mbr().is_none());
        assert!(t.check_invariants().is_ok());
        assert_eq!(t.iter_items().count(), 0);
    }

    #[test]
    fn metering_without_buffer_pa_equals_na() {
        let t = tree_of(100, |i| Point::new(i as f64, (i * 7 % 13) as f64));
        let (_, s) = t.with_stats(|t| t.window(&Rect::new(0.0, 0.0, 50.0, 13.0)));
        assert!(s.node_accesses > 0);
        assert_eq!(s.node_accesses, s.page_faults);
    }

    #[test]
    fn metering_with_huge_buffer_faults_once_per_page() {
        let t = tree_of(200, |i| {
            Point::new((i * 37 % 100) as f64, (i * 17 % 100) as f64)
        });
        t.set_buffer(t.node_count());
        let w = Rect::new(0.0, 0.0, 100.0, 100.0);
        let (_, first) = t.with_stats(|t| t.window(&w));
        let (_, second) = t.with_stats(|t| t.window(&w));
        // Second identical query: everything resident → zero faults.
        assert_eq!(second.page_faults, 0);
        assert_eq!(first.node_accesses, second.node_accesses);
        assert!(first.page_faults > 0);
    }

    fn small_tree() -> RTree {
        let t = tree_of(200, |i| {
            Point::new((i * 37 % 100) as f64, (i * 53 % 100) as f64)
        });
        assert!(t.height() >= 2, "corruption tests need an internal level");
        t.check_invariants().unwrap();
        t
    }

    #[test]
    fn validate_catches_corrupt_child_mbr() {
        let mut t = small_tree();
        let root = t.root;
        // Shrink the first child slot's MBR so it no longer bounds the
        // child — exactly the corruption a buggy split would cause.
        let mbr = &mut t.nodes[idx(root)].mbrs[0];
        mbr.xmax = mbr.xmin;
        mbr.ymax = mbr.ymin;
        let err = t.validate().unwrap_err();
        assert!(err.contains("MBR"), "unexpected error: {err}");
    }

    #[test]
    fn validate_catches_corrupt_len() {
        let mut t = small_tree();
        t.len += 1;
        let err = t.validate().unwrap_err();
        assert!(err.contains("len mismatch"), "unexpected error: {err}");
    }

    #[test]
    fn validate_catches_corrupt_level() {
        let mut t = small_tree();
        let first_child = t.nodes[idx(t.root)].children[0];
        t.nodes[idx(first_child)].level += 1;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_catches_starved_node() {
        let mut t = small_tree();
        let first_child = t.nodes[idx(t.root)].children[0];
        // Drain a non-root node below min_entries behind the tree's back.
        let child = &mut t.nodes[idx(first_child)];
        if child.is_leaf() {
            child.items.truncate(1);
        } else {
            child.mbrs.truncate(1);
            child.children.truncate(1);
        }
        assert!(t.validate().is_err());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "R-tree invariant violated")]
    fn debug_validate_traps_corruption() {
        let mut t = small_tree();
        t.len += 7;
        t.debug_validate();
    }
}
