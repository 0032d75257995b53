//! The tree handle: arena storage, metering, and structural invariants.

use crate::node::{Item, Node, NodeId};
use crate::stats::{LruBuffer, Stats, StatsCell};
use crate::util::{idx, node_id};
use crate::RTreeConfig;
use lbq_geom::Rect;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// Leaf-coordinate mirror of a packed arena (built by
/// [`RTree::repack`]): every leaf's item coordinates, bit-identical to
/// the `Item`s, split into two flat arrays in arena (= DFS) order. The
/// leaf scan kernels run their distance prepass over these branch-free
/// column slices — which the compiler vectorizes and which waste no
/// cache bandwidth on the interleaved `id`s — and touch the `Item`
/// array only for the few survivors. Any structural mutation drops the
/// mirror (see [`RTree::node_mut`]); queries fall back to the row
/// layout and return the same bits.
#[derive(Debug, Default)]
pub(crate) struct LeafSoa {
    pub(crate) xs: Vec<f64>,
    pub(crate) ys: Vec<f64>,
    /// Prefix offsets per node id (`len == nodes.len() + 1`); internal
    /// nodes own an empty range.
    pub(crate) start: Vec<u32>,
    /// Child-MBR columns, the interior counterpart of `xs`/`ys`: every
    /// internal node's child rectangles split into four flat arrays, so
    /// the per-child `mindist` gate — up to `max_entries` evaluations
    /// per node visit at paper fanout — runs as a vectorized prepass
    /// too. Leaf nodes own an empty range.
    pub(crate) cxmin: Vec<f64>,
    pub(crate) cymin: Vec<f64>,
    pub(crate) cxmax: Vec<f64>,
    pub(crate) cymax: Vec<f64>,
    /// Prefix offsets per node id into the child-MBR columns
    /// (`len == nodes.len() + 1`).
    pub(crate) cstart: Vec<u32>,
}

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
    pub(crate) free: Vec<NodeId>,
    pub(crate) root: NodeId,
    pub(crate) config: RTreeConfig,
    pub(crate) len: usize,
    pub(crate) stats: StatsCell,
    pub(crate) buffer: Mutex<Option<LruBuffer>>,
    /// Mirror of `buffer.is_some()`, so the unbuffered hot path can
    /// skip the lock entirely (checked relaxed in [`RTree::access`]).
    pub(crate) buffered: std::sync::atomic::AtomicBool,
    /// Column mirror of the leaf coordinates, present only on packed
    /// arenas (see [`LeafSoa`]).
    pub(crate) soa: Option<LeafSoa>,
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
    /// Creates an empty tree.
    pub fn new(config: RTreeConfig) -> Self {
        RTree {
            nodes: vec![Node::new_leaf()],
            free: Vec::new(),
            root: 0,
            config,
            len: 0,
            stats: StatsCell::default(),
            buffer: Mutex::new(None),
            buffered: std::sync::atomic::AtomicBool::new(false),
            soa: None,
        }
    }

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

    /// Number of live nodes (= pages occupied on disk in the cost
    /// model).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
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
        // lbq-check: allow(lossy-cast) — page count is small, positive, finite
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
    /// The meter is tree-global: when other threads query the same tree
    /// concurrently, the delta includes their accesses too. For
    /// per-query attribution under concurrency, scope aggregate deltas
    /// around a whole parallel batch and divide (what `lbq-serve`'s
    /// bench does), or measure single-threaded.
    ///
    /// ```
    /// # use lbq_rtree::{RTree, RTreeConfig, Item};
    /// # use lbq_geom::Point;
    /// # let mut tree = RTree::new(RTreeConfig::tiny());
    /// # for i in 0..100 { tree.insert(Item::new(Point::new(i as f64, 0.0), i)); }
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

    /// Registers a read of `node` with the meter and the buffer.
    ///
    /// The unbuffered path (the serving configuration) is lock-free:
    /// two relaxed atomic increments. Only an attached LRU buffer — a
    /// sequential disk-model simulation by nature — takes the lock.
    #[inline]
    pub(crate) fn access(&self, node: NodeId) {
        self.stats.node_accesses.fetch_add(1, Ordering::Relaxed);
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
            self.stats.page_faults.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[idx(id)]
    }

    /// Every structural mutation flows through here, [`RTree::alloc`],
    /// or [`RTree::dealloc`] — so dropping the leaf-coordinate mirror
    /// at these three choke points keeps a stale column view from ever
    /// being scanned.
    #[inline]
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.soa = None;
        &mut self.nodes[idx(id)]
    }

    /// Allocates a node slot (reusing freed pages first).
    pub(crate) fn alloc(&mut self, node: Node) -> NodeId {
        self.soa = None;
        if let Some(id) = self.free.pop() {
            self.nodes[idx(id)] = node;
            id
        } else {
            let id = node_id(self.nodes.len());
            self.nodes.push(node);
            id
        }
    }

    /// Returns a node slot to the free list.
    pub(crate) fn dealloc(&mut self, id: NodeId) {
        self.soa = None;
        self.nodes[idx(id)] = Node::new_leaf();
        self.free.push(id);
    }

    /// Column view of a leaf's item coordinates, when the mirror is
    /// live (packed arena, unmutated since). The slices are exactly
    /// `node.items.len()` long and bit-identical to the item points,
    /// so scan kernels may use either representation interchangeably.
    #[inline]
    pub(crate) fn leaf_coords(&self, id: NodeId) -> Option<(&[f64], &[f64])> {
        let soa = self.soa.as_ref()?;
        // lbq-check: allow(lossy-cast) — u32 → usize is widening here
        let lo = soa.start[idx(id)] as usize;
        // lbq-check: allow(lossy-cast) — u32 → usize is widening here
        let hi = soa.start[idx(id) + 1] as usize;
        Some((&soa.xs[lo..hi], &soa.ys[lo..hi]))
    }

    /// Column view of an internal node's child MBRs, when the mirror is
    /// live. Slices are exactly `node.children.len()` long, in child
    /// order, bit-identical to `node.mbrs`.
    #[inline]
    #[allow(clippy::type_complexity)]
    pub(crate) fn child_mbr_cols(&self, id: NodeId) -> Option<(&[f64], &[f64], &[f64], &[f64])> {
        let soa = self.soa.as_ref()?;
        // lbq-check: allow(lossy-cast) — u32 → usize is widening here
        let lo = soa.cstart[idx(id)] as usize;
        // lbq-check: allow(lossy-cast) — u32 → usize is widening here
        let hi = soa.cstart[idx(id) + 1] as usize;
        Some((
            &soa.cxmin[lo..hi],
            &soa.cymin[lo..hi],
            &soa.cxmax[lo..hi],
            &soa.cymax[lo..hi],
        ))
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
        // 5. when the leaf-coordinate mirror is live, it must agree with
        //    the items bit-for-bit (the scan kernels treat the two
        //    representations as interchangeable).
        if let Some(soa) = &self.soa {
            if soa.start.len() != self.nodes.len() + 1 || soa.cstart.len() != self.nodes.len() + 1 {
                return Err(format!(
                    "coordinate mirror offsets cover {}/{} nodes, arena has {}",
                    soa.start.len().saturating_sub(1),
                    soa.cstart.len().saturating_sub(1),
                    self.nodes.len()
                ));
            }
            for (i, node) in self.nodes.iter().enumerate() {
                // lbq-check: allow(lossy-cast) — u32 → usize is widening here
                let (lo, hi) = (soa.start[i] as usize, soa.start[i + 1] as usize);
                if hi - lo != node.items.len() {
                    return Err(format!(
                        "leaf mirror slice for node {i} holds {} coords, node has {} items",
                        hi - lo,
                        node.items.len()
                    ));
                }
                for (j, item) in node.items.iter().enumerate() {
                    if soa.xs[lo + j].to_bits() != item.point.x.to_bits()
                        || soa.ys[lo + j].to_bits() != item.point.y.to_bits()
                    {
                        return Err(format!("leaf mirror coords diverge at node {i} slot {j}"));
                    }
                }
                // lbq-check: allow(lossy-cast) — u32 → usize is widening here
                let (clo, chi) = (soa.cstart[i] as usize, soa.cstart[i + 1] as usize);
                if chi - clo != node.mbrs.len() {
                    return Err(format!(
                        "child-MBR mirror slice for node {i} holds {} rects, node has {}",
                        chi - clo,
                        node.mbrs.len()
                    ));
                }
                for (j, mbr) in node.mbrs.iter().enumerate() {
                    if soa.cxmin[clo + j].to_bits() != mbr.xmin.to_bits()
                        || soa.cymin[clo + j].to_bits() != mbr.ymin.to_bits()
                        || soa.cxmax[clo + j].to_bits() != mbr.xmax.to_bits()
                        || soa.cymax[clo + j].to_bits() != mbr.ymax.to_bits()
                    {
                        return Err(format!("child-MBR mirror diverges at node {i} slot {j}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Alias of [`Self::check_invariants`] — the name used by the
    /// workspace-wide invariant layer (see `lbq_core::invariants`).
    pub fn validate(&self) -> Result<(), String> {
        self.check_invariants()
    }

    /// Debug-build invariant trap, threaded through the mutation paths
    /// (bulk load, delete, and amortized insert). Compiled out in
    /// release builds.
    // lbq-check: cold — debug_assertions-only; absent from the release builds the zero-alloc proof measures
    #[inline]
    pub(crate) fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.check_invariants() {
            // lbq-check: allow(no-unwrap-core) — debug-only invariant trap
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

    #[test]
    fn tree_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RTree>();
        // The serving layer relies on exactly this bound:
        assert_send_sync::<std::sync::Arc<RTree>>();
    }

    #[test]
    fn concurrent_readers_meter_every_access() {
        let mut t = RTree::new(RTreeConfig::tiny());
        for i in 0..300 {
            t.insert(Item::new(
                Point::new((i * 37 % 100) as f64, (i * 53 % 100) as f64),
                i,
            ));
        }
        let t = std::sync::Arc::new(t);
        let before = t.stats();
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let t = std::sync::Arc::clone(&t);
                std::thread::spawn(move || {
                    let mut per_thread = 0u64;
                    for i in 0..50 {
                        let q = Point::new((w * 13 + i) as f64 % 100.0, (i * 7) as f64 % 100.0);
                        let (_, s) = t.with_stats(|t| t.knn(q, 3));
                        per_thread += s.node_accesses;
                    }
                    per_thread
                })
            })
            .collect();
        let _ = handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>();
        let delta = t.stats().delta_since(before);
        // Relaxed increments lose nothing: the global meter advanced.
        // (Per-thread with_stats deltas overlap under concurrency, so
        // only the global total is asserted.)
        assert!(delta.node_accesses > 0);
        assert_eq!(delta.node_accesses, delta.page_faults); // unbuffered
    }

    #[test]
    fn empty_tree_shape() {
        let t = RTree::new(RTreeConfig::tiny());
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
        let mut t = RTree::new(RTreeConfig::tiny());
        for i in 0..100 {
            t.insert(Item::new(Point::new(i as f64, (i * 7 % 13) as f64), i));
        }
        let (_, s) = t.with_stats(|t| t.window(&Rect::new(0.0, 0.0, 50.0, 13.0)));
        assert!(s.node_accesses > 0);
        assert_eq!(s.node_accesses, s.page_faults);
    }

    #[test]
    fn metering_with_huge_buffer_faults_once_per_page() {
        let mut t = RTree::new(RTreeConfig::tiny());
        for i in 0..200 {
            t.insert(Item::new(
                Point::new((i * 37 % 100) as f64, (i * 17 % 100) as f64),
                i,
            ));
        }
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
        let mut t = RTree::new(RTreeConfig::tiny());
        for i in 0..200 {
            t.insert(Item::new(
                Point::new((i * 37 % 100) as f64, (i * 53 % 100) as f64),
                i,
            ));
        }
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
