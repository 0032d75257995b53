//! R\*-tree insertion (ChooseSubtree, forced reinsertion, the R\* split)
//! and deletion with tree condensing `[BKSS90]`.

use crate::node::{Entry, Item, Node, NodeId};
use crate::tree::RTree;
use crate::util::idx;
use lbq_geom::{Point, Rect};

/// Maximum tree height supported by the per-level reinsertion flags.
/// With a fan-out ≥ 4 this allows ≥ 4³² ≈ 10¹⁹ items.
const MAX_LEVELS: usize = 32;

/// Result of a recursive insertion step, bubbled toward the root.
enum Propagate {
    /// Nothing further to do; ancestors only refresh MBRs.
    Done,
    /// The child split; the new sibling entry must be added to the
    /// parent (or become part of a new root).
    Split(Entry),
    /// Forced reinsertion: these entries were evicted from a node at
    /// `level` and must be re-inserted from the top.
    Reinsert(Vec<Entry>, u32),
}

impl RTree {
    /// Inserts a data point. Amortized O(log n) node touches;
    /// construction is unmetered (the paper measures query cost on
    /// pre-built trees).
    pub fn insert(&mut self, item: Item) {
        assert!(item.point.is_finite(), "cannot index a non-finite point");
        let mut reinserted = [false; MAX_LEVELS];
        self.insert_from_root(Entry::Leaf(item), 0, &mut reinserted);
        self.len += 1;
        debug_assert!((self.nodes[idx(self.root)].level as usize) < MAX_LEVELS);
        // Full validation on every insert would make debug test runs
        // O(n²); amortize by validating at powers of two.
        if self.len.is_power_of_two() {
            self.debug_validate();
        }
    }

    /// Inserts `entry` into some node at `target_level`, handling root
    /// splits and re-insertion cascades.
    fn insert_from_root(
        &mut self,
        entry: Entry,
        target_level: u32,
        reinserted: &mut [bool; MAX_LEVELS],
    ) {
        match self.insert_rec(self.root, entry, target_level, reinserted) {
            Propagate::Done => {}
            Propagate::Split(sibling) => self.grow_root(sibling),
            Propagate::Reinsert(entries, level) => {
                for e in entries {
                    self.insert_from_root(e, level, reinserted);
                }
            }
        }
    }

    /// Adds a level: the old root and `sibling` become children of a new
    /// root.
    fn grow_root(&mut self, sibling: Entry) {
        let old_root = self.root;
        #[expect(clippy::expect_used, reason = "a node only splits on overflow")]
        let old_mbr = self
            .node(old_root)
            .mbr()
            .expect("split root cannot be empty");
        let level = self.node(old_root).level + 1;
        let mut root = Node::new_internal(level);
        root.push_entry(Entry::Child {
            mbr: old_mbr,
            node: old_root,
        });
        root.push_entry(sibling);
        self.root = self.alloc(root);
    }

    fn insert_rec(
        &mut self,
        node_id: NodeId,
        entry: Entry,
        target_level: u32,
        reinserted: &mut [bool; MAX_LEVELS],
    ) -> Propagate {
        let node_level = self.node(node_id).level;
        if node_level == target_level {
            self.node_mut(node_id).push_entry(entry);
        } else {
            let idx = self.choose_subtree(node_id, &entry.mbr());
            let child = self.node(node_id).children[idx];
            let result = self.insert_rec(child, entry, target_level, reinserted);
            // The child changed shape whatever happened; refresh its MBR.
            #[expect(clippy::expect_used, reason = "insertion only adds entries")]
            let child_mbr = self.node(child).mbr().expect("child emptied during insert");
            self.node_mut(node_id).mbrs[idx] = child_mbr;
            match result {
                Propagate::Done => {}
                Propagate::Reinsert(..) => return result,
                Propagate::Split(sibling) => self.node_mut(node_id).push_entry(sibling),
            }
        }

        if self.node(node_id).len() <= self.config.max_entries {
            return Propagate::Done;
        }
        // Overflow treatment (R* OT1): the first overflow at each level
        // of one logical insertion triggers forced reinsertion; later
        // overflows (and the root) split.
        // u32 → usize is widening here
        let lvl = node_level as usize;
        if node_id != self.root && self.config.reinsert_count > 0 && !reinserted[lvl] {
            reinserted[lvl] = true;
            let evicted = self.forced_reinsert(node_id);
            return Propagate::Reinsert(evicted, node_level);
        }
        Propagate::Split(self.split_node(node_id))
    }

    /// R\* ChooseSubtree. At the level just above the leaves the child
    /// minimizing *overlap* enlargement wins (evaluated on the
    /// `CANDIDATES` children of least area enlargement, as in the
    /// original paper); higher up, least *area* enlargement wins. Ties
    /// break by smaller area, then by index for determinism.
    #[expect(
        clippy::expect_used,
        reason = "internal nodes are non-empty, so order starts with ≥ 1 index"
    )]
    fn choose_subtree(&self, node_id: NodeId, mbr: &Rect) -> usize {
        const CANDIDATES: usize = 32;
        let node = self.node(node_id);
        debug_assert!(!node.is_leaf());
        let scored = |i: usize| {
            let r = node.mbrs[i];
            let area = r.area();
            let enlarged = r.union(mbr).area() - area;
            (enlarged, area)
        };
        if node.level > 1 {
            return (0..node.children.len())
                .min_by(|&a, &b| {
                    let (ea, aa) = scored(a);
                    let (eb, ab) = scored(b);
                    ea.total_cmp(&eb).then(aa.total_cmp(&ab))
                })
                .expect("internal node has entries");
        }
        // Children are leaves: rank by area enlargement, evaluate overlap
        // enlargement on the best few.
        let mut order: Vec<usize> = (0..node.children.len()).collect();
        order.sort_by(|&a, &b| {
            let (ea, aa) = scored(a);
            let (eb, ab) = scored(b);
            ea.total_cmp(&eb).then(aa.total_cmp(&ab))
        });
        order.truncate(CANDIDATES);
        let overlap_of = |i: usize, shape: &Rect| -> f64 {
            node.mbrs
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, r)| r.overlap_area(shape))
                .sum()
        };
        *order
            .iter()
            .min_by(|&&a, &&b| {
                let ra = node.mbrs[a];
                let rb = node.mbrs[b];
                let da = overlap_of(a, &ra.union(mbr)) - overlap_of(a, &ra);
                let db = overlap_of(b, &rb.union(mbr)) - overlap_of(b, &rb);
                let (ea, aa) = scored(a);
                let (eb, ab) = scored(b);
                da.total_cmp(&db)
                    .then(ea.total_cmp(&eb))
                    .then(aa.total_cmp(&ab))
            })
            .expect("candidate list non-empty")
    }

    /// Evicts the `reinsert_count` entries whose centers are farthest
    /// from the node's MBR center, returning them closest-first (the R\*
    /// "close reinsert" variant, which the original paper found best).
    fn forced_reinsert(&mut self, node_id: NodeId) -> Vec<Entry> {
        let p = self.config.reinsert_count;
        #[expect(clippy::expect_used, reason = "reinsertion implies overflow")]
        let center = self
            .node(node_id)
            .mbr()
            .expect("overflowing node is non-empty")
            .center();
        let node = self.node_mut(node_id);
        let mut entries = node.take_entries();
        entries.sort_by(|a, b| {
            let da = a.mbr().center().dist_sq(center);
            let db = b.mbr().center().dist_sq(center);
            da.total_cmp(&db)
        });
        let keep = entries.len() - p;
        // Tail = farthest entries; reverse so the closest evictee is
        // re-inserted first.
        let mut evicted = entries.split_off(keep);
        evicted.reverse();
        node.set_entries(entries);
        evicted
    }

    /// The R\* split. Returns the parent entry for the newly allocated
    /// sibling; `node_id` keeps the first group.
    fn split_node(&mut self, node_id: NodeId) -> Entry {
        let level = self.node(node_id).level;
        let mut entries = self.node_mut(node_id).take_entries();
        let m = self.config.min_entries;
        let total = entries.len();
        debug_assert!(total == self.config.max_entries + 1);

        // ChooseSplitAxis: the axis (and sort key: lower vs upper
        // coordinate) minimizing the summed margins of all candidate
        // distributions.
        let mut best: Option<(f64, usize, bool)> = None; // (margin, axis, by_upper)
        for axis in 0..2 {
            for by_upper in [false, true] {
                sort_entries(&mut entries, axis, by_upper);
                let (lo_bbs, hi_bbs) = prefix_suffix_bbs(&entries);
                let mut margin_sum = 0.0;
                for k in m..=(total - m) {
                    margin_sum += lo_bbs[k - 1].margin() + hi_bbs[k].margin();
                }
                if best.is_none_or(|(bm, _, _)| margin_sum < bm) {
                    best = Some((margin_sum, axis, by_upper));
                }
            }
        }
        #[expect(clippy::expect_used, reason = "the loop above always sets `best`")]
        let (_, axis, by_upper) = best.expect("at least one axis evaluated");
        sort_entries(&mut entries, axis, by_upper);

        // ChooseSplitIndex: among distributions on the chosen axis, pick
        // minimal overlap, ties by minimal total area.
        let (lo_bbs, hi_bbs) = prefix_suffix_bbs(&entries);
        let mut split_at = m;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for k in m..=(total - m) {
            let a = lo_bbs[k - 1];
            let b = hi_bbs[k];
            let key = (a.overlap_area(&b), a.area() + b.area());
            if key < best_key {
                best_key = key;
                split_at = k;
            }
        }

        let second = entries.split_off(split_at);
        self.node_mut(node_id).set_entries(entries);
        let sibling = Node::from_entries(level, second);
        #[expect(clippy::expect_used, reason = "both split groups hold ≥ min entries")]
        let mbr = sibling.mbr().expect("split group non-empty");
        // `alloc` needs &mut self; build the node first.
        let node = self.alloc(sibling);
        Entry::Child { mbr, node }
    }

    /// Removes the item with the given point and id. Returns `true` when
    /// found. Under-full nodes are dissolved and their entries
    /// re-inserted (the classic CondenseTree), and a single-child root is
    /// collapsed.
    pub fn delete(&mut self, point: Point, id: u64) -> bool {
        let mut orphans: Vec<(Entry, u32)> = Vec::new();
        let found = self.delete_rec(self.root, point, id, &mut orphans);
        if !found {
            debug_assert!(orphans.is_empty());
            return false;
        }
        self.len -= 1;
        // Collapse a root that lost all but one child (repeatedly, in
        // case orphan reinsertion is still pending below).
        loop {
            let root = self.node(self.root);
            if !root.is_leaf() && root.len() == 1 {
                let child = root.children[0];
                let old = self.root;
                self.root = child;
                self.dealloc(old);
            } else {
                break;
            }
        }
        let mut reinserted = [false; MAX_LEVELS];
        for (entry, level) in orphans {
            self.insert_from_root(entry, level, &mut reinserted);
        }
        self.debug_validate();
        true
    }

    /// Depth-first search for the item; returns whether it was removed
    /// below `node_id`. Dissolving children are appended to `orphans`.
    fn delete_rec(
        &mut self,
        node_id: NodeId,
        point: Point,
        id: u64,
        orphans: &mut Vec<(Entry, u32)>,
    ) -> bool {
        if self.node(node_id).is_leaf() {
            let node = self.node_mut(node_id);
            let before = node.items.len();
            node.items
                .retain(|item| !(item.id == id && item.point == point));
            return node.items.len() < before;
        }
        let candidates: Vec<(usize, NodeId)> = {
            let node = self.node(node_id);
            node.mbrs
                .iter()
                .zip(&node.children)
                .enumerate()
                .filter(|(_, (mbr, _))| mbr.contains(point))
                .map(|(i, (_, &child))| (i, child))
                .collect()
        };
        for (idx, child) in candidates {
            if !self.delete_rec(child, point, id, orphans) {
                continue;
            }
            let child_len = self.node(child).len();
            if child_len < self.config.min_entries {
                // Dissolve the child: detach it and queue its entries.
                let level = self.node(child).level;
                let entries = self.node_mut(child).take_entries();
                orphans.extend(entries.into_iter().map(|e| (e, level)));
                self.node_mut(node_id).remove_child(idx);
                self.dealloc(child);
            } else if let Some(mbr) = self.node(child).mbr() {
                self.node_mut(node_id).mbrs[idx] = mbr;
            }
            return true;
        }
        false
    }
}

/// Sorts entries by MBR lower (or upper) coordinate on `axis`, tie-broken
/// by the other bound for determinism.
fn sort_entries(entries: &mut [Entry], axis: usize, by_upper: bool) {
    entries.sort_by(|a, b| {
        let (ra, rb) = (a.mbr(), b.mbr());
        let key = |r: &Rect| -> (f64, f64) {
            match (axis, by_upper) {
                (0, false) => (r.xmin, r.xmax),
                (0, true) => (r.xmax, r.xmin),
                (1, false) => (r.ymin, r.ymax),
                (_, _) => (r.ymax, r.ymin),
            }
        };
        let (a1, a2) = key(&ra);
        let (b1, b2) = key(&rb);
        a1.total_cmp(&b1).then(a2.total_cmp(&b2))
    });
}

/// For a sorted entry slice, returns `(prefix, suffix)` where
/// `prefix[i]` bounds entries `0..=i` and `suffix[i]` bounds `i..`.
fn prefix_suffix_bbs(entries: &[Entry]) -> (Vec<Rect>, Vec<Rect>) {
    let n = entries.len();
    let mut prefix = Vec::with_capacity(n);
    let mut bb = entries[0].mbr();
    prefix.push(bb);
    for e in &entries[1..] {
        bb.expand_to_rect(&e.mbr());
        prefix.push(bb);
    }
    let mut suffix = vec![entries[n - 1].mbr(); n];
    for i in (0..n - 1).rev() {
        let mut bb = entries[i].mbr();
        bb.expand_to_rect(&suffix[i + 1]);
        suffix[i] = bb;
    }
    (prefix, suffix)
}

#[cfg(test)]
mod tests {
    use crate::{Item, RTree, RTreeConfig};
    use lbq_geom::Point;

    /// Deterministic pseudo-random point stream (splitmix64-based).
    fn points(n: usize, seed: u64) -> Vec<Item> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|i| {
                let x = (next() >> 11) as f64 / (1u64 << 53) as f64;
                let y = (next() >> 11) as f64 / (1u64 << 53) as f64;
                Item::new(Point::new(x, y), i as u64)
            })
            .collect()
    }

    #[test]
    fn insert_preserves_invariants() {
        let mut t = RTree::new(RTreeConfig::tiny());
        for (i, item) in points(500, 42).into_iter().enumerate() {
            t.insert(item);
            if i % 50 == 0 {
                t.check_invariants().unwrap();
            }
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 3, "tiny fan-out must force a deep tree");
        assert_eq!(t.iter_items().count(), 500);
    }

    #[test]
    fn duplicate_points_coexist() {
        let mut t = RTree::new(RTreeConfig::tiny());
        let p = Point::new(0.5, 0.5);
        for i in 0..40 {
            t.insert(Item::new(p, i));
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 40);
    }

    #[test]
    fn delete_roundtrip() {
        let mut t = RTree::new(RTreeConfig::tiny());
        let items = points(300, 7);
        for &item in &items {
            t.insert(item);
        }
        // Delete every other item.
        for item in items.iter().step_by(2) {
            assert!(t.delete(item.point, item.id), "must find {item:?}");
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 150);
        // Remaining items all retrievable.
        let left: std::collections::HashSet<u64> = t.iter_items().map(|i| i.id).collect();
        for (i, item) in items.iter().enumerate() {
            assert_eq!(left.contains(&item.id), i % 2 == 1);
        }
        // Deleting a missing item is a no-op.
        assert!(!t.delete(items[0].point, items[0].id));
        assert_eq!(t.len(), 150);
    }

    #[test]
    fn delete_everything_collapses_tree() {
        let mut t = RTree::new(RTreeConfig::tiny());
        let items = points(120, 99);
        for &item in &items {
            t.insert(item);
        }
        for &item in &items {
            assert!(t.delete(item.point, item.id));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.check_invariants().unwrap();
        // The tree remains usable.
        t.insert(Item::new(Point::new(0.1, 0.2), 1000));
        assert_eq!(t.len(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn no_reinsert_config_still_valid() {
        let mut cfg = RTreeConfig::tiny();
        cfg.reinsert_count = 0;
        let mut t = RTree::new(cfg);
        for item in points(400, 5) {
            t.insert(item);
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 400);
    }

    #[test]
    fn clustered_duplicates_and_collinear_points() {
        // Pathological inputs: all on a line, many duplicates.
        let mut t = RTree::new(RTreeConfig::tiny());
        let mut id = 0;
        for i in 0..60 {
            t.insert(Item::new(Point::new(i as f64, 0.0), id));
            id += 1;
            t.insert(Item::new(Point::new((i / 10) as f64, 0.0), id));
            id += 1;
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 120);
    }

    #[test]
    #[should_panic]
    fn rejects_nan() {
        let mut t = RTree::new(RTreeConfig::tiny());
        t.insert(Item::new(Point::new(f64::NAN, 0.0), 0));
    }
}
