//! Node and entry representation — struct-of-arrays storage.
//!
//! Nodes live in an arena (`Vec<Node>`) inside [`crate::RTree`]; a
//! [`NodeId`] is an index into it. Each node corresponds to one disk
//! page in the cost model.
//!
//! Storage is split by node kind so the query hot paths scan contiguous
//! arrays instead of chasing an enum per slot: internal nodes hold
//! parallel `mbrs`/`children` vectors (a `mindist`/intersection sweep
//! touches only the rect array), leaves hold a plain `items` vector (no
//! degenerate per-point `Rect` is ever materialized). The [`Entry`] enum
//! survives as the *transient* currency of the mutation paths (insert,
//! split, forced reinsertion, bulk packing), which shuffle heterogeneous
//! slot lists around and are not performance-critical.

use lbq_geom::{Point, Rect};

/// Index of a node in the tree arena. Doubles as the *page id* in the
/// buffer-pool cost model.
pub type NodeId = u32;

/// A data object: a point plus an opaque record identifier.
///
/// `id` is what a real system would store as the record pointer; the
/// workloads use it to identify objects across queries (influence sets,
/// result diffs) without comparing floating-point coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Where the object is.
    pub point: Point,
    /// The opaque record identifier.
    pub id: u64,
}

impl Item {
    /// Convenience constructor.
    #[inline]
    pub fn new(point: Point, id: u64) -> Self {
        Item { point, id }
    }
}

/// One logical slot of a node, materialized only on the mutation paths
/// (queries read the split arrays directly).
#[derive(Debug, Clone)]
pub(crate) enum Entry {
    /// Internal entry: child page and its minimum bounding rectangle.
    Child { mbr: Rect, node: NodeId },
    /// Leaf entry: a data point.
    Leaf(Item),
}

impl Entry {
    /// The MBR of the entry (degenerate rectangle for a point).
    #[inline]
    pub(crate) fn mbr(&self) -> Rect {
        match self {
            Entry::Child { mbr, .. } => *mbr,
            Entry::Leaf(item) => Rect::from_point(item.point),
        }
    }

    /// The child id of an internal entry. Panics on leaf entries —
    /// callers always know the level they are traversing.
    #[inline]
    pub(crate) fn child(&self) -> NodeId {
        match self {
            Entry::Child { node, .. } => *node,
            #[expect(clippy::panic, reason = "typed-level traversal contract")]
            Entry::Leaf(_) => panic!("child() on a leaf entry"),
        }
    }

    /// The item of a leaf entry. Panics on internal entries. Queries
    /// read leaf items directly from the SoA arrays; this accessor
    /// remains for tests and future mutation-path use.
    #[cfg_attr(
        not(test),
        expect(dead_code, reason = "queries read leaf items from the SoA arrays")
    )]
    #[inline]
    pub(crate) fn item(&self) -> Item {
        match self {
            Entry::Leaf(item) => *item,
            #[expect(clippy::panic, reason = "typed-level traversal contract")]
            Entry::Child { .. } => panic!("item() on an internal entry"),
        }
    }
}

/// A tree node — one disk page, stored struct-of-arrays.
///
/// Exactly one representation is populated per node: leaves (level 0)
/// use `items`; internal nodes use the parallel `mbrs` + `children`
/// pair. The unused vectors stay empty (a `Vec` at capacity 0 costs
/// three words and no heap).
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// Level in the tree: 0 for leaves, increasing toward the root.
    pub level: u32,
    /// Internal nodes: child MBRs, index-parallel with `children`.
    pub mbrs: Vec<Rect>,
    /// Internal nodes: child page ids.
    pub children: Vec<NodeId>,
    /// Leaf nodes: the data points.
    pub items: Vec<Item>,
}

impl Node {
    pub(crate) fn new_leaf() -> Self {
        Node {
            level: 0,
            mbrs: Vec::new(),
            children: Vec::new(),
            items: Vec::new(),
        }
    }

    pub(crate) fn new_internal(level: u32) -> Self {
        debug_assert!(level > 0);
        Node {
            level,
            mbrs: Vec::new(),
            children: Vec::new(),
            items: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of occupied slots (entries) in this node.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        if self.is_leaf() {
            self.items.len()
        } else {
            self.children.len()
        }
    }

    /// Appends a slot, dispatching on the entry kind. Debug-asserts the
    /// kind matches the node level.
    pub(crate) fn push_entry(&mut self, entry: Entry) {
        match entry {
            Entry::Child { mbr, node } => {
                debug_assert!(!self.is_leaf(), "child entry pushed into a leaf");
                self.mbrs.push(mbr);
                self.children.push(node);
            }
            Entry::Leaf(item) => {
                debug_assert!(self.is_leaf(), "leaf entry pushed into an internal node");
                self.items.push(item);
            }
        }
    }

    /// Drains this node's slots into a transient entry list (mutation
    /// paths only), leaving the node empty.
    pub(crate) fn take_entries(&mut self) -> Vec<Entry> {
        if self.is_leaf() {
            self.items.drain(..).map(Entry::Leaf).collect()
        } else {
            self.mbrs
                .drain(..)
                .zip(self.children.drain(..))
                .map(|(mbr, node)| Entry::Child { mbr, node })
                .collect()
        }
    }

    /// Replaces this node's slots from a transient entry list.
    pub(crate) fn set_entries(&mut self, entries: Vec<Entry>) {
        self.mbrs.clear();
        self.children.clear();
        self.items.clear();
        for e in entries {
            self.push_entry(e);
        }
    }

    /// Builds a node at `level` from a transient entry list.
    pub(crate) fn from_entries(level: u32, entries: Vec<Entry>) -> Self {
        let mut node = Node {
            level,
            mbrs: Vec::new(),
            children: Vec::new(),
            items: Vec::new(),
        };
        node.set_entries(entries);
        node
    }

    /// Removes the slot at `i` (internal nodes; used by delete's
    /// condense step).
    pub(crate) fn remove_child(&mut self, i: usize) {
        debug_assert!(!self.is_leaf());
        self.mbrs.remove(i);
        self.children.remove(i);
    }

    /// The node's own MBR — the union of its slots' MBRs. `None` for an
    /// empty node (only the root of an empty tree).
    pub(crate) fn mbr(&self) -> Option<Rect> {
        if self.is_leaf() {
            let mut it = self.items.iter();
            let mut r = Rect::from_point(it.next()?.point);
            for item in it {
                r.expand_to(item.point);
            }
            Some(r)
        } else {
            let mut it = self.mbrs.iter();
            let mut r = *it.next()?;
            for m in it {
                r.expand_to_rect(m);
            }
            Some(r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_mbr_of_point_is_degenerate() {
        let e = Entry::Leaf(Item::new(Point::new(2.0, 3.0), 7));
        let r = e.mbr();
        assert_eq!(r, Rect::new(2.0, 3.0, 2.0, 3.0));
        assert_eq!(e.item().id, 7);
    }

    #[test]
    fn node_mbr_unions_slots() {
        let mut n = Node::new_leaf();
        assert!(n.mbr().is_none());
        n.push_entry(Entry::Leaf(Item::new(Point::new(0.0, 0.0), 1)));
        n.push_entry(Entry::Leaf(Item::new(Point::new(4.0, -2.0), 2)));
        n.push_entry(Entry::Leaf(Item::new(Point::new(1.0, 5.0), 3)));
        assert_eq!(n.mbr().unwrap(), Rect::new(0.0, -2.0, 4.0, 5.0));
        assert_eq!(n.len(), 3);
    }

    #[test]
    fn entries_roundtrip_preserves_order() {
        let mut n = Node::new_internal(2);
        n.push_entry(Entry::Child {
            mbr: Rect::new(0.0, 0.0, 1.0, 1.0),
            node: 4,
        });
        n.push_entry(Entry::Child {
            mbr: Rect::new(2.0, 2.0, 3.0, 3.0),
            node: 9,
        });
        let entries = n.take_entries();
        assert_eq!(n.len(), 0);
        assert_eq!(entries.len(), 2);
        let rebuilt = Node::from_entries(2, entries);
        assert_eq!(rebuilt.children, vec![4, 9]);
        assert_eq!(rebuilt.mbrs[1], Rect::new(2.0, 2.0, 3.0, 3.0));
    }

    #[test]
    #[should_panic]
    fn child_on_leaf_panics() {
        let e = Entry::Leaf(Item::new(Point::ORIGIN, 0));
        let _ = e.child();
    }

    #[test]
    #[should_panic]
    fn item_on_internal_panics() {
        let e = Entry::Child {
            mbr: Rect::new(0.0, 0.0, 1.0, 1.0),
            node: 3,
        };
        let _ = e.item();
    }
}
