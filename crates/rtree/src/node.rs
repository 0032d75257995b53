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
//! degenerate per-point `Rect` is ever materialized). STR bulk loading
//! fills the arrays directly and nothing changes them afterwards.

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
    /// An empty node at `level`.
    pub(crate) fn new(level: u32) -> Self {
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
    fn node_mbr_unions_slots() {
        let mut n = Node::new(0);
        assert!(n.mbr().is_none());
        n.items = vec![
            Item::new(Point::new(0.0, 0.0), 1),
            Item::new(Point::new(4.0, -2.0), 2),
            Item::new(Point::new(1.0, 5.0), 3),
        ];
        assert_eq!(n.mbr().unwrap(), Rect::new(0.0, -2.0, 4.0, 5.0));
        assert_eq!(n.len(), 3);
    }
}
