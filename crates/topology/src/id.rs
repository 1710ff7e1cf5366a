//! Node identifiers.

use std::fmt;

/// A compact identifier for a node of the overlay network.
///
/// Nodes are numbered densely from `0` to `N − 1`; the identifier is a thin
/// newtype around `u32`, which comfortably covers the network sizes studied in
/// the paper (up to 100 000 nodes) and far beyond, while keeping adjacency
/// lists half the size of a `usize`-based representation.
///
/// # Example
///
/// ```
/// use overlay_topology::NodeId;
///
/// let id = NodeId::new(41);
/// assert_eq!(id.index(), 41);
/// assert_eq!(format!("{id}"), "n41");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`.
    pub fn new(index: usize) -> Self {
        // lint-allow(unwrap): documented `# Panics` contract of NodeId::new
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }

    /// Creates a node identifier from a raw `u32` value.
    pub const fn from_u32(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Returns the identifier as a dense `usize` index, suitable for indexing
    /// per-node state vectors.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> Self {
        id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn new_and_index_round_trip() {
        for raw in [0usize, 1, 17, 99_999, u32::MAX as usize] {
            assert_eq!(NodeId::new(raw).index(), raw);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn new_panics_on_overflow() {
        let _ = NodeId::new(u32::MAX as usize + 1);
    }

    #[test]
    fn conversions_are_consistent() {
        let id = NodeId::from(7u32);
        assert_eq!(u32::from(id), 7);
        assert_eq!(usize::from(id), 7);
        assert_eq!(id, NodeId::from_u32(7));
        assert_eq!(id.as_u32(), 7);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(NodeId::new(10) > NodeId::new(9));
        assert_eq!(NodeId::new(4), NodeId::new(4));
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let id = NodeId::new(3);
        assert_eq!(format!("{id}"), "n3");
        assert_eq!(format!("{id:?}"), "NodeId(3)");
    }

    #[test]
    fn usable_as_hash_key() {
        let mut set = HashSet::new();
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(2));
        assert_eq!(set.len(), 2);
    }
}
