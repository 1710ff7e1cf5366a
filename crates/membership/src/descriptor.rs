//! Node descriptors: the unit of information exchanged by the membership
//! protocol.

use overlay_topology::NodeId;

/// A descriptor of a node as seen by the membership protocol: the node's
/// identifier plus the *age* of the information (number of membership cycles
/// since the descriptor was created by the node itself).
///
/// Fresh descriptors (small age) are evidence that the node was recently
/// alive; newscast's merge rule keeps the freshest descriptors, which is how
/// crashed nodes eventually disappear from all views without any explicit
/// failure detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeDescriptor {
    /// The described node.
    pub node: NodeId,
    /// Age of the descriptor in membership cycles.
    pub age: u32,
}

impl NodeDescriptor {
    /// Creates a brand-new (age 0) descriptor for `node`.
    pub(crate) fn fresh(node: NodeId) -> Self {
        NodeDescriptor { node, age: 0 }
    }

    /// Returns a copy of the descriptor aged by one cycle (saturating).
    pub(crate) fn aged(self) -> Self {
        NodeDescriptor {
            node: self.node,
            age: self.age.saturating_add(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_descriptors_have_age_zero() {
        let d = NodeDescriptor::fresh(NodeId::new(3));
        assert_eq!(d.node, NodeId::new(3));
        assert_eq!(d.age, 0);
    }

    #[test]
    fn aging_increments_and_saturates() {
        let node = NodeId::new(1);
        let d = NodeDescriptor { node, age: 4 };
        assert_eq!(d.aged().age, 5);
        let old = NodeDescriptor {
            node,
            age: u32::MAX,
        };
        assert_eq!(old.aged().age, u32::MAX);
    }

    #[test]
    fn descriptors_compare_by_value() {
        let node = NodeId::new(2);
        assert_eq!(NodeDescriptor::fresh(node), NodeDescriptor { node, age: 0 });
        assert_ne!(NodeDescriptor::fresh(node), NodeDescriptor { node, age: 1 });
    }
}
