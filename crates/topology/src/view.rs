//! Dynamic, view-based topology.

use crate::{NodeId, Topology};
use rand::{Rng, RngCore};

/// A topology defined by per-node *views* (directed neighbour lists) that can
/// be updated at run time.
///
/// The paper assumes that "each node has a non-empty set of neighbors"
/// maintained by some membership protocol (its references [5, 7, 9]). The
/// `peer-sampling` crate implements such a protocol (newscast); `ViewTopology`
/// is the bridge type: it holds the current partial views of every node and
/// exposes them through the [`Topology`] trait so that the aggregation
/// protocol and the simulator can consume membership-provided neighbourhoods
/// exactly like static graphs.
///
/// Views are *directed*: node `i` listing `j` does not imply `j` lists `i`.
/// This mirrors how gossip membership protocols work in practice; the
/// anti-entropy exchange itself is still symmetric once a partner is chosen.
///
/// # Example
///
/// ```
/// use overlay_topology::{NodeId, Topology, ViewTopology};
/// use rand::SeedableRng;
///
/// let mut views = ViewTopology::new(3);
/// views.set_view(NodeId::new(0), vec![NodeId::new(1), NodeId::new(2)]);
/// views.set_view(NodeId::new(1), vec![NodeId::new(0)]);
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// assert!(views.random_neighbor(NodeId::new(0), &mut rng).is_some());
/// assert!(views.random_neighbor(NodeId::new(2), &mut rng).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewTopology {
    views: Vec<Vec<NodeId>>,
}

impl ViewTopology {
    /// Creates a view topology over `nodes` nodes with empty views.
    pub fn new(nodes: usize) -> Self {
        ViewTopology {
            views: vec![Vec::new(); nodes],
        }
    }

    /// Replaces the view of `node`.
    ///
    /// Entries pointing at the node itself or outside the node range are
    /// silently dropped, so a membership protocol can hand over its raw view.
    ///
    /// # Panics
    ///
    /// Panics if `node` itself is out of range.
    pub fn set_view(&mut self, node: NodeId, view: Vec<NodeId>) {
        let n = self.views.len();
        assert!(node.index() < n, "node {node} out of range");
        self.views[node.index()] = view
            .into_iter()
            .filter(|peer| peer.index() < n && *peer != node)
            .collect();
    }

    /// Returns the current view of `node` as a slice.
    pub fn view(&self, node: NodeId) -> &[NodeId] {
        &self.views[node.index()]
    }
}

impl Topology for ViewTopology {
    fn len(&self) -> usize {
        self.views.len()
    }

    fn degree(&self, node: NodeId) -> usize {
        self.views[node.index()].len()
    }

    fn random_neighbor(&self, node: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        let view = &self.views[node.index()];
        if view.is_empty() {
            None
        } else {
            Some(view[rng.gen_range(0..view.len())])
        }
    }

    fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.views[node.index()].clone()
    }

    fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a.index() >= self.len() || b.index() >= self.len() {
            return false;
        }
        self.views[a.index()].contains(&b) || self.views[b.index()].contains(&a)
    }

    fn random_edge(&self, rng: &mut dyn RngCore) -> Option<(NodeId, NodeId)> {
        let total: usize = self.views.iter().map(|v| v.len()).sum();
        if total == 0 {
            return None;
        }
        // Pick a directed view entry uniformly; this weights nodes by out-degree,
        // which is the natural analogue of uniform edge selection for views.
        let mut idx = rng.gen_range(0..total);
        for (node, view) in self.views.iter().enumerate() {
            if idx < view.len() {
                return Some((NodeId::new(node), view[idx]));
            }
            idx -= view.len();
        }
        unreachable!("index bounded by total view size")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(17)
    }

    #[test]
    fn set_view_filters_invalid_entries() {
        let mut t = ViewTopology::new(3);
        t.set_view(
            NodeId::new(0),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(9)],
        );
        assert_eq!(t.view(NodeId::new(0)), &[NodeId::new(1)]);
        assert_eq!(t.degree(NodeId::new(0)), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_view_panics_for_unknown_node() {
        let mut t = ViewTopology::new(2);
        t.set_view(NodeId::new(5), vec![]);
    }

    #[test]
    fn random_neighbor_draws_from_view_only() {
        let mut t = ViewTopology::new(5);
        t.set_view(NodeId::new(2), vec![NodeId::new(0), NodeId::new(4)]);
        let mut r = rng();
        for _ in 0..100 {
            let nb = t.random_neighbor(NodeId::new(2), &mut r).unwrap();
            assert!(nb == NodeId::new(0) || nb == NodeId::new(4));
        }
        assert!(t.random_neighbor(NodeId::new(1), &mut r).is_none());
    }

    #[test]
    fn contains_edge_is_true_for_either_direction() {
        let mut t = ViewTopology::new(3);
        t.set_view(NodeId::new(0), vec![NodeId::new(1)]);
        assert!(t.contains_edge(NodeId::new(0), NodeId::new(1)));
        assert!(t.contains_edge(NodeId::new(1), NodeId::new(0)));
        assert!(!t.contains_edge(NodeId::new(1), NodeId::new(2)));
        assert!(!t.contains_edge(NodeId::new(1), NodeId::new(9)));
    }

    #[test]
    fn random_edge_respects_views() {
        let mut t = ViewTopology::new(4);
        t.set_view(NodeId::new(0), vec![NodeId::new(1)]);
        t.set_view(NodeId::new(2), vec![NodeId::new(3)]);
        let mut r = rng();
        for _ in 0..50 {
            let (from, to) = t.random_edge(&mut r).unwrap();
            assert!(t.view(from).contains(&to));
        }
    }

    #[test]
    fn random_edge_of_empty_views_is_none() {
        let t = ViewTopology::new(4);
        let mut r = rng();
        assert!(t.random_edge(&mut r).is_none());
    }
}
