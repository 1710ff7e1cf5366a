//! Virtual complete topology.

use crate::{sampling, NodeId, Topology};
use rand::{Rng, RngCore};

/// A *virtual* complete graph over `n` nodes.
///
/// The paper's theoretical analysis (Section 3.3) assumes the overlay is the
/// complete graph: "whenever a random neighbor has to be selected, it can be
/// considered as sampling the whole set of nodes". Materialising the
/// `N·(N−1)/2` edges for `N = 100 000` (Figure 3) would require tens of
/// gigabytes, so this type answers every [`Topology`] query arithmetically
/// instead of storing adjacency lists.
///
/// # Example
///
/// ```
/// use overlay_topology::{CompleteTopology, NodeId, Topology};
/// use rand::SeedableRng;
///
/// let topo = CompleteTopology::new(100_000);
/// assert_eq!(topo.degree(NodeId::new(0)), 99_999);
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let peer = topo.random_neighbor(NodeId::new(42), &mut rng).unwrap();
/// assert_ne!(peer, NodeId::new(42));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompleteTopology {
    nodes: usize,
}

impl CompleteTopology {
    /// Creates a complete topology over `nodes` nodes.
    pub const fn new(nodes: usize) -> Self {
        CompleteTopology { nodes }
    }

    fn assert_in_range(&self, node: NodeId) {
        assert!(
            node.index() < self.nodes,
            "node {node} out of range for complete topology of {} nodes",
            self.nodes
        );
    }
}

impl Topology for CompleteTopology {
    fn len(&self) -> usize {
        self.nodes
    }

    fn degree(&self, node: NodeId) -> usize {
        self.assert_in_range(node);
        self.nodes - 1
    }

    fn random_neighbor(&self, node: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        if self.nodes < 2 || node.index() >= self.nodes {
            return None;
        }
        // Draw from 0..n-1 and skip over the node itself: uniform over the
        // other n-1 nodes with a single RNG call.
        let raw = rng.gen_range(0..self.nodes - 1);
        let neighbor = if raw >= node.index() { raw + 1 } else { raw };
        Some(NodeId::new(neighbor))
    }

    fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.assert_in_range(node);
        (0..self.nodes)
            .filter(|&i| i != node.index())
            .map(NodeId::new)
            .collect()
    }

    fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        a != b && a.index() < self.nodes && b.index() < self.nodes
    }

    fn random_edge(&self, rng: &mut dyn RngCore) -> Option<(NodeId, NodeId)> {
        if self.nodes < 2 {
            return None;
        }
        let (a, b) = sampling::sample_distinct_pair(self.nodes, rng)?;
        Some((NodeId::new(a), NodeId::new(b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    #[test]
    fn len_and_degree() {
        let t = CompleteTopology::new(10);
        assert_eq!(t.len(), 10);
        for i in 0..10 {
            assert_eq!(t.degree(NodeId::new(i)), 9);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn degree_panics_out_of_range() {
        let t = CompleteTopology::new(3);
        let _ = t.degree(NodeId::new(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn neighbors_panics_out_of_range() {
        let t = CompleteTopology::new(3);
        let _ = t.neighbors(NodeId::new(3));
    }

    #[test]
    fn random_neighbor_never_returns_self_and_covers_everyone() {
        let t = CompleteTopology::new(8);
        let mut r = rng();
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            let nb = t.random_neighbor(NodeId::new(3), &mut r).unwrap();
            assert_ne!(nb, NodeId::new(3));
            assert!(nb.index() < 8);
            seen.insert(nb);
        }
        assert_eq!(seen.len(), 7, "all other nodes should eventually be drawn");
    }

    #[test]
    fn random_neighbor_uniformity_chi_square_sanity() {
        // With n=5 and node 0, the 4 possible neighbours should be roughly
        // equally likely. We only assert loose bounds (not a strict test).
        let t = CompleteTopology::new(5);
        let mut r = rng();
        let mut counts = [0usize; 5];
        let draws = 20_000;
        for _ in 0..draws {
            let nb = t.random_neighbor(NodeId::new(0), &mut r).unwrap();
            counts[nb.index()] += 1;
        }
        assert_eq!(counts[0], 0);
        for &c in &counts[1..] {
            let expected = draws as f64 / 4.0;
            assert!(
                (c as f64 - expected).abs() < expected * 0.1,
                "count {c} deviates too much from {expected}"
            );
        }
    }

    #[test]
    fn degenerate_sizes_have_no_neighbors_or_edges() {
        let mut r = rng();
        for n in [0usize, 1] {
            let t = CompleteTopology::new(n);
            assert!(t.random_edge(&mut r).is_none());
            if n == 1 {
                assert!(t.random_neighbor(NodeId::new(0), &mut r).is_none());
                assert!(t.neighbors(NodeId::new(0)).is_empty());
            }
        }
    }

    #[test]
    fn neighbors_lists_everyone_else() {
        let t = CompleteTopology::new(4);
        let nb = t.neighbors(NodeId::new(2));
        assert_eq!(nb, vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)]);
    }

    #[test]
    fn contains_edge_semantics() {
        let t = CompleteTopology::new(4);
        assert!(t.contains_edge(NodeId::new(0), NodeId::new(3)));
        assert!(!t.contains_edge(NodeId::new(1), NodeId::new(1)));
        assert!(!t.contains_edge(NodeId::new(0), NodeId::new(4)));
    }

    #[test]
    fn random_edge_returns_distinct_valid_nodes() {
        let t = CompleteTopology::new(6);
        let mut r = rng();
        for _ in 0..200 {
            let (a, b) = t.random_edge(&mut r).unwrap();
            assert_ne!(a, b);
            assert!(a.index() < 6 && b.index() < 6);
        }
    }

    #[test]
    fn out_of_range_node_has_no_neighbor() {
        let t = CompleteTopology::new(3);
        let mut r = rng();
        assert!(t.random_neighbor(NodeId::new(7), &mut r).is_none());
    }
}
