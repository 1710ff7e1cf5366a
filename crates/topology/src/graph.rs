//! Explicit adjacency-list graphs.

use crate::{NodeId, Topology, TopologyError};
use rand::{Rng, RngCore};

/// An undirected simple graph stored as adjacency lists plus an edge list.
///
/// `Graph` is the workhorse representation behind every generator in
/// [`crate::generators`]. It keeps both adjacency lists (for neighbour
/// sampling, the hot path of the gossip protocol) and a flat edge list (for
/// uniform random *edge* sampling, needed by the `GETPAIR_RAND` strategy of
/// the paper).
///
/// The structure is append-only: nodes are fixed at construction time and
/// edges can only be added. Removal of nodes under churn is modelled one level
/// up (in the simulator) by masking dead nodes, which matches the paper's
/// model where a failed node simply stops being selected.
///
/// # Example
///
/// ```
/// use overlay_topology::{Graph, NodeId, Topology};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
/// g.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// assert!(g.contains_edge(NodeId::new(0), NodeId::new(1)));
/// assert!(!g.contains_edge(NodeId::new(0), NodeId::new(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adjacency: Vec<Vec<NodeId>>,
    edges: Vec<(NodeId, NodeId)>,
}

impl Graph {
    /// Creates a graph with `nodes` isolated vertices and no edges.
    pub fn with_nodes(nodes: usize) -> Self {
        Graph {
            adjacency: vec![Vec::new(); nodes],
            edges: Vec::new(),
        }
    }

    /// Creates a graph with `nodes` vertices, pre-allocating adjacency lists
    /// of capacity `expected_degree` (a small optimisation for generators that
    /// know the target degree in advance).
    pub(crate) fn with_nodes_and_degree(nodes: usize, expected_degree: usize) -> Self {
        Graph {
            adjacency: (0..nodes)
                .map(|_| Vec::with_capacity(expected_degree))
                .collect(),
            edges: Vec::with_capacity(nodes * expected_degree / 2),
        }
    }

    /// Adds the undirected edge `{a, b}`.
    ///
    /// Self-loops and duplicate edges are rejected with
    /// [`TopologyError::InvalidParameter`]; out-of-range endpoints are rejected
    /// with [`TopologyError::NodeOutOfRange`].
    ///
    /// # Errors
    ///
    /// Returns an error when the edge is a self-loop, already present, or one
    /// of the endpoints does not exist.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), TopologyError> {
        let n = self.adjacency.len();
        for endpoint in [a, b] {
            if endpoint.index() >= n {
                return Err(TopologyError::NodeOutOfRange {
                    node: endpoint.index(),
                    nodes: n,
                });
            }
        }
        if a == b {
            return Err(TopologyError::InvalidParameter {
                reason: format!("self-loop on node {a} is not allowed"),
            });
        }
        if self.contains_edge(a, b) {
            return Err(TopologyError::InvalidParameter {
                reason: format!("edge {a}-{b} already present"),
            });
        }
        self.add_edge_unchecked(a, b);
        Ok(())
    }

    /// Adds the undirected edge `{a, b}` without checking for duplicates or
    /// self-loops. Intended for generators that guarantee validity themselves.
    pub(crate) fn add_edge_unchecked(&mut self, a: NodeId, b: NodeId) {
        self.adjacency[a.index()].push(b);
        self.adjacency[b.index()].push(a);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        self.edges.push((lo, hi));
    }

    /// Produces a complete graph over `nodes` vertices with explicit edges.
    ///
    /// This materialises `nodes·(nodes−1)/2` edges (Erdős–Rényi at `p = 1`
    /// uses it); for large complete overlays use [`crate::CompleteTopology`],
    /// which is virtual.
    pub(crate) fn complete(nodes: usize) -> Self {
        let mut g = Graph::with_nodes_and_degree(nodes, nodes.saturating_sub(1));
        for i in 0..nodes {
            for j in (i + 1)..nodes {
                g.add_edge_unchecked(NodeId::new(i), NodeId::new(j));
            }
        }
        g
    }
}

impl Topology for Graph {
    fn len(&self) -> usize {
        self.adjacency.len()
    }

    fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    fn random_neighbor(&self, node: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        let adj = &self.adjacency[node.index()];
        if adj.is_empty() {
            None
        } else {
            let idx = rng.gen_range(0..adj.len());
            Some(adj[idx])
        }
    }

    fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.adjacency[node.index()].clone()
    }

    fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a.index() >= self.len() || b.index() >= self.len() {
            return false;
        }
        // Scan the shorter adjacency list.
        let (from, to) = if self.adjacency[a.index()].len() <= self.adjacency[b.index()].len() {
            (a, b)
        } else {
            (b, a)
        };
        self.adjacency[from.index()].contains(&to)
    }

    fn random_edge(&self, rng: &mut dyn RngCore) -> Option<(NodeId, NodeId)> {
        if self.edges.is_empty() {
            None
        } else {
            let idx = rng.gen_range(0..self.edges.len());
            Some(self.edges[idx])
        }
    }
}

/// Structural queries the generator tests assert.
#[cfg(test)]
impl Graph {
    /// Number of edges.
    pub(crate) fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Every edge as a `(smaller, larger)` pair, in insertion order.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.edges.iter().copied()
    }

    /// Whether every node has exactly `k` neighbours.
    pub(crate) fn is_regular_with_degree(&self, k: usize) -> bool {
        self.adjacency.iter().all(|adj| adj.len() == k)
    }

    /// Hop distance from `source` to every node, `None` where unreachable.
    fn distances_from(&self, source: usize) -> Vec<Option<usize>> {
        let mut distances = vec![None; self.len()];
        distances[source] = Some(0);
        let mut queue = std::collections::VecDeque::from([(source, 0)]);
        while let Some((node, d)) = queue.pop_front() {
            for next in &self.adjacency[node] {
                if distances[next.index()].is_none() {
                    distances[next.index()] = Some(d + 1);
                    queue.push_back((next.index(), d + 1));
                }
            }
        }
        distances
    }

    /// Whether every node is reachable from node 0; the empty graph is.
    pub(crate) fn is_connected(&self) -> bool {
        self.is_empty() || self.distances_from(0).iter().all(Option::is_some)
    }

    /// The longest shortest path, or `None` when the graph is empty or
    /// disconnected.
    pub(crate) fn diameter(&self) -> Option<usize> {
        let eccentricity = |source| {
            let distances = self.distances_from(source).into_iter();
            distances.collect::<Option<Vec<_>>>()?.into_iter().max()
        };
        let eccentricities = (0..self.len()).map(eccentricity);
        eccentricities
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(12345)
    }

    #[test]
    fn empty_graph_has_no_nodes_or_edges() {
        let g = Graph::with_nodes(0);
        assert_eq!(g.len(), 0);
        assert!(g.is_empty());
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn add_edge_updates_both_endpoints() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId::new(0), NodeId::new(2)).unwrap();
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(2)), 1);
        assert_eq!(g.degree(NodeId::new(1)), 0);
        assert_eq!(g.neighbors(NodeId::new(0)), vec![NodeId::new(2)]);
        assert_eq!(g.neighbors(NodeId::new(2)), vec![NodeId::new(0)]);
    }

    #[test]
    fn add_edge_rejects_self_loop() {
        let mut g = Graph::with_nodes(3);
        let err = g.add_edge(NodeId::new(1), NodeId::new(1)).unwrap_err();
        assert!(matches!(err, TopologyError::InvalidParameter { .. }));
    }

    #[test]
    fn add_edge_rejects_duplicate() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let err = g.add_edge(NodeId::new(1), NodeId::new(0)).unwrap_err();
        assert!(matches!(err, TopologyError::InvalidParameter { .. }));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn add_edge_rejects_out_of_range() {
        let mut g = Graph::with_nodes(3);
        let err = g.add_edge(NodeId::new(0), NodeId::new(3)).unwrap_err();
        assert_eq!(err, TopologyError::NodeOutOfRange { node: 3, nodes: 3 });
    }

    #[test]
    fn contains_edge_is_symmetric() {
        let mut g = Graph::with_nodes(5);
        g.add_edge(NodeId::new(1), NodeId::new(4)).unwrap();
        assert!(g.contains_edge(NodeId::new(1), NodeId::new(4)));
        assert!(g.contains_edge(NodeId::new(4), NodeId::new(1)));
        assert!(!g.contains_edge(NodeId::new(0), NodeId::new(4)));
        assert!(!g.contains_edge(NodeId::new(0), NodeId::new(40)));
    }

    #[test]
    fn random_neighbor_of_isolated_node_is_none() {
        let g = Graph::with_nodes(2);
        let mut r = rng();
        assert!(g.random_neighbor(NodeId::new(0), &mut r).is_none());
    }

    #[test]
    fn random_neighbor_only_returns_actual_neighbors() {
        let mut g = Graph::with_nodes(6);
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        g.add_edge(NodeId::new(0), NodeId::new(2)).unwrap();
        g.add_edge(NodeId::new(0), NodeId::new(5)).unwrap();
        let allowed: HashSet<NodeId> = [NodeId::new(1), NodeId::new(2), NodeId::new(5)]
            .into_iter()
            .collect();
        let mut r = rng();
        let mut seen = HashSet::new();
        for _ in 0..200 {
            let nb = g.random_neighbor(NodeId::new(0), &mut r).unwrap();
            assert!(allowed.contains(&nb));
            seen.insert(nb);
        }
        // With 200 draws from 3 neighbours all of them should appear.
        assert_eq!(seen, allowed);
    }

    #[test]
    fn random_edge_covers_all_edges() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(3)).unwrap();
        let mut r = rng();
        let mut seen = HashSet::new();
        for _ in 0..300 {
            let e = g.random_edge(&mut r).unwrap();
            assert!(g.contains_edge(e.0, e.1));
            seen.insert(e);
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn random_edge_on_empty_graph_is_none() {
        let g = Graph::with_nodes(3);
        let mut r = rng();
        assert!(g.random_edge(&mut r).is_none());
    }

    #[test]
    fn complete_graph_has_all_edges() {
        let g = Graph::complete(6);
        assert_eq!(g.num_edges(), 15);
        assert!(g.is_regular_with_degree(5));
        assert!(g.is_connected());
        for i in 0..6 {
            assert_eq!(g.degree(NodeId::new(i)), 5);
            for j in 0..6 {
                if i != j {
                    assert!(g.contains_edge(NodeId::new(i), NodeId::new(j)));
                }
            }
        }
    }

    #[test]
    fn edges_are_stored_normalised_lo_hi() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId::new(2), NodeId::new(0)).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(NodeId::new(0), NodeId::new(2))]);
    }
}
