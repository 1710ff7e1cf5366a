//! Deterministic reference topologies: ring, 2-D lattice, star.

use crate::{Graph, NodeId, TopologyError};

/// Builds a ring (cycle graph) over `nodes` vertices.
///
/// Rings are the slowest-mixing connected topology and therefore a useful
/// stress test for the aggregation protocol: variance still converges, but at
/// a rate far below the paper's complete-graph bounds.
///
/// Degenerate inputs are handled gracefully: `nodes < 2` produces a graph with
/// no edges, `nodes == 2` a single edge.
pub(crate) fn ring(nodes: usize) -> Graph {
    let mut g = Graph::with_nodes_and_degree(nodes, 2);
    if nodes == 2 {
        g.add_edge_unchecked(NodeId::new(0), NodeId::new(1));
        return g;
    }
    if nodes < 2 {
        return g;
    }
    for i in 0..nodes {
        let j = (i + 1) % nodes;
        g.add_edge_unchecked(NodeId::new(i), NodeId::new(j));
    }
    g
}

/// Builds a two-dimensional `rows × cols` torus lattice (each node has four
/// neighbours: up, down, left, right, with wrap-around).
///
/// # Errors
///
/// Returns [`TopologyError::InvalidParameter`] when either dimension is zero
/// or when a dimension is smaller than 3 (wrap-around would create duplicate
/// edges).
pub(crate) fn lattice2d(rows: usize, cols: usize) -> Result<Graph, TopologyError> {
    if rows < 3 || cols < 3 {
        return Err(TopologyError::InvalidParameter {
            reason: format!("torus lattice requires both dimensions >= 3, got {rows}x{cols}"),
        });
    }
    let nodes = rows * cols;
    let mut g = Graph::with_nodes_and_degree(nodes, 4);
    let id = |r: usize, c: usize| NodeId::new(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            // Right neighbour and down neighbour; wrap-around covers the rest.
            g.add_edge_unchecked(id(r, c), id(r, (c + 1) % cols));
            g.add_edge_unchecked(id(r, c), id((r + 1) % rows, c));
        }
    }
    Ok(g)
}

/// Builds a star graph: node `0` is the hub, all other nodes are leaves.
///
/// The star is the extreme case of a performance bottleneck: every exchange
/// must involve the hub. It is the counter-example motivating the paper's
/// claim that anti-entropy aggregation has "no performance bottlenecks" on
/// random topologies.
///
/// # Example
///
/// ```
/// use overlay_topology::{generators, NodeId, Topology};
///
/// let star = generators::star(5);
/// assert_eq!(star.degree(NodeId::new(0)), 4);
/// assert_eq!(star.degree(NodeId::new(3)), 1);
/// ```
pub fn star(nodes: usize) -> Graph {
    let mut g = Graph::with_nodes(nodes);
    for leaf in 1..nodes {
        g.add_edge_unchecked(NodeId::new(0), NodeId::new(leaf));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    #[test]
    fn ring_structure() {
        let g = ring(6);
        assert_eq!(g.num_edges(), 6);
        assert!(g.is_regular_with_degree(2));
        assert!(g.is_connected());
        assert!(g.contains_edge(NodeId::new(0), NodeId::new(5)));
        assert!(g.contains_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!g.contains_edge(NodeId::new(0), NodeId::new(3)));
    }

    #[test]
    fn ring_degenerate_sizes() {
        assert_eq!(ring(0).num_edges(), 0);
        assert_eq!(ring(1).num_edges(), 0);
        let pair = ring(2);
        assert_eq!(pair.num_edges(), 1);
        let triangle = ring(3);
        assert_eq!(triangle.num_edges(), 3);
        assert!(triangle.is_connected());
    }

    #[test]
    fn lattice_is_four_regular_torus() {
        let g = lattice2d(4, 5).unwrap();
        assert_eq!(g.len(), 20);
        assert!(g.is_regular_with_degree(4));
        assert_eq!(g.num_edges(), 2 * 20);
        assert!(g.is_connected());
        // Torus diameter = floor(rows/2) + floor(cols/2) = 2 + 2.
        assert_eq!(g.diameter(), Some(4));
    }

    #[test]
    fn lattice_rejects_thin_dimensions() {
        assert!(lattice2d(2, 5).is_err());
        assert!(lattice2d(5, 0).is_err());
        assert!(lattice2d(0, 0).is_err());
    }

    #[test]
    fn star_structure() {
        let g = star(10);
        assert_eq!(g.num_edges(), 9);
        assert!(g.is_connected());
        for leaf in 1..10 {
            assert_eq!(g.degree(NodeId::new(leaf)), 1);
            assert!(g.contains_edge(NodeId::new(0), NodeId::new(leaf)));
        }
    }

    #[test]
    fn star_degenerate_sizes() {
        assert_eq!(star(0).num_edges(), 0);
        assert_eq!(star(1).num_edges(), 0);
        assert_eq!(star(2).num_edges(), 1);
    }
}
