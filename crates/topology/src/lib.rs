//! # overlay-topology
//!
//! Overlay network topologies for epidemic-style aggregation protocols.
//!
//! This crate is the topology substrate of the reproduction of *"Epidemic-Style
//! Proactive Aggregation in Large Overlay Networks"* (Jelasity & Montresor,
//! ICDCS 2004). The paper analyses the anti-entropy averaging protocol on two
//! kinds of overlays:
//!
//! * the **complete graph**, where every node may talk to every other node, and
//! * **k-regular random graphs** (the paper uses a fixed view size of 20),
//!   which approximate what a peer-sampling / membership service provides.
//!
//! Beyond those two, [`TopologyKind`] names the generators a practitioner
//! needs to study the protocol on more realistic structures: Erdős–Rényi
//! random graphs, rings, two-dimensional lattices, Watts–Strogatz small
//! worlds, Barabási–Albert scale-free graphs and stars. [`TopologyBuilder`]
//! builds any of them for a node count and an RNG.
//!
//! ## Design
//!
//! The central abstraction is the [`Topology`] trait: the aggregation protocol
//! only ever asks *"give me a uniformly random neighbour of node `i`"*, so the
//! trait is deliberately tiny and object safe. Two families of implementations
//! exist:
//!
//! * [`Graph`] — an explicit adjacency-list graph, produced by the generators in
//!   [`generators`] that [`TopologyBuilder`] calls;
//! * [`CompleteTopology`] — a *virtual* complete graph that never materialises
//!   its `N·(N−1)/2` edges, so experiments with `N = 100 000` nodes (Figure 3 of
//!   the paper) stay cheap.
//!
//! ## Example
//!
//! ```
//! use overlay_topology::{generators, NodeId, Topology};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), overlay_topology::TopologyError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! // The overlay used throughout the paper's Figure 3: 20-regular random graph.
//! let graph = generators::random_regular(1_000, 20, &mut rng)?;
//! assert_eq!(graph.len(), 1_000);
//! assert!((0..1_000).all(|i| graph.degree(NodeId::new(i)) == 20));
//!
//! let neighbour = graph.random_neighbor(NodeId::new(0), &mut rng);
//! assert!(neighbour.is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod builder;
mod complete;
mod error;
mod graph;
mod id;
mod sampling;
mod view;

pub mod generators;

pub use builder::{BuiltTopology, TopologyBuilder, TopologyKind};
pub use complete::CompleteTopology;
pub use error::TopologyError;
pub use graph::Graph;
pub use id::NodeId;
pub use view::ViewTopology;

use rand::RngCore;

/// An overlay topology: the neighbourhood structure over which the gossip
/// protocol selects communication partners.
///
/// The aggregation protocol of the paper only relies on two operations:
/// *"how many nodes are there"* and *"pick a uniformly random neighbour of
/// node `i`"*. Keeping the trait this small makes it cheap to provide virtual
/// implementations (such as [`CompleteTopology`]) and dynamic ones (such as a
/// peer-sampling service).
///
/// The trait is object safe; random number generators are passed as
/// `&mut dyn RngCore` so that implementations can be used behind `dyn Topology`.
pub trait Topology {
    /// Number of nodes in the overlay.
    fn len(&self) -> usize;

    /// Returns `true` if the overlay contains no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Degree (number of neighbours) of `node`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `node` is out of range.
    fn degree(&self, node: NodeId) -> usize;

    /// Draws a uniformly random neighbour of `node`, or `None` if the node is
    /// isolated.
    fn random_neighbor(&self, node: NodeId, rng: &mut dyn RngCore) -> Option<NodeId>;

    /// Returns the materialised neighbour list of `node`.
    ///
    /// For virtual topologies (e.g. the complete graph) this allocates a vector
    /// of size `degree(node)`; prefer [`Topology::random_neighbor`] in hot
    /// paths.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `node` is out of range.
    fn neighbors(&self, node: NodeId) -> Vec<NodeId>;

    /// Returns `true` if the undirected edge `{a, b}` is part of the overlay.
    fn contains_edge(&self, a: NodeId, b: NodeId) -> bool;

    /// Draws an edge uniformly at random from the overlay, or `None` if the
    /// overlay has no edges.
    ///
    /// Uniformity is over *edges*, not over nodes: in irregular graphs
    /// high-degree vertices appear in proportionally more edges. This is the
    /// sampling primitive behind the paper's `GETPAIR_RAND`.
    fn random_edge(&self, rng: &mut dyn RngCore) -> Option<(NodeId, NodeId)>;
}

#[cfg(test)]
mod trait_tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn trait_is_object_safe() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let complete = CompleteTopology::new(10);
        let graph = generators::ring(10);
        let topologies: Vec<Box<dyn Topology>> = vec![Box::new(complete), Box::new(graph)];
        for topo in &topologies {
            assert_eq!(topo.len(), 10);
            assert!(!topo.is_empty());
            assert!(topo.random_neighbor(NodeId::new(3), &mut rng).is_some());
        }
    }

    #[test]
    fn is_empty_default_follows_len() {
        let empty = CompleteTopology::new(0);
        assert!(empty.is_empty());
        let nonempty = CompleteTopology::new(2);
        assert!(!nonempty.is_empty());
    }
}
