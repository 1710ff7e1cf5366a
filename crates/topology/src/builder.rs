//! High-level topology builder used by the simulator and the benchmarks.

use crate::{generators, CompleteTopology, Graph, Topology, TopologyError};
use rand::Rng;
use std::fmt;

/// Declarative description of an overlay topology.
///
/// `TopologyKind` is what experiment configurations store (a plain `Copy`
/// value); [`TopologyBuilder`] turns it into a concrete [`Topology`]
/// once a node count and an RNG are available. The two kinds used by the
/// paper's evaluation are [`TopologyKind::Complete`] and
/// [`TopologyKind::RandomRegular`] with `degree = 20`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum TopologyKind {
    /// Fully connected overlay (virtual, no materialised edges).
    Complete,
    /// Random regular graph with the given degree (the paper's "view size").
    RandomRegular {
        /// Node degree (view size).
        degree: usize,
    },
    /// Erdős–Rényi `G(n, p)` random graph.
    ErdosRenyi {
        /// Edge probability.
        p: f64,
    },
    /// Ring (cycle) topology.
    Ring,
    /// Two-dimensional torus lattice; `rows × cols` must equal the node count.
    Lattice {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Watts–Strogatz small-world graph.
    SmallWorld {
        /// Base (even) degree of the ring lattice.
        degree: usize,
        /// Rewiring probability.
        beta: f64,
    },
    /// Barabási–Albert scale-free graph.
    ScaleFree {
        /// Number of edges attached by each new node.
        attachment: usize,
    },
    /// Star topology with node 0 as hub.
    Star,
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyKind::Complete => write!(f, "complete"),
            TopologyKind::RandomRegular { degree } => write!(f, "{degree}-regular random"),
            TopologyKind::ErdosRenyi { p } => write!(f, "erdos-renyi(p={p})"),
            TopologyKind::Ring => write!(f, "ring"),
            TopologyKind::Lattice { rows, cols } => write!(f, "lattice({rows}x{cols})"),
            TopologyKind::SmallWorld { degree, beta } => {
                write!(f, "small-world(k={degree}, beta={beta})")
            }
            TopologyKind::ScaleFree { attachment } => write!(f, "scale-free(m={attachment})"),
            TopologyKind::Star => write!(f, "star"),
        }
    }
}

/// Materialised topology produced by [`TopologyBuilder::build`].
///
/// The enum avoids boxing in the common case while still letting callers treat
/// every variant uniformly through the [`Topology`] trait (which it
/// implements by delegation).
#[derive(Debug, Clone)]
pub enum BuiltTopology {
    /// A virtual complete graph.
    Complete(CompleteTopology),
    /// An explicit graph.
    Graph(Graph),
}

impl Topology for BuiltTopology {
    fn len(&self) -> usize {
        match self {
            BuiltTopology::Complete(t) => t.len(),
            BuiltTopology::Graph(g) => g.len(),
        }
    }

    fn degree(&self, node: crate::NodeId) -> usize {
        match self {
            BuiltTopology::Complete(t) => t.degree(node),
            BuiltTopology::Graph(g) => g.degree(node),
        }
    }

    fn random_neighbor(
        &self,
        node: crate::NodeId,
        rng: &mut dyn rand::RngCore,
    ) -> Option<crate::NodeId> {
        match self {
            BuiltTopology::Complete(t) => t.random_neighbor(node, rng),
            BuiltTopology::Graph(g) => g.random_neighbor(node, rng),
        }
    }

    fn neighbors(&self, node: crate::NodeId) -> Vec<crate::NodeId> {
        match self {
            BuiltTopology::Complete(t) => t.neighbors(node),
            BuiltTopology::Graph(g) => g.neighbors(node),
        }
    }

    fn contains_edge(&self, a: crate::NodeId, b: crate::NodeId) -> bool {
        match self {
            BuiltTopology::Complete(t) => t.contains_edge(a, b),
            BuiltTopology::Graph(g) => g.contains_edge(a, b),
        }
    }

    fn random_edge(&self, rng: &mut dyn rand::RngCore) -> Option<(crate::NodeId, crate::NodeId)> {
        match self {
            BuiltTopology::Complete(t) => t.random_edge(rng),
            BuiltTopology::Graph(g) => g.random_edge(rng),
        }
    }
}

/// Builder turning a [`TopologyKind`] plus a node count into a concrete
/// topology.
///
/// # Example
///
/// ```
/// use overlay_topology::{TopologyBuilder, TopologyKind, Topology};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let topo = TopologyBuilder::new(TopologyKind::RandomRegular { degree: 20 })
///     .nodes(1_000)
///     .build(&mut rng)?;
/// assert_eq!(topo.len(), 1_000);
/// # Ok::<(), overlay_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyBuilder {
    kind: TopologyKind,
    nodes: usize,
}

impl TopologyBuilder {
    /// Creates a builder for the given topology kind with zero nodes.
    pub fn new(kind: TopologyKind) -> Self {
        TopologyBuilder { kind, nodes: 0 }
    }

    /// Sets the number of nodes.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Builds the topology.
    ///
    /// # Errors
    ///
    /// Propagates generator errors (invalid degree, invalid probability,
    /// lattice dimension mismatch, generation failure).
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<BuiltTopology, TopologyError> {
        let n = self.nodes;
        Ok(match self.kind {
            TopologyKind::Complete => BuiltTopology::Complete(CompleteTopology::new(n)),
            TopologyKind::RandomRegular { degree } => {
                BuiltTopology::Graph(generators::random_regular(n, degree, rng)?)
            }
            TopologyKind::ErdosRenyi { p } => {
                BuiltTopology::Graph(generators::erdos_renyi(n, p, rng)?)
            }
            TopologyKind::Ring => BuiltTopology::Graph(generators::ring(n)),
            TopologyKind::Lattice { rows, cols } => {
                if rows * cols != n {
                    return Err(TopologyError::InvalidParameter {
                        reason: format!(
                            "lattice dimensions {rows}x{cols} do not match node count {n}"
                        ),
                    });
                }
                BuiltTopology::Graph(generators::lattice2d(rows, cols)?)
            }
            TopologyKind::SmallWorld { degree, beta } => {
                BuiltTopology::Graph(generators::watts_strogatz(n, degree, beta, rng)?)
            }
            TopologyKind::ScaleFree { attachment } => {
                BuiltTopology::Graph(generators::barabasi_albert(n, attachment, rng)?)
            }
            TopologyKind::Star => BuiltTopology::Graph(generators::star(n)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(55)
    }

    #[test]
    fn builds_every_kind() {
        let mut r = rng();
        let kinds = [
            TopologyKind::Complete,
            TopologyKind::RandomRegular { degree: 4 },
            TopologyKind::ErdosRenyi { p: 0.1 },
            TopologyKind::Ring,
            TopologyKind::Lattice { rows: 10, cols: 10 },
            TopologyKind::SmallWorld {
                degree: 4,
                beta: 0.2,
            },
            TopologyKind::ScaleFree { attachment: 2 },
            TopologyKind::Star,
        ];
        for kind in kinds {
            let topo = TopologyBuilder::new(kind).nodes(100).build(&mut r).unwrap();
            assert_eq!(topo.len(), 100, "kind {kind} built wrong node count");
            assert!(
                topo.random_neighbor(NodeId::new(1), &mut r).is_some(),
                "kind {kind} produced an isolated node 1"
            );
        }
    }

    #[test]
    fn lattice_dimension_mismatch_is_rejected() {
        let mut r = rng();
        let err = TopologyBuilder::new(TopologyKind::Lattice { rows: 3, cols: 3 })
            .nodes(10)
            .build(&mut r)
            .unwrap_err();
        assert!(matches!(err, TopologyError::InvalidParameter { .. }));
    }

    #[test]
    fn generator_errors_propagate() {
        let mut r = rng();
        let err = TopologyBuilder::new(TopologyKind::RandomRegular { degree: 100 })
            .nodes(10)
            .build(&mut r)
            .unwrap_err();
        assert!(matches!(err, TopologyError::InvalidDegree { .. }));
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(TopologyKind::Complete.to_string(), "complete");
        assert_eq!(
            TopologyKind::RandomRegular { degree: 20 }.to_string(),
            "20-regular random"
        );
        assert_eq!(TopologyKind::Ring.to_string(), "ring");
        assert_eq!(TopologyKind::Star.to_string(), "star");
        assert!(TopologyKind::SmallWorld {
            degree: 4,
            beta: 0.1
        }
        .to_string()
        .contains("small-world"));
    }

    #[test]
    fn built_topology_delegates_trait_methods() {
        let mut r = rng();
        let complete = TopologyBuilder::new(TopologyKind::Complete)
            .nodes(5)
            .build(&mut r)
            .unwrap();
        assert_eq!(complete.degree(NodeId::new(0)), 4);
        assert!(complete.contains_edge(NodeId::new(0), NodeId::new(1)));
        assert_eq!(complete.neighbors(NodeId::new(0)).len(), 4);
        assert!(complete.random_edge(&mut r).is_some());

        let ring = TopologyBuilder::new(TopologyKind::Ring)
            .nodes(5)
            .build(&mut r)
            .unwrap();
        assert_eq!(ring.degree(NodeId::new(0)), 2);
        assert!(ring.random_edge(&mut r).is_some());
    }
}
