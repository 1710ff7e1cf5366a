//! Watts–Strogatz small-world graphs.

use crate::{Graph, NodeId, Topology, TopologyError};
use rand::Rng;

/// Generates a Watts–Strogatz small-world graph.
///
/// Starts from a ring lattice where every node is connected to its `k`
/// nearest neighbours (`k/2` on each side, `k` must be even) and rewires each
/// edge independently with probability `beta` to a uniformly random endpoint,
/// rejecting self-loops and duplicate edges.
///
/// * `beta = 0` reproduces the ring lattice (high clustering, large diameter);
/// * `beta = 1` approaches a random graph (low clustering, small diameter);
/// * intermediate values give the small-world regime that many deployed P2P
///   overlays resemble, making this a realistic stress topology for the
///   aggregation protocol beyond the paper's complete/random pair.
///
/// # Errors
///
/// * [`TopologyError::InvalidDegree`] if `k` is odd, zero, or `k >= nodes`;
/// * [`TopologyError::InvalidProbability`] if `beta` is outside `[0, 1]`.
pub(crate) fn watts_strogatz<R: Rng + ?Sized>(
    nodes: usize,
    k: usize,
    beta: f64,
    rng: &mut R,
) -> Result<Graph, TopologyError> {
    if k == 0 || k % 2 != 0 {
        return Err(TopologyError::InvalidDegree {
            nodes,
            degree: k,
            reason: "small-world base degree k must be even and positive",
        });
    }
    if k >= nodes {
        return Err(TopologyError::InvalidDegree {
            nodes,
            degree: k,
            reason: "degree must be smaller than the number of nodes",
        });
    }
    if !(0.0..=1.0).contains(&beta) || !beta.is_finite() {
        return Err(TopologyError::InvalidProbability { value: beta });
    }

    let mut graph = Graph::with_nodes_and_degree(nodes, k);
    // Ring lattice: node i connected to i+1 .. i+k/2 (mod n). Exactly one edge
    // is added per (i, offset) slot so the total edge count is always n*k/2.
    for i in 0..nodes {
        for offset in 1..=(k / 2) {
            let source = NodeId::new(i);
            let lattice_target = NodeId::new((i + offset) % nodes);
            let mut added = false;
            if !rng.gen_bool(beta) && !graph.contains_edge(source, lattice_target) {
                graph.add_edge_unchecked(source, lattice_target);
                added = true;
            }
            if !added {
                // Rewire: try random targets, then fall back to a linear scan
                // so the slot is never lost (keeps the degree sum intact).
                for _ in 0..64 {
                    let target = NodeId::new(rng.gen_range(0..nodes));
                    if target != source && !graph.contains_edge(source, target) {
                        graph.add_edge_unchecked(source, target);
                        added = true;
                        break;
                    }
                }
            }
            if !added {
                for candidate in 0..nodes {
                    let target = NodeId::new(candidate);
                    if target != source && !graph.contains_edge(source, target) {
                        graph.add_edge_unchecked(source, target);
                        break;
                    }
                }
            }
        }
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut r = rng();
        assert!(watts_strogatz(10, 3, 0.1, &mut r).is_err()); // odd k
        assert!(watts_strogatz(10, 0, 0.1, &mut r).is_err()); // zero k
        assert!(watts_strogatz(10, 10, 0.1, &mut r).is_err()); // k >= n
        assert!(watts_strogatz(10, 4, -0.5, &mut r).is_err());
        assert!(watts_strogatz(10, 4, 1.5, &mut r).is_err());
        assert!(watts_strogatz(10, 4, f64::NAN, &mut r).is_err());
    }

    #[test]
    fn beta_zero_reproduces_ring_lattice() {
        let mut r = rng();
        let g = watts_strogatz(20, 4, 0.0, &mut r).unwrap();
        assert_eq!(g.num_edges(), 20 * 2);
        assert!(g.is_regular_with_degree(4));
        assert!(g.is_connected());
        // node 0 connected to 1, 2, 18, 19
        for j in [1usize, 2, 18, 19] {
            assert!(g.contains_edge(NodeId::new(0), NodeId::new(j)));
        }
    }

    #[test]
    fn rewiring_shrinks_the_diameter() {
        let mut r = rng();
        let lattice = watts_strogatz(400, 4, 0.0, &mut r).unwrap();
        let rewired = watts_strogatz(400, 4, 0.3, &mut r).unwrap();
        let d_lattice = lattice.diameter().unwrap();
        if let Some(d_rewired) = rewired.diameter() {
            assert!(
                d_rewired < d_lattice,
                "rewiring should shrink diameter: {d_rewired} vs {d_lattice}"
            );
        }
        // Even if the rewired graph were disconnected (extremely unlikely),
        // the lattice diameter assertion below still validates the generator.
        assert_eq!(d_lattice, 100);
    }

    #[test]
    fn edge_count_is_preserved_by_rewiring() {
        let mut r = rng();
        for beta in [0.0, 0.1, 0.5, 1.0] {
            let g = watts_strogatz(100, 6, beta, &mut r).unwrap();
            assert_eq!(g.num_edges(), 100 * 3, "edge count changed for beta={beta}");
        }
    }

    #[test]
    fn no_self_loops_or_duplicate_edges() {
        let mut r = rng();
        let g = watts_strogatz(150, 8, 0.4, &mut r).unwrap();
        let mut seen = std::collections::HashSet::new();
        for (a, b) in g.edges() {
            assert_ne!(a, b);
            assert!(seen.insert((a, b)));
        }
    }
}
