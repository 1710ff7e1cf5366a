//! Random regular graphs (the paper's "k-reg. random" overlay).

use crate::{Graph, NodeId, Topology, TopologyError};
use rand::Rng;

/// Maximum number of pairing attempts before the generator gives up.
const MAX_ATTEMPTS: usize = 200;

/// Maximum number of consecutive rejected stub pairs within one attempt before
/// the attempt is abandoned (the matching is "stuck", e.g. only stubs of
/// already-adjacent nodes remain).
const MAX_CONSECUTIVE_REJECTIONS: usize = 5_000;

/// Generates a random `degree`-regular graph over `nodes` vertices using the
/// configuration (pairing / stub-matching) model with rejection of self-loops
/// and multi-edges.
///
/// This is the overlay behind the paper's "20-reg. random" curves in
/// Figure 3: every node knows exactly `degree` uniformly random other nodes.
/// For the degrees of interest (constant, ≥ 3) the produced graphs are
/// connected with overwhelming probability; the generator retries the pairing
/// until a simple graph is obtained, and callers that additionally require
/// connectivity must check it themselves (the crate's tests do).
///
/// # Errors
///
/// * [`TopologyError::InvalidDegree`] when `degree >= nodes` or when
///   `nodes * degree` is odd (no such graph exists).
/// * [`TopologyError::GenerationFailed`] when no simple pairing was found in
///   the retry budget (practically impossible for `degree ≪ nodes`).
///
/// # Example
///
/// ```
/// use overlay_topology::{generators, NodeId, Topology};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(20);
/// let g = generators::random_regular(500, 20, &mut rng)?;
/// assert!((0..500).all(|i| g.degree(NodeId::new(i)) == 20));
/// # Ok::<(), overlay_topology::TopologyError>(())
/// ```
pub fn random_regular<R: Rng + ?Sized>(
    nodes: usize,
    degree: usize,
    rng: &mut R,
) -> Result<Graph, TopologyError> {
    if degree == 0 {
        return Ok(Graph::with_nodes(nodes));
    }
    if degree >= nodes {
        return Err(TopologyError::InvalidDegree {
            nodes,
            degree,
            reason: "degree must be smaller than the number of nodes",
        });
    }
    if (nodes * degree) % 2 != 0 {
        return Err(TopologyError::InvalidDegree {
            nodes,
            degree,
            reason: "nodes * degree must be even for a regular graph to exist",
        });
    }

    for _attempt in 0..MAX_ATTEMPTS {
        if let Some(graph) = try_stub_matching(nodes, degree, rng) {
            return Ok(graph);
        }
    }
    Err(TopologyError::GenerationFailed {
        attempts: MAX_ATTEMPTS,
        generator: "random regular (stub matching)",
    })
}

/// One attempt of Steger–Wormald style stub matching: repeatedly draw two
/// random free stubs and connect them if the resulting edge is simple. Returns
/// `None` when the matching gets stuck (only invalid pairs remain), which for
/// `degree ≪ nodes` is rare.
fn try_stub_matching<R: Rng + ?Sized>(nodes: usize, degree: usize, rng: &mut R) -> Option<Graph> {
    let mut graph = Graph::with_nodes_and_degree(nodes, degree);
    // Free stubs: each node appears `degree` times.
    let mut stubs: Vec<u32> = Vec::with_capacity(nodes * degree);
    for node in 0..nodes {
        for _ in 0..degree {
            stubs.push(node as u32);
        }
    }

    let mut rejections = 0usize;
    while !stubs.is_empty() {
        let i = rng.gen_range(0..stubs.len());
        let j = rng.gen_range(0..stubs.len());
        let (a, b) = (stubs[i], stubs[j]);
        let edge_ok =
            i != j && a != b && !graph.contains_edge(NodeId::from_u32(a), NodeId::from_u32(b));
        if !edge_ok {
            rejections += 1;
            if rejections > MAX_CONSECUTIVE_REJECTIONS {
                return None;
            }
            continue;
        }
        rejections = 0;
        graph.add_edge_unchecked(NodeId::from_u32(a), NodeId::from_u32(b));
        // Remove both stubs; pop the larger index first so the smaller one
        // remains valid.
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        stubs.swap_remove(hi);
        stubs.swap_remove(lo);
    }
    Some(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn produces_exactly_regular_graphs() {
        let mut r = rng();
        for (n, k) in [(10, 3), (100, 4), (51, 2), (64, 20)] {
            let g = random_regular(n, k, &mut r).unwrap();
            assert_eq!(g.len(), n);
            assert!(
                g.is_regular_with_degree(k),
                "graph with n={n}, k={k} is not {k}-regular"
            );
            assert_eq!(g.num_edges(), n * k / 2);
        }
    }

    #[test]
    fn zero_degree_yields_empty_edge_set() {
        let mut r = rng();
        let g = random_regular(10, 0, &mut r).unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn rejects_degree_not_less_than_nodes() {
        let mut r = rng();
        let err = random_regular(5, 5, &mut r).unwrap_err();
        assert!(matches!(err, TopologyError::InvalidDegree { .. }));
    }

    #[test]
    fn rejects_odd_stub_count() {
        let mut r = rng();
        let err = random_regular(5, 3, &mut r).unwrap_err();
        assert!(matches!(
            err,
            TopologyError::InvalidDegree {
                nodes: 5,
                degree: 3,
                ..
            }
        ));
    }

    #[test]
    fn graphs_contain_no_self_loops_or_duplicates() {
        let mut r = rng();
        let g = random_regular(200, 6, &mut r).unwrap();
        let mut seen = std::collections::HashSet::new();
        for (a, b) in g.edges() {
            assert_ne!(a, b, "self loop found");
            assert!(seen.insert((a, b)), "duplicate edge {a}-{b}");
        }
    }

    #[test]
    fn typical_paper_configuration_is_connected() {
        // n=1000, k=20 as in the paper; a 20-regular random graph of this size
        // is connected with probability astronomically close to 1.
        let mut r = rng();
        let g = random_regular(1_000, 20, &mut r).unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn degree_three_graphs_are_usually_connected() {
        let mut r = rng();
        let mut connected = 0;
        for _ in 0..10 {
            if random_regular(100, 3, &mut r).unwrap().is_connected() {
                connected += 1;
            }
        }
        assert!(
            connected >= 9,
            "3-regular random graphs should almost always be connected"
        );
    }

    #[test]
    fn distinct_seeds_give_distinct_graphs() {
        let g1 = random_regular(100, 4, &mut rand::rngs::StdRng::seed_from_u64(1)).unwrap();
        let g2 = random_regular(100, 4, &mut rand::rngs::StdRng::seed_from_u64(2)).unwrap();
        assert_ne!(g1, g2);
    }
}
