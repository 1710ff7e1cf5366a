//! Barabási–Albert preferential-attachment (scale-free) graphs.

use crate::{Graph, NodeId, TopologyError};
use rand::Rng;

/// Generates a Barabási–Albert scale-free graph by preferential attachment.
///
/// The construction starts from a small complete seed of `m + 1` nodes; every
/// subsequent node attaches to `m` existing nodes chosen with probability
/// proportional to their current degree (implemented with the classic
/// repeated-endpoint trick: sampling a uniformly random endpoint of a
/// uniformly random existing edge is degree-proportional).
///
/// Scale-free overlays are the worst realistic case for gossip averaging: hub
/// nodes participate in many exchanges per cycle, so correlations accumulate
/// faster than on the random regular graphs analysed in the paper. The
/// ablation benchmarks use this generator to quantify that gap.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidDegree`] if `m == 0` or `m + 1 >= nodes`.
pub(crate) fn barabasi_albert<R: Rng + ?Sized>(
    nodes: usize,
    m: usize,
    rng: &mut R,
) -> Result<Graph, TopologyError> {
    if m == 0 {
        return Err(TopologyError::InvalidDegree {
            nodes,
            degree: m,
            reason: "attachment parameter m must be positive",
        });
    }
    if m + 1 >= nodes {
        return Err(TopologyError::InvalidDegree {
            nodes,
            degree: m,
            reason: "need at least m + 2 nodes for preferential attachment",
        });
    }

    let seed = m + 1;
    let mut graph = Graph::with_nodes_and_degree(nodes, 2 * m);
    // Degree-proportional sampling pool: every edge contributes both endpoints.
    let mut endpoint_pool: Vec<u32> = Vec::with_capacity(2 * nodes * m);

    for i in 0..seed {
        for j in (i + 1)..seed {
            graph.add_edge_unchecked(NodeId::new(i), NodeId::new(j));
            endpoint_pool.push(i as u32);
            endpoint_pool.push(j as u32);
        }
    }

    let mut targets: Vec<u32> = Vec::with_capacity(m);
    for new_node in seed..nodes {
        targets.clear();
        // Draw m distinct degree-proportional targets.
        let mut guard = 0usize;
        while targets.len() < m {
            let candidate = endpoint_pool[rng.gen_range(0..endpoint_pool.len())];
            if !targets.contains(&candidate) {
                targets.push(candidate);
            }
            guard += 1;
            if guard > 100 * m {
                // Practically unreachable: fall back to uniform selection to
                // guarantee termination.
                let fallback = rng.gen_range(0..new_node) as u32;
                if !targets.contains(&fallback) {
                    targets.push(fallback);
                }
            }
        }
        for &target in &targets {
            graph.add_edge_unchecked(NodeId::new(new_node), NodeId::from_u32(target));
            endpoint_pool.push(new_node as u32);
            endpoint_pool.push(target);
        }
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(31)
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut r = rng();
        assert!(barabasi_albert(10, 0, &mut r).is_err());
        assert!(barabasi_albert(4, 3, &mut r).is_err());
        assert!(barabasi_albert(3, 2, &mut r).is_err());
    }

    #[test]
    fn node_and_edge_counts_match_the_model() {
        let mut r = rng();
        let (n, m) = (300usize, 3usize);
        let g = barabasi_albert(n, m, &mut r).unwrap();
        assert_eq!(g.len(), n);
        // seed complete graph edges + m per added node
        let expected_edges = (m + 1) * m / 2 + (n - m - 1) * m;
        assert_eq!(g.num_edges(), expected_edges);
    }

    #[test]
    fn graphs_are_connected() {
        let mut r = rng();
        for (n, m) in [(50, 1), (200, 2), (500, 4)] {
            assert!(barabasi_albert(n, m, &mut r).unwrap().is_connected());
        }
    }

    #[test]
    fn produces_hubs_with_much_larger_than_average_degree() {
        let mut r = rng();
        let g = barabasi_albert(2_000, 2, &mut r).unwrap();
        let degrees: Vec<usize> = (0..g.len()).map(|i| g.degree(NodeId::new(i))).collect();
        let max = *degrees.iter().max().unwrap();
        let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        assert!(
            max as f64 > 5.0 * mean,
            "expected hub nodes, max degree {max} vs mean {mean}"
        );
        assert!(degrees.iter().all(|&d| d >= 2));
    }

    #[test]
    fn no_self_loops_or_duplicate_edges() {
        let mut r = rng();
        let g = barabasi_albert(400, 3, &mut r).unwrap();
        let mut seen = std::collections::HashSet::new();
        for (a, b) in g.edges() {
            assert_ne!(a, b);
            assert!(seen.insert((a, b)));
        }
    }
}
