//! Erdős–Rényi `G(n, p)` random graphs.

use crate::{Graph, NodeId, TopologyError};
use rand::Rng;

/// Generates an Erdős–Rényi random graph `G(nodes, p)`: every unordered pair
/// of nodes is connected independently with probability `p`.
///
/// Implementation note: instead of flipping a coin for each of the
/// `n·(n−1)/2` pairs, the generator skips geometrically between selected
/// pairs, so the cost is proportional to the number of *edges produced*. This
/// keeps sparse graphs over 10⁵ nodes cheap.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidProbability`] when `p` is outside `[0, 1]`
/// or not finite.
pub(crate) fn erdos_renyi<R: Rng + ?Sized>(
    nodes: usize,
    p: f64,
    rng: &mut R,
) -> Result<Graph, TopologyError> {
    if !(0.0..=1.0).contains(&p) || !p.is_finite() {
        return Err(TopologyError::InvalidProbability { value: p });
    }
    let mut graph = Graph::with_nodes(nodes);
    if nodes < 2 || p == 0.0 {
        return Ok(graph);
    }
    if (p - 1.0).abs() < f64::EPSILON {
        return Ok(Graph::complete(nodes));
    }

    // Batagelj–Brandes skipping: iterate a virtual index over all pairs and
    // jump ahead by a geometric(p) distributed number of positions.
    let log_one_minus_p = (1.0 - p).ln();
    let mut v: i64 = 1;
    let mut w: i64 = -1;
    let n = nodes as i64;
    while v < n {
        let r: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (r.ln() / log_one_minus_p).floor() as i64;
        w += 1 + skip;
        while w >= v && v < n {
            w -= v;
            v += 1;
        }
        if v < n {
            graph.add_edge_unchecked(NodeId::new(w as usize), NodeId::new(v as usize));
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
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn rejects_invalid_probabilities() {
        let mut r = rng();
        for p in [-0.1, 1.1, f64::NAN, f64::INFINITY] {
            assert!(
                erdos_renyi(10, p, &mut r).is_err(),
                "p={p} should be rejected"
            );
        }
    }

    #[test]
    fn p_zero_gives_empty_graph_and_p_one_gives_complete() {
        let mut r = rng();
        assert_eq!(erdos_renyi(20, 0.0, &mut r).unwrap().num_edges(), 0);
        let complete = erdos_renyi(20, 1.0, &mut r).unwrap();
        assert_eq!(complete.num_edges(), 20 * 19 / 2);
    }

    #[test]
    fn edge_count_matches_expectation() {
        let mut r = rng();
        let n = 2_000usize;
        let p = 0.005;
        let g = erdos_renyi(n, p, &mut r).unwrap();
        let expected = p * (n * (n - 1) / 2) as f64;
        let observed = g.num_edges() as f64;
        assert!(
            (observed - expected).abs() < 0.15 * expected,
            "observed {observed} edges, expected about {expected}"
        );
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let mut r = rng();
        let g = erdos_renyi(300, 0.05, &mut r).unwrap();
        let mut seen = std::collections::HashSet::new();
        for (a, b) in g.edges() {
            assert_ne!(a, b);
            assert!(seen.insert((a, b)));
        }
    }

    #[test]
    fn supersparse_and_tiny_graphs() {
        let mut r = rng();
        assert_eq!(erdos_renyi(0, 0.5, &mut r).unwrap().len(), 0);
        assert_eq!(erdos_renyi(1, 0.5, &mut r).unwrap().num_edges(), 0);
    }

    #[test]
    fn dense_p_above_connectivity_threshold_is_connected() {
        // p = 3 ln n / n is comfortably above the ln n / n threshold.
        let mut r = rng();
        let n = 500usize;
        let p = 3.0 * (n as f64).ln() / n as f64;
        let g = erdos_renyi(n, p, &mut r).unwrap();
        assert!(g.is_connected());
    }
}
