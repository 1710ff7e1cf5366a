//! Degree statistics.

use crate::{Graph, Topology};

/// Summary statistics of a graph's degree sequence.
///
/// Used by the benchmarks and by tests asserting structural properties of the
/// generators (for instance that `random_regular(n, 20, …)` really is
/// 20-regular, the overlay the paper simulates).
///
/// # Example
///
/// ```
/// use overlay_topology::{DegreeStats, Graph};
///
/// let g = Graph::complete(5);
/// let stats = DegreeStats::from_graph(&g);
/// assert_eq!(stats.min, 4);
/// assert_eq!(stats.max, 4);
/// assert_eq!(stats.mean, 4.0);
/// assert_eq!(stats.isolated, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Population variance of the degree sequence.
    pub variance: f64,
    /// Number of isolated (degree-zero) nodes.
    pub isolated: usize,
}

impl DegreeStats {
    /// Computes degree statistics for `graph`.
    ///
    /// Returns all-zero statistics for the empty graph.
    pub fn from_graph(graph: &Graph) -> Self {
        let n = graph.len();
        if n == 0 {
            return DegreeStats {
                min: 0,
                max: 0,
                mean: 0.0,
                variance: 0.0,
                isolated: 0,
            };
        }
        let degrees: Vec<usize> = graph.node_ids().map(|id| graph.degree(id)).collect();
        let min = *degrees.iter().min().expect("non-empty"); // lint-allow(unwrap): the n == 0 case returned early above
        let max = *degrees.iter().max().expect("non-empty"); // lint-allow(unwrap): the n == 0 case returned early above
        let isolated = degrees.iter().filter(|&&d| d == 0).count();
        let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
        let variance = degrees
            .iter()
            .map(|&d| {
                let diff = d as f64 - mean;
                diff * diff
            })
            .sum::<f64>()
            / n as f64;
        DegreeStats {
            min,
            max,
            mean,
            variance,
            isolated,
        }
    }

    /// Returns `true` if every node has exactly degree `k`.
    pub fn is_regular_with_degree(&self, k: usize) -> bool {
        self.min == k && self.max == k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn empty_graph_stats_are_zero() {
        let stats = DegreeStats::from_graph(&Graph::with_nodes(0));
        assert_eq!(stats.min, 0);
        assert_eq!(stats.max, 0);
        assert_eq!(stats.mean, 0.0);
        assert_eq!(stats.variance, 0.0);
        assert_eq!(stats.isolated, 0);
    }

    #[test]
    fn counts_isolated_nodes() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let stats = DegreeStats::from_graph(&g);
        assert_eq!(stats.isolated, 2);
        assert_eq!(stats.min, 0);
        assert_eq!(stats.max, 1);
        assert!((stats.mean - 0.5).abs() < 1e-12);
    }

    #[test]
    fn star_graph_stats() {
        // hub 0 connected to 1..=4
        let mut g = Graph::with_nodes(5);
        for i in 1..5 {
            g.add_edge(NodeId::new(0), NodeId::new(i)).unwrap();
        }
        let stats = DegreeStats::from_graph(&g);
        assert_eq!(stats.min, 1);
        assert_eq!(stats.max, 4);
        assert!((stats.mean - 1.6).abs() < 1e-12);
        // degrees: 4,1,1,1,1; mean 1.6; variance = (5.76 + 4*0.36)/5 = 1.44
        assert!((stats.variance - 1.44).abs() < 1e-12);
    }

    #[test]
    fn regular_detection() {
        let g = Graph::complete(6);
        let stats = DegreeStats::from_graph(&g);
        assert!(stats.is_regular_with_degree(5));
        assert!(!stats.is_regular_with_degree(4));
        assert_eq!(stats.variance, 0.0);
    }
}
