//! `GETPAIR_RAND`: uniformly random edges.

use super::PairSelector;
use overlay_topology::{NodeId, Topology};
use rand::RngCore;

/// The paper's `GETPAIR_RAND`: every call returns an edge of the overlay drawn
/// uniformly at random, independently of all previous calls.
///
/// Over one cycle (N calls) the number of exchanges a given node participates
/// in is well approximated by a Poisson(2) random variable, giving the
/// per-cycle variance-reduction factor `E(2^-φ) = 1/e ≈ 0.368`
/// (Section 3.3.2). In a deployment this corresponds to every node waiting an
/// exponentially distributed time before initiating an exchange, which the
/// paper mentions as the natural distributed realisation.
///
/// # Example
///
/// ```
/// use aggregate_core::selectors::{PairSelector, RandomEdgeSelector};
/// use overlay_topology::CompleteTopology;
/// use rand::SeedableRng;
///
/// let topo = CompleteTopology::new(10);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut selector = RandomEdgeSelector::new();
/// selector.begin_cycle(&topo, &mut rng);
/// let (a, b) = selector.next_pair(&topo, &mut rng).unwrap();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct RandomEdgeSelector;

impl RandomEdgeSelector {
    /// Creates a new random-edge selector.
    pub fn new() -> Self {
        RandomEdgeSelector
    }
}

impl PairSelector for RandomEdgeSelector {
    fn begin_cycle(&mut self, _topology: &dyn Topology, _rng: &mut dyn RngCore) {
        // Stateless: nothing to reset.
    }

    fn next_pair(
        &mut self,
        topology: &dyn Topology,
        rng: &mut dyn RngCore,
    ) -> Option<(NodeId, NodeId)> {
        topology.random_edge(rng)
    }

    fn name(&self) -> &'static str {
        "random-edge"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selectors::tests::contact_counts;
    use crate::theory;
    use overlay_topology::{generators, CompleteTopology};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn pairs_are_valid_edges() {
        let mut r = rng();
        let graph = generators::random_regular(50, 6, &mut r).unwrap();
        let mut selector = RandomEdgeSelector::new();
        selector.begin_cycle(&graph, &mut r);
        for _ in 0..500 {
            let (a, b) = selector.next_pair(&graph, &mut r).unwrap();
            assert_ne!(a, b);
            assert!(graph.contains_edge(a, b));
        }
    }

    #[test]
    fn contact_distribution_approximates_poisson_two() {
        // Average number of contacts per node over a cycle must be 2, and the
        // empirical mean of 2^-φ must be close to 1/e (the paper's rate).
        let topo = CompleteTopology::new(2_000);
        let mut r = rng();
        let mut selector = RandomEdgeSelector::new();
        let mut total_contacts = 0u64;
        let mut reduction_sum = 0.0;
        let mut samples = 0usize;
        for _ in 0..20 {
            let counts = contact_counts(&mut selector, &topo, &mut r);
            for &c in &counts {
                total_contacts += u64::from(c);
                reduction_sum += 2.0f64.powi(-(c as i32));
                samples += 1;
            }
        }
        let mean_contacts = total_contacts as f64 / samples as f64;
        assert!(
            (mean_contacts - 2.0).abs() < 0.05,
            "mean contacts {mean_contacts} should be ≈ 2"
        );
        let mean_reduction = reduction_sum / samples as f64;
        assert!(
            (mean_reduction - theory::rand_rate()).abs() < 0.01,
            "empirical E(2^-φ) = {mean_reduction}, expected ≈ {}",
            theory::rand_rate()
        );
    }

    #[test]
    fn zero_variance_of_poisson_is_not_assumed() {
        // Sanity: unlike PM, the counts are NOT all equal to 2.
        let topo = CompleteTopology::new(500);
        let mut r = rng();
        let mut selector = RandomEdgeSelector::new();
        let counts = contact_counts(&mut selector, &topo, &mut r);
        assert!(counts.iter().any(|&c| c != 2));
    }

    #[test]
    fn empty_topologies_yield_no_pairs() {
        let mut r = rng();
        let mut selector = RandomEdgeSelector::new();
        assert!(selector
            .next_pair(&CompleteTopology::new(1), &mut r)
            .is_none());
        let isolated = overlay_topology::Graph::with_nodes(5);
        assert!(selector.next_pair(&isolated, &mut r).is_none());
    }
}
