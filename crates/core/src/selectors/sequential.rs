//! `GETPAIR_SEQ`: every node initiates once per cycle, in a fixed order.

use super::PairSelector;
use overlay_topology::{NodeId, Topology};
use rand::RngCore;

/// The paper's `GETPAIR_SEQ`: iterate over the node set in a fixed order and
/// let each node pick one uniformly random neighbour (Section 3.3.3).
///
/// This is the selection strategy that the *deployable* protocol of Figure 1
/// realises — "each node has to pick a neighbor periodically in regular
/// intervals and perform the variance reduction step with the neighbor" — and
/// the one both the simulator and the live runtime of this project use by
/// default.
///
/// Per cycle a node participates once as the initiator plus a Poisson(1)
/// number of times as the responder, so `φ = 1 + Poisson(1)` and the
/// theoretical per-cycle variance reduction is `1/(2√e) ≈ 0.303`, derived in
/// the paper through the `GETPAIR_PMRAND` proxy.
///
/// # Example
///
/// ```
/// use aggregate_core::selectors::{PairSelector, SequentialSelector};
/// use overlay_topology::CompleteTopology;
/// use rand::SeedableRng;
///
/// let topo = CompleteTopology::new(4);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut selector = SequentialSelector::new();
/// selector.begin_cycle(&topo, &mut rng);
/// // The initiators of the four slots are nodes 0, 1, 2, 3 in order.
/// for expected_initiator in 0..4 {
///     let (initiator, _) = selector.next_pair(&topo, &mut rng).unwrap();
///     assert_eq!(initiator.index(), expected_initiator);
/// }
/// ```
#[derive(Debug, Default, Clone)]
pub struct SequentialSelector {
    cursor: usize,
}

impl SequentialSelector {
    /// Creates a new sequential selector starting at node 0.
    pub fn new() -> Self {
        SequentialSelector { cursor: 0 }
    }
}

impl PairSelector for SequentialSelector {
    fn begin_cycle(&mut self, _topology: &dyn Topology, _rng: &mut dyn RngCore) {
        self.cursor = 0;
    }

    fn next_pair(
        &mut self,
        topology: &dyn Topology,
        rng: &mut dyn RngCore,
    ) -> Option<(NodeId, NodeId)> {
        let n = topology.len();
        if n == 0 {
            return None;
        }
        // Each slot belongs to exactly one initiator; wrap around so the
        // selector also works when driven for more than N calls per cycle.
        let initiator = NodeId::new(self.cursor % n);
        self.cursor += 1;
        let responder = topology.random_neighbor(initiator, rng)?;
        Some((initiator, responder))
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selectors::tests::contact_counts;
    use crate::theory;
    use overlay_topology::{generators, CompleteTopology, Graph};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(3)
    }

    #[test]
    fn every_node_initiates_exactly_once_per_cycle() {
        let topo = CompleteTopology::new(200);
        let mut r = rng();
        let mut selector = SequentialSelector::new();
        selector.begin_cycle(&topo, &mut r);
        let mut initiations = vec![0u32; 200];
        for _ in 0..200 {
            let (initiator, responder) = selector.next_pair(&topo, &mut r).unwrap();
            initiations[initiator.index()] += 1;
            assert_ne!(initiator, responder);
        }
        assert!(initiations.iter().all(|&c| c == 1));
    }

    #[test]
    fn begin_cycle_resets_the_iteration_order() {
        let topo = CompleteTopology::new(10);
        let mut r = rng();
        let mut selector = SequentialSelector::new();
        selector.begin_cycle(&topo, &mut r);
        let _ = selector.next_pair(&topo, &mut r);
        let _ = selector.next_pair(&topo, &mut r);
        selector.begin_cycle(&topo, &mut r);
        let (initiator, _) = selector.next_pair(&topo, &mut r).unwrap();
        assert_eq!(initiator, NodeId::new(0));
    }

    #[test]
    fn contact_distribution_matches_one_plus_poisson_one() {
        let topo = CompleteTopology::new(2_000);
        let mut r = rng();
        let mut selector = SequentialSelector::new();
        let mut reduction_sum = 0.0;
        let mut contact_sum = 0u64;
        let mut min_contacts = u32::MAX;
        let mut samples = 0usize;
        for _ in 0..20 {
            let counts = contact_counts(&mut selector, &topo, &mut r);
            for &c in &counts {
                reduction_sum += 2.0f64.powi(-(c as i32));
                contact_sum += u64::from(c);
                min_contacts = min_contacts.min(c);
                samples += 1;
            }
        }
        // Every node is selected at least once (as initiator).
        assert!(min_contacts >= 1);
        // Mean contacts per cycle is 2 (one initiation + one expected response).
        let mean = contact_sum as f64 / samples as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean contacts {mean}");
        // E(2^-φ) ≈ 1/(2√e).
        let mean_reduction = reduction_sum / samples as f64;
        assert!(
            (mean_reduction - theory::seq_rate()).abs() < 0.01,
            "empirical E(2^-φ) = {mean_reduction}, expected ≈ {}",
            theory::seq_rate()
        );
    }

    #[test]
    fn isolated_nodes_yield_empty_slots_but_do_not_block_the_cycle() {
        let mut graph = Graph::with_nodes(4);
        graph.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        // Nodes 2 and 3 are isolated.
        let mut r = rng();
        let mut selector = SequentialSelector::new();
        selector.begin_cycle(&graph, &mut r);
        let mut produced = 0;
        for _ in 0..4 {
            if selector.next_pair(&graph, &mut r).is_some() {
                produced += 1;
            }
        }
        assert_eq!(produced, 2, "only the two connected nodes can initiate");
    }

    #[test]
    fn pairs_follow_overlay_edges() {
        let mut r = rng();
        let graph = generators::random_regular(100, 20, &mut r).unwrap();
        let mut selector = SequentialSelector::new();
        selector.begin_cycle(&graph, &mut r);
        for _ in 0..100 {
            let (a, b) = selector.next_pair(&graph, &mut r).unwrap();
            assert!(graph.contains_edge(a, b));
        }
    }

    #[test]
    fn empty_topology_returns_none() {
        let mut r = rng();
        let mut selector = SequentialSelector::new();
        assert!(selector
            .next_pair(&CompleteTopology::new(0), &mut r)
            .is_none());
    }
}
