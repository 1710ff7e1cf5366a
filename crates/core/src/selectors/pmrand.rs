//! `GETPAIR_PMRAND`: perfect matching for the first half of the cycle, random
//! edges for the second half.

use super::{PairSelector, PerfectMatchingSelector, RandomEdgeSelector};
use overlay_topology::{NodeId, Topology};
use rand::RngCore;

/// The paper's `GETPAIR_PMRAND` (Section 3.3.3): during the first `N/2` calls
/// of a cycle it behaves like [`PerfectMatchingSelector`], during the
/// remaining calls like [`RandomEdgeSelector`].
///
/// The selector is not meant for deployment; the paper introduces it because
/// its per-node contact count has the same `1 + Poisson(1)` distribution as
/// `GETPAIR_SEQ` while still satisfying the assumptions of Theorem 1, which
/// yields the `1/(2√e)` convergence rate that is then transferred to the
/// practical sequential protocol. It is implemented here so that the
/// substitution step of the analysis can itself be validated empirically
/// (benchmark E1 compares SEQ and PMRAND side by side).
#[derive(Debug, Default)]
pub(crate) struct PmRandSelector {
    pm: PerfectMatchingSelector,
    rand: RandomEdgeSelector,
    calls_in_cycle: usize,
    topology_len: usize,
}

impl PmRandSelector {
    /// Creates a new PM+RAND composite selector.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl PairSelector for PmRandSelector {
    fn begin_cycle(&mut self, topology: &dyn Topology, rng: &mut dyn RngCore) {
        self.calls_in_cycle = 0;
        self.topology_len = topology.len();
        self.pm.begin_cycle(topology, rng);
        self.rand.begin_cycle(topology, rng);
    }

    fn next_pair(
        &mut self,
        topology: &dyn Topology,
        rng: &mut dyn RngCore,
    ) -> Option<(NodeId, NodeId)> {
        let half = self.topology_len.max(topology.len()) / 2;
        let use_pm = self.calls_in_cycle < half;
        self.calls_in_cycle += 1;
        if use_pm {
            self.pm.next_pair(topology, rng)
        } else {
            self.rand.next_pair(topology, rng)
        }
    }

    fn name(&self) -> &'static str {
        "pm-rand"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selectors::tests::contact_counts;
    use crate::theory;
    use overlay_topology::CompleteTopology;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    #[test]
    fn every_node_contacted_at_least_once_via_the_pm_half() {
        let topo = CompleteTopology::new(400);
        let mut r = rng();
        let mut selector = PmRandSelector::new();
        let counts = contact_counts(&mut selector, &topo, &mut r);
        assert!(
            counts.iter().all(|&c| c >= 1),
            "the PM half guarantees one contact per node"
        );
    }

    #[test]
    fn contact_distribution_matches_one_plus_poisson_one() {
        let topo = CompleteTopology::new(2_000);
        let mut r = rng();
        let mut selector = PmRandSelector::new();
        let mut reduction_sum = 0.0;
        let mut contact_sum = 0u64;
        let mut samples = 0usize;
        for _ in 0..20 {
            let counts = contact_counts(&mut selector, &topo, &mut r);
            for &c in &counts {
                reduction_sum += 2.0f64.powi(-(c as i32));
                contact_sum += u64::from(c);
                samples += 1;
            }
        }
        let mean = contact_sum as f64 / samples as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean contacts {mean}");
        let mean_reduction = reduction_sum / samples as f64;
        assert!(
            (mean_reduction - theory::seq_rate()).abs() < 0.01,
            "empirical E(2^-φ) = {mean_reduction}, expected ≈ {}",
            theory::seq_rate()
        );
    }

    #[test]
    fn pairs_are_distinct_nodes() {
        let topo = CompleteTopology::new(64);
        let mut r = rng();
        let mut selector = PmRandSelector::new();
        selector.begin_cycle(&topo, &mut r);
        for _ in 0..64 {
            let (a, b) = selector.next_pair(&topo, &mut r).unwrap();
            assert_ne!(a, b);
        }
    }

    #[test]
    fn begin_cycle_restarts_the_pm_phase() {
        let topo = CompleteTopology::new(10);
        let mut r = rng();
        let mut selector = PmRandSelector::new();
        selector.begin_cycle(&topo, &mut r);
        for _ in 0..10 {
            let _ = selector.next_pair(&topo, &mut r);
        }
        // Start a fresh cycle; first half must again be matching-driven, so
        // the first five slots must contact ten distinct nodes.
        selector.begin_cycle(&topo, &mut r);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5 {
            let (a, b) = selector.next_pair(&topo, &mut r).unwrap();
            assert!(seen.insert(a));
            assert!(seen.insert(b));
        }
    }
}
