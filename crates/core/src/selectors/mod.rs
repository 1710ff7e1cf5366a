//! Pair selection strategies — the paper's `GETPAIR` implementations.
//!
//! The theoretical core of the paper (Section 3) analyses the in-place vector
//! algorithm `AVG` (Figure 2), which is driven by a `GETPAIR` oracle returning
//! the pair of nodes that performs the next elementary variance-reduction
//! step. The convergence rate depends only on the distribution of `φ`, the
//! number of times a node is selected during one cycle (N calls):
//!
//! | selector | paper name | per-cycle variance reduction `E(2^-φ)` |
//! |---|---|---|
//! | [`SelectorKind::PerfectMatching`] | `GETPAIR_PM` | 1/4 (optimal) |
//! | [`RandomEdgeSelector`] | `GETPAIR_RAND` | 1/e ≈ 0.368 |
//! | [`SequentialSelector`] | `GETPAIR_SEQ` | ≈ 1/(2√e) ≈ 0.303 |
//! | [`SelectorKind::PmRand`] | `GETPAIR_PMRAND` | 1/(2√e) (analysis proxy for SEQ) |
//!
//! All selectors are *value blind*: they never look at the numbers stored at
//! the nodes, only at the overlay topology, exactly as required by the paper's
//! model ("the returned pair cannot be determined (or affected) by some global
//! property of the value vector").

mod perfect_matching;
mod pmrand;
mod random_edge;
mod sequential;

pub(crate) use perfect_matching::PerfectMatchingSelector;
pub(crate) use pmrand::PmRandSelector;
pub use random_edge::RandomEdgeSelector;
pub use sequential::SequentialSelector;

use crate::theory;
use overlay_topology::{NodeId, Topology};
use rand::RngCore;
use std::fmt::Debug;

/// A `GETPAIR` implementation: produces the pairs on which the elementary
/// variance-reduction steps are performed.
///
/// One *cycle* of the AVG algorithm consists of [`PairSelector::begin_cycle`]
/// followed by exactly `N` calls to [`PairSelector::next_pair`] (where `N` is
/// the number of nodes). A call may return `None` when no valid pair exists
/// for that slot (for instance the sequential selector hit an isolated node);
/// the driver simply skips such slots.
pub trait PairSelector: Debug {
    /// Resets per-cycle state. Must be called before the first
    /// [`PairSelector::next_pair`] of every cycle.
    fn begin_cycle(&mut self, topology: &dyn Topology, rng: &mut dyn RngCore);

    /// Returns the next pair of distinct nodes to exchange, or `None` if this
    /// slot cannot produce a valid pair.
    fn next_pair(
        &mut self,
        topology: &dyn Topology,
        rng: &mut dyn RngCore,
    ) -> Option<(NodeId, NodeId)>;

    /// Short, stable, human readable name (used in reports and traces).
    fn name(&self) -> &'static str;
}

/// Enumeration of the built-in pair-selection strategies, for use in
/// serialisable experiment configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SelectorKind {
    /// `GETPAIR_PM` — non-overlapping perfect matchings; the optimal reference.
    PerfectMatching,
    /// `GETPAIR_RAND` — uniformly random edges.
    RandomEdge,
    /// `GETPAIR_SEQ` — every node initiates exactly once per cycle, in a fixed
    /// order; this is the practically deployable protocol.
    Sequential,
    /// `GETPAIR_PMRAND` — first half of the cycle behaves like PM, the second
    /// half like RAND; the analytical proxy the paper uses for SEQ.
    PmRand,
}

impl SelectorKind {
    /// Instantiates the corresponding selector.
    pub fn instantiate(self) -> Box<dyn PairSelector> {
        match self {
            SelectorKind::PerfectMatching => Box::new(PerfectMatchingSelector::new()),
            SelectorKind::RandomEdge => Box::new(RandomEdgeSelector::new()),
            SelectorKind::Sequential => Box::new(SequentialSelector::new()),
            SelectorKind::PmRand => Box::new(PmRandSelector::new()),
        }
    }

    /// The closed-form per-cycle variance-reduction factor the paper derives
    /// for this selector (Section 3.3), i.e. the expected value `E(2^-φ)`.
    pub fn theoretical_rate(self) -> f64 {
        match self {
            SelectorKind::PerfectMatching => theory::PM_RATE,
            SelectorKind::RandomEdge => theory::rand_rate(),
            SelectorKind::Sequential | SelectorKind::PmRand => theory::seq_rate(),
        }
    }

    /// All built-in selector kinds, in the order used by reports.
    pub fn all() -> [SelectorKind; 4] {
        [
            SelectorKind::PerfectMatching,
            SelectorKind::RandomEdge,
            SelectorKind::Sequential,
            SelectorKind::PmRand,
        ]
    }

    /// The paper's name for the selector (`getPair_pm`, `getPair_rand`, …).
    pub fn paper_name(self) -> &'static str {
        match self {
            SelectorKind::PerfectMatching => "getPair_pm",
            SelectorKind::RandomEdge => "getPair_rand",
            SelectorKind::Sequential => "getPair_seq",
            SelectorKind::PmRand => "getPair_pmrand",
        }
    }
}

impl std::fmt::Display for SelectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_topology::CompleteTopology;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    /// Counts how many times each node participates in the pairs produced during
    /// one cycle — the random variable `φ` of Theorem 1.
    ///
    /// Shared by the selector tests that validate selector behaviour against the
    /// distributions assumed in the paper (φ ≡ 2 for PM, Poisson(2)
    /// for RAND, 1 + Poisson(1) for SEQ).
    pub(crate) fn contact_counts(
        selector: &mut dyn PairSelector,
        topology: &dyn Topology,
        rng: &mut dyn RngCore,
    ) -> Vec<u32> {
        let n = topology.len();
        let mut counts = vec![0u32; n];
        selector.begin_cycle(topology, rng);
        for _ in 0..n {
            if let Some((a, b)) = selector.next_pair(topology, rng) {
                counts[a.index()] += 1;
                counts[b.index()] += 1;
            }
        }
        counts
    }

    #[test]
    fn kinds_instantiate_with_expected_names() {
        assert_eq!(
            SelectorKind::PerfectMatching.instantiate().name(),
            "perfect-matching"
        );
        assert_eq!(SelectorKind::RandomEdge.instantiate().name(), "random-edge");
        assert_eq!(SelectorKind::Sequential.instantiate().name(), "sequential");
        assert_eq!(SelectorKind::PmRand.instantiate().name(), "pm-rand");
    }

    #[test]
    fn theoretical_rates_match_the_paper() {
        assert!((SelectorKind::PerfectMatching.theoretical_rate() - 0.25).abs() < 1e-12);
        assert!((SelectorKind::RandomEdge.theoretical_rate() - 0.367_879_441).abs() < 1e-6);
        assert!((SelectorKind::Sequential.theoretical_rate() - 0.303_265_33).abs() < 1e-6);
        assert_eq!(
            SelectorKind::Sequential.theoretical_rate(),
            SelectorKind::PmRand.theoretical_rate()
        );
    }

    #[test]
    fn paper_names_and_display() {
        assert_eq!(SelectorKind::RandomEdge.to_string(), "getPair_rand");
        assert_eq!(SelectorKind::Sequential.paper_name(), "getPair_seq");
        assert_eq!(SelectorKind::all().len(), 4);
    }

    #[test]
    fn contact_counts_sum_to_twice_the_pairs() {
        let topo = CompleteTopology::new(100);
        let mut r = rng();
        for kind in SelectorKind::all() {
            let mut selector = kind.instantiate();
            let counts = contact_counts(selector.as_mut(), &topo, &mut r);
            let total: u32 = counts.iter().sum();
            assert_eq!(
                total % 2,
                0,
                "{kind:?}: every pair contributes exactly two contacts"
            );
            assert!(total > 0, "{kind:?} produced no pairs at all");
        }
    }

    #[test]
    fn selectors_are_usable_as_trait_objects() {
        let topo = CompleteTopology::new(10);
        let mut r = rng();
        let mut selectors: Vec<Box<dyn PairSelector>> = SelectorKind::all()
            .iter()
            .map(|k| k.instantiate())
            .collect();
        for s in &mut selectors {
            s.begin_cycle(&topo, &mut r);
            let pair = s.next_pair(&topo, &mut r);
            if let Some((a, b)) = pair {
                assert_ne!(a, b);
            }
        }
    }
}
