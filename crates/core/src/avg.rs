//! The `AVG` algorithm (Figure 2 of the paper): whole-network view of one
//! cycle of anti-entropy averaging as an in-place variance-reduction pass over
//! a vector of values.
//!
//! This module is the engine behind the reproduction of Figure 3 and the
//! convergence-rate table: it runs cycles of elementary exchanges driven by a
//! [`PairSelector`] and reports the empirical statistics (mean, variance,
//! per-cycle reduction factor, per-node contact counts) that the paper plots.

use crate::aggregate::{Aggregate, Average};
use crate::selectors::PairSelector;
use crate::AggregationError;
use overlay_topology::Topology;
use rand::RngCore;

/// Empirical mean of a value vector (`ā` in equation (2) of the paper).
///
/// # Example
///
/// ```
/// use aggregate_core::avg::mean;
/// assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Empirical variance of a value vector with the `1/(N−1)` normalisation used
/// in equation (3) of the paper.
///
/// Returns `0.0` for vectors with fewer than two elements.
///
/// # Example
///
/// ```
/// use aggregate_core::avg::variance;
/// let v = variance(&[1.0, 2.0, 3.0, 4.0]);
/// assert!((v - 5.0 / 3.0).abs() < 1e-12);
/// ```
pub fn variance(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (n as f64 - 1.0)
}

/// Report of a single cycle of the `AVG` algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleReport {
    /// Cycle index (0-based) within the run.
    pub cycle: usize,
    /// Number of elementary exchanges actually performed (slots for which the
    /// selector produced a valid pair).
    pub(crate) exchanges: usize,
    /// Empirical variance before the cycle, `σ²_i`.
    pub variance_before: f64,
    /// Empirical variance after the cycle, `σ²_{i+1}`.
    pub variance_after: f64,
    /// Empirical mean after the cycle (must stay constant for averaging).
    pub(crate) mean_after: f64,
    /// Per-node contact counts during this cycle — the realisation of the
    /// random variable `φ` of Theorem 1.
    pub contacts: Vec<u32>,
}

impl CycleReport {
    /// The observed per-cycle variance-reduction factor `σ²_{i+1} / σ²_i`
    /// (the quantity plotted in Figure 3), or `None` when the variance before
    /// the cycle was already zero.
    pub fn reduction_factor(&self) -> Option<f64> {
        if self.variance_before > 0.0 {
            Some(self.variance_after / self.variance_before)
        } else {
            None
        }
    }
}

/// Runs one cycle of the `AVG` algorithm (Figure 2) in place: performs `N`
/// `GETPAIR` slots, replacing both selected values by `aggregate.merge` of the
/// pair.
///
/// Returns the per-cycle report. The `cycle` argument is only used to label
/// the report.
///
/// # Errors
///
/// Returns [`AggregationError::EmptyNetwork`] when `values` is empty and
/// [`AggregationError::InvalidConfig`] when the value vector length does not
/// match the topology size.
pub fn run_cycle_with(
    values: &mut [f64],
    topology: &dyn Topology,
    selector: &mut dyn PairSelector,
    aggregate: &dyn Aggregate,
    rng: &mut dyn RngCore,
    cycle: usize,
) -> Result<CycleReport, AggregationError> {
    let n = values.len();
    if n == 0 {
        return Err(AggregationError::EmptyNetwork);
    }
    if n != topology.len() {
        return Err(AggregationError::invalid_config(format!(
            "value vector has {n} entries but the topology has {} nodes",
            topology.len()
        )));
    }

    let variance_before = variance(values);
    let mut contacts = vec![0u32; n];
    let mut exchanges = 0usize;

    selector.begin_cycle(topology, rng);
    for _ in 0..n {
        let Some((i, j)) = selector.next_pair(topology, rng) else {
            continue;
        };
        let merged = aggregate.merge(values[i.index()], values[j.index()]);
        values[i.index()] = merged;
        values[j.index()] = merged;
        contacts[i.index()] += 1;
        contacts[j.index()] += 1;
        exchanges += 1;
    }

    Ok(CycleReport {
        cycle,
        exchanges,
        variance_before,
        variance_after: variance(values),
        mean_after: mean(values),
        contacts,
    })
}

/// Runs one cycle of plain anti-entropy *averaging* (the paper's `AVG`).
///
/// Equivalent to [`run_cycle_with`] with the [`Average`] aggregate.
pub(crate) fn run_avg_cycle(
    values: &mut [f64],
    topology: &dyn Topology,
    selector: &mut dyn PairSelector,
    rng: &mut dyn RngCore,
    cycle: usize,
) -> Result<CycleReport, AggregationError> {
    run_cycle_with(values, topology, selector, &Average, rng, cycle)
}

/// Runs `cycles` consecutive cycles of anti-entropy averaging and returns one
/// report per cycle.
///
/// This is the exact procedure behind Figure 3(b): iterate `AVG` on the same
/// vector and record `σ²_i / σ²_{i-1}` for each cycle.
///
/// # Errors
///
/// Propagates the errors of [`run_cycle_with`].
///
/// # Example
///
/// ```
/// use aggregate_core::avg::run_avg;
/// use aggregate_core::selectors::SequentialSelector;
/// use overlay_topology::CompleteTopology;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let topo = CompleteTopology::new(100);
/// let mut values: Vec<f64> = (0..100).map(f64::from).collect();
/// let mut selector = SequentialSelector::new();
/// let reports = run_avg(&mut values, &topo, &mut selector, &mut rng, 20)?;
/// // After 20 cycles every node is very close to the true average 49.5.
/// assert!(values.iter().all(|v| (v - 49.5).abs() < 0.1));
/// assert_eq!(reports.len(), 20);
/// # Ok::<(), aggregate_core::AggregationError>(())
/// ```
pub fn run_avg(
    values: &mut [f64],
    topology: &dyn Topology,
    selector: &mut dyn PairSelector,
    rng: &mut dyn RngCore,
    cycles: usize,
) -> Result<Vec<CycleReport>, AggregationError> {
    let mut reports = Vec::with_capacity(cycles);
    for cycle in 0..cycles {
        reports.push(run_avg_cycle(values, topology, selector, rng, cycle)?);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Maximum;
    use crate::selectors::{
        PerfectMatchingSelector, RandomEdgeSelector, SelectorKind, SequentialSelector,
    };
    use crate::theory;
    use overlay_topology::{generators, CompleteTopology};
    use proptest::prelude::*;
    use rand::SeedableRng;

    impl CycleReport {
        /// The empirical value of `E(2^-φ)` for this cycle, i.e. the average
        /// of `2^-contacts` over all nodes — Theorem 1 predicts the variance
        /// reduction factor from this quantity.
        fn empirical_phi_reduction(&self) -> f64 {
            if self.contacts.is_empty() {
                return 1.0;
            }
            self.contacts
                .iter()
                .map(|&c| 2.0f64.powi(-(c as i32)))
                .sum::<f64>()
                / self.contacts.len() as f64
        }
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    fn uniform_values(n: usize, rng: &mut impl rand::Rng) -> Vec<f64> {
        (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
    }

    #[test]
    fn mean_and_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[2.0, 4.0]), 2.0);
        assert_eq!(variance(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn empty_and_mismatched_inputs_are_rejected() {
        let mut r = rng();
        let topo = CompleteTopology::new(4);
        let mut selector = SequentialSelector::new();
        let err = run_avg_cycle(&mut [], &topo, &mut selector, &mut r, 0).unwrap_err();
        assert_eq!(err, AggregationError::EmptyNetwork);

        let mut values = vec![1.0; 3];
        let err = run_avg_cycle(&mut values, &topo, &mut selector, &mut r, 0).unwrap_err();
        assert!(matches!(err, AggregationError::InvalidConfig { .. }));
    }

    #[test]
    fn averaging_preserves_the_mean_exactly() {
        // Mass conservation at network scale: the mean never drifts, which is
        // what makes the protocol produce the *correct* average.
        let mut r = rng();
        let topo = CompleteTopology::new(500);
        let mut values = uniform_values(500, &mut r);
        let initial_mean = mean(&values);
        let mut selector = SequentialSelector::new();
        let reports = run_avg(&mut values, &topo, &mut selector, &mut r, 15).unwrap();
        for report in &reports {
            assert!(
                (report.mean_after - initial_mean).abs() < 1e-9,
                "mean drifted to {} (expected {initial_mean})",
                report.mean_after
            );
        }
    }

    #[test]
    fn variance_is_monotonically_non_increasing() {
        let mut r = rng();
        let topo = CompleteTopology::new(300);
        let mut values = uniform_values(300, &mut r);
        let mut selector = RandomEdgeSelector::new();
        let reports = run_avg(&mut values, &topo, &mut selector, &mut r, 20).unwrap();
        for report in &reports {
            assert!(report.variance_after <= report.variance_before + 1e-15);
        }
    }

    #[test]
    fn all_nodes_converge_to_the_true_average() {
        let mut r = rng();
        let n = 1_000;
        let topo = CompleteTopology::new(n);
        let mut values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let true_avg = mean(&values);
        let mut selector = SequentialSelector::new();
        run_avg(&mut values, &topo, &mut selector, &mut r, 30).unwrap();
        for v in &values {
            assert!(
                (v - true_avg).abs() < 1e-3 * true_avg.abs().max(1.0),
                "node estimate {v} too far from {true_avg}"
            );
        }
    }

    #[test]
    fn perfect_matching_reduces_variance_by_exactly_one_quarter_in_expectation() {
        // E1 sanity check at unit-test scale: the PM reduction factor is very
        // close to 1/4 on uncorrelated initial values.
        let mut r = rng();
        let n = 20_000;
        let topo = CompleteTopology::new(n);
        let mut values = uniform_values(n, &mut r);
        let mut selector = PerfectMatchingSelector::new();
        let report = run_avg_cycle(&mut values, &topo, &mut selector, &mut r, 0).unwrap();
        let factor = report.reduction_factor().unwrap();
        assert!(
            (factor - theory::PM_RATE).abs() < 0.02,
            "PM reduction factor {factor} should be ≈ 0.25"
        );
        assert!(report.contacts.iter().all(|&c| c == 2));
    }

    #[test]
    fn random_selector_reduction_close_to_one_over_e() {
        let mut r = rng();
        let n = 20_000;
        let topo = CompleteTopology::new(n);
        let mut values = uniform_values(n, &mut r);
        let mut selector = RandomEdgeSelector::new();
        let report = run_avg_cycle(&mut values, &topo, &mut selector, &mut r, 0).unwrap();
        let factor = report.reduction_factor().unwrap();
        assert!(
            (factor - theory::rand_rate()).abs() < 0.03,
            "RAND reduction factor {factor} should be ≈ {}",
            theory::rand_rate()
        );
    }

    #[test]
    fn sequential_selector_reduction_close_to_paper_rate() {
        let mut r = rng();
        let n = 20_000;
        let topo = CompleteTopology::new(n);
        let mut values = uniform_values(n, &mut r);
        let mut selector = SequentialSelector::new();
        let report = run_avg_cycle(&mut values, &topo, &mut selector, &mut r, 0).unwrap();
        let factor = report.reduction_factor().unwrap();
        assert!(
            (factor - theory::seq_rate()).abs() < 0.03,
            "SEQ reduction factor {factor} should be ≈ {}",
            theory::seq_rate()
        );
    }

    #[test]
    fn works_on_the_twenty_regular_random_overlay() {
        // The paper's second topology: 20-regular random graph.
        let mut r = rng();
        let n = 5_000;
        let graph = generators::random_regular(n, 20, &mut r).unwrap();
        let mut values = uniform_values(n, &mut r);
        let true_avg = mean(&values);
        let mut selector = SequentialSelector::new();
        let reports = run_avg(&mut values, &graph, &mut selector, &mut r, 25).unwrap();
        // Converged to the true average.
        assert!(values.iter().all(|v| (v - true_avg).abs() < 1e-4));
        // First-cycle reduction factor close to the theoretical SEQ rate
        // (Figure 3(a) shows the 20-regular curve is indistinguishable from
        // the complete graph for getPair_seq).
        let factor = reports[0].reduction_factor().unwrap();
        assert!((factor - theory::seq_rate()).abs() < 0.05);
    }

    #[test]
    fn theorem_one_links_phi_to_variance_reduction() {
        // The empirical E(2^-φ) of a cycle predicts the observed variance
        // reduction (equation (7)).
        let mut r = rng();
        let n = 20_000;
        let topo = CompleteTopology::new(n);
        for kind in SelectorKind::all() {
            let mut values = uniform_values(n, &mut r);
            let mut selector = kind.instantiate();
            let report = run_avg_cycle(&mut values, &topo, selector.as_mut(), &mut r, 0).unwrap();
            let predicted = report.empirical_phi_reduction();
            let observed = report.reduction_factor().unwrap();
            assert!(
                (predicted - observed).abs() < 0.03,
                "{kind:?}: observed reduction {observed} vs phi-predicted {predicted}"
            );
        }
    }

    #[test]
    fn max_aggregate_spreads_the_maximum_epidemically() {
        let mut r = rng();
        let n = 1_000;
        let topo = CompleteTopology::new(n);
        let mut values = vec![0.0; n];
        values[123] = 42.0;
        let mut selector = SequentialSelector::new();
        // log2(1000) ≈ 10 cycles of push-pull broadcast are plenty.
        for cycle in 0..15 {
            run_cycle_with(&mut values, &topo, &mut selector, &Maximum, &mut r, cycle).unwrap();
        }
        assert!(values.iter().all(|&v| v == 42.0));
    }

    #[test]
    fn cycle_report_helpers() {
        let report = CycleReport {
            cycle: 3,
            exchanges: 10,
            variance_before: 4.0,
            variance_after: 1.0,
            mean_after: 0.5,
            contacts: vec![2, 2],
        };
        assert_eq!(report.reduction_factor(), Some(0.25));
        assert_eq!(report.empirical_phi_reduction(), 0.25);

        let degenerate = CycleReport {
            variance_before: 0.0,
            contacts: vec![],
            ..report
        };
        assert_eq!(degenerate.reduction_factor(), None);
        assert_eq!(degenerate.empirical_phi_reduction(), 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// For arbitrary initial vectors, averaging preserves the mean and
        /// never increases the variance, on both complete and sparse overlays.
        #[test]
        fn prop_mean_preserved_variance_reduced(
            values in proptest::collection::vec(-1e6f64..1e6, 10..60),
            seed in 0u64..1000,
        ) {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let n = values.len();
            let topo = CompleteTopology::new(n);
            let mut working = values.clone();
            let initial_mean = mean(&working);
            let initial_var = variance(&working);
            let mut selector = SequentialSelector::new();
            run_avg(&mut working, &topo, &mut selector, &mut r, 5).unwrap();
            prop_assert!((mean(&working) - initial_mean).abs() < 1e-6 * (1.0 + initial_mean.abs()));
            prop_assert!(variance(&working) <= initial_var * (1.0 + 1e-9) + 1e-9);
        }
    }
}
