//! Derived aggregates: quantities computed by combining several primitive
//! aggregation instances.
//!
//! The paper observes that averaging is a universal building block: "being
//! able to calculate the average already makes it possible to calculate any
//! moments …, the size of the system, the sum of the value set, etc."
//! (Section 1.1). The functions in this module perform those combinations on
//! the *outputs* of converged instances; they contain no protocol logic of
//! their own.

use crate::aggregate::CountInit;

/// Variance of the value set from its mean and second raw moment:
/// `Var[x] = E[x²] − E[x]²`.
///
/// The result is clamped at zero: with finite precision (or before full
/// convergence) the difference can dip slightly negative, and a negative
/// variance is never meaningful to report.
pub(crate) fn variance_from_moments(mean: f64, second_moment: f64) -> f64 {
    (second_moment - mean * mean).max(0.0)
}

/// Sum of the value set from its mean and the network size: `Σx = N · E[x]`.
///
/// The network size itself comes from a counting instance
/// ([`crate::size_estimation`]), so a complete "total free storage in the
/// system" query is two concurrent instances plus this one multiplication.
pub(crate) fn sum_from_mean_and_size(mean: f64, size: f64) -> f64 {
    mean * size
}

/// Network size from the converged average of a counting instance
/// (`1` at the leader, `0` elsewhere). Convenience re-export of
/// [`CountInit::size_estimate`] so that all derived quantities live in one
/// module.
pub(crate) fn size_from_count_average(average: f64) -> f64 {
    CountInit::size_estimate(average)
}

/// A bundle of global statistics assembled from converged instance estimates.
///
/// This is the "dashboard" a monitoring application would maintain: it is
/// deliberately a plain data structure so it can be serialised, logged or
/// diffed between epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkStatistics {
    /// Average of the attribute over all nodes.
    pub mean: f64,
    /// Variance of the attribute over all nodes.
    pub variance: f64,
    /// Minimum attribute value.
    pub min: f64,
    /// Maximum attribute value.
    pub max: f64,
    /// Estimated number of nodes.
    pub size: f64,
    /// Estimated sum of the attribute over all nodes.
    pub sum: f64,
}

impl NetworkStatistics {
    /// Assembles the statistics from the converged estimates of the four
    /// underlying instances: average, second moment, minimum, maximum, plus a
    /// counting instance average.
    pub fn from_estimates(
        mean: f64,
        second_moment: f64,
        min: f64,
        max: f64,
        count_average: f64,
    ) -> Self {
        let size = size_from_count_average(count_average);
        NetworkStatistics {
            mean,
            variance: variance_from_moments(mean, second_moment),
            min,
            max,
            size,
            sum: sum_from_mean_and_size(mean, size),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn variance_from_moments_of_small_value_sets() {
        // Values {1, 3}: mean 2, second moment 5, variance 1.
        assert_eq!(variance_from_moments(2.0, 5.0), 1.0);
        // Values {2, 4, 6}: mean 4, second moment 56/3, variance 8/3.
        assert!((variance_from_moments(4.0, 56.0 / 3.0) - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn variance_is_clamped_at_zero() {
        assert_eq!(variance_from_moments(10.0, 99.9999), 0.0);
    }

    #[test]
    fn sums_and_sizes() {
        assert_eq!(sum_from_mean_and_size(2.5, 1_000.0), 2_500.0);
        assert_eq!(size_from_count_average(0.001), 1_000.0);
        assert!(size_from_count_average(0.0).is_infinite());
    }

    #[test]
    fn statistics_bundle_is_consistent() {
        // 100 nodes, values uniform 0..=9 repeated: mean 4.5, m2 = 28.5.
        let stats = NetworkStatistics::from_estimates(4.5, 28.5, 0.0, 9.0, 0.01);
        assert_eq!(stats.size, 100.0);
        assert_eq!(stats.sum, 450.0);
        assert!((stats.variance - (28.5 - 20.25)).abs() < 1e-12);
        assert_eq!(stats.min, 0.0);
        assert_eq!(stats.max, 9.0);
    }

    proptest! {
        /// The moment identity Var = E[x²] − E[x]² reproduces the direct
        /// two-pass variance for arbitrary small vectors.
        #[test]
        fn prop_variance_identity(values in proptest::collection::vec(-1e3f64..1e3, 2..50)) {
            let n = values.len() as f64;
            let mean = values.iter().sum::<f64>() / n;
            let m2 = values.iter().map(|v| v * v).sum::<f64>() / n;
            let direct = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            let derived = variance_from_moments(mean, m2);
            prop_assert!((direct - derived).abs() < 1e-6 * (1.0 + direct.abs()));
        }

        /// Derived sums scale linearly with the size.
        #[test]
        fn prop_sum_linear_in_size(mean in -1e6f64..1e6, size in 1.0f64..1e6) {
            let sum = sum_from_mean_and_size(mean, size);
            prop_assert!((sum / size - mean).abs() < 1e-9 * (1.0 + mean.abs()));
        }
    }
}
