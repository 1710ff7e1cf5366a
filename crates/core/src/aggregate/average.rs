//! The averaging aggregate — the paper's `AGGREGATE_AVG`.

use super::Aggregate;

/// Arithmetic averaging: both peers adopt `(x + y) / 2`.
///
/// This is the aggregate the paper analyses in depth. Its key property is
/// **mass conservation**: the elementary exchange does not change the sum of
/// the two participating estimates, therefore the global sum — and hence the
/// global average — of all estimates is invariant across the whole execution
/// (Section 3.2: "the elementary variance reduction step … does not change the
/// sum of the elements"). Convergence of every node to the true average then
/// follows from the variance decay proved in the paper.
///
/// Averaging is also the building block for derived aggregates: counting
/// (network size), sums, higher moments and variances are all computed by
/// averaging transformed values; see [`crate::derived`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Average;

impl Aggregate for Average {
    fn merge(&self, local: f64, remote: f64) -> f64 {
        // Written as l/2 + r/2 (rather than (l+r)/2) to avoid overflow for
        // estimates near f64::MAX; for ordinary magnitudes the two forms are
        // bit-identical.
        local / 2.0 + remote / 2.0
    }

    fn name(&self) -> &'static str {
        "average"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn merge_is_midpoint() {
        let avg = Average;
        assert_eq!(avg.merge(0.0, 0.0), 0.0);
        assert_eq!(avg.merge(1.0, 3.0), 2.0);
        assert_eq!(avg.merge(-5.0, 5.0), 0.0);
        assert_eq!(avg.merge(2.5, 2.5), 2.5);
        assert_eq!(avg.merge(10.0, 20.0), 15.0);
    }

    #[test]
    fn init_and_estimate_are_identity() {
        let avg = Average;
        assert_eq!(avg.init(7.25), 7.25);
        assert_eq!(avg.estimate(7.25), 7.25);
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let avg = Average;
        let big = f64::MAX / 1.5;
        let merged = avg.merge(big, big);
        assert!(merged.is_finite());
        assert_eq!(merged, big);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Average.name(), "average");
    }

    proptest! {
        /// Mass conservation: the exchange never changes the pairwise sum.
        #[test]
        fn prop_mass_conservation(x in -1e12f64..1e12, y in -1e12f64..1e12) {
            let merged = Average.merge(x, y);
            prop_assert!((2.0 * merged - (x + y)).abs() <= 1e-3 * (1.0 + (x + y).abs()));
        }

        /// Symmetry in the arguments.
        #[test]
        fn prop_symmetry(x in -1e12f64..1e12, y in -1e12f64..1e12) {
            prop_assert_eq!(Average.merge(x, y), Average.merge(y, x));
        }

        /// The merged value always lies between the two inputs (contraction).
        #[test]
        fn prop_contraction(x in -1e9f64..1e9, y in -1e9f64..1e9) {
            let merged = Average.merge(x, y);
            let lo = x.min(y);
            let hi = x.max(y);
            prop_assert!(merged >= lo - 1e-9 && merged <= hi + 1e-9);
        }

        /// Variance of the pair never increases; it halves unless x == y.
        #[test]
        fn prop_pairwise_variance_reduction(x in -1e6f64..1e6, y in -1e6f64..1e6) {
            let merged = Average.merge(x, y);
            let mean = (x + y) / 2.0;
            let before = (x - mean).powi(2) + (y - mean).powi(2);
            let after = 2.0 * (merged - mean).powi(2);
            prop_assert!(after <= before + 1e-9);
        }
    }
}
