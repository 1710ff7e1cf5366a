//! Moment-based aggregates: raw moments and the geometric mean.

use super::Aggregate;

/// k-th raw moment: averages `xᵏ` instead of `x`.
///
/// The paper points out (Section 1.1) that "being able to calculate the
/// average already makes it possible to calculate any moments (using averages
/// of different powers of the value set)". `Moment::new(k)` does exactly that:
/// [`Aggregate::init`] raises the local value to the k-th power and the
/// protocol then averages those powers, so the converged state is the k-th raw
/// moment `E[xᵏ]` of the value set.
///
/// [`Aggregate::estimate`] reports the raw moment itself; combining the second
/// moment with the plain average yields the variance, see
/// [`crate::derived::variance_from_moments`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Moment {
    order: u32,
}

impl Moment {
    /// Creates the aggregate for the `order`-th raw moment.
    ///
    /// # Panics
    ///
    /// Panics if `order == 0`; the zeroth moment is identically 1 and carries
    /// no information.
    pub(crate) fn new(order: u32) -> Self {
        assert!(order >= 1, "moment order must be at least 1");
        Moment { order }
    }
}

impl Aggregate for Moment {
    fn merge(&self, local: f64, remote: f64) -> f64 {
        local / 2.0 + remote / 2.0
    }

    fn init(&self, local_value: f64) -> f64 {
        local_value.powi(self.order as i32)
    }

    fn name(&self) -> &'static str {
        "moment"
    }
}

/// Geometric mean: averages `ln x` and exponentiates the result.
///
/// Only meaningful for strictly positive value sets; non-positive local values
/// are mapped to `ln` of a tiny positive constant so the protocol stays
/// numerically defined (documented behaviour rather than a panic, because a
/// single bad value should not crash an entire overlay).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct GeometricMean;

/// Smallest value substituted for non-positive inputs of the geometric mean.
const GEOMEAN_FLOOR: f64 = 1e-300;

impl Aggregate for GeometricMean {
    fn merge(&self, local: f64, remote: f64) -> f64 {
        local / 2.0 + remote / 2.0
    }

    fn init(&self, local_value: f64) -> f64 {
        local_value.max(GEOMEAN_FLOOR).ln()
    }

    fn estimate(&self, state: f64) -> f64 {
        state.exp()
    }

    fn name(&self) -> &'static str {
        "geometric-mean"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn moment_init_raises_to_power() {
        assert_eq!(Moment::new(1).init(4.0), 4.0);
        assert_eq!(Moment::new(2).init(4.0), 16.0);
        assert_eq!(Moment::new(3).init(-2.0), -8.0);
        // Still plain averaging of the transformed states.
        assert_eq!(Moment::new(2).init(3.0), 9.0);
        assert_eq!(Moment::new(2).merge(9.0, 25.0), 17.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zeroth_moment_is_rejected() {
        let _ = Moment::new(0);
    }

    #[test]
    fn moment_merge_is_plain_averaging() {
        let m = Moment::new(4);
        assert_eq!(m.merge(2.0, 4.0), 3.0);
        assert_eq!(m.estimate(3.0), 3.0);
    }

    #[test]
    fn geometric_mean_round_trip() {
        let g = GeometricMean;
        let estimate = g.estimate(g.init(42.0));
        assert!((estimate - 42.0).abs() < 1e-9);
    }

    #[test]
    fn geometric_mean_of_two_values() {
        let g = GeometricMean;
        let merged = g.merge(g.init(2.0), g.init(8.0));
        assert!((g.estimate(merged) - 4.0).abs() < 1e-9);
        let merged = g.merge(g.init(1.0), g.init(100.0));
        assert!((g.estimate(merged) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn geometric_mean_handles_non_positive_inputs() {
        let g = GeometricMean;
        let state = g.init(0.0);
        assert!(state.is_finite());
        let state = g.init(-5.0);
        assert!(state.is_finite());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Moment::new(2).name(), "moment");
        assert_eq!(GeometricMean.name(), "geometric-mean");
    }

    proptest! {
        /// Both moment and geometric-mean states are merged by exact averaging,
        /// so mass conservation carries over to them.
        #[test]
        fn prop_state_mass_conservation(x in -1e9f64..1e9, y in -1e9f64..1e9) {
            let m = Moment::new(3);
            prop_assert!((2.0 * m.merge(x, y) - (x + y)).abs() < 1e-6 * (1.0 + (x + y).abs()));
            let g = GeometricMean;
            prop_assert!((2.0 * g.merge(x, y) - (x + y)).abs() < 1e-6 * (1.0 + (x + y).abs()));
        }

        /// The geometric mean of two positive numbers lies between them.
        #[test]
        fn prop_geomean_between_inputs(a in 1e-6f64..1e6, b in 1e-6f64..1e6) {
            let g = GeometricMean;
            let est = g.estimate(g.merge(g.init(a), g.init(b)));
            let lo = a.min(b) * (1.0 - 1e-9);
            let hi = a.max(b) * (1.0 + 1e-9);
            prop_assert!(est >= lo && est <= hi);
        }

        /// Even moments are non-negative for any input.
        #[test]
        fn prop_even_moment_nonnegative(x in -1e6f64..1e6) {
            prop_assert!(Moment::new(2).init(x) >= 0.0);
            prop_assert!(Moment::new(4).init(x) >= 0.0);
        }
    }
}
