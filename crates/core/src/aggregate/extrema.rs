//! Extremal aggregates: maximum and minimum.

use super::Aggregate;

/// Maximum: both peers adopt `max(x, y)`.
///
/// As the paper notes (Section 1.1), with `AGGREGATE_MAX` the spreading of the
/// true maximum over the network is exactly a push–pull epidemic broadcast, so
/// every node learns the global maximum in `O(log N)` cycles with high
/// probability. Unlike averaging, the extremal aggregates are *monotone*: a
/// node's estimate never moves away from the true extremum, and crashed nodes
/// or lost messages can only delay (never corrupt) convergence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Maximum;

impl Aggregate for Maximum {
    fn merge(&self, local: f64, remote: f64) -> f64 {
        local.max(remote)
    }

    fn name(&self) -> &'static str {
        "maximum"
    }
}

/// Minimum: both peers adopt `min(x, y)`.
///
/// The mirror image of [`Maximum`]; useful e.g. for finding the smallest free
/// capacity or the earliest timestamp in the system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Minimum;

impl Aggregate for Minimum {
    fn merge(&self, local: f64, remote: f64) -> f64 {
        local.min(remote)
    }

    fn name(&self) -> &'static str {
        "minimum"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn max_and_min_basic_cases() {
        assert_eq!(Maximum.merge(-1.0, 1.0), 1.0);
        assert_eq!(Maximum.merge(5.0, 5.0), 5.0);
        assert_eq!(Minimum.merge(-1.0, 1.0), -1.0);
        assert_eq!(Minimum.merge(5.0, 5.0), 5.0);
        assert_eq!(Maximum.merge(3.0, 8.0), 8.0);
        assert_eq!(Minimum.merge(3.0, 8.0), 3.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Maximum.name(), "maximum");
        assert_eq!(Minimum.name(), "minimum");
    }

    #[test]
    fn init_and_estimate_are_identity() {
        assert_eq!(Maximum.init(2.0), 2.0);
        assert_eq!(Minimum.estimate(-3.0), -3.0);
    }

    proptest! {
        /// Idempotence: merging a value with itself leaves it unchanged.
        #[test]
        fn prop_idempotent(x in -1e12f64..1e12) {
            prop_assert_eq!(Maximum.merge(x, x), x);
            prop_assert_eq!(Minimum.merge(x, x), x);
        }

        /// Symmetry and selection: the result is always one of the inputs.
        #[test]
        fn prop_symmetric_selection(x in -1e12f64..1e12, y in -1e12f64..1e12) {
            let mx = Maximum.merge(x, y);
            prop_assert_eq!(mx, Maximum.merge(y, x));
            prop_assert!(mx == x || mx == y);
            prop_assert!(mx >= x && mx >= y);

            let mn = Minimum.merge(x, y);
            prop_assert_eq!(mn, Minimum.merge(y, x));
            prop_assert!(mn == x || mn == y);
            prop_assert!(mn <= x && mn <= y);
        }

        /// Associativity: order of pairwise merging never matters, which is
        /// what makes extrema insensitive to the gossip exchange schedule.
        #[test]
        fn prop_associative(x in -1e9f64..1e9, y in -1e9f64..1e9, z in -1e9f64..1e9) {
            prop_assert_eq!(
                Maximum.merge(Maximum.merge(x, y), z),
                Maximum.merge(x, Maximum.merge(y, z))
            );
            prop_assert_eq!(
                Minimum.merge(Minimum.merge(x, y), z),
                Minimum.merge(x, Minimum.merge(y, z))
            );
        }
    }
}
