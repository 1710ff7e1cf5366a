//! Aggregate functions: the `AGGREGATE` step of the anti-entropy protocol.
//!
//! The protocol skeleton (Figure 1 of the paper) is agnostic of what is being
//! computed: after two peers exchange their current approximations `x_i` and
//! `x_j`, both replace their approximation by `AGGREGATE(x_i, x_j)`. The choice
//! of `AGGREGATE` determines the aggregate that the network converges to:
//!
//! | function | converges to | implementation |
//! |---|---|---|
//! | `(x + y) / 2` | global average | [`AggregateKind::Average`] |
//! | `max(x, y)` | global maximum | [`AggregateKind::Maximum`] |
//! | `min(x, y)` | global minimum | [`AggregateKind::Minimum`] |
//! | average of `xᵏ` | k-th raw moment | [`AggregateKind::Moment`] |
//! | average of leader indicator | `1/N` → network size | [`CountInit`] + [`AggregateKind::Average`] |
//! | `max(x, y)` on {0, 1} | boolean OR | [`AggregateKind::BooleanOr`] |
//! | `min(x, y)` on {0, 1} | boolean AND | [`AggregateKind::BooleanAnd`] |
//! | average of `ln x` | geometric mean | [`AggregateKind::GeometricMean`] |
//!
//! Derived quantities (sums, variances, standard deviations, network size) are
//! obtained by running several instances in parallel and combining their
//! outputs; see [`crate::derived`].

mod average;
mod boolean;
mod extrema;
mod moments;

pub(crate) use average::Average;
pub(crate) use boolean::BooleanAnd;
pub(crate) use boolean::BooleanOr;
pub(crate) use extrema::Maximum;
pub(crate) use extrema::Minimum;
pub(crate) use moments::GeometricMean;
pub(crate) use moments::Moment;

use std::fmt::Debug;

/// An aggregate function applied during the elementary anti-entropy exchange.
///
/// # Contract
///
/// Implementations must be:
///
/// * **symmetric** — `merge(x, y) == merge(y, x)`, because both peers apply the
///   function to the same unordered pair of estimates and must end up with the
///   same new estimate;
/// * **idempotent on equal inputs** — `merge(x, x) == x`, so a converged
///   network stays converged;
/// * **total-preserving or monotone** — averaging-like functions must preserve
///   the sum of the two estimates (this is what makes the protocol exact:
///   `x + y == merge(x,y) + merge(y,x)`), while extrema-like functions must be
///   monotone non-decreasing (for max) or non-increasing (for min) in both
///   arguments.
///
/// The properties are exercised by unit tests and property-based tests in this
/// crate; custom implementations should add the same tests.
pub trait Aggregate: Debug + Send + Sync {
    /// Combines the two exchanged approximations into the value adopted by
    /// *both* peers.
    fn merge(&self, local: f64, remote: f64) -> f64;

    /// Transforms a node's internal state into the user-facing estimate.
    ///
    /// The default is the identity; the `Moment` aggregate uses it to undo its power
    /// transform and the network-size estimator inverts the average.
    fn estimate(&self, state: f64) -> f64 {
        state
    }

    /// Prepares a node's *initial* state from its local attribute value.
    ///
    /// The default is the identity. The `Moment` aggregate raises the value
    /// to the k-th power, the `GeometricMean` aggregate takes the logarithm.
    fn init(&self, local_value: f64) -> f64 {
        local_value
    }

    /// Short, stable, human readable name (used in reports and traces).
    fn name(&self) -> &'static str;
}

/// Enumeration of the built-in aggregate functions.
///
/// Useful when the aggregate is chosen from configuration (the simulator and
/// the benchmarks store an `AggregateKind` in their scenario descriptions);
/// [`AggregateKind::instantiate`] turns it into a boxed [`Aggregate`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum AggregateKind {
    /// Arithmetic average (the paper's main subject).
    Average,
    /// Maximum.
    Maximum,
    /// Minimum.
    Minimum,
    /// k-th raw moment.
    Moment {
        /// Order of the moment (k ≥ 1).
        order: u32,
    },
    /// Geometric mean.
    GeometricMean,
    /// Boolean OR over indicator values.
    BooleanOr,
    /// Boolean AND over indicator values.
    BooleanAnd,
}

impl AggregateKind {
    /// Instantiates the corresponding aggregate function.
    pub fn instantiate(self) -> Box<dyn Aggregate> {
        match self {
            AggregateKind::Average => Box::new(Average),
            AggregateKind::Maximum => Box::new(Maximum),
            AggregateKind::Minimum => Box::new(Minimum),
            AggregateKind::Moment { order } => Box::new(Moment::new(order)),
            AggregateKind::GeometricMean => Box::new(GeometricMean),
            AggregateKind::BooleanOr => Box::new(BooleanOr),
            AggregateKind::BooleanAnd => Box::new(BooleanAnd),
        }
    }

    /// Statically dispatched version of [`Aggregate::merge`].
    ///
    /// The per-node protocol state stores an `AggregateKind` (which is `Copy`)
    /// rather than a boxed trait object, so that simulations with hundreds of
    /// thousands of nodes stay allocation-free on the hot path; this helper
    /// and its siblings provide the trait's behaviour without boxing.
    pub(crate) fn merge_values(self, local: f64, remote: f64) -> f64 {
        match self {
            AggregateKind::Average => Average.merge(local, remote),
            AggregateKind::Maximum => Maximum.merge(local, remote),
            AggregateKind::Minimum => Minimum.merge(local, remote),
            AggregateKind::Moment { order } => Moment::new(order).merge(local, remote),
            AggregateKind::GeometricMean => GeometricMean.merge(local, remote),
            AggregateKind::BooleanOr => BooleanOr.merge(local, remote),
            AggregateKind::BooleanAnd => BooleanAnd.merge(local, remote),
        }
    }

    /// Statically dispatched version of [`Aggregate::init`].
    pub fn init_value(self, local_value: f64) -> f64 {
        match self {
            AggregateKind::Average => Average.init(local_value),
            AggregateKind::Maximum => Maximum.init(local_value),
            AggregateKind::Minimum => Minimum.init(local_value),
            AggregateKind::Moment { order } => Moment::new(order).init(local_value),
            AggregateKind::GeometricMean => GeometricMean.init(local_value),
            AggregateKind::BooleanOr => BooleanOr.init(local_value),
            AggregateKind::BooleanAnd => BooleanAnd.init(local_value),
        }
    }

    /// Statically dispatched version of [`Aggregate::estimate`].
    pub fn estimate_value(self, state: f64) -> f64 {
        match self {
            AggregateKind::Average => Average.estimate(state),
            AggregateKind::Maximum => Maximum.estimate(state),
            AggregateKind::Minimum => Minimum.estimate(state),
            AggregateKind::Moment { order } => Moment::new(order).estimate(state),
            AggregateKind::GeometricMean => GeometricMean.estimate(state),
            AggregateKind::BooleanOr => BooleanOr.estimate(state),
            AggregateKind::BooleanAnd => BooleanAnd.estimate(state),
        }
    }
}

/// Initialisation rule for the paper's network-size estimation (Section 4):
/// the elected leader starts from `1.0`, every other node from `0.0`; the
/// averaging protocol then converges to `1/N` at every node.
///
/// This is not an [`Aggregate`] by itself — it is combined with
/// [`AggregateKind::Average`] —
/// but it is kept here so the initialisation rule is documented next to the
/// functions it feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountInit;

impl CountInit {
    /// Initial state for a node: `1.0` for the leader, `0.0` otherwise.
    pub fn initial_value(leader: bool) -> f64 {
        if leader {
            1.0
        } else {
            0.0
        }
    }

    /// Converts a converged average (`≈ 1/N`) into a network-size estimate.
    ///
    /// Returns `f64::INFINITY` when the average is zero or negative (no leader
    /// was present in the epoch), which callers should treat as "unknown".
    pub(crate) fn size_estimate(average: f64) -> f64 {
        if average > 0.0 {
            1.0 / average
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds() -> Vec<AggregateKind> {
        vec![
            AggregateKind::Average,
            AggregateKind::Maximum,
            AggregateKind::Minimum,
            AggregateKind::Moment { order: 2 },
            AggregateKind::GeometricMean,
            AggregateKind::BooleanOr,
            AggregateKind::BooleanAnd,
        ]
    }

    #[test]
    fn every_kind_instantiates_with_matching_name() {
        for kind in kinds() {
            let agg = kind.instantiate();
            assert!(!agg.name().is_empty(), "{kind:?} produced an empty name");
        }
    }

    #[test]
    fn every_builtin_aggregate_is_symmetric_and_idempotent() {
        let samples = [-3.5, -1.0, 0.5, 1.0, 2.0, 10.0];
        for kind in kinds() {
            let agg = kind.instantiate();
            for &x in &samples {
                for &y in &samples {
                    let xy = agg.merge(x, y);
                    let yx = agg.merge(y, x);
                    assert!(
                        (xy - yx).abs() < 1e-12,
                        "{:?} is not symmetric on ({x}, {y})",
                        agg.name()
                    );
                }
                let xx = agg.merge(x, x);
                assert!(
                    (xx - x).abs() < 1e-12,
                    "{:?} is not idempotent on {x}",
                    agg.name()
                );
            }
        }
    }

    #[test]
    fn static_dispatch_matches_trait_objects() {
        let samples = [(-2.0, 3.0), (0.0, 0.0), (1.5, 1.5), (10.0, -10.0)];
        for kind in kinds() {
            let boxed = kind.instantiate();
            for &(x, y) in &samples {
                assert_eq!(kind.merge_values(x, y), boxed.merge(x, y), "{kind:?} merge");
                assert_eq!(kind.init_value(x), boxed.init(x), "{kind:?} init");
                assert_eq!(
                    kind.estimate_value(x),
                    boxed.estimate(x),
                    "{kind:?} estimate"
                );
            }
        }
    }

    #[test]
    fn count_init_round_trip() {
        assert_eq!(CountInit::initial_value(true), 1.0);
        assert_eq!(CountInit::initial_value(false), 0.0);
        // 1 leader among 100 nodes -> average 0.01 -> size 100.
        assert!((CountInit::size_estimate(0.01) - 100.0).abs() < 1e-9);
        assert!(CountInit::size_estimate(0.0).is_infinite());
        assert!(CountInit::size_estimate(-0.3).is_infinite());
    }

    #[test]
    fn aggregate_trait_objects_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Aggregate>();
    }
}
