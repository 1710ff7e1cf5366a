//! Typed configuration and run errors for the simulation engines.

use aggregate_core::AggregationError;
use std::fmt;

/// A rejected simulation configuration.
///
/// Every constructor that can be handed nonsense validates at construction
/// and reports *which* parameter was rejected, instead of producing NaN
/// telemetry or a wedged run thousands of cycles later.
#[derive(Debug, Clone, PartialEq)]
pub enum SimConfigError {
    /// The initial population is empty.
    ZeroNodes,
    /// A run of zero cycles was requested.
    ZeroCycles,
    /// An initial value is NaN or infinite — it would poison every estimate
    /// it is ever averaged into.
    NonFiniteInitialValue {
        /// Position of the rejected value in the initial-value slice.
        index: usize,
        /// The rejected value.
        value: f64,
    },
    /// The failure conditions are not valid probabilities.
    InvalidConditions {
        /// The rejected message-loss probability.
        message_loss: f64,
        /// The rejected crash fraction.
        crash_fraction: f64,
    },
    /// A sharded engine with zero shards was requested.
    ZeroShards,
    /// An explicit worker-thread count of zero was requested.
    ZeroWorkers,
    /// More shards than the identifier layout's shard bits can address
    /// ([`crate::arena::MAX_SHARDS`]).
    TooManyShards {
        /// The rejected shard count.
        shards: usize,
        /// The maximum supported shard count.
        max: usize,
    },
    /// The initial population does not fit in the configured shards' slot
    /// space.
    PopulationExceedsCapacity {
        /// The rejected population size.
        nodes: usize,
        /// Total slots addressable by the configured shard count.
        capacity: usize,
    },
    /// The peer-sampling configuration cannot be realised (invalid overlay
    /// generator parameters, zero NEWSCAST cache, unknown variant).
    Sampler {
        /// Human-readable rejection reason.
        reason: String,
    },
    /// The fault schedule is malformed (a probability out of range, an empty
    /// partition window, a reversed loss ramp, …).
    Faults {
        /// Human-readable rejection reason (from
        /// [`gossip_faults::FaultPlanError`]).
        reason: String,
    },
    /// The adversary plan is malformed (collusion fraction out of range, a
    /// non-finite attack value, an empty attack window, …).
    Adversary {
        /// Human-readable rejection reason (from
        /// [`gossip_faults::AdversaryPlanError`]).
        reason: String,
    },
    /// The redundancy configuration is degenerate (zero instances, or a
    /// trimmed merge that discards every report).
    Redundancy {
        /// Human-readable rejection reason (from
        /// [`aggregate_core::ReportError`]).
        reason: String,
    },
    /// The leader-election policy is degenerate (a probability outside
    /// `[0, 1]` or NaN, a target leader count that is not positive and
    /// finite).
    LeaderPolicy {
        /// Human-readable rejection reason (from
        /// [`aggregate_core::size_estimation::LeaderPolicy::validate`]).
        reason: String,
    },
}

impl From<gossip_faults::FaultPlanError> for SimConfigError {
    fn from(e: gossip_faults::FaultPlanError) -> Self {
        SimConfigError::Faults {
            reason: e.to_string(),
        }
    }
}

impl From<gossip_faults::AdversaryPlanError> for SimConfigError {
    fn from(e: gossip_faults::AdversaryPlanError) -> Self {
        SimConfigError::Adversary {
            reason: e.to_string(),
        }
    }
}

impl From<aggregate_core::ReportError> for SimConfigError {
    fn from(e: aggregate_core::ReportError) -> Self {
        SimConfigError::Redundancy {
            reason: e.to_string(),
        }
    }
}

impl fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SimConfigError::ZeroNodes => write!(f, "initial population must not be empty"),
            SimConfigError::ZeroCycles => write!(f, "a run must simulate at least one cycle"),
            SimConfigError::NonFiniteInitialValue { index, value } => {
                write!(f, "initial value #{index} is {value}, which is not finite")
            }
            SimConfigError::InvalidConditions {
                message_loss,
                crash_fraction,
            } => write!(
                f,
                "network conditions invalid: message loss {message_loss} and crash fraction \
                 {crash_fraction} must be probabilities in [0, 1]"
            ),
            SimConfigError::ZeroShards => write!(f, "sharded engine needs at least one shard"),
            SimConfigError::ZeroWorkers => {
                write!(f, "sharded engine needs at least one worker thread")
            }
            SimConfigError::TooManyShards { shards, max } => {
                write!(
                    f,
                    "{shards} shards exceed the {max} the NodeId layout can address"
                )
            }
            SimConfigError::PopulationExceedsCapacity { nodes, capacity } => {
                write!(
                    f,
                    "{nodes} initial nodes exceed the {capacity} slots the configured shards \
                     can address"
                )
            }
            SimConfigError::Sampler { ref reason } => {
                write!(f, "peer-sampling configuration rejected: {reason}")
            }
            SimConfigError::Faults { ref reason } => {
                write!(f, "fault schedule rejected: {reason}")
            }
            SimConfigError::Adversary { ref reason } => {
                write!(f, "adversary plan rejected: {reason}")
            }
            SimConfigError::Redundancy { ref reason } => {
                write!(f, "redundancy configuration rejected: {reason}")
            }
            SimConfigError::LeaderPolicy { ref reason } => {
                write!(f, "leader policy rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for SimConfigError {}

/// Validates an initial-value population: non-empty and finite throughout.
///
/// # Errors
///
/// [`SimConfigError::ZeroNodes`] or
/// [`SimConfigError::NonFiniteInitialValue`].
pub(crate) fn validate_initial_values(values: &[f64]) -> Result<(), SimConfigError> {
    if values.is_empty() {
        return Err(SimConfigError::ZeroNodes);
    }
    for (index, &value) in values.iter().enumerate() {
        if !value.is_finite() {
            return Err(SimConfigError::NonFiniteInitialValue { index, value });
        }
    }
    Ok(())
}

/// Any error a simulation run can produce: a rejected configuration or a
/// protocol-level error bubbled up from `aggregate-core`.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The simulation configuration was rejected.
    Config(SimConfigError),
    /// The protocol configuration or execution failed.
    Protocol(AggregationError),
    /// A run finished without producing the measurement it was asked for
    /// (e.g. no size-estimation epoch completed inside the cycle budget).
    Incomplete(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "simulation configuration rejected: {e}"),
            SimError::Protocol(e) => write!(f, "protocol error: {e}"),
            SimError::Incomplete(reason) => write!(f, "measurement incomplete: {reason}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Protocol(e) => Some(e),
            SimError::Incomplete(_) => None,
        }
    }
}

impl From<SimConfigError> for SimError {
    fn from(e: SimConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<AggregationError> for SimError {
    fn from(e: AggregationError) -> Self {
        SimError::Protocol(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_value_validation_reports_the_offender() {
        assert_eq!(validate_initial_values(&[]), Err(SimConfigError::ZeroNodes));
        assert!(validate_initial_values(&[1.0, -2.5, 0.0]).is_ok());
        match validate_initial_values(&[0.0, f64::NAN]) {
            Err(SimConfigError::NonFiniteInitialValue { index: 1, value }) => {
                assert!(value.is_nan());
            }
            other => panic!("expected NonFiniteInitialValue, got {other:?}"),
        }
        assert_eq!(
            validate_initial_values(&[f64::INFINITY]),
            Err(SimConfigError::NonFiniteInitialValue {
                index: 0,
                value: f64::INFINITY,
            })
        );
    }

    #[test]
    fn errors_render_useful_messages() {
        for error in [
            SimConfigError::ZeroNodes,
            SimConfigError::ZeroCycles,
            SimConfigError::NonFiniteInitialValue {
                index: 3,
                value: f64::INFINITY,
            },
            SimConfigError::InvalidConditions {
                message_loss: 1.5,
                crash_fraction: 0.0,
            },
            SimConfigError::ZeroShards,
            SimConfigError::ZeroWorkers,
            SimConfigError::TooManyShards {
                shards: 99,
                max: 16,
            },
            SimConfigError::PopulationExceedsCapacity {
                nodes: 2_000_000,
                capacity: 1_048_576,
            },
            SimConfigError::Sampler {
                reason: "degree 50 too large".to_string(),
            },
            SimConfigError::Faults {
                reason: "link_failure 2 must be a probability in [0, 1]".to_string(),
            },
            SimConfigError::Adversary {
                reason: "collusion fraction 1.5 must be a probability in [0, 1]".to_string(),
            },
            SimConfigError::Redundancy {
                reason: "no instance reports to merge".to_string(),
            },
            SimConfigError::LeaderPolicy {
                reason: "leader probability 1.5 outside [0, 1]".to_string(),
            },
        ] {
            assert!(!error.to_string().is_empty());
            let wrapped = SimError::from(error);
            assert!(wrapped.to_string().contains("configuration rejected"));
            assert!(std::error::Error::source(&wrapped).is_some());
        }
        let protocol = SimError::from(AggregationError::invalid_config("boom"));
        assert!(protocol.to_string().contains("boom"));
    }
}
