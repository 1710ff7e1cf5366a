//! Network size estimation by anti-entropy counting (Section 4 of the paper).
//!
//! The idea: "if exactly one of the values stored by nodes is equal to 1 and
//! all the others are equal to 0, then the average is exactly 1/N so N can be
//! calculated directly." To avoid a single point of failure, *multiple* nodes
//! may concurrently start such counting instances — each node elects itself
//! leader at the beginning of an epoch with a small probability — and every
//! instance is tagged with its leader's identity so the exchanges never mix.
//!
//! This module provides the leader-election policies, the election draw and
//! the combination of concurrent instances into a single size estimate. A
//! winning node installs its counting instance with
//! [`ProtocolNode::start_led_instance`], tagged by [`InstanceTag::from_leader`]
//! and seeded with `1.0`.
//!
//! [`ProtocolNode::start_led_instance`]: crate::node::ProtocolNode::start_led_instance

use crate::aggregate::CountInit;
use crate::node::EpochResult;
use crate::protocol::InstanceTag;
use crate::AggregationError;
use rand::Rng;

/// Leader-election policy: with what probability a node starts its own
/// counting instance at the beginning of an epoch.
///
/// The paper bounds the number of concurrent instances by letting each node
/// become a leader "with a sufficiently small probability that can also depend
/// on the previous approximation of network size".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LeaderPolicy {
    /// Fixed probability per node per epoch.
    Fixed {
        /// Election probability (must lie in `[0, 1]`).
        probability: f64,
    },
    /// Adaptive probability `target_leaders / previous_size_estimate`, so that
    /// on average a constant number of leaders is elected regardless of the
    /// (estimated) network size. Falls back to `fallback_probability` when no
    /// previous estimate is available (e.g. the very first epoch).
    Adaptive {
        /// Desired expected number of concurrent instances.
        target_leaders: f64,
        /// Probability used while no previous size estimate exists.
        fallback_probability: f64,
    },
}

impl LeaderPolicy {
    /// The election probability for a node, given the previous size estimate
    /// (if any).
    pub(crate) fn probability(&self, previous_estimate: Option<f64>) -> f64 {
        match *self {
            LeaderPolicy::Fixed { probability } => probability.clamp(0.0, 1.0),
            LeaderPolicy::Adaptive {
                target_leaders,
                fallback_probability,
            } => match previous_estimate {
                Some(estimate) if estimate.is_finite() && estimate >= 1.0 => {
                    (target_leaders / estimate).clamp(0.0, 1.0)
                }
                _ => fallback_probability.clamp(0.0, 1.0),
            },
        }
    }

    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::InvalidConfig`] when a probability is
    /// outside `[0, 1]` or a target is not positive and finite.
    pub fn validate(&self) -> Result<(), AggregationError> {
        match *self {
            LeaderPolicy::Fixed { probability } => {
                if !(0.0..=1.0).contains(&probability) || !probability.is_finite() {
                    return Err(AggregationError::invalid_config(format!(
                        "leader probability {probability} outside [0, 1]"
                    )));
                }
            }
            LeaderPolicy::Adaptive {
                target_leaders,
                fallback_probability,
            } => {
                if target_leaders <= 0.0 || !target_leaders.is_finite() {
                    return Err(AggregationError::invalid_config(format!(
                        "target leader count {target_leaders} must be positive"
                    )));
                }
                if !(0.0..=1.0).contains(&fallback_probability) || !fallback_probability.is_finite()
                {
                    return Err(AggregationError::invalid_config(format!(
                        "fallback probability {fallback_probability} outside [0, 1]"
                    )));
                }
            }
        }
        Ok(())
    }
}

impl Default for LeaderPolicy {
    fn default() -> Self {
        // A handful of concurrent instances regardless of network size.
        LeaderPolicy::Adaptive {
            target_leaders: 4.0,
            fallback_probability: 0.01,
        }
    }
}

/// The election draw of one participating node: `true` with the policy's
/// probability. A probability of zero draws nothing.
pub fn wins_election<R: Rng + ?Sized>(
    policy: LeaderPolicy,
    previous_estimate: Option<f64>,
    rng: &mut R,
) -> bool {
    let p = policy.probability(previous_estimate);
    p > 0.0 && rng.gen_bool(p)
}

/// Combines the converged states of the counting instances a node observed
/// during an epoch into one network-size estimate.
///
/// Every instance individually converges to `1/N`; averaging the instance
/// states first and inverting afterwards pools their information and halves
/// the estimator's variance compared to inverting a single instance. Instances
/// the node never heard about simply do not appear in its list.
///
/// Returns `None` when the node observed no counting instance or when the
/// pooled average is non-positive.
pub(crate) fn combine_size_estimates(instance_states: &[f64]) -> Option<f64> {
    if instance_states.is_empty() {
        return None;
    }
    let mean = instance_states.iter().sum::<f64>() / instance_states.len() as f64;
    let estimate = CountInit::size_estimate(mean);
    if estimate.is_finite() {
        Some(estimate)
    } else {
        None
    }
}

/// Extracts a node's network-size estimate from a finished [`EpochResult`].
///
/// Only counting instances (non-default tags) are considered, and only results
/// from nodes that participated in the full epoch are meaningful; partial
/// participants return `None`, matching Figure 4's methodology ("converged
/// estimates are reported at the end of each epoch … by all nodes that
/// participated in the full epoch").
pub fn size_estimate_from_epoch(result: &EpochResult) -> Option<f64> {
    if !result.full_participation {
        return None;
    }
    let states: Vec<f64> = result
        .estimates
        .iter()
        .filter(|(tag, _)| *tag != InstanceTag::DEFAULT)
        .map(|(_, value)| *value)
        .collect();
    combine_size_estimates(&states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LateJoinPolicy, ProtocolConfig};
    use crate::node::ProtocolNode;
    use overlay_topology::NodeId;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(13)
    }

    #[test]
    fn fixed_policy_probability_is_clamped() {
        assert_eq!(
            LeaderPolicy::Fixed { probability: 0.25 }.probability(None),
            0.25
        );
        assert_eq!(
            LeaderPolicy::Fixed { probability: 7.0 }.probability(Some(10.0)),
            1.0
        );
    }

    #[test]
    fn adaptive_policy_scales_with_previous_estimate() {
        let policy = LeaderPolicy::Adaptive {
            target_leaders: 5.0,
            fallback_probability: 0.02,
        };
        assert_eq!(policy.probability(None), 0.02);
        assert!((policy.probability(Some(1_000.0)) - 0.005).abs() < 1e-12);
        assert_eq!(policy.probability(Some(0.0)), 0.02);
        assert_eq!(policy.probability(Some(f64::INFINITY)), 0.02);
        assert_eq!(policy.probability(Some(2.0)), 1.0);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(LeaderPolicy::Fixed { probability: 0.5 }.validate().is_ok());
        assert!(LeaderPolicy::Fixed { probability: -0.1 }
            .validate()
            .is_err());
        assert!(LeaderPolicy::Fixed { probability: 1.5 }.validate().is_err());
        assert!(LeaderPolicy::Adaptive {
            target_leaders: 0.0,
            fallback_probability: 0.1
        }
        .validate()
        .is_err());
        assert!(LeaderPolicy::Adaptive {
            target_leaders: 3.0,
            fallback_probability: 1.5
        }
        .validate()
        .is_err());
        assert!(LeaderPolicy::default().validate().is_ok());
    }

    #[test]
    fn combine_size_estimates_pools_instances() {
        // Two instances, both converged to exactly 1/100.
        assert!((combine_size_estimates(&[0.01, 0.01]).unwrap() - 100.0).abs() < 1e-9);
        // One converged slightly high, one slightly low: pooling averages them.
        let est = combine_size_estimates(&[0.009, 0.011]).unwrap();
        assert!((est - 100.0).abs() < 1.5);
        assert!(combine_size_estimates(&[]).is_none());
        assert!(combine_size_estimates(&[0.0]).is_none());
        assert!(combine_size_estimates(&[-0.1, 0.1]).is_none());
    }

    #[test]
    fn size_estimate_from_epoch_filters_partial_participants() {
        let full = EpochResult {
            epoch: 4,
            estimates: vec![
                (InstanceTag::DEFAULT, 5.0),
                (InstanceTag(3), 0.02),
                (InstanceTag(9), 0.02),
            ],
            full_participation: true,
        };
        assert!((size_estimate_from_epoch(&full).unwrap() - 50.0).abs() < 1e-9);

        let partial = EpochResult {
            full_participation: false,
            ..full.clone()
        };
        assert!(size_estimate_from_epoch(&partial).is_none());

        let no_counting_instances = EpochResult {
            epoch: 4,
            estimates: vec![(InstanceTag::DEFAULT, 5.0)],
            full_participation: true,
        };
        assert!(size_estimate_from_epoch(&no_counting_instances).is_none());
    }

    #[test]
    fn two_node_network_estimates_its_size() {
        // End-to-end miniature: leader + one other node, enough exchanges to
        // converge, then the epoch result yields N ≈ 2.
        // A peer that first hears of the counting instance joins it with 0.
        let config = ProtocolConfig::builder()
            .cycles_per_epoch(4)
            .late_join(LateJoinPolicy::FixedState(0.0))
            .build()
            .unwrap();
        let mut leader = ProtocolNode::new(NodeId::new(0), config, 0.0);
        let mut other = ProtocolNode::new(NodeId::new(1), config, 0.0);
        assert!(wins_election(
            LeaderPolicy::Fixed { probability: 1.0 },
            None,
            &mut rng()
        ));
        leader.start_led_instance(InstanceTag::from_leader(leader.id()), 1.0);
        let mut pushes = Vec::new();
        for cycle in 0..4 {
            pushes.clear();
            leader.begin_exchange_into(other.id(), &mut pushes);
            for &push in &pushes {
                if let Some(reply) = other.handle_message(push) {
                    leader.handle_message(reply);
                }
            }
            // The fourth cycle completes the epoch.
            if cycle < 3 {
                leader.end_cycle();
                other.end_cycle();
            }
        }
        let result = leader.end_cycle().unwrap();
        let estimate = size_estimate_from_epoch(&result).unwrap();
        assert!(
            (estimate - 2.0).abs() < 1e-6,
            "estimate {estimate} should be 2"
        );
    }
}
