//! Network failure conditions: uniform message loss and one-shot crashes.
//!
//! This is the *simple* failure model the robustness ablations started from;
//! the full fault-injection lab generalises it as [`crate::FaultPlan`]
//! (persistent link failures, partitions, crash bursts, loss ramps and
//! adversarial value injection), with a [`NetworkConditions`] absorbing into
//! the plan via [`crate::FaultPlan::from_conditions`].

use rand::Rng;
use std::fmt;

/// A rejected [`NetworkConditions`] parameter.
///
/// Conditions are validated once, when a simulation is constructed; the
/// per-message draw then trusts the stored probability unconditionally
/// instead of re-clamping it on every message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConditionsError {
    /// `message_loss` is not a probability (outside `[0, 1]`, NaN or
    /// infinite).
    InvalidMessageLoss {
        /// The rejected value.
        value: f64,
    },
    /// `crash_fraction` is not a probability (outside `[0, 1]`, NaN or
    /// infinite).
    InvalidCrashFraction {
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for ConditionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConditionsError::InvalidMessageLoss { value } => {
                write!(f, "message loss {value} must be a probability in [0, 1]")
            }
            ConditionsError::InvalidCrashFraction { value } => {
                write!(f, "crash fraction {value} must be a probability in [0, 1]")
            }
        }
    }
}

impl std::error::Error for ConditionsError {}

/// Failure conditions applied by the simulation engines.
///
/// The paper's model assumes reliable, instantaneous communication for the
/// analysis and discusses failures qualitatively; the robustness ablation
/// (benchmark A2) quantifies them with this structure. Losses are applied to
/// each message independently; crashes remove a fraction of nodes at a given
/// cycle, mimicking a correlated failure event.
///
/// The engines treat a `NetworkConditions` as the trivial [`crate::FaultPlan`]
/// (constant loss, at most one crash burst) — see
/// [`crate::FaultPlan::from_conditions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConditions {
    /// Probability that any individual message (push or reply) is lost.
    pub message_loss: f64,
    /// Fraction of live nodes that crash at [`NetworkConditions::crash_at_cycle`].
    pub crash_fraction: f64,
    /// Cycle index at which the crash event happens.
    pub crash_at_cycle: Option<usize>,
}

impl NetworkConditions {
    /// Perfect network: no loss, no crashes. This reproduces the paper's
    /// analytical setting.
    pub const fn reliable() -> Self {
        NetworkConditions {
            message_loss: 0.0,
            crash_fraction: 0.0,
            crash_at_cycle: None,
        }
    }

    /// Validating constructor: the checked counterpart of filling the public
    /// fields directly.
    ///
    /// # Errors
    ///
    /// [`ConditionsError`] when either probability is outside `[0, 1]`, NaN
    /// or infinite.
    pub fn new(
        message_loss: f64,
        crash_fraction: f64,
        crash_at_cycle: Option<usize>,
    ) -> Result<Self, ConditionsError> {
        let conditions = NetworkConditions {
            message_loss,
            crash_fraction,
            crash_at_cycle,
        };
        conditions.validate()?;
        Ok(conditions)
    }

    /// Conditions with only uniform message loss.
    ///
    /// Permissive (the fields are public anyway); the engines validate at
    /// construction via [`NetworkConditions::validate`].
    pub fn with_message_loss(loss: f64) -> Self {
        NetworkConditions {
            message_loss: loss,
            ..Self::reliable()
        }
    }

    /// Conditions with a single crash event: `fraction` of the nodes die at
    /// `cycle`.
    pub fn with_crash(fraction: f64, cycle: usize) -> Self {
        NetworkConditions {
            crash_fraction: fraction,
            crash_at_cycle: Some(cycle),
            ..Self::reliable()
        }
    }

    /// Checks that both parameters are valid probabilities, reporting *which*
    /// one is not.
    ///
    /// # Errors
    ///
    /// [`ConditionsError::InvalidMessageLoss`] or
    /// [`ConditionsError::InvalidCrashFraction`].
    pub fn validate(&self) -> Result<(), ConditionsError> {
        if !self.message_loss.is_finite() || !(0.0..=1.0).contains(&self.message_loss) {
            return Err(ConditionsError::InvalidMessageLoss {
                value: self.message_loss,
            });
        }
        if !self.crash_fraction.is_finite() || !(0.0..=1.0).contains(&self.crash_fraction) {
            return Err(ConditionsError::InvalidCrashFraction {
                value: self.crash_fraction,
            });
        }
        Ok(())
    }

    /// Returns `true` when the parameters are valid probabilities.
    pub fn is_valid(&self) -> bool {
        self.validate().is_ok()
    }

    /// Samples whether one message gets lost.
    ///
    /// The probability is used as stored — engines validate conditions once
    /// at construction, so the historical per-draw `clamp` was dead weight on
    /// the hottest path of a lossy run.
    pub fn message_lost<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.message_loss > 0.0 && rng.gen_bool(self.message_loss)
    }
}

impl Default for NetworkConditions {
    fn default() -> Self {
        Self::reliable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn reliable_conditions_never_lose_messages() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let cond = NetworkConditions::reliable();
        assert!(cond.is_valid());
        assert!((0..1000).all(|_| !cond.message_lost(&mut rng)));
        assert_eq!(NetworkConditions::default(), cond);
    }

    #[test]
    fn loss_rate_is_respected_statistically() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let cond = NetworkConditions::with_message_loss(0.2);
        let lost = (0..50_000).filter(|_| cond.message_lost(&mut rng)).count();
        let rate = lost as f64 / 50_000.0;
        assert!((rate - 0.2).abs() < 0.01, "observed loss rate {rate}");
    }

    #[test]
    fn crash_constructor_and_validation() {
        let cond = NetworkConditions::with_crash(0.5, 5);
        assert!(cond.is_valid());
        assert_eq!(cond.crash_at_cycle, Some(5));
        assert_eq!(cond.crash_fraction, 0.5);
        assert_eq!(cond.message_loss, 0.0);

        assert!(!NetworkConditions::with_message_loss(1.5).is_valid());
        assert!(!NetworkConditions::with_message_loss(f64::NAN).is_valid());
        assert!(!NetworkConditions::with_crash(-0.1, 0).is_valid());
    }

    #[test]
    fn validation_reports_the_offending_parameter() {
        assert_eq!(
            NetworkConditions::with_message_loss(1.5).validate(),
            Err(ConditionsError::InvalidMessageLoss { value: 1.5 })
        );
        assert_eq!(
            NetworkConditions::with_crash(2.0, 3).validate(),
            Err(ConditionsError::InvalidCrashFraction { value: 2.0 })
        );
        assert!(matches!(
            NetworkConditions::with_message_loss(f64::NAN).validate(),
            Err(ConditionsError::InvalidMessageLoss { value } ) if value.is_nan()
        ));
        for error in [
            ConditionsError::InvalidMessageLoss { value: -0.5 },
            ConditionsError::InvalidCrashFraction { value: 7.0 },
        ] {
            assert!(!error.to_string().is_empty());
        }
    }

    #[test]
    fn checked_constructor_accepts_valid_and_rejects_invalid() {
        let ok = NetworkConditions::new(0.1, 0.3, Some(5)).unwrap();
        assert_eq!(ok.message_loss, 0.1);
        assert_eq!(ok.crash_at_cycle, Some(5));
        assert!(NetworkConditions::new(-0.1, 0.0, None).is_err());
        assert!(NetworkConditions::new(0.0, f64::INFINITY, None).is_err());
    }
}
