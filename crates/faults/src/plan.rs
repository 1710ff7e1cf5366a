//! The fault-schedule DSL: a declarative, serialisable description of every
//! failure a robustness run injects, evaluated deterministically from one
//! seed.
//!
//! A [`FaultPlan`] composes five independent fault families, all cycle
//! indexed so a schedule reads like the experiment section of the paper:
//!
//! * **persistent link failures** — each (unordered) pair of nodes is dead
//!   for the whole run with probability [`FaultPlan::link_failure`], drawn
//!   once per link from the plan seed (Section 4's "link failure
//!   probability" axis);
//! * **partitions** ([`PartitionWindow`]) — the network splits into two
//!   sides at cycle *k* and heals at cycle *m*; cross-side messages are
//!   blocked while the window is active;
//! * **crash bursts** ([`CrashBurst`]) — a fraction of the live nodes
//!   crashes at the start of a cycle, the correlated-failure event behind
//!   the paper's size-estimation-under-crash figure;
//! * **loss ramps** ([`LossRamp`] over a base rate) — the message-loss
//!   probability changes over time, linearly interpolated inside the ramp
//!   window and holding the end value afterwards;
//! * **adversarial value injection** ([`ValueInjection`]) — a fraction of
//!   nodes has its running estimate overwritten at a cycle, the
//!   malicious-participant model of the fault-containment literature
//!   (Dubois–Masuzawa–Tixeuil), one step beyond the paper's benign faults.
//!
//! The empty plan ([`FaultPlan::default`]) injects nothing and is the
//! engines' default; [`FaultPlan::from_conditions`] absorbs the legacy
//! [`NetworkConditions`] model (constant loss, at most one crash) so the two
//! configuration surfaces cannot drift apart.

use crate::conditions::NetworkConditions;
use std::fmt;

/// A rejected [`FaultPlan`] parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A probability or fraction is outside `[0, 1]`, NaN or infinite.
    InvalidProbability {
        /// Which parameter was rejected (e.g. `"link_failure"`).
        parameter: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A partition window heals no later than it splits.
    EmptyPartitionWindow {
        /// The window's split cycle.
        split_at_cycle: usize,
        /// The window's heal cycle.
        heal_at_cycle: usize,
    },
    /// A loss ramp ends before it starts.
    ReversedLossRamp {
        /// The ramp's start cycle.
        start_cycle: usize,
        /// The ramp's end cycle.
        end_cycle: usize,
    },
    /// An injected value is NaN or infinite — it would poison every estimate
    /// it is averaged into, which is a different experiment than adversarial
    /// *value* injection.
    NonFiniteInjectedValue {
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultPlanError::InvalidProbability { parameter, value } => {
                write!(f, "{parameter} {value} must be a probability in [0, 1]")
            }
            FaultPlanError::EmptyPartitionWindow {
                split_at_cycle,
                heal_at_cycle,
            } => write!(
                f,
                "partition window must heal after it splits (split at {split_at_cycle}, \
                 heal at {heal_at_cycle})"
            ),
            FaultPlanError::ReversedLossRamp {
                start_cycle,
                end_cycle,
            } => write!(
                f,
                "loss ramp must end at or after its start (start {start_cycle}, end {end_cycle})"
            ),
            FaultPlanError::NonFiniteInjectedValue { value } => {
                write!(f, "injected value {value} must be finite")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

fn check_probability(parameter: &'static str, value: f64) -> Result<(), FaultPlanError> {
    if !value.is_finite() || !(0.0..=1.0).contains(&value) {
        return Err(FaultPlanError::InvalidProbability { parameter, value });
    }
    Ok(())
}

/// A network partition: the node set splits into two sides over
/// `[split_at_cycle, heal_at_cycle)` and cross-side communication is blocked.
///
/// Side membership is drawn per node from the plan seed (each node lands on
/// the minority side with probability `minority_fraction`), so a window is a
/// *random* cut of the expected size — the model of a backbone failure
/// isolating a region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// First cycle the partition is active.
    pub split_at_cycle: usize,
    /// First cycle after the partition heals (exclusive end of the window).
    pub heal_at_cycle: usize,
    /// Expected fraction of nodes isolated on the minority side.
    pub minority_fraction: f64,
}

impl PartitionWindow {
    /// Whether the partition is active at `cycle`.
    pub fn active_at(&self, cycle: usize) -> bool {
        (self.split_at_cycle..self.heal_at_cycle).contains(&cycle)
    }
}

/// A correlated crash event: `fraction` of the live nodes crashes at the
/// start of `cycle` (before any exchange of that cycle).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashBurst {
    /// The cycle at whose start the burst fires.
    pub cycle: usize,
    /// Fraction of the then-live nodes that crash.
    pub fraction: f64,
}

/// A linear message-loss ramp: the loss probability moves from `start_loss`
/// at `start_cycle` to `end_loss` at `end_cycle` and *holds* `end_loss`
/// afterwards (a lasting regime change, e.g. a network degrading under
/// load). Before `start_cycle` the ramp contributes nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossRamp {
    /// First cycle of the ramp.
    pub start_cycle: usize,
    /// Cycle at which `end_loss` is reached.
    pub end_cycle: usize,
    /// Loss probability at the start of the ramp.
    pub start_loss: f64,
    /// Loss probability from `end_cycle` on.
    pub end_loss: f64,
}

impl LossRamp {
    /// The ramp's contribution at `cycle` (0 before the ramp starts).
    pub fn loss_at(&self, cycle: usize) -> f64 {
        if cycle < self.start_cycle {
            0.0
        } else if cycle >= self.end_cycle {
            self.end_loss
        } else {
            let span = (self.end_cycle - self.start_cycle) as f64;
            let progress = (cycle - self.start_cycle) as f64 / span;
            self.start_loss + (self.end_loss - self.start_loss) * progress
        }
    }
}

/// An adversarial value injection: at the start of `cycle`, `fraction` of
/// the live nodes has its running default-instance estimate overwritten with
/// `value` (victims drawn from the plan's own RNG stream). This corrupts the
/// *converging state*, not the local attribute — the transient-adversary
/// model: the protocol's subsequent cycles dilute the corruption, and the
/// next epoch restart flushes it entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueInjection {
    /// The cycle at whose start the injection fires.
    pub cycle: usize,
    /// Fraction of the then-live nodes corrupted.
    pub fraction: f64,
    /// The value written into each victim's running estimate.
    pub value: f64,
}

/// A deterministic, seeded fault schedule — see the module docs for the five
/// fault families. Construct one with struct-update syntax over
/// [`FaultPlan::default`] (the empty plan) and validate with
/// [`FaultPlan::validate`]; the engines validate at construction.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability that any given (unordered) node pair's link is dead for
    /// the entire run.
    pub link_failure: f64,
    /// Partition windows. Overlapping windows compose: a message is blocked
    /// while *any* active window separates its endpoints.
    pub partitions: Vec<PartitionWindow>,
    /// Correlated crash bursts. Several bursts may share a cycle; their
    /// victim counts add up.
    pub crashes: Vec<CrashBurst>,
    /// Base message-loss probability, in effect from cycle 0.
    pub base_loss: f64,
    /// Loss ramps layered over the base rate. The effective loss at a cycle
    /// is the maximum of the base rate and every ramp's contribution,
    /// saturated at 1.
    pub loss_ramps: Vec<LossRamp>,
    /// Adversarial value injections.
    pub injections: Vec<ValueInjection>,
}

impl FaultPlan {
    /// The empty plan: no faults of any kind. Engines driven with it behave
    /// bit-identically to engines with no fault lab at all — the determinism
    /// suite pins this.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with only persistent per-link failures.
    pub fn with_link_failure(probability: f64) -> Self {
        FaultPlan {
            link_failure: probability,
            ..FaultPlan::default()
        }
    }

    /// A plan with only a constant message-loss rate.
    pub fn with_message_loss(loss: f64) -> Self {
        FaultPlan {
            base_loss: loss,
            ..FaultPlan::default()
        }
    }

    /// A plan with a single partition window.
    pub fn with_partition(split_at_cycle: usize, heal_at_cycle: usize, fraction: f64) -> Self {
        FaultPlan {
            partitions: vec![PartitionWindow {
                split_at_cycle,
                heal_at_cycle,
                minority_fraction: fraction,
            }],
            ..FaultPlan::default()
        }
    }

    /// A plan with a single crash burst.
    pub fn with_crash_burst(cycle: usize, fraction: f64) -> Self {
        FaultPlan {
            crashes: vec![CrashBurst { cycle, fraction }],
            ..FaultPlan::default()
        }
    }

    /// Absorbs the legacy [`NetworkConditions`] model: its constant message
    /// loss becomes the base loss rate and its one-shot crash (if any)
    /// becomes a single [`CrashBurst`]. This is how the engines run every
    /// pre-fault-lab configuration through the same injector path.
    pub fn from_conditions(conditions: NetworkConditions) -> Self {
        FaultPlan {
            base_loss: conditions.message_loss,
            crashes: conditions
                .crash_at_cycle
                .map(|cycle| CrashBurst {
                    cycle,
                    fraction: conditions.crash_fraction,
                })
                .into_iter()
                .collect(),
            ..FaultPlan::default()
        }
    }

    /// Layers the legacy conditions *under* this plan: the constant loss
    /// floors the plan's base rate and a one-shot crash joins the burst
    /// list. This is what the engines do at construction, so a run
    /// configured through `NetworkConditions`, a `FaultPlan`, or both always
    /// executes through one injector path.
    pub fn absorb_conditions(mut self, conditions: NetworkConditions) -> Self {
        self.base_loss = self.base_loss.max(conditions.message_loss);
        if let Some(cycle) = conditions.crash_at_cycle {
            self.crashes.push(CrashBurst {
                cycle,
                fraction: conditions.crash_fraction,
            });
        }
        self
    }

    /// Whether the plan injects nothing (every engine runs its zero-overhead
    /// path for such plans).
    pub fn is_empty(&self) -> bool {
        self.link_failure == 0.0
            && self.base_loss == 0.0
            && self.partitions.is_empty()
            && self.crashes.is_empty()
            && self.loss_ramps.is_empty()
            && self.injections.is_empty()
    }

    /// Validates every parameter of the schedule.
    ///
    /// # Errors
    ///
    /// The first [`FaultPlanError`] found, in declaration order.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        check_probability("link_failure", self.link_failure)?;
        check_probability("base_loss", self.base_loss)?;
        for window in &self.partitions {
            check_probability("minority_fraction", window.minority_fraction)?;
            if window.heal_at_cycle <= window.split_at_cycle {
                return Err(FaultPlanError::EmptyPartitionWindow {
                    split_at_cycle: window.split_at_cycle,
                    heal_at_cycle: window.heal_at_cycle,
                });
            }
        }
        for burst in &self.crashes {
            check_probability("crash fraction", burst.fraction)?;
        }
        for ramp in &self.loss_ramps {
            check_probability("ramp start_loss", ramp.start_loss)?;
            check_probability("ramp end_loss", ramp.end_loss)?;
            if ramp.end_cycle < ramp.start_cycle {
                return Err(FaultPlanError::ReversedLossRamp {
                    start_cycle: ramp.start_cycle,
                    end_cycle: ramp.end_cycle,
                });
            }
        }
        for injection in &self.injections {
            check_probability("injection fraction", injection.fraction)?;
            if !injection.value.is_finite() {
                return Err(FaultPlanError::NonFiniteInjectedValue {
                    value: injection.value,
                });
            }
        }
        Ok(())
    }

    /// The effective message-loss probability at `cycle`: the maximum of the
    /// base rate and every ramp's contribution, saturated at 1. Pure —
    /// identical answers for identical arguments, which is what makes loss
    /// draws reproducible across engines and executors.
    pub fn loss_at(&self, cycle: usize) -> f64 {
        let mut loss = self.base_loss;
        for ramp in &self.loss_ramps {
            loss = loss.max(ramp.loss_at(cycle));
        }
        loss.min(1.0)
    }

    /// Total fraction-sum of crash bursts firing at `cycle` (several bursts
    /// may share a cycle; the injector applies each in order).
    pub fn crash_fractions_at(&self, cycle: usize) -> impl Iterator<Item = f64> + '_ {
        self.crashes
            .iter()
            .filter(move |burst| burst.cycle == cycle)
            .map(|burst| burst.fraction)
    }

    /// The value injections firing at `cycle`.
    pub fn injections_at(&self, cycle: usize) -> impl Iterator<Item = &ValueInjection> + '_ {
        self.injections
            .iter()
            .filter(move |injection| injection.cycle == cycle)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("no-faults");
        }
        let mut parts = Vec::new();
        if self.link_failure > 0.0 {
            parts.push(format!("links={:.3}", self.link_failure));
        }
        if self.base_loss > 0.0 {
            parts.push(format!("loss={:.3}", self.base_loss));
        }
        if !self.loss_ramps.is_empty() {
            parts.push(format!("ramps={}", self.loss_ramps.len()));
        }
        if !self.partitions.is_empty() {
            parts.push(format!("partitions={}", self.partitions.len()));
        }
        if !self.crashes.is_empty() {
            parts.push(format!("crashes={}", self.crashes.len()));
        }
        if !self.injections.is_empty() {
            parts.push(format!("injections={}", self.injections.len()));
        }
        write!(f, "faults[{}]", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(plan.validate().is_ok());
        assert_eq!(plan.loss_at(0), 0.0);
        assert_eq!(plan.loss_at(10_000), 0.0);
        assert_eq!(plan.to_string(), "no-faults");
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn conditions_absorb_into_the_trivial_plan() {
        let plan = FaultPlan::from_conditions(NetworkConditions::with_message_loss(0.2));
        assert_eq!(plan.base_loss, 0.2);
        assert!(plan.crashes.is_empty());
        assert_eq!(plan.loss_at(0), 0.2);
        assert_eq!(plan.loss_at(999), 0.2);

        let plan = FaultPlan::from_conditions(NetworkConditions::with_crash(0.3, 7));
        assert_eq!(plan.base_loss, 0.0);
        assert_eq!(
            plan.crashes,
            vec![CrashBurst {
                cycle: 7,
                fraction: 0.3
            }]
        );
        assert_eq!(plan.crash_fractions_at(7).collect::<Vec<_>>(), vec![0.3]);
        assert_eq!(plan.crash_fractions_at(6).count(), 0);

        assert!(FaultPlan::from_conditions(NetworkConditions::reliable()).is_empty());

        // absorb_conditions layers the legacy model under an explicit plan:
        // constant loss floors the base rate, the crash joins the bursts.
        let merged = FaultPlan::with_link_failure(0.1)
            .absorb_conditions(NetworkConditions::with_message_loss(0.2));
        assert_eq!(merged.link_failure, 0.1);
        assert_eq!(merged.base_loss, 0.2);
        let merged = FaultPlan::with_message_loss(0.3)
            .absorb_conditions(NetworkConditions::with_crash(0.5, 2));
        assert_eq!(merged.base_loss, 0.3);
        assert_eq!(merged.crashes.len(), 1);
    }

    #[test]
    fn loss_ramps_interpolate_and_hold_their_end_value() {
        let ramp = LossRamp {
            start_cycle: 10,
            end_cycle: 20,
            start_loss: 0.0,
            end_loss: 0.4,
        };
        assert_eq!(ramp.loss_at(0), 0.0);
        assert_eq!(ramp.loss_at(9), 0.0);
        assert_eq!(ramp.loss_at(10), 0.0);
        assert!((ramp.loss_at(15) - 0.2).abs() < 1e-12);
        assert_eq!(ramp.loss_at(20), 0.4);
        assert_eq!(ramp.loss_at(1_000), 0.4);

        let plan = FaultPlan {
            base_loss: 0.05,
            loss_ramps: vec![ramp],
            ..FaultPlan::default()
        };
        assert!(plan.validate().is_ok());
        // The base rate floors the ramp; the ramp dominates once it crosses.
        assert_eq!(plan.loss_at(0), 0.05);
        assert!((plan.loss_at(15) - 0.2).abs() < 1e-12);
        assert_eq!(plan.loss_at(25), 0.4);
    }

    #[test]
    fn effective_loss_saturates_at_one() {
        let plan = FaultPlan {
            base_loss: 1.0,
            loss_ramps: vec![LossRamp {
                start_cycle: 0,
                end_cycle: 1,
                start_loss: 1.0,
                end_loss: 1.0,
            }],
            ..FaultPlan::default()
        };
        assert!(plan.validate().is_ok());
        assert_eq!(plan.loss_at(5), 1.0);
    }

    #[test]
    fn partition_windows_are_half_open() {
        let window = PartitionWindow {
            split_at_cycle: 5,
            heal_at_cycle: 9,
            minority_fraction: 0.5,
        };
        assert!(!window.active_at(4));
        assert!(window.active_at(5));
        assert!(window.active_at(8));
        assert!(!window.active_at(9));
    }

    #[test]
    fn validation_rejects_each_malformed_parameter() {
        assert!(matches!(
            FaultPlan::with_link_failure(1.5).validate(),
            Err(FaultPlanError::InvalidProbability {
                parameter: "link_failure",
                ..
            })
        ));
        assert!(matches!(
            FaultPlan::with_message_loss(f64::NAN).validate(),
            Err(FaultPlanError::InvalidProbability {
                parameter: "base_loss",
                ..
            })
        ));
        assert!(matches!(
            FaultPlan::with_partition(10, 10, 0.5).validate(),
            Err(FaultPlanError::EmptyPartitionWindow { .. })
        ));
        assert!(matches!(
            FaultPlan::with_partition(3, 9, -0.1).validate(),
            Err(FaultPlanError::InvalidProbability { .. })
        ));
        assert!(matches!(
            FaultPlan::with_crash_burst(0, 2.0).validate(),
            Err(FaultPlanError::InvalidProbability { .. })
        ));
        let reversed = FaultPlan {
            loss_ramps: vec![LossRamp {
                start_cycle: 10,
                end_cycle: 5,
                start_loss: 0.0,
                end_loss: 0.5,
            }],
            ..FaultPlan::default()
        };
        assert!(matches!(
            reversed.validate(),
            Err(FaultPlanError::ReversedLossRamp { .. })
        ));
        let poisoned = FaultPlan {
            injections: vec![ValueInjection {
                cycle: 0,
                fraction: 0.1,
                value: f64::NAN,
            }],
            ..FaultPlan::default()
        };
        assert!(matches!(
            poisoned.validate(),
            Err(FaultPlanError::NonFiniteInjectedValue { .. })
        ));
        for error in [
            FaultPlanError::InvalidProbability {
                parameter: "link_failure",
                value: 2.0,
            },
            FaultPlanError::EmptyPartitionWindow {
                split_at_cycle: 5,
                heal_at_cycle: 5,
            },
            FaultPlanError::ReversedLossRamp {
                start_cycle: 9,
                end_cycle: 3,
            },
            FaultPlanError::NonFiniteInjectedValue { value: f64::NAN },
        ] {
            assert!(!error.to_string().is_empty());
        }
    }

    #[test]
    fn display_summarises_the_active_families() {
        let plan = FaultPlan {
            link_failure: 0.2,
            base_loss: 0.05,
            partitions: vec![PartitionWindow {
                split_at_cycle: 1,
                heal_at_cycle: 4,
                minority_fraction: 0.3,
            }],
            ..FaultPlan::default()
        };
        let rendered = plan.to_string();
        assert!(rendered.contains("links=0.200"));
        assert!(rendered.contains("loss=0.050"));
        assert!(rendered.contains("partitions=1"));
    }
}
