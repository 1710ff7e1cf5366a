//! The stateful adversary lab: colluding nodes that *persistently* lie.
//!
//! [`crate::ValueInjection`] models a transient adversary — one corruption at
//! one cycle, diluted away by the following exchanges. The Byzantine regime
//! of the fault-containment literature (Dubois–Masuzawa–Tixeuil) is harsher:
//! a colluding set re-asserts its lie *every* cycle, so dilution never wins
//! while the attack is active. An [`AdversaryPlan`] describes such an attack
//! declaratively, and [`Adversary`] is its deterministic realisation.
//!
//! The same determinism discipline as [`crate::PlanInjector`] applies:
//!
//! * **colluder membership is a pure coin** — a node at initial-directory
//!   position `p` colludes iff
//!   `mix(seed ^ COLLUDER_SALT ^ p) < threshold(collusion_fraction)`. Keyed
//!   on *position*, not [`NodeId`], so the colluding set is identical across
//!   engines whose identifier layouts differ (the sharded engine's ids embed
//!   the shard count; positions do not). The threshold form makes the set
//!   *nested*: raising the fraction only ever adds colluders.
//! * **zero engine randomness** — neither plan evaluation nor lie values
//!   consume any RNG stream, so the empty plan leaves every engine
//!   trajectory bit-identical (pinned in `tests/determinism.rs`).
//! * **lie values are pure functions of the cycle** — oscillation and drift
//!   are computed, not sampled, so every engine and every shard agrees on
//!   the asserted value without coordination.

use crate::injector::{mix, probability_threshold};
use overlay_topology::NodeId;
use std::fmt;

/// Salt for the colluder-membership coins ("colluder" in ASCII), keeping the
/// adversary's coin family disjoint from the link/partition coin families
/// that share the same seed.
const COLLUDER_SALT: u64 = 0x636f_6c6c_7564_6572;

/// A rejected [`AdversaryPlan`] parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum AdversaryPlanError {
    /// The collusion fraction is outside `[0, 1]`, NaN or infinite.
    InvalidFraction {
        /// The rejected value.
        value: f64,
    },
    /// An attack parameter is NaN or infinite — asserting a non-finite value
    /// would poison every estimate instead of biasing it, which is a
    /// different experiment.
    NonFiniteAttackValue {
        /// Which parameter was rejected (e.g. `"lie value"`).
        parameter: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An oscillating attack with period zero never defines a phase.
    ZeroOscillationPeriod,
    /// A leader-capture attack that captures zero instances does nothing;
    /// use [`AdversaryPlan::none`] for the empty plan instead.
    ZeroCapturedInstances,
    /// The attack window stops no later than it starts.
    EmptyAttackWindow {
        /// First active cycle.
        start_cycle: usize,
        /// First inactive cycle again (exclusive stop).
        stop_cycle: usize,
    },
}

impl fmt::Display for AdversaryPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AdversaryPlanError::InvalidFraction { value } => {
                write!(
                    f,
                    "collusion fraction {value} must be a probability in [0, 1]"
                )
            }
            AdversaryPlanError::NonFiniteAttackValue { parameter, value } => {
                write!(f, "{parameter} {value} must be finite")
            }
            AdversaryPlanError::ZeroOscillationPeriod => {
                write!(f, "oscillation period must be at least one cycle")
            }
            AdversaryPlanError::ZeroCapturedInstances => {
                write!(f, "leader capture must target at least one instance")
            }
            AdversaryPlanError::EmptyAttackWindow {
                start_cycle,
                stop_cycle,
            } => write!(
                f,
                "attack window must stop after it starts (start {start_cycle}, stop {stop_cycle})"
            ),
        }
    }
}

impl std::error::Error for AdversaryPlanError {}

fn check_finite(parameter: &'static str, value: f64) -> Result<(), AdversaryPlanError> {
    if !value.is_finite() {
        return Err(AdversaryPlanError::NonFiniteAttackValue { parameter, value });
    }
    Ok(())
}

/// What the colluding set does while the attack window is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackStrategy {
    /// Mass inflation/deflation: every colluder overwrites its running
    /// default-instance estimate with `value` at the start of every active
    /// cycle — the persistent lie the one-shot `ValueInjection` cannot model.
    FixedLie {
        /// The asserted estimate.
        value: f64,
    },
    /// Oscillating attack: colluders assert `center + amplitude` and
    /// `center - amplitude` in alternating phases of `period` cycles,
    /// rocking the aggregate instead of pushing it one way.
    Oscillate {
        /// Midpoint of the oscillation.
        center: f64,
        /// Half-swing around the midpoint.
        amplitude: f64,
        /// Phase length in cycles (≥ 1).
        period: usize,
    },
    /// Drift attack: colluders assert `start + rate·t` where `t` counts the
    /// cycles since the attack window opened — a slow poisoning that evades
    /// outlier checks calibrated on fixed amplitudes.
    Drift {
        /// Asserted value at the first active cycle.
        start: f64,
        /// Per-cycle increment of the asserted value.
        rate: f64,
    },
    /// Targeted leader capture in size estimation: the adversary compromises
    /// the first `instances` elected leaders of each epoch and re-asserts
    /// `reported_state` into each captured counting instance every active
    /// cycle. Driving the instance state far above `1/N` collapses its size
    /// estimate (`N̂ = 1/state`) — the attack the paper's median-of-k
    /// redundancy defends against.
    LeaderCapture {
        /// Number of leaders captured per epoch (`f` in the `f < k/2` bound).
        instances: usize,
        /// The state asserted into each captured counting instance.
        reported_state: f64,
    },
}

/// A declarative, serialisable description of a stateful value attack:
/// *which* nodes collude (a seeded fraction of the initial population),
/// *what* they assert ([`AttackStrategy`]) and *when* (a half-open cycle
/// window). The empty plan ([`AdversaryPlan::none`]) attacks nobody and is
/// bit-identical to no adversary lab at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryPlan {
    /// Fraction of the initial population that colludes. Membership is a
    /// pure per-position coin, so the expected colluder count is
    /// `fraction · n` and the realised set is nested across fractions.
    pub collusion_fraction: f64,
    /// What the colluders do while the window is active.
    pub strategy: AttackStrategy,
    /// First cycle the attack is active.
    pub start_cycle: usize,
    /// First cycle the attack is inactive again (exclusive stop); `None`
    /// keeps the attack active forever.
    pub stop_cycle: Option<usize>,
}

impl AdversaryPlan {
    /// The empty plan: nobody colludes, nothing is asserted. Engines driven
    /// with it behave bit-identically to engines with no adversary at all —
    /// the determinism suite pins this.
    pub fn none() -> Self {
        AdversaryPlan {
            collusion_fraction: 0.0,
            strategy: AttackStrategy::FixedLie { value: 0.0 },
            start_cycle: 0,
            stop_cycle: None,
        }
    }

    /// A plan running `strategy` from cycle 0 forever, with the given
    /// colluding fraction.
    pub fn with_strategy(collusion_fraction: f64, strategy: AttackStrategy) -> Self {
        AdversaryPlan {
            collusion_fraction,
            strategy,
            start_cycle: 0,
            stop_cycle: None,
        }
    }

    /// A leader-capture plan: `instances` captured leaders per epoch, each
    /// re-asserting `reported_state`, active from cycle 0 forever. Leader
    /// capture needs no colluding fraction — it compromises whoever wins the
    /// election.
    pub fn leader_capture(instances: usize, reported_state: f64) -> Self {
        AdversaryPlan::with_strategy(
            0.0,
            AttackStrategy::LeaderCapture {
                instances,
                reported_state,
            },
        )
    }

    /// Whether the plan attacks nothing (engines skip the adversary path
    /// entirely for such plans).
    pub fn is_empty(&self) -> bool {
        self.collusion_fraction == 0.0 && self.capture_instances() == 0
    }

    /// Validates every parameter of the plan.
    ///
    /// # Errors
    ///
    /// The first [`AdversaryPlanError`] found.
    pub fn validate(&self) -> Result<(), AdversaryPlanError> {
        if !self.collusion_fraction.is_finite() || !(0.0..=1.0).contains(&self.collusion_fraction) {
            return Err(AdversaryPlanError::InvalidFraction {
                value: self.collusion_fraction,
            });
        }
        if let Some(stop) = self.stop_cycle {
            if stop <= self.start_cycle {
                return Err(AdversaryPlanError::EmptyAttackWindow {
                    start_cycle: self.start_cycle,
                    stop_cycle: stop,
                });
            }
        }
        match self.strategy {
            AttackStrategy::FixedLie { value } => check_finite("lie value", value),
            AttackStrategy::Oscillate {
                center,
                amplitude,
                period,
            } => {
                check_finite("oscillation center", center)?;
                check_finite("oscillation amplitude", amplitude)?;
                if period == 0 {
                    return Err(AdversaryPlanError::ZeroOscillationPeriod);
                }
                Ok(())
            }
            AttackStrategy::Drift { start, rate } => {
                check_finite("drift start", start)?;
                check_finite("drift rate", rate)
            }
            AttackStrategy::LeaderCapture {
                instances,
                reported_state,
            } => {
                check_finite("reported state", reported_state)?;
                if instances == 0 {
                    return Err(AdversaryPlanError::ZeroCapturedInstances);
                }
                Ok(())
            }
        }
    }

    /// Whether the attack window covers `cycle`.
    pub fn active_at(&self, cycle: usize) -> bool {
        // `Option::is_none_or` needs Rust 1.82; the workspace MSRV is older.
        cycle >= self.start_cycle && self.stop_cycle.map_or(true, |stop| cycle < stop)
    }

    /// The pure colluder-membership coin: whether the node at
    /// initial-directory position `position` colludes under `seed`. Keyed on
    /// position so the answer is identical across engines with different
    /// identifier layouts, and monotone in the collusion fraction (nested
    /// threshold coins).
    pub fn colludes_at(&self, seed: u64, position: usize) -> bool {
        if self.collusion_fraction <= 0.0 {
            return false;
        }
        mix(seed ^ COLLUDER_SALT ^ position as u64) < probability_threshold(self.collusion_fraction)
    }

    /// The value every colluder asserts into its running default-instance
    /// estimate at the start of `cycle`, or `None` when the window is
    /// inactive or the strategy attacks counting instances instead
    /// ([`AttackStrategy::LeaderCapture`]). Pure — no randomness, so every
    /// engine computes the same lie.
    pub fn lie_at(&self, cycle: usize) -> Option<f64> {
        if !self.active_at(cycle) {
            return None;
        }
        let t = cycle - self.start_cycle;
        match self.strategy {
            AttackStrategy::FixedLie { value } => Some(value),
            AttackStrategy::Oscillate {
                center,
                amplitude,
                period,
            } => {
                let sign = if (t / period.max(1)) % 2 == 0 {
                    1.0
                } else {
                    -1.0
                };
                Some(center + sign * amplitude)
            }
            AttackStrategy::Drift { start, rate } => Some(start + rate * t as f64),
            AttackStrategy::LeaderCapture { .. } => None,
        }
    }

    /// Number of leaders captured per epoch (0 for value strategies).
    pub fn capture_instances(&self) -> usize {
        match self.strategy {
            AttackStrategy::LeaderCapture { instances, .. } => instances,
            _ => 0,
        }
    }

    /// The state a captured counting instance is forced to at the start of
    /// `cycle`, or `None` when the window is inactive or the strategy is not
    /// leader capture.
    pub fn captured_state_at(&self, cycle: usize) -> Option<f64> {
        match self.strategy {
            AttackStrategy::LeaderCapture { reported_state, .. } if self.active_at(cycle) => {
                Some(reported_state)
            }
            _ => None,
        }
    }
}

impl Default for AdversaryPlan {
    fn default() -> Self {
        AdversaryPlan::none()
    }
}

impl fmt::Display for AdversaryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("no-adversary");
        }
        let strategy = match self.strategy {
            AttackStrategy::FixedLie { value } => format!("lie={value}"),
            AttackStrategy::Oscillate {
                center,
                amplitude,
                period,
            } => format!("oscillate={center}±{amplitude}/{period}"),
            AttackStrategy::Drift { start, rate } => format!("drift={start}+{rate}t"),
            AttackStrategy::LeaderCapture {
                instances,
                reported_state,
            } => format!("capture={instances}@{reported_state}"),
        };
        write!(
            f,
            "adversary[fraction={:.3},{strategy}]",
            self.collusion_fraction
        )
    }
}

/// The engine-facing realisation of an [`AdversaryPlan`]: the colluding set
/// resolved against one engine's initial directory, plus the per-epoch
/// capture book-keeping for [`AttackStrategy::LeaderCapture`].
///
/// Engines construct one at build time, consult [`Adversary::lie_at`] /
/// [`Adversary::is_colluder`] at every cycle start, and report each epoch's
/// elected leaders through [`Adversary::observe_leader`] (after
/// [`Adversary::begin_epoch`] reset the capture set).
#[derive(Debug, Clone)]
pub struct Adversary {
    plan: AdversaryPlan,
    /// Colluding node identifiers, sorted for binary-search membership.
    colluders: Vec<NodeId>,
    /// The counting-instance leaders captured in the current epoch, in
    /// election order, at most `plan.capture_instances()`.
    captured: Vec<NodeId>,
}

impl Adversary {
    /// Resolves `plan` against an engine's initial directory: the node at
    /// position `p` of `initial` colludes iff the pure coin
    /// [`AdversaryPlan::colludes_at`] fires for `(seed, p)`.
    pub fn new(plan: AdversaryPlan, seed: u64, initial: &[NodeId]) -> Self {
        let mut colluders: Vec<NodeId> = initial
            .iter()
            .enumerate()
            .filter(|&(position, _)| plan.colludes_at(seed, position))
            .map(|(_, &id)| id)
            .collect();
        colluders.sort_unstable();
        Adversary {
            plan,
            colluders,
            captured: Vec::new(),
        }
    }

    /// The inert adversary (empty plan, nobody colludes).
    pub fn none() -> Self {
        Adversary {
            plan: AdversaryPlan::none(),
            colluders: Vec::new(),
            captured: Vec::new(),
        }
    }

    /// The plan this adversary realises.
    pub fn plan(&self) -> &AdversaryPlan {
        &self.plan
    }

    /// Whether this adversary never does anything.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// The resolved colluding set, sorted by identifier.
    pub fn colluders(&self) -> &[NodeId] {
        &self.colluders
    }

    /// Whether `id` belongs to the colluding set.
    pub fn is_colluder(&self, id: NodeId) -> bool {
        self.colluders.binary_search(&id).is_ok()
    }

    /// The lie every colluder asserts at the start of `cycle` (see
    /// [`AdversaryPlan::lie_at`]).
    pub fn lie_at(&self, cycle: usize) -> Option<f64> {
        self.plan.lie_at(cycle)
    }

    /// Whether the adversary claims the corruption slot of `id` at `cycle` —
    /// the single-corruption rule: a node a `ValueInjection` targets while it
    /// is actively lying keeps the adversary's value (the stateful attacker
    /// wins; it would immediately overwrite the injection anyway).
    pub fn overrides_injection(&self, cycle: usize, id: NodeId) -> bool {
        self.lie_at(cycle).is_some() && self.is_colluder(id)
    }

    /// Resets the per-epoch capture set; engines call this at every leader
    /// election (epoch start), before reporting the new leaders.
    pub fn begin_epoch(&mut self) {
        self.captured.clear();
    }

    /// Reports an elected counting-instance leader, in election order.
    /// Returns `true` when the adversary captures it (the first
    /// `capture_instances()` leaders of the epoch).
    pub fn observe_leader(&mut self, id: NodeId) -> bool {
        if self.captured.len() < self.plan.capture_instances() {
            self.captured.push(id);
            true
        } else {
            false
        }
    }

    /// The leaders captured in the current epoch, in election order.
    pub fn captured(&self) -> &[NodeId] {
        &self.captured
    }

    /// The state forced into each captured counting instance at the start of
    /// `cycle` (see [`AdversaryPlan::captured_state_at`]).
    pub fn captured_state_at(&self, cycle: usize) -> Option<f64> {
        self.plan.captured_state_at(cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn empty_plan_is_empty_valid_and_inert() {
        let plan = AdversaryPlan::none();
        assert!(plan.is_empty());
        assert!(plan.validate().is_ok());
        assert_eq!(plan.lie_at(0), Some(0.0));
        assert_eq!(plan.capture_instances(), 0);
        assert_eq!(plan.to_string(), "no-adversary");
        assert_eq!(plan, AdversaryPlan::default());
        let adversary = Adversary::new(plan, 42, &ids(1_000));
        assert!(adversary.is_empty());
        assert!(adversary.colluders().is_empty());
        assert_eq!(Adversary::none().colluders().len(), 0);
    }

    #[test]
    fn colluder_fraction_tracks_the_target_and_is_monotone() {
        let n = 10_000;
        let seed = 7;
        let small = Adversary::new(
            AdversaryPlan::with_strategy(0.1, AttackStrategy::FixedLie { value: 1e6 }),
            seed,
            &ids(n),
        );
        let large = Adversary::new(
            AdversaryPlan::with_strategy(0.3, AttackStrategy::FixedLie { value: 1e6 }),
            seed,
            &ids(n),
        );
        let small_rate = small.colluders().len() as f64 / n as f64;
        let large_rate = large.colluders().len() as f64 / n as f64;
        assert!((small_rate - 0.1).abs() < 0.01, "rate {small_rate}");
        assert!((large_rate - 0.3).abs() < 0.01, "rate {large_rate}");
        // Nested coins: every colluder at 10 % still colludes at 30 %.
        for &id in small.colluders() {
            assert!(large.is_colluder(id), "{id} must stay a colluder");
        }
    }

    #[test]
    fn colluder_positions_are_engine_invariant() {
        // Two engines with disjoint identifier namespaces over the same
        // directory: the colluding *positions* must agree, because the coin
        // is keyed on position, not identifier.
        let n = 500;
        let plan = AdversaryPlan::with_strategy(0.2, AttackStrategy::FixedLie { value: 0.0 });
        let sequential = ids(n);
        let offset: Vec<NodeId> = (0..n).map(|i| NodeId::new(i + 1_000_000)).collect();
        let a = Adversary::new(plan, 13, &sequential);
        let b = Adversary::new(plan, 13, &offset);
        let positions_a: Vec<usize> = (0..n).filter(|&p| a.is_colluder(sequential[p])).collect();
        let positions_b: Vec<usize> = (0..n).filter(|&p| b.is_colluder(offset[p])).collect();
        assert!(!positions_a.is_empty());
        assert_eq!(positions_a, positions_b);
    }

    #[test]
    fn lie_values_follow_the_strategy_and_window() {
        let fixed = AdversaryPlan {
            start_cycle: 5,
            stop_cycle: Some(10),
            ..AdversaryPlan::with_strategy(0.1, AttackStrategy::FixedLie { value: 99.0 })
        };
        assert_eq!(fixed.lie_at(4), None);
        assert_eq!(fixed.lie_at(5), Some(99.0));
        assert_eq!(fixed.lie_at(9), Some(99.0));
        assert_eq!(fixed.lie_at(10), None);

        let oscillate = AdversaryPlan::with_strategy(
            0.1,
            AttackStrategy::Oscillate {
                center: 10.0,
                amplitude: 4.0,
                period: 3,
            },
        );
        assert_eq!(oscillate.lie_at(0), Some(14.0));
        assert_eq!(oscillate.lie_at(2), Some(14.0));
        assert_eq!(oscillate.lie_at(3), Some(6.0));
        assert_eq!(oscillate.lie_at(6), Some(14.0));

        let drift = AdversaryPlan {
            start_cycle: 2,
            ..AdversaryPlan::with_strategy(
                0.1,
                AttackStrategy::Drift {
                    start: 1.0,
                    rate: 0.5,
                },
            )
        };
        assert_eq!(drift.lie_at(2), Some(1.0));
        assert_eq!(drift.lie_at(6), Some(3.0));

        let capture = AdversaryPlan::leader_capture(2, 50.0);
        assert_eq!(capture.lie_at(0), None);
        assert_eq!(capture.captured_state_at(0), Some(50.0));
        assert_eq!(capture.capture_instances(), 2);
        assert!(!capture.is_empty());
    }

    #[test]
    fn leader_capture_takes_the_first_f_leaders_per_epoch() {
        let mut adversary = Adversary::new(AdversaryPlan::leader_capture(2, 100.0), 3, &ids(10));
        adversary.begin_epoch();
        assert!(adversary.observe_leader(NodeId::new(4)));
        assert!(adversary.observe_leader(NodeId::new(7)));
        assert!(!adversary.observe_leader(NodeId::new(1)));
        assert_eq!(adversary.captured(), &[NodeId::new(4), NodeId::new(7)]);
        adversary.begin_epoch();
        assert!(adversary.captured().is_empty());
        assert!(adversary.observe_leader(NodeId::new(1)));
    }

    #[test]
    fn single_corruption_rule_only_claims_active_colluders() {
        let plan = AdversaryPlan {
            start_cycle: 3,
            ..AdversaryPlan::with_strategy(1.0, AttackStrategy::FixedLie { value: 1.0 })
        };
        let adversary = Adversary::new(plan, 5, &ids(4));
        let id = NodeId::new(0);
        assert!(adversary.is_colluder(id));
        assert!(!adversary.overrides_injection(2, id), "window not open yet");
        assert!(adversary.overrides_injection(3, id));
        // Leader capture never claims default-instance corruption slots.
        let capture = Adversary::new(AdversaryPlan::leader_capture(1, 9.0), 5, &ids(4));
        assert!(!capture.overrides_injection(3, id));
    }

    #[test]
    fn validation_rejects_each_malformed_parameter() {
        assert!(matches!(
            AdversaryPlan::with_strategy(1.5, AttackStrategy::FixedLie { value: 0.0 }).validate(),
            Err(AdversaryPlanError::InvalidFraction { .. })
        ));
        assert!(matches!(
            AdversaryPlan::with_strategy(0.1, AttackStrategy::FixedLie { value: f64::NAN })
                .validate(),
            Err(AdversaryPlanError::NonFiniteAttackValue {
                parameter: "lie value",
                ..
            })
        ));
        assert!(matches!(
            AdversaryPlan::with_strategy(
                0.1,
                AttackStrategy::Oscillate {
                    center: 0.0,
                    amplitude: 1.0,
                    period: 0
                }
            )
            .validate(),
            Err(AdversaryPlanError::ZeroOscillationPeriod)
        ));
        assert!(matches!(
            AdversaryPlan::with_strategy(
                0.1,
                AttackStrategy::Drift {
                    start: 0.0,
                    rate: f64::INFINITY
                }
            )
            .validate(),
            Err(AdversaryPlanError::NonFiniteAttackValue { .. })
        ));
        assert!(matches!(
            AdversaryPlan::leader_capture(0, 1.0).validate(),
            Err(AdversaryPlanError::ZeroCapturedInstances)
        ));
        let reversed = AdversaryPlan {
            start_cycle: 9,
            stop_cycle: Some(9),
            ..AdversaryPlan::with_strategy(0.1, AttackStrategy::FixedLie { value: 0.0 })
        };
        assert!(matches!(
            reversed.validate(),
            Err(AdversaryPlanError::EmptyAttackWindow { .. })
        ));
        for error in [
            AdversaryPlanError::InvalidFraction { value: 2.0 },
            AdversaryPlanError::NonFiniteAttackValue {
                parameter: "lie value",
                value: f64::NAN,
            },
            AdversaryPlanError::ZeroOscillationPeriod,
            AdversaryPlanError::ZeroCapturedInstances,
            AdversaryPlanError::EmptyAttackWindow {
                start_cycle: 9,
                stop_cycle: 9,
            },
        ] {
            assert!(!error.to_string().is_empty());
        }
    }

    #[test]
    fn display_summarises_the_attack() {
        let plan = AdversaryPlan::with_strategy(0.25, AttackStrategy::FixedLie { value: 7.0 });
        assert_eq!(plan.to_string(), "adversary[fraction=0.250,lie=7]");
        assert!(AdversaryPlan::leader_capture(2, 50.0)
            .to_string()
            .contains("capture=2@50"));
    }
}
