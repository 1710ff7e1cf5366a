//! The robustness sweep: Section 4's graceful-degradation claims, measured.
//!
//! The paper argues qualitatively that the averaging protocol tolerates
//! benign failures; this module turns the argument into curves. A
//! [`RobustnessSweep`] drives a cycle engine (reference or sharded) through
//! one [`FaultPlan`] per fault rate and measures the per-cycle
//! variance-reduction factor — the same metric as the convergence-rate
//! experiments, so degradation reads directly as "the factor moved from
//! 1/(2√e) to *x*":
//!
//! * [`RobustnessSweep::link_failure_curve`] — convergence factor vs
//!   persistent link-failure probability (the Section 4 link-failure axis);
//! * [`RobustnessSweep::loss_curve`] — convergence factor vs uniform
//!   message-omission probability;
//! * [`RobustnessSweep::injection_curve`] — estimate-mean displacement vs
//!   adversarially corrupted node fraction (the beyond-the-paper attack);
//! * [`crash_estimation_curve`] — network-size-estimation error vs crash
//!   rate at the start of an epoch, the paper's "cost of crashes on the
//!   counting protocol" figure;
//! * [`attack_defense_sweep`] — size-estimation error vs attack amplitude
//!   under leader capture, undefended single-instance counting against the
//!   median-of-k redundant-instance defense (the Byzantine adversary lab's
//!   headline curve);
//! * [`sweep_table`] — renders any set of points as the
//!   convergence-factor-vs-fault-rate table whose CSV form is the artifact
//!   the `fault_lab` example, the `robustness_sweep` bench and CI record.

use crate::{
    AdversaryPlan, FaultPlan, GossipSimulation, RedundancyConfig, SeedSequence, ShardedConfig,
    ShardedSimulation, SimError, SimulationConfig, ValueDistribution,
};
use aggregate_core::config::LateJoinPolicy;
use aggregate_core::size_estimation::LeaderPolicy;
use aggregate_core::{avg, theory, ProtocolConfig};
use gossip_analysis::Table;
use gossip_faults::{CrashBurst, ValueInjection};

/// Shared parameters of a robustness sweep: one engine configuration probed
/// at several fault rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessSweep {
    /// Network size.
    pub nodes: usize,
    /// Cycles per point (the epoch is sized to outlast them, so no restart
    /// perturbs the variance trajectory).
    pub cycles: usize,
    /// Shard count; `0` selects the single-threaded reference engine. The
    /// sharded engine makes the 10⁵-node acceptance point routine.
    pub shards: usize,
    /// Master seed (every point derives its own labelled streams).
    pub seed: u64,
}

/// One measured point of a robustness curve.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessPoint {
    /// The fault family this point probes (`"link-failure"`,
    /// `"message-loss"`, `"value-injection"`).
    pub fault: String,
    /// The fault rate (dead-link probability, loss probability, corrupted
    /// fraction).
    pub rate: f64,
    /// Network size the point ran at.
    pub(crate) nodes: usize,
    /// Number of per-cycle factors that entered the mean.
    pub(crate) cycles_measured: usize,
    /// Mean per-cycle variance-reduction factor `σ²ᵢ / σ²ᵢ₋₁` — the
    /// convergence-factor axis of the Section 4 curves.
    pub mean_factor: f64,
    /// Estimate variance after the final cycle.
    pub final_variance: f64,
    /// Absolute displacement of the final estimate mean from the true
    /// initial average (mass-conservation drift; grows with loss and
    /// injection, stays ≈0 under pure link faults).
    pub mean_drift: f64,
    /// Total exchange attempts vetoed by dead links/partitions.
    pub exchanges_blocked: usize,
    /// Total messages dropped by the loss model.
    pub(crate) messages_lost: usize,
}

impl RobustnessPoint {
    /// Ratio of the measured factor to the fault-free `GETPAIR_SEQ` rate
    /// `1/(2√e)` — 1.0 means "this fault rate costs nothing".
    pub fn ratio_to_seq_rate(&self) -> f64 {
        self.mean_factor / theory::seq_rate()
    }
}

impl RobustnessSweep {
    /// Convergence factor vs persistent link-failure probability.
    ///
    /// # Errors
    ///
    /// Propagates the first failing point.
    pub fn link_failure_curve(
        &self,
        probabilities: &[f64],
    ) -> Result<Vec<RobustnessPoint>, SimError> {
        probabilities
            .iter()
            .map(|&p| self.measure("link-failure", p, FaultPlan::with_link_failure(p)))
            .collect()
    }

    /// Convergence factor vs uniform message-loss probability.
    ///
    /// # Errors
    ///
    /// Propagates the first failing point.
    pub fn loss_curve(&self, probabilities: &[f64]) -> Result<Vec<RobustnessPoint>, SimError> {
        probabilities
            .iter()
            .map(|&p| self.measure("message-loss", p, FaultPlan::with_message_loss(p)))
            .collect()
    }

    /// Convergence factor (and mean displacement) vs adversarially corrupted
    /// node fraction: at cycle 1 the adversary overwrites the running
    /// estimates of `fraction` of the nodes with `injected_value`.
    ///
    /// # Errors
    ///
    /// Propagates the first failing point.
    pub fn injection_curve(
        &self,
        fractions: &[f64],
        injected_value: f64,
    ) -> Result<Vec<RobustnessPoint>, SimError> {
        fractions
            .iter()
            .map(|&fraction| {
                let plan = FaultPlan {
                    injections: vec![ValueInjection {
                        cycle: 1,
                        fraction,
                        value: injected_value,
                    }],
                    ..FaultPlan::default()
                };
                self.measure("value-injection", fraction, plan)
            })
            .collect()
    }

    /// Runs one point: `cycles` cycles of plain averaging under `plan`,
    /// measuring the per-cycle variance-reduction factors.
    ///
    /// # Errors
    ///
    /// Configuration errors (invalid plan, bad shard count, …).
    pub fn measure(
        &self,
        fault: &str,
        rate: f64,
        plan: FaultPlan,
    ) -> Result<RobustnessPoint, SimError> {
        let protocol = ProtocolConfig::builder()
            .cycles_per_epoch(u32::try_from(self.cycles + 1).unwrap_or(u32::MAX))
            .build()?;
        let config = SimulationConfig::averaging(protocol);
        let seeds = SeedSequence::new(self.seed);
        // stream: node value draws for robustness sweeps
        let mut value_rng = seeds.rng_for_labeled(0, "robustness-values");
        let values =
            ValueDistribution::Uniform { lo: 0.0, hi: 1.0 }.generate(self.nodes, &mut value_rng);
        let true_mean = avg::mean(&values);
        let initial_variance = avg::variance(&values);

        // (variance, mean, blocked, lost) per cycle, engine-agnostic.
        let per_cycle: Vec<(f64, f64, usize, usize)> = if self.shards == 0 {
            let mut sim = GossipSimulation::with_faults(config, &values, self.seed, plan)?;
            sim.run(self.cycles)
                .iter()
                .map(|s| {
                    (
                        s.estimate_variance,
                        s.estimate_mean,
                        s.exchanges_blocked,
                        s.messages_lost,
                    )
                })
                .collect()
        } else {
            let sharded = ShardedConfig {
                base: config,
                shards: self.shards,
                workers: None,
            };
            let mut sim = ShardedSimulation::with_faults(sharded, &values, self.seed, plan)?;
            sim.run(self.cycles)
                .iter()
                .map(|s| {
                    (
                        s.estimate_variance,
                        s.estimate_mean,
                        s.exchanges_blocked,
                        s.messages_lost,
                    )
                })
                .collect()
        };

        let mut factors = Vec::with_capacity(per_cycle.len());
        let mut previous = initial_variance;
        for &(variance, _, _, _) in &per_cycle {
            if previous > 1e-12 {
                factors.push(variance / previous);
            }
            previous = variance;
        }
        let mean_factor = if factors.is_empty() {
            f64::NAN
        } else {
            factors.iter().sum::<f64>() / factors.len() as f64
        };
        let last = per_cycle
            .last()
            .copied()
            .unwrap_or((initial_variance, true_mean, 0, 0));
        Ok(RobustnessPoint {
            fault: fault.to_string(),
            rate,
            nodes: self.nodes,
            cycles_measured: factors.len(),
            mean_factor,
            final_variance: last.0,
            mean_drift: (last.1 - true_mean).abs(),
            exchanges_blocked: per_cycle.iter().map(|c| c.2).sum(),
            messages_lost: per_cycle.iter().map(|c| c.3).sum(),
        })
    }
}

/// One point of the crash-rate size-estimation experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEstimationPoint {
    /// Fraction of nodes crashed at the start of the measured epoch.
    pub crash_fraction: f64,
    /// Live nodes after the burst (what the estimate *should* report once
    /// the protocol re-counts).
    pub(crate) surviving_nodes: usize,
    /// Mean network-size estimate reported at the end of the crashed epoch.
    pub estimate_mean: f64,
    /// `|estimate − survivors| / survivors` — the error axis of the paper's
    /// crash figure. The mass lost with the crashed nodes biases the epoch
    /// upward; the *next* epoch re-counts correctly.
    pub relative_error: f64,
    /// Nodes that reported an estimate for the crashed epoch.
    pub(crate) reporting_nodes: usize,
}

/// Network-size-estimation error vs crash rate at the start of an epoch: for
/// each fraction, `nodes` nodes run counting epochs of `cycles_per_epoch`
/// cycles; two cycles into epoch 1 — when the freshly elected leaders'
/// counting mass is maximally concentrated on a handful of nodes — the
/// burst removes the fraction, and the estimates reported at the end of
/// that epoch are compared against the survivor count.
///
/// A crash this early is the worst case the paper discusses: a crashed
/// node that already absorbed a large share of some leader's unit mass
/// takes it to the grave, so the surviving instance states sum short of 1
/// and the epoch *overestimates* the network size — the error axis
/// captures exactly that bias. (Crashing before the very first exchange
/// would be degenerate: victims hold either all of an instance's mass or
/// none, so every surviving instance still counts perfectly.) The election
/// uses a fixed per-node probability targeting ~16 concurrent leaders, the
/// multiple-instances mitigation the paper proposes for exactly this
/// failure mode; if a burst nevertheless wipes out every instance, the
/// point reports `reporting_nodes == 0` with an infinite error instead of
/// failing.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn crash_estimation_curve(
    nodes: usize,
    cycles_per_epoch: u32,
    fractions: &[f64],
    seed: u64,
) -> Result<Vec<CrashEstimationPoint>, SimError> {
    let mut points = Vec::with_capacity(fractions.len());
    for &fraction in fractions {
        let protocol = ProtocolConfig::builder()
            .cycles_per_epoch(cycles_per_epoch)
            .late_join(LateJoinPolicy::FixedState(0.0))
            .build()?;
        let config = SimulationConfig {
            protocol,
            leader_policy: Some(LeaderPolicy::Fixed {
                probability: (16.0 / nodes as f64).min(1.0),
            }),
            ..SimulationConfig::averaging(protocol)
        };
        let plan = FaultPlan {
            crashes: vec![CrashBurst {
                cycle: cycles_per_epoch as usize + 2,
                fraction,
            }],
            ..FaultPlan::default()
        };
        let values = vec![0.0; nodes];
        let mut sim = GossipSimulation::with_faults(config, &values, seed, plan)?;
        let mut point = None;
        for summary in sim.run(2 * cycles_per_epoch as usize) {
            if summary.completed_epoch != Some(1) {
                continue;
            }
            let survivors = summary.live_nodes;
            point = Some(if summary.epoch_size_estimates.is_empty() {
                // Every counting instance died with the burst: total mass
                // loss, no estimate at all this epoch.
                CrashEstimationPoint {
                    crash_fraction: fraction,
                    surviving_nodes: survivors,
                    estimate_mean: f64::NAN,
                    relative_error: f64::INFINITY,
                    reporting_nodes: 0,
                }
            } else {
                let mean = summary.epoch_size_estimates.iter().sum::<f64>()
                    / summary.epoch_size_estimates.len() as f64;
                CrashEstimationPoint {
                    crash_fraction: fraction,
                    surviving_nodes: survivors,
                    estimate_mean: mean,
                    relative_error: (mean - survivors as f64).abs() / survivors as f64,
                    reporting_nodes: summary.epoch_size_estimates.len(),
                }
            });
        }
        let Some(point) = point else {
            return Err(SimError::Incomplete(
                "no size-estimation epoch completed within two epochs of cycles",
            ));
        };
        points.push(point);
    }
    Ok(points)
}

/// One point of the attack-vs-defense size-estimation experiment: the same
/// leader-capture attack measured against the undefended single-instance
/// estimator and the median-of-k redundant-instance defense.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackDefensePoint {
    /// The state each captured counting instance is forced to every cycle —
    /// the attack amplitude (honest leaders hold 1.0, so larger values crush
    /// the estimate harder).
    pub reported_state: f64,
    /// Network size the point ran at.
    pub(crate) nodes: usize,
    /// Redundant instances `k` the defense ran per epoch.
    pub(crate) instances: usize,
    /// Leaders the adversary captured per epoch (`f`).
    pub(crate) captured: usize,
    /// Mean size estimate of the undefended single-instance run.
    pub undefended_estimate: f64,
    /// Mean size estimate of the defended (median-of-k) run.
    pub(crate) defended_estimate: f64,
    /// `|undefended − n| / n`.
    pub undefended_error: f64,
    /// `|defended − n| / n`.
    pub defended_error: f64,
    /// The defense's overhead factor: `k` concurrent counting instances per
    /// node instead of one — state, exchange payload and merge work all
    /// scale linearly in it.
    pub(crate) defense_cost: f64,
}

/// Runs one counting epoch and returns the mean of the size estimates its
/// reporting nodes produced.
fn first_epoch_size_estimate(
    config: SimulationConfig,
    nodes: usize,
    seed: u64,
    plan: AdversaryPlan,
    cycles_per_epoch: u32,
) -> Result<f64, SimError> {
    let values = vec![0.0; nodes];
    let mut sim = GossipSimulation::with_adversary(config, &values, seed, FaultPlan::none(), plan)?;
    for summary in sim.run(cycles_per_epoch as usize) {
        if summary.completed_epoch == Some(0) && !summary.epoch_size_estimates.is_empty() {
            return Ok(summary.epoch_size_estimates.iter().sum::<f64>()
                / summary.epoch_size_estimates.len() as f64);
        }
    }
    Err(SimError::Incomplete(
        "no size-estimation epoch completed under the adversary",
    ))
}

/// Size-estimation error vs attack amplitude under leader capture: for each
/// amplitude, the adversary captures `captured` counting-instance leaders
/// per epoch and forces their instances to the amplitude every cycle. Each
/// point measures the same attack twice — against the undefended
/// single-instance estimator (a deterministic lone leader, which the
/// adversary captures whole) and against the median-of-`instances` defense
/// (`instances` independent leaders per epoch, per-node median merge). As
/// long as `captured < instances / 2` the median sits on an honest
/// instance's estimate, so the defended error stays bounded while the
/// undefended estimate is arbitrarily wrong — the paper's multiple-instances
/// mitigation, measured as a curve.
///
/// # Errors
///
/// Configuration errors, or [`SimError::Incomplete`] when no epoch completes.
pub fn attack_defense_sweep(
    nodes: usize,
    cycles_per_epoch: u32,
    instances: usize,
    captured: usize,
    amplitudes: &[f64],
    seed: u64,
) -> Result<Vec<AttackDefensePoint>, SimError> {
    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(cycles_per_epoch)
        .late_join(LateJoinPolicy::FixedState(0.0))
        .build()?;
    let base = SimulationConfig::averaging(protocol);
    let undefended_config = SimulationConfig {
        // Probability 0 forces the deterministic fallback: exactly one
        // leader carries the count, and the adversary captures it.
        leader_policy: Some(LeaderPolicy::Fixed { probability: 0.0 }),
        ..base
    };
    let defended_config = SimulationConfig {
        redundancy: Some(RedundancyConfig::median_of(instances)),
        ..base
    };
    let mut points = Vec::with_capacity(amplitudes.len());
    for &amplitude in amplitudes {
        let plan = AdversaryPlan::leader_capture(captured, amplitude);
        let undefended =
            first_epoch_size_estimate(undefended_config, nodes, seed, plan, cycles_per_epoch)?;
        let defended =
            first_epoch_size_estimate(defended_config, nodes, seed, plan, cycles_per_epoch)?;
        let n = nodes as f64;
        points.push(AttackDefensePoint {
            reported_state: amplitude,
            nodes,
            instances,
            captured,
            undefended_estimate: undefended,
            defended_estimate: defended,
            undefended_error: (undefended - n).abs() / n,
            defended_error: (defended - n).abs() / n,
            defense_cost: instances as f64,
        });
    }
    Ok(points)
}

/// Renders attack-defense points as the error-vs-amplitude table — the CSV
/// artifact of the `byzantine_lab` example and the adversarial-smoke CI job.
pub fn attack_defense_table(points: &[AttackDefensePoint]) -> Table {
    let mut table = Table::new(vec![
        "reported_state",
        "nodes",
        "instances",
        "captured",
        "undefended_estimate",
        "defended_estimate",
        "undefended_error",
        "defended_error",
        "defense_cost",
    ]);
    for point in points {
        table.add_row(vec![
            format!("{:.4}", point.reported_state),
            point.nodes.to_string(),
            point.instances.to_string(),
            point.captured.to_string(),
            format!("{:.1}", point.undefended_estimate),
            format!("{:.1}", point.defended_estimate),
            format!("{:.4}", point.undefended_error),
            format!("{:.4}", point.defended_error),
            format!("{:.1}", point.defense_cost),
        ]);
    }
    table
}

/// Renders robustness points as the convergence-factor-vs-fault-rate table
/// — one row per (fault family, rate), CSV-exportable via
/// [`Table::write_csv`]. Curves from several sweeps stack into one artifact
/// with [`Table::append`].
pub fn sweep_table(points: &[RobustnessPoint]) -> Table {
    let mut table = Table::new(vec![
        "fault",
        "rate",
        "nodes",
        "cycles_measured",
        "measured_factor",
        "seq_theory",
        "ratio_to_theory",
        "final_variance",
        "mean_drift",
        "exchanges_blocked",
        "messages_lost",
    ]);
    for point in points {
        table.add_row(vec![
            point.fault.clone(),
            format!("{:.4}", point.rate),
            point.nodes.to_string(),
            point.cycles_measured.to_string(),
            format!("{:.4}", point.mean_factor),
            format!("{:.4}", theory::seq_rate()),
            format!("{:.3}", point.ratio_to_seq_rate()),
            format!("{:.3e}", point.final_variance),
            format!("{:.3e}", point.mean_drift),
            point.exchanges_blocked.to_string(),
            point.messages_lost.to_string(),
        ]);
    }
    table
}

/// Renders crash-estimation points as the size-estimation-error-vs-crash-rate
/// table.
pub fn crash_table(points: &[CrashEstimationPoint]) -> Table {
    let mut table = Table::new(vec![
        "crash_fraction",
        "surviving_nodes",
        "estimate_mean",
        "relative_error",
        "reporting_nodes",
    ]);
    for point in points {
        table.add_row(vec![
            format!("{:.4}", point.crash_fraction),
            point.surviving_nodes.to_string(),
            format!("{:.1}", point.estimate_mean),
            format!("{:.4}", point.relative_error),
            point.reporting_nodes.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RobustnessSweep {
        /// A sweep at `nodes`/20 cycles on the reference engine.
        fn new(nodes: usize, seed: u64) -> Self {
            RobustnessSweep {
                nodes,
                cycles: 20,
                shards: 0,
                seed,
            }
        }
    }

    #[test]
    fn fault_free_point_measures_the_seq_rate() {
        let sweep = RobustnessSweep::new(2_000, 11);
        let point = sweep
            .measure("link-failure", 0.0, FaultPlan::none())
            .unwrap();
        assert!(
            (point.mean_factor - theory::seq_rate()).abs() < 0.05,
            "measured {} vs theory {}",
            point.mean_factor,
            theory::seq_rate()
        );
        assert_eq!(point.exchanges_blocked, 0);
        assert_eq!(point.messages_lost, 0);
        assert!(point.mean_drift < 1e-9, "drift {}", point.mean_drift);
        assert!((point.ratio_to_seq_rate() - 1.0).abs() < 0.2);
    }

    #[test]
    fn link_failure_curve_degrades_monotonically_but_converges() {
        let sweep = RobustnessSweep::new(2_000, 11);
        let points = sweep.link_failure_curve(&[0.0, 0.1, 0.2]).unwrap();
        assert_eq!(points.len(), 3);
        for pair in points.windows(2) {
            assert!(
                pair[1].mean_factor > pair[0].mean_factor - 0.02,
                "factor should not improve with more dead links: {} then {}",
                pair[0].mean_factor,
                pair[1].mean_factor
            );
        }
        let worst = points.last().unwrap();
        assert!(worst.exchanges_blocked > 0);
        assert!(
            worst.mean_factor < 0.55,
            "20% dead links must still converge well (factor {})",
            worst.mean_factor
        );
        assert!(worst.final_variance < points[0].final_variance * 1e3);
        // Dead links only skip exchanges — the mean is untouched.
        assert!(worst.mean_drift < 1e-9);
    }

    #[test]
    fn loss_curve_degrades_but_stays_below_one() {
        let sweep = RobustnessSweep::new(2_000, 13);
        let points = sweep.loss_curve(&[0.0, 0.2]).unwrap();
        assert!(points[1].messages_lost > 0);
        assert!(points[1].mean_factor > points[0].mean_factor - 0.02);
        assert!(
            points[1].mean_factor < 0.7,
            "20% loss still converges (factor {})",
            points[1].mean_factor
        );
    }

    #[test]
    fn injection_curve_reports_the_displacement() {
        let sweep = RobustnessSweep::new(1_000, 17);
        let points = sweep.injection_curve(&[0.0, 0.05], 100.0).unwrap();
        assert!(points[0].mean_drift < 1e-9);
        // 5% of nodes overwritten with 100 against a true mean of ~0.5:
        // the consensus value moves by roughly 0.05 * (100 - 0.5) ≈ 5.
        assert!(
            points[1].mean_drift > 1.0,
            "injection must displace the mean, drift {}",
            points[1].mean_drift
        );
        assert!(
            points[1].final_variance < 1e-2,
            "the network still reaches consensus on the corrupted value"
        );
    }

    #[test]
    fn sharded_sweep_points_match_the_metric_contract() {
        let sweep = RobustnessSweep {
            nodes: 1_000,
            cycles: 15,
            shards: 4,
            seed: 19,
        };
        let point = sweep
            .measure("link-failure", 0.2, FaultPlan::with_link_failure(0.2))
            .unwrap();
        assert!(point.exchanges_blocked > 0);
        assert!(point.mean_factor < 0.6);
    }

    #[test]
    fn crash_estimation_error_grows_with_the_crash_rate() {
        let points = crash_estimation_curve(400, 25, &[0.0, 0.3], 23).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].surviving_nodes, 400);
        assert!(
            points[0].relative_error < 0.1,
            "crash-free epoch estimates the size well, error {}",
            points[0].relative_error
        );
        assert_eq!(points[1].surviving_nodes, 280);
        assert!(points[1].reporting_nodes > 0);
        // Mass lost with the crashed nodes biases the epoch's count; the
        // error must be visible yet bounded (the protocol does not wedge).
        assert!(points[1].relative_error > points[0].relative_error);
        assert!(points[1].estimate_mean.is_finite() && points[1].estimate_mean > 0.0);
    }

    #[test]
    fn attack_defense_sweep_shows_the_median_holding_the_line() {
        // Small-scale version of the pinned acceptance point (the 10k-node
        // version lives in tests/byzantine.rs and the CI smoke job): two of
        // five instances captured, the median still reads the honest count.
        let points = attack_defense_sweep(500, 30, 5, 2, &[20.0], 31).unwrap();
        assert_eq!(points.len(), 1);
        let point = &points[0];
        assert!(
            point.defended_error < 0.10,
            "median-of-5 with 2 captured must stay within 10%, error {}",
            point.defended_error
        );
        assert!(
            point.undefended_error > 0.8,
            "a captured lone leader must wreck the undefended estimate, error {}",
            point.undefended_error
        );
        assert!(point.defended_error * 5.0 < point.undefended_error);
        let csv = attack_defense_table(&points).to_csv();
        assert!(csv.starts_with("reported_state,nodes,instances,captured"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn tables_render_one_labelled_row_per_point() {
        let sweep = RobustnessSweep::new(300, 5);
        let mut points = sweep.link_failure_curve(&[0.0, 0.2]).unwrap();
        points.extend(sweep.loss_curve(&[0.1]).unwrap());
        let table = sweep_table(&points);
        let csv = table.to_csv();
        assert!(csv.starts_with("fault,rate,nodes,cycles_measured,measured_factor"));
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.contains("link-failure,0.2000"));
        assert!(csv.contains("message-loss,0.1000"));

        let crash_points = crash_estimation_curve(200, 10, &[0.2], 29).unwrap();
        let crash_csv = crash_table(&crash_points).to_csv();
        assert!(crash_csv.starts_with("crash_fraction,surviving_nodes"));
        assert_eq!(crash_csv.lines().count(), 2);
    }
}
