//! Experiment runners: the parameterised procedures behind every figure and
//! table of the paper, shared by the examples and the integration tests.

use crate::{
    ChurnSchedule, GossipSimulation, NetworkConditions, SeedSequence, SimConfigError, SimError,
    SimulationConfig, ValueDistribution,
};
use aggregate_core::avg::{self, CycleReport};
use aggregate_core::config::LateJoinPolicy;
use aggregate_core::sampler::SamplerConfig;
use aggregate_core::size_estimation::LeaderPolicy;
use aggregate_core::{AggregationError, ProtocolConfig, SelectorKind};
use gossip_analysis::Summary;
use overlay_topology::{TopologyBuilder, TopologyKind};

/// Parameters of a variance-reduction experiment (the setting of Figure 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarianceExperiment {
    /// Network size.
    pub(crate) nodes: usize,
    /// Overlay topology.
    pub(crate) topology: TopologyKind,
    /// Pair-selection strategy.
    pub(crate) selector: SelectorKind,
    /// Number of cycles of `AVG` to iterate.
    pub(crate) cycles: usize,
    /// Number of independent runs to average over (the paper uses 50).
    pub(crate) runs: usize,
    /// Initial value distribution.
    pub(crate) values: ValueDistribution,
    /// Master seed.
    pub(crate) seed: u64,
}

impl VarianceExperiment {
    /// The configuration used throughout Figure 3: uniform initial values and
    /// 50 runs.
    pub fn figure3(
        nodes: usize,
        topology: TopologyKind,
        selector: SelectorKind,
        cycles: usize,
        runs: usize,
        seed: u64,
    ) -> Self {
        VarianceExperiment {
            nodes,
            topology,
            selector,
            cycles,
            runs,
            values: ValueDistribution::Uniform { lo: 0.0, hi: 1.0 },
            seed,
        }
    }

    /// Runs the experiment and returns, for every cycle, the [`Summary`] over
    /// runs of the per-cycle variance-reduction factor `σ²_i / σ²_{i-1}`.
    ///
    /// # Errors
    ///
    /// Propagates topology-construction and protocol errors.
    pub fn run(&self) -> Result<Vec<Summary>, AggregationError> {
        let seeds = SeedSequence::new(self.seed);
        let mut per_cycle_factors: Vec<Vec<f64>> = vec![Vec::new(); self.cycles];
        for run in 0..self.runs {
            // stream: overlay graph construction
            let mut topo_rng = seeds.rng_for_labeled(run as u64, "topology");
            let topology = TopologyBuilder::new(self.topology)
                .nodes(self.nodes)
                .build(&mut topo_rng)
                .map_err(|e| AggregationError::invalid_config(e.to_string()))?;
            let mut rng = seeds.rng_for_labeled(run as u64, "protocol");
            let mut values = self.values.generate(self.nodes, &mut rng);
            let mut selector = self.selector.instantiate();
            let reports = avg::run_avg(
                &mut values,
                &topology,
                selector.as_mut(),
                &mut rng,
                self.cycles,
            )?;
            for (cycle, report) in reports.iter().enumerate() {
                if let Some(factor) = report.reduction_factor() {
                    per_cycle_factors[cycle].push(factor);
                }
            }
        }
        Ok(per_cycle_factors
            .iter()
            .map(|factors| Summary::from_slice(factors))
            .collect())
    }

    /// Runs the experiment and returns only the first-cycle reduction factor
    /// summary — the quantity plotted in Figure 3(a).
    pub fn run_first_cycle(&self) -> Result<Summary, AggregationError> {
        let mut single_cycle = *self;
        single_cycle.cycles = 1;
        Ok(single_cycle.run()?.remove(0))
    }
}

/// Runs `cycles` cycles of AVG once (single run) and returns the raw cycle
/// reports — convenience used by examples and tests that want the full detail
/// rather than cross-run summaries.
///
/// # Errors
///
/// Propagates topology-construction and protocol errors.
pub fn single_run_reports(
    nodes: usize,
    topology: TopologyKind,
    selector: SelectorKind,
    cycles: usize,
    values: ValueDistribution,
    seed: u64,
) -> Result<Vec<CycleReport>, AggregationError> {
    let seeds = SeedSequence::new(seed);
    let mut topo_rng = seeds.rng_for_labeled(0, "topology");
    let topology = TopologyBuilder::new(topology)
        .nodes(nodes)
        .build(&mut topo_rng)
        .map_err(|e| AggregationError::invalid_config(e.to_string()))?;
    let mut rng = seeds.rng_for_labeled(0, "protocol");
    let mut data = values.generate(nodes, &mut rng);
    let mut selector = selector.instantiate();
    avg::run_avg(&mut data, &topology, selector.as_mut(), &mut rng, cycles)
}

/// One reported point of the Figure 4 reproduction: the true network size at
/// the end of an epoch and the distribution of converged estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeEstimationPoint {
    /// Cycle at which the epoch completed.
    pub cycle: usize,
    /// Epoch number.
    pub epoch: u64,
    /// Actual number of live nodes at that moment.
    pub actual_size: usize,
    /// Mean of the converged size estimates over fully participating nodes.
    pub estimate_mean: f64,
    /// Smallest reported estimate (lower error bar in Figure 4).
    pub estimate_min: f64,
    /// Largest reported estimate (upper error bar in Figure 4).
    pub estimate_max: f64,
    /// Number of nodes that reported an estimate.
    pub reporting_nodes: usize,
}

/// Parameters of the Figure 4 network-size-estimation scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeEstimationScenario {
    /// Churn schedule (oscillation + fluctuation).
    pub churn: ChurnSchedule,
    /// Epoch length in cycles (the paper uses 30).
    pub cycles_per_epoch: u32,
    /// Total number of cycles to simulate (the paper shows 1 000).
    pub total_cycles: usize,
    /// Leader-election policy.
    pub leader_policy: LeaderPolicy,
    /// Message-loss probability (0 for the paper's setting).
    pub message_loss: f64,
    /// Peer-sampling layer partners are drawn from (the paper's Figure 4
    /// runs on the complete graph; NEWSCAST variants probe the overlay
    /// dependence of size estimation under churn).
    pub sampler: SamplerConfig,
    /// Master seed.
    pub seed: u64,
}

impl SizeEstimationScenario {
    /// The exact scenario of Figure 4 at full scale (≈100 000 nodes,
    /// 1 000 cycles, epochs of 30 cycles).
    pub fn figure4(seed: u64) -> Self {
        SizeEstimationScenario {
            churn: ChurnSchedule::figure4(),
            cycles_per_epoch: 30,
            total_cycles: 1_000,
            leader_policy: LeaderPolicy::default(),
            message_loss: 0.0,
            sampler: SamplerConfig::UniformComplete,
            seed,
        }
    }

    /// The Figure 4 scenario scaled down to `base_size` nodes and
    /// `total_cycles` cycles, for quick runs and tests.
    pub fn figure4_scaled(base_size: usize, total_cycles: usize, seed: u64) -> Self {
        SizeEstimationScenario {
            churn: ChurnSchedule::figure4_scaled(base_size),
            cycles_per_epoch: 30,
            total_cycles,
            leader_policy: LeaderPolicy::default(),
            message_loss: 0.0,
            sampler: SamplerConfig::UniformComplete,
            seed,
        }
    }

    /// Runs the scenario and returns one point per completed epoch.
    ///
    /// Convenience wrapper over [`ChurnRunner`] that keeps only the
    /// per-epoch estimation points.
    ///
    /// # Errors
    ///
    /// Returns an error when the scenario or protocol configuration is
    /// invalid.
    pub fn run(&self) -> Result<Vec<SizeEstimationPoint>, SimError> {
        Ok(ChurnRunner::new(*self).run()?.points)
    }

    /// Builds the [`SimulationConfig`] this scenario runs under.
    ///
    /// # Errors
    ///
    /// Returns an error when the protocol configuration is invalid.
    fn simulation_config(&self) -> Result<SimulationConfig, AggregationError> {
        let protocol = ProtocolConfig::builder()
            .cycles_per_epoch(self.cycles_per_epoch)
            .late_join(LateJoinPolicy::FixedState(0.0))
            .build()?;
        Ok(SimulationConfig {
            protocol,
            conditions: NetworkConditions::with_message_loss(self.message_loss),
            leader_policy: Some(self.leader_policy),
            sampler: self.sampler,
            redundancy: None,
        })
    }
}

/// Aggregate result of one end-to-end churn run: the Figure 4 estimation
/// points plus the engine-health telemetry (throughput and arena footprint)
/// that the full-scale runs and the CI smoke job report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnReport {
    /// One point per completed epoch that produced size estimates.
    pub points: Vec<SizeEstimationPoint>,
    /// Number of cycles simulated.
    pub cycles: usize,
    /// Total joins applied by the schedule.
    pub total_joins: usize,
    /// Total departures applied by the schedule.
    pub total_departures: usize,
    /// Largest number of simultaneously live nodes observed.
    pub peak_live_nodes: usize,
    /// Live node count at the end of the run.
    pub final_live_nodes: usize,
    /// Node-arena slot capacity at the end of the run. Capacity never
    /// shrinks, so this *is* the run's high-water mark: with the free-list
    /// arena it stays ≤ peak live + one cycle's joins, where the pre-arena
    /// engine grew it by every join ever made (~200 slots leaked per
    /// Figure 4 cycle).
    pub peak_slot_capacity: usize,
    /// Wall-clock duration of the simulation loop, in seconds.
    pub elapsed_seconds: f64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_second: f64,
}

impl ChurnReport {
    /// Mean absolute relative error of the size estimate against the true
    /// live size, skipping the bootstrap epoch (the paper's Figure 4 shows
    /// the same one-epoch warm-up). `None` when fewer than two points exist.
    pub fn mean_tracking_error(&self) -> Option<f64> {
        let tracked: Vec<f64> = self
            .points
            .iter()
            .skip(1)
            .map(|p| (p.estimate_mean - p.actual_size as f64).abs() / p.actual_size as f64)
            .collect();
        if tracked.is_empty() {
            None
        } else {
            Some(tracked.iter().sum::<f64>() / tracked.len() as f64)
        }
    }
}

/// Drives a [`ChurnSchedule`] end-to-end through the reference engine:
/// per-cycle joins (through the arena free list), uniform random departures,
/// epoch restarts and size-estimate collection — the procedure behind
/// Figure 4 at both scaled and full (90 000–110 000 node) scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnRunner {
    /// The scenario to execute.
    pub(crate) scenario: SizeEstimationScenario,
}

impl ChurnRunner {
    /// Creates a runner for `scenario`.
    pub fn new(scenario: SizeEstimationScenario) -> Self {
        ChurnRunner { scenario }
    }

    /// Runs the scenario to completion.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] when the scenario is empty (zero cycles or an
    /// initial population of zero) or its configuration is rejected;
    /// [`SimError::Protocol`] when the protocol configuration is invalid.
    pub fn run(&self) -> Result<ChurnReport, SimError> {
        let scenario = &self.scenario;
        if scenario.total_cycles == 0 {
            return Err(SimConfigError::ZeroCycles.into());
        }
        let config = scenario.simulation_config()?;
        let initial_size = scenario.churn.target_size(0);
        let values = vec![0.0; initial_size];
        let mut sim = GossipSimulation::try_new(config, &values, scenario.seed)?;
        let mut points = Vec::new();
        let mut total_joins = 0usize;
        let mut total_departures = 0usize;
        let mut peak_live_nodes = sim.live_count();
        let started = std::time::Instant::now(); // lint-allow(nondeterminism): wall-clock cycles/sec telemetry only; no protocol decision reads it
        for cycle in 0..scenario.total_cycles {
            // Apply churn before the cycle runs (joins wait for the next
            // epoch, departures are immediate).
            let (joins, departures) = scenario.churn.changes_at(cycle);
            for _ in 0..joins {
                sim.add_node(0.0);
            }
            total_joins += joins;
            // Joins land before departures, so this is the cycle's
            // high-water mark for the live set. (Arena capacity is monotone;
            // reading it once after the loop captures its peak.)
            peak_live_nodes = peak_live_nodes.max(sim.live_count());
            total_departures += sim.remove_random_nodes(departures);

            let summary = sim.run_cycle();
            let Some(epoch) = summary.completed_epoch else {
                continue;
            };
            if summary.epoch_size_estimates.is_empty() {
                continue;
            }
            let stats = Summary::from_slice(&summary.epoch_size_estimates);
            points.push(SizeEstimationPoint {
                cycle,
                epoch,
                actual_size: summary.live_nodes,
                estimate_mean: stats.mean,
                estimate_min: stats.min,
                estimate_max: stats.max,
                reporting_nodes: stats.count,
            });
        }
        let elapsed_seconds = started.elapsed().as_secs_f64();
        let cycles_per_second = if elapsed_seconds > 0.0 {
            scenario.total_cycles as f64 / elapsed_seconds
        } else {
            f64::INFINITY
        };

        Ok(ChurnReport {
            points,
            cycles: scenario.total_cycles,
            total_joins,
            total_departures,
            peak_live_nodes,
            final_live_nodes: sim.live_count(),
            peak_slot_capacity: sim.slot_capacity(),
            elapsed_seconds,
            cycles_per_second,
        })
    }
}

/// Result of a robustness run (benchmark A2): final accuracy under failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessResult {
    /// Mean absolute relative error of the final estimates w.r.t. the true
    /// average of the surviving nodes' values.
    pub mean_relative_error: f64,
    /// Variance of the final estimates.
    pub final_variance: f64,
    /// Number of live nodes at the end.
    pub surviving_nodes: usize,
}

/// Runs the averaging protocol for `cycles` cycles over `nodes` nodes holding
/// uniform `[0, 1)` values under the given failure conditions, and reports the
/// final accuracy. Used by the failure-injection ablation.
///
/// # Errors
///
/// Returns an error when the protocol configuration is invalid.
pub fn robustness_run(
    nodes: usize,
    cycles: usize,
    conditions: NetworkConditions,
    seed: u64,
) -> Result<RobustnessResult, AggregationError> {
    // The epoch must outlast the run: an epoch restart would reset every
    // estimate back to the local value right before we measure accuracy.
    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(u32::try_from(cycles + 1).unwrap_or(u32::MAX))
        .build()?;
    let config = SimulationConfig {
        protocol,
        conditions,
        leader_policy: None,
        sampler: SamplerConfig::UniformComplete,
        redundancy: None,
    };
    let seeds = SeedSequence::new(seed);
    // stream: node value draws for churn scenarios
    let mut rng = seeds.rng_for_labeled(0, "values");
    let values = ValueDistribution::Uniform { lo: 0.0, hi: 1.0 }.generate(nodes, &mut rng);
    // The engine's fault injector absorbs the conditions (constant loss plus
    // the one-shot crash burst), so the crash fires inside `run_cycle` at
    // the scheduled cycle — same victims, same RNG order as the historical
    // runner-driven crash.
    let mut sim = GossipSimulation::new(config, &values, seed);
    for _ in 0..cycles {
        sim.run_cycle();
    }
    // The reference value is the average of the *surviving* nodes' inputs.
    let survivors_true_mean = avg::mean(&sim.local_values());
    let estimates = sim.estimates();
    let mean_relative_error = if survivors_true_mean.abs() > 1e-12 {
        estimates
            .iter()
            .map(|e| (e - survivors_true_mean).abs() / survivors_true_mean.abs())
            .sum::<f64>()
            / estimates.len().max(1) as f64
    } else {
        0.0
    };
    Ok(RobustnessResult {
        mean_relative_error,
        final_variance: avg::variance(&estimates),
        surviving_nodes: sim.live_count(),
    })
}

/// Renders a run's per-cycle telemetry as a [`gossip_analysis::Table`] —
/// one row per cycle with the peer-sampling layer the run drew partners
/// from, throughput-relevant counters, the merged estimate statistics and
/// the per-shard load split. `Table::to_csv` / `Table::write_csv` turn it
/// into the artifact the million-node example records
/// (the `sampler` column is what keeps complete-graph and NEWSCAST runs
/// distinguishable in archived CSVs).
pub fn cycle_telemetry_table(
    summaries: &[crate::ShardedCycleSummary],
    sampler: aggregate_core::sampler::SamplerConfig,
) -> gossip_analysis::Table {
    let mut table = gossip_analysis::Table::new(vec![
        "cycle",
        "sampler",
        "live_nodes",
        "exchanges",
        "messages_lost",
        "exchanges_blocked",
        "estimate_mean",
        "estimate_variance",
        "completed_epoch",
        "shard_exchanges",
    ]);
    for summary in summaries {
        table.add_row(vec![
            summary.cycle.to_string(),
            sampler.to_string(),
            summary.live_nodes.to_string(),
            summary.exchanges.to_string(),
            summary.messages_lost.to_string(),
            summary.exchanges_blocked.to_string(),
            format!("{:.9e}", summary.estimate_mean),
            format!("{:.9e}", summary.estimate_variance),
            summary
                .completed_epoch
                .map_or_else(|| "-".to_string(), |e| e.to_string()),
            summary
                .shard_exchanges
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("|"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggregate_core::theory;

    #[test]
    fn cycle_telemetry_table_pins_the_csv_artifact_format() {
        let summary =
            |cycle, completed_epoch, shard_exchanges: Vec<usize>| crate::ShardedCycleSummary {
                cycle,
                live_nodes: 100,
                exchanges: shard_exchanges.iter().sum(),
                messages_lost: 3,
                exchanges_blocked: 1,
                estimate_mean: 499.5,
                estimate_variance: 0.25,
                completed_epoch,
                epoch_estimates: gossip_analysis::OnlineStats::new(),
                epoch_size_estimates: gossip_analysis::OnlineStats::new(),
                shard_exchanges,
            };
        let summaries = [
            summary(0, None, vec![30, 40, 30]),
            summary(1, Some(7), vec![100]),
        ];
        let csv = cycle_telemetry_table(
            &summaries,
            aggregate_core::sampler::SamplerConfig::UniformComplete,
        )
        .to_csv();
        assert_eq!(
            csv,
            "cycle,sampler,live_nodes,exchanges,messages_lost,exchanges_blocked,\
             estimate_mean,estimate_variance,completed_epoch,shard_exchanges\n\
             0,uniform-complete,100,100,3,1,4.995000000e2,2.500000000e-1,-,30|40|30\n\
             1,uniform-complete,100,100,3,1,4.995000000e2,2.500000000e-1,7,100\n"
        );
    }

    #[test]
    fn figure3_point_matches_theory_for_random_selector() {
        let experiment = VarianceExperiment::figure3(
            5_000,
            TopologyKind::Complete,
            SelectorKind::RandomEdge,
            1,
            10,
            42,
        );
        let summary = experiment.run_first_cycle().unwrap();
        assert_eq!(summary.count, 10);
        assert!(
            (summary.mean - theory::rand_rate()).abs() < 0.03,
            "measured {} vs theoretical {}",
            summary.mean,
            theory::rand_rate()
        );
    }

    #[test]
    fn figure3_point_matches_theory_for_sequential_selector_on_regular_graph() {
        let experiment = VarianceExperiment::figure3(
            2_000,
            TopologyKind::RandomRegular { degree: 20 },
            SelectorKind::Sequential,
            1,
            10,
            43,
        );
        let summary = experiment.run_first_cycle().unwrap();
        assert!(
            (summary.mean - theory::seq_rate()).abs() < 0.04,
            "measured {} vs theoretical {}",
            summary.mean,
            theory::seq_rate()
        );
    }

    #[test]
    fn multi_cycle_experiment_reports_one_summary_per_cycle() {
        let experiment = VarianceExperiment::figure3(
            500,
            TopologyKind::Complete,
            SelectorKind::Sequential,
            5,
            4,
            1,
        );
        let summaries = experiment.run().unwrap();
        assert_eq!(summaries.len(), 5);
        for summary in &summaries {
            assert!(summary.mean > 0.1 && summary.mean < 0.6);
        }
    }

    #[test]
    fn invalid_topology_parameters_surface_as_errors() {
        let experiment = VarianceExperiment::figure3(
            10,
            TopologyKind::RandomRegular { degree: 50 },
            SelectorKind::Sequential,
            1,
            1,
            1,
        );
        assert!(experiment.run().is_err());
    }

    #[test]
    fn single_run_reports_exposes_cycle_details() {
        let reports = single_run_reports(
            200,
            TopologyKind::Complete,
            SelectorKind::PerfectMatching,
            3,
            ValueDistribution::Uniform { lo: 0.0, hi: 1.0 },
            7,
        )
        .unwrap();
        assert_eq!(reports.len(), 3);
        assert!(reports[0].contacts.iter().all(|&c| c == 2));
    }

    #[test]
    fn scaled_figure4_scenario_tracks_the_oscillating_size() {
        // 1 000-node version of the Figure 4 scenario, 8 epochs.
        let scenario = SizeEstimationScenario::figure4_scaled(1_000, 240, 4242);
        let points = scenario.run().unwrap();
        assert!(
            points.len() >= 7,
            "expected one point per epoch, got {}",
            points.len()
        );
        // Skip the first epoch (bootstrap); afterwards the estimate tracks the
        // actual size within ~15 % (the paper reports a one-epoch lag, so some
        // systematic offset is expected).
        for point in points.iter().skip(1) {
            let relative_error =
                (point.estimate_mean - point.actual_size as f64).abs() / point.actual_size as f64;
            assert!(
                relative_error < 0.15,
                "epoch {}: estimate {} vs actual {} (error {:.3})",
                point.epoch,
                point.estimate_mean,
                point.actual_size,
                relative_error
            );
            assert!(point.estimate_min <= point.estimate_mean);
            assert!(point.estimate_max >= point.estimate_mean);
            assert!(point.reporting_nodes > 0);
        }
    }

    #[test]
    fn churn_runner_keeps_the_arena_bounded_and_matches_the_scenario() {
        let scenario = SizeEstimationScenario::figure4_scaled(1_000, 240, 4242);
        let report = ChurnRunner::new(scenario).run().unwrap();
        assert_eq!(report.cycles, 240);
        // Sustained churn must not leak slots: the arena stays within the
        // oscillation peak plus one cycle's worth of simultaneous churn.
        let bound = scenario.churn.max_size + 2 * scenario.churn.fluctuation_per_cycle;
        assert!(
            report.peak_slot_capacity <= bound,
            "peak slot capacity {} exceeds bound {bound}",
            report.peak_slot_capacity
        );
        assert!(report.peak_live_nodes <= bound);
        assert!(report.peak_live_nodes <= report.peak_slot_capacity);
        // 240 cycles of ±10 % oscillation plus 1-node fluctuation churn
        // roughly 100 nodes each way; the exact split follows the schedule.
        assert!(report.total_joins >= 240);
        assert!(report.total_departures >= 240);
        assert!(report.elapsed_seconds > 0.0);
        assert!(report.cycles_per_second > 0.0);
        assert!(report.mean_tracking_error().unwrap() < 0.15);
        // The scenario wrapper reproduces the exact same points (same seed).
        assert_eq!(report.points, scenario.run().unwrap());
    }

    #[test]
    fn zero_cycle_scenarios_are_rejected_with_a_typed_error() {
        let mut scenario = SizeEstimationScenario::figure4_scaled(500, 0, 1);
        assert_eq!(
            ChurnRunner::new(scenario).run().err(),
            Some(crate::SimError::Config(crate::SimConfigError::ZeroCycles))
        );
        scenario.total_cycles = 30;
        assert!(ChurnRunner::new(scenario).run().is_ok());
    }

    #[test]
    fn robustness_run_without_failures_is_accurate() {
        let result = robustness_run(500, 20, NetworkConditions::reliable(), 77).unwrap();
        assert_eq!(result.surviving_nodes, 500);
        assert!(result.mean_relative_error < 0.01);
        assert!(result.final_variance < 1e-4);
    }

    #[test]
    fn robustness_run_with_crash_keeps_reasonable_accuracy() {
        let result = robustness_run(500, 20, NetworkConditions::with_crash(0.3, 5), 78).unwrap();
        assert_eq!(result.surviving_nodes, 350);
        // A 30 % crash at cycle 5 perturbs the average of the survivors, but
        // the error stays bounded (values are uniform in [0,1], so the
        // relative error against a mean of ≈0.5 stays modest).
        assert!(
            result.mean_relative_error < 0.2,
            "error {} too large",
            result.mean_relative_error
        );
    }
}
