//! Overlay-dependence experiments: the paper's robustness claim, measured.
//!
//! Section 5 of the paper argues that the convergence rates derived for
//! uniform peer sampling survive on realistic overlays: a NEWSCAST-maintained
//! partial view of `c ≥ 20` descriptors yields practically the same
//! per-cycle variance-reduction factor as sampling from the complete graph.
//! This module packages that experiment at both levels of the stack:
//!
//! * `OverlayExperiment` drives a *node-level* engine
//!   ([`crate::GossipSimulation`] or [`crate::ShardedSimulation`], which
//!   realise the `GETPAIR_SEQ` schedule) through any
//!   [`SamplerConfig`] — uniform-complete, static overlay families, or the
//!   live NEWSCAST sampler — and measures the per-cycle reduction factor to
//!   compare against `1/(2√e) ≈ 0.3033`;
//! * [`newscast_snapshot_factor`] measures the *vector-level* `AVG`
//!   algorithm with `GETPAIR_RAND` over a frozen NEWSCAST view topology, the
//!   quantity to compare against the uniform-random rate `1/e ≈ 0.3679`;
//! * [`overlay_sweep`] runs the whole sweep (overlay families × NEWSCAST
//!   cache sizes) and renders a [`Table`] whose CSV form is the artifact the
//!   `overlay_sweep` example and `EXPERIMENTS.md` record.

use crate::{
    SeedSequence, ShardedConfig, ShardedSimulation, SimError, SimulationConfig, ValueDistribution,
};
use aggregate_core::avg;
use aggregate_core::sampler::SamplerConfig;
use aggregate_core::selectors::RandomEdgeSelector;
use aggregate_core::{theory, ProtocolConfig};
use gossip_analysis::Table;
use overlay_topology::TopologyKind;
use peer_sampling::NewscastNetwork;

/// A node-level convergence measurement under a configurable peer-sampling
/// layer: `nodes` nodes holding uniform `[0, 1)` values run `cycles` cycles
/// of the full protocol, and the per-cycle variance-reduction factors are
/// averaged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OverlayExperiment {
    /// Network size.
    pub(crate) nodes: usize,
    /// Cycles to run (the epoch is sized to outlast them, so no restart
    /// perturbs the variance trajectory).
    pub(crate) cycles: usize,
    /// The peer-sampling layer under test.
    pub(crate) sampler: SamplerConfig,
    /// Shard count; `0` selects the single-threaded reference engine. The
    /// sharded engine makes the 10⁵–10⁶-node points practical.
    pub(crate) shards: usize,
    /// Master seed.
    pub(crate) seed: u64,
}

/// The measured outcome of one overlay experiment: one sampler at one
/// network size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlayMeasurement {
    /// The sampler under test.
    pub sampler: SamplerConfig,
    /// Network size.
    pub(crate) nodes: usize,
    /// Number of per-cycle factors that entered the mean (cycles whose
    /// predecessor variance was above numerical noise).
    pub(crate) cycles_measured: usize,
    /// Mean per-cycle variance-reduction factor `σ²ᵢ / σ²ᵢ₋₁`.
    pub mean_factor: f64,
    /// Estimate variance after the final cycle.
    pub(crate) final_variance: f64,
}

impl OverlayMeasurement {
    /// Ratio of the measured factor to the `GETPAIR_SEQ` theoretical rate
    /// `1/(2√e)` — the engines realise the SEQ schedule, so 1.0 means "the
    /// overlay costs nothing against uniform sampling".
    pub(crate) fn ratio_to_seq_rate(&self) -> f64 {
        self.mean_factor / theory::seq_rate()
    }
}

impl OverlayExperiment {
    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors (invalid overlay parameters, bad
    /// shard counts, …).
    pub(crate) fn run(&self) -> Result<OverlayMeasurement, SimError> {
        let protocol = ProtocolConfig::builder()
            .cycles_per_epoch(u32::try_from(self.cycles + 1).unwrap_or(u32::MAX))
            .build()?;
        let config = SimulationConfig {
            sampler: self.sampler,
            ..SimulationConfig::averaging(protocol)
        };
        let seeds = SeedSequence::new(self.seed);
        // stream: node value draws for overlay experiments
        let mut value_rng = seeds.rng_for_labeled(0, "overlay-values");
        let values =
            ValueDistribution::Uniform { lo: 0.0, hi: 1.0 }.generate(self.nodes, &mut value_rng);
        let initial_variance = avg::variance(&values);

        let variances: Vec<f64> = if self.shards == 0 {
            let mut sim = crate::GossipSimulation::try_new(config, &values, self.seed)?;
            sim.run(self.cycles)
                .iter()
                .map(|s| s.estimate_variance)
                .collect()
        } else {
            let sharded = ShardedConfig {
                base: config,
                shards: self.shards,
                workers: None,
            };
            let mut sim = ShardedSimulation::new(sharded, &values, self.seed)?;
            sim.run(self.cycles)
                .iter()
                .map(|s| s.estimate_variance)
                .collect()
        };

        let mut factors = Vec::with_capacity(variances.len());
        let mut previous = initial_variance;
        for &variance in &variances {
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
        Ok(OverlayMeasurement {
            sampler: self.sampler,
            nodes: self.nodes,
            cycles_measured: factors.len(),
            mean_factor,
            final_variance: variances.last().copied().unwrap_or(initial_variance),
        })
    }
}

/// First-cycle variance-reduction factor of the vector-level `AVG` algorithm
/// with `GETPAIR_RAND` over a *frozen snapshot* of a NEWSCAST overlay:
/// bootstrap a [`NewscastNetwork`] of `nodes` nodes with view size
/// `cache_size`, run `warmup_cycles` membership cycles, export the view
/// topology and measure `runs` independent first cycles.
///
/// This is the measurement to set against the uniform-random rate
/// `1/e ≈ 0.3679` (the paper's claim: within a few percent for `c ≥ 20`).
///
/// # Errors
///
/// Propagates protocol errors from the `AVG` driver.
pub fn newscast_snapshot_factor(
    nodes: usize,
    cache_size: usize,
    warmup_cycles: usize,
    runs: usize,
    seed: u64,
) -> Result<gossip_analysis::Summary, SimError> {
    let seeds = SeedSequence::new(seed);
    let mut factors = Vec::with_capacity(runs);
    for run in 0..runs {
        // stream: NEWSCAST view warm-up exchanges before measurement
        let mut membership_rng = seeds.rng_for_labeled(run as u64, "newscast-warmup");
        let mut network = NewscastNetwork::bootstrap_ring(nodes, cache_size);
        for _ in 0..warmup_cycles {
            network.run_cycle(&mut membership_rng);
        }
        let topology = network.view_topology();
        // stream: protocol execution — peer picks and exchange draws
        let mut rng = seeds.rng_for_labeled(run as u64, "protocol");
        let mut values = ValueDistribution::Uniform { lo: 0.0, hi: 1.0 }.generate(nodes, &mut rng);
        let mut selector = RandomEdgeSelector::new();
        let reports = avg::run_avg(&mut values, &topology, &mut selector, &mut rng, 1)
            .map_err(SimError::Protocol)?;
        if let Some(factor) = reports[0].reduction_factor() {
            factors.push(factor);
        }
    }
    Ok(gossip_analysis::Summary::from_slice(&factors))
}

/// The overlay families the sweep probes alongside uniform sampling, chosen
/// to match the paper's Figure 3(b) selection (random, small-world,
/// scale-free) at view-size-20 density.
pub(crate) fn sweep_samplers(cache_sizes: &[usize]) -> Vec<SamplerConfig> {
    let mut samplers = vec![
        SamplerConfig::UniformComplete,
        SamplerConfig::StaticOverlay {
            topology: TopologyKind::RandomRegular { degree: 20 },
        },
        SamplerConfig::StaticOverlay {
            topology: TopologyKind::SmallWorld {
                degree: 20,
                beta: 0.2,
            },
        },
        SamplerConfig::StaticOverlay {
            topology: TopologyKind::ScaleFree { attachment: 10 },
        },
    ];
    samplers.extend(
        cache_sizes
            .iter()
            .map(|&cache_size| SamplerConfig::Newscast { cache_size }),
    );
    samplers
}

/// Runs the full overlay sweep — every sampler family at
/// `nodes`/`cycles` — and renders the results as a [`Table`] (one row per
/// sampler, with the measured factor and its ratio to the SEQ rate).
///
/// # Errors
///
/// Propagates the first failing experiment.
pub fn overlay_sweep(
    nodes: usize,
    cycles: usize,
    cache_sizes: &[usize],
    shards: usize,
    seed: u64,
) -> Result<(Vec<OverlayMeasurement>, Table), SimError> {
    let mut measurements = Vec::new();
    for sampler in sweep_samplers(cache_sizes) {
        let experiment = OverlayExperiment {
            nodes,
            cycles,
            sampler,
            shards,
            seed,
        };
        measurements.push(experiment.run()?);
    }
    let table = overlay_sweep_table(&measurements);
    Ok((measurements, table))
}

/// Renders overlay measurements as the sweep's report table. The `sampler`
/// column carries [`SamplerConfig::paper_name`] and the `detail` column the
/// parameterised form, so CSV artifacts distinguish complete-graph from
/// NEWSCAST runs at a glance.
pub(crate) fn overlay_sweep_table(measurements: &[OverlayMeasurement]) -> Table {
    let mut table = Table::new(vec![
        "sampler",
        "detail",
        "nodes",
        "cycles_measured",
        "measured_factor",
        "seq_theory",
        "ratio_to_theory",
    ]);
    for m in measurements {
        table.add_row(vec![
            m.sampler.paper_name().to_string(),
            m.sampler.to_string(),
            m.nodes.to_string(),
            m.cycles_measured.to_string(),
            format!("{:.4}", m.mean_factor),
            format!("{:.4}", theory::seq_rate()),
            format!("{:.3}", m.ratio_to_seq_rate()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    impl OverlayExperiment {
        /// The standard sweep point: `nodes` nodes, 20 cycles, reference engine.
        fn new(nodes: usize, sampler: SamplerConfig, seed: u64) -> Self {
            OverlayExperiment {
                nodes,
                cycles: 20,
                sampler,
                shards: 0,
                seed,
            }
        }
    }

    #[test]
    fn uniform_experiment_measures_the_seq_rate() {
        let m = OverlayExperiment::new(2_000, SamplerConfig::UniformComplete, 11)
            .run()
            .unwrap();
        assert!(
            (m.mean_factor - theory::seq_rate()).abs() < 0.05,
            "measured {} vs theory {}",
            m.mean_factor,
            theory::seq_rate()
        );
        assert!(m.cycles_measured >= 10);
        assert!(m.final_variance < 1e-4);
        assert!((m.ratio_to_seq_rate() - 1.0).abs() < 0.2);
    }

    #[test]
    fn newscast_experiment_stays_close_to_uniform() {
        // The tentpole claim at test scale: a live NEWSCAST view of c = 20
        // costs almost nothing against uniform sampling.
        let uniform = OverlayExperiment::new(2_000, SamplerConfig::UniformComplete, 11)
            .run()
            .unwrap();
        let newscast = OverlayExperiment::new(2_000, SamplerConfig::newscast(), 11)
            .run()
            .unwrap();
        let ratio = newscast.mean_factor / uniform.mean_factor;
        assert!(
            (ratio - 1.0).abs() < 0.1,
            "newscast factor {} vs uniform {} (ratio {ratio})",
            newscast.mean_factor,
            uniform.mean_factor
        );
    }

    #[test]
    fn static_overlay_experiment_converges_on_regular_graphs() {
        let m = OverlayExperiment::new(
            1_000,
            SamplerConfig::StaticOverlay {
                topology: TopologyKind::RandomRegular { degree: 20 },
            },
            7,
        )
        .run()
        .unwrap();
        assert!(
            (m.mean_factor - theory::seq_rate()).abs() < 0.06,
            "measured {}",
            m.mean_factor
        );
    }

    #[test]
    fn shard_count_does_not_change_the_newscast_measurement() {
        // 1-shard and 4-shard sharded runs realise the same schedule and the
        // same NEWSCAST pick sequence (directory positions are shard-count
        // invariant); only the telemetry merge order may differ.
        let one = OverlayExperiment {
            shards: 1,
            ..OverlayExperiment::new(1_000, SamplerConfig::newscast(), 3)
        }
        .run()
        .unwrap();
        let four = OverlayExperiment {
            shards: 4,
            ..OverlayExperiment::new(1_000, SamplerConfig::newscast(), 3)
        }
        .run()
        .unwrap();
        assert!(
            (one.mean_factor - four.mean_factor).abs() < 1e-9,
            "1-shard {} vs 4-shard {}",
            one.mean_factor,
            four.mean_factor
        );
    }

    #[test]
    fn newscast_snapshot_matches_the_random_rate_for_large_caches() {
        let summary = newscast_snapshot_factor(2_000, 20, 20, 5, 42).unwrap();
        assert_eq!(summary.count, 5);
        assert!(
            (summary.mean - theory::rand_rate()).abs() < 0.04,
            "measured {} vs 1/e {}",
            summary.mean,
            theory::rand_rate()
        );
    }

    #[test]
    fn sweep_produces_one_labelled_row_per_sampler() {
        let (measurements, table) = overlay_sweep(400, 10, &[4, 20], 0, 5).unwrap();
        assert_eq!(measurements.len(), 6);
        let csv = table.to_csv();
        assert!(csv.starts_with("sampler,detail,nodes,cycles_measured"));
        assert!(csv.contains("uniform-complete"));
        assert!(csv.contains("newscast(c=4)"));
        assert!(csv.contains("newscast(c=20)"));
        assert!(csv.contains("static[20-regular random]"));
    }
}
