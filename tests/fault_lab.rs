//! Integration tests for the fault-injection lab: partitions interacting
//! with the epoch machinery, crash bursts against size estimation, and the
//! fault lab riding along with churn — all through the public facade, on
//! the real engines.

use epidemic_aggregation::core::config::LateJoinPolicy;
use epidemic_aggregation::prelude::*;
use epidemic_aggregation::sim as gossip_sim;

fn averaging_config(cycles_per_epoch: u32) -> SimulationConfig {
    SimulationConfig::averaging(
        ProtocolConfig::builder()
            .cycles_per_epoch(cycles_per_epoch)
            .build()
            .unwrap(),
    )
}

/// The partition × epoch-restart interaction (Section 4's epoch broadcast
/// meeting a healed network): while a partition is active, each side keeps
/// restarting epochs on its own and converges to its *side's* average, so
/// whole-network epoch reports stay spread out. Once the partition heals,
/// the next epoch restart re-seeds every estimate from the local values and
/// the epidemic exchange re-merges the sides: the first epoch that runs
/// entirely on the healed network reports the merged-membership average at
/// every node — including nodes that joined *during* the partition, which
/// the epoch broadcast releases into the first post-join epoch.
#[test]
fn healed_partition_rejoins_the_epoch_broadcast_and_merged_average() {
    // 8-cycle epochs; partition active over cycles 4..20, spanning the
    // epoch restarts at cycles 8 and 16 — both fire *while split*.
    let values: Vec<f64> = (0..200).map(|i| i as f64).collect();
    let plan = FaultPlan::with_partition(4, 20, 0.5);
    let mut sim = GossipSimulation::with_faults(averaging_config(8), &values, 97, plan).unwrap();

    // Run up to the partition and through the first split epoch restart.
    let split_epoch: Vec<gossip_sim::CycleSummary> = sim.run(16);
    let mid_split = split_epoch.last().unwrap();
    assert_eq!(mid_split.completed_epoch, Some(1));
    assert!(
        mid_split.exchanges_blocked > 0,
        "the partition must actually block cross-side exchanges"
    );
    // Epoch 1 ran entirely under the partition: its converged estimates are
    // the two *side* averages, so the spread across nodes stays macroscopic
    // (fault-free epochs converge every node to the same value within
    // ~1e-3 here).
    let epoch1 = &mid_split.epoch_estimates;
    let spread = epoch1.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
        - epoch1.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    assert!(
        spread > 10.0,
        "two isolated sides must disagree about the average (spread {spread})"
    );

    // Two nodes join mid-partition, one with a very distinctive value. They
    // wait passively for the next epoch start, which the epoch broadcast
    // announces to them, and participate from then on.
    let newcomer = sim.add_node(1_000.0);
    sim.add_node(1_000.0);
    let merged_mean = (values.iter().sum::<f64>() + 2_000.0) / 202.0;

    // Heal (cycle 20) and let epoch 3 (cycles 24..32) run entirely on the
    // healed, merged membership.
    let healed: Vec<gossip_sim::CycleSummary> = sim.run(16);
    let last_epoch = healed
        .iter()
        .rfind(|s| s.completed_epoch.is_some())
        .unwrap();
    assert_eq!(last_epoch.completed_epoch, Some(3));
    assert_eq!(last_epoch.exchanges_blocked, 0, "healed: nothing blocked");
    assert_eq!(
        last_epoch.epoch_estimates.len(),
        202,
        "every node — including the mid-partition joiners — participates in \
         the first fully-healed epoch"
    );
    // Eight cycles of convergence per epoch leave a residual spread of a
    // few σ ≈ 0.5 around the target; every node must sit in that
    // neighbourhood and their pooled mean must hit the merged average.
    let pooled =
        last_epoch.epoch_estimates.iter().sum::<f64>() / last_epoch.epoch_estimates.len() as f64;
    assert!(
        (pooled - merged_mean).abs() < 0.1,
        "pooled epoch mean {pooled} must equal the merged-membership average {merged_mean}"
    );
    for estimate in &last_epoch.epoch_estimates {
        assert!(
            (estimate - merged_mean).abs() < 5.0,
            "epoch estimate {estimate} must converge to the merged-membership \
             average {merged_mean}"
        );
    }
    assert!(sim.node(newcomer).is_some());
}

/// The same heal-and-remerge behaviour holds on the sharded engine, and the
/// whole faulted trajectory is bit-reproducible for a fixed seed.
#[test]
fn sharded_partition_runs_heal_and_reproduce_bitwise() {
    let values: Vec<f64> = (0..200).map(|i| i as f64).collect();
    let true_mean = values.iter().sum::<f64>() / values.len() as f64;
    let plan = FaultPlan::with_partition(2, 12, 0.4);
    let run = |seed: u64| {
        let config = ShardedConfig {
            base: averaging_config(10),
            shards: 4,
            workers: None,
        };
        let mut sim = ShardedSimulation::with_faults(config, &values, seed, plan.clone()).unwrap();
        let summaries = sim.run(30);
        let bits: Vec<u64> = sim.estimates().iter().map(|v| v.to_bits()).collect();
        (summaries, bits)
    };
    let (summaries, bits) = run(11);
    assert!(summaries[..12].iter().any(|s| s.exchanges_blocked > 0));
    assert!(summaries[12..].iter().all(|s| s.exchanges_blocked == 0));
    // Epoch restarts re-seed estimates from the local values at every epoch
    // boundary, so end-of-run variance is the post-restart one; the healed
    // network's convergence shows in the *epoch reports*: the last epoch
    // that ran entirely healed (cycles 20..30) reports the true average at
    // every node.
    let last_epoch = summaries
        .iter()
        .rfind(|s| s.completed_epoch.is_some())
        .unwrap();
    assert_eq!(last_epoch.completed_epoch, Some(2));
    assert_eq!(last_epoch.epoch_estimates.count(), 200);
    assert!(
        (last_epoch.epoch_estimates.mean() - true_mean).abs() < 0.1,
        "healed epoch mean {} must equal the true average {true_mean}",
        last_epoch.epoch_estimates.mean()
    );
    assert!(
        last_epoch.epoch_estimates.sample_variance() < 1.0,
        "healed epoch must converge (variance {})",
        last_epoch.epoch_estimates.sample_variance()
    );

    let (summaries2, bits2) = run(11);
    assert_eq!(summaries, summaries2, "same seed, same faulted trajectory");
    assert_eq!(bits, bits2);
    // (The *final* estimates are seed-independent here — the run ends on an
    // epoch boundary, whose restart re-seeds every estimate from the local
    // values — so seed sensitivity shows in the trajectories instead.)
    assert_ne!(
        run(12).0,
        summaries,
        "different seeds explore different faulted trajectories"
    );
}

/// Crash bursts ride along with churn: the Figure 4 oscillation keeps
/// running while the fault lab repeatedly removes 10 % of the network, and
/// the size estimator keeps tracking the (shrunken) population instead of
/// wedging.
#[test]
fn crash_bursts_compose_with_churn_and_size_estimation() {
    use epidemic_aggregation::faults::CrashBurst;

    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(20)
        .late_join(LateJoinPolicy::FixedState(0.0))
        .build()
        .unwrap();
    let config = SimulationConfig {
        protocol,
        leader_policy: Some(LeaderPolicy::Fixed { probability: 0.02 }),
        ..SimulationConfig::averaging(protocol)
    };
    let plan = FaultPlan {
        crashes: vec![
            CrashBurst {
                cycle: 25,
                fraction: 0.1,
            },
            CrashBurst {
                cycle: 45,
                fraction: 0.1,
            },
        ],
        ..FaultPlan::default()
    };
    let mut sim = GossipSimulation::with_faults(config, &vec![0.0; 600], 4242, plan).unwrap();
    let mut estimates = Vec::new();
    for _ in 0..80 {
        // Symmetric churn underneath the bursts: 3 joins, 3 departures.
        for _ in 0..3 {
            sim.add_node(0.0);
        }
        sim.remove_random_nodes(3);
        let summary = sim.run_cycle();
        if summary.completed_epoch.is_some() && !summary.epoch_size_estimates.is_empty() {
            let mean = summary.epoch_size_estimates.iter().sum::<f64>()
                / summary.epoch_size_estimates.len() as f64;
            estimates.push((summary.live_nodes, mean));
        }
    }
    assert!(estimates.len() >= 3, "epochs must keep completing");
    // The population shrank by ~10% twice; the last epoch's estimate must
    // track the surviving population, not the starting 600.
    let (live, estimate) = *estimates.last().unwrap();
    assert!(live < 520, "two 10% bursts must shrink the population");
    assert!(
        (estimate - live as f64).abs() < live as f64 * 0.2,
        "size estimate {estimate} must track the surviving {live} nodes"
    );
}

/// The loss ramp holds its end value: convergence visibly slows as the ramp
/// climbs, and the messages-lost telemetry follows the schedule.
#[test]
fn loss_ramps_progressively_degrade_the_measured_loss_rate() {
    use epidemic_aggregation::faults::LossRamp;

    let values: Vec<f64> = (0..400).map(|i| i as f64).collect();
    let plan = FaultPlan {
        loss_ramps: vec![LossRamp {
            start_cycle: 5,
            end_cycle: 15,
            start_loss: 0.0,
            end_loss: 0.4,
        }],
        ..FaultPlan::default()
    };
    let mut sim = GossipSimulation::with_faults(averaging_config(100), &values, 31, plan).unwrap();
    let summaries = sim.run(20);
    let early: usize = summaries[..5].iter().map(|s| s.messages_lost).sum();
    let late: usize = summaries[15..].iter().map(|s| s.messages_lost).sum();
    assert_eq!(early, 0, "before the ramp nothing is lost");
    // From cycle 15 on the rate holds at 0.4: ~0.4 · 2 messages · 400
    // exchanges · 5 cycles ≈ 1600 expected losses.
    assert!(
        late > 1_000,
        "after the ramp the loss rate must hold at 40% (lost {late})"
    );
    assert!(
        summaries.last().unwrap().estimate_variance < summaries.first().unwrap().estimate_variance,
        "even at 40% loss the variance keeps contracting"
    );
}

/// The value-injection adversary on the asynchronous node that ships (the
/// in-memory cluster, stepped in virtual time): the corrupted estimates are
/// diluted back into consensus, not amplified. The run's one epoch is ten
/// times its length, so no restart happens and the injected mass stays in.
#[test]
fn async_engine_dilutes_injected_values() {
    use epidemic_aggregation::faults::ValueInjection;

    let values = vec![1.0; 200];
    let config = ClusterConfig {
        cycle_length_ms: 40,
        cycles: 30,
    };
    let plan = FaultPlan {
        injections: vec![ValueInjection {
            cycle: 2,
            fraction: 0.1,
            value: 501.0,
        }],
        ..FaultPlan::default()
    };
    let report =
        GossipCluster::run_in_memory(&values, config, SamplerConfig::UniformComplete, plan)
            .unwrap();
    let (variance, mean) = (variance(&report.estimates), mean(&report.estimates));
    assert!(
        variance < 1e-2,
        "the network must re-reach consensus (variance {variance})"
    );
    // 10% of nodes overwritten with 501 against a background of 1: the
    // consensus lands near 1 + 0.1·500 = 51 — diluted, not amplified.
    assert!(
        (mean - 51.0).abs() < 15.0,
        "consensus must absorb the injected mass (mean {mean})"
    );
}
