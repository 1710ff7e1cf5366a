//! Regression tests for seeded reproducibility: identical seeds must give
//! bit-identical runs at both levels of the stack — the vector-level `run_avg`
//! and the node-level `GossipSimulation` — which is what lets
//! `simulator_and_vector_algorithm_agree` and every benchmark pin exact
//! tolerances to fixed seeds.

use epidemic_aggregation::prelude::*;
use rand::SeedableRng;

fn vector_run(seed: u64) -> (Vec<u64>, Vec<(u64, u64)>) {
    let n = 500;
    let mut values: Vec<f64> = (0..n).map(|i| (i % 91) as f64).collect();
    let topology = CompleteTopology::new(n);
    let mut selector = SequentialSelector::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let reports = run_avg(&mut values, &topology, &mut selector, &mut rng, 8).unwrap();
    (
        values.iter().map(|v| v.to_bits()).collect(),
        reports
            .iter()
            .map(|r| (r.variance_before.to_bits(), r.variance_after.to_bits()))
            .collect(),
    )
}

#[test]
fn vector_level_runs_are_bit_identical_for_identical_seeds() {
    assert_eq!(vector_run(2024), vector_run(2024));
    assert_ne!(
        vector_run(2024).0,
        vector_run(2025).0,
        "different seeds must explore different exchange schedules"
    );
}

fn simulation_summaries(seed: u64) -> Vec<gossip_sim::CycleSummary> {
    let values: Vec<f64> = (0..400).map(|i| (i % 53) as f64).collect();
    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(10)
        .build()
        .unwrap();
    let mut sim = GossipSimulation::new(SimulationConfig::averaging(protocol), &values, seed);
    sim.run(25)
}

#[test]
fn node_level_simulations_are_bit_identical_for_identical_seeds() {
    let a = simulation_summaries(77);
    let b = simulation_summaries(77);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cycle, y.cycle);
        assert_eq!(x.exchanges, y.exchanges);
        assert_eq!(x.messages_lost, y.messages_lost);
        assert_eq!(
            x.estimate_mean.to_bits(),
            y.estimate_mean.to_bits(),
            "cycle {}: means differ at the bit level",
            x.cycle
        );
        assert_eq!(
            x.estimate_variance.to_bits(),
            y.estimate_variance.to_bits(),
            "cycle {}: variances differ at the bit level",
            x.cycle
        );
        assert_eq!(x.epoch_estimates, y.epoch_estimates);
    }
    assert_ne!(
        simulation_summaries(77)
            .last()
            .unwrap()
            .estimate_variance
            .to_bits(),
        simulation_summaries(78)
            .last()
            .unwrap()
            .estimate_variance
            .to_bits(),
        "different master seeds must give different trajectories"
    );
}

/// Churn runs exercise the arena free list (departures freeing slots, joins
/// reclaiming them, generation bumps on reuse); slot recycling must not
/// perturb determinism — same seed, bit-identical trajectory.
fn churn_summaries(seed: u64) -> (Vec<gossip_sim::CycleSummary>, usize) {
    let values: Vec<f64> = (0..300).map(|i| (i % 37) as f64).collect();
    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(8)
        .build()
        .unwrap();
    let mut sim = GossipSimulation::new(SimulationConfig::averaging(protocol), &values, seed);
    let mut summaries = Vec::new();
    for cycle in 0..30 {
        // 5 joins then 5 departures per cycle: every join after the first
        // cycle lands in a recycled slot with a bumped generation.
        for i in 0..5 {
            sim.add_node((cycle * 5 + i) as f64);
        }
        sim.remove_random_nodes(5);
        summaries.push(sim.run_cycle());
    }
    (summaries, sim.slot_capacity())
}

#[test]
fn churn_runs_with_slot_reuse_are_bit_identical_for_identical_seeds() {
    let (a, capacity_a) = churn_summaries(99);
    let (b, capacity_b) = churn_summaries(99);
    assert_eq!(capacity_a, capacity_b);
    assert!(
        capacity_a <= 305,
        "free-list reuse must keep the arena at peak live + per-cycle joins, got {capacity_a}"
    );
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.live_nodes, y.live_nodes);
        assert_eq!(x.exchanges, y.exchanges);
        assert_eq!(
            x.estimate_mean.to_bits(),
            y.estimate_mean.to_bits(),
            "cycle {}: means differ at the bit level under churn",
            x.cycle
        );
        assert_eq!(
            x.estimate_variance.to_bits(),
            y.estimate_variance.to_bits(),
            "cycle {}: variances differ at the bit level under churn",
            x.cycle
        );
        assert_eq!(x.epoch_estimates, y.epoch_estimates);
    }
    assert_ne!(
        churn_summaries(99)
            .0
            .last()
            .unwrap()
            .estimate_variance
            .to_bits(),
        churn_summaries(100)
            .0
            .last()
            .unwrap()
            .estimate_variance
            .to_bits(),
        "different seeds must churn differently"
    );
}

/// Drives a sharded run with churn and message loss: joins and departures
/// exercise the global directory's swap-remove bookkeeping and the per-shard
/// free lists; the loss model exercises the per-exchange seeded draws.
fn sharded_summaries(
    seed: u64,
    shards: usize,
    message_loss: f64,
) -> (Vec<gossip_sim::ShardedCycleSummary>, Vec<u64>) {
    sharded_summaries_with(seed, shards, message_loss, SamplerConfig::UniformComplete)
}

fn sharded_summaries_with(
    seed: u64,
    shards: usize,
    message_loss: f64,
    sampler: SamplerConfig,
) -> (Vec<gossip_sim::ShardedCycleSummary>, Vec<u64>) {
    let values: Vec<f64> = (0..300).map(|i| (i % 37) as f64).collect();
    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(8)
        .build()
        .unwrap();
    let config = ShardedConfig {
        base: SimulationConfig {
            protocol,
            conditions: NetworkConditions::with_message_loss(message_loss),
            leader_policy: None,
            sampler,
            redundancy: None,
        },
        shards,
        workers: None,
    };
    let mut sim = ShardedSimulation::new(config, &values, seed).unwrap();
    let mut summaries = Vec::new();
    for cycle in 0..30 {
        for i in 0..5 {
            sim.add_node((cycle * 5 + i) as f64);
        }
        sim.remove_random_nodes(5);
        summaries.push(sim.run_cycle());
    }
    let bits = sim.estimates().iter().map(|v| v.to_bits()).collect();
    (summaries, bits)
}

/// Tentpole pin: the sharded engine is bit-deterministic — same seed, same
/// shard count, bit-identical cycle summaries (including the merged
/// floating-point telemetry).
#[test]
fn sharded_runs_are_bit_identical_for_identical_seeds() {
    for shards in [1, 3, 8] {
        let (a, bits_a) = sharded_summaries(2024, shards, 0.1);
        let (b, bits_b) = sharded_summaries(2024, shards, 0.1);
        assert_eq!(a, b, "{shards}-shard runs must be bit-identical");
        assert_eq!(bits_a, bits_b);
    }
    assert_ne!(
        sharded_summaries(2024, 2, 0.1).1,
        sharded_summaries(2025, 2, 0.1).1,
        "different seeds must explore different schedules"
    );
}

/// Tentpole pin: changing the shard count changes *only* the floating-point
/// summation order of cross-shard telemetry reductions — never the node
/// values. The exchange schedule, loss draws and churn victims are drawn
/// from shard-count-agnostic streams over the global directory, and the
/// schedule is applied in sequence order. (Holds for single-instance
/// configurations as pinned here; under multi-instance epochs with message
/// loss the draws are consumed in instance order and led-instance tags
/// differ across shard counts.)
#[test]
fn shard_count_changes_only_telemetry_summation_order() {
    let (reference, reference_bits) = sharded_summaries(77, 1, 0.1);
    for shards in [2, 4, 8] {
        let (summaries, bits) = sharded_summaries(77, shards, 0.1);
        assert_eq!(
            bits, reference_bits,
            "{shards}-shard node estimates must be bit-identical to 1 shard"
        );
        for (x, y) in summaries.iter().zip(&reference) {
            assert_eq!(x.cycle, y.cycle);
            assert_eq!(x.live_nodes, y.live_nodes);
            assert_eq!(x.exchanges, y.exchanges, "cycle {}", x.cycle);
            assert_eq!(x.messages_lost, y.messages_lost, "cycle {}", x.cycle);
            assert_eq!(x.completed_epoch, y.completed_epoch);
            assert_eq!(x.epoch_estimates.count(), y.epoch_estimates.count());
            // Telemetry reductions agree up to fp summation order.
            assert!(
                (x.estimate_mean - y.estimate_mean).abs() <= 1e-9 * (1.0 + y.estimate_mean.abs()),
                "cycle {}: mean {} vs {}",
                x.cycle,
                x.estimate_mean,
                y.estimate_mean
            );
            assert!(
                (x.estimate_variance - y.estimate_variance).abs()
                    <= 1e-9 * (1.0 + y.estimate_variance.abs()),
                "cycle {}: variance {} vs {}",
                x.cycle,
                x.estimate_variance,
                y.estimate_variance
            );
        }
    }
}

/// Tentpole pin for the struct-of-arrays hot path: under uniform sampling
/// the batched SoA executor's results must be bit-identical at 1/2/4/8
/// shards — all reproducing the *pre-SoA* golden trajectory (the same FNV
/// fingerprint pinned by
/// [`uniform_sampler_is_bit_identical_to_the_pre_sampler_engines`] for this
/// harness). Batched shuffles, pre-drawn peer picks and per-seq loss seeds
/// must replay the exact draw sequence that trajectory was captured with.
#[test]
fn soa_fused_executor_reproduces_the_golden_across_shard_counts() {
    for shards in [1usize, 2, 4, 8] {
        let (_, bits) = sharded_summaries(2024, shards, 0.1);
        let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
        for b in &bits {
            fnv ^= b;
            fnv = fnv.wrapping_mul(0x1000_0000_01b3);
        }
        assert_eq!(
            fnv, 0x64bd_b10a_57df_4315,
            "SoA executor at {shards} shard(s) drifted from the golden trajectory"
        );
    }
}

/// FNV-1a over 64-bit words, the fingerprint the absolute goldens pin.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        fnv ^= word;
        fnv = fnv.wrapping_mul(0x1000_0000_01b3);
    }
    fnv
}

/// The integer counters of one sharded cycle summary, as fingerprint words.
fn summary_counters(s: &gossip_sim::ShardedCycleSummary) -> [u64; 5] {
    [
        s.live_nodes as u64,
        s.exchanges as u64,
        s.exchanges_blocked as u64,
        s.messages_lost as u64,
        s.completed_epoch.unwrap_or(u64::MAX),
    ]
}

/// Absolute golden for the *hard* configuration: leader-led size
/// estimation (multi-instance epochs, cold-path led instances), 5 % message
/// loss and churn all at once. Covers every cycle's counters, the final node
/// estimates and the last pooled size estimate. Captured while a threaded
/// round/mailbox executor still existed, with every worker count reaching
/// the same constant.
#[test]
fn sharded_run_with_leaders_loss_and_churn_reproduces_its_golden_fingerprint() {
    let config = ShardedConfig {
        base: SimulationConfig {
            protocol: ProtocolConfig::builder()
                .cycles_per_epoch(8)
                .late_join(aggregate_core::config::LateJoinPolicy::FixedState(0.0))
                .build()
                .unwrap(),
            conditions: NetworkConditions::with_message_loss(0.05),
            leader_policy: Some(LeaderPolicy::Fixed { probability: 0.02 }),
            sampler: SamplerConfig::UniformComplete,
            redundancy: None,
        },
        shards: 4,
        workers: None,
    };
    let values: Vec<f64> = (0..240).map(|i| (i % 31) as f64).collect();
    let mut sim = ShardedSimulation::new(config, &values, 404).unwrap();
    let mut summaries = Vec::new();
    for cycle in 0..25 {
        for i in 0..4 {
            sim.add_node((cycle * 4 + i) as f64);
        }
        sim.remove_random_nodes(4);
        summaries.push(sim.run_cycle());
    }
    let size = sim.last_size_estimate();
    assert!(
        size.is_some(),
        "a leader-led COUNT epoch must have completed"
    );
    let fingerprint = fnv1a(
        summaries
            .iter()
            .flat_map(summary_counters)
            .chain(sim.estimates().iter().map(|v| v.to_bits()))
            .chain(size.map(f64::to_bits)),
    );
    assert_eq!(
        fingerprint, 0xb79f_2bc9_c0ab_a17a,
        "the leader/loss/churn run drifted from its golden: {fingerprint:#x}"
    );
}

/// The loss-free size-estimation scenario (multi-instance epochs) is also
/// shard-count invariant at the node level: with no loss draws to consume,
/// instance-tag ordering cannot perturb anything.
#[test]
fn sharded_size_estimation_is_shard_count_invariant_without_loss() {
    let run = |shards: usize| {
        let config = ShardedConfig {
            base: SimulationConfig {
                protocol: ProtocolConfig::builder()
                    .cycles_per_epoch(10)
                    .late_join(aggregate_core::config::LateJoinPolicy::FixedState(0.0))
                    .build()
                    .unwrap(),
                conditions: NetworkConditions::reliable(),
                leader_policy: Some(LeaderPolicy::Fixed { probability: 0.02 }),
                sampler: SamplerConfig::UniformComplete,
                redundancy: None,
            },
            shards,
            workers: None,
        };
        let values = vec![0.0; 200];
        let mut sim = ShardedSimulation::new(config, &values, 99).unwrap();
        let summaries = sim.run(20);
        let bits: Vec<u64> = sim.estimates().iter().map(|v| v.to_bits()).collect();
        let sizes: Vec<u64> = summaries
            .iter()
            .filter(|s| s.epoch_size_estimates.count() > 0)
            .map(|s| s.epoch_size_estimates.count())
            .collect();
        (bits, sizes, sim.last_size_estimate().unwrap())
    };
    let (bits1, sizes1, estimate1) = run(1);
    for shards in [2, 5] {
        let (bits, sizes, estimate) = run(shards);
        assert_eq!(bits, bits1, "{shards}-shard default estimates must match");
        assert_eq!(sizes, sizes1, "same reporting-node counts per epoch");
        assert!(
            (estimate - estimate1).abs() <= 1e-9 * estimate1,
            "pooled size estimate {estimate} vs {estimate1}"
        );
    }
}

/// Sampler-refactor pin: with the default uniform sampler the engines must
/// reproduce the *pre-refactor* trajectories bit for bit. The golden values
/// below were captured from the engines before the peer-sampling layer was
/// introduced (same harnesses as `simulation_summaries(77)` and
/// `sharded_summaries(2024, 3, 0.1)`); any change to the uniform draw
/// sequence shows up here.
#[test]
fn uniform_sampler_is_bit_identical_to_the_pre_sampler_engines() {
    let last = simulation_summaries(77).pop().unwrap();
    assert_eq!(
        last.estimate_mean.to_bits(),
        0x4039_2147_ae14_7adf,
        "reference-engine mean drifted from the pre-refactor trajectory"
    );
    assert_eq!(
        last.estimate_variance.to_bits(),
        0x3fe0_b58d_981d_4c54,
        "reference-engine variance drifted from the pre-refactor trajectory"
    );

    let (_, bits) = sharded_summaries(2024, 3, 0.1);
    assert_eq!(bits.len(), 300);
    assert_eq!(bits[0], 0x4040_c7e9_0fd8_0000);
    let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
    for b in &bits {
        fnv ^= b;
        fnv = fnv.wrapping_mul(0x1000_0000_01b3);
    }
    assert_eq!(
        fnv, 0x64bd_b10a_57df_4315,
        "sharded-engine estimates drifted from the pre-refactor trajectory"
    );
}

/// Fault-lab refactor pin: the engines now route *every* run through a
/// `FaultInjector`, with the empty [`FaultPlan`] as the default. That
/// refactor must be invisible: an explicit empty plan reproduces the same
/// golden pre-refactor trajectories as
/// [`uniform_sampler_is_bit_identical_to_the_pre_sampler_engines`], on both
/// cycle engines, churn and message loss included.
#[test]
fn empty_fault_plan_reproduces_the_pre_fault_lab_goldens() {
    // Reference engine, seed 77 (same harness as simulation_summaries).
    let values: Vec<f64> = (0..400).map(|i| (i % 53) as f64).collect();
    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(10)
        .build()
        .unwrap();
    let mut sim = GossipSimulation::with_faults(
        SimulationConfig::averaging(protocol),
        &values,
        77,
        FaultPlan::none(),
    )
    .unwrap();
    let last = sim.run(25).pop().unwrap();
    assert_eq!(last.estimate_mean.to_bits(), 0x4039_2147_ae14_7adf);
    assert_eq!(last.estimate_variance.to_bits(), 0x3fe0_b58d_981d_4c54);
    assert_eq!(last.exchanges_blocked, 0);

    // Sharded engine with churn + loss, seed 2024 / 3 shards (same harness
    // as sharded_summaries): the golden FNV over all node estimates.
    let values: Vec<f64> = (0..300).map(|i| (i % 37) as f64).collect();
    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(8)
        .build()
        .unwrap();
    let config = ShardedConfig {
        base: SimulationConfig {
            protocol,
            conditions: NetworkConditions::with_message_loss(0.1),
            leader_policy: None,
            sampler: SamplerConfig::UniformComplete,
            redundancy: None,
        },
        shards: 3,
        workers: None,
    };
    let mut sim = ShardedSimulation::with_faults(config, &values, 2024, FaultPlan::none()).unwrap();
    for cycle in 0..30 {
        for i in 0..5 {
            sim.add_node((cycle * 5 + i) as f64);
        }
        sim.remove_random_nodes(5);
        sim.run_cycle();
    }
    let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
    for v in sim.estimates() {
        fnv ^= v.to_bits();
        fnv = fnv.wrapping_mul(0x1000_0000_01b3);
    }
    assert_eq!(
        fnv, 0x64bd_b10a_57df_4315,
        "empty-plan sharded run drifted from the pre-fault-lab trajectory"
    );
}

/// Adversary-lab refactor pin: the engines now also carry a stateful
/// [`AdversaryPlan`], with the empty plan as the default. The empty
/// adversary consumes no seed stream and touches no node, so an explicit
/// `AdversaryPlan::none()` must reproduce the same golden pre-refactor
/// trajectories as [`empty_fault_plan_reproduces_the_pre_fault_lab_goldens`]
/// on both cycle engines, churn and message loss included.
#[test]
fn empty_adversary_plan_reproduces_the_pre_adversary_lab_goldens() {
    // Reference engine, seed 77 (same harness as simulation_summaries).
    let values: Vec<f64> = (0..400).map(|i| (i % 53) as f64).collect();
    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(10)
        .build()
        .unwrap();
    let mut sim = GossipSimulation::with_adversary(
        SimulationConfig::averaging(protocol),
        &values,
        77,
        FaultPlan::none(),
        AdversaryPlan::none(),
    )
    .unwrap();
    assert!(sim.adversary().is_empty());
    let last = sim.run(25).pop().unwrap();
    assert_eq!(last.estimate_mean.to_bits(), 0x4039_2147_ae14_7adf);
    assert_eq!(last.estimate_variance.to_bits(), 0x3fe0_b58d_981d_4c54);

    // Sharded engine with churn + loss, seed 2024 / 3 shards (same harness
    // as sharded_summaries): the golden FNV over all node estimates.
    let values: Vec<f64> = (0..300).map(|i| (i % 37) as f64).collect();
    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(8)
        .build()
        .unwrap();
    let config = ShardedConfig {
        base: SimulationConfig {
            protocol,
            conditions: NetworkConditions::with_message_loss(0.1),
            leader_policy: None,
            sampler: SamplerConfig::UniformComplete,
            redundancy: None,
        },
        shards: 3,
        workers: None,
    };
    let mut sim = ShardedSimulation::with_adversary(
        config,
        &values,
        2024,
        FaultPlan::none(),
        AdversaryPlan::none(),
    )
    .unwrap();
    for cycle in 0..30 {
        for i in 0..5 {
            sim.add_node((cycle * 5 + i) as f64);
        }
        sim.remove_random_nodes(5);
        sim.run_cycle();
    }
    let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
    for v in sim.estimates() {
        fnv ^= v.to_bits();
        fnv = fnv.wrapping_mul(0x1000_0000_01b3);
    }
    assert_eq!(
        fnv, 0x64bd_b10a_57df_4315,
        "empty-adversary sharded run drifted from the pre-adversary-lab trajectory"
    );
}

/// Faulted runs are just as reproducible as fault-free ones: one seed, one
/// trajectory across repeats.
#[test]
fn faulted_runs_are_bit_identical_for_identical_seeds() {
    let plan = || FaultPlan {
        link_failure: 0.15,
        base_loss: 0.05,
        ..FaultPlan::with_partition(5, 12, 0.4)
    };
    let run = |seed: u64| {
        let values: Vec<f64> = (0..250).map(|i| (i % 29) as f64).collect();
        let protocol = ProtocolConfig::builder()
            .cycles_per_epoch(9)
            .build()
            .unwrap();
        let mut sim = GossipSimulation::with_faults(
            SimulationConfig::averaging(protocol),
            &values,
            seed,
            plan(),
        )
        .unwrap();
        sim.run(20)
    };
    let a = run(505);
    let b = run(505);
    assert!(a.iter().any(|s| s.exchanges_blocked > 0));
    assert!(a.iter().any(|s| s.messages_lost > 0));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.exchanges, y.exchanges);
        assert_eq!(x.exchanges_blocked, y.exchanges_blocked);
        assert_eq!(x.messages_lost, y.messages_lost);
        assert_eq!(
            x.estimate_variance.to_bits(),
            y.estimate_variance.to_bits(),
            "cycle {}: faulted variances differ at the bit level",
            x.cycle
        );
    }
    assert_ne!(
        run(505).last().unwrap().estimate_variance.to_bits(),
        run(506).last().unwrap().estimate_variance.to_bits(),
        "different seeds must draw different fault maps"
    );
}

/// Live NEWSCAST sampler on the reference engine, under churn and slot
/// reuse: same seed → bit-identical trajectories; different seeds diverge.
fn newscast_churn_summaries(seed: u64) -> Vec<gossip_sim::CycleSummary> {
    let values: Vec<f64> = (0..300).map(|i| (i % 37) as f64).collect();
    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(8)
        .build()
        .unwrap();
    let config = SimulationConfig {
        sampler: SamplerConfig::newscast(),
        ..SimulationConfig::averaging(protocol)
    };
    let mut sim = GossipSimulation::new(config, &values, seed);
    let mut summaries = Vec::new();
    for cycle in 0..30 {
        for i in 0..5 {
            sim.add_node((cycle * 5 + i) as f64);
        }
        sim.remove_random_nodes(5);
        summaries.push(sim.run_cycle());
    }
    summaries
}

#[test]
fn newscast_sampler_runs_are_bit_identical_for_identical_seeds() {
    let a = newscast_churn_summaries(404);
    let b = newscast_churn_summaries(404);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.live_nodes, y.live_nodes);
        assert_eq!(x.exchanges, y.exchanges);
        assert_eq!(
            x.estimate_mean.to_bits(),
            y.estimate_mean.to_bits(),
            "cycle {}: NEWSCAST-sampled means differ at the bit level",
            x.cycle
        );
        assert_eq!(
            x.estimate_variance.to_bits(),
            y.estimate_variance.to_bits(),
            "cycle {}: NEWSCAST-sampled variances differ at the bit level",
            x.cycle
        );
    }
    assert_ne!(
        newscast_churn_summaries(404)
            .last()
            .unwrap()
            .estimate_variance
            .to_bits(),
        newscast_churn_summaries(405)
            .last()
            .unwrap()
            .estimate_variance
            .to_bits(),
        "different seeds must explore different view dynamics"
    );
}

/// Static-overlay sampling is just as reproducible: the overlay is generated
/// from a labelled stream of the master seed, so the whole run is a pure
/// function of (seed, config).
#[test]
fn static_overlay_runs_are_bit_identical_for_identical_seeds() {
    let run = |seed: u64| {
        let values: Vec<f64> = (0..200).map(|i| (i % 23) as f64).collect();
        let protocol = ProtocolConfig::builder()
            .cycles_per_epoch(30)
            .build()
            .unwrap();
        let config = SimulationConfig {
            sampler: SamplerConfig::StaticOverlay {
                topology: TopologyKind::RandomRegular { degree: 10 },
            },
            ..SimulationConfig::averaging(protocol)
        };
        let mut sim = GossipSimulation::new(config, &values, seed);
        sim.run(10)
            .iter()
            .map(|s| s.estimate_variance.to_bits())
            .collect::<Vec<u64>>()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

/// Live NEWSCAST across shard counts: the membership protocol iterates and
/// bootstraps over *directory positions* (shard-count invariant), never raw
/// identifiers (which embed shard bits), so node estimates stay bit-identical
/// across 1/2/4/8 shards — the same invariant the uniform sampler upholds.
#[test]
fn newscast_shard_count_changes_only_telemetry_summation_order() {
    let sampler = SamplerConfig::newscast();
    let (reference, reference_bits) = sharded_summaries_with(56, 1, 0.1, sampler);
    for shards in [2, 4, 8] {
        let (summaries, bits) = sharded_summaries_with(56, shards, 0.1, sampler);
        assert_eq!(
            bits, reference_bits,
            "{shards}-shard NEWSCAST node estimates must be bit-identical to 1 shard"
        );
        for (x, y) in summaries.iter().zip(&reference) {
            assert_eq!(x.live_nodes, y.live_nodes, "cycle {}", x.cycle);
            assert_eq!(x.exchanges, y.exchanges, "cycle {}", x.cycle);
            assert_eq!(x.messages_lost, y.messages_lost, "cycle {}", x.cycle);
            assert!(
                (x.estimate_variance - y.estimate_variance).abs()
                    <= 1e-9 * (1.0 + y.estimate_variance.abs()),
                "cycle {}: variance {} vs {}",
                x.cycle,
                x.estimate_variance,
                y.estimate_variance
            );
        }
    }
}

/// FNV-1a fingerprint of a non-uniform 4-shard run under every coordinator
/// mechanism the sampler interacts with: link vetoes reported back through
/// `peer_failed`, 5% message loss, a median-of-3 counting defense (cold,
/// led instances) and per-cycle joins and departures. Covers the per-cycle
/// `(exchanges, exchanges_blocked, messages_lost)`, the final node estimates
/// and the last pooled size estimate.
fn non_uniform_sharded_fingerprint(sampler: SamplerConfig) -> u64 {
    let values: Vec<f64> = (0..300).map(|i| (i % 37) as f64).collect();
    let config = ShardedConfig {
        base: SimulationConfig {
            protocol: ProtocolConfig::builder()
                .cycles_per_epoch(8)
                .late_join(aggregate_core::config::LateJoinPolicy::FixedState(0.0))
                .build()
                .unwrap(),
            conditions: NetworkConditions::with_message_loss(0.05),
            leader_policy: None,
            sampler,
            redundancy: Some(RedundancyConfig::median_of(3)),
        },
        shards: 4,
        workers: None,
    };
    let plan = FaultPlan::with_link_failure(0.1);
    let mut sim = ShardedSimulation::with_faults(config, &values, 2_718, plan).unwrap();
    let mut words = Vec::new();
    let mut blocked = 0;
    for cycle in 0..30 {
        for i in 0..4 {
            sim.add_node((cycle * 4 + i) as f64);
        }
        sim.remove_random_nodes(4);
        let s = sim.run_cycle();
        blocked += s.exchanges_blocked;
        words.extend([s.exchanges, s.exchanges_blocked, s.messages_lost].map(|c| c as u64));
    }
    assert!(blocked > 0, "dead links must veto some picks");
    words.extend(sim.estimates().iter().map(|v| v.to_bits()));
    let size = sim.last_size_estimate();
    assert!(size.is_some(), "a median-of-3 epoch must have completed");
    words.extend(size.map(f64::to_bits));
    let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        fnv ^= word;
        fnv = fnv.wrapping_mul(0x1000_0000_01b3);
    }
    fnv
}

/// Absolute golden pin for live NEWSCAST on the sharded engine, captured
/// while non-uniform samplers still ran on a separate array-of-structs
/// single-worker executor: any change to the draw sequence, the veto →
/// `peer_failed` feedback into later picks, or the exchange arithmetic
/// shows up here.
#[test]
fn newscast_sharded_run_reproduces_its_golden_fingerprint() {
    assert_eq!(
        non_uniform_sharded_fingerprint(SamplerConfig::newscast()),
        0xad4c_6417_59f7_5267,
        "NEWSCAST sharded run drifted from the golden trajectory"
    );
}

/// Absolute golden pin for the static-overlay sampler on the sharded
/// engine (a 10-regular random graph), same harness and provenance as
/// [`newscast_sharded_run_reproduces_its_golden_fingerprint`].
#[test]
fn static_overlay_sharded_run_reproduces_its_golden_fingerprint() {
    let sampler = SamplerConfig::StaticOverlay {
        topology: TopologyKind::RandomRegular { degree: 10 },
    };
    assert_eq!(
        non_uniform_sharded_fingerprint(sampler),
        0x0581_f54d_471e_e5a6,
        "static-overlay sharded run drifted from the golden trajectory"
    );
}

/// FNV-1a over NEWSCAST views in *view order*: for each listed member its
/// id and view length, then every descriptor's `(id, age)` in position
/// order. `random_peer` indexes view positions and `oldest_peer` breaks age
/// ties by position, so a consistent reordering of view entries changes
/// every later draw; the aggregate-level pins above only see it indirectly.
fn view_order_fingerprint<'a>(
    views: impl IntoIterator<Item = (NodeId, &'a epidemic_aggregation::membership::PartialView)>,
) -> u64 {
    let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        fnv ^= word;
        fnv = fnv.wrapping_mul(0x1000_0000_01b3);
    };
    for (id, view) in views {
        mix(u64::from(id.as_u32()));
        mix(view.len() as u64);
        for descriptor in view.iter() {
            mix(u64::from(descriptor.node.as_u32()));
            mix(u64::from(descriptor.age));
        }
    }
    fnv
}

/// Absolute view-order golden for [`NewscastSampler`] (c = 20, 300 sparse
/// ids over a `SliceDirectory`, 30 cycles): four departures and four joins a
/// cycle, one aggregation pick per member, and `peer_failed` for every pick
/// that lands on a departed node or on a simulated dead link.
#[test]
fn newscast_sampler_views_reproduce_their_golden_order() {
    use rand::Rng;
    let mut live: Vec<NodeId> = (0..300).map(|i| NodeId::new(3 * i + 1)).collect();
    let mut next_id = 3 * 300 + 1;
    let mut sampler = NewscastSampler::new(20, &live, 0x5eed);
    let mut churn = rand::rngs::StdRng::seed_from_u64(31);
    let mut picks = rand::rngs::StdRng::seed_from_u64(32);
    let mut failed = 0;
    for cycle in 0..30 {
        for _ in 0..4 {
            let gone = live.remove(churn.gen_range(0..live.len()));
            sampler.on_depart(gone);
        }
        for _ in 0..4 {
            let id = NodeId::new(next_id);
            next_id += 3;
            live.push(id);
            sampler.on_join(id, &SliceDirectory::new(&live));
        }
        let directory = SliceDirectory::new(&live);
        sampler.begin_cycle(&directory);
        for (pos, &initiator) in live.iter().enumerate() {
            let Some(peer) = sampler.sample(&directory, pos, &mut picks) else {
                continue;
            };
            if !live.contains(&peer) || (pos + cycle) % 13 == 0 {
                sampler.peer_failed(initiator, peer);
                failed += 1;
            }
        }
    }
    assert!(
        failed > 300,
        "departed peers and dead links must be reported"
    );
    live.sort();
    let fingerprint = view_order_fingerprint(
        live.iter()
            .map(|&id| (id, sampler.view_of(id).expect("live member"))),
    );
    assert_eq!(
        fingerprint, 0xa9bc_1ad6_d461_a64f,
        "NEWSCAST sampler views drifted from the golden order: {fingerprint:#x}"
    );
}

/// Absolute view-order golden for [`NewscastNetwork`]: a 400-node ring
/// bootstrap with c = 20 after 15 membership cycles.
#[test]
fn newscast_network_views_reproduce_their_golden_order() {
    let n = 400;
    let mut network = NewscastNetwork::bootstrap_ring(n, 20);
    let mut rng = rand::rngs::StdRng::seed_from_u64(33);
    for _ in 0..15 {
        network.run_cycle(&mut rng);
    }
    let ids: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let fingerprint = view_order_fingerprint(ids.iter().map(|&id| (id, network.node(id).view())));
    assert_eq!(
        fingerprint, 0x1d47_0fa3_0aea_43a6,
        "NEWSCAST network views drifted from the golden order: {fingerprint:#x}"
    );
}

/// Tentpole pin — one protocol core, two runtimes. The wire-path
/// [`VirtualCluster`] (every exchange encoded to a 33-byte frame, shipped
/// through an `InMemoryNetwork` endpoint, decoded and delivered to a
/// `NodeCore` under a `VirtualClock`) must reproduce [`GossipSimulation`]
/// **bit for bit** for the same seed, membership and configuration —
/// including the golden pre-refactor trajectory, proving the live message
/// path and the simulator run one and the same protocol core.
#[test]
fn wire_cluster_is_bit_identical_to_the_cycle_engine() {
    let values: Vec<f64> = (0..400).map(|i| (i % 53) as f64).collect();
    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(10)
        .build()
        .unwrap();
    let mut cluster =
        VirtualCluster::new(SimulationConfig::averaging(protocol), &values, 77).unwrap();
    let wire = cluster.run(25);
    let engine = simulation_summaries(77);
    assert_eq!(wire, engine, "wire-path summaries diverge from the engine");
    let last = wire.last().unwrap();
    // The wire path reproduces the golden pre-refactor trajectory too.
    assert_eq!(last.estimate_mean.to_bits(), 0x4039_2147_ae14_7adf);
    assert_eq!(last.estimate_variance.to_bits(), 0x3fe0_b58d_981d_4c54);

    let engine_estimates = {
        let mut sim = GossipSimulation::new(
            SimulationConfig::averaging(
                ProtocolConfig::builder()
                    .cycles_per_epoch(10)
                    .build()
                    .unwrap(),
            ),
            &values,
            77,
        );
        sim.run(25);
        sim.estimates()
    };
    let wire_bits: Vec<u64> = cluster.estimates().iter().map(|v| v.to_bits()).collect();
    let engine_bits: Vec<u64> = engine_estimates.iter().map(|v| v.to_bits()).collect();
    assert_eq!(wire_bits, engine_bits, "node estimates diverge bitwise");
}

/// The identity holds under a full fault schedule — link failures, base
/// loss, a partition window and a crash burst all draw from the same
/// labelled streams on both sides, so the wire path reproduces the faulted
/// engine trajectory draw for draw.
#[test]
fn wire_cluster_matches_the_engine_under_a_fault_plan() {
    let plan = || FaultPlan {
        link_failure: 0.1,
        base_loss: 0.05,
        crashes: vec![CrashBurst {
            cycle: 4,
            fraction: 0.2,
        }],
        ..FaultPlan::with_partition(6, 12, 0.3)
    };
    let values: Vec<f64> = (0..250).map(|i| (i % 29) as f64).collect();
    let config = || {
        SimulationConfig::averaging(
            ProtocolConfig::builder()
                .cycles_per_epoch(9)
                .build()
                .unwrap(),
        )
    };
    let mut cluster = VirtualCluster::with_faults(config(), &values, 505, plan()).unwrap();
    let wire = cluster.run(20);
    let mut sim = GossipSimulation::with_faults(config(), &values, 505, plan()).unwrap();
    let engine = sim.run(20);
    assert!(wire.iter().any(|s| s.messages_lost > 0));
    assert!(wire.iter().any(|s| s.exchanges_blocked > 0));
    assert!(wire.last().unwrap().live_nodes < 250, "burst must fire");
    assert_eq!(wire, engine, "faulted wire run diverges from the engine");
    assert_eq!(
        cluster
            .estimates()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<u64>>(),
        sim.estimates()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<u64>>(),
    );
}

/// The identity holds with live NEWSCAST peer sampling: both runtimes build
/// their sampler from the same labelled membership stream, so view dynamics
/// and peer picks coincide exactly.
#[test]
fn wire_cluster_matches_the_engine_under_newscast_sampling() {
    let values: Vec<f64> = (0..200).map(|i| (i % 23) as f64).collect();
    let config = || SimulationConfig {
        sampler: SamplerConfig::newscast(),
        ..SimulationConfig::averaging(
            ProtocolConfig::builder()
                .cycles_per_epoch(8)
                .build()
                .unwrap(),
        )
    };
    let mut cluster = VirtualCluster::new(config(), &values, 404).unwrap();
    let mut sim = GossipSimulation::new(config(), &values, 404);
    assert_eq!(cluster.run(20), sim.run(20));
    assert_eq!(
        cluster
            .estimates()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<u64>>(),
        sim.estimates()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<u64>>(),
    );
}

/// The identity holds through leader election and multi-instance epochs
/// (the paper's COUNT protocol): leader draws come from the shared schedule
/// stream in the same order on both sides.
#[test]
fn wire_cluster_matches_the_engine_with_leader_led_size_estimation() {
    let values = vec![0.0; 150];
    let config = || SimulationConfig {
        leader_policy: Some(LeaderPolicy::Fixed { probability: 0.02 }),
        ..SimulationConfig::averaging(
            ProtocolConfig::builder()
                .cycles_per_epoch(10)
                .build()
                .unwrap(),
        )
    };
    let mut cluster = VirtualCluster::new(config(), &values, 99).unwrap();
    let mut sim = GossipSimulation::new(config(), &values, 99);
    assert_eq!(cluster.run(30), sim.run(30));
    let (wire_size, engine_size) = (cluster.last_size_estimate(), sim.last_size_estimate());
    assert_eq!(
        wire_size.map(f64::to_bits),
        engine_size.map(f64::to_bits),
        "pooled size estimates diverge: {wire_size:?} vs {engine_size:?}"
    );
    assert!(wire_size.is_some(), "an epoch must have completed");
}

/// CI-scale identity pin (run by the `net-smoke` job with
/// `--include-ignored`): a 1 000-node wire cluster under NEWSCAST sampling
/// *and* a fault plan stays bit-identical to the engine for 30 cycles.
#[test]
#[ignore = "CI-scale: ~1k nodes x 30 cycles on the framed wire path"]
fn thousand_node_wire_cluster_is_bit_identical_to_the_engine() {
    let values: Vec<f64> = (0..1_000).map(|i| (i % 101) as f64).collect();
    let config = || SimulationConfig {
        sampler: SamplerConfig::newscast(),
        ..SimulationConfig::averaging(
            ProtocolConfig::builder()
                .cycles_per_epoch(10)
                .build()
                .unwrap(),
        )
    };
    let plan = || FaultPlan {
        link_failure: 0.05,
        ..FaultPlan::with_message_loss(0.02)
    };
    let mut cluster = VirtualCluster::with_faults(config(), &values, 1_234, plan()).unwrap();
    let mut sim = GossipSimulation::with_faults(config(), &values, 1_234, plan()).unwrap();
    assert_eq!(cluster.run(30), sim.run(30));
    assert_eq!(
        cluster
            .estimates()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<u64>>(),
        sim.estimates()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<u64>>(),
        "1k-node wire estimates diverge from the engine"
    );
}

/// Values of the adversary-lab fences: 240 nodes, 4 epochs of 10 cycles.
fn adversary_fence_values() -> Vec<f64> {
    (0..240).map(|i| (i % 41) as f64).collect()
}

/// Fence configuration (a): leader-led COUNT under 5 % message loss, run
/// against a drifting colluder lie plus a one-shot 10 % value injection that
/// the lie overrides on colluding victims.
fn drift_fence() -> (SimulationConfig, FaultPlan, AdversaryPlan) {
    let config = SimulationConfig {
        conditions: NetworkConditions::with_message_loss(0.05),
        leader_policy: Some(LeaderPolicy::Fixed { probability: 0.02 }),
        ..SimulationConfig::averaging(
            ProtocolConfig::builder()
                .cycles_per_epoch(10)
                .build()
                .unwrap(),
        )
    };
    let plan = FaultPlan {
        injections: vec![ValueInjection {
            cycle: 3,
            fraction: 0.1,
            value: 1_000.0,
        }],
        ..FaultPlan::default()
    };
    let adversary = AdversaryPlan::with_strategy(
        0.1,
        AttackStrategy::Drift {
            start: 5.0,
            rate: 0.5,
        },
    );
    (config, plan, adversary)
}

/// Fence configuration (b): one captured leader per epoch re-asserting a
/// counting state 20× too large, against the median-of-3 defense.
fn capture_fence() -> (SimulationConfig, FaultPlan, AdversaryPlan) {
    let config = SimulationConfig {
        redundancy: Some(RedundancyConfig::median_of(3)),
        ..SimulationConfig::averaging(
            ProtocolConfig::builder()
                .cycles_per_epoch(10)
                .build()
                .unwrap(),
        )
    };
    (
        config,
        FaultPlan::none(),
        AdversaryPlan::leader_capture(1, 20.0),
    )
}

/// The integer counters of one reference-engine cycle, as fingerprint words.
fn cycle_counters(s: &gossip_sim::CycleSummary) -> [u64; 5] {
    [
        s.live_nodes as u64,
        s.exchanges as u64,
        s.exchanges_blocked as u64,
        s.messages_lost as u64,
        s.completed_epoch.unwrap_or(u64::MAX),
    ]
}

/// FNV over 40 reference-engine cycles of a fence: every cycle's counters,
/// the final node estimates and the last pooled size estimate.
fn reference_fence_fingerprint(
    (config, plan, adversary): (SimulationConfig, FaultPlan, AdversaryPlan),
) -> u64 {
    let mut sim =
        GossipSimulation::with_adversary(config, &adversary_fence_values(), 4_242, plan, adversary)
            .unwrap();
    let summaries = sim.run(40);
    let size = sim.last_size_estimate();
    assert!(size.is_some(), "a COUNT epoch must have completed");
    fnv1a(
        summaries
            .iter()
            .flat_map(cycle_counters)
            .chain(sim.estimates().iter().map(|v| v.to_bits()))
            .chain(size.map(f64::to_bits)),
    )
}

/// Absolute golden for fence (a) on the reference engine: colluder lies,
/// an overridden injection, lossy exchanges and probabilistic elections
/// drawn from the schedule stream, all in one run.
#[test]
fn reference_engine_under_drift_injection_loss_and_leaders_reproduces_its_golden() {
    let fingerprint = reference_fence_fingerprint(drift_fence());
    assert_eq!(
        fingerprint, 0xbfe8_1b23_2b59_cb15,
        "the drift/injection/loss/leader run drifted from its golden: {fingerprint:#x}"
    );
}

/// Absolute golden for fence (b) on the reference engine: redundant
/// elections from the `redundancy-leaders` stream, the first leader of each
/// epoch captured and re-asserting its false state.
#[test]
fn reference_engine_under_leader_capture_and_median_of_three_reproduces_its_golden() {
    let fingerprint = reference_fence_fingerprint(capture_fence());
    assert_eq!(
        fingerprint, 0x883a_4158_7c7e_b31e,
        "the leader-capture run drifted from its golden: {fingerprint:#x}"
    );
}

/// Fence (b) on the sharded engine: the untraced fingerprint, and with the
/// flight recorder on, the same fingerprint plus an FNV over the merged
/// JSONL trace.
fn sharded_capture_fingerprints(shards: usize, traced: bool) -> (u64, Option<u64>) {
    let (base, plan, adversary) = capture_fence();
    let config = ShardedConfig {
        base,
        shards,
        workers: None,
    };
    let mut sim = ShardedSimulation::with_adversary(
        config,
        &adversary_fence_values(),
        4_242,
        plan,
        adversary,
    )
    .unwrap();
    if traced {
        sim.set_telemetry(TelemetryConfig::full());
    }
    let summaries = sim.run(40);
    let size = sim.last_size_estimate();
    assert!(size.is_some(), "a median-of-3 epoch must have completed");
    let fingerprint = fnv1a(
        summaries
            .iter()
            .flat_map(summary_counters)
            .chain(sim.estimates().iter().map(|v| v.to_bits()))
            .chain(size.map(f64::to_bits)),
    );
    let trace = traced.then(|| {
        assert_eq!(sim.dropped_trace_events(), 0, "ring overflowed");
        let jsonl = epidemic_aggregation::telemetry::trace::to_jsonl(&sim.drain_trace());
        fnv1a(jsonl.bytes().map(u64::from))
    });
    (fingerprint, trace)
}

/// Absolute goldens for fence (c): fence (b) on the sharded engine at 1 and
/// 4 shards, elections drawn over global directory positions. The two
/// fingerprints differ only in the last bits of the pooled size estimate,
/// which merges per-shard statistics in shard order. The traced runs leave
/// the fingerprint unchanged, and their merged traces are byte-identical
/// across the two shard counts.
#[test]
fn sharded_leader_capture_with_median_of_three_reproduces_its_goldens() {
    for (shards, golden) in [(1, 0xc7e5_ae99_b770_4e24), (4, 0xc7e5_ce99_b770_518a)] {
        let (fingerprint, _) = sharded_capture_fingerprints(shards, false);
        assert_eq!(
            fingerprint, golden,
            "{shards}-shard leader-capture run drifted from its golden: {fingerprint:#x}"
        );
        let (traced, trace) = sharded_capture_fingerprints(shards, true);
        assert_eq!(
            traced, fingerprint,
            "tracing changed the {shards}-shard run"
        );
        assert_eq!(
            trace,
            Some(0xadee_b0fb_da24_83dc),
            "{shards}-shard leader-capture trace drifted from its golden: {trace:#x?}"
        );
    }
}

/// The identity holds against the stateful adversary: colluder lies, an
/// overridden injection and probabilistic elections under loss (fence a),
/// and leader capture against median-of-3 redundant elections (fence b).
#[test]
fn wire_cluster_matches_the_engine_under_an_adversary_and_median_of_k() {
    let values = adversary_fence_values();
    for fence in [drift_fence, capture_fence] {
        let (config, plan, adversary) = fence();
        let mut cluster =
            VirtualCluster::with_adversary(config, &values, 4_242, plan.clone(), adversary)
                .unwrap();
        let mut sim =
            GossipSimulation::with_adversary(config, &values, 4_242, plan, adversary).unwrap();
        for _ in 0..40 {
            assert_eq!(cluster.run_cycle(), sim.run_cycle());
        }
        assert_eq!(cluster.adversary().colluders(), sim.adversary().colluders());
        assert_eq!(cluster.adversary().captured(), sim.adversary().captured());
        assert_eq!(
            cluster.last_size_estimate().map(f64::to_bits),
            sim.last_size_estimate().map(f64::to_bits)
        );
        assert_eq!(
            cluster
                .estimates()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>(),
            sim.estimates()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>(),
        );
    }
}

/// The experiment runners (used by the benches and the convergence-rate
/// integration tests) are reproducible end to end: same seed, same Summary.
#[test]
fn variance_experiments_are_reproducible() {
    let run = || {
        VarianceExperiment::figure3(
            2_000,
            TopologyKind::Complete,
            SelectorKind::Sequential,
            1,
            5,
            123,
        )
        .run_first_cycle()
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.mean.to_bits(), b.mean.to_bits());
    assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits());
}

/// Telemetry tentpole pin, part 1: enabling the full flight recorder +
/// watchdog changes not a single protocol bit. The traced sharded run must
/// reproduce the untraced estimates exactly, at every shard count — and the
/// merged JSONL trace must itself be **byte-identical** across shard counts
/// (and match its absolute golden), because every event is keyed by
/// shard-count-invariant global directory positions or global sequence
/// numbers and merged through the distribution-independent sort in
/// `merge_events`.
fn traced_sharded_run(seed: u64, shards: usize) -> (Vec<u64>, String) {
    let values: Vec<f64> = (0..300).map(|i| (i % 37) as f64).collect();
    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(8)
        .build()
        .unwrap();
    let config = ShardedConfig {
        base: SimulationConfig {
            protocol,
            conditions: NetworkConditions::with_message_loss(0.1),
            leader_policy: None,
            sampler: SamplerConfig::UniformComplete,
            redundancy: None,
        },
        shards,
        workers: None,
    };
    let mut sim = ShardedSimulation::new(config, &values, seed).unwrap();
    sim.set_telemetry(TelemetryConfig::full());
    for cycle in 0..30 {
        for i in 0..5 {
            sim.add_node((cycle * 5 + i) as f64);
        }
        sim.remove_random_nodes(5);
        sim.run_cycle();
    }
    assert_eq!(
        sim.dropped_trace_events(),
        0,
        "ring overflowed; raise capacity"
    );
    let bits = sim.estimates().iter().map(|v| v.to_bits()).collect();
    let trace = epidemic_aggregation::telemetry::trace::to_jsonl(&sim.drain_trace());
    (bits, trace)
}

#[test]
fn tracing_leaves_sharded_estimates_bit_identical_across_shards_and_workers() {
    let untraced = sharded_summaries(2024, 1, 0.1).1;
    let (reference_bits, reference_trace) = traced_sharded_run(2024, 1);
    assert_eq!(
        reference_bits, untraced,
        "enabling full tracing changed the node estimates"
    );
    assert!(!reference_trace.is_empty());
    let trace_fingerprint = fnv1a(reference_trace.bytes().map(u64::from));
    assert_eq!(
        trace_fingerprint, 0xac0d_c54b_7544_2ae4,
        "the merged 1-shard trace drifted from its golden: {trace_fingerprint:#x}"
    );
    for shards in [2, 4, 8] {
        let (bits, trace) = traced_sharded_run(2024, shards);
        assert_eq!(
            bits, reference_bits,
            "{shards}-shard traced estimates drifted"
        );
        assert_eq!(
            trace, reference_trace,
            "merged trace must be byte-identical at {shards} shards"
        );
    }
}

/// Telemetry tentpole pin, part 2: two same-seed traced runs emit
/// byte-identical merged JSONL — the flight recorder consumes no randomness
/// and stamps virtual (never wall-clock) time.
#[test]
fn same_seed_traced_runs_produce_byte_identical_jsonl() {
    let (_, a) = traced_sharded_run(7, 4);
    let (_, b) = traced_sharded_run(7, 4);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed traces must be byte-identical");
}

/// Telemetry tentpole pin, part 3: the reference engine and the lockstep
/// wire cluster both reproduce the golden seed-77 trajectory with full
/// tracing enabled, their watchdogs reach a verdict on the converged run,
/// and their drained traces are equal event for event — time stamps
/// included, which advance one `cycle_length_ms` per cycle in both.
#[test]
fn tracing_leaves_reference_engine_and_wire_cluster_goldens_bit_identical() {
    let values: Vec<f64> = (0..400).map(|i| (i % 53) as f64).collect();
    for cycle_length_ms in [1_000, 2_000] {
        let config = SimulationConfig::averaging(
            ProtocolConfig::builder()
                .cycles_per_epoch(10)
                .cycle_length_ms(cycle_length_ms)
                .build()
                .unwrap(),
        );

        let mut sim = GossipSimulation::new(config, &values, 77);
        sim.set_telemetry(TelemetryConfig::full());
        let last = sim.run(25).pop().unwrap();
        assert_eq!(last.estimate_mean.to_bits(), 0x4039_2147_ae14_7adf);
        assert_eq!(last.estimate_variance.to_bits(), 0x3fe0_b58d_981d_4c54);
        let engine_events = sim.drain_trace();
        assert!(!engine_events.is_empty());
        assert!(sim.watchdog_verdict().is_some());

        let mut cluster = VirtualCluster::new(config, &values, 77).unwrap();
        cluster.set_telemetry(TelemetryConfig::full());
        let last = cluster.run(25).pop().unwrap();
        assert_eq!(last.estimate_mean.to_bits(), 0x4039_2147_ae14_7adf);
        assert_eq!(last.estimate_variance.to_bits(), 0x3fe0_b58d_981d_4c54);
        assert!(cluster.watchdog_verdict().is_some());
        let wire_events = cluster.drain_trace();
        assert_eq!(wire_events.len(), engine_events.len());
        for (wire, engine) in wire_events.iter().zip(&engine_events) {
            assert_eq!(wire, engine, "traces diverge at {cycle_length_ms} ms");
        }
        let last_event = engine_events.last().unwrap();
        assert_eq!(last_event.time_ms, 24 * cycle_length_ms);
    }
}
