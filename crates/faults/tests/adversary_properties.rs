//! Property suite for the stateful adversary lab.
//!
//! Three layers of guarantees, from the pure coin up to the engines:
//!
//! * **plan level** — every [`AdversaryPlan`] the generator produces
//!   validates, and its realisation is a pure function of `(plan, seed,
//!   initial directory)`: colluder membership, lie values and captured
//!   states are identical on repeated evaluation;
//! * **coin level** — colluder membership is *monotone* in the collusion
//!   fraction (the threshold-coin construction makes realised sets nested:
//!   raising the fraction only ever adds colluders);
//! * **engine level** — adversarial runs are deterministic across repeated
//!   runs, reproduce an absolute golden at a fixed shard count, and are
//!   node-value invariant across shard counts in the loss-free regime —
//!   the same contracts the fault lab pins for [`FaultPlan`].
//!
//! The engine tests pull `gossip-sim` in as a dev-dependency (a dev-only
//! cycle Cargo permits), so the suite drives the real engines rather than a
//! re-implementation.

use aggregate_core::ProtocolConfig;
use gossip_faults::{Adversary, AdversaryPlan, AttackStrategy, FaultPlan, NetworkConditions};
use gossip_sim::{GossipSimulation, ShardedConfig, ShardedSimulation, SimulationConfig};
use overlay_topology::NodeId;
use proptest::prelude::*;

/// Assembles one of the four attack strategies from drawn primitives — the
/// vendored proptest stub has no `prop_oneof`/`prop_map`, so the strategy
/// space is enumerated by an index drawn alongside its parameters.
fn assemble_strategy(
    kind: usize,
    value: f64,
    secondary: f64,
    period: usize,
    instances: usize,
) -> AttackStrategy {
    match kind {
        0 => AttackStrategy::FixedLie { value },
        1 => AttackStrategy::Oscillate {
            center: value,
            amplitude: secondary.abs(),
            period,
        },
        2 => AttackStrategy::Drift {
            start: value,
            rate: secondary,
        },
        _ => AttackStrategy::LeaderCapture {
            instances,
            reported_state: value,
        },
    }
}

proptest! {
    /// Every generated plan validates, and its realisation is a pure
    /// function of `(plan, seed, initial directory)`: two adversaries built
    /// from the same inputs agree on membership, lies and captured states
    /// at every cycle, and membership is exactly the position coin.
    #[test]
    fn valid_plans_realise_deterministically(
        kind in 0usize..4,
        fraction in 0.0f64..1.0,
        value in -1e6f64..1e6,
        secondary in -1e3f64..1e3,
        period in 1usize..20,
        instances in 1usize..6,
        start_cycle in 0usize..50,
        window in 0usize..50,
        seed in 0u64..u64::MAX,
    ) {
        let plan = AdversaryPlan {
            collusion_fraction: fraction,
            strategy: assemble_strategy(kind, value, secondary, period, instances),
            start_cycle,
            // window 0 means an open-ended attack; otherwise non-empty.
            stop_cycle: (window > 0).then(|| start_cycle + window),
        };
        prop_assert!(plan.validate().is_ok(), "generator produced an invalid plan: {plan:?}");
        let ids: Vec<NodeId> = (0..128).map(NodeId::new).collect();
        let first = Adversary::new(plan, seed, &ids);
        let second = Adversary::new(plan, seed, &ids);
        prop_assert_eq!(first.colluders(), second.colluders());
        for cycle in 0..80 {
            prop_assert_eq!(first.lie_at(cycle), second.lie_at(cycle));
            prop_assert_eq!(first.captured_state_at(cycle), second.captured_state_at(cycle));
            if let Some(lie) = first.lie_at(cycle) {
                prop_assert!(lie.is_finite(), "a valid plan asserts only finite lies");
            }
        }
        for (position, &id) in ids.iter().enumerate() {
            prop_assert_eq!(first.is_colluder(id), plan.colludes_at(seed, position));
        }
    }

    /// Colluder membership is monotone in the collusion fraction: the
    /// threshold coins are nested, so the set realised at a lower fraction
    /// is a subset of the set realised at any higher fraction (same seed).
    #[test]
    fn colluder_sets_are_nested_across_fractions(
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        seed in 0u64..u64::MAX,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let lie = AttackStrategy::FixedLie { value: 1.0 };
        let low = AdversaryPlan::with_strategy(lo, lie);
        let high = AdversaryPlan::with_strategy(hi, lie);
        for position in 0..512usize {
            if low.colludes_at(seed, position) {
                prop_assert!(
                    high.colludes_at(seed, position),
                    "position {position} colludes at fraction {lo} but not at {hi}"
                );
            }
        }
    }
}

/// The fraction endpoints are exact, not sampled: 0.0 realises no colluder
/// and 1.0 realises every position (the threshold saturates at `u64::MAX`).
#[test]
fn fraction_endpoints_realise_nobody_and_everybody() {
    let lie = AttackStrategy::FixedLie { value: 1.0 };
    let nobody = AdversaryPlan::with_strategy(0.0, lie);
    let everybody = AdversaryPlan::with_strategy(1.0, lie);
    for seed in [0u64, 41, u64::MAX] {
        for position in 0..512usize {
            assert!(!nobody.colludes_at(seed, position));
            assert!(everybody.colludes_at(seed, position));
        }
    }
}

fn averaging_base(cycles_per_epoch: u32, loss: f64) -> SimulationConfig {
    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(cycles_per_epoch)
        .build()
        .unwrap();
    SimulationConfig {
        conditions: NetworkConditions::with_message_loss(loss),
        ..SimulationConfig::averaging(protocol)
    }
}

/// An adversarial run of the reference engine is a pure function of its
/// seed: repeated runs agree summary-for-summary and bit-for-bit.
#[test]
fn adversarial_runs_are_deterministic_across_repeated_runs() {
    let values: Vec<f64> = (0..200).map(|i| (i % 17) as f64).collect();
    let plan = AdversaryPlan::with_strategy(
        0.1,
        AttackStrategy::Oscillate {
            center: 5.0,
            amplitude: 40.0,
            period: 3,
        },
    );
    let run = || {
        let mut sim = GossipSimulation::with_adversary(
            averaging_base(10, 0.05),
            &values,
            613,
            FaultPlan::none(),
            plan,
        )
        .unwrap();
        let summaries = sim.run(15);
        let bits: Vec<u64> = sim.estimates().iter().map(|v| v.to_bits()).collect();
        (summaries, bits)
    };
    let (summaries, bits) = run();
    assert!(!bits.is_empty());
    assert_eq!(run(), (summaries, bits), "second identical run diverged");
}

/// In the loss-free regime the sharded engine's node values are invariant
/// across shard counts, and the colluding set — keyed on initial-directory
/// positions, not layout-dependent identifiers — realises the same size
/// everywhere.
#[test]
fn adversarial_runs_are_shard_count_invariant_without_loss() {
    let values: Vec<f64> = (0..240).map(|i| (i % 29) as f64).collect();
    let plan = AdversaryPlan::with_strategy(0.2, AttackStrategy::FixedLie { value: 75.0 });
    let run = |shards: usize| {
        let config = ShardedConfig {
            base: averaging_base(10, 0.0),
            shards,
            workers: None,
        };
        let mut sim =
            ShardedSimulation::with_adversary(config, &values, 99, FaultPlan::none(), plan)
                .unwrap();
        let colluders = sim.adversary().colluders().len();
        let last = sim.run(15).pop().unwrap();
        let bits: Vec<u64> = sim.estimates().iter().map(|v| v.to_bits()).collect();
        (colluders, last.estimate_mean, bits)
    };
    let (colluders, mean, bits) = run(1);
    assert!(
        colluders > 0,
        "fraction 0.2 of 240 should realise colluders"
    );
    for shards in [2, 4, 8] {
        let (c, m, b) = run(shards);
        assert_eq!(c, colluders, "{shards}-shard colluding set size differs");
        // Node values are the shard-count-invariant contract; coordinator
        // summaries aggregate in shard order, so the mean only agrees up to
        // floating-point summation order.
        assert_eq!(b, bits, "{shards}-shard node estimates differ bit-for-bit");
        assert!(
            (m - mean).abs() <= 1e-9 * mean.abs(),
            "{shards}-shard summary mean {m} vs {mean}"
        );
    }
}
