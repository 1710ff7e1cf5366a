//! Integration tests for the full distributed stack: protocol nodes driven by
//! the cycle simulator, the membership service feeding the aggregation layer,
//! and the live in-memory cluster.

use epidemic_aggregation::prelude::*;

/// The protocol-level simulator (real `ProtocolNode`s exchanging messages)
/// reproduces the vector-level AVG behaviour: same limit, comparable speed.
#[test]
fn simulator_and_vector_algorithm_agree() {
    let n = 1_000;
    let values: Vec<f64> = (0..n).map(|i| (i % 250) as f64).collect();
    let true_mean = mean(&values);

    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(100)
        .build()
        .unwrap();
    let mut sim = GossipSimulation::new(SimulationConfig::averaging(protocol), &values, 21);
    let summaries = sim.run(20);
    let last = summaries.last().unwrap();
    assert!((last.estimate_mean - true_mean).abs() < 1e-9);
    assert!(last.estimate_variance < 1e-6);
}

/// Epoch restarts make the protocol adaptive: after the inputs change, the
/// next epoch's converged estimates reflect the new values.
#[test]
fn epochs_track_changing_inputs() {
    let n = 300;
    let values = vec![10.0; n];
    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(15)
        .build()
        .unwrap();
    let mut sim = GossipSimulation::new(SimulationConfig::averaging(protocol), &values, 9);

    // First epoch: average of the original values.
    let mut first_epoch_estimate = None;
    for summary in sim.run(15) {
        if summary.completed_epoch.is_some() {
            first_epoch_estimate = Some(summary.epoch_estimates[0]);
        }
    }
    assert!((first_epoch_estimate.unwrap() - 10.0).abs() < 1e-9);

    // Double every node's value. The change is picked up at the next epoch
    // *restart*, so the epoch already in flight still reports the old value
    // and the one after it reports the new one — the one-epoch lag the paper
    // describes for Figure 4.
    for i in 0..n {
        sim.set_local_value(NodeId::new(i), 20.0);
    }
    let mut epoch_estimates = Vec::new();
    for summary in sim.run(30) {
        if summary.completed_epoch.is_some() {
            epoch_estimates.push(summary.epoch_estimates[0]);
        }
    }
    assert_eq!(epoch_estimates.len(), 2);
    assert!(
        (epoch_estimates[0] - 10.0).abs() < 1e-9,
        "in-flight epoch keeps the old average"
    );
    assert!(
        (epoch_estimates[1] - 20.0).abs() < 1e-9,
        "next epoch reports the new average"
    );
}

/// Network size estimation end to end, with leader election and epochs, over
/// the protocol-level simulator.
#[test]
fn size_estimation_tracks_a_static_network() {
    let scenario = SizeEstimationScenario {
        churn: ChurnSchedule::steady(3_000),
        cycles_per_epoch: 30,
        total_cycles: 90,
        leader_policy: LeaderPolicy::Adaptive {
            target_leaders: 4.0,
            fallback_probability: 0.005,
        },
        message_loss: 0.0,
        sampler: SamplerConfig::UniformComplete,
        seed: 31,
    };
    let points = scenario.run().expect("valid scenario");
    assert!(points.len() >= 2);
    for point in &points {
        let err = (point.estimate_mean - 3_000.0).abs() / 3_000.0;
        assert!(
            err < 0.05,
            "epoch {}: estimate {} should be within 5% of 3000",
            point.epoch,
            point.estimate_mean
        );
    }
}

/// The membership substrate (newscast) provides views random enough that the
/// aggregation protocol run over them converges at essentially the
/// complete-graph rate — the paper's justification for analysing the complete
/// topology only.
#[test]
fn aggregation_over_newscast_views_converges_like_random_overlay() {
    use rand::SeedableRng;
    let n = 2_000;
    let view_size = 20;
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let mut membership = NewscastNetwork::bootstrap_ring(n, view_size);
    for _ in 0..30 {
        membership.run_cycle(&mut rng);
    }
    let overlay = membership.view_topology();

    let mut values: Vec<f64> = (0..n).map(|i| (i % 200) as f64).collect();
    let true_mean = mean(&values);
    let mut selector = SequentialSelector::new();
    let reports = run_avg(&mut values, &overlay, &mut selector, &mut rng, 25).unwrap();

    // Converged to the correct value...
    assert!(values.iter().all(|v| (v - true_mean).abs() < 0.01));
    // ...and the first-cycle reduction factor is close to the paper's rate.
    let factor = reports[0].reduction_factor().unwrap();
    assert!(
        (factor - theory::seq_rate()).abs() < 0.07,
        "reduction over newscast views: {factor}"
    );
}

/// The in-process "live" cluster (the runtime's own nodes, stepped in
/// virtual time on one thread, no simulator) reaches consensus on a value
/// close to the true average.
#[test]
fn in_memory_cluster_reaches_consensus() {
    let values = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0];
    let true_mean = mean(&values);
    let report = GossipCluster::run_in_memory(
        &values,
        ClusterConfig {
            cycle_length_ms: 5,
            cycles: 40,
        },
        SamplerConfig::UniformComplete,
        FaultPlan::none(),
    )
    .expect("cluster runs");
    let estimates = &report.estimates;
    let spread = estimates.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - estimates.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 1.5, "nodes disagree by {spread}");
    let cluster_mean = mean(estimates);
    assert!(
        (cluster_mean - true_mean).abs() < 0.15 * true_mean,
        "cluster mean {cluster_mean} vs true {true_mean}"
    );
    // The runtime surfaces exchange outcomes instead of swallowing them.
    assert!(report.stats.exchanges_completed > 0);
    assert_eq!(report.stats.decode_errors, 0);
}

/// Maximum aggregation spreads the global maximum to every node (epidemic
/// broadcast behaviour noted in Section 1.1), even with message loss.
#[test]
fn maximum_spreads_to_all_nodes_despite_message_loss() {
    use epidemic_aggregation::core::aggregate::AggregateKind;
    let n = 500;
    let mut values = vec![1.0; n];
    values[137] = 99.0;

    let protocol = ProtocolConfig::builder()
        .aggregate(AggregateKind::Maximum)
        .cycles_per_epoch(100)
        .build()
        .unwrap();
    let config = SimulationConfig {
        protocol,
        conditions: NetworkConditions::with_message_loss(0.2),
        leader_policy: None,
        sampler: SamplerConfig::UniformComplete,
        redundancy: None,
    };
    let mut sim = GossipSimulation::new(config, &values, 23);
    sim.run(20);
    assert!(sim.estimates().iter().all(|&v| v == 99.0));
}
