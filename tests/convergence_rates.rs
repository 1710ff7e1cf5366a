//! Integration tests spanning `aggregate-core`, `overlay-topology` and
//! `gossip-sim`: the paper's convergence theory holds for the full stack.

use epidemic_aggregation::prelude::*;

/// Section 3.3: the measured first-cycle variance reduction of each pair
/// selector matches the paper's closed form on the complete topology.
#[test]
fn selector_rates_match_paper_closed_forms() {
    for (selector, expected) in [
        (SelectorKind::PerfectMatching, theory::PM_RATE),
        (SelectorKind::RandomEdge, theory::rand_rate()),
        (SelectorKind::Sequential, theory::seq_rate()),
        (SelectorKind::PmRand, theory::seq_rate()),
    ] {
        let experiment =
            VarianceExperiment::figure3(10_000, TopologyKind::Complete, selector, 1, 8, 77);
        let summary = experiment.run_first_cycle().expect("valid experiment");
        assert!(
            (summary.mean - expected).abs() < 0.03,
            "{selector:?}: measured {} vs expected {expected}",
            summary.mean
        );
    }
}

/// Figure 3(a): convergence is independent of network size (the measured
/// factor is flat across two orders of magnitude of N).
#[test]
fn convergence_is_independent_of_network_size() {
    let mut means = Vec::new();
    for n in [100usize, 1_000, 10_000] {
        let experiment = VarianceExperiment::figure3(
            n,
            TopologyKind::Complete,
            SelectorKind::Sequential,
            1,
            10,
            5,
        );
        means.push(experiment.run_first_cycle().expect("valid experiment").mean);
    }
    let overall = means.iter().sum::<f64>() / means.len() as f64;
    for (i, mean) in means.iter().enumerate() {
        assert!(
            (mean - overall).abs() < 0.05,
            "size index {i}: mean {mean} deviates from overall {overall}"
        );
    }
}

/// Figure 3(a): the 20-regular random overlay behaves like the complete graph
/// for getPair_seq (the paper finds "no observable difference").
#[test]
fn twenty_regular_overlay_matches_complete_graph() {
    let complete = VarianceExperiment::figure3(
        5_000,
        TopologyKind::Complete,
        SelectorKind::Sequential,
        1,
        10,
        11,
    )
    .run_first_cycle()
    .expect("valid experiment");
    let regular = VarianceExperiment::figure3(
        5_000,
        TopologyKind::RandomRegular { degree: 20 },
        SelectorKind::Sequential,
        1,
        10,
        11,
    )
    .run_first_cycle()
    .expect("valid experiment");
    assert!(
        (complete.mean - regular.mean).abs() < 0.03,
        "complete {} vs 20-regular {}",
        complete.mean,
        regular.mean
    );
}

/// Figure 3(b): iterating AVG on the complete graph, every cycle's mean
/// reduction factor stays at its selector's closed form, not only the
/// first cycle's. Over ten seeds at this scale (5 000 nodes, 10 runs) the
/// worst cycle of 1–20 sat 0.016 from 1/e (`getPair_rand`) and 0.016 from
/// 1/(2√e) (`getPair_seq`), so 0.025 leaves room for the seed while still
/// keeping each selector's window clear of the other's closed form. The
/// 20-regular curves sit 0.02–0.03 above the closed form and are left out.
#[test]
fn every_cycle_of_figure_3b_keeps_the_closed_form_rate() {
    for (selector, expected) in [
        (SelectorKind::RandomEdge, theory::rand_rate()),
        (SelectorKind::Sequential, theory::seq_rate()),
    ] {
        let summaries =
            VarianceExperiment::figure3(5_000, TopologyKind::Complete, selector, 20, 10, 20040102)
                .run()
                .expect("valid experiment");
        assert_eq!(summaries.len(), 20);
        for (cycle, summary) in summaries.iter().enumerate() {
            assert!(
                (summary.mean - expected).abs() < 0.025,
                "{selector:?} cycle {}: mean factor {} vs closed form {expected}",
                cycle + 1,
                summary.mean
            );
        }
    }
}

/// Section 5: 99.9% of the variance is gone within the predicted number of
/// cycles for the deployable sequential protocol.
#[test]
fn variance_drops_three_orders_of_magnitude_in_predicted_cycles() {
    let cycles = theory::cycles_for_accuracy(theory::seq_rate(), 1e-3).expect("valid rate");
    let reports = epidemic_aggregation::sim::runner::single_run_reports(
        20_000,
        TopologyKind::Complete,
        SelectorKind::Sequential,
        cycles as usize + 2, // small safety margin over the expectation
        ValueDistribution::Uniform { lo: 0.0, hi: 1.0 },
        13,
    )
    .expect("valid experiment");
    let initial = reports[0].variance_before;
    let last = reports.last().expect("non-empty").variance_after;
    assert!(
        last <= 1e-3 * initial,
        "variance only fell to {last:.3e} of {initial:.3e}"
    );
}

/// The protocol is label-invariant: permuting the initial values does not
/// change the statistical behaviour (the paper's argument for assuming
/// identically distributed initial values).
#[test]
fn averaging_is_insensitive_to_value_ordering() {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let n = 2_000;
    let values: Vec<f64> = (0..n).map(|i| (i % 37) as f64).collect();
    let mut shuffled = values.clone();
    shuffled.shuffle(&mut rng);

    let run = |initial: &[f64]| -> f64 {
        let topo = CompleteTopology::new(initial.len());
        let mut working = initial.to_vec();
        let mut selector = SequentialSelector::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let reports = run_avg(&mut working, &topo, &mut selector, &mut rng, 1).unwrap();
        reports[0].reduction_factor().unwrap()
    };

    let original_factor = run(&values);
    let shuffled_factor = run(&shuffled);
    assert!(
        (original_factor - shuffled_factor).abs() < 0.05,
        "ordering changed the reduction factor: {original_factor} vs {shuffled_factor}"
    );
}
