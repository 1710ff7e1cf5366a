//! Robustness demonstration: how the averaging protocol behaves under
//! continuous churn, message loss and correlated crashes, using the full
//! protocol-level simulator (epochs, joins, departures).
//!
//! * The paper's Figure 4: network size estimation by anti-entropy counting
//!   while the size oscillates ±10 % around its base with node turnover
//!   every cycle, driven through the slot-reclaiming arena engine. One row
//!   per epoch: actual size, the estimates' mean, min and max, and how many
//!   nodes reported one.
//! * The failure ablation: final averaging accuracy under message loss
//!   (0–40 %), a crash of 10–50 % of the nodes at cycle 5, and both at once.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example churn_resilience            # scaled Figure 4 (1k nodes)
//! cargo run --release --example churn_resilience -- --full  # full scale (90k–110k nodes)
//! ```

use epidemic_aggregation::prelude::*;
use gossip_sim::runner::robustness_run;

const SEED: u64 = 20040102;

const USAGE: &str = "usage: churn_resilience [--full]";

/// Whether `--full` was given; any other argument is an error.
fn parse_args() -> Result<bool, String> {
    let mut full_scale = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--full" => full_scale = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(full_scale)
}

/// The failure-injection ablation: final accuracy of averaging over 5 000
/// uniform `[0, 1)` values after 20 cycles, under message loss, a crash of a
/// fraction of the nodes at cycle 5, and both at once.
fn failure_ablation() -> Result<Table, AggregationError> {
    let (nodes, cycles) = (5_000, 20);
    let mut scenarios = Vec::new();
    for loss in [0.0, 0.05, 0.1, 0.2, 0.4] {
        scenarios.push((
            format!("message loss {:.0}%", loss * 100.0),
            NetworkConditions::with_message_loss(loss),
            SEED ^ (loss * 1000.0) as u64,
        ));
    }
    for crash in [0.1, 0.25, 0.5] {
        scenarios.push((
            format!("crash of {:.0}% of nodes at cycle 5", crash * 100.0),
            NetworkConditions::with_crash(crash, 5),
            SEED ^ (crash * 10_000.0) as u64,
        ));
    }
    scenarios.push((
        "crash of 25% at cycle 5 + message loss 20%".to_string(),
        NetworkConditions {
            message_loss: 0.2,
            crash_fraction: 0.25,
            crash_at_cycle: Some(5),
        },
        SEED,
    ));

    println!(
        "averaging over {nodes} nodes holding uniform [0,1) values for {cycles} cycles; \
         accuracy against the surviving nodes' true average"
    );
    let mut table = Table::new(vec![
        "scenario",
        "mean relative error",
        "final variance",
        "surviving nodes",
    ]);
    for (label, conditions, seed) in scenarios {
        let result = robustness_run(nodes, cycles, conditions, seed)?;
        table.add_row(vec![
            label,
            format!("{:.4}%", result.mean_relative_error * 100.0),
            format!("{:.2e}", result.final_variance),
            result.surviving_nodes.to_string(),
        ]);
    }
    Ok(table)
}

/// Runs the Figure 4 churn scenario through [`ChurnRunner`], prints the
/// per-epoch size estimates, and then the engine-health telemetry:
/// estimation accuracy, throughput and the arena's resident-slot high-water
/// mark (which the free list keeps bounded).
fn figure4_churn(full_scale: bool) -> Result<(), SimError> {
    let (label, scenario) = if full_scale {
        (
            "Figure 4, full scale (90k-110k nodes)",
            SizeEstimationScenario::figure4(SEED),
        )
    } else {
        (
            "Figure 4, scaled (900-1100 nodes)",
            SizeEstimationScenario::figure4_scaled(1_000, 1_000, SEED),
        )
    };
    println!(
        "{label}: oscillating size, {} joins + departures of fluctuation per cycle,",
        scenario.churn.fluctuation_per_cycle
    );
    println!(
        "{} cycles in epochs of {} — sustained churn, so a leaky node arena would grow forever.",
        scenario.total_cycles, scenario.cycles_per_epoch
    );

    let report = ChurnRunner::new(scenario).run()?;

    let mut table = Table::new(vec![
        "cycle",
        "epoch",
        "actual size",
        "estimate (mean)",
        "estimate (min)",
        "estimate (max)",
        "reporting nodes",
        "relative error",
    ]);
    for point in &report.points {
        let relative_error =
            (point.estimate_mean - point.actual_size as f64).abs() / point.actual_size as f64;
        table.add_row(vec![
            point.cycle.to_string(),
            point.epoch.to_string(),
            point.actual_size.to_string(),
            format!("{:.0}", point.estimate_mean),
            format!("{:.0}", point.estimate_min),
            format!("{:.0}", point.estimate_max),
            point.reporting_nodes.to_string(),
            format!("{:.2}%", relative_error * 100.0),
        ]);
    }
    println!("{table}");

    let slot_bound = scenario.churn.max_size + 2 * scenario.churn.fluctuation_per_cycle;
    println!(
        "  {} cycles in {:.1} s  ({:.1} cycles/s)",
        report.cycles, report.elapsed_seconds, report.cycles_per_second
    );
    println!(
        "  churn applied: {} joins, {} departures  (peak {} live nodes)",
        report.total_joins, report.total_departures, report.peak_live_nodes
    );
    println!(
        "  node arena: peak {} resident slots  (bound: max_size + 2*fluctuation = {})",
        report.peak_slot_capacity, slot_bound
    );
    if let Some(error) = report.mean_tracking_error() {
        println!(
            "  size estimate tracks the true size within {:.2}% on average over {} epochs",
            error * 100.0,
            report.points.len().saturating_sub(1)
        );
    }
    assert!(
        report.peak_slot_capacity <= slot_bound,
        "arena leaked beyond its bound"
    );
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full_scale = parse_args().unwrap_or_else(|message| {
        eprintln!("{message}\n{USAGE}");
        std::process::exit(2)
    });
    figure4_churn(full_scale)?;
    println!("{}", failure_ablation()?);
    println!("message loss only slows convergence; crashes bias the result towards the mass");
    println!("the crashed nodes held, until the next epoch restarts the aggregation.");
    Ok(())
}
