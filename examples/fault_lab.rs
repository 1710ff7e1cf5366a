//! Fault-injection lab: the paper's Section 4 robustness experiments, end
//! to end.
//!
//! Sweeps the cycle engine through the fault families of `gossip-faults`
//! and measures how the convergence factor degrades:
//!
//! * persistent link failures at probability {0, 0.05, 0.1, 0.2};
//! * uniform message omission at the same rates;
//! * an adversarial value injection corrupting 5 % / 10 % of the nodes;
//! * a network partition that splits at cycle 0 and heals at cycle 10;
//! * correlated crash bursts at the start of a counting epoch
//!   (size-estimation error vs crash rate).
//!
//! The graceful-degradation claim is asserted, not just printed: with 20 %
//! of links dead the factor must stay below 0.55 (fault-free: 1/(2√e) ≈
//! 0.303) and the protocol must still converge.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fault_lab                     # 10⁴ nodes (CI smoke scale)
//! cargo run --release --example fault_lab -- --nodes 100000 --shards 4
//! cargo run --release --example fault_lab -- --csv faults.csv # record the curves
//! ```

use epidemic_aggregation::prelude::*;
use gossip_sim::robustness::{crash_estimation_curve, crash_table, sweep_table};

const USAGE: &str = "usage: fault_lab [--nodes N] [--cycles N] [--shards N] [--csv <path>]";

/// The value following `flag`, parsed; a missing or unparsable one is an error.
fn value<T: std::str::FromStr>(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let raw = args.next().ok_or(format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse '{raw}'"))
}

fn parse_args() -> Result<(usize, usize, usize, Option<String>), String> {
    let mut nodes = 10_000usize;
    let mut cycles = 20usize;
    let mut shards = 0usize;
    let mut csv = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--nodes" => nodes = value(&arg, &mut args)?,
            "--cycles" => cycles = value(&arg, &mut args)?,
            "--shards" => shards = value(&arg, &mut args)?,
            "--csv" => csv = Some(value(&arg, &mut args)?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok((nodes, cycles, shards, csv))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (nodes, cycles, shards, csv) = parse_args().unwrap_or_else(|message| {
        eprintln!("{message}\n{USAGE}");
        std::process::exit(2)
    });
    let seed = 20040102;
    let engine = if shards == 0 {
        "reference engine".to_string()
    } else {
        format!("sharded engine, {shards} shards")
    };
    println!("fault_lab: {nodes} nodes, {cycles} cycles, {engine}");
    println!(
        "fault-free GETPAIR_SEQ reference 1/(2*sqrt(e)) = {:.4}\n",
        theory::seq_rate()
    );

    let sweep = RobustnessSweep {
        nodes,
        cycles,
        shards,
        seed,
    };
    let rates = [0.0, 0.05, 0.1, 0.2];

    // Convergence factor vs link-failure probability (Section 4 axis 1).
    let link_points = sweep.link_failure_curve(&rates)?;
    // Convergence factor vs message-omission probability (axis 2).
    let loss_points = sweep.loss_curve(&rates)?;
    // Mean displacement vs adversarially corrupted fraction (beyond the
    // paper: the value-injection adversary).
    let injection_points = sweep.injection_curve(&[0.05, 0.1], 100.0)?;

    let mut table = sweep_table(&link_points);
    table.append(&sweep_table(&loss_points));
    table.append(&sweep_table(&injection_points));
    println!("{table}");

    // Partition demo: split at cycle 0, heal at cycle 10, then re-converge.
    let partition_demo = sweep.measure(
        "partition-0-10",
        0.5,
        FaultPlan::with_partition(0, cycles.min(10), 0.5),
    )?;
    println!(
        "partition (heals at cycle {}): final variance {:.3e}, {} exchanges blocked",
        cycles.min(10),
        partition_demo.final_variance,
        partition_demo.exchanges_blocked
    );

    // Size-estimation error vs crash rate at the start of an epoch. The
    // counting protocol is epoch-bound, so this runs at a fixed moderate
    // scale regardless of the sweep size.
    let crash_nodes = nodes.min(10_000);
    let crash_points = crash_estimation_curve(crash_nodes, 30, &rates, seed)?;
    let crash = crash_table(&crash_points);
    println!("\nsize-estimation error vs crash rate at epoch start ({crash_nodes} nodes):");
    println!("{crash}");

    if let Some(path) = csv {
        table.write_csv(&path)?;
        println!("(wrote {path})");
    }

    // ---- The graceful-degradation bounds, asserted ----
    let baseline = link_points[0].mean_factor;
    assert!(
        (baseline - theory::seq_rate()).abs() < 0.05,
        "fault-free factor {baseline} must sit near the SEQ rate"
    );
    for point in link_points.iter().chain(&loss_points) {
        println!(
            "{} {:.2}: factor {:.4} ({:.3}x theory), final variance {:.3e}",
            point.fault,
            point.rate,
            point.mean_factor,
            point.ratio_to_seq_rate(),
            point.final_variance
        );
        assert!(
            point.mean_factor < 0.7,
            "{} at rate {} must still contract the variance each cycle, got {}",
            point.fault,
            point.rate,
            point.mean_factor
        );
        assert!(
            point.final_variance < 1e-2,
            "{} at rate {} must still converge, variance {}",
            point.fault,
            point.rate,
            point.final_variance
        );
    }
    let worst_links = link_points.last().unwrap();
    assert!(
        worst_links.mean_factor < 0.55,
        "20% dead links: factor {} exceeds the graceful-degradation bound",
        worst_links.mean_factor
    );
    assert!(
        worst_links.mean_drift < 1e-6,
        "dead links must not displace the mean (drift {})",
        worst_links.mean_drift
    );
    assert!(
        partition_demo.final_variance < 1e-3,
        "a healed partition must re-converge, variance {}",
        partition_demo.final_variance
    );
    // Crash bursts at epoch start bias that epoch's count upward, but the
    // estimator must neither wedge nor explode.
    for point in &crash_points {
        assert!(
            point.estimate_mean.is_finite() && point.estimate_mean > 0.0,
            "crash rate {}: estimate must stay usable",
            point.crash_fraction
        );
        assert!(
            point.relative_error < 1.5,
            "crash rate {}: size-estimate error {} out of bounds",
            point.crash_fraction,
            point.relative_error
        );
    }
    println!("\nfault lab OK: graceful degradation holds across every fault family");
    Ok(())
}
