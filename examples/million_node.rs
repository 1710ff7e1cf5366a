//! Million-node epochs through the sharded cycle engine.
//!
//! The paper's headline claim is that push–pull epidemic aggregation
//! converges in a handful of cycles *independently of network size*. This
//! example validates the claim at the 10⁶-node scale the paper targets (and
//! at 10⁷ with `--full`): it runs one full epoch through
//! [`ShardedSimulation`] and asserts the Section 3 convergence factor — the
//! per-cycle variance-reduction rate of `GETPAIR_SEQ`, 1/(2√e) ≈ 0.303 —
//! the same value the 1 000-node runs measure.
//!
//! The wall-clock figures it prints are for the person at the terminal;
//! the repository's tracked host-time measurements live in `benchmark/`
//! (workload `epoch_1m`). The only file a run writes is the `--csv` one.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example million_node                   # 10⁶ nodes, 30 cycles
//! cargo run --release --example million_node -- --full         # 10⁷ nodes, 16 shards
//! cargo run --release --example million_node -- --nodes 100000 --shards 4  # CI smoke scale
//! cargo run --release --example million_node -- --baseline     # + single-threaded comparison
//! cargo run --release --example million_node -- --csv out.csv  # record per-cycle telemetry
//! ```
//!
//! The `--full` run asserts a wall-clock budget (default 90 s, override
//! with `GOSSIP_FULL_BUDGET_S`).

use epidemic_aggregation::prelude::*;
use gossip_sim::runner::cycle_telemetry_table;
use std::time::Instant;

struct Args {
    nodes: usize,
    shards: usize,
    cycles: usize,
    csv: Option<String>,
    baseline: bool,
    full: bool,
}

const USAGE: &str =
    "usage: million_node [--nodes N] [--shards N] [--cycles N] [--csv <path>] [--baseline] [--full]";

/// The value following `flag`, parsed; a missing or unparsable one is an error.
fn value<T: std::str::FromStr>(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let raw = args.next().ok_or(format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse '{raw}'"))
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        nodes: 1_000_000,
        shards: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(gossip_sim::arena::MAX_SHARDS),
        cycles: 30,
        csv: None,
        baseline: false,
        full: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--nodes" => parsed.nodes = value(&arg, &mut args)?,
            "--shards" => parsed.shards = value(&arg, &mut args)?,
            "--cycles" => parsed.cycles = value(&arg, &mut args)?,
            "--csv" => parsed.csv = Some(value(&arg, &mut args)?),
            "--baseline" => parsed.baseline = true,
            "--full" => parsed.full = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if parsed.full {
        // The tentpole configuration: 10⁷ nodes, 16 shards, one 30-cycle
        // epoch. Explicit --nodes/--shards/--cycles still override.
        parsed.nodes = 10_000_000;
        parsed.shards = 16;
    }
    Ok(parsed)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// This process's peak resident set in KiB, read from `VmHWM` in
/// `/proc/self/status`; `None` where that file is missing.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().unwrap_or_else(|message| {
        eprintln!("{message}\n{USAGE}");
        std::process::exit(2)
    });
    let (nodes, shards, cycles) = (args.nodes, args.shards, args.cycles);
    assert!(cycles >= 3, "need a few cycles to measure a reduction rate");
    let seed = 20040102;
    println!("million_node: {nodes} nodes, {shards} shards, {cycles} cycles (one epoch)");

    // Deterministic spread of initial values; the true average is known.
    let values: Vec<f64> = (0..nodes).map(|i| (i % 1_000) as f64).collect();
    let true_mean = mean(&values);

    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(cycles as u32)
        .build()?;
    let config = ShardedConfig {
        base: SimulationConfig::averaging(protocol),
        shards,
        workers: None,
    };
    let mut sim = ShardedSimulation::new(config, &values, seed)?;
    let started = Instant::now();
    let summaries = sim.run(cycles);
    let elapsed = started.elapsed().as_secs_f64();
    let exchanges: usize = summaries.iter().map(|s| s.exchanges).sum();
    let sharded_rate = cycles as f64 / elapsed;
    println!(
        "sharded engine: {elapsed:.2} s for {cycles} cycles at {nodes} nodes \
         ({sharded_rate:.2} cycles/s, {:.1} M exchanges/s)",
        exchanges as f64 / elapsed / 1e6
    );

    // Peak RSS before `--baseline` builds the reference engine: the sharded
    // engine's resident footprint, in the ledger's MB (KiB / 1024).
    match peak_rss_kib() {
        Some(kib) => println!(
            "peak RSS {:.1} MB ({:.0} B/node)",
            kib as f64 / 1024.0,
            kib as f64 * 1024.0 / nodes as f64
        ),
        None => println!("peak RSS n/a"),
    }

    if args.full {
        let budget = env_f64("GOSSIP_FULL_BUDGET_S", 90.0);
        assert!(
            elapsed <= budget,
            "full 10^7-node epoch took {elapsed:.1} s, over the {budget:.0} s budget \
             (override with GOSSIP_FULL_BUDGET_S)"
        );
        println!("full epoch wall clock {elapsed:.1} s within budget {budget:.0} s");
    }

    // Section 3: the per-cycle variance-reduction factor of GETPAIR_SEQ.
    // The last cycle completes the epoch (instances restart before its
    // summary is taken), so the factor window excludes it.
    let mut factors = Vec::new();
    for pair in summaries[..cycles - 1].windows(2) {
        if pair[0].estimate_variance > 1e-12 {
            factors.push(pair[1].estimate_variance / pair[0].estimate_variance);
        }
    }
    let mean_factor = factors.iter().sum::<f64>() / factors.len() as f64;
    println!(
        "mean per-cycle variance reduction: {mean_factor:.4} (theory 1/(2*sqrt(e)) = {:.4})",
        theory::seq_rate()
    );
    assert!(
        (mean_factor - theory::seq_rate()).abs() < 0.05,
        "size-independent convergence violated: measured {mean_factor} at {nodes} nodes"
    );

    // The epoch completed: every node participated from the start and
    // reports a converged estimate of the true average.
    let last = summaries.last().expect("at least one cycle");
    assert_eq!(
        last.completed_epoch,
        Some(0),
        "the run spans one full epoch"
    );
    assert_eq!(
        last.epoch_estimates.count() as usize,
        nodes,
        "every node reports a converged epoch estimate"
    );
    let epoch_mean = last.epoch_estimates.mean();
    assert!(
        (epoch_mean - true_mean).abs() < 1e-6 * (1.0 + true_mean.abs()),
        "epoch mean {epoch_mean} must equal the true average {true_mean}"
    );
    let spread = last.epoch_estimates.max().unwrap() - last.epoch_estimates.min().unwrap();
    println!(
        "epoch 0 estimates: mean {epoch_mean:.6} (true {true_mean:.6}), max-min spread {spread:.3e}"
    );
    assert!(
        spread < 1.0,
        "after {cycles} cycles all {nodes} estimates must agree closely, spread {spread}"
    );

    if let Some(path) = args.csv {
        cycle_telemetry_table(&summaries, SamplerConfig::UniformComplete).write_csv(&path)?;
        println!("per-cycle telemetry written to {path}");
    }

    if args.baseline {
        let mut reference =
            GossipSimulation::try_new(SimulationConfig::averaging(protocol), &values, seed)?;
        let started = Instant::now();
        reference.run(cycles);
        let ref_elapsed = started.elapsed().as_secs_f64();
        let reference_rate = cycles as f64 / ref_elapsed;
        println!(
            "single-threaded reference: {ref_elapsed:.2} s ({reference_rate:.2} cycles/s) — \
             sharded speedup {:.2}x",
            sharded_rate / reference_rate
        );
    }

    println!("million_node: OK");
    Ok(())
}
