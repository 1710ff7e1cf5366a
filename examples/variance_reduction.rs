//! Variance reduction: the paper's Section 3.3 rate table and Figure 3, end
//! to end.
//!
//! Runs `AVG` over uniform `[0, 1)` values and measures the per-cycle
//! variance-reduction factor `σ²_i / σ²_{i-1}` against the closed forms
//! 1/4 (`GETPAIR_PM`), 1/e (`GETPAIR_RAND`) and 1/(2√e) (`GETPAIR_SEQ`):
//!
//! * the Section 3.3 table: one cycle of every selector on the complete
//!   graph;
//! * Figure 3(a): the first-cycle factor against network size, 10², 10³, …
//!   up to `--nodes`, for the four configurations of Figure 3;
//! * Figure 3(b): every cycle's factor over 30 cycles of the same four
//!   configurations (mean, std dev, min and max over the runs);
//! * the Section 5 claim that 99.9 % of the variance is gone in about
//!   ln 1000 ≈ 7 cycles, measured for every selector;
//! * the view-size ablation: `GETPAIR_SEQ` on k-regular random overlays
//!   against the complete graph.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example variance_reduction                     # 10⁴ nodes, 5 runs
//! cargo run --release --example variance_reduction -- --nodes 100000 --runs 50   # paper scale
//! ```

use epidemic_aggregation::prelude::*;
use gossip_sim::runner::single_run_reports;

const USAGE: &str = "usage: variance_reduction [--nodes N] [--runs N]";

/// The four curves of Figure 3: both selectors on both topologies.
const FIGURE3: [(SelectorKind, TopologyKind, &str); 4] = [
    (
        SelectorKind::RandomEdge,
        TopologyKind::Complete,
        "getPair_rand, complete",
    ),
    (
        SelectorKind::RandomEdge,
        TopologyKind::RandomRegular { degree: 20 },
        "getPair_rand, 20-reg. random",
    ),
    (
        SelectorKind::Sequential,
        TopologyKind::Complete,
        "getPair_seq, complete",
    ),
    (
        SelectorKind::Sequential,
        TopologyKind::RandomRegular { degree: 20 },
        "getPair_seq, 20-reg. random",
    ),
];

/// Cycles per Figure 3(b) curve.
const FIGURE3B_CYCLES: usize = 30;

/// The value following `flag`, parsed; a missing or unparsable one is an error.
fn value<T: std::str::FromStr>(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let raw = args.next().ok_or(format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse '{raw}'"))
}

fn parse_args() -> Result<(usize, usize), String> {
    let mut nodes = 10_000usize;
    let mut runs = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--nodes" => nodes = value(&arg, &mut args)?,
            "--runs" => runs = value(&arg, &mut args)?,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok((nodes, runs))
}

/// Section 3.3: one cycle of every selector against its closed form.
fn rate_table(nodes: usize, runs: usize, seed: u64) -> Result<Table, AggregationError> {
    let mut table = Table::new(vec![
        "selector",
        "measured E(sigma1^2/sigma0^2)",
        "std dev",
        "paper closed form",
        "relative error",
    ]);
    for selector in SelectorKind::all() {
        let summary = VarianceExperiment::figure3(
            nodes,
            TopologyKind::Complete,
            selector,
            1,
            runs,
            seed ^ selector.paper_name().len() as u64,
        )
        .run_first_cycle()?;
        let predicted = selector.theoretical_rate();
        let relative = (summary.mean - predicted).abs() / predicted;
        table.add_row(vec![
            selector.paper_name().to_string(),
            format!("{:.4}", summary.mean),
            format!("{:.4}", summary.std_dev),
            format!("{predicted:.4}"),
            format!("{:.2}%", relative * 100.0),
        ]);
    }
    Ok(table)
}

/// Figure 3(a): the first-cycle factor at 10², 10³, … up to `max_nodes`.
fn figure3a(max_nodes: usize, runs: usize, seed: u64) -> Result<Table, AggregationError> {
    let sizes: Vec<usize> = std::iter::successors(Some(100usize), |n| n.checked_mul(10))
        .take_while(|&n| n <= max_nodes)
        .collect();
    let mut table = Table::new(vec![
        "network size",
        "series",
        "variance reduction (mean)",
        "std dev",
        "theoretical",
    ]);
    for (selector, topology, label) in FIGURE3 {
        for &n in &sizes {
            let summary =
                VarianceExperiment::figure3(n, topology, selector, 1, runs, seed ^ n as u64)
                    .run_first_cycle()?;
            table.add_row(vec![
                n.to_string(),
                label.to_string(),
                format!("{:.4}", summary.mean),
                format!("{:.4}", summary.std_dev),
                format!("{:.4}", selector.theoretical_rate()),
            ]);
        }
    }
    Ok(table)
}

/// Figure 3(b): every cycle's factor over [`FIGURE3B_CYCLES`] cycles.
fn figure3b(nodes: usize, runs: usize, seed: u64) -> Result<Table, AggregationError> {
    let mut table = Table::new(vec![
        "cycle",
        "series",
        "variance reduction",
        "std dev",
        "min",
        "max",
    ]);
    for (selector, topology, label) in FIGURE3 {
        let summaries = VarianceExperiment::figure3(
            nodes,
            topology,
            selector,
            FIGURE3B_CYCLES,
            runs,
            seed ^ label.len() as u64,
        )
        .run()?;
        for (cycle, summary) in summaries.iter().enumerate() {
            table.add_row(vec![
                (cycle + 1).to_string(),
                label.to_string(),
                format!("{:.4}", summary.mean),
                format!("{:.4}", summary.std_dev),
                format!("{:.4}", summary.min),
                format!("{:.4}", summary.max),
            ]);
        }
    }
    Ok(table)
}

/// Section 5: cycles until the variance is 0.1 % of its initial value.
fn convergence_speed(nodes: usize, runs: usize, seed: u64) -> Result<Table, AggregationError> {
    let target = 1e-3;
    let mut table = Table::new(vec![
        "selector",
        "measured cycles (mean)",
        "measured cycles (max)",
        "theoretical cycles",
    ]);
    for selector in SelectorKind::all() {
        let mut measured = Vec::new();
        for run in 0..runs {
            let reports = single_run_reports(
                nodes,
                TopologyKind::Complete,
                selector,
                25,
                ValueDistribution::Uniform { lo: 0.0, hi: 1.0 },
                seed ^ (run as u64) << 8 ^ selector.paper_name().len() as u64,
            )?;
            let initial = reports[0].variance_before;
            let cycles_needed = reports
                .iter()
                .position(|r| r.variance_after <= target * initial)
                .map_or(reports.len(), |idx| idx + 1);
            measured.push(cycles_needed as f64);
        }
        let summary = Summary::from_slice(&measured);
        let theoretical = theory::cycles_for_accuracy(selector.theoretical_rate(), target)?;
        table.add_row(vec![
            selector.paper_name().to_string(),
            format!("{:.1}", summary.mean),
            format!("{:.0}", summary.max),
            theoretical.to_string(),
        ]);
    }
    Ok(table)
}

/// The view-size ablation: `GETPAIR_SEQ` on k-regular overlays, then the
/// complete graph as the reference row.
fn view_size_ablation(nodes: usize, runs: usize, seed: u64) -> Result<Table, AggregationError> {
    let mut table = Table::new(vec![
        "view size (degree)",
        "variance reduction (mean)",
        "std dev",
        "gap vs complete graph",
    ]);
    let first_cycle = |topology, seed| {
        VarianceExperiment::figure3(nodes, topology, SelectorKind::Sequential, 1, runs, seed)
            .run_first_cycle()
    };
    for degree in [2usize, 3, 5, 10, 20, 40, 80] {
        let summary = first_cycle(TopologyKind::RandomRegular { degree }, seed ^ degree as u64)?;
        let gap = summary.mean - theory::seq_rate();
        table.add_row(vec![
            degree.to_string(),
            format!("{:.4}", summary.mean),
            format!("{:.4}", summary.std_dev),
            format!("{gap:+.4}"),
        ]);
    }
    let complete = first_cycle(TopologyKind::Complete, seed)?;
    table.add_row(vec![
        "complete".to_string(),
        format!("{:.4}", complete.mean),
        format!("{:.4}", complete.std_dev),
        "+0.0000".to_string(),
    ]);
    Ok(table)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (nodes, runs) = parse_args().unwrap_or_else(|message| {
        eprintln!("{message}\n{USAGE}");
        std::process::exit(2)
    });
    let seed = 20040102;
    println!("variance_reduction: {nodes} nodes, {runs} runs per point (the paper uses 50)");
    println!(
        "closed forms: 1/4 = {:.4} (pm), 1/e = {:.4} (rand), 1/(2*sqrt(e)) = {:.4} (seq)\n",
        theory::PM_RATE,
        theory::rand_rate(),
        theory::seq_rate()
    );

    println!("Section 3.3: one cycle of AVG per selector, complete graph");
    println!("{}", rate_table(nodes, runs, seed)?);
    println!("Figure 3(a): first-cycle reduction vs network size");
    println!("{}", figure3a(nodes, runs, seed)?);
    println!("Figure 3(b): reduction in every cycle of {FIGURE3B_CYCLES}, over the runs");
    println!("{}", figure3b(nodes, runs, seed)?);
    println!("Section 5: cycles to a 99.9% variance reduction, complete graph");
    println!("{}", convergence_speed(nodes, runs, seed)?);
    println!(
        "paper claim: getPair_rand needs ln(1000) ≈ {:.1} → 7 cycles for a 99.9% reduction\n",
        1000f64.ln()
    );
    println!("View-size ablation: getPair_seq on k-regular random overlays");
    println!("{}", view_size_ablation(nodes, runs, seed)?);
    Ok(())
}
