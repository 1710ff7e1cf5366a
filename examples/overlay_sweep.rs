//! Overlay sweep: the paper's overlay-dependence claim, end to end.
//!
//! Drives the node-level cycle engine through every peer-sampling layer —
//! uniform-complete, static overlay families (random regular, small world,
//! scale free) and a live NEWSCAST membership at cache sizes 5, 10, 20 and
//! 40 — and measures the per-cycle variance-reduction factor of each. The engines
//! realise `GETPAIR_SEQ`, so the uniform reference is 1/(2√e) ≈ 0.3033; the
//! claim under test is that NEWSCAST with cache size `c ≥ 20` stays within
//! ~10 % of it. A frozen NEWSCAST view topology under `GETPAIR_RAND`
//! additionally reproduces the uniform-random rate 1/e ≈ 0.3679.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example overlay_sweep                     # 10⁴ nodes (CI smoke scale)
//! cargo run --release --example overlay_sweep -- --nodes 100000 --shards 4
//! cargo run --release --example overlay_sweep -- --csv sweep.csv  # record the table
//! ```

use epidemic_aggregation::prelude::*;
use gossip_sim::overlay::{newscast_snapshot_factor, overlay_sweep};

const USAGE: &str = "usage: overlay_sweep [--nodes N] [--cycles N] [--shards N] [--csv <path>]";

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
    println!("overlay_sweep: {nodes} nodes, {cycles} cycles, {engine}");
    println!(
        "GETPAIR_SEQ reference 1/(2*sqrt(e)) = {:.4}; GETPAIR_RAND reference 1/e = {:.4}\n",
        theory::seq_rate(),
        theory::rand_rate()
    );

    let caches = [5usize, 10, 20, 40];
    let (measurements, table) = overlay_sweep(nodes, cycles, &caches, shards, seed)?;
    println!("{table}");
    if let Some(path) = csv {
        table.write_csv(&path)?;
        println!("(wrote {path})");
    }

    // The robustness claim: NEWSCAST with c >= 20 converges within 10 % of
    // the uniform-complete factor measured by the very same engine.
    let uniform = measurements[0].mean_factor;
    assert!(
        (uniform - theory::seq_rate()).abs() < 0.05,
        "uniform factor {uniform} must sit near the SEQ rate"
    );
    for m in &measurements {
        if let SamplerConfig::Newscast { cache_size } = m.sampler {
            let ratio = m.mean_factor / uniform;
            println!(
                "newscast c={cache_size}: factor {:.4} ({ratio:.3}x uniform)",
                m.mean_factor
            );
            if cache_size >= 20 {
                assert!(
                    (ratio - 1.0).abs() < 0.1,
                    "newscast c={cache_size} must stay within 10% of uniform, got {ratio:.3}x"
                );
            }
        }
    }

    // Vector-level cross-check: GETPAIR_RAND over a frozen NEWSCAST overlay
    // (c = 20, at most 20 000 nodes) reproduces the uniform-random rate
    // within 10 %.
    let snapshot_nodes = nodes.min(20_000);
    let snapshot = newscast_snapshot_factor(snapshot_nodes, 20, 30, 5, seed)?;
    println!(
        "\nnewscast snapshot (c=20, N={snapshot_nodes}), getPair_rand: {:.4} ± {:.4} vs 1/e = {:.4}",
        snapshot.mean,
        snapshot.std_dev,
        theory::rand_rate()
    );
    assert!(
        (snapshot.mean - theory::rand_rate()).abs() / theory::rand_rate() < 0.1,
        "frozen NEWSCAST overlay must reproduce 1/e within 10%, got {}",
        snapshot.mean
    );
    println!("\noverlay sweep OK: NEWSCAST (c>=20) within 10% of uniform on both schedules");
    Ok(())
}
