//! Byzantine adversary lab: stateful value attacks against the averaging
//! protocol, leader capture against the counting protocol, and the paper's
//! multiple-instances mitigation measured as a defense curve.
//!
//! Three acts:
//!
//! 1. **Stateful value attacks** — a colluding fraction re-asserts a lie at
//!    every cycle (mass inflation), so unlike the one-shot `ValueInjection`
//!    the protocol can never dilute it away; oscillation and drift variants
//!    show the consensus value tracking the attacker.
//! 2. **Leader capture** — the adversary captures the counting-instance
//!    leaders of an epoch and forces their instances to a false state; an
//!    undefended single-instance estimate becomes arbitrarily wrong.
//! 3. **Median-of-k defense** — `k` redundant concurrent instances per
//!    epoch with per-node median merge: with `f < k/2` captured leaders the
//!    median sits on an honest instance and the estimate error stays
//!    bounded. The bound is *asserted*, not just printed: the defended
//!    error must stay ≤ 10 % while the undefended run diverges ≥ 5×.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example byzantine_lab                    # 10⁴ nodes (CI smoke scale)
//! cargo run --release --example byzantine_lab -- --nodes 2000
//! cargo run --release --example byzantine_lab -- --csv byzantine.csv
//! ```
//!
//! Exits nonzero when any defense bound is violated (the adversarial-smoke
//! CI job runs exactly this binary).

use epidemic_aggregation::prelude::*;
use gossip_sim::robustness::{attack_defense_sweep, attack_defense_table};

const USAGE: &str = "usage: byzantine_lab [--nodes N] [--csv <path>]";

/// The value following `flag`, parsed; a missing or unparsable one is an error.
fn value<T: std::str::FromStr>(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let raw = args.next().ok_or(format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse '{raw}'"))
}

fn parse_args() -> Result<(usize, Option<String>), String> {
    let mut nodes = 10_000usize;
    let mut csv = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--nodes" => nodes = value(&arg, &mut args)?,
            "--csv" => csv = Some(value(&arg, &mut args)?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok((nodes, csv))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (nodes, csv) = parse_args().unwrap_or_else(|message| {
        eprintln!("{message}\n{USAGE}");
        std::process::exit(2)
    });
    let seed = 20040102;
    let cycles_per_epoch = 30u32;
    println!("byzantine_lab: {nodes} nodes, {cycles_per_epoch} cycles per epoch\n");

    // ---- Act 1: stateful value attacks on the averaging protocol ----
    let protocol = ProtocolConfig::builder()
        .cycles_per_epoch(cycles_per_epoch * 4)
        .build()?;
    let config = SimulationConfig::averaging(protocol);
    let values = vec![1.0; nodes];
    for (label, strategy) in [
        ("mass-inflation", AttackStrategy::FixedLie { value: 100.0 }),
        (
            "oscillation",
            AttackStrategy::Oscillate {
                center: 1.0,
                amplitude: 50.0,
                period: 10,
            },
        ),
        (
            "drift",
            AttackStrategy::Drift {
                start: 1.0,
                rate: 2.0,
            },
        ),
    ] {
        let plan = AdversaryPlan::with_strategy(0.05, strategy);
        let mut sim =
            GossipSimulation::with_adversary(config, &values, seed, FaultPlan::none(), plan)?;
        let colluders = sim.adversary().colluders().len();
        let last = sim.run(30).pop().expect("30 cycles requested");
        println!(
            "{label}: {colluders} colluders (5%), consensus mean after 30 cycles {:.2} \
             (honest mean 1.00)",
            last.estimate_mean
        );
        assert!(
            (last.estimate_mean - 1.0).abs() > 1.0,
            "{label}: a stateful 5% collusion must displace the mean, got {}",
            last.estimate_mean
        );
    }

    // ---- Acts 2 + 3: leader capture vs the median-of-k defense ----
    let (k, f) = (5usize, 2usize);
    let amplitudes = [2.0, 5.0, 20.0, 100.0];
    println!("\nleader capture ({f} of {k} instances) vs median-of-{k} defense:");
    let points = attack_defense_sweep(nodes, cycles_per_epoch, k, f, &amplitudes, seed)?;
    let table = attack_defense_table(&points);
    println!("{table}");
    if let Some(path) = csv {
        table.write_csv(&path)?;
        println!("(wrote {path})");
    }

    // ---- The defense bounds, asserted (nonzero exit on violation) ----
    for point in &points {
        assert!(
            point.defended_error <= 0.10,
            "amplitude {}: median-of-{k} error {} exceeds the 10% bound",
            point.reported_state,
            point.defended_error
        );
        assert!(
            point.undefended_error >= 5.0 * point.defended_error.max(0.01),
            "amplitude {}: undefended error {} should diverge ≥5× past the defended {}",
            point.reported_state,
            point.undefended_error,
            point.defended_error
        );
    }
    println!(
        "byzantine lab OK: median-of-{k} holds every estimate within 10% under {f} captured \
         leaders; the undefended estimator diverges ≥5×"
    );
    Ok(())
}
