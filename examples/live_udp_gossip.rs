//! A live deployment on localhost: eight real protocol nodes, each with its
//! own OS thread and UDP socket, gossiping their CPU-load-like metric and
//! converging on the global average — no simulator involved.
//!
//! The simulator-grade knobs plug straight into the live runtime: pass
//! `--sampler newscast` to run live NEWSCAST peer sampling instead of
//! uniform-complete, and `--faults` to execute a small [`FaultPlan`] (10%
//! dead links, 5% message loss) on the UDP path. `--trace <path>` drains
//! every node's flight recorder at shutdown and writes the merged event
//! stream as JSONL for `trace summarize`. The example asserts convergence
//! before exiting, so it doubles as a smoke test:
//!
//! ```text
//! cargo run --release --example live_udp_gossip -- --faults --sampler newscast --trace run.jsonl
//! ```

use epidemic_aggregation::core::effects::SeedSequence;
use epidemic_aggregation::net::{GossipRuntime, NodeEnv, UdpTransport};
use epidemic_aggregation::prelude::*;
use epidemic_aggregation::telemetry::{merge_events, trace};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    faults: bool,
    sampler: SamplerConfig,
    trace: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        faults: false,
        sampler: SamplerConfig::UniformComplete,
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--faults" => options.faults = true,
            "--sampler" => {
                let which = args.next().ok_or("--sampler needs a value")?;
                options.sampler = match which.as_str() {
                    "uniform" => SamplerConfig::UniformComplete,
                    "newscast" => SamplerConfig::newscast(),
                    other => return Err(format!("unknown sampler '{other}'")),
                };
            }
            "--trace" => {
                let path = args.next().ok_or("--trace needs a file path")?;
                options.trace = Some(PathBuf::from(path));
            }
            other => {
                return Err(format!(
                    "unknown argument '{other}' (usage: live_udp_gossip [--faults] \
                     [--sampler uniform|newscast] [--trace <path>])"
                ))
            }
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("FAILED: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(options: &Options) -> Result<(), String> {
    let node_count = 8;
    let loads: Vec<f64> = (0..node_count).map(|i| 10.0 + 10.0 * i as f64).collect();
    let true_average = mean(&loads);

    // Bind one UDP socket per node on an OS-assigned port, then distribute the
    // full address book to everyone (a static bootstrap, standing in for a
    // membership service).
    let mut transports: Vec<UdpTransport> = (0..node_count)
        .map(|i| {
            UdpTransport::bind(
                NodeId::new(i),
                "127.0.0.1:0".parse::<SocketAddr>().expect("valid address"),
                vec![],
            )
            .expect("bind local UDP socket")
        })
        .collect();
    let addresses: Vec<SocketAddr> = transports
        .iter()
        .map(|t| t.local_address().expect("bound socket has an address"))
        .collect();
    for (i, transport) in transports.iter_mut().enumerate() {
        for (j, &address) in addresses.iter().enumerate() {
            if i != j {
                transport.register_peer(NodeId::new(j), address);
            }
        }
    }

    // The exact values a simulator run takes, passed through unchanged.
    let plan = if options.faults {
        FaultPlan {
            link_failure: 0.1,
            ..FaultPlan::with_message_loss(0.05)
        }
    } else {
        FaultPlan::none()
    };

    println!("spawning {node_count} gossip nodes on localhost UDP:");
    for (i, address) in addresses.iter().enumerate() {
        println!("  node {i}: {address}  local load {:.1}", loads[i]);
    }
    println!(
        "true average load: {true_average:.3}   sampler: {:?}   faults: {}",
        options.sampler,
        if plan.is_empty() {
            "none"
        } else {
            "10% dead links + 5% loss"
        }
    );
    println!();

    let protocol = ProtocolConfig::builder()
        .cycle_length_ms(20)
        .cycles_per_epoch(1_000)
        .build()
        .map_err(|e| e.to_string())?;
    let seeds = SeedSequence::new(4_242);
    let runtimes: Vec<GossipRuntime> = transports
        .into_iter()
        .zip(loads.iter())
        .enumerate()
        .map(|(i, (transport, &load))| {
            let telemetry = if options.trace.is_some() {
                TelemetryConfig::trace()
            } else {
                TelemetryConfig::disabled()
            };
            let env = NodeEnv::real(transport, seeds.seed_for_run(i as u64))
                .with_sampler(options.sampler, &seeds)
                .map_err(|e| e.to_string())?
                .with_faults(plan.clone(), &seeds)
                .map_err(|e| e.to_string())?
                .with_telemetry(telemetry);
            Ok(GossipRuntime::spawn_env(env, protocol, load))
        })
        .collect::<Result<_, String>>()?;

    // Watch until the cluster converges (typically well under two seconds,
    // ≈100 cycles); a loaded machine gets up to eight seconds before the
    // run counts as failed.
    let (max_spread, mean_tolerance) = if options.faults {
        (6.0, 0.2)
    } else {
        (1.0, 0.1)
    };
    let mut spread = f64::INFINITY;
    let mut estimates: Vec<f64> = Vec::new();
    for tick in 1..=32 {
        std::thread::sleep(Duration::from_millis(250));
        estimates = runtimes
            .iter()
            .map(|r| r.handle().estimate().unwrap_or(f64::NAN))
            .collect();
        spread = estimates.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - estimates.iter().cloned().fold(f64::INFINITY, f64::min);
        println!(
            "t={:>4}ms  estimates: {}  spread {:.3}",
            tick * 250,
            estimates
                .iter()
                .map(|e| format!("{e:>7.2}"))
                .collect::<Vec<_>>()
                .join(" "),
            spread
        );
        let cluster_mean = mean(&estimates);
        if spread.is_finite()
            && spread <= max_spread
            && (cluster_mean - true_average).abs() <= mean_tolerance * true_average
            && tick >= 8
        {
            break;
        }
    }

    // Each node publishes a periodic MetricsSnapshot through its handle; one
    // final sample per node shows logical progress alongside the estimate.
    println!();
    for (i, runtime) in runtimes.iter().enumerate() {
        let snap = runtime.handle().metrics_snapshot();
        println!(
            "node {i}: cycle {} epoch {} estimate {}",
            snap.cycle,
            snap.epoch,
            snap.estimate
                .map_or_else(|| "-".to_string(), |e| format!("{e:.3}")),
        );
    }

    let mut stats = RuntimeStats::default();
    for runtime in &runtimes {
        stats.merge(runtime.handle().stats());
    }
    if let Some(path) = &options.trace {
        let events = merge_events(runtimes.iter().map(|r| r.handle().drain_trace()));
        std::fs::write(path, trace::to_jsonl(&events))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "\nwrote {} trace events to {} (inspect with `cargo run -p gossip-telemetry --bin trace -- summarize {}`)",
            events.len(),
            path.display(),
            path.display(),
        );
    }
    for runtime in runtimes {
        runtime.shutdown();
    }
    println!();
    println!(
        "exchanges: {} started, {} completed, {} timed out, {} vetoed by dead links",
        stats.exchanges_started,
        stats.exchanges_completed,
        stats.exchanges_timed_out,
        stats.exchanges_vetoed
    );
    println!(
        "messages:  {} dropped by the loss model, {} overlapping pushes rejected, \
         {} send / {} recv / {} decode errors",
        stats.messages_lost,
        stats.pushes_rejected,
        stats.send_errors,
        stats.recv_errors,
        stats.decode_errors
    );

    // Convergence assertions — generous under an active fault plan, tight
    // without one — so this example doubles as a CI smoke test.
    if !spread.is_finite() || spread > max_spread {
        return Err(format!("spread {spread:.3} above {max_spread}"));
    }
    let cluster_mean = mean(&estimates);
    if (cluster_mean - true_average).abs() > mean_tolerance * true_average {
        return Err(format!(
            "cluster mean {cluster_mean:.3} too far from true average {true_average:.3}"
        ));
    }
    if stats.exchanges_completed == 0 {
        return Err("no exchange ever completed".to_string());
    }
    if options.faults && stats.messages_lost == 0 && stats.exchanges_vetoed == 0 {
        return Err("fault plan was active but never fired".to_string());
    }
    println!("every node converged to ≈{true_average:.2} using nothing but UDP push–pull gossip");
    Ok(())
}
