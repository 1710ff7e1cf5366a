//! Turns a workload's `Outcome` (and, in a traced run, the probes) into the
//! named metrics of `BENCHMARK.json`, and prints them. The two tables below
//! are the metric glossary; a unit test holds them equal to `BENCHMARK.json`.

use crate::drive::{Layers, Outcome, CYCLES_PER_EPOCH};
use crate::json::{obj, Value};
use crate::measure::{convergence_factor, median, peak_rss_mb, quantile, Sample};

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("exchanges_per_s", "1/s"),
    ("exchange_ns_p50", "ns"),
    ("exchange_ns_p90", "ns"),
    ("peak_rss_mb", "MB"),
    ("convergence_factor", "ratio"),
    ("estimate_accuracy", "ratio"),
    ("completed_share", "ratio"),
    ("state_digest_ok", "bool"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run (the
/// contract wants every one in every traced result). A probe metric has a
/// value in every run; a span or count metric reads 0 on a workload that
/// never calls the layer, and the failure counts read 0 on every good run.
/// Only end-to-end metrics carry a bound — a share of the parent's median —
/// so only they must never be 0.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("sim.soa.shuffle_ns_per_item", "ns"),
    ("sim.soa.pick_ns", "ns"),
    ("sim.soa.coin_ns", "ns"),
    ("sim.soa.pair_touch_ns", "ns"),
    ("sim.soa.sweep_ns_per_slot", "ns"),
    ("core.exchange.fused_raw_ns", "ns"),
    ("core.exchange.node_fused_ns", "ns"),
    ("core.exchange.message_ns", "ns"),
    ("core.node.end_cycle_ns", "ns"),
    ("core.node.end_cycle_restart_ns", "ns"),
    ("core.effects.fill_block_ns_per_word", "ns"),
    ("sim.sharded.build_s", "s"),
    ("sim.sharded.cycle_ms_p50", "ms"),
    ("sim.sharded.cycle_ms_p90", "ms"),
    ("sim.sharded.epoch_restart_cycle_ms", "ms"),
    ("sim.sharded.churn_ms_per_cycle", "ms"),
    ("sim.sharded.estimates_ms", "ms"),
    ("sim.sharded.residual_ns_per_exchange", "ns"),
    ("sim.sharded.exchanges", "count"),
    ("sim.sharded.messages_lost", "count"),
    ("sim.sharded.exchanges_blocked", "count"),
    ("sim.engine.build_s", "s"),
    ("sim.engine.cycle_ms_p50", "ms"),
    ("sim.engine.cycle_ms_p90", "ms"),
    ("sim.engine.churn_ms_per_cycle", "ms"),
    ("sim.engine.oracle_exchanges_per_s", "1/s"),
    ("sim.arena.slot_capacity_peak", "count"),
    ("sim.arena.free_slots_end", "count"),
    ("membership.newscast.build_s", "s"),
    ("membership.newscast.begin_cycle_ms", "ms"),
    ("membership.newscast.sample_ns", "ns"),
    ("faults.injector.begin_cycle_us", "us"),
    ("faults.injector.link_blocked_ns", "ns"),
    ("net.codec.encode_ns", "ns"),
    ("net.codec.decode_ns", "ns"),
    ("net.memory.create_s", "s"),
    ("net.memory.hop_ns", "ns"),
    ("net.node_core.begin_ns", "ns"),
    ("net.node_core.deliver_ns", "ns"),
    ("net.lockstep.build_s", "s"),
    ("net.lockstep.cycle_ms_p50", "ms"),
    ("net.lockstep.cycle_ms_p90", "ms"),
    ("net.lockstep.frames", "count"),
    ("net.lockstep.slowdown_vs_engine", "ratio"),
    ("net.udp.hop_us", "us"),
    ("net.udp.rtt_us_p50", "us"),
    ("net.udp.rtt_us_p99", "us"),
    ("net.udp.timeouts", "count"),
    ("telemetry.recorder.record_ns", "ns"),
    ("telemetry.sharded.record_cycle_ms", "ms"),
    ("telemetry.drain_ms_per_cycle", "ms"),
    ("telemetry.merge.ns_per_event", "ns"),
    ("telemetry.trace.jsonl_ns_per_event", "ns"),
    ("telemetry.events", "count"),
    ("telemetry.events_dropped", "count"),
    ("telemetry.disabled_cycle_ms", "ms"),
    ("telemetry.overhead_ratio", "ratio"),
    ("analysis.online_stats.push_ns", "ns"),
    ("bench.trace.coverage", "ratio"),
    ("bench.trace.overhead_ratio", "ratio"),
    ("bench.trace.spans", "count"),
    ("bench.samples", "count"),
    ("bench.cycles", "count"),
    ("bench.exchange_ns_p50", "ns"),
    ("bench.setup_reps", "count"),
];

/// Host ns per completed exchange of every cycle that had exchanges.
fn cycle_ns_per_exchange(outcome: &Outcome, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    outcome
        .timed
        .samples
        .iter()
        .filter(|s| s.exchanges > 0 && keep(s))
        .map(|s| s.ns as f64 / s.exchanges as f64)
        .collect()
}

pub fn end_to_end(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    let ns = cycle_ns_per_exchange(outcome, |_| true);
    let timed = &outcome.timed;
    let values = [
        median(&outcome.setup_s),
        timed.exchanges as f64 / (timed.timed_ns as f64 / 1e9),
        quantile(&ns, 0.5),
        quantile(&ns, 0.9),
        peak_rss_mb(),
        convergence_factor(&timed.variances, CYCLES_PER_EPOCH),
        1.0 - outcome.rel_error,
        1.0 - outcome.failed as f64 / timed.exchanges.max(1) as f64,
        f64::from(u8::from(outcome.gate.is_ok())),
    ];
    END_TO_END
        .iter()
        .map(|(name, _)| *name)
        .zip(values)
        .collect()
}

/// Every per-layer metric: the probes, what the workload measured itself,
/// and the three that need both (coverage, residual, span overhead).
pub fn per_layer(
    outcome: &Outcome,
    layers: &Layers,
    probes: &[(&'static str, f64)],
    span_count: usize,
) -> Vec<(&'static str, f64)> {
    let mut values: Vec<(&'static str, f64)> =
        PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect();
    let mut set = |name: &str, value: f64| {
        let slot = values
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer table"));
        slot.1 = value;
    };
    for &(name, value) in probes.iter().chain(&layers.metrics) {
        set(name, value);
    }

    // Layers sum to the whole? Probe cost of the calls one exchange makes,
    // over the measured cost of one exchange.
    let probe = |name: &str| {
        probes
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |p| p.1)
    };
    let covered_ns: f64 = layers
        .path
        .iter()
        .map(|&(name, to_ns, calls)| probe(name) * to_ns * calls)
        .sum();
    let measured_ns = median(&cycle_ns_per_exchange(outcome, |_| true));
    set("bench.trace.coverage", covered_ns / measured_ns);
    if let Some(engine_ns) = layers.engine_ns_per_exchange {
        set(
            "sim.sharded.residual_ns_per_exchange",
            engine_ns - covered_ns,
        );
    }

    // Cycles alternate between spans recording and not: the ratio of the two
    // halves is what the benchmark's own tracing costs.
    let half = |on: bool| median(&cycle_ns_per_exchange(outcome, |s| s.spans_on == on));
    set("bench.trace.overhead_ratio", half(true) / half(false));
    set("bench.trace.spans", span_count as f64);
    set("bench.samples", outcome.timed.samples.len() as f64);
    set("bench.cycles", outcome.timed.cycles as f64);
    set("bench.exchange_ns_p50", measured_ns);
    set("bench.setup_reps", outcome.setup_s.len() as f64);
    values
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Prints every metric by name with its unit, then the `info` line (what
/// `all` and `compare` read besides the metrics), then — last — the result
/// object of the contract.
pub fn print(
    workload: &str,
    seed: u64,
    fixed_cycles: bool,
    outcome: &Outcome,
    metrics: &[(&'static str, f64)],
) {
    for (name, value) in metrics {
        println!("{workload:<20} {name:<40} {value:>18.6} {}", unit_of(name));
    }
    let gate = match &outcome.gate {
        Ok(()) => "ok".to_string(),
        Err(why) => why.clone(),
    };
    let info = obj([
        ("workload", Value::Str(workload.into())),
        ("seed", Value::Str(seed.to_string())),
        (
            "mode",
            Value::Str(if fixed_cycles { "cycles" } else { "seconds" }.into()),
        ),
        ("nodes", Value::Num(outcome.nodes as f64)),
        ("cycles", Value::Num(outcome.timed.cycles as f64)),
        ("exchanges", Value::Num(outcome.timed.exchanges as f64)),
        ("samples", Value::Num(outcome.timed.samples.len() as f64)),
        ("setup_reps", Value::Num(outcome.setup_s.len() as f64)),
        ("ops_attempted", Value::Num(outcome.timed.exchanges as f64)),
        ("ops_failed", Value::Num(outcome.failed as f64)),
        ("rel_error", Value::Num(outcome.rel_error)),
        (
            "convergence_factor",
            Value::Num(convergence_factor(
                &outcome.timed.variances,
                CYCLES_PER_EPOCH,
            )),
        ),
        (
            "state_digest",
            Value::Str(format!("{:016x}", outcome.digest)),
        ),
        ("gate", Value::Str(gate)),
    ]);
    println!("info {}", info.render());
    let result = obj([
        ("correct", Value::Bool(outcome.gate.is_ok())),
        (
            "attempted",
            Value::Num(outcome.timed.exchanges.max(1) as f64),
        ),
        ("failed", Value::Num(outcome.failed as f64)),
        (
            "metrics",
            obj(metrics.iter().map(|&(name, value)| {
                (
                    name,
                    obj([
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(unit_of(name).into())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", result.render());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints. They must name the same metrics, units and
    /// workloads.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit")
                            .map_or("", |u| u.as_str().unwrap())
                            .to_string(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = crate::drive::WORKLOADS
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(workloads, ours);
    }
}
