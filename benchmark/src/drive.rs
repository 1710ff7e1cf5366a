//! Everything that touches the workspace: the six workloads and the layer
//! probes. This is the only file of the benchmark that names a workspace
//! type, so an API rename there needs a follow-up here and nowhere else.
//!
//! Every call into a layer goes through `Spans::span`; nothing from
//! `gossip_analysis::bench`, `ChurnRunner` or the examples is reused — the
//! numbers are the program's, not a helper's.

use crate::measure::{
    convergence_factor, median, probe_ns, quantile, state_digest, timed_loop, Budget, CycleOut,
    NsHistogram, Spans, Timed,
};
use aggregate_core::sampler::{PeerSampler, SamplerConfig, SliceDirectory};
use aggregate_core::{
    theory, AggregateKind, ExchangeCore, ExchangeScratch, ExchangeTally, GossipMessage,
    InstanceTag, LateJoinPolicy, ProtocolConfig, ProtocolNode, SeedSequence,
};
use gossip_analysis::OnlineStats;
use gossip_faults::{FaultInjector, FaultPlan, NetworkConditions, PlanInjector};
use gossip_net::{
    codec, Delivery, InMemoryNetwork, NodeCore, Transport, UdpTransport, VirtualCluster,
};
use gossip_sim::soa::{coin_from_word, index_from_word, shuffle_batched, HotStore, WordBuffer};
use gossip_sim::{
    ChurnSchedule, GossipSimulation, RedundancyConfig, ShardedConfig, ShardedSimulation,
    SimulationConfig,
};
use gossip_telemetry::{merge_events, trace, EventKind, FlightRecorder, TelemetryConfig};
use overlay_topology::NodeId;
use peer_sampling::NewscastSampler;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Workload names, in ledger order, each with its fixed cycle count (used
/// when no `--seconds` budget is given, so simulated statistics repeat
/// exactly for a seed; the timed loop adds the ten cycles that end the run
/// inside an epoch).
pub const WORKLOADS: [(&str, usize); 6] = [
    ("epoch_1m", 180),
    ("overlay_churn_30k", 120),
    ("fig4_reference_100k", 180),
    ("wire_lockstep_4k", 900),
    ("udp_lockstep_1k", 3000),
    ("epoch_traced_100k", 180),
];

/// Cycles per epoch of every workload (the paper's Figure 4 value).
pub const CYCLES_PER_EPOCH: usize = 30;
const SHARDS: usize = 8;
/// Floor of `rel_error`: below it the error is float rounding, not protocol.
const REL_ERROR_FLOOR: f64 = 1e-9;

/// What a workload hands back; `report.rs` turns it into metrics.
#[derive(Debug)]
pub struct Outcome {
    pub nodes: usize,
    /// One entry per set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    pub timed: Timed,
    pub rel_error: f64,
    pub digest: u64,
    /// Exchanges that did not complete for a reason the workload did not
    /// inject.
    pub failed: u64,
    /// `Ok` when the workload's correctness gate passed, else why not.
    pub gate: Result<(), String>,
    /// The per-layer side; worked out in a traced run only.
    pub layers: Option<Layers>,
}

/// What a traced run reads off its spans and counts.
#[derive(Debug)]
pub struct Layers {
    /// Per-layer metrics only this workload can measure.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sharded workloads: median ns per exchange inside `run_cycle` spans, the
    /// base `sim.sharded.residual_ns_per_exchange` subtracts the probes from.
    pub engine_ns_per_exchange: Option<f64>,
    /// `(probe metric, ns multiplier, calls per exchange)`: the layers an
    /// exchange of this workload passes through, for `bench.trace.coverage`.
    pub path: Vec<(&'static str, f64, f64)>,
}

/// Runs one workload. `seconds = None` runs its fixed cycle count.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: Option<f64>,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let fixed = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|(_, cycles)| *cycles)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let budget = seconds.map_or(Budget::Cycles(fixed), Budget::Seconds);
    match workload {
        "epoch_1m" => sharded_avg(1_000_000, false, seed, budget, spans),
        "epoch_traced_100k" => sharded_avg(100_000, true, seed, budget, spans),
        "overlay_churn_30k" => overlay_churn(seed, budget, spans),
        "fig4_reference_100k" => fig4_reference(seed, budget, spans),
        "wire_lockstep_4k" => wire_lockstep(seed, budget, spans),
        _ => udp_lockstep(seed, budget, spans),
    }
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// Local value of the `i`-th node ever created: spreads over 0..1000 so an
/// AVG instance has something to converge on in every workload.
fn local_value(i: usize) -> f64 {
    (i % 1_000) as f64
}

fn values(n: usize) -> Vec<f64> {
    (0..n).map(local_value).collect()
}

fn mean(vals: &[f64]) -> f64 {
    vals.iter().sum::<f64>() / vals.len() as f64
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter()
        .map(|x| x.to_bits())
        .eq(b.iter().map(|x| x.to_bits()))
}

fn protocol(late_join: LateJoinPolicy) -> Result<ProtocolConfig, String> {
    ProtocolConfig::builder()
        .cycles_per_epoch(CYCLES_PER_EPOCH as u32)
        .late_join(late_join)
        .build()
        .map_err(|e| e.to_string())
}

/// COUNT configuration of the two churn workloads: exactly four counting
/// instances every epoch, median-merged (`RedundancyConfig`). A probabilistic
/// `LeaderPolicy` makes the work a seed's luck — Poisson(4) leaders an epoch,
/// and after a badly-off epoch `Adaptive` elects ten times as many — which
/// moved per-exchange time by 37 % across seeds; the default policy's 0.01
/// fallback would elect N/100 leaders in epoch 0 and swamp the steady state.
fn counting_config(sampler: SamplerConfig) -> Result<SimulationConfig, String> {
    Ok(SimulationConfig {
        protocol: protocol(LateJoinPolicy::FixedState(0.0))?,
        conditions: NetworkConditions::reliable(),
        leader_policy: None,
        sampler,
        redundancy: Some(RedundancyConfig::median_of(4)),
    })
}

/// Builds the workload's system several times (dropping each instance before
/// the next is built, so peak RSS is one instance) and keeps the last.
/// Cheap set-ups repeat more often: their median has to be steady too.
fn set_up<T>(
    spans: &mut Spans,
    name: &'static str,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::new();
    let mut built = None;
    while seconds.len() < 3 || (seconds.len() < 200 && seconds.iter().sum::<f64>() < 0.5) {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(spans.span(name, &mut build)?);
        seconds.push(t0.elapsed().as_secs_f64());
    }
    Ok((built.expect("at least three repetitions ran"), seconds))
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// `cycle_ms_p50` and `_p90` over the recorded cycle spans of one engine.
fn cycle_layers(
    spans: &Spans,
    cycle_spans: &[&'static str],
    names: [&'static str; 2],
) -> Vec<(&'static str, f64)> {
    let all: Vec<f64> = cycle_spans
        .iter()
        .flat_map(|n| spans.durations_ns(n))
        .collect();
    vec![
        (names[0], ms(quantile(&all, 0.5))),
        (names[1], ms(quantile(&all, 0.9))),
    ]
}

/// Median ns per exchange inside the named cycle spans (the engine's own time,
/// without the benchmark's churn or drain calls around it).
fn span_ns_per_exchange(spans: &Spans, names: &[&'static str], exchanges_per_cycle: f64) -> f64 {
    let ns: Vec<f64> = names.iter().flat_map(|n| spans.durations_ns(n)).collect();
    median(&ns) / exchanges_per_cycle
}

fn cycle_span(cycle: usize, steady: &'static str, restart: &'static str) -> &'static str {
    if cycle % CYCLES_PER_EPOCH == CYCLES_PER_EPOCH - 1 {
        restart
    } else {
        steady
    }
}

/// Collects the per-epoch error of the aggregate a workload computes.
#[derive(Debug, Default)]
struct EpochErrors {
    completed: usize,
    errors: Vec<f64>,
}

impl EpochErrors {
    /// Records a completed epoch's estimate against the truth; the first
    /// epoch is warm-up (the paper's Figure 4 skips it too) and an epoch
    /// without an estimate (no leader elected) has no error to count.
    fn epoch(&mut self, estimate: Option<f64>, truth: f64) {
        self.completed += 1;
        if self.completed > 1 {
            self.errors
                .extend(estimate.map(|e| (e - truth).abs() / truth.abs()));
        }
    }

    /// The median over epochs, not the mean: a COUNT instance whose leader's
    /// mass departs in its first cycles is off by tens of percent, and one
    /// such epoch in six would otherwise decide the figure.
    fn rel_error(&self) -> f64 {
        median(&self.errors).max(REL_ERROR_FLOOR)
    }
}

fn check(gate: &mut Result<(), String>, ok: bool, why: impl FnOnce() -> String) {
    if gate.is_ok() && !ok {
        *gate = Err(why());
    }
}

// ---------------------------------------------------------------------------
// Workloads 1 and 6: the sharded engine on the SoA path, untraced and traced
// ---------------------------------------------------------------------------

fn sharded_avg_sim(vals: &[f64], seed: u64) -> Result<ShardedSimulation, String> {
    let config = ShardedConfig {
        base: SimulationConfig::averaging(protocol(LateJoinPolicy::LocalValue)?),
        shards: SHARDS,
        // One worker: the fused sequential executor, and a single-threaded
        // driver (the auto setting picks the threaded one on two cores).
        workers: Some(1),
    };
    ShardedSimulation::new(config, vals, seed).map_err(|e| e.to_string())
}

fn sharded_avg(
    nodes: usize,
    recorded: bool,
    seed: u64,
    budget: Budget,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let recording = TelemetryConfig {
        events: true,
        ring_capacity: 1 << 20,
        watchdog: None,
    };
    let (mut sim, setup_s) = set_up(spans, "sim.sharded.new", || {
        let mut sim = sharded_avg_sim(&values(nodes), seed)?;
        if recorded {
            sim.set_telemetry(recording);
        }
        Ok(sim)
    })?;
    let vals = values(nodes);
    let true_mean = mean(&vals);

    let mut errors = EpochErrors::default();
    let (mut lost, mut blocked, mut events) = (0u64, 0u64, 0u64);
    let mut mean_drift = 0.0f64;
    let timed = timed_loop(budget, CYCLES_PER_EPOCH, spans, |spans, cycle| {
        let name = cycle_span(
            cycle,
            "sim.sharded.run_cycle",
            "sim.sharded.run_cycle.restart",
        );
        let summary = spans.span(name, || sim.run_cycle());
        if recorded {
            events += spans.span("sim.sharded.drain_trace", || sim.drain_trace().len()) as u64;
        }
        lost += summary.messages_lost as u64;
        blocked += summary.exchanges_blocked as u64;
        mean_drift = mean_drift.max((summary.estimate_mean - true_mean).abs() / true_mean);
        if summary.completed_epoch.is_some() {
            errors.epoch(Some(summary.epoch_estimates.mean()), true_mean);
        }
        CycleOut {
            exchanges: summary.exchanges as u64,
            variance: summary.estimate_variance,
        }
    });
    let estimates = spans.span("sim.sharded.estimates", || sim.estimates());
    let dropped = sim.dropped_trace_events();
    drop(sim);

    let factor = convergence_factor(&timed.variances, CYCLES_PER_EPOCH);
    let mut gate = Ok(());
    check(
        &mut gate,
        (factor / theory::seq_rate() - 1.0).abs() <= 0.02,
        || {
            format!(
                "convergence factor {factor} not within 2% of {}",
                theory::seq_rate()
            )
        },
    );
    check(&mut gate, mean_drift <= 1e-9, || {
        format!("mean drifted by {mean_drift:e} (sum not conserved)")
    });
    check(&mut gate, errors.rel_error() <= 1e-6, || {
        format!("epoch estimates off by {:e}", errors.rel_error())
    });

    // Oracle of the recorded run: the same seed with telemetry off, timed per
    // cycle as the base of the overhead ratio. Recording must change nothing.
    let mut plain_ns = Vec::new();
    if recorded {
        let mut plain = sharded_avg_sim(&vals, seed)?;
        spans.span("sim.sharded.oracle", || {
            for _ in 0..timed.cycles {
                let t0 = Instant::now();
                plain.run_cycle();
                plain_ns.push(t0.elapsed().as_nanos() as f64);
            }
        });
        check(&mut gate, same_bits(&plain.estimates(), &estimates), || {
            "estimates differ from the telemetry-disabled run".into()
        });
        check(&mut gate, dropped == 0, || {
            format!("{dropped} trace events dropped")
        });
        // Loss-free, leaderless: ExchangeBegun + ExchangeCompleted per
        // exchange, one EpochRestarted per completed epoch.
        let expected = 2 * timed.exchanges + errors.completed as u64;
        check(&mut gate, events == expected, || {
            format!("{events} trace events, closed form says {expected}")
        });
    }

    let layers = spans.on.then(|| {
        let cycle_spans = ["sim.sharded.run_cycle", "sim.sharded.run_cycle.restart"];
        let per_cycle = timed.exchanges as f64 / timed.cycles as f64;
        let mut metrics = vec![
            (
                "sim.sharded.build_s",
                median(&spans.durations_ns("sim.sharded.new")) / 1e9,
            ),
            (
                "sim.sharded.estimates_ms",
                ms(median(&spans.durations_ns("sim.sharded.estimates"))),
            ),
            ("sim.sharded.exchanges", timed.exchanges as f64),
            ("sim.sharded.messages_lost", lost as f64),
            ("sim.sharded.exchanges_blocked", blocked as f64),
            (
                "sim.sharded.epoch_restart_cycle_ms",
                ms(median(&spans.durations_ns(cycle_spans[1]))),
            ),
        ];
        metrics.extend(cycle_layers(
            spans,
            &cycle_spans,
            ["sim.sharded.cycle_ms_p50", "sim.sharded.cycle_ms_p90"],
        ));
        // What an exchange of the fused SoA executor passes through, per
        // probe; every node is swept once in the end-of-cycle pass.
        let mut path = vec![
            ("sim.soa.shuffle_ns_per_item", 1.0, 1.0),
            ("sim.soa.pick_ns", 1.0, 1.0),
            ("core.exchange.fused_raw_ns", 1.0, 1.0),
            ("sim.soa.sweep_ns_per_slot", 1.0, 1.0),
            ("analysis.online_stats.push_ns", 1.0, 1.0),
        ];
        let mut engine_ns_per_exchange = span_ns_per_exchange(spans, &cycle_spans, per_cycle);
        if recorded {
            // With recording on, draining (and merging) the trace is part of
            // what the engine spends per exchange.
            engine_ns_per_exchange +=
                span_ns_per_exchange(spans, &["sim.sharded.drain_trace"], per_cycle);
            let record = median(&spans.durations_ns(cycle_spans[0]));
            let drain = median(&spans.durations_ns("sim.sharded.drain_trace"));
            metrics.extend([
                ("telemetry.sharded.record_cycle_ms", ms(record)),
                ("telemetry.drain_ms_per_cycle", ms(drain)),
                ("telemetry.events", events as f64),
                ("telemetry.events_dropped", dropped as f64),
                (
                    "telemetry.overhead_ratio",
                    (record + drain) / median(&plain_ns),
                ),
                ("telemetry.disabled_cycle_ms", ms(median(&plain_ns))),
            ]);
            path.extend([
                ("telemetry.recorder.record_ns", 1.0, 2.0),
                ("telemetry.merge.ns_per_event", 1.0, 2.0),
            ]);
        }
        Layers {
            metrics,
            engine_ns_per_exchange: Some(engine_ns_per_exchange),
            path,
        }
    });

    Ok(Outcome {
        nodes,
        setup_s,
        rel_error: errors.rel_error(),
        digest: state_digest(&estimates),
        failed: lost + blocked + dropped,
        gate,
        layers,
        timed,
    })
}

// ---------------------------------------------------------------------------
// Workloads 2 and 3: COUNT under the Figure 4 churn schedule, on each engine
// ---------------------------------------------------------------------------

/// The five calls the churn loop makes, on either cycle engine.
trait ChurnEngine {
    fn join(&mut self, value: f64);
    fn depart_random(&mut self, count: usize) -> usize;
    fn live(&self) -> usize;
    fn slot_capacity(&self) -> usize;
    fn free_slots(&self) -> usize;
    fn final_estimates(&mut self) -> Vec<f64>;
    fn cycle(&mut self) -> ChurnCycle;
}

struct ChurnCycle {
    exchanges: usize,
    lost: usize,
    blocked: usize,
    variance: f64,
    /// `Some(mean size estimate)` when the cycle completed an epoch (the
    /// inner `None`: no leader was elected, nobody reports a size).
    completed: Option<Option<f64>>,
}

impl ChurnEngine for ShardedSimulation {
    fn join(&mut self, value: f64) {
        self.add_node(value);
    }
    fn depart_random(&mut self, count: usize) -> usize {
        self.remove_random_nodes(count)
    }
    fn live(&self) -> usize {
        self.live_count()
    }
    fn slot_capacity(&self) -> usize {
        ShardedSimulation::slot_capacity(self)
    }
    fn free_slots(&self) -> usize {
        self.free_slot_count()
    }
    fn final_estimates(&mut self) -> Vec<f64> {
        self.estimates()
    }
    fn cycle(&mut self) -> ChurnCycle {
        let s = self.run_cycle();
        let sizes = &s.epoch_size_estimates;
        ChurnCycle {
            exchanges: s.exchanges,
            lost: s.messages_lost,
            blocked: s.exchanges_blocked,
            variance: s.estimate_variance,
            completed: s
                .completed_epoch
                .map(|_| (sizes.count() > 0).then(|| sizes.mean())),
        }
    }
}

impl ChurnEngine for GossipSimulation {
    fn join(&mut self, value: f64) {
        self.add_node(value);
    }
    fn depart_random(&mut self, count: usize) -> usize {
        self.remove_random_nodes(count)
    }
    fn live(&self) -> usize {
        self.live_count()
    }
    fn slot_capacity(&self) -> usize {
        GossipSimulation::slot_capacity(self)
    }
    fn free_slots(&self) -> usize {
        self.free_slot_count()
    }
    fn final_estimates(&mut self) -> Vec<f64> {
        self.estimates()
    }
    fn cycle(&mut self) -> ChurnCycle {
        let s = self.run_cycle();
        let sizes = &s.epoch_size_estimates;
        ChurnCycle {
            exchanges: s.exchanges,
            lost: s.messages_lost,
            blocked: s.exchanges_blocked,
            variance: s.estimate_variance,
            completed: s
                .completed_epoch
                .map(|_| (!sizes.is_empty()).then(|| mean(sizes))),
        }
    }
}

/// Span names of one engine in the churn loop.
struct ChurnSpans {
    cycle: &'static str,
    restart: &'static str,
    churn: &'static str,
}

struct ChurnRun {
    timed: Timed,
    errors: EpochErrors,
    lost: u64,
    blocked: u64,
    peak_live: usize,
    slot_capacity: usize,
    free_slots: usize,
    estimates: Vec<f64>,
    gate: Result<(), String>,
}

/// The churn loop, driven by the benchmark: apply the schedule's joins and
/// departures through the engine's public churn calls, then run the cycle.
fn churn_loop<E: ChurnEngine>(
    engine: &mut E,
    schedule: ChurnSchedule,
    budget: Budget,
    spans: &mut Spans,
    names: &ChurnSpans,
) -> ChurnRun {
    let mut errors = EpochErrors::default();
    let (mut lost, mut blocked) = (0u64, 0u64);
    let mut created = engine.live();
    let mut peak_live = created;
    let mut gate = Ok(());
    let timed = timed_loop(budget, CYCLES_PER_EPOCH, spans, |spans, cycle| {
        let (joins, departures) = schedule.changes_at(cycle);
        spans.span(names.churn, || {
            for _ in 0..joins {
                engine.join(local_value(created));
                created += 1;
            }
            peak_live = peak_live.max(engine.live());
            engine.depart_random(departures);
        });
        let out = spans.span(cycle_span(cycle, names.cycle, names.restart), || {
            engine.cycle()
        });
        let target = schedule.target_size(cycle + 1);
        check(&mut gate, engine.live() == target, || {
            format!(
                "cycle {cycle}: {} live nodes, schedule says {target}",
                engine.live()
            )
        });
        lost += out.lost as u64;
        blocked += out.blocked as u64;
        if let Some(size) = out.completed {
            errors.epoch(size, engine.live() as f64);
        }
        CycleOut {
            exchanges: out.exchanges as u64,
            variance: out.variance,
        }
    });
    ChurnRun {
        timed,
        errors,
        lost,
        blocked,
        peak_live,
        slot_capacity: engine.slot_capacity(),
        free_slots: engine.free_slots(),
        estimates: engine.final_estimates(),
        gate,
    }
}

fn overlay_churn(seed: u64, budget: Budget, spans: &mut Spans) -> Result<Outcome, String> {
    let base = 30_000;
    let schedule = ChurnSchedule::figure4_scaled(base);
    let nodes = schedule.target_size(0);
    let config = ShardedConfig {
        base: counting_config(SamplerConfig::Newscast { cache_size: 20 })?,
        shards: SHARDS,
        workers: Some(1),
    };
    let (mut sim, setup_s) = set_up(spans, "sim.sharded.new", || {
        ShardedSimulation::with_faults(
            config,
            &values(nodes),
            seed,
            FaultPlan::with_link_failure(0.05),
        )
        .map_err(|e| e.to_string())
    })?;
    let names = ChurnSpans {
        cycle: "sim.sharded.run_cycle",
        restart: "sim.sharded.run_cycle.restart",
        churn: "sim.sharded.churn",
    };
    let mut run = churn_loop(&mut sim, schedule, budget, spans, &names);
    drop(sim);
    let rel_error = run.errors.rel_error();
    check(&mut run.gate, rel_error < 0.06, || {
        format!("size error {rel_error} not below 6%")
    });

    let layers = spans.on.then(|| {
        let cycle_spans = [names.cycle, names.restart];
        let per_cycle = run.timed.exchanges as f64 / run.timed.cycles as f64;
        let mut metrics = vec![
            (
                "sim.sharded.build_s",
                median(&spans.durations_ns("sim.sharded.new")) / 1e9,
            ),
            (
                "sim.sharded.churn_ms_per_cycle",
                ms(median(&spans.durations_ns(names.churn))),
            ),
            ("sim.sharded.exchanges", run.timed.exchanges as f64),
            ("sim.sharded.messages_lost", run.lost as f64),
            ("sim.sharded.exchanges_blocked", run.blocked as f64),
            (
                "sim.sharded.epoch_restart_cycle_ms",
                ms(median(&spans.durations_ns(names.restart))),
            ),
            ("sim.arena.slot_capacity_peak", run.slot_capacity as f64),
            ("sim.arena.free_slots_end", run.free_slots as f64),
        ];
        metrics.extend(cycle_layers(
            spans,
            &cycle_spans,
            ["sim.sharded.cycle_ms_p50", "sim.sharded.cycle_ms_p90"],
        ));
        Layers {
            metrics,
            engine_ns_per_exchange: Some(span_ns_per_exchange(spans, &cycle_spans, per_cycle)),
            // Once the COUNT instances have spread (a few cycles into an
            // epoch) every initiator carries them and takes the message path.
            path: vec![
                ("membership.newscast.sample_ns", 1.0, 1.0),
                ("membership.newscast.begin_cycle_ms", 1e6, 1.0 / per_cycle),
                ("faults.injector.link_blocked_ns", 1.0, 1.0),
                ("core.exchange.message_ns", 1.0, 1.0),
                ("core.node.end_cycle_ns", 1.0, 1.0),
                ("analysis.online_stats.push_ns", 1.0, 1.0),
            ],
        }
    });
    Ok(Outcome {
        nodes,
        setup_s,
        rel_error,
        digest: state_digest(&run.estimates),
        // Link vetoes are injected, so they are not failures; loss is not.
        failed: run.lost,
        gate: run.gate,
        layers,
        timed: run.timed,
    })
}

fn fig4_reference(seed: u64, budget: Budget, spans: &mut Spans) -> Result<Outcome, String> {
    let schedule = ChurnSchedule::figure4();
    let nodes = schedule.target_size(0);
    let config = counting_config(SamplerConfig::UniformComplete)?;
    let (mut sim, setup_s) = set_up(spans, "sim.engine.try_new", || {
        GossipSimulation::try_new(config, &values(nodes), seed).map_err(|e| e.to_string())
    })?;
    let names = ChurnSpans {
        cycle: "sim.engine.run_cycle",
        restart: "sim.engine.run_cycle.restart",
        churn: "sim.engine.churn",
    };
    let mut run = churn_loop(&mut sim, schedule, budget, spans, &names);
    drop(sim);
    let rel_error = run.errors.rel_error();
    check(&mut run.gate, rel_error < 0.05, || {
        format!("tracking error {rel_error} not below 5%")
    });
    // Slot reuse: capacity is bounded by the live peak (taken after a
    // cycle's joins, before its departures).
    let joins_per_cycle = schedule.changes_at(0).0;
    check(
        &mut run.gate,
        run.slot_capacity <= run.peak_live + joins_per_cycle,
        || {
            format!(
                "arena grew to {} slots for a live peak of {}",
                run.slot_capacity, run.peak_live
            )
        },
    );
    check(&mut run.gate, run.lost + run.blocked == 0, || {
        "reliable run lost messages".into()
    });

    let layers = spans.on.then(|| {
        let mut metrics = vec![
            (
                "sim.engine.build_s",
                median(&spans.durations_ns("sim.engine.try_new")) / 1e9,
            ),
            (
                "sim.engine.churn_ms_per_cycle",
                ms(median(&spans.durations_ns(names.churn))),
            ),
            ("sim.arena.slot_capacity_peak", run.slot_capacity as f64),
            ("sim.arena.free_slots_end", run.free_slots as f64),
        ];
        metrics.extend(cycle_layers(
            spans,
            &[names.cycle, names.restart],
            ["sim.engine.cycle_ms_p50", "sim.engine.cycle_ms_p90"],
        ));
        Layers {
            metrics,
            engine_ns_per_exchange: None,
            path: vec![
                ("core.exchange.message_ns", 1.0, 1.0),
                ("core.node.end_cycle_ns", 1.0, 1.0),
            ],
        }
    });
    Ok(Outcome {
        nodes,
        setup_s,
        rel_error,
        digest: state_digest(&run.estimates),
        failed: run.lost + run.blocked,
        gate: run.gate,
        layers,
        timed: run.timed,
    })
}

// ---------------------------------------------------------------------------
// Workload 4: every message through the codec and an in-memory channel
// ---------------------------------------------------------------------------

fn wire_lockstep(seed: u64, budget: Budget, spans: &mut Spans) -> Result<Outcome, String> {
    let nodes = 4_096;
    let vals = values(nodes);
    let true_mean = mean(&vals);
    let config = SimulationConfig::averaging(protocol(LateJoinPolicy::LocalValue)?);
    let (mut wire, setup_s) = set_up(spans, "net.lockstep.new", || {
        VirtualCluster::new(config, &vals, seed).map_err(|e| e.to_string())
    })?;

    let mut summaries = Vec::new();
    let timed = timed_loop(budget, CYCLES_PER_EPOCH, spans, |spans, _| {
        let summary = spans.span("net.lockstep.run_cycle", || wire.run_cycle());
        let out = CycleOut {
            exchanges: summary.exchanges as u64,
            variance: summary.estimate_variance,
        };
        summaries.push(summary);
        out
    });
    let estimates = wire.estimates();
    drop(wire);

    // Oracle: the reference engine on the same seed takes the same
    // trajectory, summary for summary.
    let mut engine = GossipSimulation::try_new(config, &vals, seed).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let oracle = spans.span("sim.engine.oracle", || engine.run(timed.cycles));
    let oracle_s = t0.elapsed().as_secs_f64();
    let mut gate = Ok(());
    check(&mut gate, summaries == oracle, || {
        let at = summaries.iter().zip(&oracle).position(|(a, b)| a != b);
        format!("wire and engine summaries diverge at cycle {at:?}")
    });

    let mut errors = EpochErrors::default();
    let mut lost = 0u64;
    for s in &summaries {
        lost += (s.messages_lost + s.exchanges_blocked) as u64;
        if s.completed_epoch.is_some() {
            errors.epoch(Some(mean(&s.epoch_estimates)), true_mean);
        }
    }
    let layers = spans.on.then(|| {
        let cycles_ns = spans.durations_ns("net.lockstep.run_cycle");
        let wire_s = cycles_ns.iter().sum::<f64>() / 1e9;
        let traced_share = cycles_ns.len() as f64 / timed.cycles as f64;
        let mut metrics = vec![
            (
                "net.lockstep.build_s",
                median(&spans.durations_ns("net.lockstep.new")) / 1e9,
            ),
            ("net.lockstep.frames", 2.0 * timed.exchanges as f64),
            (
                "sim.engine.oracle_exchanges_per_s",
                timed.exchanges as f64 / oracle_s,
            ),
            // Wire seconds of the recorded cycles against the oracle's
            // seconds for as many cycles.
            (
                "net.lockstep.slowdown_vs_engine",
                wire_s / (oracle_s * traced_share),
            ),
        ];
        metrics.extend(cycle_layers(
            spans,
            &["net.lockstep.run_cycle"],
            ["net.lockstep.cycle_ms_p50", "net.lockstep.cycle_ms_p90"],
        ));
        Layers {
            metrics,
            engine_ns_per_exchange: None,
            // `hop` is send + receive on a channel and so contains one
            // encode and one decode; a push and a reply cross per exchange.
            path: vec![
                ("net.memory.hop_ns", 1.0, 2.0),
                ("net.node_core.begin_ns", 1.0, 1.0),
                ("net.node_core.deliver_ns", 1.0, 2.0),
                ("core.node.end_cycle_ns", 1.0, 1.0),
            ],
        }
    });
    Ok(Outcome {
        nodes,
        setup_s,
        rel_error: errors.rel_error(),
        digest: state_digest(&estimates),
        failed: lost,
        gate,
        layers,
        timed,
    })
}

// ---------------------------------------------------------------------------
// Workload 5: real sockets on loopback, closed loop, one exchange in flight
// ---------------------------------------------------------------------------

/// How a message gets from one node to the other in the lockstep schedule:
/// over the sockets, or handed across directly (the transport-free replay).
/// `None` is a timeout.
type Carry<'a> = &'a mut dyn FnMut(&GossipMessage) -> Option<GossipMessage>;

struct Lockstep {
    cores: Vec<NodeCore>,
    order: Vec<u32>,
    rng: StdRng,
    pushes: Vec<GossipMessage>,
    errors: EpochErrors,
    true_mean: f64,
    timeouts: u64,
}

impl Lockstep {
    fn new(nodes: usize, seed: u64) -> Result<Self, String> {
        let config = protocol(LateJoinPolicy::LocalValue)?;
        let vals = values(nodes);
        Ok(Lockstep {
            cores: vals
                .iter()
                .enumerate()
                .map(|(i, &v)| NodeCore::new(ProtocolNode::new(NodeId::new(i), config, v)))
                .collect(),
            order: (0..nodes as u32).collect(),
            // stream: the benchmark's own schedule (initiator order, peers)
            rng: SeedSequence::new(seed).rng_for_labeled(0, "ledger-lockstep"),
            pushes: Vec::new(),
            errors: EpochErrors::default(),
            true_mean: mean(&vals),
            timeouts: 0,
        })
    }

    /// One cycle: every node initiates once, in shuffled order, against a
    /// uniform peer; the next exchange starts when the previous one is done.
    /// Records one round-trip time per exchange in `rtt_ns` when given.
    fn cycle(
        &mut self,
        push: Carry,
        reply: Carry,
        mut rtt_ns: Option<&mut NsHistogram>,
    ) -> CycleOut {
        let n = self.cores.len();
        self.order.shuffle(&mut self.rng);
        let mut exchanges = 0;
        for idx in 0..n {
            let i = self.order[idx] as usize;
            let mut j = self.rng.gen_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            let t0 = Instant::now();
            if !self.cores[i].begin(NodeId::new(j), &mut self.pushes) {
                continue;
            }
            exchanges += 1;
            for k in 0..self.pushes.len() {
                let sent = self.pushes[k];
                let Some(arrived) = push(&sent) else {
                    self.timeouts += 1;
                    continue;
                };
                if let Delivery::Reply(answer) = self.cores[j].deliver(arrived) {
                    match reply(&answer) {
                        Some(back) => {
                            self.cores[i].deliver(back);
                        }
                        None => self.timeouts += 1,
                    }
                }
            }
            self.cores[i].close_pending();
            if let Some(samples) = rtt_ns.as_deref_mut() {
                samples.record(t0.elapsed().as_nanos() as u64);
            }
        }
        let (mut completed, mut live) = (OnlineStats::new(), OnlineStats::new());
        for core in &mut self.cores {
            if let Some(estimate) = core.end_cycle().and_then(|r| r.default_estimate()) {
                completed.push(estimate);
            }
            if let Some(estimate) = core.estimate() {
                live.push(estimate);
            }
        }
        if completed.count() > 0 {
            self.errors.epoch(Some(completed.mean()), self.true_mean);
        }
        CycleOut {
            exchanges,
            variance: live.sample_variance(),
        }
    }

    fn estimates(&self) -> Vec<f64> {
        self.cores.iter().filter_map(NodeCore::estimate).collect()
    }
}

/// Two sockets on 127.0.0.1: `a`'s address book maps every node id to `b`
/// and the reverse, so pushes go a→b and replies b→a — the whole real-socket
/// path with the socket count held at this box's two cores.
fn socket_pair(nodes: usize) -> Result<(UdpTransport, UdpTransport), String> {
    let any: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
    let mut a = UdpTransport::bind(NodeId::new(0), any, Vec::new()).map_err(|e| e.to_string())?;
    let mut b = UdpTransport::bind(NodeId::new(1), any, Vec::new()).map_err(|e| e.to_string())?;
    let (addr_a, addr_b) = (
        a.local_address().map_err(|e| e.to_string())?,
        b.local_address().map_err(|e| e.to_string())?,
    );
    for id in 0..nodes {
        a.register_peer(NodeId::new(id), addr_b);
        b.register_peer(NodeId::new(id), addr_a);
    }
    Ok((a, b))
}

/// `send` on one socket, `recv_timeout` on the other. A timeout (or a frame
/// that does not decode) is `None`.
fn udp_hop(
    from: &UdpTransport,
    to: &UdpTransport,
    message: &GossipMessage,
) -> Option<GossipMessage> {
    from.send(message).ok()?;
    to.recv_timeout(Duration::from_secs(1)).ok().flatten()
}

fn udp_lockstep(seed: u64, budget: Budget, spans: &mut Spans) -> Result<Outcome, String> {
    let nodes = 1_024;
    let ((mut lockstep, a, b), setup_s) = set_up(spans, "net.udp.bind", || {
        let (a, b) = socket_pair(nodes)?;
        Ok((Lockstep::new(nodes, seed)?, a, b))
    })?;
    let mut rtt_ns = NsHistogram::new();
    let timed = timed_loop(budget, CYCLES_PER_EPOCH, spans, |spans, _| {
        spans.span("net.udp.cycle", || {
            lockstep.cycle(
                &mut |m| udp_hop(&a, &b, m),
                &mut |m| udp_hop(&b, &a, m),
                Some(&mut rtt_ns),
            )
        })
    });

    // Oracle: the same schedule with no transport in between.
    let mut replay = Lockstep::new(nodes, seed)?;
    spans.span("net.udp.replay", || {
        for _ in 0..timed.cycles {
            replay.cycle(&mut |m| Some(*m), &mut |m| Some(*m), None);
        }
    });
    let estimates = lockstep.estimates();
    let mut gate = Ok(());
    check(&mut gate, lockstep.timeouts == 0, || {
        format!("{} timeouts", lockstep.timeouts)
    });
    check(
        &mut gate,
        same_bits(&estimates, &replay.estimates()),
        || "estimates differ from the transport-free replay".into(),
    );

    let layers = spans.on.then(|| Layers {
        metrics: vec![
            ("net.udp.rtt_us_p50", rtt_ns.quantile(0.5) / 1e3),
            ("net.udp.rtt_us_p99", rtt_ns.quantile(0.99) / 1e3),
            ("net.udp.timeouts", lockstep.timeouts as f64),
        ],
        engine_ns_per_exchange: None,
        // A hop is encode → send_to → recv_from → decode.
        path: vec![
            ("net.udp.hop_us", 1e3, 2.0),
            ("net.node_core.begin_ns", 1.0, 1.0),
            ("net.node_core.deliver_ns", 1.0, 2.0),
            ("core.node.end_cycle_ns", 1.0, 1.0),
        ],
    });
    Ok(Outcome {
        nodes,
        setup_s,
        rel_error: lockstep.errors.rel_error(),
        digest: state_digest(&estimates),
        failed: lockstep.timeouts,
        gate,
        layers,
        timed,
    })
}

// ---------------------------------------------------------------------------
// Layer probes: each layer's public functions, called standalone
// ---------------------------------------------------------------------------

/// Calls every layer's public functions standalone on inputs of the
/// workloads' sizes and returns `(metric, value)`; units are in `report.rs`.
/// Inputs come from `seed`; the probes run in every traced invocation so each
/// layer has a number next to whatever workload was traced.
pub fn probes(seed: u64, spans: &mut Spans) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    spans.span("probe.sim.soa", || soa_probes(seed, &mut out));
    spans.span("probe.core", || core_probes(seed, &mut out));
    spans.span("probe.membership", || newscast_probes(seed, &mut out));
    spans.span("probe.faults", || injector_probes(seed, &mut out));
    spans.span("probe.net", || net_probes(&mut out));
    spans.span("probe.telemetry", || telemetry_probes(&mut out));
    out
}

type Probed = Vec<(&'static str, f64)>;

/// `count` pairs of distinct indices below `n`.
fn random_pairs(n: usize, count: usize, rng: &mut StdRng) -> Vec<(u32, u32)> {
    (0..count)
        .map(|_| {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            (a as u32, b as u32)
        })
        .collect()
}

fn soa_probes(seed: u64, out: &mut Probed) {
    const N: usize = 1_000_000;
    let mut rng = StdRng::seed_from_u64(seed);

    // u64 entries, as the SoA executor shuffles them (position << 32 |
    // packed endpoint): 8 MB at 10⁶, past the last-level cache.
    let mut order: Vec<u64> = (0..N as u64).collect();
    let shuffle = probe_ns(1, || shuffle_batched(black_box(&mut order), &mut rng));
    out.push(("sim.soa.shuffle_ns_per_item", shuffle / N as f64));

    let mut words = WordBuffer::new();
    let mut acc = 0usize;
    out.push((
        "sim.soa.pick_ns",
        probe_ns(N, || {
            acc ^= index_from_word(words.next(&mut rng), black_box(N))
        }),
    ));
    out.push((
        "sim.soa.coin_ns",
        probe_ns(N, || {
            acc += usize::from(coin_from_word(words.next(&mut rng), black_box(0.05)))
        }),
    ));
    black_box(acc);

    // 16 B × 10⁶ hot records: well past the last-level cache, as in epoch_1m.
    let mut store = HotStore::default();
    for slot in 0..N as u32 {
        let view = aggregate_core::HotView {
            state: local_value(slot as usize),
            epoch: 0,
            cycle_in_epoch: 0,
            exchanges: 0,
        };
        store.promote(slot, view, 0.0);
    }
    let pairs = random_pairs(N, N, &mut rng);
    let touch = probe_ns(1, || {
        for &(a, b) in &pairs {
            let (x, y) = store.pair_mut(a, b);
            x.exchanges = x.exchanges.wrapping_add(1);
            y.exchanges = y.exchanges.wrapping_add(1);
        }
    });
    out.push(("sim.soa.pair_touch_ns", touch / N as f64));

    let mut tally = ExchangeTally::default();
    let fused = probe_ns(1, || {
        for &(a, b) in &pairs {
            let (x, y) = store.pair_mut(a, b);
            ExchangeCore::exchange_fused_raw(
                AggregateKind::Average,
                &mut x.state,
                &mut x.exchanges,
                &mut y.state,
                &mut y.exchanges,
                &mut || false,
                &mut tally,
            );
        }
    });
    black_box(tally);
    out.push(("core.exchange.fused_raw_ns", fused / N as f64));

    // The memory traffic of the end-of-cycle pass: every slot's record, cycle
    // position and restart value read and written back, in slot order.
    let sweep = probe_ns(1, || {
        for slot in 0..N as u32 {
            if let Some(mut view) = store.view(slot) {
                view.cycle_in_epoch += 1;
                store.promote(slot, view, 0.0);
            }
        }
    });
    out.push(("sim.soa.sweep_ns_per_slot", sweep / N as f64));
}

fn core_probes(seed: u64, out: &mut Probed) {
    const N: usize = 100_000;
    let mut rng = StdRng::seed_from_u64(seed ^ 1);
    let config = protocol(LateJoinPolicy::FixedState(0.0)).expect("valid constant configuration");
    let pairs = random_pairs(N, N, &mut rng);
    let fresh = || -> Vec<ProtocolNode> {
        (0..N)
            .map(|i| ProtocolNode::new(NodeId::new(i), config, local_value(i)))
            .collect()
    };
    let exchange_all = |nodes: &mut [ProtocolNode]| {
        let mut scratch = ExchangeScratch::new();
        let mut tally = ExchangeTally::default();
        probe_ns(1, || {
            for &(a, b) in &pairs {
                let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
                let (head, tail) = nodes.split_at_mut(hi);
                let (x, y) = (&mut head[lo], &mut tail[0]);
                let (initiator, peer) = if a < b { (x, y) } else { (y, x) };
                ExchangeCore::exchange(initiator, peer, &mut scratch, &mut || false, &mut tally);
            }
        }) / N as f64
    };

    let mut nodes = fresh();
    out.push(("core.exchange.node_fused_ns", exchange_all(&mut nodes)));

    // Four led COUNT instances on every node: what an initiator carries once
    // the size-estimation instances of an epoch have spread.
    for node in &mut nodes {
        for leader in 0..4 {
            node.start_led_instance(InstanceTag::from_leader(NodeId::new(leader)), 0.0);
        }
    }
    out.push(("core.exchange.message_ns", exchange_all(&mut nodes)));

    // 29 steady cycles then the one that restarts the epoch, three epochs.
    let mut nodes = fresh();
    let (mut steady, mut restart) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for cycle in 0..CYCLES_PER_EPOCH {
            let t0 = Instant::now();
            for node in &mut nodes {
                black_box(node.end_cycle());
            }
            let ns = t0.elapsed().as_nanos() as f64 / N as f64;
            if cycle + 1 == CYCLES_PER_EPOCH {
                restart.push(ns);
            } else {
                steady.push(ns);
            }
        }
    }
    out.push(("core.node.end_cycle_ns", median(&steady)));
    out.push(("core.node.end_cycle_restart_ns", median(&restart)));

    let seeds = SeedSequence::new(seed);
    let mut block = vec![0u64; 1024];
    let mut start = 0u64;
    let fill = probe_ns(1_000, || {
        seeds.fill_block(start, black_box(&mut block));
        start += 1024;
    });
    out.push(("core.effects.fill_block_ns_per_word", fill / 1024.0));

    let mut stats = OnlineStats::new();
    let mut x = 0.0;
    out.push((
        "analysis.online_stats.push_ns",
        probe_ns(1_000_000, || {
            x += 1.0;
            stats.push(black_box(x));
        }),
    ));
    black_box(stats.mean());
}

fn newscast_probes(seed: u64, out: &mut Probed) {
    const N: usize = 30_000;
    let ids: Vec<NodeId> = (0..N).map(NodeId::new).collect();
    let directory = SliceDirectory::new(&ids);
    let t0 = Instant::now();
    let mut sampler = NewscastSampler::new(20, &ids, seed);
    out.push(("membership.newscast.build_s", t0.elapsed().as_secs_f64()));
    out.push((
        "membership.newscast.begin_cycle_ms",
        ms(probe_ns(1, || sampler.begin_cycle(&directory))),
    ));
    let mut rng = StdRng::seed_from_u64(seed ^ 2);
    let mut pos = 0;
    out.push((
        "membership.newscast.sample_ns",
        probe_ns(N, || {
            black_box(sampler.sample(&directory, pos, &mut rng));
            pos = (pos + 1) % N;
        }),
    ));
}

fn injector_probes(seed: u64, out: &mut Probed) {
    let mut injector = PlanInjector::new(FaultPlan::with_link_failure(0.05), seed);
    let mut cycle = 0;
    out.push((
        "faults.injector.begin_cycle_us",
        probe_ns(10_000, || {
            injector.begin_cycle(cycle);
            cycle += 1;
        }) / 1e3,
    ));
    let pairs = random_pairs(30_000, 100_000, &mut StdRng::seed_from_u64(seed ^ 3));
    let mut blocked = 0u32;
    let ns = probe_ns(1, || {
        for &(a, b) in &pairs {
            blocked +=
                u32::from(injector.link_blocked(NodeId::new(a as usize), NodeId::new(b as usize)));
        }
    });
    black_box(blocked);
    out.push(("faults.injector.link_blocked_ns", ns / pairs.len() as f64));
}

fn net_probes(out: &mut Probed) {
    let push = GossipMessage::Push {
        from: NodeId::new(0),
        to: NodeId::new(1),
        instance: InstanceTag::DEFAULT,
        epoch: 3,
        value: 499.5,
    };
    out.push((
        "net.codec.encode_ns",
        probe_ns(1_000_000, || {
            black_box(codec::encode(black_box(&push)));
        }),
    ));
    let frame = codec::encode(&push);
    out.push((
        "net.codec.decode_ns",
        probe_ns(1_000_000, || {
            black_box(codec::decode(black_box(&frame)).is_ok());
        }),
    ));

    // The quadratic set-up of the wire workload, at its size; then hops
    // between random endpoints of that network, so each send looks its
    // recipient up in a 4 095-entry map that is cold, as in the workload.
    const ENDPOINTS: usize = 4_096;
    let t0 = Instant::now();
    let endpoints = InMemoryNetwork::create(ENDPOINTS);
    out.push(("net.memory.create_s", t0.elapsed().as_secs_f64()));
    let wait = Duration::from_secs(1);
    let frames: Vec<GossipMessage> =
        random_pairs(ENDPOINTS, 100_000, &mut StdRng::seed_from_u64(4))
            .into_iter()
            .map(|(from, to)| GossipMessage::Push {
                from: NodeId::new(from as usize),
                to: NodeId::new(to as usize),
                instance: InstanceTag::DEFAULT,
                epoch: 3,
                value: 499.5,
            })
            .collect();
    let hops = probe_ns(1, || {
        for frame in &frames {
            let (from, to) = (frame.sender().as_u32(), frame.recipient().as_u32());
            black_box(endpoints[from as usize].send(frame).is_ok());
            black_box(endpoints[to as usize].recv_timeout(wait).is_ok());
        }
    });
    out.push(("net.memory.hop_ns", hops / frames.len() as f64));
    drop(endpoints);

    let config = ProtocolConfig::default();
    let mut a = NodeCore::new(ProtocolNode::new(NodeId::new(0), config, 1.0));
    let mut b = NodeCore::new(ProtocolNode::new(NodeId::new(1), config, 2.0));
    let mut pushes = Vec::new();
    let begin = probe_ns(1_000_000, || {
        black_box(a.begin(NodeId::new(1), &mut pushes));
        a.close_pending();
    });
    out.push(("net.node_core.begin_ns", begin));
    // A whole exchange is one begin and two deliveries.
    let exchange = probe_ns(1_000_000, || {
        a.begin(NodeId::new(1), &mut pushes);
        if let Delivery::Reply(reply) = b.deliver(pushes[0]) {
            black_box(a.deliver(reply));
        }
    });
    out.push((
        "net.node_core.deliver_ns",
        (exchange - begin).max(0.0) / 2.0,
    ));

    match socket_pair(2) {
        Ok((x, y)) => out.push((
            "net.udp.hop_us",
            probe_ns(50_000, || {
                black_box(udp_hop(&x, &y, &push));
            }) / 1e3,
        )),
        Err(_) => out.push(("net.udp.hop_us", f64::NAN)),
    }
}

fn telemetry_probes(out: &mut Probed) {
    const EVENTS: usize = 1 << 20;
    let mut recorder = FlightRecorder::new(EVENTS);
    let mut seq = 0u64;
    out.push((
        "telemetry.recorder.record_ns",
        probe_ns(EVENTS / 8, || {
            recorder.record(seq, EventKind::ExchangeCompleted);
            seq += 1;
        }),
    ));
    drop(recorder);

    // Eight shard rings' worth of one cycle, interleaved by sequence number
    // as the sharded engine's workers leave them.
    let batches = || -> Vec<Vec<gossip_telemetry::Event>> {
        (0..SHARDS as u64)
            .map(|shard| {
                let mut ring = FlightRecorder::new(EVENTS);
                for i in 0..(EVENTS / SHARDS) as u64 {
                    ring.record(i * SHARDS as u64 + shard, EventKind::ExchangeCompleted);
                }
                ring.drain()
            })
            .collect()
    };
    let mut merged = Vec::new();
    let merge: Vec<f64> = (0..3)
        .map(|_| {
            let input = batches();
            let t0 = Instant::now();
            merged = merge_events(input);
            t0.elapsed().as_nanos() as f64 / EVENTS as f64
        })
        .collect();
    out.push(("telemetry.merge.ns_per_event", median(&merge)));

    let sample = &merged[..100_000];
    out.push((
        "telemetry.trace.jsonl_ns_per_event",
        probe_ns(1, || {
            black_box(trace::to_jsonl(sample).len());
        }) / sample.len() as f64,
    ));
}
