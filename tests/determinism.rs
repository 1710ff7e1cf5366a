//! Seeded reproducibility as one declared matrix.
//!
//! Every bit-exact run pin is a [`Cell`]: a runtime, a population, a scenario
//! and a seed. [`run`] drives any cell to a [`RunDigest`], [`fingerprint`]
//! folds it, and `GOLDENS.md` is the matrix rendered, one row per cell. Each
//! named check runs its cells (once per test process) and holds their rows
//! and declared relations; on drift it writes the regenerated table to
//! `CARGO_TARGET_TMPDIR` and names the cells that moved. A deliberate re-pin
//! copies that file over `GOLDENS.md`.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, PoisonError};

use aggregate_core::config::{LateJoinPolicy, ProtocolConfigBuilder};
use epidemic_aggregation::membership::NodeDescriptor;
use epidemic_aggregation::prelude::*;
use rand::SeedableRng;

const GOLDENS: &str = include_str!("../GOLDENS.md");

/// `GOLDENS.md` above its first row.
const HEADER: &str = "# Goldens

Generated by `tests/determinism.rs`; DESIGN.md (Goldens) explains the columns,
the relations and how to re-pin. Do not edit by hand. A cell is named
`scenario@seed/runtime`, with `/full` when traced. Node `i` starts at `i % m`,
and `churn` nodes join and as many random nodes leave before every cycle.

| cell | nodes | cycles | churn | config | faults | adversary | exchanges | lost | blocked | epochs | last size | fingerprint | relations |
|---|---|---|---|---|---|---|---|---|---|---|---|---|---|
";

/// `GossipSimulation`, `ShardedSimulation` at k shards, or `VirtualCluster`.
#[derive(Clone, Copy, Debug)]
enum Runtime {
    Reference,
    Sharded(usize),
    Wire,
}

/// A relation a cell declares to its twin run.
#[derive(Clone, Copy, Debug)]
enum Relation {
    /// The whole digest equals the same cell's on the reference engine.
    IdenticalToReference,
    /// The whole digest, trace aside, equals the same cell's untraced.
    IdenticalToUntraced,
    /// Counters, estimates and trace equal the same cell's on one shard, and
    /// the moments agree within 1e-9: only summation order may differ.
    SameNodes,
    /// The same cell at seed + 1 has a different fingerprint.
    Differs,
}

/// One seeded run, a plain value. Node `i` starts at `i % modulus`; before
/// every cycle `churn` nodes join and as many random nodes leave.
#[derive(Clone, Debug)]
struct Cell {
    scenario: &'static str,
    runtime: Runtime,
    nodes: usize,
    modulus: usize,
    cycles: usize,
    churn: usize,
    config: SimulationConfig,
    faults: FaultPlan,
    adversary: AdversaryPlan,
    traced: bool,
    seed: u64,
    relations: Vec<Relation>,
    /// CI-scale: run only by the ignored check that names it.
    slow: bool,
}

fn cell(scenario: &'static str, nodes: (usize, usize), cycles: (usize, usize), seed: u64) -> Cell {
    Cell {
        scenario,
        runtime: Runtime::Reference,
        nodes: nodes.0,
        modulus: nodes.1,
        cycles: cycles.0,
        churn: cycles.1,
        config: SimulationConfig::averaging(ProtocolConfig::builder().build().unwrap()),
        faults: FaultPlan::none(),
        adversary: AdversaryPlan::none(),
        traced: false,
        seed,
        relations: Vec::new(),
        slow: false,
    }
}

impl Cell {
    fn with(mut self, edit: impl FnOnce(&mut Cell)) -> Self {
        edit(&mut self);
        self
    }

    fn protocol(self, edit: impl FnOnce(ProtocolConfigBuilder) -> ProtocolConfigBuilder) -> Self {
        self.with(|c| c.config.protocol = edit(ProtocolConfig::builder()).build().unwrap())
    }

    fn on(self, runtime: Runtime) -> Self {
        self.with(|c| c.runtime = runtime)
    }

    fn rel(self, relation: Relation) -> Self {
        self.with(|c| c.relations.push(relation))
    }

    fn name(&self) -> String {
        let runtime = match self.runtime {
            Runtime::Reference => "ref".to_string(),
            Runtime::Sharded(k) => format!("shards{k}"),
            Runtime::Wire => "wire".to_string(),
        };
        let trace = if self.traced { "/full" } else { "" };
        format!("{}@{}/{runtime}{trace}", self.scenario, self.seed)
    }

    /// The run `relation` compares this cell with.
    fn twin(&self, relation: Relation) -> Cell {
        self.clone().with(|c| match relation {
            Relation::IdenticalToReference => c.runtime = Runtime::Reference,
            Relation::IdenticalToUntraced => c.traced = false,
            Relation::SameNodes => c.runtime = Runtime::Sharded(1),
            Relation::Differs => c.seed += 1,
        })
    }
}

/// Every pinned run, in `GOLDENS.md` order, laid out as a table.
#[rustfmt::skip]
fn matrix() -> Vec<Cell> {
    use Relation::*;
    use Runtime::{Sharded, Wire};
    let epoch = |n: u32| move |p: ProtocolConfigBuilder| p.cycles_per_epoch(n);
    let late0 = |n: u32| move |p: ProtocolConfigBuilder| p.cycles_per_epoch(n).late_join(LateJoinPolicy::FixedState(0.0));
    let newscast = SamplerConfig::newscast();
    let static10 = SamplerConfig::StaticOverlay { topology: TopologyKind::RandomRegular { degree: 10 } };
    let leaders = Some(LeaderPolicy::Fixed { probability: 0.02 });
    let median3 = Some(RedundancyConfig::median_of(3));
    let median4_loss = |c: &mut Cell| (c.config.conditions.message_loss, c.config.redundancy) = (0.05, Some(RedundancyConfig::median_of(4)));
    let links = |link_failure, base_loss, rest| FaultPlan { link_failure, base_loss, ..rest };
    let full = |c: &mut Cell| c.traced = true;
    let mut m = Vec::new();

    // The Section 3 averaging run on the reference engine and the wire
    // cluster, untraced and traced, at two cycle lengths.
    for (scenario, ms) in [("avg", 1_000), ("avg-2s", 2_000)] {
        let avg = cell(scenario, (400, 53), (25, 0), 77).protocol(|p| epoch(10)(p).cycle_length_ms(ms));
        m.push(avg.clone().with(|c| c.relations.extend((ms == 1_000).then_some(Differs))));
        m.push(avg.clone().on(Wire).rel(IdenticalToReference));
        m.push(avg.clone().with(full).rel(IdenticalToUntraced));
        m.push(avg.on(Wire).with(full).rel(IdenticalToReference));
    }

    // Reference-engine runs, each against its seed + 1.
    let partitioned = links(0.15, 0.05, FaultPlan::with_partition(5, 12, 0.4));
    let static7 = cell("static", (200, 23), (10, 0), 7).protocol(epoch(30)).with(|c| c.config.sampler = static10);
    m.extend([
        cell("churn", (300, 37), (30, 5), 99).protocol(epoch(8)),
        cell("faulted", (250, 29), (20, 0), 505).protocol(epoch(9)).with(|c| c.faults = partitioned),
        cell("newscast-churn", (300, 37), (30, 5), 404).protocol(epoch(8)).with(|c| c.config.sampler = newscast),
        static7.clone(),
        cell("fig4-mini", (300, 37), (40, 6), 2_004).protocol(late0(10)).with(median4_loss),
    ].map(|c| c.rel(Differs)));

    // The wire cluster against the reference engine under faults, NEWSCAST,
    // leader-led COUNT, both adversary fences and four led COUNT instances
    // that late-join at zero under loss, the last also traced.
    let crash = FaultPlan { partitions: FaultPlan::with_partition(6, 12, 0.3).partitions, ..links(0.1, 0.05, FaultPlan::with_crash_burst(4, 0.2)) };
    let injection = ValueInjection { cycle: 3, fraction: 0.1, value: 1_000.0 };
    let lie = AttackStrategy::Drift { start: 5.0, rate: 0.5 };
    let median4 = cell("median4-loss", (240, 41), (40, 0), 3_141).protocol(late0(10)).with(median4_loss);
    let capture = cell("capture", (240, 41), (40, 0), 4_242).protocol(epoch(10)).with(|c| {
        (c.config.redundancy, c.adversary) = (median3, AdversaryPlan::leader_capture(1, 20.0));
    });
    for pair in [
        cell("crash", (250, 29), (20, 0), 505).protocol(epoch(9)).with(|c| c.faults = crash),
        cell("newscast", (200, 23), (20, 0), 404).protocol(epoch(8)).with(|c| c.config.sampler = newscast),
        cell("leaders", (150, 1), (30, 0), 99).protocol(epoch(10)).with(|c| c.config.leader_policy = leaders),
        cell("drift", (240, 41), (40, 0), 4_242).protocol(epoch(10)).with(|c| {
            (c.config.conditions.message_loss, c.config.leader_policy) = (0.05, leaders);
            c.faults.injections.push(injection);
            c.adversary = AdversaryPlan::with_strategy(0.1, lie);
        }),
        capture.clone(),
        cell("thousand", (1_000, 101), (30, 0), 1_234).protocol(epoch(10)).with(|c| {
            (c.config.sampler, c.faults, c.slow) = (newscast, links(0.05, 0.02, FaultPlan::none()), true);
        }),
        median4.clone(),
    ] {
        m.push(pair.clone());
        m.push(pair.on(Wire).rel(IdenticalToReference));
    }
    m.push(median4.clone().with(full).rel(IdenticalToUntraced));
    m.push(median4.on(Wire).with(full).rel(IdenticalToReference));

    // The static overlay on the wire cluster.
    m.push(static7.on(Wire).rel(IdenticalToReference));

    // Shard-count sweeps: every count beyond one is `same_nodes` as one shard.
    let churn_loss = |seed| cell("churn-loss", (300, 37), (30, 5), seed).protocol(epoch(8)).with(|c| c.config.conditions.message_loss = 0.1);
    let static_churn = cell("static-churn", (300, 37), (30, 5), 606).protocol(epoch(8)).with(|c| c.config.sampler = static10);
    let sweeps: [(Cell, &[usize]); 8] = [
        (capture.clone(), &[1, 4]),
        (capture.with(full).rel(IdenticalToUntraced), &[1, 4]),
        (churn_loss(2_024).rel(Differs), &[1, 2, 3, 4, 8]),
        (churn_loss(2_024).with(full).rel(IdenticalToUntraced), &[1, 2, 4, 8]),
        (churn_loss(77), &[1, 2, 4, 8]),
        (churn_loss(56).with(|c| (c.scenario, c.config.sampler) = ("newscast-churn-loss", newscast)), &[1, 2, 4, 8]),
        (static_churn, &[1, 2, 4, 8]),
        (cell("size", (200, 1), (20, 0), 99).protocol(late0(10)).with(|c| c.config.leader_policy = leaders), &[1, 2, 5]),
    ];
    for (base, shards) in sweeps {
        m.extend(shards.iter().map(|&k| base.clone().on(Sharded(k)).with(|c| if k > 1 {
            c.relations.retain(|r| !matches!(r, Differs));
            c.relations.push(SameNodes);
        })));
    }

    // Four-shard pins: a traced run, leaders under loss and churn, the
    // non-uniform samplers behind dead links, a partition, an adversary.
    let dead_links = |scenario, sampler| cell(scenario, (300, 37), (30, 4), 2_718).protocol(late0(8)).with(|c| {
        (c.config.conditions.message_loss, c.config.redundancy, c.config.sampler) = (0.05, median3, sampler);
        c.faults = FaultPlan::with_link_failure(0.1);
    });
    let partitioned = links(0.2, 0.05, FaultPlan::with_partition(3, 8, 0.3));
    let faulted = cell("faulted", (300, 300), (12, 0), 41).protocol(epoch(50)).with(|c| c.faults = partitioned);
    let lie = AttackStrategy::Drift { start: 10.0, rate: 4.0 };
    m.extend([
        churn_loss(7).with(full),
        cell("leaders-loss-churn", (240, 31), (25, 4), 404).protocol(late0(8)).with(|c| {
            (c.config.conditions.message_loss, c.config.leader_policy) = (0.05, leaders);
        }),
        dead_links("newscast-links", newscast),
        dead_links("static-links", static10),
        faulted.clone(),
        cell("drift", (300, 300), (12, 0), 41).protocol(epoch(10)).with(|c| {
            (c.config.conditions.message_loss, c.adversary) = (0.05, AdversaryPlan::with_strategy(0.15, lie));
        }),
    ].map(|c| c.on(Sharded(4))));

    // Traced twins of the runs behind dead links. Each cycle the coordinator
    // ring records the vetoes between the exchange starts, so these traces pin
    // the merge of a ring that is out of key order. Dead links are drawn on
    // node ids, which carry shard bits, so each twin is held to its own
    // untraced run rather than across shard counts.
    m.push(dead_links("newscast-links", newscast).on(Sharded(1)));
    m.extend([
        dead_links("newscast-links", newscast).on(Sharded(1)),
        dead_links("newscast-links", newscast).on(Sharded(4)),
        dead_links("static-links", static10).on(Sharded(4)),
        faulted.on(Sharded(4)),
    ].map(|c| c.with(full).rel(IdenticalToUntraced)));

    // Sharded paths that write node state outside the exchange: value
    // injections into running estimates under churn, and adaptive leader
    // elections, which visit every node, with joiners that late-join the led
    // instances at their local value. One and four shards, plus a traced twin.
    let injections = [(3, 0.1, 1_000.0), (11, 0.2, -500.0)].map(|(cycle, fraction, value)| ValueInjection { cycle, fraction, value });
    let adaptive = Some(LeaderPolicy::Adaptive { target_leaders: 3.0, fallback_probability: 0.02 });
    let inject = cell("inject", (300, 37), (20, 3), 808).protocol(epoch(8)).with(|c| c.faults.injections.extend(injections));
    let adaptive_churn = cell("adaptive-churn", (300, 37), (30, 5), 909).protocol(epoch(8)).with(|c| c.config.leader_policy = adaptive);
    for base in [inject, adaptive_churn.clone()] {
        m.push(base.clone().on(Sharded(1)));
        m.push(base.on(Sharded(4)).rel(SameNodes));
    }
    m.push(adaptive_churn.on(Sharded(4)).with(full).rel(IdenticalToUntraced));

    // Nodes that carry many led instances: a 5 % leader draw elects about
    // twelve leaders an epoch, under churn, and every other node late-joins
    // each instance at zero. Instance tags carry shard bits, so under loss
    // the instances meet their loss coins in another order at another shard
    // count: the lossy run is pinned at one and four shards plus a traced
    // twin, and its loss-free twin is held across shard counts.
    let many = Some(LeaderPolicy::Fixed { probability: 0.05 });
    let many_leaders = cell("many-leaders", (240, 31), (25, 4), 1_212).protocol(late0(8)).with(|c| c.config.leader_policy = many);
    let many_lossy = many_leaders.clone().with(|c| (c.scenario, c.config.conditions.message_loss) = ("many-leaders-loss", 0.05));
    m.push(many_lossy.clone().on(Sharded(1)));
    m.push(many_lossy.clone().on(Sharded(4)));
    m.push(many_lossy.on(Sharded(4)).with(full).rel(IdenticalToUntraced));
    m.push(many_leaders.clone().on(Sharded(1)));
    m.push(many_leaders.on(Sharded(4)).rel(SameNodes));

    // Loss-free reference runs, where the engine stages its exchanges in
    // blocks: Figure 4's configuration (late join at zero, median of four
    // led COUNT instances) under churn, and NEWSCAST behind dead links, whose
    // vetoes and `peer_failed` reports land mid-block. The wire cluster runs
    // one exchange at a time, so its twins hold the staged order to it.
    m.push(cell("fig4-reliable", (600, 37), (40, 6), 2_004).protocol(late0(10)).with(|c| c.config.redundancy = Some(RedundancyConfig::median_of(4))).rel(Differs));
    let reliable_links = cell("newscast-links-reliable", (600, 37), (30, 0), 2_718).protocol(late0(8)).with(|c| {
        (c.config.redundancy, c.config.sampler) = (median3, newscast);
        c.faults = FaultPlan::with_link_failure(0.1);
    });
    m.push(reliable_links.clone().rel(Differs));
    m.push(reliable_links.clone().with(full).rel(IdenticalToUntraced));
    m.push(reliable_links.clone().on(Wire).rel(IdenticalToReference));
    m.push(reliable_links.on(Wire).with(full).rel(IdenticalToReference));
    m
}

/// One cycle summary: the counters and moments the relations compare, and
/// its whole `Debug` text (every field, floats in exact round-trip form),
/// which the fingerprint folds.
#[derive(Debug, PartialEq)]
struct CycleDigest {
    /// Cycle, live nodes, exchanges, lost, blocked, completed epoch (or
    /// `u64::MAX`), and the number of epoch reports.
    counters: Vec<u64>,
    /// Estimate mean and variance.
    moments: [f64; 2],
    text: String,
}

/// Everything a run produces that a pin holds.
#[derive(Debug)]
struct RunDigest {
    cycles: Vec<CycleDigest>,
    /// Final default-instance estimates, as bits.
    estimates: Vec<u64>,
    /// The last pooled size estimate, as bits.
    size: Option<u64>,
    /// The drained JSONL trace, when traced.
    trace: Option<String>,
    /// The watchdog's verdict, when traced. It is computed from the moments,
    /// so `same_nodes` leaves it out.
    verdict: Option<String>,
    /// The adversary's colluders and captured leaders by node id; ids carry
    /// shard bits, so `same_nodes` leaves them out too.
    adversary: String,
    /// Filled in by [`fingerprint`] on first use.
    fingerprint: OnceLock<u64>,
}

/// The number of epoch reports kept as values; the sharded engine keeps
/// `OnlineStats`, whose own `count` this mirrors.
trait Count {
    fn count(&self) -> u64;
}

impl Count for Vec<f64> {
    fn count(&self) -> u64 {
        self.len() as u64
    }
}

/// Drives one constructed runtime through `cell`; the `churn` marker names
/// the runtimes that can add and remove nodes.
macro_rules! drive {
    ($cell:expr, $runtime:expr $(, $churn:ident)?) => {{
        let cell: &Cell = $cell;
        let mut sim = $runtime.expect("every cell is a valid configuration");
        if cell.traced {
            sim.set_telemetry(TelemetryConfig::full());
        }
        let mut cycles = Vec::new();
        for _cycle in 0..cell.cycles {
            $(
                let $churn = cell.churn;
                if $churn > 0 {
                    for i in 0..$churn {
                        sim.add_node((_cycle * $churn + i) as f64);
                    }
                    sim.remove_random_nodes($churn);
                }
            )?
            let s = sim.run_cycle();
            let counts = [s.cycle, s.live_nodes, s.exchanges, s.messages_lost, s.exchanges_blocked];
            let epoch = [s.completed_epoch.unwrap_or(u64::MAX), s.epoch_estimates.count()];
            cycles.push(CycleDigest {
                counters: counts.map(|c| c as u64).into_iter().chain(epoch).collect(),
                moments: [s.estimate_mean, s.estimate_variance],
                text: format!("{s:?}"),
            });
        }
        let trace = cell.traced.then(|| sim.drain_trace());
        RunDigest {
            cycles,
            estimates: sim.estimates().iter().map(|v| v.to_bits()).collect(),
            size: sim.last_size_estimate().map(f64::to_bits),
            trace: trace.map(|events| epidemic_aggregation::telemetry::trace::to_jsonl(&events)),
            verdict: cell.traced.then(|| format!("{:?}", sim.watchdog_verdict())),
            adversary: format!("{:?} {:?}", sim.adversary().colluders(), sim.adversary().captured()),
            fingerprint: OnceLock::new(),
        }
    }};
}

/// Runs `cell` on its runtime.
fn run(cell: &Cell) -> RunDigest {
    let values: Vec<f64> = (0..cell.nodes).map(|i| (i % cell.modulus) as f64).collect();
    let (config, seed, adversary) = (cell.config, cell.seed, cell.adversary);
    let plan = cell.faults.clone();
    match cell.runtime {
        Runtime::Reference => {
            let sim = GossipSimulation::with_adversary(config, &values, seed, plan, adversary);
            drive!(cell, sim, churn)
        }
        Runtime::Sharded(shards) => {
            let mut sharded = ShardedConfig::averaging(config.protocol, shards);
            sharded.base = config;
            let sim = ShardedSimulation::with_adversary(sharded, &values, seed, plan, adversary);
            drive!(cell, sim, churn)
        }
        Runtime::Wire => {
            assert_eq!(cell.churn, 0, "the wire cluster has no churn");
            let sim = VirtualCluster::with_adversary(config, &values, seed, plan, adversary);
            drive!(cell, sim)
        }
    }
}

/// FNV-1a over 64-bit words: the one fold every golden uses.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let step = |fnv: u64, word: u64| (fnv ^ word).wrapping_mul(0x1000_0000_01b3);
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, step)
}

/// The fingerprint of a whole run, computed once: every text as its
/// length and then its bytes eight to a word, the estimates, the size.
fn fingerprint(d: &RunDigest) -> u64 {
    *d.fingerprint.get_or_init(|| {
        let telemetry = [&d.trace, &d.verdict].map(|t| t.as_deref().unwrap_or_default());
        let texts = d.cycles.iter().map(|c| c.text.as_str());
        let texts = texts.chain(telemetry).chain([d.adversary.as_str()]);
        let words = texts.flat_map(|t| {
            let chunks = t.as_bytes().chunks(8).map(|chunk| {
                let mut word = [0; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                u64::from_le_bytes(word)
            });
            [t.len() as u64].into_iter().chain(chunks)
        });
        let size = d.size.map_or([0, 0], |bits| [1, bits]);
        let estimates = d.estimates.iter().copied().chain(size);
        fnv1a(words.chain([d.estimates.len() as u64]).chain(estimates))
    })
}

/// Whether run `a` stands in `relation` to its twin run `b`.
fn holds(relation: Relation, a: &RunDigest, b: &RunDigest) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * (1.0 + y.abs());
    let both_traced = a.trace.is_some() && b.trace.is_some();
    let sizes = (a.size.zip(b.size)).map(|(x, y)| close(f64::from_bits(x), f64::from_bits(y)));
    let same_nodes = a.cycles.len() == b.cycles.len()
        && a.cycles.iter().zip(&b.cycles).all(|(x, y)| {
            let moments = x.moments.iter().zip(&y.moments).all(|(&p, &q)| close(p, q));
            x.counters == y.counters && moments
        })
        && a.estimates == b.estimates
        && sizes.unwrap_or(a.size == b.size)
        && (!both_traced || a.trace == b.trace);
    match relation {
        Relation::SameNodes => same_nodes,
        Relation::Differs => fingerprint(a) != fingerprint(b),
        _ => {
            let verdicts = !both_traced || a.verdict == b.verdict;
            same_nodes && a.cycles == b.cycles && verdicts && a.adversary == b.adversary
        }
    }
}

/// The declared cells, built once per test process.
fn cells() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(matrix)
}

fn index_of(name: &str) -> usize {
    let found = cells().iter().position(|c| c.name() == name);
    found.unwrap_or_else(|| panic!("`{name}` is not a declared cell"))
}

/// The digest of declared cell `index`, or of its seed + 1 run, computed at
/// most once per test process however many checks read it.
fn digest(index: usize, reseeded: bool) -> &'static RunDigest {
    static DIGESTS: OnceLock<Vec<[OnceLock<RunDigest>; 2]>> = OnceLock::new();
    let slots = DIGESTS.get_or_init(|| cells().iter().map(|_| Default::default()).collect());
    let cell = || {
        cells()[index]
            .clone()
            .with(|c| c.seed += u64::from(reseeded))
    };
    slots[index][usize::from(reseeded)].get_or_init(|| run(&cell()))
}

/// `—` for nothing, else the items shown, comma-separated.
fn column(items: impl IntoIterator<Item = Option<String>>) -> String {
    let shown: Vec<String> = items.into_iter().flatten().collect();
    if shown.is_empty() {
        "—".to_string()
    } else {
        shown.join(", ")
    }
}

/// The `GOLDENS.md` row of declared cell `index`, which runs it: every
/// configuration item that is not a default, then the run's totals.
fn row(index: usize) -> String {
    let (cell, d) = (&cells()[index], digest(index, false));
    let (c, p, f) = (&cell.config, cell.config.protocol, &cell.faults);
    let config = [
        Some(format!("epoch {}", p.cycles_per_epoch())),
        (p.cycle_length_ms() != 1_000).then(|| format!("{} ms", p.cycle_length_ms())),
        (p.late_join() != LateJoinPolicy::LocalValue)
            .then(|| format!("late join {:?}", p.late_join())),
        (c.sampler != SamplerConfig::UniformComplete).then(|| format!("{:?}", c.sampler)),
        (c.conditions.message_loss > 0.0).then(|| format!("loss {}", c.conditions.message_loss)),
        (c.conditions.crash_at_cycle.is_some()).then(|| format!("{:?}", c.conditions)),
        c.leader_policy.map(|l| format!("leaders {l:?}")),
        c.redundancy.map(|r| format!("{r:?}")),
    ];
    let faults = [
        (f.link_failure > 0.0).then(|| format!("links {}", f.link_failure)),
        (f.base_loss > 0.0).then(|| format!("loss {}", f.base_loss)),
        (!f.partitions.is_empty()).then(|| format!("{:?}", f.partitions)),
        (!f.crashes.is_empty()).then(|| format!("{:?}", f.crashes)),
        (!f.loss_ramps.is_empty()).then(|| format!("{:?}", f.loss_ramps)),
        (!f.injections.is_empty()).then(|| format!("{:?}", f.injections)),
    ];
    let adversary = (!cell.adversary.is_empty()).then(|| format!("{:?}", cell.adversary));
    let total = |k: usize| d.cycles.iter().map(|c| c.counters[k]).sum::<u64>();
    let (exchanges, lost, blocked) = (total(2), total(3), total(4));
    let epochs = d.cycles.iter().filter(|c| c.counters[5] != u64::MAX);
    let size = d.size.map(|s| format!("{:.3}", f64::from_bits(s)));
    let relations = cell.relations.iter().map(|&r| match r {
        Relation::Differs => format!("differs: seed {}", cell.seed + 1),
        Relation::SameNodes => format!("same_nodes: {}", cell.twin(r).name()),
        _ => format!("identical: {}", cell.twin(r).name()),
    });
    let columns = [
        format!("{} | {} (i % {})", cell.name(), cell.nodes, cell.modulus),
        format!("{} | {}", cell.cycles, cell.churn),
        [column(config), column(faults), column([adversary])].join(" | "),
        format!(
            "{exchanges} | {lost} | {blocked} | {} | {}",
            epochs.count(),
            column([size])
        ),
        format!("`{:#018x}`", fingerprint(d)),
        column(relations.map(Some)),
    ];
    format!("| {} |", columns.join(" | "))
}

/// The committed row of cell `name`.
fn committed_row(name: &str) -> Option<&'static str> {
    let prefix = format!("| {name} | ");
    GOLDENS.lines().find(|row| row.starts_with(&prefix))
}

/// Writes the table the fresh rows of every check so far make, with the
/// committed row standing in for each cell not rendered in this process, to
/// `CARGO_TARGET_TMPDIR/GOLDENS.md`, and returns its path.
fn regenerate(fresh_rows: Vec<(String, String)>) -> std::path::PathBuf {
    static FRESH: Mutex<BTreeMap<String, String>> = Mutex::new(BTreeMap::new());
    let mut fresh = FRESH.lock().unwrap_or_else(PoisonError::into_inner);
    fresh.extend(fresh_rows);
    let rows = cells().iter().map(|cell| {
        let stale = committed_row(&cell.name()).unwrap_or_default().to_string();
        fresh.get(&cell.name()).cloned().unwrap_or(stale) + "\n"
    });
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("GOLDENS.md");
    std::fs::write(&path, HEADER.to_string() + &rows.collect::<String>()).expect("writable");
    path
}

/// Brace expansion: `a{1,2}b` names `a1b` and `a2b`.
fn expand(pattern: &str) -> Vec<String> {
    let Some((head, rest)) = pattern.split_once('{') else {
        return vec![pattern.to_string()];
    };
    let (alternatives, tail) = rest.split_once('}').expect("a closed brace");
    let each = |alt| expand(&format!("{head}{alt}{tail}"));
    alternatives.split(',').flat_map(each).collect()
}

/// Runs the cells the patterns name and holds each one's committed
/// `GOLDENS.md` row and declared relations. On any failure it writes the
/// regenerated table and fails once, naming every cell that moved and every
/// relation that broke.
fn check(patterns: &[&str]) {
    let (mut moved, mut broken) = (Vec::new(), Vec::new());
    for name in patterns.iter().flat_map(|p| expand(p)) {
        let index = index_of(&name);
        let fresh = row(index);
        if committed_row(&name) != Some(fresh.as_str()) {
            moved.push((name.clone(), fresh));
        }
        for &relation in &cells()[index].relations {
            let twin = match relation {
                Relation::Differs => digest(index, true),
                _ => digest(index_of(&cells()[index].twin(relation).name()), false),
            };
            if !holds(relation, digest(index, false), twin) {
                broken.push(format!("{name}: {relation:?}"));
            }
        }
    }
    if moved.is_empty() && broken.is_empty() {
        return;
    }
    let names: Vec<String> = moved.iter().map(|(name, _)| name.clone()).collect();
    let path = regenerate(moved);
    panic!("cells moved: {names:?}; relations broken: {broken:?}; regenerated {path:?}");
}

/// The whole matrix: every cell but the CI-scale ones holds its row and
/// relations, and `GOLDENS.md` lists exactly the declared cells, in order.
#[test]
fn goldens_md_is_the_rendered_matrix() {
    let names: Vec<String> = cells().iter().map(Cell::name).collect();
    let fast = cells().iter().zip(&names).filter(|(c, _)| !c.slow);
    check(&fast.map(|(_, name)| name.as_str()).collect::<Vec<_>>());
    let listed = GOLDENS.strip_prefix(HEADER).unwrap_or_default().lines();
    let listed = listed.map(|row| row.split(" | ").next().unwrap_or_default());
    if !listed.eq(names.iter().map(|name| format!("| {name}"))) {
        let path = regenerate(Vec::new());
        panic!("GOLDENS.md does not list the declared cells in order; regenerated {path:?}");
    }
}

/// One named check per claim: it runs the cells listed and holds their
/// rows and relations.
macro_rules! checks {
    ($($(#[$attr:meta])* $test:ident: $($cells:literal),+;)+) => {$(
        $(#[$attr])*
        #[test]
        fn $test() {
            check(&[$($cells),+]);
        }
    )+};
}

checks! {
    node_level_simulations_are_bit_identical_for_identical_seeds: "avg@77/ref";
    churn_runs_with_slot_reuse_are_bit_identical_for_identical_seeds: "churn@99/ref";
    faulted_runs_are_bit_identical_for_identical_seeds: "faulted@505/ref";
    newscast_sampler_runs_are_bit_identical_for_identical_seeds: "newscast-churn@404/ref";
    static_overlay_runs_are_bit_identical_for_identical_seeds: "static@7/ref";
    uniform_sampler_is_bit_identical_to_the_pre_sampler_engines:
        "avg@77/ref", "churn-loss@2024/shards3";
    sharded_runs_are_bit_identical_for_identical_seeds: "churn-loss@2024/shards{1,2,3,8}";
    soa_fused_executor_reproduces_the_golden_across_shard_counts: "churn-loss@2024/shards{1,2,4,8}";
    shard_count_changes_only_telemetry_summation_order: "churn-loss@77/shards{1,2,4,8}";
    newscast_shard_count_changes_only_telemetry_summation_order:
        "newscast-churn-loss@56/shards{1,2,4,8}";
    sharded_size_estimation_is_shard_count_invariant_without_loss: "size@99/shards{1,2,5}";
    sharded_run_with_leaders_loss_and_churn_reproduces_its_golden_fingerprint:
        "leaders-loss-churn@404/shards4";
    newscast_sharded_run_reproduces_its_golden_fingerprint: "newscast-links@2718/shards4";
    static_overlay_sharded_run_reproduces_its_golden_fingerprint: "static-links@2718/shards4";
    static_overlay_shard_count_changes_only_telemetry_summation_order:
        "static-churn@606/shards{1,2,4,8}";
    wire_cluster_is_bit_identical_to_the_cycle_engine: "avg@77/{ref,wire}";
    wire_cluster_matches_the_engine_under_a_fault_plan: "crash@505/{ref,wire}";
    wire_cluster_matches_the_engine_under_newscast_sampling: "newscast@404/{ref,wire}";
    wire_cluster_matches_the_engine_on_a_static_overlay: "static@7/{ref,wire}";
    wire_cluster_matches_the_engine_with_leader_led_size_estimation: "leaders@99/{ref,wire}";
    #[ignore = "CI-scale: ~1k nodes x 30 cycles on the framed wire path"]
    thousand_node_wire_cluster_is_bit_identical_to_the_engine: "thousand@1234/{ref,wire}";
    reference_engine_under_drift_injection_loss_and_leaders_reproduces_its_golden:
        "drift@4242/ref";
    reference_engine_under_leader_capture_and_median_of_three_reproduces_its_golden:
        "capture@4242/ref";
    sharded_leader_capture_with_median_of_three_reproduces_its_goldens:
        "capture@4242/shards{1,4}{,/full}";
    wire_cluster_matches_the_engine_under_an_adversary_and_median_of_k:
        "{drift,capture}@4242/{ref,wire}";
    tracing_leaves_sharded_estimates_bit_identical_across_shards_and_workers:
        "churn-loss@2024/shards{1,2,4,8}/full";
    same_seed_traced_runs_produce_byte_identical_jsonl: "churn-loss@7/shards4/full";
    traced_runs_with_link_vetoes_reproduce_their_goldens:
        "newscast-links@2718/shards{1,4}/full", "static-links@2718/shards4/full",
        "faulted@41/shards4/full";
    tracing_leaves_reference_engine_and_wire_cluster_goldens_bit_identical:
        "avg@77/{ref,wire}/full", "avg-2s@77/{ref,wire}{,/full}";
    led_count_instances_under_loss_and_churn_reproduce_their_goldens:
        "median4-loss@3141/{ref,wire}{,/full}", "fig4-mini@2004/ref";
    sharded_injections_and_adaptive_elections_under_churn_reproduce_their_goldens:
        "inject@808/shards{1,4}", "adaptive-churn@909/shards{1,4}", "adaptive-churn@909/shards4/full";
    loss_free_reference_runs_reproduce_their_goldens_and_the_wire_cluster:
        "fig4-reliable@2004/ref", "newscast-links-reliable@2718/{ref,wire}{,/full}";
    sharded_nodes_with_many_led_instances_reproduce_their_goldens:
        "many-leaders-loss@1212/shards{1,4}", "many-leaders-loss@1212/shards4/full",
        "many-leaders@1212/shards{1,4}";
}

// ---------------------------------------------------------------------------
// Checks that are not runs of a cycle runtime.

/// The vector-level `run_avg`: same seed, same values and variance reports;
/// another seed, another exchange schedule.
#[test]
fn vector_level_runs_are_bit_identical_for_identical_seeds() {
    let run = |seed| {
        let mut values: Vec<f64> = (0..500).map(|i| (i % 91) as f64).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (topology, mut selector) = (CompleteTopology::new(500), SequentialSelector::new());
        let reports = run_avg(&mut values, &topology, &mut selector, &mut rng, 8).unwrap();
        let variances = reports
            .iter()
            .flat_map(|r| [r.variance_before, r.variance_after]);
        let bits = |v: f64| v.to_bits();
        let values: Vec<u64> = values.into_iter().map(bits).collect();
        (values, variances.map(bits).collect::<Vec<_>>())
    };
    assert_eq!(run(2024), run(2024));
    assert_ne!(run(2024).0, run(2025).0, "another seed, another schedule");
}

/// The experiment runners behind the examples: same seed, same summary.
#[test]
fn variance_experiments_are_reproducible() {
    let run = || {
        let (topology, selector) = (TopologyKind::Complete, SelectorKind::Sequential);
        let experiment = VarianceExperiment::figure3(2_000, topology, selector, 1, 5, 123);
        let summary = experiment.run_first_cycle().unwrap();
        (summary.mean.to_bits(), summary.std_dev.to_bits())
    };
    assert_eq!(run(), run());
}

/// FNV-1a over NEWSCAST views in view order: for each member its id and
/// view length, then every descriptor's `(id, age)` by position. Peer picks
/// index view positions, so a consistent reordering changes later draws.
fn view_order_fingerprint<'a>(
    views: impl IntoIterator<Item = (NodeId, &'a [NodeDescriptor])>,
) -> u64 {
    fnv1a(views.into_iter().flat_map(|(id, view)| {
        let entries = view.iter().flat_map(|d| [d.node.as_u32(), d.age]);
        let head = [id.as_u32(), view.len() as u32];
        head.into_iter()
            .chain(entries.collect::<Vec<_>>())
            .map(u64::from)
    }))
}

/// The view-order fingerprint of a [`NewscastSampler`] run with cache size
/// `cache` over `members` sparse ids: before every cycle `churn` random
/// departures, `churn` joins and `rejoins` joins of random live members
/// (each replaces that member's state in place), then one pick per member,
/// and `peer_failed` for every pick on a departed node or a simulated dead
/// link.
fn sampler_view_order(
    cache: usize,
    members: usize,
    cycles: usize,
    churn: usize,
    rejoins: usize,
) -> u64 {
    use rand::Rng;
    let mut live: Vec<NodeId> = (0..members).map(|i| NodeId::new(3 * i + 1)).collect();
    let mut members_now: std::collections::BTreeSet<NodeId> = live.iter().copied().collect();
    let mut sampler = NewscastSampler::new(cache, &live, 0x5eed);
    let mut churn_rng = rand::rngs::StdRng::seed_from_u64(31);
    let mut picks = rand::rngs::StdRng::seed_from_u64(32);
    let (mut next_id, mut failed) = (3 * members + 1, 0);
    for cycle in 0..cycles {
        for _ in 0..churn {
            let departed = live.remove(churn_rng.gen_range(0..live.len()));
            members_now.remove(&departed);
            sampler.on_depart(departed);
        }
        for _ in 0..churn {
            live.push(NodeId::new(next_id));
            members_now.insert(NodeId::new(next_id));
            sampler.on_join(NodeId::new(next_id), &SliceDirectory::new(&live));
            next_id += 3;
        }
        for _ in 0..rejoins {
            let member = live[churn_rng.gen_range(0..live.len())];
            sampler.on_join(member, &SliceDirectory::new(&live));
        }
        let directory = SliceDirectory::new(&live);
        sampler.begin_cycle(&directory);
        for (pos, &initiator) in live.iter().enumerate() {
            let Some(peer) = sampler.sample(&directory, pos, &mut picks) else {
                continue;
            };
            if !members_now.contains(&peer) || (pos + cycle) % 13 == 0 {
                sampler.peer_failed(initiator, peer);
                failed += 1;
            }
        }
    }
    assert!(
        failed > members,
        "departed peers and dead links must be reported"
    );
    live.sort();
    let views = live
        .iter()
        .map(|&id| (id, sampler.view_of(id).expect("live member")));
    view_order_fingerprint(views)
}

/// [`NewscastSampler`] views: 300 members, 30 cycles, 4 joins and 4
/// departures a cycle.
#[test]
fn newscast_sampler_views_reproduce_their_golden_order() {
    assert_eq!(sampler_view_order(20, 300, 30, 4, 0), 0xa9bc_1ad6_d461_a64f);
}

/// [`NewscastSampler`] views with c = 80, above the 64 entries an inline age
/// index covers: 500 members, 30 cycles, 5 joins and 5 departures a cycle.
#[test]
fn newscast_sampler_views_above_64_entries_reproduce_their_golden_order() {
    assert_eq!(sampler_view_order(80, 500, 30, 5, 0), 0x9054_ef30_2c04_7037);
}

/// [`NewscastSampler`] views with c = 3 and 30 joins and 30 departures a
/// cycle: 129 of the 300 final views are part-full, so admits run the
/// fill phase of the merge as often as the full one.
#[test]
fn newscast_sampler_part_full_views_reproduce_their_golden_order() {
    assert_eq!(sampler_view_order(3, 300, 30, 30, 0), 0x13e0_5e8f_04bd_16ef);
}

/// [`NewscastSampler`] views when 6 joins a cycle re-admit a live member's
/// id, each replacing that member's view with a one-contact bootstrap.
#[test]
fn newscast_sampler_rejoins_reproduce_their_golden_order() {
    assert_eq!(sampler_view_order(20, 300, 30, 4, 6), 0x7928_84b7_12eb_866c);
}

/// [`NewscastSampler`] views at 3,000 members, 40 cycles, 30 joins and 30
/// departures a cycle: every view full, so most admits overwrite a victim.
#[test]
fn newscast_sampler_views_at_3k_reproduce_their_golden_order() {
    assert_eq!(
        sampler_view_order(20, 3_000, 40, 30, 0),
        0x2e77_47b8_4d84_c066
    );
}

/// The 30,000-member twin of the 3,000-member run, at the same churn rate.
#[test]
#[ignore = "CI-scale: 30k NEWSCAST members x 40 cycles"]
fn newscast_sampler_views_at_30k_reproduce_their_golden_order() {
    assert_eq!(
        sampler_view_order(20, 30_000, 40, 300, 0),
        0xad16_f901_0326_5cc5
    );
}

/// [`NewscastNetwork`] views: a 400-node ring bootstrap with c = 20 after
/// 15 membership cycles.
#[test]
fn newscast_network_views_reproduce_their_golden_order() {
    let mut network = NewscastNetwork::bootstrap_ring(400, 20);
    let mut rng = rand::rngs::StdRng::seed_from_u64(33);
    for _ in 0..15 {
        network.run_cycle(&mut rng);
    }
    let ids: Vec<NodeId> = (0..400).map(NodeId::new).collect();
    let views = ids.iter().map(|&id| (id, network.view(id)));
    assert_eq!(view_order_fingerprint(views), 0x1d47_0fa3_0aea_43a6);
}
