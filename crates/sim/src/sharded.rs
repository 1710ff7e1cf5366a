//! Sharded cycle engine with bit-deterministic results.
//!
//! [`ShardedSimulation`] partitions the nodes into shards, each a sub-arena
//! with its own identifier space, and runs million-node epochs on one thread
//! while keeping the two properties a reproduction engine cannot give up:
//!
//! 1. **Same seed + same shard count → bit-identical runs.**
//! 2. **Node trajectories are independent of the shard count.** The exchange
//!    schedule (initiator order, peer choice, per-exchange loss draws, churn
//!    victims, leader elections) is derived from shard-count-agnostic RNG
//!    streams over a *global* directory of live nodes, and the schedule is
//!    applied in sequence order. Running the same seed with 1 or 8 shards
//!    yields bit-identical node estimates; only cross-shard *telemetry
//!    reductions* (mean/variance merges) may differ, and only in
//!    floating-point summation order. (The sole exception: multi-instance
//!    epochs under message loss, where loss draws are consumed in instance
//!    order and led-instance tags differ across shard counts; the
//!    determinism suite pins the invariant for the loss-free and
//!    single-instance settings.)
//!
//! # How a cycle executes
//!
//! Every live node initiates once, in a shuffled order realising
//! `GETPAIR_SEQ`, against a peer drawn by the sampler; a fault-lab link veto
//! drops the pick. A block pipeline applies the resulting schedule in
//! sequence order, 128 initiators at a time: pick peers and resolve vetoes,
//! touch the endpoints, pre-draw loss coins, then execute. The pipeline may
//! batch draws but never reorders exchanges: two exchanges that share an
//! endpoint do not commute.
//!
//! Each live node has one copy of its state, in its shard's columns
//! ([`crate::soa`]). An exchange between two hot nodes in the same epoch
//! runs fused over their 16-byte records; any other runs the exchange kernel
//! ([`ExchangeCore::exchange_instances`]) over the columns. Per-cycle
//! telemetry is accumulated in per-shard [`OnlineStats`] and merged in shard
//! order (Chan's parallel Welford update).
//!
//! The epoch environment — fault lab, adversary, elections, telemetry and
//! virtual time — is the shared [`Coordinator`], driven over the global
//! directory: churn victims come from the `sharded-churn` stream, each
//! election from its own `election` stream, and events are keyed by global
//! directory position, so all of it is shard-count invariant.

use crate::arena::{IdLayout, NodeArena, MAX_SHARDS};
use crate::coordinator::{epoch_size_estimate, Coordinator, CycleNodes};
use crate::soa::{self, Columns, WordBuffer};
use crate::{SeedSequence, SimConfigError, SimulationConfig};
use aggregate_core::epoch::EpochManager;
use aggregate_core::node::{LedSlot, NodeState};
use aggregate_core::redundancy::MergePolicy;
use aggregate_core::sampler::{sample_live_peer, SamplerConfig, SamplerDirectory};
use aggregate_core::{AggregateKind, ExchangeCore, ExchangeScratch, ExchangeTally, InstanceTag};
use gossip_analysis::OnlineStats;
use gossip_faults::{Adversary, AdversaryPlan, FaultPlan};
use gossip_telemetry::{Event, TelemetryConfig};
use overlay_topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a [`ShardedSimulation`]: the engine-agnostic simulation
/// parameters plus the shard count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedConfig {
    /// Protocol, failure and leader-election parameters (shared with the
    /// single-threaded reference engine).
    pub base: SimulationConfig,
    /// Number of shards (data partitions). Each shard owns a sub-arena of
    /// nodes and its own identifier space. The
    /// shard count is part of the deterministic contract: same seed + same
    /// shard count → bit-identical runs.
    pub shards: usize,
    /// Ignored: every cycle runs on the calling thread. `Some(0)` is still
    /// rejected with [`SimConfigError::ZeroWorkers`]; every other value,
    /// `None` included, gives a bit-identical run.
    pub workers: Option<usize>,
}

impl ShardedConfig {
    /// Plain averaging over a reliable network with the given shard count.
    pub fn averaging(protocol: aggregate_core::ProtocolConfig, shards: usize) -> Self {
        ShardedConfig {
            base: SimulationConfig::averaging(protocol),
            shards,
            workers: None,
        }
    }

    /// Validates the configuration together with its initial population.
    ///
    /// # Errors
    ///
    /// [`SimConfigError::ZeroShards`] / [`SimConfigError::TooManyShards`] /
    /// [`SimConfigError::ZeroWorkers`] for an unusable shard or worker
    /// count, plus every check of [`SimulationConfig::validate`].
    pub(crate) fn validate(&self, initial_values: &[f64]) -> Result<(), SimConfigError> {
        if self.shards == 0 {
            return Err(SimConfigError::ZeroShards);
        }
        if self.shards > MAX_SHARDS {
            return Err(SimConfigError::TooManyShards {
                shards: self.shards,
                max: MAX_SHARDS,
            });
        }
        if self.workers == Some(0) {
            return Err(SimConfigError::ZeroWorkers);
        }
        let capacity = self.shards * IdLayout::sharded(0).max_slots();
        if initial_values.len() > capacity {
            return Err(SimConfigError::PopulationExceedsCapacity {
                nodes: initial_values.len(),
                capacity,
            });
        }
        self.base.validate(initial_values)
    }
}

/// Summary of one sharded cycle.
///
/// Unlike [`crate::CycleSummary`] this reports epoch results as streaming
/// statistics instead of raw per-node vectors — at 10⁶ nodes a single
/// epoch's estimate vector would be 8 MB per completing cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedCycleSummary {
    /// Cycle index (0-based, global).
    pub cycle: usize,
    /// Number of live nodes at the end of the cycle.
    pub live_nodes: usize,
    /// Number of push–pull exchanges initiated.
    pub exchanges: usize,
    /// Number of messages dropped by the loss model.
    pub messages_lost: usize,
    /// Number of exchange attempts vetoed by the fault lab at schedule
    /// construction (dead link or active partition between the endpoints).
    /// Always zero under the empty [`FaultPlan`].
    pub exchanges_blocked: usize,
    /// Mean of the default-instance estimates over live nodes.
    pub estimate_mean: f64,
    /// Variance of the default-instance estimates over live nodes.
    pub estimate_variance: f64,
    /// The epoch that completed at the end of this cycle, if any.
    pub completed_epoch: Option<u64>,
    /// Statistics over the converged default-instance estimates of nodes
    /// that participated in the full epoch (empty unless an epoch
    /// completed).
    pub epoch_estimates: OnlineStats,
    /// Statistics over the converged network-size estimates (empty unless an
    /// epoch completed and size estimation is enabled).
    pub epoch_size_estimates: OnlineStats,
    /// Exchanges initiated per shard this cycle — the load-balance signal
    /// recorded by the per-cycle telemetry CSV.
    pub(crate) shard_exchanges: Vec<usize>,
}

/// A shard's arena: identifiers and liveness; the state is in its columns.
pub(crate) type ShardArena = NodeArena<()>;

/// Node state owned by one shard.
#[derive(Debug)]
struct Shard {
    arena: ShardArena,
    /// Per slot: position of the occupant in the global live directory.
    global_pos: Vec<u32>,
    /// Every live node's state, one column per field (see [`crate::soa`]).
    cols: Columns,
}

/// The sharded engine's [`SamplerDirectory`]: positions are the global live
/// directory's order (shard-count agnostic), liveness resolves through the
/// owning shard's arena — all O(1).
#[derive(Debug, Clone, Copy)]
struct GlobalDirectory<'a> {
    live: &'a [NodeId],
    shards: &'a [Shard],
}

impl SamplerDirectory for GlobalDirectory<'_> {
    fn len(&self) -> usize {
        self.live.len()
    }

    fn id_at(&self, pos: usize) -> NodeId {
        self.live[pos]
    }

    fn is_live(&self, id: NodeId) -> bool {
        let shard = IdLayout::shard_of(id) as usize;
        self.shards.get(shard).is_some_and(|s| s.arena.is_live(id))
    }
}

/// The sharded engine's node store as the [`Coordinator`] sees it:
/// positions are the global live directory, and trace keys are those
/// positions, not identifiers, which embed the shard layout.
#[derive(Debug)]
struct GlobalNodes<'a> {
    live: &'a mut Vec<NodeId>,
    shards: &'a mut [Shard],
}

impl<'a> GlobalNodes<'a> {
    fn new(live: &'a mut Vec<NodeId>, shards: &'a mut [Shard]) -> Self {
        GlobalNodes { live, shards }
    }
}

impl SamplerDirectory for GlobalNodes<'_> {
    fn len(&self) -> usize {
        self.live.len()
    }

    fn id_at(&self, pos: usize) -> NodeId {
        self.live[pos]
    }

    fn is_live(&self, id: NodeId) -> bool {
        let (live, shards) = (&*self.live, &*self.shards);
        GlobalDirectory { live, shards }.is_live(id)
    }
}

impl CycleNodes for GlobalNodes<'_> {
    fn can_participate(&self, pos: usize) -> bool {
        let id = self.live[pos];
        let shard = &self.shards[IdLayout::shard_of(id) as usize];
        shard
            .cols
            .epochs(IdLayout::sharded_slot_of(id))
            .can_participate()
    }

    fn start_led_instance(&mut self, pos: usize, tag: InstanceTag, state: f64) {
        let id = self.live[pos];
        let shard = &mut self.shards[IdLayout::shard_of(id) as usize];
        shard
            .cols
            .node(IdLayout::sharded_slot_of(id))
            .start_led(tag, state);
    }

    fn corrupt_estimate(&mut self, id: NodeId, value: f64) -> Option<u64> {
        // The record holds every node's running approximation, hot or cold.
        let shard = &mut self.shards[IdLayout::shard_of(id) as usize];
        let slot = shard.arena.slot_of(id)? as usize;
        shard.cols.hot.slots[slot].state = value;
        Some(u64::from(shard.global_pos[slot]))
    }

    fn corrupt_instance(&mut self, id: NodeId, state: f64) {
        let shard = &mut self.shards[IdLayout::shard_of(id) as usize];
        if let Some(slot) = shard.arena.slot_of(id) {
            shard
                .cols
                .node(slot)
                .corrupt_led(InstanceTag::from_leader(id), state);
        }
    }

    fn remove_at(&mut self, pos: usize) -> (NodeId, u64) {
        let id = self.live[pos];
        let shard = &mut self.shards[IdLayout::shard_of(id) as usize];
        // The departed node's columns are dead until a join overwrites them.
        shard
            .arena
            .remove_slot_checked(IdLayout::sharded_slot_of(id));
        self.live.swap_remove(pos);
        if pos < self.live.len() {
            let moved = self.live[pos];
            let shard = IdLayout::shard_of(moved) as usize;
            let slot = IdLayout::sharded_slot_of(moved) as usize;
            self.shards[shard].global_pos[slot] = pos as u32;
        }
        (id, pos as u64)
    }

    fn trace_key(&self, pos: usize) -> u64 {
        pos as u64
    }
}

/// Global directory position of a (verified live) identifier.
fn global_pos_of(shards: &[Shard], id: NodeId) -> u32 {
    let shard = IdLayout::shard_of(id) as usize;
    let slot = IdLayout::sharded_slot_of(id) as usize;
    shards[shard].global_pos[slot]
}

impl Shard {
    fn set_global_pos(&mut self, slot: u32, pos: u32) {
        let slot = slot as usize;
        if slot >= self.global_pos.len() {
            self.global_pos.resize(slot + 1, u32::MAX);
        }
        self.global_pos[slot] = pos;
    }
}

/// Per-shard, per-cycle output, merged by `run_cycle` in shard order.
#[derive(Debug, Default)]
struct ShardCycleOut {
    tally: ExchangeTally,
    completed_epoch: Option<u64>,
    epoch_stats: OnlineStats,
    size_stats: OnlineStats,
    estimate_stats: OnlineStats,
}

/// The sharded cycle engine. See the module documentation for the execution
/// and determinism model.
#[derive(Debug)]
pub struct ShardedSimulation {
    config: ShardedConfig,
    shards: Vec<Shard>,
    /// Dense directory of all live nodes, in join order with swap-remove
    /// holes. Every scheduling decision (initiator order, peer picks, churn
    /// victims, election draws) is made over this directory, which evolves
    /// identically for every shard count — the root of the shard-count
    /// invariance of node values.
    global_live: Vec<NodeId>,
    /// Random-victim departures under churn and crash bursts.
    churn_rng: StdRng,
    /// Reusable shuffle buffer: one `u64` per live node carrying
    /// `directory_position << 32 | packed_endpoint`, so after the shuffle
    /// both the rejection compare (high half) and the initiator's shard/slot
    /// (low half) come from the entry itself — no random directory lookup
    /// per initiator.
    soa_order: Vec<u64>,
    /// Reusable packed mirror of `global_live` (`shard << 24 | slot` per
    /// directory position) for candidate lookups — half the miss footprint of
    /// the 8-byte `NodeId` directory.
    soa_packed: Vec<u32>,
    /// The epoch environment over the global directory. Its sampler sees
    /// only directory positions and identifiers, so one sampler serves every
    /// shard. Colluder membership keys on initial directory positions, so
    /// the colluding set is shard-count invariant; link and partition coins
    /// key on identifiers, which embed the shard layout, so such plans draw
    /// a different (statistically equivalent) fault map per shard count.
    coordinator: Coordinator,
}

impl ShardedSimulation {
    /// Creates a sharded simulation with one node per initial value
    /// (distributed round-robin over the shards), all present from epoch 0.
    ///
    /// # Errors
    ///
    /// [`SimConfigError::ZeroShards`] / [`SimConfigError::TooManyShards`] /
    /// [`SimConfigError::ZeroWorkers`] for an unusable shard or worker
    /// count, [`SimConfigError::PopulationExceedsCapacity`], plus every check
    /// of [`SimulationConfig::validate`].
    pub fn new(
        config: ShardedConfig,
        initial_values: &[f64],
        master_seed: u64,
    ) -> Result<Self, SimConfigError> {
        ShardedSimulation::with_faults(config, initial_values, master_seed, FaultPlan::none())
    }

    /// Creates a sharded simulation executing the given [`FaultPlan`] (with
    /// the configuration's `NetworkConditions` absorbed underneath it). With
    /// [`FaultPlan::none`] this is exactly [`ShardedSimulation::new`].
    ///
    /// # Errors
    ///
    /// Everything [`ShardedSimulation::new`] rejects, plus
    /// [`SimConfigError::Faults`] for a malformed schedule.
    pub fn with_faults(
        config: ShardedConfig,
        initial_values: &[f64],
        master_seed: u64,
        plan: FaultPlan,
    ) -> Result<Self, SimConfigError> {
        ShardedSimulation::with_adversary(
            config,
            initial_values,
            master_seed,
            plan,
            AdversaryPlan::none(),
        )
    }

    /// Creates a sharded simulation executing both a [`FaultPlan`] and a
    /// stateful [`AdversaryPlan`]. Colluder membership is keyed on initial
    /// global-directory *positions*, so the colluding set (and hence the
    /// whole trajectory) is invariant across shard counts.
    ///
    /// # Errors
    ///
    /// Everything [`ShardedSimulation::with_faults`] rejects, plus
    /// [`SimConfigError::Adversary`] for a malformed adversary plan.
    pub fn with_adversary(
        config: ShardedConfig,
        initial_values: &[f64],
        master_seed: u64,
        plan: FaultPlan,
        adversary_plan: AdversaryPlan,
    ) -> Result<Self, SimConfigError> {
        config.validate(initial_values)?;
        let shard_count = config.shards;
        let mut shards: Vec<Shard> = (0..shard_count)
            .map(|s| Shard {
                arena: NodeArena::with_layout(IdLayout::sharded(s as u32)),
                global_pos: Vec::new(),
                cols: Columns::new(config.base.protocol),
            })
            .collect();
        let mut global_live = Vec::with_capacity(initial_values.len());
        for (i, &value) in initial_values.iter().enumerate() {
            let shard = &mut shards[i % shard_count];
            let (id, slot) = shard.arena.insert_at(|_| ());
            shard.cols.insert_initial(slot, value);
            shard.set_global_pos(slot, global_live.len() as u32);
            global_live.push(id);
        }
        let mut coordinator = Coordinator::build(
            &config.base,
            &global_live,
            master_seed,
            plan,
            adversary_plan,
        )?;
        let mut nodes = GlobalNodes::new(&mut global_live, &mut shards);
        coordinator.elect_leaders(&mut nodes, None);
        Ok(ShardedSimulation {
            config,
            shards,
            global_live,
            // stream: random-victim departures under churn
            churn_rng: coordinator.seeds().rng_for_labeled(0, "sharded-churn"),
            soa_order: Vec::new(),
            soa_packed: Vec::new(),
            coordinator,
        })
    }

    /// Installs (or replaces) the telemetry sink. With
    /// [`TelemetryConfig::disabled`] — the construction default — every
    /// hook is a single branch and the run is bit-identical to the
    /// pre-telemetry engine. Recording consumes no randomness, and events
    /// are keyed by global directory positions plus global sequence
    /// numbers, so the trace is invariant across shard counts.
    pub fn set_telemetry(&mut self, config: TelemetryConfig) {
        self.coordinator.set_telemetry(config);
    }

    /// Drains the trace recorded since the last drain, in canonical order
    /// ([`gossip_telemetry::Event::sort_key`]). Every event goes through the
    /// coordinator's sink, the exchange band in sequence order, so the
    /// exchange ring is in key order already: with no vetoes pending, its
    /// buffer is handed over as the trace, with no merge and no copy.
    pub fn drain_trace(&mut self) -> Vec<Event> {
        self.coordinator.telemetry.drain_events() // lint-allow(observer-effect): post-hoc export accessor for runners/tests, not protocol logic
    }

    /// Events evicted from any ring since the sink was installed — a
    /// nonzero value means the trace has holes and the ring capacity should
    /// be raised (or the trace drained more often).
    pub fn dropped_trace_events(&self) -> u64 {
        self.coordinator.telemetry.dropped_events() // lint-allow(observer-effect): post-hoc export accessor for runners/tests, not protocol logic
    }

    /// The convergence watchdog's current verdict, if one is configured.
    pub fn watchdog_verdict(&self) -> Option<gossip_telemetry::WatchdogVerdict> {
        self.coordinator.telemetry.watchdog_verdict() // lint-allow(observer-effect): post-hoc diagnosis accessor for runners/tests, not protocol logic
    }

    /// The realised adversary (colluding set and per-epoch captures).
    pub fn adversary(&self) -> &Adversary {
        self.coordinator.adversary()
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.global_live.len()
    }

    /// The current cycle index.
    pub(crate) fn cycle(&self) -> usize {
        self.coordinator.cycle()
    }

    /// Total allocated node slots across all sub-arenas (live +
    /// reclaimable) — the engine's resident-footprint high-water mark.
    pub fn slot_capacity(&self) -> usize {
        self.shards.iter().map(|s| s.arena.slot_capacity()).sum()
    }

    /// Total dead slots currently awaiting reuse across all sub-arenas.
    pub fn free_slot_count(&self) -> usize {
        self.shards.iter().map(|s| s.arena.free_slots()).sum()
    }

    /// The most recent pooled network-size estimate, if any epoch completed.
    pub fn last_size_estimate(&self) -> Option<f64> {
        self.coordinator.last_size_estimate()
    }

    /// Current default-instance estimates of all live nodes, in global
    /// directory order — a shard-count invariant ordering, which is what
    /// lets the determinism suite compare runs across shard counts
    /// bit-for-bit.
    pub fn estimates(&self) -> Vec<f64> {
        self.gather(|cols, slot| cols.estimate(slot))
    }

    /// `value` of every live node, in global directory order: each shard's
    /// live slots walked in arena order, each value written to its node's
    /// directory position.
    fn gather(&self, value: impl Fn(&Columns, u32) -> f64) -> Vec<f64> {
        let mut out = vec![0.0; self.global_live.len()];
        for shard in &self.shards {
            for &slot in shard.arena.live_slots() {
                out[shard.global_pos[slot as usize] as usize] = value(&shard.cols, slot);
            }
        }
        out
    }

    /// Adds a node with the given local value. The node is routed to the
    /// least-loaded shard (lowest index on ties — deterministic) and joins
    /// passively until the next epoch starts, exactly as in the reference
    /// engine.
    pub fn add_node(&mut self, local_value: f64) -> NodeId {
        let protocol = self.config.base.protocol;
        let cycle = self.cycle();
        let cycles_per_epoch = protocol.cycles_per_epoch() as usize;
        let cycles_until_start = (cycles_per_epoch - cycle % cycles_per_epoch) as u32;
        let next_epoch = (cycle / cycles_per_epoch) as u64 + 1;
        let shard_idx = (0..self.shards.len())
            .min_by_key(|&s| (self.shards[s].arena.len(), s))
            // lint-allow(unwrap): ShardedConfig::validate rejects zero shards
            .expect("at least one shard");
        let shard = &mut self.shards[shard_idx];
        let (id, slot) = shard.arena.insert_at(|_| ());
        // A joining node waits for its epoch: it starts cold.
        let cols = &mut shard.cols;
        cols.insert_joiner(slot, local_value, next_epoch, cycles_until_start);
        shard.set_global_pos(slot, self.global_live.len() as u32);
        self.global_live.push(id);
        let (live, shards) = (&self.global_live, &self.shards);
        let key = live.len() as u64 - 1;
        self.coordinator
            .joined(id, key, &GlobalDirectory { live, shards });
        id
    }

    /// Removes `count` uniformly random live nodes (churn schedules, crash
    /// experiments). The victim sequence is drawn from a dedicated stream
    /// over the global directory, so it is identical for every shard count.
    pub fn remove_random_nodes(&mut self, count: usize) -> usize {
        let mut nodes = GlobalNodes::new(&mut self.global_live, &mut self.shards);
        self.coordinator
            .remove_random(&mut nodes, &mut self.churn_rng, count)
    }

    /// Runs `cycles` consecutive cycles, returning all summaries.
    pub fn run(&mut self, cycles: usize) -> Vec<ShardedCycleSummary> {
        (0..cycles).map(|_| self.run_cycle()).collect()
    }

    /// Runs one full protocol cycle and returns its summary.
    pub fn run_cycle(&mut self) -> ShardedCycleSummary {
        let shard_count = self.config.shards;
        let mut nodes = GlobalNodes::new(&mut self.global_live, &mut self.shards);
        let loss = self
            .coordinator
            .enter_cycle(&mut nodes, &mut self.churn_rng);
        let (outs, exchanges_blocked) = self.run_cycle_sequential_soa(loss);

        // Merge the per-shard outputs in shard order: integer counters sum
        // exactly; statistics merge via the parallel Welford update, whose
        // floating-point result depends on the merge order — fixed here, and
        // the only place where runs with different shard counts may differ.
        let mut tally = ExchangeTally::default();
        let mut estimate_stats = OnlineStats::new();
        let mut epoch_stats = OnlineStats::new();
        let mut size_stats = OnlineStats::new();
        let mut completed_epoch = None;
        let mut shard_exchanges = Vec::with_capacity(shard_count);
        for out in &outs {
            tally.exchanges += out.tally.exchanges;
            tally.messages_lost += out.tally.messages_lost;
            shard_exchanges.push(out.tally.exchanges);
            estimate_stats.merge(&out.estimate_stats);
            epoch_stats.merge(&out.epoch_stats);
            size_stats.merge(&out.size_stats);
            completed_epoch = match (completed_epoch, out.completed_epoch) {
                (Some(a), Some(b)) => Some(std::cmp::max::<u64>(a, b)),
                (a, b) => a.or(b),
            };
        }

        if self.coordinator.telemetry.events_enabled() {
            self.coordinator
                .telemetry
                .add_message_losses(tally.messages_lost as u64);
        }
        if size_stats.count() > 0 {
            self.coordinator.last_size_estimate = Some(size_stats.mean());
        }
        if let Some(epoch) = completed_epoch {
            let mut nodes = GlobalNodes::new(&mut self.global_live, &mut self.shards);
            self.coordinator.epoch_restarted(epoch, &mut nodes, None);
        }

        let summary = ShardedCycleSummary {
            cycle: self.cycle(),
            live_nodes: self.global_live.len(),
            exchanges: tally.exchanges,
            messages_lost: tally.messages_lost,
            exchanges_blocked,
            estimate_mean: estimate_stats.mean(),
            estimate_variance: estimate_stats.sample_variance(),
            completed_epoch,
            epoch_estimates: epoch_stats,
            epoch_size_estimates: size_stats,
            shard_exchanges,
        };
        self.coordinator.end_cycle(summary.estimate_variance);
        summary
    }

    /// The executor: draws the cycle's schedule and applies it in global
    /// sequence order, returning the per-shard outputs and the number of
    /// vetoed picks. The initiator shuffle, and under the uniform sampler the
    /// peer picks, consume the `cycle-schedule` stream through block-buffered
    /// raw words ([`soa::shuffle_batched`], [`WordBuffer`]); every other
    /// sampler is asked once per initiator. Each exchange's loss coins come
    /// from its own `seed_for_run(seq)` stream of `cycle-loss`, pre-drawn per
    /// block for the fused path ([`SeedSequence::fill_block`]).
    fn run_cycle_sequential_soa(&mut self, loss: f64) -> (Vec<ShardCycleOut>, usize) {
        let shard_count = self.config.shards;
        let redundancy = self.config.base.redundancy.map(|r| r.merge);
        let kind = self.config.base.protocol.aggregate();
        let cycles_per_epoch = self.config.base.protocol.cycles_per_epoch();
        let lossy = loss > 0.0;
        let (seeds, cycle) = (self.coordinator.seeds(), self.coordinator.cycle() as u64);
        // stream: per-exchange message-loss coins, re-derived each cycle
        let loss_seeds = SeedSequence::new(seeds.seed_for_labeled(cycle, "cycle-loss"));
        // stream: per-cycle initiator shuffle and peer picks
        let mut rng = seeds.rng_for_labeled(cycle, "cycle-schedule");
        let n = self.global_live.len();

        // Packed directory mirror (candidate lookups touch 4 bytes per miss
        // instead of 8), then the shuffle entries: position in the high half
        // for the sampler's self-rejection compare, packed endpoint in the
        // low half so the initiator's shard/slot ride along through the
        // shuffle for free. The Fisher–Yates swap sequence is a function of
        // the drawn words and the length only, so shuffling these u64
        // entries applies the exact permutation `SliceRandom::shuffle` applies
        // to the bare positions — the draw order the goldens were captured
        // with — and, drawing exactly n − 1 words, leaves the stream where
        // that shuffle leaves it for the picks.
        let packed_dir = &mut self.soa_packed;
        packed_dir.clear();
        packed_dir.extend(self.global_live.iter().map(|&id| pack_endpoint(id)));
        let order = &mut self.soa_order;
        order.clear();
        order.extend(
            packed_dir
                .iter()
                .enumerate()
                .map(|(pos, &packed)| ((pos as u64) << 32) | u64::from(packed)),
        );
        soa::shuffle_batched(order, &mut rng);

        let mut tallies = vec![ExchangeTally::default(); shard_count];
        let mut exchanges_blocked = 0usize;
        let mut scratch = ExchangeScratch::new();
        let shards = &mut self.shards;
        let global_live = &self.global_live;
        let Coordinator {
            sampler,
            injector,
            telemetry,
            ..
        } = &mut self.coordinator;
        let record = telemetry.events_enabled();

        // Four stages per block of initiators, each a tight loop so dozens
        // of iterations fit the out-of-order window and the stage's random
        // loads (DRAM and TLB misses at 10⁷ nodes) overlap instead of
        // serialising: pick peers and resolve link vetoes; touch endpoints;
        // pre-draw loss coins; execute from cache. (Interleaving the stages
        // across blocks in one master loop measured *slower*: the fat loop
        // body starves the reorder buffer.)
        //
        // Draw-stream order is untouched: pick words are consumed in
        // initiator order, and sequence numbers are dense over surviving
        // picks. `link_blocked` is pure, so it is skipped when the fault lab
        // cannot block links this cycle (`links_can_block`).
        const BLOCK: usize = 128;
        let uniform = matches!(sampler.config(), SamplerConfig::UniformComplete);
        let check_links = injector.links_can_block();
        let mut words = WordBuffer::new();
        let mut cand = [0u32; BLOCK];
        let mut block_pairs = [(0u32, 0u32); BLOCK];
        // Per survivor, when recording: the (initiator, peer) global
        // directory positions its `ExchangeBegun` carries.
        let mut block_ends = [(0u32, 0u32); BLOCK];
        let mut coin_seeds = [0u64; BLOCK];
        let mut coins = [(false, false); BLOCK];
        let mut next_seq = 0usize;
        let mut start = 0usize;
        while n >= 2 && start < n {
            let end = (start + BLOCK).min(n);
            let count = end - start;
            // Stage 1: the block's surviving pairs, packed into
            // `block_pairs`, with veto events.
            let mut survivors = 0usize;
            if uniform {
                // The uniform sampler's rejection loop inlined over buffered
                // words (directory picks are live by construction, so
                // `sample_live_peer` adds nothing), then the touch loop over
                // the candidate directory lines.
                for k in 0..count {
                    let ipos = (order[start + k] >> 32) as usize;
                    let mut candidate;
                    loop {
                        candidate = soa::index_from_word(words.next(&mut rng), n);
                        if candidate != ipos {
                            break;
                        }
                    }
                    cand[k] = candidate as u32;
                }
                let mut warm = 0u32;
                for &candidate in &cand[..count] {
                    warm ^= packed_dir[candidate as usize];
                }
                std::hint::black_box(warm);
                // The veto moves between the block's draws and its
                // executions — legal because `peer_failed` is a no-op for
                // the uniform sampler.
                for k in 0..count {
                    let entry = order[start + k];
                    let initiator = entry as u32;
                    let peer = packed_dir[cand[k] as usize];
                    if check_links {
                        let initiator_id = global_live[(entry >> 32) as usize];
                        let peer_id = global_live[cand[k] as usize];
                        if injector.link_blocked(initiator_id, peer_id) {
                            sampler.peer_failed(initiator_id, peer_id);
                            exchanges_blocked += 1;
                            if record {
                                telemetry.exchange_vetoed(entry >> 32, u64::from(cand[k]));
                            }
                            continue;
                        }
                    }
                    if record {
                        block_ends[survivors] = ((entry >> 32) as u32, cand[k]);
                    }
                    block_pairs[survivors] = (initiator, peer);
                    survivors += 1;
                }
            } else {
                // Any other sampler is asked once per initiator, and each
                // veto is reported right after its pick: NEWSCAST's
                // `peer_failed` drops the neighbour, changing later picks.
                let directory = GlobalDirectory {
                    live: global_live,
                    shards,
                };
                for &entry in &order[start..end] {
                    let ipos = (entry >> 32) as usize;
                    let Some(peer_id) =
                        sample_live_peer(sampler.as_mut(), &directory, ipos, &mut rng)
                    else {
                        continue;
                    };
                    let initiator_id = global_live[ipos];
                    let ppos = if record {
                        global_pos_of(shards, peer_id)
                    } else {
                        0
                    };
                    if check_links && injector.link_blocked(initiator_id, peer_id) {
                        sampler.peer_failed(initiator_id, peer_id);
                        exchanges_blocked += 1;
                        if record {
                            telemetry.exchange_vetoed(ipos as u64, u64::from(ppos));
                        }
                        continue;
                    }
                    if record {
                        block_ends[survivors] = (ipos as u32, ppos);
                    }
                    block_pairs[survivors] = (entry as u32, pack_endpoint(peer_id));
                    survivors += 1;
                }
            }
            // Stage 2: touch every endpoint's record. The loop has no
            // hot/cold check: that check cost `epoch_1m` ≈3 %. The loads'
            // values are discarded, so they can never go stale.
            let touch = |(shard, slot): (usize, u32)| {
                let record = shards[shard].cols.hot.slots.get(slot as usize);
                record.map_or(0, |r| u64::from(r.key))
            };
            let pairs = block_pairs[..survivors].iter();
            let warm = pairs.fold(0, |w, &(a, b)| {
                w ^ touch(unpack_endpoint(a)) ^ touch(unpack_endpoint(b))
            });
            std::hint::black_box(warm);
            // Stage 3: the block's loss coins. Exchange sequence numbers are
            // dense over survivors.
            if lossy {
                loss_seeds.fill_block(next_seq as u64, &mut coin_seeds[..survivors]);
                for (k, &seed) in coin_seeds[..survivors].iter().enumerate() {
                    // Eagerly drawing both coins from the exchange's private
                    // stream is invisible when only the first is consumed.
                    let mut coin_rng = StdRng::seed_from_u64(seed);
                    coins[k] = (coin_rng.gen_bool(loss), coin_rng.gen_bool(loss));
                }
            }
            // Stage 4: execute from cache. When recording, each exchange's
            // `ExchangeBegun` and outcome go to the sink in sequence order,
            // so the sink's exchange ring stays in key order.
            for (k, &(a, b)) in block_pairs[..survivors].iter().enumerate() {
                let seq = next_seq + k;
                if record {
                    let (ipos, ppos) = block_ends[k];
                    telemetry.exchange_begun(seq as u64, ipos.into(), ppos.into());
                }
                let (shard_a, slot_a) = unpack_endpoint(a);
                let (shard_b, slot_b) = unpack_endpoint(b);
                let fused = {
                    let ra = shards[shard_a].cols.hot.hot(slot_a);
                    let rb = shards[shard_b].cols.hot.hot(slot_b);
                    matches!((ra, rb), (Some(x), Some(y)) if x.key == y.key)
                };
                let lost_before = tallies[shard_a].messages_lost;
                let begun = if fused {
                    let (initiator, peer) = if shard_a == shard_b {
                        shards[shard_a].cols.hot.pair_mut(slot_a, slot_b)
                    } else {
                        let (sa, sb) = shard_pair_mut(shards, shard_a, shard_b);
                        (
                            &mut sa.cols.hot.slots[slot_a as usize],
                            &mut sb.cols.hot.slots[slot_b as usize],
                        )
                    };
                    let (c1, c2) = coins[k];
                    let mut draw = 0u8;
                    let mut lost = move || {
                        draw += 1;
                        if draw == 1 {
                            c1
                        } else {
                            c2
                        }
                    };
                    ExchangeCore::exchange_fused_raw(
                        kind,
                        &mut initiator.state,
                        &mut initiator.exchanges,
                        &mut peer.state,
                        &mut peer.exchanges,
                        &mut lost,
                        &mut tallies[shard_a],
                    );
                    // Both endpoints hot: both active in the same epoch.
                    true
                } else {
                    // The exchange's own loss stream, seeded only if drawn.
                    let (seed, mut stream) = (loss_seeds.seed_for_run(seq as u64), None);
                    let lost = move || {
                        lossy
                            && stream
                                .get_or_insert_with(|| StdRng::seed_from_u64(seed))
                                .gen_bool(loss)
                    };
                    let ends = ((shard_a, slot_a), (shard_b, slot_b));
                    let (led, tally) = (&mut scratch.led, &mut tallies[shard_a]);
                    exchange_cold(shards, ends, kind, led, lost, tally)
                };
                // An exchange that never began (a waiting initiator) has no
                // outcome.
                if record && begun {
                    let lost = tallies[shard_a].messages_lost - lost_before;
                    telemetry.exchange_outcome(seq as u64, lost);
                }
            }
            next_seq += survivors;
            start = end;
        }

        let outs = shards
            .iter_mut()
            .zip(tallies)
            .map(|(shard, tally)| {
                end_of_cycle_pass_soa(shard, tally, kind, cycles_per_epoch, redundancy)
            })
            .collect();
        (outs, exchanges_blocked)
    }
}

/// Packs a node identifier's `(shard, slot)` into one word for the SoA
/// executor's pair list: shard in the high byte, slot (20 bits) below.
#[inline]
fn pack_endpoint(id: NodeId) -> u32 {
    (IdLayout::shard_of(id) << 24) | IdLayout::sharded_slot_of(id)
}

/// Inverse of [`pack_endpoint`].
#[inline]
fn unpack_endpoint(packed: u32) -> (usize, u32) {
    ((packed >> 24) as usize, packed & 0x00ff_ffff)
}

/// A cold or cross-epoch exchange between the endpoints `(shard, slot)`:
/// the kernel over the shards' columns. Returns `false`, doing nothing,
/// while the initiator waits for its first epoch. Kept out of line, so the
/// fused loop stays small.
#[inline(never)]
fn exchange_cold(
    shards: &mut [Shard],
    ((shard_a, slot_a), (shard_b, slot_b)): ((usize, u32), (usize, u32)),
    kind: AggregateKind,
    led: &mut Vec<LedSlot>,
    mut lost: impl FnMut() -> bool,
    tally: &mut ExchangeTally,
) -> bool {
    let Some((epoch, mut initiator)) = shards[shard_a].cols.initiator(slot_a, led) else {
        return false;
    };
    let (state, exchanges) = (&mut initiator.state, &mut initiator.exchanges);
    let peer = &mut shards[shard_b].cols.node(slot_b);
    ExchangeCore::exchange_instances(kind, epoch, state, exchanges, led, peer, &mut lost, tally);
    shards[shard_b].cols.reheat(slot_b);
    shards[shard_a].cols.write_back(slot_a, initiator, led);
    true
}

/// Disjoint mutable borrows of two distinct shards.
fn shard_pair_mut(shards: &mut [Shard], a: usize, b: usize) -> (&mut Shard, &mut Shard) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = shards.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = shards.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

impl ShardCycleOut {
    /// Notes that `epoch` completed on this shard; the latest epoch wins.
    fn epoch_completed(&mut self, epoch: u64) {
        self.completed_epoch = Some(self.completed_epoch.map_or(epoch, |e| e.max(epoch)));
    }

    /// The end-of-cycle tick of one cold node, then its (post-restart)
    /// estimate, then its promotion if it is hot again. Kept out of line:
    /// inlined into [`end_of_cycle_pass_soa`], its only caller, the node
    /// tick slowed the churned NEWSCAST workload (`overlay_churn_30k`) by
    /// ≈5 %.
    #[inline(never)]
    fn tick_cold(&mut self, cols: &mut Columns, slot: u32, redundancy: Option<MergePolicy>) {
        if let Some(result) = cols.node(slot).tick() {
            self.epoch_completed(result.epoch);
            if result.full_participation {
                if let Some(estimate) = result.default_estimate() {
                    self.epoch_stats.push(estimate);
                }
                if let Some(size) = epoch_size_estimate(&result, redundancy) {
                    self.size_stats.push(size);
                }
            }
        }
        self.estimate_stats.push(cols.estimate(slot));
        cols.reheat(slot);
    }
}

/// End-of-cycle phase of one shard, in live order: cold nodes take
/// [`ShardCycleOut::tick_cold`]; hot nodes tick, restart and report inside
/// their records, replicating `ProtocolNode::end_cycle` exactly:
///
/// * a hot node participates from its epoch's start by definition, so a
///   completing epoch always pushes its (pre-restart) default estimate;
/// * a hot node runs only the default instance, so it never contributes a
///   network-size estimate (`size_estimate_from_epoch` ignores the default
///   instance — the size machinery is cold-path by construction);
/// * the post-cycle estimate is pushed after the restart, exactly as
///   `node.estimate()` reads post-`end_cycle` state.
fn end_of_cycle_pass_soa(
    shard: &mut Shard,
    tally: ExchangeTally,
    kind: AggregateKind,
    cycles_per_epoch: u32,
    redundancy: Option<MergePolicy>,
) -> ShardCycleOut {
    let mut out = ShardCycleOut {
        tally,
        ..ShardCycleOut::default()
    };
    let (arena, cols) = (&shard.arena, &mut shard.cols);
    for &slot in arena.live_slots() {
        if cols.hot.hot(slot).is_none() {
            out.tick_cold(cols, slot, redundancy);
            continue;
        }
        let cycle = &mut cols.hot.cycles[slot as usize];
        *cycle += 1;
        let completing = *cycle >= cycles_per_epoch;
        if completing {
            *cycle = 0;
        }
        let record = &mut cols.hot.slots[slot as usize];
        let mut overflow = false;
        if completing {
            out.epoch_completed(u64::from(record.key));
            out.epoch_stats.push(kind.estimate_value(record.state));
            record.state = kind.init_value(cols.hot.local[slot as usize]);
            record.exchanges = 0;
            record.key += 1;
            overflow = record.key == soa::COLD;
        }
        out.estimate_stats.push(kind.estimate_value(record.state));
        if overflow {
            // The new epoch is not representable in the 16-byte record (u32
            // epochs), whose key now reads cold: the node continues cold.
            // Unreachable in any real run, but cheap to keep correct.
            let epochs = EpochManager::new(cycles_per_epoch, u64::from(soa::COLD));
            cols.set_epochs(slot, epochs);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::HotSlot;
    use crate::{NetworkConditions, RedundancyConfig};
    use aggregate_core::config::LateJoinPolicy;
    use aggregate_core::node::HotView;
    use aggregate_core::size_estimation::LeaderPolicy;
    use aggregate_core::{ProtocolConfig, ProtocolNode};
    use std::collections::HashMap;

    /// Test-only views of the engine: what each shard holds, node by node.
    impl ShardedSimulation {
        /// Number of live nodes per shard (the load-balance view).
        fn shard_live_counts(&self) -> Vec<usize> {
            self.shards.iter().map(|s| s.arena.len()).collect()
        }

        /// A snapshot of a node, built from its shard's columns. Returns `None`
        /// for departed nodes and stale identifiers.
        fn node(&self, id: NodeId) -> Option<ProtocolNode> {
            let shard = self.shards.get(IdLayout::shard_of(id) as usize)?;
            let slot = shard.arena.slot_of(id)?;
            Some(shard.cols.snapshot(slot, id))
        }

        /// Current local attribute values of all live nodes, in global directory
        /// order (the engine exposes no way to change them).
        fn local_values(&self) -> Vec<f64> {
            self.gather(|cols, slot| cols.hot.local[slot as usize])
        }
    }

    fn averaging(shards: usize, cycles_per_epoch: u32) -> ShardedConfig {
        ShardedConfig::averaging(
            ProtocolConfig::builder()
                .cycles_per_epoch(cycles_per_epoch)
                .build()
                .unwrap(),
            shards,
        )
    }

    #[test]
    fn validation_rejects_bad_shard_counts_and_inputs() {
        let values = [1.0, 2.0];
        assert_eq!(
            ShardedSimulation::new(averaging(0, 10), &values, 1).err(),
            Some(SimConfigError::ZeroShards)
        );
        assert_eq!(
            ShardedSimulation::new(averaging(17, 10), &values, 1).err(),
            Some(SimConfigError::TooManyShards {
                shards: 17,
                max: MAX_SHARDS,
            })
        );
        assert_eq!(
            ShardedSimulation::new(averaging(2, 10), &[], 1).err(),
            Some(SimConfigError::ZeroNodes)
        );
        assert!(matches!(
            ShardedSimulation::new(averaging(2, 10), &[1.0, f64::NAN], 1).err(),
            Some(SimConfigError::NonFiniteInitialValue { index: 1, .. })
        ));
        for policy in [
            LeaderPolicy::Fixed { probability: 1.5 },
            LeaderPolicy::Fixed {
                probability: f64::NAN,
            },
            LeaderPolicy::Adaptive {
                target_leaders: -3.0,
                fallback_probability: 0.01,
            },
        ] {
            let mut bad_policy = averaging(2, 10);
            bad_policy.base.leader_policy = Some(policy);
            assert!(
                matches!(
                    ShardedSimulation::new(bad_policy, &values, 1).err(),
                    Some(SimConfigError::LeaderPolicy { .. })
                ),
                "{policy:?} must be rejected"
            );
        }
    }

    #[test]
    fn estimates_converge_to_the_true_average_across_shards() {
        let values: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let true_mean = aggregate_core::avg::mean(&values);
        let mut sim = ShardedSimulation::new(averaging(4, 40), &values, 1).unwrap();
        let summaries = sim.run(20);
        let last = summaries.last().unwrap();
        assert!(
            last.estimate_variance < 1e-4,
            "variance {}",
            last.estimate_variance
        );
        assert!((last.estimate_mean - true_mean).abs() < 1e-6);
        assert_eq!(sim.live_count(), 500);
        assert_eq!(sim.cycle(), 20);
        assert_eq!(last.exchanges, 500);
        // Round-robin placement keeps the shards balanced.
        assert_eq!(sim.shard_live_counts(), vec![125; 4]);
        assert_eq!(last.shard_exchanges.iter().sum::<usize>(), 500);
    }

    #[test]
    fn variance_reduction_matches_the_sequential_rate() {
        // The sharded engine realises the same GETPAIR_SEQ schedule as the
        // reference engine, so the per-cycle variance reduction must hover
        // around 1/(2√e) ≈ 0.303 on the complete overlay.
        let values: Vec<f64> = (0..5_000).map(|i| (i % 100) as f64).collect();
        let mut sim = ShardedSimulation::new(averaging(4, 100), &values, 7).unwrap();
        let summaries = sim.run(8);
        let mut factors = Vec::new();
        for pair in summaries.windows(2) {
            if pair[0].estimate_variance > 1e-12 {
                factors.push(pair[1].estimate_variance / pair[0].estimate_variance);
            }
        }
        let mean_factor = factors.iter().sum::<f64>() / factors.len() as f64;
        assert!(
            (mean_factor - aggregate_core::theory::seq_rate()).abs() < 0.06,
            "mean per-cycle reduction {mean_factor}"
        );
    }

    #[test]
    fn mean_is_preserved_without_failures() {
        let values: Vec<f64> = (0..200).map(|i| (i % 17) as f64).collect();
        let true_mean = aggregate_core::avg::mean(&values);
        let mut sim = ShardedSimulation::new(averaging(3, 50), &values, 3).unwrap();
        for summary in sim.run(10) {
            assert!(
                (summary.estimate_mean - true_mean).abs() < 1e-9,
                "cycle {}: mean drifted to {}",
                summary.cycle,
                summary.estimate_mean
            );
            assert_eq!(summary.exchanges, 200);
            assert_eq!(summary.messages_lost, 0);
        }
    }

    #[test]
    fn message_loss_is_deterministic_and_does_not_prevent_convergence() {
        let values: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let config = ShardedConfig {
            base: SimulationConfig {
                conditions: NetworkConditions::with_message_loss(0.2),
                ..SimulationConfig::averaging(
                    ProtocolConfig::builder()
                        .cycles_per_epoch(100)
                        .build()
                        .unwrap(),
                )
            },
            shards: 2,
            workers: None,
        };
        let mut sim = ShardedSimulation::new(config, &values, 11).unwrap();
        let summaries = sim.run(15);
        assert!(summaries.iter().any(|s| s.messages_lost > 0));
        let last = summaries.last().unwrap();
        assert!(
            last.estimate_variance < 1.0,
            "got {}",
            last.estimate_variance
        );
    }

    #[test]
    fn epochs_complete_and_report_converged_estimates() {
        let values = vec![0.0, 10.0, 20.0, 30.0];
        let mut sim = ShardedSimulation::new(averaging(2, 10), &values, 5).unwrap();
        let mut epoch_seen = false;
        for summary in sim.run(10) {
            if let Some(epoch) = summary.completed_epoch {
                assert_eq!(epoch, 0);
                assert_eq!(summary.epoch_estimates.count(), 4);
                assert!((summary.epoch_estimates.mean() - 15.0).abs() < 0.5);
                epoch_seen = true;
            }
        }
        assert!(epoch_seen, "an epoch must complete after 10 cycles");
    }

    #[test]
    fn size_estimation_tracks_the_population() {
        let n = 400;
        let config = ShardedConfig {
            base: SimulationConfig {
                protocol: ProtocolConfig::builder()
                    .cycles_per_epoch(25)
                    .late_join(LateJoinPolicy::FixedState(0.0))
                    .build()
                    .unwrap(),
                conditions: NetworkConditions::reliable(),
                leader_policy: Some(LeaderPolicy::Fixed { probability: 0.01 }),
                sampler: SamplerConfig::UniformComplete,
                redundancy: None,
            },
            shards: 4,
            workers: None,
        };
        let mut sim = ShardedSimulation::new(config, &vec![0.0; n], 19).unwrap();
        let summaries = sim.run(25);
        let last = summaries.last().unwrap();
        assert_eq!(last.completed_epoch, Some(0));
        assert!(last.epoch_size_estimates.count() > 0);
        let mean = last.epoch_size_estimates.mean();
        assert!(
            (mean - n as f64).abs() < n as f64 * 0.05,
            "size estimate {mean} should be ≈ {n}"
        );
        assert!(sim.last_size_estimate().is_some());
    }

    #[test]
    fn churn_routes_to_shards_and_keeps_arenas_bounded() {
        let values = vec![0.0; 200];
        let mut sim = ShardedSimulation::new(averaging(4, 10), &values, 43).unwrap();
        for _ in 0..50 {
            for _ in 0..5 {
                sim.add_node(0.0);
            }
            assert_eq!(sim.remove_random_nodes(5), 5);
            sim.run_cycle();
        }
        assert_eq!(sim.live_count(), 200);
        assert!(
            sim.slot_capacity() <= 205,
            "slot capacity {} must stay bounded",
            sim.slot_capacity()
        );
        // The load balancer keeps shard sizes within the churn amplitude.
        let counts = sim.shard_live_counts();
        assert!(counts.iter().all(|&c| (40..=60).contains(&c)), "{counts:?}");
    }

    #[test]
    fn joining_nodes_wait_for_the_next_epoch() {
        let values = vec![5.0; 20];
        let mut sim = ShardedSimulation::new(averaging(2, 6), &values, 13).unwrap();
        sim.run(2);
        let newcomer = sim.add_node(500.0);
        assert_eq!(sim.live_count(), 21);
        for summary in sim.run(4) {
            if summary.completed_epoch.is_some() {
                assert!((summary.epoch_estimates.mean() - 5.0).abs() < 1e-9);
            }
        }
        let summaries = sim.run(6);
        let completed: Vec<_> = summaries
            .iter()
            .filter(|s| s.completed_epoch.is_some())
            .collect();
        assert!(!completed.is_empty());
        let expected = (5.0 * 20.0 + 500.0) / 21.0;
        let mean = completed.last().unwrap().epoch_estimates.mean();
        assert!(
            (mean - expected).abs() < 1e-6,
            "epoch mean {mean} must equal the new true average {expected}"
        );
        assert!(sim.node(newcomer).is_some());
    }

    #[test]
    fn empty_fault_plan_is_identical_to_the_plain_constructor() {
        let values: Vec<f64> = (0..200).map(|i| (i % 13) as f64).collect();
        let config = averaging(3, 10);
        let mut plain = ShardedSimulation::new(config, &values, 7).unwrap();
        let mut faulted =
            ShardedSimulation::with_faults(config, &values, 7, FaultPlan::none()).unwrap();
        assert_eq!(plain.run(12), faulted.run(12));
    }

    /// A 4-shard run under 20 % dead links, a partition and 5 % loss: every
    /// cycle's summary and the final estimate bits.
    fn faulted_run(workers: Option<usize>) -> (Vec<ShardedCycleSummary>, Vec<u64>) {
        let values: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let plan = FaultPlan {
            link_failure: 0.2,
            base_loss: 0.05,
            ..FaultPlan::with_partition(3, 8, 0.3)
        };
        let config = ShardedConfig {
            workers,
            ..averaging(4, 50)
        };
        let mut sim = ShardedSimulation::with_faults(config, &values, 41, plan).unwrap();
        let summaries = sim.run(12);
        let bits = sim.estimates().iter().map(|v| v.to_bits()).collect();
        (summaries, bits)
    }

    #[test]
    fn workers_is_inert_apart_from_rejecting_zero() {
        let zero = ShardedConfig {
            workers: Some(0),
            ..averaging(4, 50)
        };
        assert_eq!(
            ShardedSimulation::new(zero, &[1.0, 2.0], 1).err(),
            Some(SimConfigError::ZeroWorkers)
        );
        let reference = faulted_run(Some(1));
        for workers in [Some(8), None] {
            assert_eq!(
                faulted_run(workers),
                reference,
                "workers = {workers:?} changed the run"
            );
        }
    }

    #[test]
    fn dead_links_block_exchanges_and_the_sharded_engine_still_converges() {
        let values: Vec<f64> = (0..400).map(|i| i as f64).collect();
        let true_mean = aggregate_core::avg::mean(&values);
        let plan = FaultPlan::with_link_failure(0.2);
        let mut sim = ShardedSimulation::with_faults(averaging(4, 100), &values, 11, plan).unwrap();
        let summaries = sim.run(25);
        let blocked: usize = summaries.iter().map(|s| s.exchanges_blocked).sum();
        let attempted: usize = summaries.iter().map(|s| s.exchanges).sum::<usize>() + blocked;
        let blocked_rate = blocked as f64 / attempted as f64;
        assert!(
            (blocked_rate - 0.2).abs() < 0.03,
            "blocked rate {blocked_rate} should track the dead-link probability"
        );
        let last = summaries.last().unwrap();
        assert!(last.estimate_variance < 1e-3, "{}", last.estimate_variance);
        assert!((last.estimate_mean - true_mean).abs() < 1e-6);
    }

    #[test]
    fn crash_bursts_fire_inside_the_cycle_and_shrink_the_population() {
        let values = vec![0.0; 300];
        let plan = FaultPlan::with_crash_burst(4, 0.3);
        let mut sim = ShardedSimulation::with_faults(averaging(2, 10), &values, 19, plan).unwrap();
        let summaries = sim.run(6);
        assert_eq!(summaries[3].live_nodes, 300, "burst must not fire early");
        assert_eq!(summaries[4].live_nodes, 300 - 90, "30% burst at cycle 4");
        assert_eq!(summaries[5].live_nodes, 210);
        assert_eq!(sim.live_count(), 210);
    }

    #[test]
    fn reading_nodes_changes_nothing() {
        // A churned COUNT run: four led instances an epoch keep most nodes
        // cold for part of each epoch, and joiners wait cold. Reading a node
        // builds a snapshot from the columns, hot or cold.
        let protocol = ProtocolConfig::builder()
            .cycles_per_epoch(6)
            .late_join(LateJoinPolicy::FixedState(0.0))
            .build()
            .unwrap();
        let config = ShardedConfig {
            base: SimulationConfig {
                redundancy: Some(RedundancyConfig::median_of(4)),
                ..SimulationConfig::averaging(protocol)
            },
            shards: 3,
            workers: None,
        };
        let values: Vec<f64> = (0..200).map(|i| (i % 13) as f64).collect();
        let run = |reads: bool| {
            let mut sim = ShardedSimulation::new(config, &values, 5).unwrap();
            let mut inputs: HashMap<NodeId, f64> = sim
                .global_live
                .iter()
                .copied()
                .zip(values.iter().copied())
                .collect();
            let mut picks = StdRng::seed_from_u64(9);
            let (mut hot_reads, mut cold_reads) = (0, 0);
            let mut summaries = Vec::new();
            for cycle in 0..30 {
                for j in 0..3 {
                    let value = 1_000.0 + (cycle * 3 + j) as f64;
                    inputs.insert(sim.add_node(value), value);
                }
                sim.remove_random_nodes(3);
                let expected: Vec<f64> = sim.global_live.iter().map(|id| inputs[id]).collect();
                assert_eq!(sim.local_values(), expected, "cycle {cycle}");
                for _ in 0..(if reads { 20 } else { 0 }) {
                    let id = sim.global_live[picks.gen_range(0..sim.live_count())];
                    let shard = &sim.shards[IdLayout::shard_of(id) as usize];
                    match shard.cols.hot.hot(IdLayout::sharded_slot_of(id)) {
                        Some(_) => hot_reads += 1,
                        None => cold_reads += 1,
                    }
                    assert_eq!(
                        sim.node(id).as_ref().map(ProtocolNode::local_value),
                        Some(inputs[&id])
                    );
                }
                summaries.push(sim.run_cycle());
            }
            assert!(!reads || (hot_reads > 100 && cold_reads > 100));
            let estimates: Vec<u64> = sim.estimates().iter().map(|v| v.to_bits()).collect();
            (summaries, estimates)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn a_restart_past_the_u32_epoch_range_continues_cold_with_its_state() {
        let mut sim = ShardedSimulation::new(averaging(1, 3), &[4.0], 3).unwrap();
        let id = sim.global_live[0];
        let slot = IdLayout::sharded_slot_of(id);
        // A hot record one epoch short of the record's range, about to
        // restart.
        let shard = &mut sim.shards[0];
        shard.cols.hot.slots[slot as usize] = HotSlot {
            state: 9.0,
            key: u32::MAX - 1,
            exchanges: 2,
        };
        shard.cols.hot.cycles[slot as usize] = 2;
        let summary = sim.run_cycle();
        assert_eq!(summary.completed_epoch, Some(u64::from(u32::MAX - 1)));
        assert_eq!(summary.epoch_estimates.mean(), 9.0);
        assert_eq!(
            sim.shards[0].cols.hot.hot(slot),
            None,
            "the epoch overflows the record"
        );
        let restarted = HotView {
            state: 4.0,
            epoch: u64::from(u32::MAX),
            cycle_in_epoch: 0,
            exchanges: 0,
        };
        assert_eq!(
            sim.node(id).as_ref().and_then(ProtocolNode::hot_view),
            Some(restarted)
        );
        // Every later promotion fails, and the node runs on cold.
        sim.run(4);
        assert_eq!(sim.shards[0].cols.hot.hot(slot), None);
        let node = sim.node(id).expect("a failed promotion keeps the node");
        assert_eq!(node.current_epoch(), u64::from(u32::MAX) + 1);
        assert_eq!(sim.estimates(), vec![4.0]);
        assert_eq!(sim.local_values(), vec![4.0]);
    }

    /// FNV-1a over a text's bytes.
    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |fnv, byte| {
            (fnv ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3)
        })
    }

    #[test]
    fn traced_runs_under_loss_churn_and_dead_links_keep_their_pinned_trace() {
        // The JSONL of each run's per-cycle drains, pinned from the k-way
        // merge of per-shard rings: an independent way to the same trace.
        for (shards, pinned) in [(1, 0xd13a_bd71_e2cb_6dcb), (4, 0x3e6a_d74b_4b79_cace)] {
            let values: Vec<f64> = (0..300).map(|i| (i % 37) as f64).collect();
            let mut config = averaging(shards, 8);
            config.base.conditions = NetworkConditions::with_message_loss(0.1);
            let plan = FaultPlan::with_link_failure(0.1);
            let mut sim = ShardedSimulation::with_faults(config, &values, 4_040, plan).unwrap();
            sim.set_telemetry(TelemetryConfig::trace());
            let (mut jsonl, mut lost) = (String::new(), 0);
            let mut counts = HashMap::new();
            for cycle in 0..24 {
                for i in 0..5 {
                    sim.add_node((cycle * 5 + i) as f64);
                }
                sim.remove_random_nodes(5);
                lost += sim.run_cycle().messages_lost as u64;
                // Vetoes, joins and losses included, the exchange ring is in
                // key order, so a drain with no vetoes hands it over.
                assert!(sim.coordinator.telemetry.exchange_ring_in_key_order());
                let events = sim.drain_trace();
                assert!(events
                    .windows(2)
                    .all(|w| w[0].sort_key() <= w[1].sort_key()));
                for event in &events {
                    *counts.entry(event.kind.name()).or_insert(0u64) += 1;
                }
                jsonl.push_str(&gossip_telemetry::trace::to_jsonl(&events));
            }
            let count = |name| counts.get(name).copied().unwrap_or(0);
            for name in [
                "exchange_vetoed",
                "message_lost",
                "node_joined",
                "epoch_restarted",
            ] {
                assert!(count(name) > 0, "{shards} shards: no {name} event");
            }
            // Outcomes are recorded without counting, so each counter counts
            // once.
            let metrics = sim.coordinator.telemetry.metrics();
            let counter = |name| metrics.counter_value(name).unwrap();
            assert_eq!(counter("exchanges"), count("exchange_begun"));
            assert_eq!(counter("messages_lost"), lost);
            assert_eq!(count("message_lost"), lost);
            assert_eq!(fnv1a(&jsonl), pinned, "{shards} shards: the trace moved");
        }
    }

    /// The loss model of one side of `columns_follow_protocol_nodes`: coin
    /// `k` of the cycled `coins` is a loss when it is zero.
    fn coin_stream<'a>(coins: &'a [u8], drawn: &'a mut usize) -> impl FnMut() -> bool + 'a {
        move || {
            *drawn += 1;
            coins[(*drawn - 1) % coins.len()] == 0
        }
    }

    /// One random history of two nodes, applied to two `ProtocolNode`s and
    /// to the same nodes in columns, in one shard or in two, through the
    /// paths the engine takes: an exchange runs fused when both records are
    /// hot in one epoch and through `exchange_cold` otherwise, and
    /// `end_cycle` is the cold tick followed by a promotion. The history
    /// joins nodes with a wait, starts led instances, exchanges under loss,
    /// ends cycles across epoch restarts and corrupts estimates and
    /// instances. After every step the estimates, instance estimates,
    /// epoch reports, tallies, loss draws and whole nodes agree.
    fn columns_follow_protocol_nodes(
        setup: (usize, bool, u32, bool),
        locals: &[f64],
        steps: &[(u8, usize, u64, f64)],
        coins: &[u8],
    ) {
        let (kind, fixed_late_join, cycles, one_shard) = setup;
        let kinds = [
            AggregateKind::Average,
            AggregateKind::Maximum,
            AggregateKind::Minimum,
            AggregateKind::GeometricMean,
        ];
        let (kind, late_join) = match fixed_late_join {
            true => (kinds[kind], LateJoinPolicy::FixedState(0.0)),
            false => (kinds[kind], LateJoinPolicy::LocalValue),
        };
        let protocol = ProtocolConfig::builder()
            .aggregate(kind)
            .cycles_per_epoch(cycles)
            .late_join(late_join)
            .build()
            .unwrap();
        let ids = [NodeId::new(0), NodeId::new(1)];
        let mut nodes = ids.map(|id| ProtocolNode::new(id, protocol, locals[id.index()]));
        let mut shards: Vec<Shard> = (0..2 - u32::from(one_shard))
            .map(|s| Shard {
                arena: NodeArena::with_layout(IdLayout::sharded(s)),
                global_pos: Vec::new(),
                cols: Columns::new(protocol),
            })
            .collect();
        // Node i sits at (shard, slot) (0, i) in one shard, (i, 0) in two.
        let at = |i: usize| if one_shard { (0, i as u32) } else { (i, 0) };
        for (i, &local) in locals.iter().enumerate() {
            let (shard, slot) = at(i);
            shards[shard].cols.insert_initial(slot, local);
        }
        let (mut tally, mut column_tally) = (ExchangeTally::default(), ExchangeTally::default());
        let (mut drawn, mut column_drawn) = (0, 0);
        let mut scratch = ExchangeScratch::new();
        let tag = |t: u64| InstanceTag(1 + t % 5);
        for (step, &(op, i, t, value)) in steps.iter().enumerate() {
            let ((shard, slot), (peer_shard, peer_slot)) = (at(i), at(1 - i));
            match op {
                0..=2 => {
                    let [a, b] = &mut nodes;
                    let (initiator, peer) = if i == 0 { (a, b) } else { (b, a) };
                    let mut lost = coin_stream(coins, &mut drawn);
                    ExchangeCore::exchange(initiator, peer, &mut scratch, &mut lost, &mut tally);
                    let lost = coin_stream(coins, &mut column_drawn);
                    let hot = |(s, x): (usize, u32)| shards[s].cols.hot.hot(x).map(|r| r.key);
                    let fused =
                        matches!((hot(at(i)), hot(at(1 - i))), (Some(x), Some(y)) if x == y);
                    if fused {
                        let (ra, rb) = if one_shard {
                            shards[0].cols.hot.pair_mut(slot, peer_slot)
                        } else {
                            let (x, y) = shard_pair_mut(&mut shards, shard, peer_shard);
                            (&mut x.cols.hot.slots[0], &mut y.cols.hot.slots[0])
                        };
                        let (state, exchanges) = (&mut ra.state, &mut ra.exchanges);
                        let (peer_state, peer_exchanges) = (&mut rb.state, &mut rb.exchanges);
                        let (lost, tally) = (&mut { lost }, &mut column_tally);
                        ExchangeCore::exchange_fused_raw(
                            kind,
                            state,
                            exchanges,
                            peer_state,
                            peer_exchanges,
                            lost,
                            tally,
                        );
                    } else {
                        let ends = ((shard, slot), (peer_shard, peer_slot));
                        exchange_cold(
                            &mut shards,
                            ends,
                            kind,
                            &mut scratch.led,
                            lost,
                            &mut column_tally,
                        );
                    }
                }
                3 => {
                    let expected = nodes[i].end_cycle();
                    let got = shards[shard].cols.node(slot).tick();
                    shards[shard].cols.reheat(slot);
                    assert_eq!(got, expected, "step {step}: epoch report");
                }
                4 => {
                    nodes[i].start_led_instance(tag(t), value);
                    shards[shard].cols.node(slot).start_led(tag(t), value);
                }
                5 => {
                    nodes[i].corrupt_estimate(value);
                    shards[shard].cols.hot.slots[slot as usize].state = value;
                }
                6 => {
                    nodes[i].corrupt_instance(tag(t), value);
                    shards[shard].cols.node(slot).corrupt_led(tag(t), value);
                }
                _ => {
                    // A join: the epoch the other node runs or the next, and
                    // a wait of up to an epoch.
                    let next = nodes[1 - i].current_epoch() + t % 2;
                    let (wait, local) = ((t / 2 % u64::from(cycles + 1)) as u32, 1.0 + value.abs());
                    nodes[i] = ProtocolNode::joining(ids[i], protocol, local, next, wait);
                    shards[shard].cols.insert_joiner(slot, local, next, wait);
                }
            }
            assert_eq!(
                (tally, drawn),
                (column_tally, column_drawn),
                "step {step}: tallies"
            );
            for (i, node) in nodes.iter().enumerate() {
                let (shard, slot) = at(i);
                let cols = &shards[shard].cols;
                let snapshot = cols.snapshot(slot, ids[i]);
                assert_eq!(Some(cols.estimate(slot)), node.estimate(), "step {step}");
                for t in 0..5 {
                    let estimate = snapshot.instance_estimate(tag(t));
                    assert_eq!(estimate, node.instance_estimate(tag(t)), "step {step}");
                }
                // `Debug` prints every float in exact round-trip form.
                assert_eq!(format!("{snapshot:?}"), format!("{node:?}"), "step {step}");
                if let Some(view) = cols.hot.view(slot) {
                    assert_eq!(node.hot_view(), Some(view), "step {step}: a hot record");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// [`columns_follow_protocol_nodes`] over short random histories.
        #[test]
        fn columns_follow_protocol_nodes_over_random_histories(
            setup in (0usize..4, proptest::bool::ANY, 1u32..5, proptest::bool::ANY),
            locals in proptest::collection::vec(0.5f64..100.0, 2..3),
            steps in proptest::collection::vec((0u8..8, 0usize..2, 0u64..64, -50.0f64..50.0), 0..60),
            coins in proptest::collection::vec(0u8..4, 1..16),
        ) {
            columns_follow_protocol_nodes(setup, &locals, &steps, &coins);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20_000))]

        /// The deep run of [`columns_follow_protocol_nodes`]: more and
        /// longer histories.
        #[test]
        #[ignore = "deep run: 20 000 histories of up to 400 steps"]
        fn columns_follow_protocol_nodes_over_long_random_histories(
            setup in (0usize..4, proptest::bool::ANY, 1u32..5, proptest::bool::ANY),
            locals in proptest::collection::vec(0.5f64..100.0, 2..3),
            steps in proptest::collection::vec((0u8..8, 0usize..2, 0u64..64, -50.0f64..50.0), 0..400),
            coins in proptest::collection::vec(0u8..4, 1..16),
        ) {
            columns_follow_protocol_nodes(setup, &locals, &steps, &coins);
        }
    }

    #[test]
    fn tiny_networks_do_not_panic() {
        let mut sim = ShardedSimulation::new(averaging(2, 3), &[1.0], 29).unwrap();
        let summary = sim.run_cycle();
        assert_eq!(summary.exchanges, 0);
        assert_eq!(summary.live_nodes, 1);
        assert_eq!(sim.estimates(), vec![1.0]);
    }
}
