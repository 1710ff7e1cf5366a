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
//! touch the endpoints, pre-draw loss coins, then execute. An exchange
//! between two hot nodes in the same epoch runs fused over the dense
//! [`HotStore`] records; any other takes the node path
//! ([`ExchangeCore::exchange`]). The pipeline may batch draws but never
//! reorders exchanges: two exchanges that share an endpoint do not commute.
//!
//! Each live node has one representation. A *hot* node is only its
//! [`HotStore`] record; a *cold* one (a joiner, a mid-epoch jumper, a node
//! carrying led COUNT instances) is only a boxed [`ProtocolNode`] in its
//! arena slot. The node path demotes a hot endpoint — rebuilds its node from
//! the record — and promotes it back, dropping the node, once it is hot again.
//!
//! Per-cycle telemetry is accumulated in per-shard [`OnlineStats`] and
//! merged in shard order (Chan's parallel Welford update), so a million-node
//! cycle streams no per-node vectors through a single accumulator.
//!
//! The epoch environment — fault lab, adversary, elections, telemetry and
//! virtual time — is the shared [`Coordinator`], driven over the global
//! directory: churn victims come from the `sharded-churn` stream, each
//! election from its own `election` stream, and events are keyed by global
//! directory position, so all of it is shard-count invariant.

use crate::arena::{IdLayout, NodeArena, MAX_SHARDS};
use crate::coordinator::{epoch_size_estimate, Coordinator, CycleNodes};
use crate::soa::{self, HotStore, WordBuffer};
use crate::{SeedSequence, SimConfigError, SimulationConfig};
use aggregate_core::node::{HotView, ProtocolNode};
use aggregate_core::redundancy::MergePolicy;
use aggregate_core::sampler::{sample_live_peer, SamplerConfig, SamplerDirectory};
use aggregate_core::{
    AggregateKind, ExchangeCore, ExchangeScratch, ExchangeTally, InstanceTag, ProtocolConfig,
};
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
    /// nodes and its own [`crate::arena::IdLayout`] identifier space. The
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
    pub fn validate(&self, initial_values: &[f64]) -> Result<(), SimConfigError> {
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
    /// recorded by the bench CSV artifacts.
    pub shard_exchanges: Vec<usize>,
}

/// A shard's arena: per live slot, `None` while the occupant is hot and its
/// node while it is cold.
pub(crate) type ShardArena = NodeArena<Option<Box<ProtocolNode>>>;

/// Node state owned by one shard.
#[derive(Debug)]
struct Shard {
    arena: ShardArena,
    /// Per slot: position of the occupant in the global live directory.
    global_pos: Vec<u32>,
    /// The struct-of-arrays records of this shard's *hot* nodes (see
    /// [`crate::soa`]), [`soa::COLD`]-keyed at every other slot.
    hot: HotStore,
    /// The protocol every node runs, for rebuilding demoted nodes.
    protocol: ProtocolConfig,
    /// Whether a live node of this shard may be cold: exact after every full
    /// pass over the shard, `true` after a join or a demotion. A prefetch
    /// hint for the block pipeline's touch stage; it never changes a result.
    cold_live: bool,
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
        self.shards
            .get(shard)
            .is_some_and(|s| s.arena.get(id).is_some())
    }
}

/// The sharded engine's node store as the [`Coordinator`] sees it:
/// positions are the global live directory, and trace keys are those
/// positions, not identifiers, which embed the shard layout.
#[derive(Debug)]
struct GlobalNodes<'a> {
    live: &'a mut Vec<NodeId>,
    shards: &'a mut [Shard],
    /// The node `node_mut` handed out last, promoted back by the next call
    /// or by [`GlobalNodes::settle`] if it is still hot.
    demoted: Option<NodeId>,
}

impl<'a> GlobalNodes<'a> {
    fn new(live: &'a mut Vec<NodeId>, shards: &'a mut [Shard]) -> Self {
        GlobalNodes {
            live,
            shards,
            demoted: None,
        }
    }

    /// Promotes the node `node_mut` handed out last if it is still hot, so
    /// an election that visits every node holds one demoted node at a time.
    fn settle(&mut self) {
        if let Some(id) = self.demoted.take() {
            let shard = &mut self.shards[IdLayout::shard_of(id) as usize];
            shard.settle(IdLayout::sharded_slot_of(id));
        }
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
    /// Demotes the node at `pos`, after promoting the one handed out last.
    fn node_mut(&mut self, pos: usize) -> Option<&mut ProtocolNode> {
        self.settle();
        let id = self.live[pos];
        self.demoted = Some(id);
        let shard = &mut self.shards[IdLayout::shard_of(id) as usize];
        shard.demote(IdLayout::sharded_slot_of(id))
    }

    fn corrupt_estimate(&mut self, id: NodeId, value: f64) -> Option<u64> {
        let shard = &mut self.shards[IdLayout::shard_of(id) as usize];
        let slot = shard.arena.slot_of(id)?;
        // A hot node is its record; `corrupt_estimate` only overwrites the
        // running approximation, which is exactly the record's state.
        match shard.arena.get_mut(id)? {
            Some(node) => node.corrupt_estimate(value),
            None => shard.hot.slots[slot as usize].state = value,
        }
        Some(u64::from(shard.global_pos[slot as usize]))
    }

    fn corrupt_instance(&mut self, id: NodeId, state: f64) {
        // A captured leader runs a led instance, so it is cold by
        // construction; a hot node runs no led instance to corrupt.
        let shard = &mut self.shards[IdLayout::shard_of(id) as usize];
        if let Some(Some(node)) = shard.arena.get_mut(id) {
            node.corrupt_instance(InstanceTag::from_leader(id), state);
        }
    }

    fn remove_at(&mut self, pos: usize) -> (NodeId, u64) {
        let id = self.live[pos];
        let shard = &mut self.shards[IdLayout::shard_of(id) as usize];
        let slot = IdLayout::sharded_slot_of(id);
        shard.arena.remove_slot_checked(slot);
        // The departed node's state vanishes with it.
        shard.hot.mark_cold(slot);
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

    /// The node at live `slot`, demoting a hot occupant first: its node is
    /// rebuilt from the record, which goes cold. `None` for a dead slot.
    fn demote(&mut self, slot: u32) -> Option<&mut ProtocolNode> {
        if let Some(view) = self.hot.view(slot) {
            let (id, local) = (self.arena.id_at_slot(slot), self.hot.local[slot as usize]);
            let node = ProtocolNode::from_hot_view(id, self.protocol, local, view);
            *self.arena.node_at_slot_mut(slot)? = Some(Box::new(node));
            self.hot.mark_cold(slot);
            self.cold_live = true;
        }
        self.arena.node_at_slot_mut(slot)?.as_deref_mut()
    }

    /// Promotes `slot`'s cold occupant, dropping its node, when it is hot
    /// again and its epoch fits the record; otherwise it stays cold.
    fn settle(&mut self, slot: u32) {
        let Some(entry) = self.arena.node_at_slot_mut(slot) else {
            return;
        };
        let Some(node) = entry.as_deref() else {
            return;
        };
        match node.hot_view() {
            Some(view) if self.hot.promote(slot, view, node.local_value()) => *entry = None,
            _ => self.cold_live = true,
        }
    }

    /// Reads `slot`'s hot record, if any, so the execute pass hits L1.
    #[inline]
    fn touch_record(&self, slot: u32) -> u64 {
        self.hot
            .slots
            .get(slot as usize)
            .map_or(0, |r| u64::from(r.key))
    }

    /// Reads one word per cache line an exchange at `slot` needs — the hot
    /// record, or the node's epoch state, instance state and led slots
    /// when the record is cold — so the execute pass hits L1.
    #[inline]
    fn touch(&self, slot: u32) -> u64 {
        match self.hot.slots.get(slot as usize) {
            Some(record) if record.is_hot() => u64::from(record.key),
            _ => self
                .arena
                .node_at_slot(slot)
                .and_then(Option::as_deref)
                .map_or(0, |node| {
                    node.current_epoch()
                        ^ node.estimate().unwrap_or(0.0).to_bits()
                        ^ u64::from(node.has_only_default_instance())
                }),
        }
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
    shard_exchange_totals: Vec<usize>,
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

/// Lazily seeded per-exchange loss model: free when the loss probability is
/// zero, and a deterministic function of the exchange's sequence number
/// otherwise. The probability is the cycle's effective loss rate as
/// computed by the fault injector (a plain `NetworkConditions` run feeds its
/// constant rate through the same path).
fn exchange_loss(loss: f64, seed: u64) -> impl FnMut() -> bool {
    let mut rng: Option<StdRng> = None;
    move || {
        if loss <= 0.0 {
            return false;
        }
        let rng = rng.get_or_insert_with(|| StdRng::seed_from_u64(seed));
        rng.gen_bool(loss)
    }
}

impl ShardedSimulation {
    /// Creates a sharded simulation with one node per initial value
    /// (distributed round-robin over the shards), all present from epoch 0.
    ///
    /// # Errors
    ///
    /// See [`ShardedConfig::validate`].
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
    /// Everything [`ShardedConfig::validate`] rejects, plus
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
        let protocol = config.base.protocol;
        let mut shards: Vec<Shard> = (0..shard_count)
            .map(|s| Shard {
                arena: NodeArena::with_layout(IdLayout::sharded(s as u32)),
                global_pos: Vec::new(),
                hot: HotStore::default(),
                protocol,
                cold_live: false,
            })
            .collect();
        let mut global_live = Vec::with_capacity(initial_values.len());
        let kind = protocol.aggregate();
        for (i, &value) in initial_values.iter().enumerate() {
            let shard = &mut shards[i % shard_count];
            let (id, slot) = shard.arena.insert_at(|_| None);
            // `ProtocolNode::new(id, protocol, value).hot_view()`, written
            // straight into the record: every initial node starts hot.
            let view = HotView {
                state: kind.init_value(value),
                epoch: 0,
                cycle_in_epoch: 0,
                exchanges: 0,
            };
            shard.hot.promote(slot, view, value);
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
        nodes.settle();
        Ok(ShardedSimulation {
            config,
            shards,
            global_live,
            // stream: random-victim departures under churn
            churn_rng: coordinator.seeds().rng_for_labeled(0, "sharded-churn"),
            shard_exchange_totals: vec![0; shard_count],
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

    /// Every verdict transition the watchdog has diagnosed so far.
    pub fn watchdog_diagnoses(&self) -> &[gossip_telemetry::Diagnosis] {
        self.coordinator.telemetry.diagnoses() // lint-allow(observer-effect): post-hoc diagnosis accessor for runners/tests, not protocol logic
    }

    /// The accumulated telemetry counters (post-hoc readout).
    pub fn telemetry_metrics(&self) -> &gossip_telemetry::MetricsRegistry {
        self.coordinator.telemetry.metrics() // lint-allow(observer-effect): post-hoc metrics accessor for runners/tests, not protocol logic
    }

    /// The peer-sampling configuration exchange partners are drawn from.
    pub fn sampler_config(&self) -> SamplerConfig {
        self.coordinator.sampler.config()
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
    pub fn cycle(&self) -> usize {
        self.coordinator.cycle()
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.config.shards
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

    /// Number of live nodes per shard (the load-balance view).
    pub fn shard_live_counts(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.arena.len()).collect()
    }

    /// Total exchanges initiated per shard since construction — the
    /// accumulated load-balance telemetry [`crate::runner::ChurnReport`]
    /// records.
    pub fn shard_exchange_totals(&self) -> &[usize] {
        &self.shard_exchange_totals
    }

    /// The most recent pooled network-size estimate, if any epoch completed.
    pub fn last_size_estimate(&self) -> Option<f64> {
        self.coordinator.last_size_estimate()
    }

    /// Read access to a node. Returns `None` for departed nodes and stale
    /// identifiers.
    ///
    /// Takes `&mut self` because a hot node is only its struct-of-arrays
    /// record: reading it demotes it, rebuilding its `ProtocolNode`, and the
    /// node stays cold until the end of the cycle promotes it back. The read
    /// changes no result.
    pub fn node(&mut self, id: NodeId) -> Option<&ProtocolNode> {
        let shard = self.shards.get_mut(IdLayout::shard_of(id) as usize)?;
        let slot = shard.arena.slot_of(id)?;
        shard.demote(slot).map(|node| &*node)
    }

    /// Current default-instance estimates of all live nodes, in global
    /// directory order — a shard-count invariant ordering, which is what
    /// lets the determinism suite compare runs across shard counts
    /// bit-for-bit. Hot nodes are read from their records (`estimate_value`
    /// over the record's state is bit-identical to the node-side estimate).
    pub fn estimates(&self) -> Vec<f64> {
        let kind = self.config.base.protocol.aggregate();
        self.global_live
            .iter()
            .filter_map(|&id| {
                let shard = self.shards.get(IdLayout::shard_of(id) as usize)?;
                let slot = IdLayout::sharded_slot_of(id) as usize;
                match shard.arena.get(id)? {
                    Some(node) => node.estimate(),
                    None => Some(kind.estimate_value(shard.hot.slots[slot].state)),
                }
            })
            .collect()
    }

    /// Current local attribute values of all live nodes, in global directory
    /// order: a cold node's own, a hot node's from its shard's `local`
    /// column (the engine exposes no way to change them).
    pub fn local_values(&self) -> Vec<f64> {
        self.global_live
            .iter()
            .filter_map(|&id| {
                let shard = self.shards.get(IdLayout::shard_of(id) as usize)?;
                let slot = IdLayout::sharded_slot_of(id) as usize;
                match shard.arena.get(id)? {
                    Some(node) => Some(node.local_value()),
                    None => Some(shard.hot.local[slot]),
                }
            })
            .collect()
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
        let (id, slot) = shard.arena.insert_at(|id| {
            let node =
                ProtocolNode::joining(id, protocol, local_value, next_epoch, cycles_until_start);
            Some(Box::new(node))
        });
        // A joining node waits for its epoch — never hot; the slot may be a
        // reused one carrying a stale hot record.
        shard.hot.mark_cold(slot);
        shard.cold_live = true;
        shard.set_global_pos(slot, self.global_live.len() as u32);
        self.global_live.push(id);
        let (live, shards) = (&self.global_live, &self.shards);
        let key = live.len() as u64 - 1;
        self.coordinator
            .joined(id, key, &GlobalDirectory { live, shards });
        id
    }

    /// Removes a specific node. Returns `true` if the node was live; stale
    /// identifiers are rejected.
    pub fn remove_node(&mut self, id: NodeId) -> bool {
        let mut nodes = GlobalNodes::new(&mut self.global_live, &mut self.shards);
        if !nodes.is_live(id) {
            return false;
        }
        let (_, key) = nodes.remove_at(global_pos_of(nodes.shards, id) as usize);
        self.coordinator.departed(id, key);
        true
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
        for (shard, out) in outs.iter().enumerate() {
            tally.exchanges += out.tally.exchanges;
            tally.messages_lost += out.tally.messages_lost;
            shard_exchanges.push(out.tally.exchanges);
            self.shard_exchange_totals[shard] += out.tally.exchanges;
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
            // An election demotes each node it visits and promotes it back.
            let mut nodes = GlobalNodes::new(&mut self.global_live, &mut self.shards);
            self.coordinator.epoch_restarted(epoch, &mut nodes, None);
            nodes.settle();
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
    /// vetoed picks. The steady-state work runs over the dense per-shard
    /// [`HotStore`]s:
    ///
    /// * the initiator shuffle consumes the `cycle-schedule` stream through
    ///   block-buffered raw words ([`soa::shuffle_batched`]); under the
    ///   uniform sampler the peer picks do too ([`WordBuffer`], with the
    ///   sampler's pick loop inlined — zero virtual calls per pick), while
    ///   every other sampler is asked once per initiator;
    /// * per-exchange loss coins are pre-drawn per block from the
    ///   `cycle-loss` stream via [`SeedSequence::fill_block`] (each
    ///   exchange's coins still come from its own `seed_for_run(seq)`
    ///   stream, in draw order — bit-identical to the lazy closure);
    /// * an exchange between two hot nodes in the same epoch runs
    ///   [`ExchangeCore::exchange_fused_raw`] over two 16-byte records — one
    ///   cache line per endpoint instead of two-plus; any other exchange
    ///   demotes its hot endpoints, takes the node path, then promotes
    ///   whichever is hot again.
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
        let touch_nodes = shards.iter().any(|shard| shard.cold_live);
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
            // Stage 2: touch every endpoint's hot record — plus, in a cycle
            // that may have cold nodes, the `ProtocolNode` of each cold
            // endpoint (it takes the node path). The record-only loop has no
            // hot/cold check: that check cost `epoch_1m` ≈3 %. The loads'
            // values are discarded, so they can never go stale.
            let pairs = block_pairs[..survivors].iter().map(|&(a, b)| {
                let (shard_a, slot_a) = unpack_endpoint(a);
                let (shard_b, slot_b) = unpack_endpoint(b);
                (&shards[shard_a], slot_a, &shards[shard_b], slot_b)
            });
            let warm: u64 = if touch_nodes {
                pairs.fold(0, |w, (sa, a, sb, b)| w ^ sa.touch(a) ^ sb.touch(b))
            } else {
                pairs.fold(0, |w, (sa, a, sb, b)| {
                    w ^ sa.touch_record(a) ^ sb.touch_record(b)
                })
            };
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
                    let ra = shards[shard_a].hot.hot(slot_a);
                    let rb = shards[shard_b].hot.hot(slot_b);
                    matches!((ra, rb), (Some(x), Some(y)) if x.key == y.key)
                };
                if fused {
                    let (initiator, peer) = if shard_a == shard_b {
                        shards[shard_a].hot.pair_mut(slot_a, slot_b)
                    } else {
                        let (sa, sb) = shard_pair_mut(shards, shard_a, shard_b);
                        (
                            &mut sa.hot.slots[slot_a as usize],
                            &mut sb.hot.slots[slot_b as usize],
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
                    let lost_before = tallies[shard_a].messages_lost;
                    ExchangeCore::exchange_fused_raw(
                        kind,
                        &mut initiator.state,
                        &mut initiator.exchanges,
                        &mut peer.state,
                        &mut peer.exchanges,
                        &mut lost,
                        &mut tallies[shard_a],
                    );
                    if record {
                        // The fused path always begins (both endpoints hot ⇒
                        // active in the same epoch).
                        let lost = tallies[shard_a].messages_lost - lost_before;
                        telemetry.exchange_outcome(seq as u64, lost);
                    }
                } else {
                    // Cold or cross-epoch endpoint: demote both, run the
                    // ordinary node-path exchange (which takes its own fused
                    // fast path when the preconditions hold — bit-identical
                    // arithmetic either way), then promote either if hot.
                    shards[shard_a].demote(slot_a);
                    shards[shard_b].demote(slot_b);
                    let (initiator, peer) = if shard_a == shard_b {
                        shards[shard_a].arena.pair_mut(slot_a, slot_b)
                    } else {
                        let (sa, sb) = shard_pair_mut(shards, shard_a, shard_b);
                        (
                            sa.arena.node_at_slot_mut(slot_a),
                            sb.arena.node_at_slot_mut(slot_b),
                        )
                    };
                    let (Some(Some(initiator)), Some(Some(peer))) = (initiator, peer) else {
                        continue;
                    };
                    let seed = if lossy {
                        loss_seeds.seed_for_run(seq as u64)
                    } else {
                        0
                    };
                    let mut lost = exchange_loss(loss, seed);
                    let exch_before = tallies[shard_a].exchanges;
                    let lost_before = tallies[shard_a].messages_lost;
                    ExchangeCore::exchange(
                        initiator,
                        peer,
                        &mut scratch,
                        &mut lost,
                        &mut tallies[shard_a],
                    );
                    // A delta of zero exchanges means the exchange never
                    // began (e.g. a joining initiator): no outcome.
                    if record && tallies[shard_a].exchanges > exch_before {
                        let lost = tallies[shard_a].messages_lost - lost_before;
                        telemetry.exchange_outcome(seq as u64, lost);
                    }
                    shards[shard_a].settle(slot_a);
                    shards[shard_b].settle(slot_b);
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

/// Renders a run's per-cycle telemetry as a [`gossip_analysis::Table`] —
/// one row per cycle with the peer-sampling layer the run drew partners
/// from, throughput-relevant counters, the merged estimate statistics and
/// the per-shard load split. `Table::to_csv` / `Table::write_csv` turn it
/// into the artifact the bench harness and the million-node example record
/// (the `sampler` column is what keeps complete-graph and NEWSCAST runs
/// distinguishable in archived CSVs).
pub fn cycle_telemetry_table(
    summaries: &[ShardedCycleSummary],
    sampler: SamplerConfig,
) -> gossip_analysis::Table {
    let mut table = gossip_analysis::Table::new(vec![
        "cycle",
        "sampler",
        "live_nodes",
        "exchanges",
        "messages_lost",
        "exchanges_blocked",
        "estimate_mean",
        "estimate_variance",
        "completed_epoch",
        "shard_exchanges",
    ]);
    for summary in summaries {
        table.add_row(vec![
            summary.cycle.to_string(),
            sampler.to_string(),
            summary.live_nodes.to_string(),
            summary.exchanges.to_string(),
            summary.messages_lost.to_string(),
            summary.exchanges_blocked.to_string(),
            format!("{:.9e}", summary.estimate_mean),
            format!("{:.9e}", summary.estimate_variance),
            summary
                .completed_epoch
                .map_or_else(|| "-".to_string(), |e| e.to_string()),
            summary
                .shard_exchanges
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("|"),
        ]);
    }
    table
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
    /// An output with the shard's exchange tally and nothing observed yet.
    fn new(tally: ExchangeTally) -> Self {
        ShardCycleOut {
            tally,
            completed_epoch: None,
            epoch_stats: OnlineStats::new(),
            size_stats: OnlineStats::new(),
            estimate_stats: OnlineStats::new(),
        }
    }

    /// Notes that `epoch` completed on this shard; the latest epoch wins.
    fn epoch_completed(&mut self, epoch: u64) {
        self.completed_epoch = Some(self.completed_epoch.map_or(epoch, |e| e.max(epoch)));
    }

    /// The end-of-cycle tick of one node-represented node: tick its epoch
    /// machinery, then read the (post-restart) estimate while the node is
    /// cache-hot. Per-node independence makes this bit-identical to a
    /// tick-all-then-read-all split in live order.
    ///
    /// Kept out of line: inlined into [`end_of_cycle_pass_soa`], its only
    /// caller, it slowed the churned NEWSCAST workload (`overlay_churn_30k`)
    /// by ≈5 %.
    #[inline(never)]
    fn tick_node(&mut self, node: &mut ProtocolNode, redundancy: Option<MergePolicy>) {
        if let Some(result) = node.end_cycle() {
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
        if let Some(estimate) = node.estimate() {
            self.estimate_stats.push(estimate);
        }
    }
}

/// End-of-cycle phase of one shard: hot nodes tick, restart and report
/// entirely inside their records; cold nodes take
/// [`ShardCycleOut::tick_node`] and are promoted afterwards if hot again
/// (joining nodes whose epoch just started, ex-leaders whose led instances
/// just cleared). Iteration order, stat-push order and epoch
/// book-keeping replicate `ProtocolNode::end_cycle` exactly:
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
    let mut out = ShardCycleOut::new(tally);
    shard.cold_live = false;
    for pos in 0..shard.arena.len() {
        let slot = shard.arena.live_slots()[pos];
        let hot = shard.hot.hot(slot).is_some();
        if hot {
            let cycle = &mut shard.hot.cycles[slot as usize];
            *cycle += 1;
            let completing = *cycle >= cycles_per_epoch;
            if completing {
                *cycle = 0;
            }
            let record = &mut shard.hot.slots[slot as usize];
            let mut overflow = false;
            if completing {
                out.epoch_completed(u64::from(record.key));
                out.epoch_stats.push(kind.estimate_value(record.state));
                record.state = kind.init_value(shard.hot.local[slot as usize]);
                record.exchanges = 0;
                record.key += 1;
                overflow = record.key == soa::COLD;
            }
            out.estimate_stats.push(kind.estimate_value(record.state));
            if overflow {
                // The new epoch is not representable in the 16-byte record
                // (u32 epochs), whose key now reads cold: the node continues
                // cold. Unreachable in any real run, but cheap to keep correct.
                let local = shard.hot.local[slot as usize];
                let view = HotView {
                    state: kind.init_value(local),
                    epoch: u64::from(soa::COLD),
                    cycle_in_epoch: 0,
                    exchanges: 0,
                };
                let id = shard.arena.id_at_slot(slot);
                let node = ProtocolNode::from_hot_view(id, shard.protocol, local, view);
                if let Some(entry) = shard.arena.node_at_slot_mut(slot) {
                    *entry = Some(Box::new(node));
                }
                shard.cold_live = true;
            }
        } else {
            let Some(Some(node)) = shard.arena.node_at_slot_mut(slot) else {
                continue;
            };
            out.tick_node(node, redundancy);
            shard.settle(slot);
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
    use aggregate_core::size_estimation::LeaderPolicy;
    use std::collections::HashMap;

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
    fn remove_node_rejects_stale_ids_after_slot_reuse() {
        let values = vec![1.0; 10];
        let mut sim = ShardedSimulation::new(averaging(2, 5), &values, 41).unwrap();
        let victim = *sim.global_live.first().unwrap();
        assert!(sim.remove_node(victim));
        assert!(!sim.remove_node(victim));
        assert_eq!(sim.free_slot_count(), 1);
        let newcomer = sim.add_node(2.0);
        // The join reclaimed the freed slot instead of growing the arenas…
        assert_eq!(sim.slot_capacity(), 10);
        // …and the stale identifier does not alias the new occupant.
        assert_ne!(victim, newcomer);
        assert!(sim.node(victim).is_none());
        assert!(sim.node(newcomer).is_some());
        assert_eq!(sim.live_count(), 10);
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
    fn cycle_telemetry_table_pins_the_csv_artifact_format() {
        let summary = |cycle, completed_epoch, shard_exchanges: Vec<usize>| ShardedCycleSummary {
            cycle,
            live_nodes: 100,
            exchanges: shard_exchanges.iter().sum(),
            messages_lost: 3,
            exchanges_blocked: 1,
            estimate_mean: 499.5,
            estimate_variance: 0.25,
            completed_epoch,
            epoch_estimates: OnlineStats::new(),
            epoch_size_estimates: OnlineStats::new(),
            shard_exchanges,
        };
        let summaries = [
            summary(0, None, vec![30, 40, 30]),
            summary(1, Some(7), vec![100]),
        ];
        let csv = cycle_telemetry_table(&summaries, SamplerConfig::UniformComplete).to_csv();
        assert_eq!(
            csv,
            "cycle,sampler,live_nodes,exchanges,messages_lost,exchanges_blocked,\
             estimate_mean,estimate_variance,completed_epoch,shard_exchanges\n\
             0,uniform-complete,100,100,3,1,4.995000000e2,2.500000000e-1,-,30|40|30\n\
             1,uniform-complete,100,100,3,1,4.995000000e2,2.500000000e-1,7,100\n"
        );
    }

    #[test]
    fn reading_nodes_changes_nothing() {
        // A churned COUNT run: four led instances an epoch keep most nodes
        // cold for part of each epoch, and joiners wait cold. Reading a hot
        // node demotes it until the end of the cycle.
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
                    match shard.hot.hot(IdLayout::sharded_slot_of(id)) {
                        Some(_) => hot_reads += 1,
                        None => cold_reads += 1,
                    }
                    assert_eq!(
                        sim.node(id).map(ProtocolNode::local_value),
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
        shard.hot.slots[slot as usize] = HotSlot {
            state: 9.0,
            key: u32::MAX - 1,
            exchanges: 2,
        };
        shard.hot.cycles[slot as usize] = 2;
        let summary = sim.run_cycle();
        assert_eq!(summary.completed_epoch, Some(u64::from(u32::MAX - 1)));
        assert_eq!(summary.epoch_estimates.mean(), 9.0);
        assert_eq!(
            sim.shards[0].hot.hot(slot),
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
            sim.node(id).and_then(ProtocolNode::hot_view),
            Some(restarted)
        );
        // Every later promotion fails, and the node runs on cold.
        sim.run(4);
        assert_eq!(sim.shards[0].hot.hot(slot), None);
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
            let counter = |name| sim.telemetry_metrics().counter_value(name).unwrap();
            assert_eq!(counter("exchanges"), count("exchange_begun"));
            assert_eq!(counter("messages_lost"), lost);
            assert_eq!(count("message_lost"), lost);
            assert_eq!(fnv1a(&jsonl), pinned, "{shards} shards: the trace moved");
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
