//! Cycle-driven simulation engine for the distributed protocol.
//!
//! This engine drives real [`ProtocolNode`] state machines (the same code the
//! live runtime deploys) over a simulated network: per-cycle peer selection,
//! optional message loss, churn (joins and departures), epoch restarts and
//! leader election for network-size estimation. It is the engine behind the
//! Figure 4 reproduction and the robustness ablations.
//!
//! The epoch environment around the exchanges — the fault lab, the
//! adversary, elections, telemetry and virtual time — is the shared
//! [`Coordinator`]; this module supplies the node store (the arena, as
//! [`CycleNodes`]), the schedule RNG and the exchange phase.
//!
//! Node state lives in a slot-reclaiming [`crate::arena::NodeArena`]:
//! departures free their slot for the next join, identifiers carry a per-slot
//! generation so stale [`NodeId`]s cannot alias a slot's next occupant, and
//! peer selection runs over a dense live array. This is what lets the engine
//! sustain the paper's full-scale churn workload (Figure 4: 90 000–110 000
//! nodes with 200 membership events per cycle, indefinitely) with memory
//! bounded by the peak live size instead of the total join count.
//!
//! For the pure variance-reduction experiments of Figure 3 the lighter
//! whole-network `AVG` algorithm in [`aggregate_core::avg`] is used instead
//! (same mathematics, no message objects); see [`crate::runner`].
//!
//! Every exchange goes through [`ExchangeCore::exchange`] on the two
//! [`ProtocolNode`]s: the fused kernel that runs the default and every led
//! COUNT instance without building a message, falling back to the message
//! path across epochs. The engine does *not* adopt the struct-of-arrays
//! store of the sharded engine ([`crate::soa`]), but it runs the exchange
//! phase in that engine's stage shape: blocks of picks, then touches, then
//! exchanges ([`GossipSimulation::run_cycle`]). The message path a live
//! transport runs (`begin` → `respond` → `complete`, then `NodeCore`) is
//! exercised by the wire cluster and the live runtime, and the
//! `/wire ≡ /ref` cells of `tests/determinism.rs` pin it bit for bit to this
//! engine. Scale runs belong to [`crate::sharded::ShardedSimulation`]; this
//! engine is the semantic reference it is pinned against.

use crate::arena::NodeArena;
use crate::coordinator::{Coordinator, CycleNodes, NodeTicks};
use crate::{NetworkConditions, SimConfigError};
use aggregate_core::node::ProtocolNode;
use aggregate_core::redundancy::RedundancyConfig;
use aggregate_core::sampler::{sample_live_peer, SamplerConfig};
use aggregate_core::size_estimation::LeaderPolicy;
use aggregate_core::{
    EpochResult, ExchangeCore, ExchangeScratch, ExchangeTally, InstanceTag, ProtocolConfig,
};
use gossip_faults::{Adversary, AdversaryPlan, FaultPlan};
use gossip_telemetry::{Event, TelemetryConfig, WatchdogVerdict};
use overlay_topology::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration of a [`GossipSimulation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Per-node protocol configuration.
    pub protocol: ProtocolConfig,
    /// Failure conditions — the simple uniform-loss + one-shot-crash model.
    /// At construction these are absorbed into the run's [`FaultPlan`]
    /// ([`FaultPlan::absorb_conditions`]) and executed by the engine's fault
    /// injector; richer schedules (link failures, partitions, loss ramps,
    /// value injection) enter through [`GossipSimulation::with_faults`].
    pub conditions: NetworkConditions,
    /// Leader-election policy for network-size estimation; `None` disables
    /// counting instances entirely.
    pub leader_policy: Option<LeaderPolicy>,
    /// The peer-sampling layer exchange partners are drawn from:
    /// uniform-complete (the paper's analytical model and the default), a
    /// static overlay graph, or a live NEWSCAST membership protocol running
    /// in lockstep with the aggregation cycles.
    pub sampler: SamplerConfig,
    /// The redundant-instance defense: when set, every epoch elects exactly
    /// `k` distinct counting-instance leaders (from the dedicated
    /// `redundancy-leaders` seed stream) and per-node size reports merge the
    /// per-instance estimates under the configured policy (median-of-k or
    /// trimmed mean) instead of pooling instance states by averaging.
    /// `None` keeps the undefended estimator and the probabilistic
    /// `leader_policy` elections.
    pub redundancy: Option<RedundancyConfig>,
}

impl SimulationConfig {
    /// Plain averaging over a reliable network, no size estimation, uniform
    /// peer sampling.
    pub fn averaging(protocol: ProtocolConfig) -> Self {
        SimulationConfig {
            protocol,
            conditions: NetworkConditions::reliable(),
            leader_policy: None,
            sampler: SamplerConfig::UniformComplete,
            redundancy: None,
        }
    }

    /// Validates this configuration together with the initial population it
    /// is about to be run on.
    ///
    /// # Errors
    ///
    /// [`SimConfigError::ZeroNodes`] for an empty population,
    /// [`SimConfigError::NonFiniteInitialValue`] for NaN/infinite initial
    /// values, [`SimConfigError::InvalidConditions`] for failure
    /// parameters that are not probabilities,
    /// [`SimConfigError::Redundancy`] for a degenerate redundancy
    /// configuration and [`SimConfigError::LeaderPolicy`] for a leader
    /// policy whose probability or target is out of range.
    pub fn validate(&self, initial_values: &[f64]) -> Result<(), SimConfigError> {
        self.validate_conditions()?;
        self.validate_size_estimation()?;
        crate::error::validate_initial_values(initial_values)
    }

    /// The redundancy configuration and the leader policy: the checks of
    /// [`SimulationConfig::validate`] that `Coordinator::build` leaves out.
    fn validate_size_estimation(&self) -> Result<(), SimConfigError> {
        if let Some(redundancy) = self.redundancy {
            redundancy.validate()?;
        }
        if let Some(policy) = self.leader_policy {
            policy
                .validate()
                .map_err(|e| SimConfigError::LeaderPolicy {
                    reason: e.to_string(),
                })?;
        }
        Ok(())
    }

    pub(crate) fn validate_conditions(&self) -> Result<(), SimConfigError> {
        self.conditions
            .validate()
            .map_err(|_| SimConfigError::InvalidConditions {
                message_loss: self.conditions.message_loss,
                crash_fraction: self.conditions.crash_fraction,
            })
    }
}

/// Summary of one simulated cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleSummary {
    /// Cycle index (0-based, global).
    pub cycle: usize,
    /// Number of live nodes at the end of the cycle.
    pub live_nodes: usize,
    /// Number of push–pull exchanges initiated.
    pub exchanges: usize,
    /// Number of messages dropped by the loss model.
    pub messages_lost: usize,
    /// Number of exchange attempts vetoed by the fault lab before any
    /// message was formed (dead link or active partition between the
    /// endpoints). Always zero under the empty [`FaultPlan`].
    pub exchanges_blocked: usize,
    /// Variance of the default-instance estimates over live nodes.
    pub estimate_variance: f64,
    /// Mean of the default-instance estimates over live nodes.
    pub estimate_mean: f64,
    /// The epoch that completed at the end of this cycle, if any.
    pub completed_epoch: Option<u64>,
    /// Converged default-instance estimates reported by nodes that
    /// participated in the full epoch (empty unless an epoch completed).
    pub epoch_estimates: Vec<f64>,
    /// Converged network-size estimates reported by nodes that participated in
    /// the full epoch (empty unless an epoch completed and size estimation is
    /// enabled).
    pub epoch_size_estimates: Vec<f64>,
}

/// The arena as the coordinator's node store: positions are the dense live
/// order, trace keys are node identifiers.
impl CycleNodes for NodeArena {
    fn can_participate(&self, pos: usize) -> bool {
        let node = self.node_at_slot(self.live_slots()[pos]);
        node.is_some_and(ProtocolNode::can_participate)
    }

    fn start_led_instance(&mut self, pos: usize, tag: InstanceTag, state: f64) {
        if let Some(node) = self.node_at_slot_mut(self.live_slots()[pos]) {
            node.start_led_instance(tag, state);
        }
    }

    fn corrupt_estimate(&mut self, id: NodeId, value: f64) -> Option<u64> {
        self.get_mut(id)?.corrupt_estimate(value);
        Some(u64::from(id.as_u32()))
    }

    fn corrupt_instance(&mut self, id: NodeId, state: f64) {
        if let Some(node) = self.get_mut(id) {
            node.corrupt_instance(InstanceTag::from_leader(id), state);
        }
    }

    fn remove_at(&mut self, pos: usize) -> (NodeId, u64) {
        let id = self.id_at_slot(self.live_slots()[pos]);
        self.remove_live_at(pos);
        (id, u64::from(id.as_u32()))
    }
}

impl NodeTicks for NodeArena {
    fn end_cycle(&mut self, pos: usize) -> Option<EpochResult> {
        self.node_at_slot_mut(self.live_slots()[pos])?.end_cycle()
    }

    fn estimate(&self, pos: usize) -> Option<f64> {
        self.node_at_slot(self.live_slots()[pos])?.estimate()
    }
}

/// A cycle-driven simulation of the full distributed protocol.
///
/// Exchange partners are drawn through the configured sampler. The
/// default, [`SamplerConfig::UniformComplete`], samples uniformly over the
/// other live nodes — the complete-graph setting of the paper's Section 4
/// experiment, bit-identical to the engine's historical behaviour. A
/// [`SamplerConfig::StaticOverlay`] restricts partners to the edges of a
/// generated overlay graph, and [`SamplerConfig::Newscast`] runs a live
/// NEWSCAST membership protocol in lockstep with the aggregation cycles —
/// the setting of the paper's overlay-dependence experiments.
#[derive(Debug)]
pub struct GossipSimulation {
    arena: NodeArena,
    /// The schedule stream: shuffle, peer picks, loss coins, churn victims
    /// and probabilistic leader elections, interleaved.
    rng: StdRng,
    /// The epoch environment: fault lab, adversary, elections, telemetry and
    /// virtual time. Its empty plans and disabled telemetry are pinned
    /// bit-identical to the engine before each existed
    /// (`tests/determinism.rs`).
    coordinator: Coordinator,
    scratch: ExchangeScratch,
    /// The cycle's initiator slots in shuffled order, kept between cycles.
    order: Vec<u32>,
}

/// Initiators per block of the exchange phase, as in the sharded engine.
const BLOCK: usize = 128;

/// Reads what an exchange will read of `node`, folded into a word for
/// [`std::hint::black_box`]: its epoch state, its id at the end of its hot
/// fields, and the front of its led instances, through a search for the
/// smallest led tag.
fn touch(node: &ProtocolNode) -> u64 {
    let led = node
        .instance_estimate(InstanceTag(1))
        .map_or(0, f64::to_bits);
    led ^ u64::from(node.id().as_u32()) ^ u64::from(node.can_participate())
}

impl GossipSimulation {
    /// Creates a simulation with one node per initial value, all present from
    /// epoch 0, using the given master seed.
    ///
    /// This permissive constructor accepts any population (including an empty
    /// one — useful for degenerate-case tests); use
    /// [`GossipSimulation::try_new`] to validate the configuration with a
    /// typed error instead.
    ///
    /// # Panics
    ///
    /// Panics when the peer-sampling configuration cannot be realised (e.g.
    /// invalid overlay-generator parameters), the failure conditions are
    /// not probabilities, the leader policy's probability or target is out
    /// of range (e.g. `LeaderPolicy::Fixed { probability: 1.5 }` or NaN), or
    /// the redundancy configuration is degenerate;
    /// [`GossipSimulation::try_new`] reports the same conditions as typed
    /// errors.
    pub fn new(config: SimulationConfig, initial_values: &[f64], master_seed: u64) -> Self {
        config
            .validate_size_estimation()
            .and_then(|()| {
                GossipSimulation::build(
                    config,
                    initial_values,
                    master_seed,
                    FaultPlan::none(),
                    AdversaryPlan::none(),
                )
            })
            // lint-allow(unwrap): documented `# Panics` contract; `try_new` is the typed-error variant
            .expect("invalid simulation configuration")
    }

    /// Validating variant of [`GossipSimulation::new`]: rejects an empty
    /// population, non-finite initial values, invalid failure conditions and
    /// unrealisable sampler configurations at construction.
    ///
    /// # Errors
    ///
    /// See [`SimulationConfig::validate`] and [`SimConfigError::Sampler`].
    pub fn try_new(
        config: SimulationConfig,
        initial_values: &[f64],
        master_seed: u64,
    ) -> Result<Self, SimConfigError> {
        GossipSimulation::with_faults(config, initial_values, master_seed, FaultPlan::none())
    }

    /// Creates a simulation executing the given [`FaultPlan`] (with the
    /// configuration's [`NetworkConditions`] absorbed underneath it) — the
    /// entry point of the fault-injection lab. With [`FaultPlan::none`] this
    /// is exactly [`GossipSimulation::try_new`].
    ///
    /// # Errors
    ///
    /// Everything [`GossipSimulation::try_new`] rejects, plus
    /// [`SimConfigError::Faults`] for a malformed schedule.
    pub fn with_faults(
        config: SimulationConfig,
        initial_values: &[f64],
        master_seed: u64,
        plan: FaultPlan,
    ) -> Result<Self, SimConfigError> {
        let adversary = AdversaryPlan::none();
        GossipSimulation::with_adversary(config, initial_values, master_seed, plan, adversary)
    }

    /// Creates a simulation executing both a [`FaultPlan`] and a stateful
    /// [`AdversaryPlan`] — the Byzantine adversary lab. With both plans
    /// empty this is exactly [`GossipSimulation::try_new`].
    ///
    /// # Errors
    ///
    /// Everything [`GossipSimulation::with_faults`] rejects, plus
    /// [`SimConfigError::Adversary`] for a malformed adversary plan.
    pub fn with_adversary(
        config: SimulationConfig,
        initial_values: &[f64],
        master_seed: u64,
        plan: FaultPlan,
        adversary: AdversaryPlan,
    ) -> Result<Self, SimConfigError> {
        config.validate(initial_values)?;
        GossipSimulation::build(config, initial_values, master_seed, plan, adversary)
    }

    fn build(
        config: SimulationConfig,
        initial_values: &[f64],
        master_seed: u64,
        plan: FaultPlan,
        adversary: AdversaryPlan,
    ) -> Result<Self, SimConfigError> {
        let mut arena = NodeArena::with_capacity(initial_values.len());
        let initial_ids: Vec<NodeId> = initial_values
            .iter()
            .map(|&v| arena.insert(|id| ProtocolNode::new(id, config.protocol, v)))
            .collect();
        let mut coordinator =
            Coordinator::build(&config, &initial_ids, master_seed, plan, adversary)?;
        let mut rng = coordinator.seeds().rng_for_run(0);
        coordinator.elect_leaders(&mut arena, Some(&mut rng));
        Ok(GossipSimulation {
            arena,
            rng,
            coordinator,
            scratch: ExchangeScratch::new(),
            order: Vec::new(),
        })
    }

    /// The realised adversary (colluding set and per-epoch captures) — the
    /// test suites inspect it to cross-check which nodes are lying.
    pub fn adversary(&self) -> &Adversary {
        self.coordinator.adversary()
    }

    /// Installs an observability configuration (flight recorder, metrics,
    /// convergence watchdog). Call before running; the default is
    /// [`TelemetryConfig::disabled`], whose trajectory is pinned
    /// bit-identical to the pre-telemetry engine. Recording consumes no
    /// randomness, so enabling it never changes node estimates either.
    pub fn set_telemetry(&mut self, config: TelemetryConfig) {
        self.coordinator.set_telemetry(config);
    }

    /// Drains the flight recorder into canonical trace order (post-hoc
    /// export path — runners and tests only, never protocol code).
    pub fn drain_trace(&mut self) -> Vec<Event> {
        self.coordinator.telemetry.drain_events() // lint-allow(observer-effect): post-hoc export accessor for runners/tests, not protocol logic
    }

    /// Events discarded because the flight-recorder ring was full; drain
    /// per cycle (or raise the capacity) to keep this at zero.
    pub fn dropped_trace_events(&self) -> u64 {
        self.coordinator.telemetry.dropped_events() // lint-allow(observer-effect): post-hoc export accessor for runners/tests, not protocol logic
    }

    /// The convergence watchdog's current verdict, if one is configured.
    pub fn watchdog_verdict(&self) -> Option<WatchdogVerdict> {
        self.coordinator.telemetry.watchdog_verdict() // lint-allow(observer-effect): post-hoc diagnosis accessor for runners/tests, not protocol logic
    }

    /// Verdict transitions logged by the convergence watchdog.
    pub fn watchdog_diagnoses(&self) -> &[gossip_telemetry::Diagnosis] {
        self.coordinator.telemetry.diagnoses() // lint-allow(observer-effect): post-hoc diagnosis accessor for runners/tests, not protocol logic
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.arena.len()
    }

    /// Number of allocated node slots (live + reclaimable). Bounded by the
    /// peak number of simultaneously live nodes plus the joins that precede
    /// the same cycle's departures — the churn tests pin this.
    pub fn slot_capacity(&self) -> usize {
        self.arena.slot_capacity()
    }

    /// Number of dead slots currently awaiting reuse by the free list.
    pub fn free_slot_count(&self) -> usize {
        self.arena.free_slots()
    }

    /// The current cycle index.
    pub(crate) fn cycle(&self) -> usize {
        self.coordinator.cycle()
    }

    /// The most recent pooled network-size estimate (mean over reporting
    /// nodes of the last completed epoch), if any epoch has completed.
    pub fn last_size_estimate(&self) -> Option<f64> {
        self.coordinator.last_size_estimate()
    }

    /// Read access to a node. Returns `None` for departed nodes and for
    /// stale identifiers whose slot has since been reassigned.
    pub fn node(&self, id: NodeId) -> Option<&ProtocolNode> {
        self.arena.get(id)
    }

    /// Current default-instance estimates of all live nodes.
    pub fn estimates(&self) -> Vec<f64> {
        self.arena
            .live_slots()
            .iter()
            .filter_map(|&slot| self.arena.node_at_slot(slot))
            .filter_map(|node| node.estimate())
            .collect()
    }

    /// Current local attribute values of all live nodes.
    pub fn local_values(&self) -> Vec<f64> {
        self.arena
            .live_slots()
            .iter()
            .filter_map(|&slot| self.arena.node_at_slot(slot))
            .map(|node| node.local_value())
            .collect()
    }

    /// Updates the local attribute value of a node (takes effect at the next
    /// epoch restart, as in the paper's adaptive protocol).
    pub fn set_local_value(&mut self, id: NodeId, value: f64) {
        if let Some(node) = self.arena.get_mut(id) {
            node.set_local_value(value);
        }
    }

    /// Adds a node with the given local value, reusing a reclaimed slot when
    /// one is free. The node joins passively: it is told the next epoch
    /// identifier and the number of cycles left until that epoch starts,
    /// exactly as in Section 4.
    pub fn add_node(&mut self, local_value: f64) -> NodeId {
        let protocol = self.coordinator.config().protocol;
        let cycle = self.cycle();
        let cycles_per_epoch = protocol.cycles_per_epoch() as usize;
        let cycles_until_start = (cycles_per_epoch - cycle % cycles_per_epoch) as u32;
        let next_epoch = (cycle / cycles_per_epoch) as u64 + 1;
        let id = self.arena.insert(|id| {
            ProtocolNode::joining(id, protocol, local_value, next_epoch, cycles_until_start)
        });
        self.coordinator
            .joined(id, u64::from(id.as_u32()), &self.arena);
        id
    }

    /// Removes `count` uniformly random live nodes (used by churn schedules
    /// and crash experiments). Returns the number actually removed.
    pub fn remove_random_nodes(&mut self, count: usize) -> usize {
        self.coordinator
            .remove_random(&mut self.arena, &mut self.rng, count)
    }

    /// Runs one full protocol cycle and returns its summary.
    ///
    /// The per-exchange node stepping is [`ExchangeCore::exchange`], the
    /// fused kernel the sharded engine's cold path drives too. Its
    /// arithmetic and loss-draw order equal the message path's
    /// ([`ExchangeCore::begin`], then [`ExchangeCore::deliver`] of each
    /// message), which the wire cluster runs; the
    /// `/wire ≡ /ref` cells of `tests/determinism.rs` pin the two bit for
    /// bit. Telemetry records the exchange's start, its lost messages and
    /// its completion from the tally deltas.
    ///
    /// The exchange phase runs in blocks of 128 initiators, three
    /// stages each, so that each stage's random loads overlap: stage 1
    /// draws every pick and resolves every veto in initiator order, reading
    /// only the arena's generation and live-position columns; stage 2
    /// touches both endpoints' nodes and led instances; stage 3 runs the
    /// exchanges. A pick never reads a node and an exchange draws nothing
    /// from the schedule stream when the cycle is loss-free, so the stream
    /// is consumed as if each exchange followed its pick. A lossy cycle
    /// draws each exchange's loss coins between picks, so it runs blocks of
    /// one initiator.
    pub fn run_cycle(&mut self) -> CycleSummary {
        let mut tally = ExchangeTally::default();
        let mut exchanges_blocked = 0usize;
        let loss = self.coordinator.enter_cycle(&mut self.arena, &mut self.rng);
        let Coordinator {
            sampler,
            injector,
            telemetry,
            ..
        } = &mut self.coordinator;
        let record = telemetry.events_enabled();
        let arena = &mut self.arena;

        // Active phase: every live node initiates one exchange, in random
        // order (the GETPAIR_SEQ schedule realised by a distributed system).
        self.order.clear();
        self.order.extend_from_slice(arena.live_slots());
        self.order.shuffle(&mut self.rng);
        let block = if loss > 0.0 { 1 } else { BLOCK };
        let mut pairs = [(0u32, 0u32); BLOCK];
        for initiators in self.order.chunks(block) {
            // Stage 1: the block's picks and vetoes, its surviving pairs
            // packed into `pairs`.
            let mut survivors = 0;
            for &initiator_slot in initiators {
                let Some(initiator_pos) = arena.live_pos_of_slot(initiator_slot) else {
                    continue;
                };
                let Some(peer_id) = sample_live_peer(
                    sampler.as_mut(),
                    &*arena,
                    initiator_pos as usize,
                    &mut self.rng,
                ) else {
                    continue;
                };
                // The fault lab vetoes the contact attempt when the link is
                // dead or a partition separates the endpoints — the exchange
                // simply does not happen, and the failed contact is reported
                // to the peer-sampling layer exactly like a contact with a
                // dead node, so cached views (NEWSCAST) tail-drop unreachable
                // neighbours and heal around dead links and partitions.
                let initiator_id = arena.id_at_slot(initiator_slot);
                if injector.link_blocked(initiator_id, peer_id) {
                    sampler.peer_failed(initiator_id, peer_id);
                    exchanges_blocked += 1;
                    if record {
                        let (initiator_key, peer_key) = (initiator_id.as_u32(), peer_id.as_u32());
                        telemetry.exchange_vetoed(initiator_key.into(), peer_key.into());
                    }
                    continue;
                }
                let peer_slot = arena.slot_of(peer_id).expect("sampled peer is live"); // lint-allow(unwrap): sampler returned it from the live directory this cycle
                if peer_slot == initiator_slot {
                    // A node never exchanges with itself (`begin` pushes
                    // nothing).
                    continue;
                }
                pairs[survivors] = (initiator_slot, peer_slot);
                survivors += 1;
            }
            // Stage 2: touch both endpoints of every surviving pair. The
            // loads' values are discarded, so they can never go stale.
            let node = |slot| arena.node_at_slot(slot).map_or(0, touch);
            let warm = pairs[..survivors]
                .iter()
                .fold(0, |w, &(a, b)| w ^ node(a) ^ node(b));
            std::hint::black_box(warm);
            // Stage 3: the exchanges, in initiator order.
            for &(initiator_slot, peer_slot) in &pairs[..survivors] {
                let (Some(initiator), Some(peer)) = arena.pair_mut(initiator_slot, peer_slot)
                else {
                    continue;
                };
                let rng = &mut self.rng;
                let mut lost = || loss > 0.0 && rng.gen_bool(loss);
                let before = tally;
                ExchangeCore::exchange(initiator, peer, &mut self.scratch, &mut lost, &mut tally);
                if record && tally.exchanges > before.exchanges {
                    let seq = (tally.exchanges - 1) as u64;
                    let (initiator_key, peer_key) = (initiator.id().as_u32(), peer.id().as_u32());
                    telemetry.exchange_begun(seq, initiator_key.into(), peer_key.into());
                    let lost_now = tally.messages_lost - before.messages_lost;
                    for _ in 0..lost_now {
                        telemetry.message_lost(seq);
                    }
                    if lost_now == 0 {
                        telemetry.exchange_completed(seq);
                    }
                }
            }
        }
        self.coordinator
            .close_cycle(&mut self.arena, &mut self.rng, tally, exchanges_blocked)
    }

    /// Runs `cycles` consecutive cycles, returning all summaries.
    pub fn run(&mut self, cycles: usize) -> Vec<CycleSummary> {
        (0..cycles).map(|_| self.run_cycle()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggregate_core::config::LateJoinPolicy;

    impl GossipSimulation {
        /// Removes a specific node (a targeted crash). Returns `true` if the
        /// node was live; stale identifiers from a slot's previous occupant
        /// are rejected.
        fn remove_node(&mut self, id: NodeId) -> bool {
            let Some(slot) = self.arena.slot_of(id) else {
                return false;
            };
            self.arena.remove_slot_checked(slot);
            self.coordinator.departed(id, u64::from(id.as_u32()));
            true
        }
    }

    fn averaging_config(cycles_per_epoch: u32) -> SimulationConfig {
        SimulationConfig::averaging(
            ProtocolConfig::builder()
                .cycles_per_epoch(cycles_per_epoch)
                .build()
                .unwrap(),
        )
    }

    fn counting_config(cycles_per_epoch: u32, policy: LeaderPolicy) -> SimulationConfig {
        SimulationConfig {
            protocol: ProtocolConfig::builder()
                .cycles_per_epoch(cycles_per_epoch)
                .late_join(LateJoinPolicy::FixedState(0.0))
                .build()
                .unwrap(),
            conditions: NetworkConditions::reliable(),
            leader_policy: Some(policy),
            sampler: SamplerConfig::UniformComplete,
            redundancy: None,
        }
    }

    #[test]
    fn estimates_converge_to_the_true_average() {
        let values: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let true_mean = aggregate_core::avg::mean(&values);
        let mut sim = GossipSimulation::new(averaging_config(30), &values, 1);
        let summaries = sim.run(20);
        let final_variance = summaries.last().unwrap().estimate_variance;
        assert!(final_variance < 1e-4, "variance {final_variance} too large");
        assert!((summaries.last().unwrap().estimate_mean - true_mean).abs() < 1e-6);
        assert_eq!(sim.live_count(), 500);
        assert_eq!(sim.cycle(), 20);
    }

    #[test]
    fn mean_is_preserved_without_failures() {
        let values: Vec<f64> = (0..200).map(|i| (i % 17) as f64).collect();
        let true_mean = aggregate_core::avg::mean(&values);
        let mut sim = GossipSimulation::new(averaging_config(50), &values, 3);
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
    fn variance_reduction_per_cycle_matches_the_paper_rate() {
        // The engine realises GETPAIR_SEQ, so the per-cycle reduction should
        // hover around 1/(2*sqrt(e)) ≈ 0.303 on a complete overlay.
        let values: Vec<f64> = (0..5_000).map(|i| (i % 100) as f64).collect();
        let mut sim = GossipSimulation::new(averaging_config(100), &values, 7);
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
    fn epoch_completion_reports_converged_estimates_and_restarts() {
        let values = vec![0.0, 10.0, 20.0, 30.0];
        let mut sim = GossipSimulation::new(averaging_config(10), &values, 5);
        let mut epoch_seen = false;
        for summary in sim.run(10) {
            if let Some(epoch) = summary.completed_epoch {
                assert_eq!(epoch, 0);
                assert_eq!(summary.epoch_estimates.len(), 4);
                for estimate in &summary.epoch_estimates {
                    assert!((estimate - 15.0).abs() < 0.5);
                }
                epoch_seen = true;
            }
        }
        assert!(epoch_seen, "an epoch must complete after 10 cycles");
    }

    #[test]
    fn message_loss_slows_but_does_not_prevent_convergence() {
        let values: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let mut reliable = GossipSimulation::new(averaging_config(100), &values, 11);
        let mut lossy = GossipSimulation::new(
            SimulationConfig {
                conditions: NetworkConditions::with_message_loss(0.2),
                ..averaging_config(100)
            },
            &values,
            11,
        );
        let reliable_summaries = reliable.run(15);
        let lossy_summaries = lossy.run(15);
        let reliable_var = reliable_summaries.last().unwrap().estimate_variance;
        let lossy_var = lossy_summaries.last().unwrap().estimate_variance;
        assert!(lossy_summaries.iter().any(|s| s.messages_lost > 0));
        assert!(
            lossy_var < 1.0,
            "lossy network still converges, got {lossy_var}"
        );
        assert!(
            reliable_var <= lossy_var * 10.0,
            "reliable should not be dramatically worse"
        );
    }

    #[test]
    fn joining_nodes_wait_for_the_next_epoch() {
        let values = vec![5.0; 20];
        let mut sim = GossipSimulation::new(averaging_config(6), &values, 13);
        sim.run(2);
        let newcomer = sim.add_node(500.0);
        assert_eq!(sim.live_count(), 21);
        // During the remainder of epoch 0 the newcomer never contaminates the
        // running average (all veterans hold exactly 5.0).
        for summary in sim.run(4) {
            if summary.completed_epoch.is_some() {
                for estimate in &summary.epoch_estimates {
                    assert!((estimate - 5.0).abs() < 1e-9);
                }
            }
        }
        // In the next epoch the newcomer participates and the average moves.
        let summaries = sim.run(6);
        let completed: Vec<_> = summaries
            .iter()
            .filter(|s| s.completed_epoch.is_some())
            .collect();
        assert!(!completed.is_empty());
        let estimates = &completed.last().unwrap().epoch_estimates;
        let expected = (5.0 * 20.0 + 500.0) / 21.0;
        let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
        assert!(
            (mean - expected).abs() < 1e-6,
            "epoch mean {mean} must equal the new true average {expected}"
        );
        for estimate in estimates {
            // Six cycles of convergence leave a visible spread, but every
            // node must already be in the right neighbourhood.
            assert!(
                (estimate - expected).abs() < 25.0,
                "estimate {estimate} should approach {expected}"
            );
        }
        assert!(sim.node(newcomer).is_some());
    }

    #[test]
    fn node_removal_shrinks_the_live_set() {
        let values = vec![1.0; 10];
        let mut sim = GossipSimulation::new(averaging_config(5), &values, 17);
        assert!(sim.remove_node(NodeId::new(3)));
        assert!(!sim.remove_node(NodeId::new(3)));
        assert_eq!(sim.live_count(), 9);
        assert_eq!(sim.remove_random_nodes(4), 4);
        assert_eq!(sim.live_count(), 5);
        assert!(sim.node(NodeId::new(3)).is_none());
        // The simulation keeps running after removals.
        let summary = sim.run_cycle();
        assert_eq!(summary.live_nodes, 5);
    }

    #[test]
    fn size_estimation_produces_accurate_epoch_estimates() {
        let n = 400;
        let values = vec![0.0; n];
        let mut sim = GossipSimulation::new(
            counting_config(25, LeaderPolicy::Fixed { probability: 0.01 }),
            &values,
            19,
        );
        let summaries = sim.run(25);
        let last = summaries.last().unwrap();
        assert_eq!(last.completed_epoch, Some(0));
        assert!(
            !last.epoch_size_estimates.is_empty(),
            "someone must report a size estimate"
        );
        let mean_estimate =
            last.epoch_size_estimates.iter().sum::<f64>() / last.epoch_size_estimates.len() as f64;
        assert!(
            (mean_estimate - n as f64).abs() < n as f64 * 0.05,
            "size estimate {mean_estimate} should be ≈ {n}"
        );
        assert!(sim.last_size_estimate().is_some());
    }

    #[test]
    fn set_local_value_changes_the_next_epoch_result() {
        let values = vec![10.0; 8];
        let mut sim = GossipSimulation::new(averaging_config(4), &values, 23);
        for i in 0..8 {
            sim.set_local_value(NodeId::new(i), 30.0);
        }
        // First epoch still reports the old average (10), the second the new.
        let all: Vec<CycleSummary> = sim.run(8);
        let epochs: Vec<&CycleSummary> =
            all.iter().filter(|s| s.completed_epoch.is_some()).collect();
        assert_eq!(epochs.len(), 2);
        assert!((epochs[0].epoch_estimates[0] - 10.0).abs() < 1e-9);
        assert!((epochs[1].epoch_estimates[0] - 30.0).abs() < 1e-9);
        assert_eq!(sim.local_values(), vec![30.0; 8]);
    }

    #[test]
    fn departed_slots_are_reused_and_stale_ids_stay_dead() {
        let values = vec![1.0; 10];
        let mut sim = GossipSimulation::new(averaging_config(5), &values, 41);
        let stale = NodeId::new(4);
        assert!(sim.remove_node(stale));
        assert_eq!(sim.free_slot_count(), 1);
        let newcomer = sim.add_node(2.0);
        // The join reclaimed the freed slot instead of growing the arena…
        assert_eq!(sim.slot_capacity(), 10);
        assert_eq!(sim.free_slot_count(), 0);
        // …and the old identifier does not alias the new occupant.
        assert_ne!(stale, newcomer);
        assert!(sim.node(stale).is_none());
        assert!(!sim.remove_node(stale));
        assert!(sim.node(newcomer).is_some());
        assert_eq!(sim.live_count(), 10);
    }

    #[test]
    fn sustained_churn_keeps_the_arena_bounded() {
        let values = vec![0.0; 200];
        let mut sim = GossipSimulation::new(averaging_config(10), &values, 43);
        for _ in 0..50 {
            for _ in 0..5 {
                sim.add_node(0.0);
            }
            assert_eq!(sim.remove_random_nodes(5), 5);
            sim.run_cycle();
        }
        assert_eq!(sim.live_count(), 200);
        // The leaky engine would sit at 450 slots here; the free list keeps
        // the arena at peak live + the joins preceding the departures.
        assert!(
            sim.slot_capacity() <= 205,
            "slot capacity {} must stay bounded",
            sim.slot_capacity()
        );
    }

    #[test]
    fn node_added_exactly_at_an_epoch_start_joins_that_epochs_successor() {
        // 6 cycles per epoch; after 6 cycles the next run_cycle starts epoch 1.
        let values = vec![5.0; 20];
        let mut sim = GossipSimulation::new(averaging_config(6), &values, 47);
        sim.run(6);
        assert_eq!(sim.cycle() % 6, 0, "cycle 6 is exactly an epoch boundary");
        let newcomer = sim.add_node(500.0);
        // The newcomer waits out the entire epoch 1 without contaminating it…
        for summary in sim.run(6) {
            if summary.completed_epoch.is_some() {
                for estimate in &summary.epoch_estimates {
                    assert!((estimate - 5.0).abs() < 1e-9);
                }
            }
        }
        // …and participates from epoch 2 on, shifting the epoch average.
        let expected = (5.0 * 20.0 + 500.0) / 21.0;
        let summaries = sim.run(6);
        let completed: Vec<_> = summaries
            .iter()
            .filter(|s| s.completed_epoch.is_some())
            .collect();
        assert_eq!(completed.len(), 1);
        let estimates = &completed[0].epoch_estimates;
        assert_eq!(estimates.len(), 21);
        let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
        assert!(
            (mean - expected).abs() < 1e-6,
            "epoch mean {mean} must equal the new true average {expected}"
        );
        assert!(sim.node(newcomer).is_some());
    }

    #[test]
    fn removing_the_sole_leader_mid_epoch_does_not_wedge_size_estimation() {
        // Probability 0 forces the deterministic fallback: exactly one leader
        // (the first live node) carries the counting instance.
        let n = 60;
        let values = vec![0.0; n];
        let mut sim = GossipSimulation::new(
            counting_config(20, LeaderPolicy::Fixed { probability: 0.0 }),
            &values,
            53,
        );
        // Kill the elected leader mid-epoch. Its share of the counting mass
        // dies with it, so this epoch's estimate is biased — but the engine
        // must re-elect at the restart and keep producing estimates.
        sim.run(5);
        assert!(sim.remove_node(NodeId::new(0)));
        let mut completed_epochs = 0;
        for summary in sim.run(60) {
            if summary.completed_epoch.is_some() {
                completed_epochs += 1;
            }
        }
        assert!(completed_epochs >= 2, "epochs must keep completing");
        let estimate = sim
            .last_size_estimate()
            .expect("size estimation must not wedge after the leader dies");
        assert!(
            estimate.is_finite() && estimate > 0.0,
            "estimate {estimate} must stay usable"
        );
        // Epochs after the leader's death count the surviving population.
        assert!(
            (estimate - (n - 1) as f64).abs() < (n - 1) as f64 * 0.25,
            "estimate {estimate} should approximate the surviving {}",
            n - 1
        );
    }

    #[test]
    fn try_new_rejects_invalid_configurations_with_typed_errors() {
        let config = averaging_config(10);
        assert_eq!(
            GossipSimulation::try_new(config, &[], 1).err(),
            Some(SimConfigError::ZeroNodes)
        );
        assert!(matches!(
            GossipSimulation::try_new(config, &[1.0, f64::NAN], 1).err(),
            Some(SimConfigError::NonFiniteInitialValue { index: 1, .. })
        ));
        assert!(matches!(
            GossipSimulation::try_new(config, &[1.0, f64::NEG_INFINITY, 2.0], 1).err(),
            Some(SimConfigError::NonFiniteInitialValue { index: 1, .. })
        ));
        let bad_conditions = SimulationConfig {
            conditions: NetworkConditions::with_message_loss(1.5),
            ..config
        };
        assert!(matches!(
            GossipSimulation::try_new(bad_conditions, &[1.0], 1).err(),
            Some(SimConfigError::InvalidConditions { .. })
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
            let bad_policy = SimulationConfig {
                leader_policy: Some(policy),
                ..config
            };
            assert!(
                matches!(
                    GossipSimulation::try_new(bad_policy, &[1.0], 1).err(),
                    Some(SimConfigError::LeaderPolicy { .. })
                ),
                "{policy:?} must be rejected"
            );
        }
        // A valid configuration behaves exactly like the permissive
        // constructor (same seed, same trajectory).
        let mut checked = GossipSimulation::try_new(config, &[1.0, 5.0], 7).unwrap();
        let mut plain = GossipSimulation::new(config, &[1.0, 5.0], 7);
        assert_eq!(checked.run(3), plain.run(3));
    }

    #[test]
    fn empty_fault_plan_is_identical_to_the_plain_constructor() {
        let values: Vec<f64> = (0..200).map(|i| (i % 13) as f64).collect();
        let config = averaging_config(10);
        let mut plain = GossipSimulation::new(config, &values, 7);
        let mut faulted =
            GossipSimulation::with_faults(config, &values, 7, FaultPlan::none()).unwrap();
        assert_eq!(plain.run(12), faulted.run(12));
    }

    #[test]
    fn dead_links_block_exchanges_but_the_protocol_still_converges() {
        let values: Vec<f64> = (0..400).map(|i| i as f64).collect();
        let true_mean = aggregate_core::avg::mean(&values);
        let plan = FaultPlan::with_link_failure(0.2);
        let mut sim =
            GossipSimulation::with_faults(averaging_config(100), &values, 11, plan).unwrap();
        let summaries = sim.run(25);
        let blocked: usize = summaries.iter().map(|s| s.exchanges_blocked).sum();
        let attempted: usize = summaries.iter().map(|s| s.exchanges).sum::<usize>() + blocked;
        let blocked_rate = blocked as f64 / attempted as f64;
        assert!(
            (blocked_rate - 0.2).abs() < 0.03,
            "blocked rate {blocked_rate} should track the 20% dead-link probability"
        );
        let last = summaries.last().unwrap();
        assert!(
            last.estimate_variance < 1e-3,
            "graceful degradation: still converging, variance {}",
            last.estimate_variance
        );
        assert!((last.estimate_mean - true_mean).abs() < 1e-9);
    }

    #[test]
    fn a_partition_splits_convergence_and_healing_restores_the_global_mean() {
        // Two value populations: while partitioned, each side converges to
        // its own mean, so the whole-network variance plateaus above zero;
        // healing lets the halves re-merge toward the global average.
        let values: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let true_mean = aggregate_core::avg::mean(&values);
        let plan = FaultPlan::with_partition(0, 10, 0.5);
        let mut sim =
            GossipSimulation::with_faults(averaging_config(1_000), &values, 13, plan).unwrap();
        let during = sim.run(10);
        let split_var = during.last().unwrap().estimate_variance;
        assert!(
            split_var > 1.0,
            "two isolated sides cannot reach consensus (variance {split_var})"
        );
        assert!(during.iter().all(|s| s.exchanges_blocked > 0));
        let healed = sim.run(25);
        let last = healed.last().unwrap();
        assert_eq!(last.exchanges_blocked, 0);
        assert!(
            last.estimate_variance < 1e-3,
            "healed network must converge, variance {}",
            last.estimate_variance
        );
        assert!((last.estimate_mean - true_mean).abs() < 1e-9);
    }

    #[test]
    fn value_injection_perturbs_the_mean_and_the_protocol_dilutes_it() {
        let values = vec![1.0; 200];
        let plan = FaultPlan {
            injections: vec![gossip_faults::ValueInjection {
                cycle: 2,
                fraction: 0.1,
                value: 1_001.0,
            }],
            ..FaultPlan::default()
        };
        let mut sim =
            GossipSimulation::with_faults(averaging_config(100), &values, 17, plan).unwrap();
        sim.run(2);
        let poisoned = sim.run_cycle();
        // 20 nodes now push mass 1000 each into the averaging: the mean
        // jumps to ≈ 1 + 20·1000/200 = 101.
        assert!(
            poisoned.estimate_mean > 50.0,
            "injection must move the mean, got {}",
            poisoned.estimate_mean
        );
        let later = sim.run(20).pop().unwrap();
        // Mass conservation: the corrupted mass stays in the system and the
        // network converges *to the corrupted average* — the attack is
        // diluted into consensus, not amplified.
        assert!(
            later.estimate_variance < 1e-3,
            "network must re-converge, variance {}",
            later.estimate_variance
        );
        assert!((later.estimate_mean - poisoned.estimate_mean).abs() < 1.0);
        // The epoch restart at the end of cycle 100 re-seeds every estimate
        // from its local value, which the injection never touched: the
        // corrupted mass is flushed.
        sim.run(76); // cycles 24..=99
        assert!(sim.estimates().iter().all(|&e| e > 40.0));
        sim.run(1); // cycle 100 and its restart
        let estimates = sim.estimates();
        assert_eq!(estimates.len(), 200);
        assert!(estimates.iter().all(|&e| e == 1.0), "{estimates:?}");
    }

    #[test]
    fn dead_links_compose_with_the_newscast_sampler() {
        // The fault lab must work through a partial view too: a vetoed
        // contact is reported as a failed contact (tail-drop eviction of
        // the unreachable descriptor), the blocked rate tracks the
        // dead-link probability (NEWSCAST maintenance keeps re-learning
        // descriptors, so the steady state stays near the link rate), and
        // the protocol still converges to the exact mean.
        let values: Vec<f64> = (0..400).map(|i| i as f64).collect();
        let true_mean = aggregate_core::avg::mean(&values);
        let config = SimulationConfig {
            sampler: aggregate_core::sampler::SamplerConfig::newscast(),
            ..averaging_config(200)
        };
        let plan = FaultPlan::with_link_failure(0.2);
        let mut sim = GossipSimulation::with_faults(config, &values, 21, plan).unwrap();
        sim.set_telemetry(TelemetryConfig::trace());
        let summaries: Vec<CycleSummary> = (0..30)
            .map(|_| {
                let summary = sim.run_cycle();
                // Vetoes have a ring of their own, so the exchange ring
                // stays in key order and a drain without vetoes hands it
                // over.
                assert!(sim.coordinator.telemetry.exchange_ring_in_key_order());
                summary
            })
            .collect();
        let blocked: usize = summaries.iter().map(|s| s.exchanges_blocked).sum();
        let attempted: usize = summaries.iter().map(|s| s.exchanges).sum::<usize>() + blocked;
        let blocked_rate = blocked as f64 / attempted as f64;
        assert!(
            (blocked_rate - 0.2).abs() < 0.05,
            "blocked rate {blocked_rate} should track the dead-link probability"
        );
        let last = summaries.last().unwrap();
        assert!(
            last.estimate_variance < 1e-6,
            "NEWSCAST + dead links must still converge, variance {}",
            last.estimate_variance
        );
        assert!((last.estimate_mean - true_mean).abs() < 1e-9);
    }

    #[test]
    fn malformed_fault_plans_are_rejected_with_typed_errors() {
        let config = averaging_config(10);
        let bad = FaultPlan::with_link_failure(1.5);
        assert!(matches!(
            GossipSimulation::with_faults(config, &[1.0, 2.0], 1, bad).err(),
            Some(SimConfigError::Faults { .. })
        ));
        let bad = FaultPlan::with_partition(5, 5, 0.5);
        assert!(matches!(
            GossipSimulation::with_faults(config, &[1.0, 2.0], 1, bad).err(),
            Some(SimConfigError::Faults { .. })
        ));
    }

    #[test]
    fn tiny_networks_do_not_panic() {
        let mut sim = GossipSimulation::new(averaging_config(3), &[1.0], 29);
        let summary = sim.run_cycle();
        assert_eq!(summary.exchanges, 0);
        assert_eq!(summary.live_nodes, 1);
        let mut empty = GossipSimulation::new(averaging_config(3), &[], 31);
        let summary = empty.run_cycle();
        assert_eq!(summary.live_nodes, 0);
    }

    #[test]
    #[should_panic(expected = "invalid simulation configuration")]
    fn new_rejects_a_leader_probability_above_one() {
        let config = SimulationConfig {
            leader_policy: Some(LeaderPolicy::Fixed { probability: 1.5 }),
            ..averaging_config(3)
        };
        GossipSimulation::new(config, &[1.0; 20], 37);
    }

    #[test]
    #[should_panic(expected = "invalid simulation configuration")]
    fn new_rejects_a_redundancy_configuration_without_instances() {
        let config = SimulationConfig {
            redundancy: Some(RedundancyConfig::median_of(0)),
            ..averaging_config(3)
        };
        GossipSimulation::new(config, &[1.0; 20], 37);
    }
}
