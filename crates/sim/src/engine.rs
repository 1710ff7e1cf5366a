//! Cycle-driven simulation engine for the distributed protocol.
//!
//! This engine drives real [`ProtocolNode`] state machines (the same code the
//! live runtime deploys) over a simulated network: per-cycle peer selection,
//! optional message loss, churn (joins and departures), epoch restarts and
//! leader election for network-size estimation. It is the engine behind the
//! Figure 4 reproduction and the robustness ablations.
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
//! This engine deliberately stays on the per-node message path and does
//! *not* adopt the struct-of-arrays fast path of the sharded engine
//! ([`crate::soa`]): its role is to exercise the exact `begin` → `respond`
//! → `complete` code a live transport runs (the wire-path identity pins in
//! `tests/determinism.rs` depend on that), and message-object construction
//! is precisely what the SoA layout batches away. Scale runs belong to
//! [`crate::sharded::ShardedSimulation`]; this engine is the semantic
//! reference it is pinned against.

use crate::arena::NodeArena;
use crate::sampling::{instantiate_sampler, ArenaDirectory};
use crate::{NetworkConditions, SeedSequence, SimConfigError};
use aggregate_core::aggregate::CountInit;
use aggregate_core::effects::{Clock, VirtualClock};
use aggregate_core::node::ProtocolNode;
use aggregate_core::redundancy::{redundant_size_estimate_from_epoch, RedundancyConfig};
use aggregate_core::sampler::{sample_live_peer, PeerSampler, SamplerConfig};
use aggregate_core::size_estimation::{self, LeaderPolicy};
use aggregate_core::{ExchangeCore, ExchangeTally, GossipMessage, InstanceTag, ProtocolConfig};
use gossip_analysis::OnlineStats;
use gossip_faults::{Adversary, AdversaryPlan, FaultInjector, FaultPlan, PlanInjector};
use gossip_telemetry::{Event, TelemetryConfig, TelemetrySink, WatchdogVerdict};
use overlay_topology::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Logical duration of one protocol cycle on the engines' virtual clocks.
/// Flight-recorder timestamps advance by this per cycle — virtual time, so
/// traces are deterministic and no protocol crate ever reads a wall clock.
pub(crate) const VIRTUAL_CYCLE_MS: u64 = 1_000;

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
    /// values and [`SimConfigError::InvalidConditions`] for failure
    /// parameters that are not probabilities.
    pub fn validate(&self, initial_values: &[f64]) -> Result<(), SimConfigError> {
        if self.conditions.validate().is_err() {
            return Err(SimConfigError::InvalidConditions {
                message_loss: self.conditions.message_loss,
                crash_fraction: self.conditions.crash_fraction,
            });
        }
        if let Some(redundancy) = self.redundancy {
            redundancy.validate()?;
        }
        crate::error::validate_initial_values(initial_values)
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

/// A cycle-driven simulation of the full distributed protocol.
///
/// Exchange partners are drawn through the configured [`PeerSampler`]. The
/// default, [`SamplerConfig::UniformComplete`], samples uniformly over the
/// other live nodes — the complete-graph setting of the paper's Section 4
/// experiment, bit-identical to the engine's historical behaviour. A
/// [`SamplerConfig::StaticOverlay`] restricts partners to the edges of a
/// generated overlay graph, and [`SamplerConfig::Newscast`] runs a live
/// NEWSCAST membership protocol in lockstep with the aggregation cycles —
/// the setting of the paper's overlay-dependence experiments.
#[derive(Debug)]
pub struct GossipSimulation {
    config: SimulationConfig,
    arena: NodeArena,
    cycle: usize,
    rng: StdRng,
    sampler: Box<dyn PeerSampler>,
    /// The fault lab. By default a [`PlanInjector`] over the run's
    /// [`FaultPlan`] with the configured [`NetworkConditions`] absorbed
    /// underneath, so every run — faulty or not — executes through one
    /// injector path; the empty plan is bit-identical to the pre-fault-lab
    /// engine (pinned by `tests/determinism.rs`).
    injector: Box<dyn FaultInjector>,
    /// The stateful adversary: colluders re-asserting lies every cycle and
    /// captured counting-instance leaders. The empty plan never touches a
    /// node and consumes no randomness, so it is bit-identical to no
    /// adversary lab at all (pinned by `tests/determinism.rs`).
    adversary: Adversary,
    /// Master seed streams, kept for the per-epoch redundant leader draws.
    seeds: SeedSequence,
    /// Monotone counter keying the `redundancy-leaders` draws, one per
    /// election, so every epoch's leader set is an independent stream.
    elections: u64,
    last_size_estimate: Option<f64>,
    scratch_pushes: Vec<GossipMessage>,
    scratch_replies: Vec<GossipMessage>,
    /// The observability layer: flight recorder, metrics and watchdog.
    /// Disabled by default — the disabled path records nothing, consumes no
    /// randomness and is pinned bit-identical to the pre-telemetry goldens.
    telemetry: TelemetrySink,
    /// Virtual time driving the flight-recorder timestamps; advances by
    /// [`VIRTUAL_CYCLE_MS`] per cycle, never reads the wall clock.
    clock: VirtualClock,
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
    /// invalid overlay-generator parameters) or the failure conditions are
    /// not probabilities; [`GossipSimulation::try_new`] reports the same
    /// conditions as typed errors.
    pub fn new(config: SimulationConfig, initial_values: &[f64], master_seed: u64) -> Self {
        GossipSimulation::build(
            config,
            initial_values,
            master_seed,
            FaultPlan::none(),
            AdversaryPlan::none(),
        )
        // lint-allow(unwrap): documented `# Panics` contract; `try_new` is the typed-error variant
        .expect("invalid simulation configuration")
    }

    /// Validating variant of [`GossipSimulation::new`], mirroring the
    /// [`crate::AsyncSimulation::new`] pattern: rejects an empty population,
    /// non-finite initial values, invalid failure conditions and unrealisable
    /// sampler configurations at construction.
    ///
    /// # Errors
    ///
    /// See [`SimulationConfig::validate`] and [`SimConfigError::Sampler`].
    pub fn try_new(
        config: SimulationConfig,
        initial_values: &[f64],
        master_seed: u64,
    ) -> Result<Self, SimConfigError> {
        config.validate(initial_values)?;
        GossipSimulation::build(
            config,
            initial_values,
            master_seed,
            FaultPlan::none(),
            AdversaryPlan::none(),
        )
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
        config.validate(initial_values)?;
        GossipSimulation::build(
            config,
            initial_values,
            master_seed,
            plan,
            AdversaryPlan::none(),
        )
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
        adversary_plan: AdversaryPlan,
    ) -> Result<Self, SimConfigError> {
        config
            .conditions
            .validate()
            .map_err(|_| SimConfigError::InvalidConditions {
                message_loss: config.conditions.message_loss,
                crash_fraction: config.conditions.crash_fraction,
            })?;
        let plan = plan.absorb_conditions(config.conditions);
        plan.validate()?;
        adversary_plan.validate()?;
        let mut arena = NodeArena::new();
        let mut initial_ids = Vec::with_capacity(initial_values.len());
        for &v in initial_values {
            initial_ids.push(arena.insert(|id| ProtocolNode::new(id, config.protocol, v)));
        }
        let seeds = SeedSequence::new(master_seed);
        let sampler = instantiate_sampler(config.sampler, &initial_ids, &seeds)?;
        let injector = Box::new(PlanInjector::new(
            plan,
            seeds.seed_for_labeled(0, crate::sampling::FAULTS_STREAM),
        ));
        let adversary = Adversary::new(
            adversary_plan,
            seeds.seed_for_labeled(0, crate::sampling::ADVERSARY_STREAM),
            &initial_ids,
        );
        let mut sim = GossipSimulation {
            config,
            arena,
            cycle: 0,
            rng: seeds.rng_for_run(0),
            sampler,
            injector,
            adversary,
            seeds,
            elections: 0,
            last_size_estimate: None,
            scratch_pushes: Vec::new(),
            scratch_replies: Vec::new(),
            telemetry: TelemetrySink::new(TelemetryConfig::disabled()),
            clock: VirtualClock::new(),
        };
        sim.elect_leaders();
        Ok(sim)
    }

    /// The realised adversary (colluding set and per-epoch captures) — the
    /// test suites inspect it to cross-check which nodes are lying.
    pub fn adversary(&self) -> &Adversary {
        &self.adversary
    }

    /// Installs an observability configuration (flight recorder, metrics,
    /// convergence watchdog). Call before running; the default is
    /// [`TelemetryConfig::disabled`], whose trajectory is pinned
    /// bit-identical to the pre-telemetry engine. Recording consumes no
    /// randomness, so enabling it never changes node estimates either.
    pub fn set_telemetry(&mut self, config: TelemetryConfig) {
        self.telemetry = TelemetrySink::new(config);
        self.telemetry
            .begin_cycle(self.cycle as u64, self.clock.now_ms());
    }

    /// Drains the flight recorder into canonical trace order (post-hoc
    /// export path — runners and tests only, never protocol code).
    pub fn drain_trace(&mut self) -> Vec<Event> {
        self.telemetry.drain_events() // lint-allow(observer-effect): post-hoc export accessor for runners/tests, not protocol logic
    }

    /// Events discarded because the flight-recorder ring was full; drain
    /// per cycle (or raise the capacity) to keep this at zero.
    pub fn dropped_trace_events(&self) -> u64 {
        self.telemetry.dropped_events() // lint-allow(observer-effect): post-hoc export accessor for runners/tests, not protocol logic
    }

    /// The convergence watchdog's current verdict, if one is configured.
    pub fn watchdog_verdict(&self) -> Option<WatchdogVerdict> {
        self.telemetry.watchdog_verdict() // lint-allow(observer-effect): post-hoc diagnosis accessor for runners/tests, not protocol logic
    }

    /// Verdict transitions logged by the convergence watchdog.
    pub fn watchdog_diagnoses(&self) -> &[gossip_telemetry::Diagnosis] {
        self.telemetry.diagnoses() // lint-allow(observer-effect): post-hoc diagnosis accessor for runners/tests, not protocol logic
    }

    /// The accumulated telemetry counters (post-hoc readout).
    pub fn telemetry_metrics(&self) -> &gossip_telemetry::MetricsRegistry {
        self.telemetry.metrics() // lint-allow(observer-effect): post-hoc metrics accessor for runners/tests, not protocol logic
    }

    /// The peer-sampling configuration this simulation draws partners from
    /// (surfaced by report tables so CSV artifacts distinguish
    /// complete-graph from overlay-constrained runs).
    pub fn sampler_config(&self) -> SamplerConfig {
        self.sampler.config()
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
    pub fn cycle(&self) -> usize {
        self.cycle
    }

    /// The most recent pooled network-size estimate (mean over reporting
    /// nodes of the last completed epoch), if any epoch has completed.
    pub fn last_size_estimate(&self) -> Option<f64> {
        self.last_size_estimate
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
        let cycles_per_epoch = self.config.protocol.cycles_per_epoch() as usize;
        let cycle_in_epoch = self.cycle % cycles_per_epoch;
        let cycles_until_start = (cycles_per_epoch - cycle_in_epoch) as u32;
        let next_epoch = (self.cycle / cycles_per_epoch) as u64 + 1;
        let protocol = self.config.protocol;
        let id = self.arena.insert(|id| {
            ProtocolNode::joining(id, protocol, local_value, next_epoch, cycles_until_start)
        });
        if self.telemetry.events_enabled() {
            self.telemetry.node_joined(u64::from(id.as_u32()));
        }
        let GossipSimulation { sampler, arena, .. } = self;
        sampler.on_join(id, &ArenaDirectory { arena });
        id
    }

    /// Removes a specific node (crash or departure). Returns `true` if the
    /// node was live; stale identifiers from a slot's previous occupant are
    /// rejected.
    pub fn remove_node(&mut self, id: NodeId) -> bool {
        if self.arena.remove(id) {
            self.sampler.on_depart(id);
            if self.telemetry.events_enabled() {
                self.telemetry.node_departed(u64::from(id.as_u32()));
            }
            true
        } else {
            false
        }
    }

    /// Removes `count` uniformly random live nodes (used by churn schedules
    /// and crash experiments). Returns the number actually removed.
    pub fn remove_random_nodes(&mut self, count: usize) -> usize {
        let mut removed = 0;
        for _ in 0..count {
            if self.arena.is_empty() {
                break;
            }
            let position = self.rng.gen_range(0..self.arena.len());
            let slot = self.arena.live_slots()[position];
            let id = self.arena.id_at_slot(slot);
            self.arena.remove_live_at(position);
            self.sampler.on_depart(id);
            if self.telemetry.events_enabled() {
                self.telemetry.node_departed(u64::from(id.as_u32()));
            }
            removed += 1;
        }
        removed
    }

    /// Runs one full protocol cycle and returns its summary.
    ///
    /// The per-exchange node stepping is [`ExchangeCore`] — the same
    /// implementation the event-driven and sharded engines drive. This
    /// reference engine deliberately runs the full message path
    /// ([`ExchangeCore::begin`]/[`ExchangeCore::respond`]/
    /// [`ExchangeCore::complete`], the code a live transport exercises)
    /// rather than the fused fast path; the loss-draw order and arithmetic
    /// are bit-identical to the pre-extraction engine, which
    /// `tests/determinism.rs` pins.
    pub fn run_cycle(&mut self) -> CycleSummary {
        let mut tally = ExchangeTally::default();
        let mut exchanges_blocked = 0usize;

        // Fault lab first: enter the cycle, fire any scheduled crash burst
        // (victims drawn through the ordinary churn path, so arena free
        // lists and sampler notifications behave exactly as under churn),
        // then apply adversarial value injections. Under the empty plan all
        // of this is a no-op that consumes no randomness.
        self.injector.begin_cycle(self.cycle);
        let crash_victims = self.injector.crash_count(self.arena.len());
        if crash_victims > 0 {
            self.remove_random_nodes(crash_victims);
        }
        // The stateful adversary next: colluders re-assert their lie at the
        // start of every active cycle (this is what distinguishes them from
        // the one-shot ValueInjection — dilution never wins while the attack
        // runs), and captured counting-instance leaders re-assert the false
        // state into the instances they lead. All of it is pure — no RNG —
        // so the empty plan stays bit-identical.
        {
            let GossipSimulation {
                adversary,
                arena,
                cycle,
                telemetry,
                ..
            } = self;
            let record = telemetry.events_enabled();
            if let Some(value) = adversary.lie_at(*cycle) {
                for &id in adversary.colluders() {
                    if let Some(node) = arena.get_mut(id) {
                        node.corrupt_estimate(value);
                        if record {
                            telemetry.value_corrupted(u64::from(id.as_u32()));
                        }
                    }
                }
            }
            if let Some(state) = adversary.captured_state_at(*cycle) {
                for &id in adversary.captured() {
                    if let Some(node) = arena.get_mut(id) {
                        node.corrupt_instance(InstanceTag::from_leader(id), state);
                    }
                }
            }
        }
        // One corruption per node per cycle: a node the adversary is actively
        // lying through keeps the adversary's value — the injection would be
        // overwritten at the next cycle start anyway, and skipping it keeps
        // the composed labs from double-corrupting (pinned by a regression
        // test in tests/byzantine.rs).
        for (pos, value) in self.injector.corruptions(self.arena.len()) {
            let slot = self.arena.live_slots()[pos];
            let id = self.arena.id_at_slot(slot);
            if self.adversary.overrides_injection(self.cycle, id) {
                continue;
            }
            if let Some(node) = self.arena.node_at_slot_mut(slot) {
                node.corrupt_estimate(value);
                if self.telemetry.events_enabled() {
                    self.telemetry.value_corrupted(u64::from(id.as_u32()));
                }
            }
        }
        let loss = self.injector.loss_probability();

        // Overlay maintenance next, in lockstep with the aggregation cycle:
        // NEWSCAST exchanges and ages its views here (from its own labelled
        // seed stream — the engine's schedule draws below are untouched, so
        // the uniform configuration stays bit-identical to the pre-sampler
        // engine).
        {
            let GossipSimulation { sampler, arena, .. } = self;
            sampler.begin_cycle(&ArenaDirectory { arena });
        }

        // Active phase: every live node initiates one exchange, in random
        // order (the GETPAIR_SEQ schedule realised by a distributed system).
        let mut order = self.arena.live_slots().to_vec();
        order.shuffle(&mut self.rng);
        for initiator_slot in order {
            if self.arena.node_at_slot(initiator_slot).is_none() {
                continue;
            }
            let peer_id = {
                let GossipSimulation {
                    sampler,
                    arena,
                    rng,
                    ..
                } = self;
                let initiator_pos = arena
                    .live_pos_of_slot(initiator_slot)
                    // lint-allow(unwrap): initiator slot comes from this cycle's live snapshot
                    .expect("checked above") as usize;
                sample_live_peer(
                    sampler.as_mut(),
                    &ArenaDirectory { arena },
                    initiator_pos,
                    rng,
                )
            };
            let Some(peer_id) = peer_id else {
                continue;
            };
            // The fault lab vetoes the contact attempt when the link is dead
            // or a partition separates the endpoints — the exchange simply
            // does not happen, and the failed contact is reported to the
            // peer-sampling layer exactly like a contact with a dead node,
            // so cached views (NEWSCAST) tail-drop unreachable neighbours
            // and heal around dead links and partitions.
            let initiator_id = self.arena.id_at_slot(initiator_slot);
            if self.injector.link_blocked(initiator_id, peer_id) {
                self.sampler.peer_failed(initiator_id, peer_id);
                exchanges_blocked += 1;
                if self.telemetry.events_enabled() {
                    self.telemetry.exchange_vetoed(
                        u64::from(initiator_id.as_u32()),
                        u64::from(peer_id.as_u32()),
                    );
                }
                continue;
            }
            let peer_slot = self.arena.slot_of(peer_id).expect("sampled peer is live"); // lint-allow(unwrap): sampler returned it from the live directory this cycle
            let arena = &mut self.arena;
            let rng = &mut self.rng;
            let initiator = arena
                .node_at_slot_mut(initiator_slot)
                // lint-allow(unwrap): initiator slot comes from this cycle's live snapshot
                .expect("checked above");
            if !ExchangeCore::begin(initiator, peer_id, &mut self.scratch_pushes) {
                continue;
            }
            tally.exchanges += 1;
            let seq = (tally.exchanges - 1) as u64;
            if self.telemetry.events_enabled() {
                self.telemetry.exchange_begun(
                    seq,
                    u64::from(initiator_id.as_u32()),
                    u64::from(peer_id.as_u32()),
                );
            }
            self.scratch_replies.clear();
            let mut lost = || loss > 0.0 && rng.gen_bool(loss);
            let peer = arena
                .node_at_slot_mut(peer_slot)
                // lint-allow(unwrap): peer_slot resolved from a live id above; no churn mid-cycle
                .expect("live within cycle");
            let lost_before = tally.messages_lost;
            ExchangeCore::respond(
                peer,
                &self.scratch_pushes,
                &mut self.scratch_replies,
                &mut lost,
                &mut tally,
            );
            let initiator = arena
                .node_at_slot_mut(initiator_slot)
                // lint-allow(unwrap): initiator slot comes from this cycle's live snapshot
                .expect("checked above");
            ExchangeCore::complete(initiator, &self.scratch_replies);
            if self.telemetry.events_enabled() {
                let lost_now = tally.messages_lost - lost_before;
                for _ in 0..lost_now {
                    self.telemetry.message_lost(seq);
                }
                if lost_now == 0 {
                    self.telemetry.exchange_completed(seq);
                }
            }
        }
        let ExchangeTally {
            exchanges,
            messages_lost,
        } = tally;

        // End-of-cycle phase: epoch book-keeping on every live node.
        let mut completed_epoch = None;
        let mut epoch_estimates = Vec::new();
        let mut epoch_size_estimates = Vec::new();
        for pos in 0..self.arena.len() {
            let slot = self.arena.live_slots()[pos];
            let Some(node) = self.arena.node_at_slot_mut(slot) else {
                continue;
            };
            if let Some(result) = node.end_cycle() {
                completed_epoch = Some(result.epoch);
                if result.full_participation {
                    if let Some(estimate) = result.default_estimate() {
                        epoch_estimates.push(estimate);
                    }
                    // The defended estimator merges per-instance estimates
                    // (median-of-k / trimmed mean); the undefended one pools
                    // instance states by averaging.
                    let size = match self.config.redundancy {
                        Some(redundancy) => {
                            redundant_size_estimate_from_epoch(&result, redundancy.merge).ok()
                        }
                        None => size_estimation::size_estimate_from_epoch(&result),
                    };
                    if let Some(size) = size {
                        epoch_size_estimates.push(size);
                    }
                }
            }
        }

        if !epoch_size_estimates.is_empty() {
            let mean = epoch_size_estimates.iter().sum::<f64>() / epoch_size_estimates.len() as f64;
            self.last_size_estimate = Some(mean);
        }

        // A completed epoch means the next cycle starts a new epoch: re-run
        // the leader election for the counting instances.
        if let Some(epoch) = completed_epoch {
            if self.telemetry.events_enabled() {
                self.telemetry.epoch_restarted(epoch);
            }
            self.elect_leaders();
        }

        // Per-cycle summary statistics in one streaming pass (Welford) —
        // at the paper's 10⁵-node scale the old collect-then-two-pass path
        // allocated an 800 kB vector and walked it twice every cycle.
        let mut stats = OnlineStats::new();
        for &slot in self.arena.live_slots() {
            if let Some(estimate) = self
                .arena
                .node_at_slot(slot)
                .and_then(|node| node.estimate())
            {
                stats.push(estimate);
            }
        }

        let summary = CycleSummary {
            cycle: self.cycle,
            live_nodes: self.arena.len(),
            exchanges,
            messages_lost,
            exchanges_blocked,
            estimate_variance: stats.sample_variance(),
            estimate_mean: stats.mean(),
            completed_epoch,
            epoch_estimates,
            epoch_size_estimates,
        };
        self.telemetry
            .observe_variance(self.cycle as u64, summary.estimate_variance);
        self.cycle += 1;
        // Advance virtual time and open the next cycle's recording context,
        // so churn applied between run_cycle calls lands in the cycle-start
        // band of the cycle it affects.
        self.clock.advance(VIRTUAL_CYCLE_MS);
        self.telemetry
            .begin_cycle(self.cycle as u64, self.clock.now_ms());
        summary
    }

    /// Runs `cycles` consecutive cycles, returning all summaries.
    pub fn run(&mut self, cycles: usize) -> Vec<CycleSummary> {
        (0..cycles).map(|_| self.run_cycle()).collect()
    }

    fn elect_leaders(&mut self) {
        // A new epoch starts: whatever leaders the adversary captured last
        // epoch died with their instances.
        self.adversary.begin_epoch();
        if let Some(redundancy) = self.config.redundancy {
            self.elect_redundant_leaders(redundancy.instances);
            return;
        }
        let Some(policy) = self.config.leader_policy else {
            return;
        };
        let previous = self.last_size_estimate;
        let mut any_leader = false;
        for pos in 0..self.arena.len() {
            let slot = self.arena.live_slots()[pos];
            let id = self.arena.id_at_slot(slot);
            if let Some(node) = self.arena.node_at_slot_mut(slot) {
                if size_estimation::elect_leader(node, policy, previous, &mut self.rng) {
                    any_leader = true;
                    self.adversary.observe_leader(id);
                    if self.telemetry.events_enabled() {
                        self.telemetry.leader_elected(u64::from(id.as_u32()));
                    }
                }
            }
        }
        // Guarantee progress: if the random draw elected nobody (possible for
        // small networks and small probabilities), promote one deterministic
        // leader so the epoch still produces a size estimate.
        if !any_leader {
            if let Some(&slot) = self.arena.live_slots().first() {
                let id = self.arena.id_at_slot(slot);
                if let Some(node) = self.arena.node_at_slot_mut(slot) {
                    node.start_led_instance(
                        aggregate_core::InstanceTag::from_leader(node.id()),
                        1.0,
                    );
                    self.adversary.observe_leader(id);
                    if self.telemetry.events_enabled() {
                        self.telemetry.leader_elected(u64::from(id.as_u32()));
                    }
                }
            }
        }
    }

    /// The redundant-instance election: exactly `min(k, live)` *distinct*
    /// leaders per epoch, drawn by a partial Fisher–Yates over the live
    /// directory from the dedicated `redundancy-leaders` stream — so the
    /// defense's randomness never perturbs the schedule draws, and runs
    /// without the defense are untouched.
    fn elect_redundant_leaders(&mut self, instances: usize) {
        let live = self.arena.len();
        if live == 0 {
            return;
        }
        let k = instances.min(live);
        let mut rng = self
            .seeds
            .rng_for_labeled(self.elections, crate::sampling::REDUNDANCY_STREAM);
        self.elections += 1;
        let mut positions: Vec<u32> = (0..live as u32).collect();
        for i in 0..k {
            let j = rng.gen_range(i..live);
            positions.swap(i, j);
        }
        for &pos in &positions[..k] {
            let slot = self.arena.live_slots()[pos as usize];
            let id = self.arena.id_at_slot(slot);
            if let Some(node) = self.arena.node_at_slot_mut(slot) {
                node.start_led_instance(
                    InstanceTag::from_leader(id),
                    CountInit::initial_value(true),
                );
                self.adversary.observe_leader(id);
                if self.telemetry.events_enabled() {
                    self.telemetry.leader_elected(u64::from(id.as_u32()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggregate_core::config::LateJoinPolicy;

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
        let summaries = sim.run(30);
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
}
