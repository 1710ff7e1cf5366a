//! The epoch environment every cycle runtime shares, written once.
//!
//! Section 4 of the paper wraps the averaging kernel in one environment: an
//! epoch restart, a leader election that starts the COUNT instances, the
//! crash/link/loss failure model, and "run several instances and report the
//! median" against malicious nodes. [`Coordinator`] owns all of it for the
//! three cycle runtimes — [`crate::GossipSimulation`],
//! [`crate::ShardedSimulation`] and `gossip_net::VirtualCluster` — that is,
//! everything a cycle coordinates apart from node storage: the seed streams,
//! the peer sampler, the fault injector, the adversary, the telemetry sink,
//! virtual time, the cycle and election counters and the last pooled size
//! estimate.
//!
//! A runtime exposes its node store through [`CycleNodes`] and drives one
//! cycle as
//!
//! 1. [`Coordinator::enter_cycle`]: crash bursts → colluder lies → captured
//!    leaders → value injections the adversary does not override → overlay
//!    maintenance; returns the cycle's loss probability;
//! 2. its own exchange phase;
//! 3. [`Coordinator::close_cycle`] (per-node runtimes) or, for the sharded
//!    engine's struct-of-arrays pass, `epoch_restarted` and `end_cycle`.
//!
//! Each runtime still supplies its own RNG and its own trace key. The
//! reference engine and the wire cluster draw churn victims and
//! probabilistic elections from their schedule RNG and key events by node
//! identifier; the sharded engine draws victims from its `sharded-churn`
//! stream, draws each election from the labelled `election` stream and keys
//! events by global directory position. That is what keeps every runtime's
//! golden trajectory unchanged.

use crate::engine::CycleSummary;
use crate::sampling::{instantiate_sampler, ADVERSARY_STREAM, FAULTS_STREAM, REDUNDANCY_STREAM};
use crate::{SeedSequence, SimConfigError, SimulationConfig};
use aggregate_core::aggregate::CountInit;
use aggregate_core::effects::{Clock, VirtualClock};
use aggregate_core::redundancy::{redundant_size_estimate_from_epoch, MergePolicy};
use aggregate_core::sampler::{PeerSampler, SamplerDirectory};
use aggregate_core::size_estimation;
use aggregate_core::{EpochResult, ExchangeTally, InstanceTag};
use gossip_analysis::OnlineStats;
use gossip_faults::{Adversary, AdversaryPlan, FaultInjector, FaultPlan, PlanInjector};
use gossip_telemetry::{TelemetryConfig, TelemetrySink};
use overlay_topology::NodeId;
use rand::rngs::StdRng;
use rand::Rng;

/// A runtime's node store as the [`Coordinator`] sees it: the live
/// directory (positions in the runtime's live order) plus the few node
/// operations elections, corruptions and the end-of-cycle pass need, each
/// implemented where the runtime keeps the state: on its `ProtocolNode`s or
/// in its columns.
pub trait CycleNodes: SamplerDirectory {
    /// Whether the node at live-directory position `pos` may take part in
    /// exchanges: a joiner waits for its first epoch, and only a
    /// participating node stands in an election.
    fn can_participate(&self, pos: usize) -> bool;

    /// Starts (or restarts) led instance `tag` at `state` on the node at
    /// `pos`: an elected leader's counting instance.
    fn start_led_instance(&mut self, pos: usize, tag: InstanceTag, state: f64);

    /// Overwrites live node `id`'s running default-instance estimate with
    /// `value` (wherever the runtime keeps it authoritative), returning the
    /// node's trace key, or `None` when `id` is no longer live.
    fn corrupt_estimate(&mut self, id: NodeId, value: f64) -> Option<u64>;

    /// Overwrites the state of the counting instance led by live node `id`.
    fn corrupt_instance(&mut self, id: NodeId, state: f64);

    /// Removes the node at live position `pos` with the runtime's
    /// swap-remove bookkeeping, returning its identifier and trace key.
    fn remove_at(&mut self, pos: usize) -> (NodeId, u64);

    /// The trace key of the node at position `pos`: its identifier, unless
    /// the runtime keys events by position.
    fn trace_key(&self, pos: usize) -> u64 {
        u64::from(self.id_at(pos).as_u32())
    }
}

/// The end-of-cycle pass of a runtime that keeps one `ProtocolNode` per
/// node, which [`Coordinator::close_cycle`] drives; the sharded engine runs
/// its own over its columns.
pub trait NodeTicks: CycleNodes {
    /// Ticks the node at `pos` through the end of a cycle, returning its
    /// report when that completes an epoch.
    fn end_cycle(&mut self, pos: usize) -> Option<EpochResult>;

    /// The default-instance estimate of the node at `pos`.
    fn estimate(&self, pos: usize) -> Option<f64>;
}

/// Everything a cycle runtime coordinates apart from node storage. See the
/// module documentation for the cycle protocol.
#[derive(Debug)]
pub struct Coordinator {
    config: SimulationConfig,
    seeds: SeedSequence,
    cycle: usize,
    /// Monotone counter keying the `election` and `redundancy-leaders`
    /// draws, one per election, so every epoch's draws are an independent
    /// stream.
    elections: u64,
    /// The peer-sampling layer exchange partners are drawn from.
    pub sampler: Box<dyn PeerSampler + Send>,
    /// The fault lab: a [`PlanInjector`] over the run's [`FaultPlan`] with
    /// the configured conditions absorbed underneath, so every run executes
    /// through one injector path.
    pub injector: Box<dyn FaultInjector + Send>,
    /// The stateful adversary. The empty plan touches no node and consumes
    /// no randomness.
    adversary: Adversary,
    /// The observability sink; disabled by default. Recording consumes no
    /// randomness, so enabling it never changes a trajectory.
    pub telemetry: TelemetrySink,
    /// Virtual time for flight-recorder timestamps: one `cycle_length_ms`
    /// per cycle, never the wall clock.
    clock: VirtualClock,
    pub(crate) last_size_estimate: Option<f64>,
}

impl Coordinator {
    /// Absorbs `config`'s conditions into `plan`, validates both plans and
    /// builds the sampler, fault injector and adversary over the initial
    /// directory `initial`, all from labelled streams of `master_seed`.
    ///
    /// # Errors
    ///
    /// [`SimConfigError::InvalidConditions`], [`SimConfigError::Faults`],
    /// [`SimConfigError::Adversary`] and [`SimConfigError::Sampler`].
    pub fn build(
        config: &SimulationConfig,
        initial: &[NodeId],
        master_seed: u64,
        plan: FaultPlan,
        adversary: AdversaryPlan,
    ) -> Result<Self, SimConfigError> {
        config.validate_conditions()?;
        let plan = plan.absorb_conditions(config.conditions);
        plan.validate()?;
        adversary.validate()?;
        let seeds = SeedSequence::new(master_seed);
        Ok(Coordinator {
            config: *config,
            seeds,
            cycle: 0,
            elections: 0,
            sampler: instantiate_sampler(config.sampler, initial, &seeds)?,
            injector: Box::new(PlanInjector::new(
                plan,
                seeds.seed_for_labeled(0, FAULTS_STREAM),
            )),
            adversary: Adversary::new(
                adversary,
                seeds.seed_for_labeled(0, ADVERSARY_STREAM),
                initial,
            ),
            telemetry: TelemetrySink::new(TelemetryConfig::disabled()),
            clock: VirtualClock::new(),
            last_size_estimate: None,
        })
    }

    /// The simulation configuration the run was built with.
    pub(crate) fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The run's master seed streams.
    pub fn seeds(&self) -> &SeedSequence {
        &self.seeds
    }

    /// The current cycle index.
    pub fn cycle(&self) -> usize {
        self.cycle
    }

    /// The virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// The realised adversary (colluding set and per-epoch captures).
    pub fn adversary(&self) -> &Adversary {
        &self.adversary
    }

    /// The most recent pooled network-size estimate, if any epoch completed.
    pub fn last_size_estimate(&self) -> Option<f64> {
        self.last_size_estimate
    }

    /// Installs (or replaces) the telemetry sink and opens the current
    /// cycle's recording context.
    pub fn set_telemetry(&mut self, config: TelemetryConfig) {
        self.telemetry = TelemetrySink::new(config);
        self.telemetry
            .begin_cycle(self.cycle as u64, self.clock.now_ms());
    }

    /// Reports a joined node to the flight recorder and the sampler;
    /// `nodes` already contains it.
    pub(crate) fn joined(&mut self, id: NodeId, key: u64, nodes: &dyn SamplerDirectory) {
        if self.telemetry.events_enabled() {
            self.telemetry.node_joined(key);
        }
        self.sampler.on_join(id, nodes);
    }

    /// Reports a departed node to the sampler and the flight recorder.
    pub(crate) fn departed(&mut self, id: NodeId, key: u64) {
        self.sampler.on_depart(id);
        if self.telemetry.events_enabled() {
            self.telemetry.node_departed(key);
        }
    }

    /// Removes up to `count` uniformly random live nodes, each position
    /// drawn from `rng`. Returns the number removed.
    pub(crate) fn remove_random(
        &mut self,
        nodes: &mut impl CycleNodes,
        rng: &mut StdRng,
        count: usize,
    ) -> usize {
        let count = count.min(nodes.len());
        for _ in 0..count {
            let pos = rng.gen_range(0..nodes.len());
            let (id, key) = nodes.remove_at(pos);
            self.departed(id, key);
        }
        count
    }

    /// Enters the current cycle in the one fault/adversary order every
    /// runtime shares: crash bursts (victims drawn from `churn_rng` through
    /// the ordinary churn path), colluder lies, captured-leader states,
    /// value injections the adversary does not override (one corruption per
    /// node per cycle), then overlay maintenance. Returns the cycle's
    /// message-loss probability. Under empty plans none of this touches a
    /// node or draws randomness.
    pub fn enter_cycle(&mut self, nodes: &mut impl CycleNodes, churn_rng: &mut StdRng) -> f64 {
        let cycle = self.cycle;
        self.injector.begin_cycle(cycle);
        let crashes = self.injector.crash_count(nodes.len());
        self.remove_random(nodes, churn_rng, crashes);
        let record = self.telemetry.events_enabled();
        if let Some(value) = self.adversary.lie_at(cycle) {
            for &id in self.adversary.colluders() {
                match nodes.corrupt_estimate(id, value) {
                    Some(key) if record => self.telemetry.value_corrupted(key),
                    _ => {}
                }
            }
        }
        if let Some(state) = self.adversary.captured_state_at(cycle) {
            for &id in self.adversary.captured() {
                nodes.corrupt_instance(id, state);
            }
        }
        for (pos, value) in self.injector.corruptions(nodes.len()) {
            let id = nodes.id_at(pos);
            if self.adversary.overrides_injection(cycle, id) {
                continue;
            }
            match nodes.corrupt_estimate(id, value) {
                Some(key) if record => self.telemetry.value_corrupted(key),
                _ => {}
            }
        }
        self.sampler.begin_cycle(nodes);
        self.injector.loss_probability()
    }

    /// Starts a new epoch's counting instances. With redundancy configured,
    /// exactly `min(k, live)` distinct leaders are drawn by a partial
    /// Fisher–Yates over live positions from the `redundancy-leaders`
    /// stream. Otherwise every live node runs the leader policy, drawing
    /// from `schedule` — or, when `None`, from this election's own labelled
    /// `election` stream — and if nobody wins, the first live node leads so
    /// the epoch still yields a size estimate.
    pub fn elect_leaders(&mut self, nodes: &mut impl CycleNodes, schedule: Option<&mut StdRng>) {
        // Last epoch's captured leaders died with their instances.
        self.adversary.begin_epoch();
        if let Some(redundancy) = self.config.redundancy {
            self.elect_redundant_leaders(nodes, redundancy.instances);
            return;
        }
        let Some(policy) = self.config.leader_policy else {
            return;
        };
        // stream: epoch-boundary leader elections
        let mut own = self.seeds.rng_for_labeled(self.elections, "election");
        self.elections += 1;
        let rng = schedule.unwrap_or(&mut own);
        let live = nodes.len();
        let previous = self.last_size_estimate;
        let mut any_leader = false;
        for pos in 0..live {
            if nodes.can_participate(pos) && size_estimation::wins_election(policy, previous, rng) {
                any_leader = true;
                self.start_leader(nodes, pos);
            }
        }
        if !any_leader && live > 0 {
            self.start_leader(nodes, 0);
        }
    }

    /// Draws `min(instances, live)` distinct leaders by a partial
    /// Fisher–Yates over live positions from this election's
    /// `redundancy-leaders` stream.
    fn elect_redundant_leaders(&mut self, nodes: &mut impl CycleNodes, instances: usize) {
        let live = nodes.len();
        if live == 0 {
            return;
        }
        let k = instances.min(live);
        let mut rng = self
            .seeds
            .rng_for_labeled(self.elections, REDUNDANCY_STREAM);
        self.elections += 1;
        let mut positions: Vec<u32> = (0..live as u32).collect();
        for i in 0..k {
            positions.swap(i, rng.gen_range(i..live));
        }
        for &pos in &positions[..k] {
            self.start_leader(nodes, pos as usize);
        }
    }

    /// Starts the counting instance of the leader at `pos`, seeded with
    /// `1.0` and tagged with its identity.
    fn start_leader(&mut self, nodes: &mut impl CycleNodes, pos: usize) {
        let tag = InstanceTag::from_leader(nodes.id_at(pos));
        nodes.start_led_instance(pos, tag, CountInit::initial_value(true));
        self.adversary.observe_leader(nodes.id_at(pos));
        if self.telemetry.events_enabled() {
            self.telemetry.leader_elected(nodes.trace_key(pos));
        }
    }

    /// Records that `epoch` completed and elects the next epoch's leaders.
    pub(crate) fn epoch_restarted(
        &mut self,
        epoch: u64,
        nodes: &mut impl CycleNodes,
        schedule: Option<&mut StdRng>,
    ) {
        if self.telemetry.events_enabled() {
            self.telemetry.epoch_restarted(epoch);
        }
        self.elect_leaders(nodes, schedule);
    }

    /// Closes the current cycle: feeds its variance to the watchdog,
    /// advances virtual time by one `cycle_length_ms` and opens the next
    /// cycle's recording context, so churn applied between cycles lands in
    /// the cycle-start band of the cycle it affects.
    pub(crate) fn end_cycle(&mut self, variance: f64) {
        self.telemetry.observe_variance(self.cycle as u64, variance);
        self.cycle += 1;
        self.clock.advance(self.config.protocol.cycle_length_ms());
        self.telemetry
            .begin_cycle(self.cycle as u64, self.clock.now_ms());
    }

    /// The end-of-cycle phase of a per-node runtime: ticks every live node's
    /// epoch machinery in live order, collects the converged reports of
    /// full-epoch participants, restarts the epoch's elections from
    /// `schedule` when one completed, and closes the cycle with the
    /// summary's variance.
    pub fn close_cycle(
        &mut self,
        nodes: &mut impl NodeTicks,
        schedule: &mut StdRng,
        tally: ExchangeTally,
        exchanges_blocked: usize,
    ) -> CycleSummary {
        let redundancy = self.config.redundancy.map(|r| r.merge);
        let mut completed_epoch = None;
        let mut epoch_estimates = Vec::new();
        let mut epoch_size_estimates = Vec::new();
        for pos in 0..nodes.len() {
            let Some(result) = nodes.end_cycle(pos) else {
                continue;
            };
            completed_epoch = Some(result.epoch);
            if result.full_participation {
                epoch_estimates.extend(result.default_estimate());
                epoch_size_estimates.extend(epoch_size_estimate(&result, redundancy));
            }
        }
        if !epoch_size_estimates.is_empty() {
            let mean = epoch_size_estimates.iter().sum::<f64>() / epoch_size_estimates.len() as f64;
            self.last_size_estimate = Some(mean);
        }
        if let Some(epoch) = completed_epoch {
            self.epoch_restarted(epoch, nodes, Some(schedule));
        }
        let mut stats = OnlineStats::new();
        for pos in 0..nodes.len() {
            if let Some(estimate) = nodes.estimate(pos) {
                stats.push(estimate);
            }
        }
        let summary = CycleSummary {
            cycle: self.cycle,
            live_nodes: nodes.len(),
            exchanges: tally.exchanges,
            messages_lost: tally.messages_lost,
            exchanges_blocked,
            estimate_variance: stats.sample_variance(),
            estimate_mean: stats.mean(),
            completed_epoch,
            epoch_estimates,
            epoch_size_estimates,
        };
        self.end_cycle(summary.estimate_variance);
        summary
    }
}

/// A node's network-size report for a completed epoch: the defended
/// estimator (median-of-k / trimmed merge over per-instance estimates) when
/// redundancy is configured, the undefended state-pooling estimator
/// otherwise.
pub(crate) fn epoch_size_estimate(
    result: &EpochResult,
    redundancy: Option<MergePolicy>,
) -> Option<f64> {
    match redundancy {
        Some(merge) => redundant_size_estimate_from_epoch(result, merge).ok(),
        None => size_estimation::size_estimate_from_epoch(result),
    }
}
