//! Threaded node runtime and single-process cluster helper.
//!
//! The runtime thread is a thin scheduler around the shared protocol core:
//! every exchange state transition goes through [`NodeCore`] (and therefore
//! [`aggregate_core::ExchangeCore`]), and everything environmental reaches
//! the loop through an injected [`NodeEnv`] — a [`Clock`], a seeded RNG, a
//! [`PeerSampler`], a [`FaultInjector`] and the [`Transport`]. The same
//! `SamplerConfig` and `FaultPlan` values that configure the simulators plug
//! in here unchanged, so link vetoes, loss, partitions and crash bursts work
//! against a live UDP cluster exactly as they do in the fault lab.

use crate::node_core::{Delivery, NodeCore};
use crate::{lock, InMemoryNetwork, NetError, Transport};
use aggregate_core::effects::{Clock, SeedSequence, SystemClock};
use aggregate_core::node::ProtocolNode;
use aggregate_core::sampler::UniformSampler;
use aggregate_core::sampler::{sample_live_peer, PeerSampler, SamplerConfig, SliceDirectory};
use aggregate_core::{GossipMessage, ProtocolConfig};
use gossip_faults::{Adversary, AdversaryPlan, FaultInjector, FaultPlan, PlanInjector};
use gossip_sim::instantiate_sampler;
use gossip_sim::sampling::{ADVERSARY_STREAM, FAULTS_STREAM};
use gossip_telemetry::{Event, TelemetryConfig, TelemetrySink};
use overlay_topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Label of the seed stream feeding the cluster-wide crash/corruption victim
/// draws. Every node derives this stream from the *same* cluster
/// [`SeedSequence`], so all nodes agree on which of them a crash burst kills
/// without any coordination messages.
pub const FAULT_SCHEDULE_STREAM: &str = "fault-schedule";

/// Snapshot of a runtime's typed event counters.
///
/// Exchange outcomes (started / completed / timed out / vetoed / rejected)
/// and transport failures (send, receive, decode) are counted instead of
/// swallowed; [`NodeHandle::stats`] reads a live node, and the cluster
/// helper's [`ClusterReport`] sums the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Exchanges this node initiated (pushes formed and sent).
    pub exchanges_started: u64,
    /// Initiated exchanges that absorbed at least one reply.
    pub exchanges_completed: u64,
    /// Initiated exchanges closed at the next cycle boundary with no reply.
    pub exchanges_timed_out: u64,
    /// Exchange attempts vetoed by the fault lab before any message was
    /// formed (dead link or active partition to the sampled peer).
    pub exchanges_vetoed: u64,
    /// Incoming pushes rejected because this node had its own exchange in
    /// flight (the mass-conservation rule of [`NodeCore`]).
    pub pushes_rejected: u64,
    /// Messages dropped by the fault lab's loss model before sending.
    pub messages_lost: u64,
    /// Incoming pushes and replies dropped unprocessed because their value
    /// was NaN or infinite ([`crate::Delivery::RejectedNonFinite`]).
    pub non_finite_rejected: u64,
    /// Transport send failures.
    pub send_errors: u64,
    /// Transport receive failures other than decode errors.
    pub recv_errors: u64,
    /// Frames that failed to decode into a protocol message.
    pub decode_errors: u64,
    /// Cycle boundaries this node has crossed (cluster totals sum over
    /// nodes). Lets observers wait on protocol progress instead of
    /// wall-clock guesses.
    pub cycles_run: u64,
}

impl RuntimeStats {
    /// Adds another snapshot's counters into this one (cluster totals).
    pub fn merge(&mut self, other: RuntimeStats) {
        self.exchanges_started += other.exchanges_started;
        self.exchanges_completed += other.exchanges_completed;
        self.exchanges_timed_out += other.exchanges_timed_out;
        self.exchanges_vetoed += other.exchanges_vetoed;
        self.pushes_rejected += other.pushes_rejected;
        self.messages_lost += other.messages_lost;
        self.non_finite_rejected += other.non_finite_rejected;
        self.send_errors += other.send_errors;
        self.recv_errors += other.recv_errors;
        self.decode_errors += other.decode_errors;
        self.cycles_run += other.cycles_run;
    }
}

/// Lock-free counter cell shared between the runtime thread and its handles.
#[derive(Debug, Default)]
struct StatsCell {
    exchanges_started: AtomicU64,
    exchanges_completed: AtomicU64,
    exchanges_timed_out: AtomicU64,
    exchanges_vetoed: AtomicU64,
    pushes_rejected: AtomicU64,
    messages_lost: AtomicU64,
    non_finite_rejected: AtomicU64,
    send_errors: AtomicU64,
    recv_errors: AtomicU64,
    decode_errors: AtomicU64,
    cycles_run: AtomicU64,
}

impl StatsCell {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> RuntimeStats {
        RuntimeStats {
            exchanges_started: self.exchanges_started.load(Ordering::Relaxed),
            exchanges_completed: self.exchanges_completed.load(Ordering::Relaxed),
            exchanges_timed_out: self.exchanges_timed_out.load(Ordering::Relaxed),
            exchanges_vetoed: self.exchanges_vetoed.load(Ordering::Relaxed),
            pushes_rejected: self.pushes_rejected.load(Ordering::Relaxed),
            messages_lost: self.messages_lost.load(Ordering::Relaxed),
            non_finite_rejected: self.non_finite_rejected.load(Ordering::Relaxed),
            send_errors: self.send_errors.load(Ordering::Relaxed),
            recv_errors: self.recv_errors.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            cycles_run: self.cycles_run.load(Ordering::Relaxed),
        }
    }
}

/// A periodic, point-in-time view of one live node: the current cycle
/// ordinal and estimate alongside the typed counters — the mid-run
/// visibility [`RuntimeStats`] alone (an end-of-run readout) cannot give.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSnapshot {
    /// Cycle boundaries crossed so far (the node's logical time).
    pub cycle: u64,
    /// The epoch the node is currently executing.
    pub epoch: u64,
    /// The node's current estimate of the aggregate, if it holds one.
    pub estimate: Option<f64>,
    /// The typed event counters at snapshot time.
    pub stats: RuntimeStats,
}

/// Shared, thread-safe view of a running node's state.
#[derive(Debug, Clone)]
pub struct NodeHandle {
    id: NodeId,
    node: Arc<Mutex<NodeCore>>,
    stats: Arc<StatsCell>,
    telemetry: Arc<Mutex<TelemetrySink>>,
}

impl NodeHandle {
    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's current estimate of the aggregate.
    pub fn estimate(&self) -> Option<f64> {
        lock(&self.node).estimate()
    }

    /// The epoch the node is currently executing.
    pub fn current_epoch(&self) -> u64 {
        lock(&self.node).current_epoch()
    }

    /// Updates the node's local attribute value (picked up at the next epoch
    /// restart, as in the paper's adaptive protocol).
    pub fn set_local_value(&self, value: f64) {
        lock(&self.node).set_local_value(value);
    }

    /// A snapshot of the node's typed event counters.
    pub fn stats(&self) -> RuntimeStats {
        self.stats.snapshot()
    }

    /// A periodic mid-run snapshot: current cycle, epoch, estimate and the
    /// typed counters in one consistent read (the counters and node state
    /// are sampled back to back, not atomically — good enough for the
    /// monitoring this serves).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let (epoch, estimate) = {
            let core = lock(&self.node);
            (core.current_epoch(), core.estimate())
        };
        let stats = self.stats.snapshot();
        MetricsSnapshot {
            cycle: stats.cycles_run,
            epoch,
            estimate,
            stats,
        }
    }

    /// Drains this node's flight recorder in canonical trace order. Empty
    /// unless the runtime was spawned with event recording enabled
    /// ([`NodeEnv::with_telemetry`]).
    pub fn drain_trace(&self) -> Vec<Event> {
        lock(&self.telemetry).drain_events() // lint-allow(observer-effect): post-hoc export accessor for observers, not protocol logic
    }

    /// Renders the node's telemetry counters (post-hoc readout).
    pub fn telemetry_metrics(&self) -> String {
        lock(&self.telemetry).metrics().render() // lint-allow(observer-effect): post-hoc metrics accessor for observers, not protocol logic
    }
}

/// The injected environment one runtime thread lives in: transport, clock,
/// entropy, peer sampling and fault injection.
///
/// [`NodeEnv::real`] is the deployment environment — [`SystemClock`], a
/// seeded [`StdRng`], uniform sampling over the transport's peers and the
/// empty fault plan. The builder methods swap individual effects; the
/// deterministic lockstep counterpart lives in [`crate::VirtualCluster`],
/// which binds a `VirtualClock` and labelled `SeedSequence` streams instead.
#[derive(Debug)]
pub struct NodeEnv<T: Transport> {
    transport: T,
    clock: Box<dyn Clock>,
    rng: StdRng,
    sampler: Box<dyn PeerSampler + Send>,
    injector: Box<dyn FaultInjector + Send>,
    /// The stateful adversary: when this node is a colluder, it re-asserts
    /// the attack value at every cycle boundary, exactly as the simulators'
    /// colluders do. Cluster-shared seed stream ⇒ every node agrees on the
    /// colluding set without coordination.
    adversary: Adversary,
    /// Cluster-shared stream for crash/corruption victim selection; identical
    /// on every node of a cluster (see [`FAULT_SCHEDULE_STREAM`]).
    fault_schedule: StdRng,
    /// Per-node observability configuration; disabled by default. The
    /// spawned runtime owns a private [`TelemetrySink`] built from this,
    /// timestamped via the injected clock.
    telemetry: TelemetryConfig,
}

impl<T: Transport> NodeEnv<T> {
    /// The real deployment environment over `transport`: wall-clock time, a
    /// node-private RNG stream seeded with `seed`, uniform peer sampling and
    /// no injected faults.
    pub fn real(transport: T, seed: u64) -> Self {
        NodeEnv {
            transport,
            clock: Box::new(SystemClock::new()),
            rng: StdRng::seed_from_u64(seed),
            sampler: Box::new(UniformSampler::new()),
            injector: Box::new(PlanInjector::new(FaultPlan::none(), 0)),
            adversary: Adversary::none(),
            fault_schedule: StdRng::seed_from_u64(0),
            telemetry: TelemetryConfig::disabled(),
        }
    }

    /// Enables per-node telemetry: the runtime thread records protocol
    /// events (begun / completed / vetoed / rejected / lost, churn,
    /// corruption) into a private flight recorder, drained through
    /// [`NodeHandle::drain_trace`]. Event sequence numbers are per-node
    /// ordinals — the initiator band counts this node's initiated
    /// exchanges, served pushes count separately — faithful to what one
    /// node can observe of an asynchronous cluster.
    pub fn with_telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = config;
        self
    }

    /// Replaces the clock (e.g. a [`aggregate_core::effects::VirtualClock`]
    /// in tests that step time manually).
    pub fn with_clock(mut self, clock: impl Clock + 'static) -> Self {
        self.clock = Box::new(clock);
        self
    }

    /// Builds the peer-sampling layer from the *same* [`SamplerConfig`] the
    /// simulators take, deriving its internal seeds from the cluster-wide
    /// `seeds` through the same labelled streams — all nodes of a cluster
    /// construct the same overlay.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] when the configuration cannot be realised
    /// (invalid overlay-generator parameters, zero NEWSCAST cache).
    pub fn with_sampler(
        mut self,
        config: SamplerConfig,
        seeds: &SeedSequence,
    ) -> Result<Self, NetError> {
        let mut members = self.transport.peers();
        members.push(self.transport.local_node());
        members.sort();
        self.sampler =
            instantiate_sampler(config, &members, seeds).map_err(|e| NetError::InvalidConfig {
                reason: e.to_string(),
            })?;
        Ok(self)
    }

    /// Arms the fault lab with the *same* [`FaultPlan`] the simulators take,
    /// seeding the injector from the cluster-wide `seeds` through the same
    /// labelled stream — all nodes agree on dead links, partitions, loss
    /// schedules and victim draws.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] for a malformed schedule.
    pub fn with_faults(mut self, plan: FaultPlan, seeds: &SeedSequence) -> Result<Self, NetError> {
        plan.validate().map_err(|e| NetError::InvalidConfig {
            reason: e.to_string(),
        })?;
        self.injector = Box::new(PlanInjector::new(
            plan,
            seeds.seed_for_labeled(0, FAULTS_STREAM),
        ));
        self.fault_schedule = seeds.rng_for_labeled(0, FAULT_SCHEDULE_STREAM);
        Ok(self)
    }

    /// Arms the stateful adversary with the *same* [`AdversaryPlan`] the
    /// simulators take, deriving the colluder coins from the cluster-wide
    /// `seeds` through the same labelled stream over the sorted member list
    /// — every node of a cluster agrees on who is colluding without any
    /// coordination messages, and each colluder re-asserts its lie at every
    /// cycle boundary.
    ///
    /// Leader capture ([`gossip_faults::AttackStrategy::LeaderCapture`]) is
    /// inert here: the live runtime runs no counting-instance elections, so
    /// there are no leaders to capture. The simulators and
    /// [`crate::VirtualCluster`] exercise that half of the lab.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] for a malformed adversary plan.
    pub fn with_adversary(
        mut self,
        plan: AdversaryPlan,
        seeds: &SeedSequence,
    ) -> Result<Self, NetError> {
        plan.validate().map_err(|e| NetError::InvalidConfig {
            reason: e.to_string(),
        })?;
        let mut members = self.transport.peers();
        members.push(self.transport.local_node());
        members.sort();
        self.adversary =
            Adversary::new(plan, seeds.seed_for_labeled(0, ADVERSARY_STREAM), &members);
        Ok(self)
    }
}

/// One node of a deployed gossip network: a dedicated OS thread that runs the
/// active cycle of Figure 1 (wait `Δt`, sample a peer, push) and serves
/// incoming exchanges in between — all node stepping through [`NodeCore`].
#[derive(Debug)]
pub struct GossipRuntime {
    handle: NodeHandle,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl GossipRuntime {
    /// Spawns the runtime thread for one node over the real environment
    /// ([`NodeEnv::real`] with the given seed).
    ///
    /// `transport` must belong to the node (its `local_node` defines the
    /// node's identity); `config.cycle_length_ms()` sets `Δt`.
    pub fn spawn<T: Transport + 'static>(
        transport: T,
        config: ProtocolConfig,
        local_value: f64,
        seed: u64,
    ) -> GossipRuntime {
        GossipRuntime::spawn_env(NodeEnv::real(transport, seed), config, local_value)
    }

    /// Spawns the runtime thread for one node over an explicit environment.
    pub fn spawn_env<T: Transport + 'static>(
        env: NodeEnv<T>,
        config: ProtocolConfig,
        local_value: f64,
    ) -> GossipRuntime {
        let id = env.transport.local_node();
        let node = Arc::new(Mutex::new(NodeCore::new(ProtocolNode::new(
            id,
            config,
            local_value,
        ))));
        let stats = Arc::new(StatsCell::default());
        let telemetry = Arc::new(Mutex::new(TelemetrySink::new(env.telemetry)));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = NodeHandle {
            id,
            node: Arc::clone(&node),
            stats: Arc::clone(&stats),
            telemetry: Arc::clone(&telemetry),
        };
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            run_node_loop(env, node, config, stats, telemetry, &stop_flag);
        });
        GossipRuntime {
            handle,
            stop,
            thread: Some(thread),
        }
    }

    /// A cloneable handle for observing and steering the node.
    pub fn handle(&self) -> NodeHandle {
        self.handle.clone()
    }

    /// Signals the runtime thread to stop and waits for it to finish.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for GossipRuntime {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Mutable per-cycle membership view of one runtime thread.
struct CycleState {
    /// Members not yet killed by a crash burst, in a deterministic order
    /// every node reproduces from the shared fault-schedule stream.
    live_ids: Vec<NodeId>,
    /// Whether a crash burst killed *this* node (it then goes silent).
    crashed: bool,
    /// This cycle's message-loss probability.
    loss: f64,
}

fn run_node_loop<T: Transport>(
    mut env: NodeEnv<T>,
    node: Arc<Mutex<NodeCore>>,
    config: ProtocolConfig,
    stats: Arc<StatsCell>,
    telemetry: Arc<Mutex<TelemetrySink>>,
    stop: &AtomicBool,
) {
    // Cached once: with telemetry disabled every hook below is one branch.
    let events = lock(&telemetry).events_enabled();
    // Per-node event ordinals: initiated exchanges and served pushes count
    // separately (an asynchronous node cannot know its peers' numbering).
    let mut init_seq: u64 = 0;
    let mut serve_seq: u64 = 0;
    let local = env.transport.local_node();
    let cycle_length = config.cycle_length_ms().max(1);
    let mut members = env.transport.peers();
    members.push(local);
    members.sort();
    let mut state = CycleState {
        live_ids: members,
        crashed: false,
        loss: 0.0,
    };
    let mut cycle: usize = 0;
    let mut pushes: Vec<GossipMessage> = Vec::new();
    // Replies land within a network round-trip; once a pending exchange has
    // outlived this deadline its replies were lost or the push was rejected,
    // and the node must close it early and resume answering pushes. Holding
    // the pending slot to the cycle boundary instead lets rejections cascade:
    // every push the stuck node rejects strands another initiator, and a
    // fault-free symmetric cluster can livelock with nobody completing.
    let reply_timeout = (cycle_length / 4).max(2);
    let mut reply_deadline = u64::MAX;

    // Enter cycle 0 (fault + overlay bookkeeping) without initiating yet:
    // the random initial phase staggers the first active exchanges so nodes
    // do not fire in lock-step.
    if events {
        lock(&telemetry).begin_cycle(0, env.clock.now_ms());
    }
    enter_cycle(
        &mut env, cycle, &mut state, &node, local, &telemetry, events,
    );
    let mut next_cycle =
        env.clock.now_ms() + (cycle_length as f64 * env.rng.gen_range(0.0..1.0)) as u64;

    while !stop.load(Ordering::SeqCst) {
        // Serve incoming exchanges until the next cycle boundary.
        let now = env.clock.now_ms();
        if now < next_cycle {
            if now >= reply_deadline {
                match lock(&node).close_pending() {
                    Some(true) => {
                        StatsCell::bump(&stats.exchanges_completed);
                        if events {
                            lock(&telemetry).exchange_completed(init_seq.wrapping_sub(1));
                        }
                    }
                    Some(false) => StatsCell::bump(&stats.exchanges_timed_out),
                    None => {}
                }
                reply_deadline = u64::MAX;
            }
            let wait = Duration::from_millis((next_cycle - now).min(1));
            match env.transport.recv_timeout(wait) {
                Ok(Some(message)) => {
                    if !state.crashed {
                        serve(
                            &mut env,
                            &node,
                            &state,
                            message,
                            &stats,
                            ServeTelemetry {
                                sink: &telemetry,
                                events,
                                serve_seq: &mut serve_seq,
                                init_seq,
                                local,
                            },
                        );
                    }
                }
                Ok(None) => {}
                Err(NetError::Decode { .. }) => StatsCell::bump(&stats.decode_errors),
                Err(_) => {
                    // Transport failure: count it, back off briefly, keep
                    // serving; the protocol tolerates lost exchanges.
                    StatsCell::bump(&stats.recv_errors);
                    env.clock.advance(1);
                }
            }
            continue;
        }

        // Cycle boundary: settle the in-flight exchange, advance the epoch
        // machinery, enter the next cycle and run the active half.
        let epoch_restart = {
            let mut core = lock(&node);
            match core.close_pending() {
                Some(true) => {
                    StatsCell::bump(&stats.exchanges_completed);
                    if events {
                        lock(&telemetry).exchange_completed(init_seq.wrapping_sub(1));
                    }
                }
                Some(false) => StatsCell::bump(&stats.exchanges_timed_out),
                None => {}
            }
            if !state.crashed {
                core.end_cycle().map(|result| result.epoch)
            } else {
                None
            }
        };
        if events {
            if let Some(epoch) = epoch_restart {
                lock(&telemetry).epoch_restarted(epoch);
            }
        }
        cycle += 1;
        StatsCell::bump(&stats.cycles_run);
        if events {
            lock(&telemetry).begin_cycle(cycle as u64, env.clock.now_ms());
        }
        enter_cycle(
            &mut env, cycle, &mut state, &node, local, &telemetry, events,
        );
        if !state.crashed {
            initiate(
                &mut env,
                &node,
                &state,
                &mut pushes,
                local,
                &stats,
                &telemetry,
                events,
                &mut init_seq,
            );
        }
        reply_deadline = if lock(&node).is_pending() {
            env.clock.now_ms().saturating_add(reply_timeout)
        } else {
            u64::MAX
        };
        next_cycle = next_cycle.saturating_add(cycle_length);
    }
}

/// Per-cycle fault-lab and overlay bookkeeping, identical on every node:
/// crash bursts and value corruptions are drawn from streams every node
/// shares, so the cluster agrees on victims without coordination.
#[allow(clippy::too_many_arguments)]
fn enter_cycle<T: Transport>(
    env: &mut NodeEnv<T>,
    cycle: usize,
    state: &mut CycleState,
    node: &Mutex<NodeCore>,
    local: NodeId,
    telemetry: &Mutex<TelemetrySink>,
    events: bool,
) {
    env.injector.begin_cycle(cycle);
    let victims = env.injector.crash_count(state.live_ids.len());
    for _ in 0..victims {
        if state.live_ids.is_empty() {
            break;
        }
        let k = env.fault_schedule.gen_range(0..state.live_ids.len());
        let victim = state.live_ids.swap_remove(k);
        env.sampler.on_depart(victim);
        if victim == local {
            state.crashed = true;
            // Each node's trace records only its own crash; merging per-node
            // traces therefore yields one departure event per victim.
            if events {
                lock(telemetry).node_departed(u64::from(local.as_u32()));
            }
        }
    }
    // The stateful adversary next, in the simulators' order: a colluding
    // node re-asserts its lie every cycle, and the one-shot ValueInjection
    // never double-corrupts a node the adversary is actively lying through.
    if env.adversary.is_colluder(local) {
        if let Some(value) = env.adversary.lie_at(cycle) {
            lock(node).corrupt_estimate(value);
            if events {
                lock(telemetry).value_corrupted(u64::from(local.as_u32()));
            }
        }
    }
    for (pos, value) in env.injector.corruptions(state.live_ids.len()) {
        if state.live_ids.get(pos) == Some(&local)
            && !env.adversary.overrides_injection(cycle, local)
        {
            lock(node).corrupt_estimate(value);
            if events {
                lock(telemetry).value_corrupted(u64::from(local.as_u32()));
            }
        }
    }
    state.loss = env.injector.loss_probability();
    env.sampler
        .begin_cycle(&SliceDirectory::new(&state.live_ids));
}

/// The active half of Figure 1: sample a peer, let the fault lab veto the
/// contact, otherwise begin the exchange through the core and ship the
/// pushes (each through the loss gate).
#[allow(clippy::too_many_arguments)]
fn initiate<T: Transport>(
    env: &mut NodeEnv<T>,
    node: &Mutex<NodeCore>,
    state: &CycleState,
    pushes: &mut Vec<GossipMessage>,
    local: NodeId,
    stats: &StatsCell,
    telemetry: &Mutex<TelemetrySink>,
    events: bool,
    init_seq: &mut u64,
) {
    let Some(self_pos) = state.live_ids.iter().position(|&id| id == local) else {
        return;
    };
    let directory = SliceDirectory::new(&state.live_ids);
    let Some(peer) = sample_live_peer(env.sampler.as_mut(), &directory, self_pos, &mut env.rng)
    else {
        return;
    };
    if env.injector.link_blocked(local, peer) {
        env.sampler.peer_failed(local, peer);
        StatsCell::bump(&stats.exchanges_vetoed);
        if events {
            lock(telemetry).exchange_vetoed(u64::from(local.as_u32()), u64::from(peer.as_u32()));
        }
        return;
    }
    if !lock(node).begin(peer, pushes) {
        return;
    }
    StatsCell::bump(&stats.exchanges_started);
    let seq = *init_seq;
    *init_seq += 1;
    if events {
        lock(telemetry).exchange_begun(seq, u64::from(local.as_u32()), u64::from(peer.as_u32()));
    }
    for push in pushes.iter() {
        if state.loss > 0.0 && env.rng.gen_bool(state.loss) {
            StatsCell::bump(&stats.messages_lost);
            if events {
                lock(telemetry).message_lost(seq);
            }
            continue;
        }
        if env.transport.send(push).is_err() {
            StatsCell::bump(&stats.send_errors);
        }
    }
}

/// The passive half: deliver one received message through the core and send
/// back the reply it owes, if any (through the loss gate).
/// Telemetry context for [`serve`]: the shared sink plus the two per-node
/// ordinal streams (served pushes get fresh ordinals; a completing reply is
/// attributed to the most recent initiated exchange).
struct ServeTelemetry<'a> {
    sink: &'a Mutex<TelemetrySink>,
    events: bool,
    serve_seq: &'a mut u64,
    init_seq: u64,
    local: NodeId,
}

fn serve<T: Transport>(
    env: &mut NodeEnv<T>,
    node: &Mutex<NodeCore>,
    state: &CycleState,
    message: GossipMessage,
    stats: &StatsCell,
    telemetry: ServeTelemetry<'_>,
) {
    match lock(node).deliver(message) {
        Delivery::Reply(reply) => {
            let seq = *telemetry.serve_seq;
            *telemetry.serve_seq += 1;
            if state.loss > 0.0 && env.rng.gen_bool(state.loss) {
                StatsCell::bump(&stats.messages_lost);
                if telemetry.events {
                    lock(telemetry.sink).message_lost(seq);
                }
            } else if env.transport.send(&reply).is_err() {
                StatsCell::bump(&stats.send_errors);
            }
        }
        Delivery::ExchangeComplete => {
            StatsCell::bump(&stats.exchanges_completed);
            if telemetry.events {
                lock(telemetry.sink).exchange_completed(telemetry.init_seq.wrapping_sub(1));
            }
        }
        Delivery::RejectedOverlap => {
            StatsCell::bump(&stats.pushes_rejected);
            if telemetry.events {
                let seq = *telemetry.serve_seq;
                *telemetry.serve_seq += 1;
                lock(telemetry.sink).exchange_rejected(seq, u64::from(telemetry.local.as_u32()));
            }
        }
        Delivery::RejectedNonFinite => StatsCell::bump(&stats.non_finite_rejected),
        Delivery::Absorbed | Delivery::ReplyAbsorbed | Delivery::UnmatchedReply => {}
    }
}

/// Configuration of a [`GossipCluster`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Cycle length `Δt` in milliseconds.
    pub cycle_length_ms: u64,
    /// Number of cycles to let the cluster run before reading the estimates.
    pub cycles: u32,
}

/// Result of a [`GossipCluster`] run: final per-node estimates plus the
/// summed runtime counters of every node.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Each node's final estimate, in node order.
    pub estimates: Vec<f64>,
    /// The cluster-wide sum of every node's [`RuntimeStats`].
    pub stats: RuntimeStats,
}

/// Convenience driver that runs a whole gossip network inside one process.
#[derive(Debug)]
pub struct GossipCluster;

impl GossipCluster {
    /// Runs `values.len()` nodes over the in-memory transport for
    /// `config.cycles` cycles of averaging — uniform sampling, no faults —
    /// and returns each node's final estimate plus the summed counters.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] for empty inputs or a zero cycle
    /// length.
    pub fn run_in_memory(values: &[f64], config: ClusterConfig) -> Result<ClusterReport, NetError> {
        GossipCluster::run_with(
            values,
            config,
            SamplerConfig::UniformComplete,
            FaultPlan::none(),
        )
    }

    /// Runs the in-memory cluster with the simulator-grade knobs: any
    /// [`SamplerConfig`] and any [`FaultPlan`], taken *unchanged* — the same
    /// values a [`gossip_sim::GossipSimulation`] accepts.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] for empty inputs, a zero cycle
    /// length, an unrealisable sampler configuration or a malformed fault
    /// plan.
    pub fn run_with(
        values: &[f64],
        config: ClusterConfig,
        sampler: SamplerConfig,
        plan: FaultPlan,
    ) -> Result<ClusterReport, NetError> {
        if values.is_empty() {
            return Err(NetError::InvalidConfig {
                reason: "at least one node is required".to_string(),
            });
        }
        if config.cycle_length_ms == 0 || config.cycles == 0 {
            return Err(NetError::InvalidConfig {
                reason: "cycle length and cycle count must be positive".to_string(),
            });
        }
        let protocol = ProtocolConfig::builder()
            .cycle_length_ms(config.cycle_length_ms)
            // One long epoch: the cluster helper measures raw convergence.
            .cycles_per_epoch(config.cycles.saturating_mul(10).max(1))
            .build()
            .map_err(|e| NetError::InvalidConfig {
                reason: e.to_string(),
            })?;

        let seeds = SeedSequence::new(1_000);
        let endpoints = InMemoryNetwork::create(values.len());
        let runtimes: Vec<GossipRuntime> = endpoints
            .into_iter()
            .zip(values.iter())
            .enumerate()
            .map(|(i, (endpoint, &value))| {
                let env = NodeEnv::real(endpoint, seeds.seed_for_run(i as u64))
                    .with_sampler(sampler, &seeds)?
                    .with_faults(plan.clone(), &seeds)?;
                Ok(GossipRuntime::spawn_env(env, protocol, value))
            })
            .collect::<Result<_, NetError>>()?;

        // Wait on protocol progress, not wall-clock guesses: the nominal run
        // time assumes the node threads are scheduled promptly, which a
        // loaded machine (e.g. a parallel test run) does not guarantee. Keep
        // waiting until every node has crossed `cycles` cycle boundaries,
        // bounded by a generous deadline.
        let nominal = Duration::from_millis(config.cycle_length_ms * u64::from(config.cycles) + 50);
        std::thread::sleep(nominal);
        // lint-allow(nondeterminism): live-runtime liveness deadline; protocol state never reads it
        let deadline = Instant::now() + nominal.saturating_mul(10) + Duration::from_secs(2);
        // lint-allow(nondeterminism): live-runtime liveness deadline; protocol state never reads it
        while Instant::now() < deadline {
            let slowest = runtimes
                .iter()
                .map(|runtime| runtime.handle().stats().cycles_run)
                .min()
                .unwrap_or(0);
            if slowest >= u64::from(config.cycles) {
                break;
            }
            std::thread::sleep(Duration::from_millis(config.cycle_length_ms.clamp(1, 20)));
        }

        let estimates: Vec<f64> = runtimes
            .iter()
            .map(|runtime| runtime.handle().estimate().unwrap_or(f64::NAN))
            .collect();
        let mut stats = RuntimeStats::default();
        for runtime in &runtimes {
            stats.merge(runtime.handle().stats());
        }
        for runtime in runtimes {
            runtime.shutdown();
        }
        Ok(ClusterReport { estimates, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_converges_and_conserves_the_sum() {
        // With overlapping pushes rejected through the core's message path,
        // the only non-conserving events left are replies still in flight at
        // the readout — so the cluster-wide sum must track the true sum
        // tightly (the old runtime needed a 15% accuracy bar here).
        let values = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0];
        let true_mean = values.iter().sum::<f64>() / values.len() as f64;
        let true_sum: f64 = values.iter().sum();
        let report = GossipCluster::run_in_memory(
            &values,
            ClusterConfig {
                cycle_length_ms: 5,
                cycles: 40,
            },
        )
        .unwrap();
        assert_eq!(report.estimates.len(), values.len());
        for estimate in &report.estimates {
            assert!(
                (estimate - true_mean).abs() < 0.05 * true_mean,
                "estimate {estimate} should be within 5% of {true_mean}"
            );
        }
        let min = report
            .estimates
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = report
            .estimates
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max - min < 2.0,
            "estimates must agree with each other, spread {}",
            max - min
        );
        let sum: f64 = report.estimates.iter().sum();
        assert!(
            (sum - true_sum).abs() < 0.01 * true_sum,
            "mass conservation: sum {sum} must track {true_sum}"
        );
        assert!(report.stats.exchanges_started > 0);
        assert!(report.stats.exchanges_completed > 0);
        assert_eq!(report.stats.exchanges_vetoed, 0);
        assert_eq!(report.stats.messages_lost, 0);
        assert_eq!(report.stats.decode_errors, 0);
    }

    #[test]
    fn invalid_cluster_configurations_are_rejected() {
        assert!(GossipCluster::run_in_memory(
            &[],
            ClusterConfig {
                cycle_length_ms: 5,
                cycles: 10
            }
        )
        .is_err());
        assert!(GossipCluster::run_in_memory(
            &[1.0],
            ClusterConfig {
                cycle_length_ms: 0,
                cycles: 10
            }
        )
        .is_err());
        assert!(GossipCluster::run_in_memory(
            &[1.0],
            ClusterConfig {
                cycle_length_ms: 5,
                cycles: 0
            }
        )
        .is_err());
        // Simulator-grade knob validation surfaces through the same path.
        let config = ClusterConfig {
            cycle_length_ms: 5,
            cycles: 10,
        };
        assert!(GossipCluster::run_with(
            &[1.0, 2.0],
            config,
            SamplerConfig::Newscast { cache_size: 0 },
            FaultPlan::none(),
        )
        .is_err());
        assert!(GossipCluster::run_with(
            &[1.0, 2.0],
            config,
            SamplerConfig::UniformComplete,
            FaultPlan::with_link_failure(1.5),
        )
        .is_err());
    }

    #[test]
    fn simulator_fault_plan_and_sampler_plug_into_the_live_cluster() {
        // The exact values a GossipSimulation takes — a NEWSCAST sampler
        // config and a FaultPlan with loss and dead links — drive the live
        // threaded cluster unchanged, and the typed counters surface the
        // injected failures.
        let values: Vec<f64> = (0..8).map(|i| 10.0 * i as f64).collect();
        let true_mean = values.iter().sum::<f64>() / values.len() as f64;
        let plan = FaultPlan {
            link_failure: 0.1,
            ..FaultPlan::with_message_loss(0.05)
        };
        let report = GossipCluster::run_with(
            &values,
            ClusterConfig {
                cycle_length_ms: 5,
                cycles: 60,
            },
            SamplerConfig::newscast(),
            plan,
        )
        .unwrap();
        assert!(
            report.stats.messages_lost > 0 || report.stats.exchanges_vetoed > 0,
            "the fault lab must visibly act on the live path: {:?}",
            report.stats
        );
        // Faults slow convergence but must not prevent consensus.
        let min = report
            .estimates
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = report
            .estimates
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max - min < 0.5 * true_mean,
            "estimates must still contract under faults, spread {}",
            max - min
        );
    }

    #[test]
    fn node_handle_exposes_state_counters_and_accepts_value_updates() {
        let endpoints = InMemoryNetwork::create(2);
        let mut endpoints = endpoints.into_iter();
        let config = ProtocolConfig::builder()
            .cycle_length_ms(5)
            .cycles_per_epoch(1_000)
            .build()
            .unwrap();
        let a = GossipRuntime::spawn(endpoints.next().unwrap(), config, 4.0, 1);
        let b = GossipRuntime::spawn(endpoints.next().unwrap(), config, 8.0, 2);
        let handle = a.handle();
        assert_eq!(handle.id(), NodeId::new(0));
        std::thread::sleep(Duration::from_millis(100));
        let estimate = handle.estimate().unwrap();
        assert!((estimate - 6.0).abs() < 1.0, "estimate {estimate}");
        assert_eq!(handle.current_epoch(), 0);
        let stats = handle.stats();
        assert!(stats.exchanges_started > 0, "{stats:?}");
        assert!(stats.exchanges_completed > 0, "{stats:?}");
        assert_eq!(stats.decode_errors, 0);
        handle.set_local_value(10.0);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn shutdown_via_drop_does_not_hang() {
        let endpoints = InMemoryNetwork::create(2);
        let config = ProtocolConfig::builder()
            .cycle_length_ms(2)
            .cycles_per_epoch(1_000)
            .build()
            .unwrap();
        let runtimes: Vec<GossipRuntime> = endpoints
            .into_iter()
            .map(|e| GossipRuntime::spawn(e, config, 1.0, 7))
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        drop(runtimes);
    }

    #[test]
    fn recv_failures_are_counted_not_swallowed() {
        // A transport whose receive path yields decode errors: the runtime
        // must keep running and surface the failures through the counters.
        #[derive(Debug)]
        struct FlakyTransport {
            inner: InMemoryNetwork,
            polls: std::sync::atomic::AtomicU64,
        }
        impl Transport for FlakyTransport {
            fn local_node(&self) -> NodeId {
                self.inner.local_node()
            }
            fn peers(&self) -> Vec<NodeId> {
                self.inner.peers()
            }
            fn send(&self, message: &GossipMessage) -> Result<(), NetError> {
                self.inner.send(message)
            }
            fn recv_timeout(&self, timeout: Duration) -> Result<Option<GossipMessage>, NetError> {
                let n = self.polls.fetch_add(1, Ordering::Relaxed);
                if n % 7 == 3 {
                    return Err(NetError::Decode {
                        reason: "corrupt frame".to_string(),
                    });
                }
                self.inner.recv_timeout(timeout)
            }
        }
        let mut endpoints = InMemoryNetwork::create(2).into_iter();
        let config = ProtocolConfig::builder()
            .cycle_length_ms(5)
            .cycles_per_epoch(1_000)
            .build()
            .unwrap();
        let flaky = FlakyTransport {
            inner: endpoints.next().unwrap(),
            polls: std::sync::atomic::AtomicU64::new(0),
        };
        let a = GossipRuntime::spawn(flaky, config, 4.0, 1);
        let b = GossipRuntime::spawn(endpoints.next().unwrap(), config, 8.0, 2);
        std::thread::sleep(Duration::from_millis(100));
        let stats = a.handle().stats();
        assert!(stats.decode_errors > 0, "{stats:?}");
        // The protocol keeps converging around the failures.
        let estimate = a.handle().estimate().unwrap();
        assert!((estimate - 6.0).abs() < 2.0, "estimate {estimate}");
        a.shutdown();
        b.shutdown();
    }
}
