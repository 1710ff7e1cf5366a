//! Event-driven (asynchronous) simulation engine.
//!
//! The paper's theoretical model assumes synchronised cycles, but the protocol
//! itself is asynchronous: "each node is autonomous" and only needs a local
//! clock. This engine drops the cycle synchronisation entirely — every node
//! wakes up at its own jittered interval (or after an exponentially
//! distributed waiting time, the natural realisation of `GETPAIR_RAND`) and
//! messages take a configurable transmission delay. It is used to validate
//! that convergence per *unit time* matches the cycle-based prediction even
//! without synchronised starts, supporting the paper's claim that the
//! synchronisation assumption can be relaxed.

use crate::sampling::{instantiate_sampler, FAULTS_STREAM};
use crate::SeedSequence;
use aggregate_core::node::ProtocolNode;
use aggregate_core::sampler::{sample_live_peer, PeerSampler, SamplerConfig, SamplerDirectory};
use aggregate_core::{ExchangeCore, GossipMessage, ProtocolConfig};
use gossip_faults::{FaultInjector, FaultPlan, PlanInjector};
use overlay_topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// A parameter of [`AsyncConfig`] or [`WakeupDistribution`] that would break
/// the event queue: negative, zero (where forbidden), NaN or infinite values
/// schedule events backwards in time or at times that defeat the queue's
/// ordering (NaN compares as `Equal` in the internal event queue).
#[derive(Debug, Clone, PartialEq)]
pub enum AsyncConfigError {
    /// `message_latency` is negative, NaN or infinite.
    InvalidLatency {
        /// The rejected latency value.
        value: f64,
    },
    /// A wakeup-distribution parameter is non-positive, NaN or infinite.
    InvalidWakeup {
        /// Which parameter was rejected (`"period"` or `"mean"`).
        parameter: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The peer-sampling configuration cannot be realised (invalid overlay
    /// generator parameters, zero NEWSCAST cache, unknown variant).
    Sampler {
        /// Human-readable rejection reason.
        reason: String,
    },
    /// The fault schedule is malformed (a probability out of range, an
    /// empty partition window, a reversed loss ramp, …).
    Faults {
        /// Human-readable rejection reason.
        reason: String,
    },
}

impl fmt::Display for AsyncConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsyncConfigError::InvalidLatency { value } => {
                write!(f, "message latency {value} must be finite and ≥ 0")
            }
            AsyncConfigError::InvalidWakeup { parameter, value } => {
                write!(f, "wakeup {parameter} {value} must be finite and > 0")
            }
            AsyncConfigError::Sampler { reason } => {
                write!(f, "peer-sampling configuration rejected: {reason}")
            }
            AsyncConfigError::Faults { reason } => {
                write!(f, "fault schedule rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for AsyncConfigError {}

/// How a node chooses the waiting time between its own exchange initiations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WakeupDistribution {
    /// Fixed period with a uniformly random initial phase — the paper's
    /// `GETWAITINGTIME` returning the constant `Δt`, desynchronised across
    /// nodes because there is no common start signal.
    FixedPeriod {
        /// The cycle length `Δt` in simulated time units.
        period: f64,
    },
    /// Exponentially distributed waiting times with the given mean — the
    /// randomised `GETWAITINGTIME` the paper mentions for `GETPAIR_RAND`.
    Exponential {
        /// Mean waiting time in simulated time units.
        mean: f64,
    },
}

impl WakeupDistribution {
    /// Validates the distribution parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AsyncConfigError::InvalidWakeup`] when the period or mean is
    /// non-positive, NaN or infinite — any of which would schedule wakeups
    /// backwards in time or break the event queue's ordering.
    pub fn validate(&self) -> Result<(), AsyncConfigError> {
        let (parameter, value) = match *self {
            WakeupDistribution::FixedPeriod { period } => ("period", period),
            WakeupDistribution::Exponential { mean } => ("mean", mean),
        };
        if !value.is_finite() || value <= 0.0 {
            return Err(AsyncConfigError::InvalidWakeup { parameter, value });
        }
        Ok(())
    }

    fn first_wakeup<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            WakeupDistribution::FixedPeriod { period } => rng.gen_range(0.0..period),
            WakeupDistribution::Exponential { mean } => sample_exponential(mean, rng),
        }
    }

    fn next_wakeup<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            WakeupDistribution::FixedPeriod { period } => period,
            WakeupDistribution::Exponential { mean } => sample_exponential(mean, rng),
        }
    }

    /// The span of simulated time that plays the role of one protocol cycle
    /// (each node wakes once per such span in expectation). The fault lab
    /// and the overlay-maintenance clock both advance on this grid, mapping
    /// the cycle-indexed [`FaultPlan`] onto continuous time.
    pub fn cycle_duration(&self) -> f64 {
        match *self {
            WakeupDistribution::FixedPeriod { period } => period,
            WakeupDistribution::Exponential { mean } => mean,
        }
    }
}

fn sample_exponential<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

/// Smallest `k ≥ 1` whose grid point `k * interval` lies strictly after
/// `now` — *as computed in floating point*, which is how the sampling loop
/// will compare it. The division only seeds the search; the `while` guards
/// correct for rounding in either direction so a resumed run neither
/// re-emits the previous call's last grid point nor skips one.
fn first_sample_index_after(now: f64, interval: f64) -> u64 {
    let mut k = ((now / interval).floor().max(0.0) as u64).saturating_add(1);
    while k > 1 && (k - 1) as f64 * interval > now {
        k -= 1;
    }
    while k as f64 * interval <= now {
        k += 1;
    }
    k
}

/// Configuration of the asynchronous engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncConfig {
    /// Per-node protocol configuration (epoch machinery is driven by wakeup
    /// counts, one wakeup playing the role of one local cycle).
    pub protocol: ProtocolConfig,
    /// Distribution of the waiting time between a node's initiations.
    pub wakeup: WakeupDistribution,
    /// One-way message latency in simulated time units (applied to pushes and
    /// replies independently).
    pub message_latency: f64,
    /// The peer-sampling layer exchange partners are drawn from, exactly as
    /// in the cycle engines: uniform-complete (the default, bit-identical to
    /// the engine's historical uniform pick loop), a static overlay, or a
    /// live NEWSCAST membership whose view exchanges run once per
    /// cycle-equivalent of simulated time (the wakeup period, or the mean
    /// waiting time for exponential wakeups).
    pub sampler: SamplerConfig,
}

impl AsyncConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AsyncConfigError`] when the message latency is negative, NaN
    /// or infinite, or the wakeup distribution's parameters are invalid.
    pub fn validate(&self) -> Result<(), AsyncConfigError> {
        if !self.message_latency.is_finite() || self.message_latency < 0.0 {
            return Err(AsyncConfigError::InvalidLatency {
                value: self.message_latency,
            });
        }
        self.wakeup.validate()
    }
}

/// A snapshot of the network state taken by [`AsyncSimulation::run_until`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSample {
    /// Simulated time of the snapshot.
    pub time: f64,
    /// Variance of the estimates across nodes.
    pub variance: f64,
    /// Mean of the estimates across nodes.
    pub mean: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Wakeup(NodeId),
    Deliver(GossipMessage),
}

/// Entry of the event queue, ordered by time (earliest first via `Reverse`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct QueuedEvent {
    time: f64,
    sequence: u64,
    event: Event,
}

impl Eq for QueuedEvent {}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.sequence.cmp(&other.sequence))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The async engine's [`SamplerDirectory`]: positions enumerate the dense
/// live list (node-index order until the first crash perturbs it), liveness
/// is one array lookup.
#[derive(Debug, Clone, Copy)]
struct AsyncDirectory<'a> {
    live: &'a [u32],
    pos_of: &'a [u32],
}

impl SamplerDirectory for AsyncDirectory<'_> {
    fn len(&self) -> usize {
        self.live.len()
    }

    fn id_at(&self, pos: usize) -> NodeId {
        NodeId::new(self.live[pos] as usize)
    }

    fn is_live(&self, id: NodeId) -> bool {
        self.pos_of
            .get(id.index())
            .is_some_and(|&pos| pos != u32::MAX)
    }
}

/// Event-driven simulation of the asynchronous protocol.
#[derive(Debug)]
pub struct AsyncSimulation {
    config: AsyncConfig,
    nodes: Vec<ProtocolNode>,
    /// Dense list of live node indices (swap-remove on crash).
    live: Vec<u32>,
    /// Per node index: its position in `live`, or `u32::MAX` once crashed.
    pos_of: Vec<u32>,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    now: f64,
    sequence: u64,
    rng: StdRng,
    sampler: Box<dyn PeerSampler>,
    /// The fault lab, advanced on the wakeup-period grid: simulated time
    /// `[c·Δt, (c+1)·Δt)` maps to plan cycle `c`.
    injector: Box<dyn FaultInjector>,
    fault_cycle: usize,
    cycle_duration: f64,
    scratch: Vec<GossipMessage>,
}

impl AsyncSimulation {
    /// Creates the simulation with one node per initial value; every node gets
    /// a randomly phased first wakeup so there is no global synchronisation.
    ///
    /// # Errors
    ///
    /// Returns [`AsyncConfigError`] when the configuration's latency or
    /// wakeup parameters are invalid (negative, zero where forbidden, NaN or
    /// infinite) — accepted, they would corrupt the event-queue ordering —
    /// or when the peer-sampling configuration cannot be realised.
    pub fn new(
        config: AsyncConfig,
        initial_values: &[f64],
        seed: u64,
    ) -> Result<Self, AsyncConfigError> {
        AsyncSimulation::with_faults(config, initial_values, seed, FaultPlan::none())
    }

    /// Creates the simulation executing the given [`FaultPlan`]: losses hit
    /// in-flight messages, link failures and partitions veto contact
    /// attempts at wakeup time, crash bursts silence nodes for good and
    /// value injections corrupt running estimates. The plan's cycle index
    /// maps onto simulated time through
    /// [`WakeupDistribution::cycle_duration`]. With [`FaultPlan::none`] this
    /// is exactly [`AsyncSimulation::new`], bit for bit.
    ///
    /// # Errors
    ///
    /// Everything [`AsyncSimulation::new`] rejects, plus
    /// [`AsyncConfigError::Faults`] for a malformed schedule.
    pub fn with_faults(
        config: AsyncConfig,
        initial_values: &[f64],
        seed: u64,
        plan: FaultPlan,
    ) -> Result<Self, AsyncConfigError> {
        config.validate()?;
        plan.validate().map_err(|e| AsyncConfigError::Faults {
            reason: e.to_string(),
        })?;
        let nodes: Vec<ProtocolNode> = initial_values
            .iter()
            .enumerate()
            .map(|(i, &v)| ProtocolNode::new(NodeId::new(i), config.protocol, v))
            .collect();
        let initial_ids: Vec<NodeId> = (0..nodes.len()).map(NodeId::new).collect();
        // Sampler and fault randomness come from labelled streams of the
        // master seed; the engine's own schedule RNG keeps its historical
        // direct seeding, so default-configuration runs reproduce the
        // pre-sampler trajectories bit for bit.
        let seeds = SeedSequence::new(seed);
        let sampler = instantiate_sampler(config.sampler, &initial_ids, &seeds).map_err(|e| {
            AsyncConfigError::Sampler {
                reason: e.to_string(),
            }
        })?;
        let injector = Box::new(PlanInjector::new(
            plan,
            seeds.seed_for_labeled(0, FAULTS_STREAM),
        ));
        let n = nodes.len();
        let mut sim = AsyncSimulation {
            cycle_duration: config.wakeup.cycle_duration(),
            config,
            nodes,
            live: (0..n as u32).collect(),
            pos_of: (0..n as u32).collect(),
            queue: BinaryHeap::new(),
            now: 0.0,
            sequence: 0,
            rng: StdRng::seed_from_u64(seed),
            sampler,
            injector,
            fault_cycle: 0,
            scratch: Vec::new(),
        };
        sim.enter_fault_cycle(0);
        for i in 0..sim.nodes.len() {
            let t = sim.config.wakeup.first_wakeup(&mut sim.rng);
            sim.schedule(t, Event::Wakeup(NodeId::new(i)));
        }
        Ok(sim)
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of nodes that have not crashed.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Whether `id` is live (present and not crashed).
    pub fn is_live(&self, id: NodeId) -> bool {
        self.pos_of
            .get(id.index())
            .is_some_and(|&pos| pos != u32::MAX)
    }

    /// Current estimates of all live nodes (crashed nodes are excluded; the
    /// order is the dense live order, which equals node order until the
    /// first crash).
    pub fn estimates(&self) -> Vec<f64> {
        self.live
            .iter()
            .filter_map(|&i| self.nodes[i as usize].estimate())
            .collect()
    }

    /// Crashes the node at `pos` of the live list: it stops waking up,
    /// in-flight messages to it are dropped on delivery, and the sampler is
    /// notified exactly as under churn.
    fn crash_at_position(&mut self, pos: usize) {
        let idx = self.live.swap_remove(pos);
        self.pos_of[idx as usize] = u32::MAX;
        if pos < self.live.len() {
            let moved = self.live[pos];
            self.pos_of[moved as usize] = pos as u32;
        }
        self.sampler.on_depart(NodeId::new(idx as usize));
    }

    /// Enters plan cycle `cycle`: fires crash bursts (victims from the
    /// engine RNG, as in the cycle engines), applies value injections, and
    /// runs one round of overlay maintenance. Free under the empty plan
    /// with uniform sampling.
    fn enter_fault_cycle(&mut self, cycle: usize) {
        self.fault_cycle = cycle;
        self.injector.begin_cycle(cycle);
        let crash_victims = self.injector.crash_count(self.live.len());
        for _ in 0..crash_victims {
            if self.live.is_empty() {
                break;
            }
            let pos = self.rng.gen_range(0..self.live.len());
            self.crash_at_position(pos);
        }
        for (pos, value) in self.injector.corruptions(self.live.len()) {
            let idx = self.live[pos] as usize;
            self.nodes[idx].corrupt_estimate(value);
        }
        let AsyncSimulation {
            sampler,
            live,
            pos_of,
            ..
        } = self;
        sampler.begin_cycle(&AsyncDirectory { live, pos_of });
    }

    /// Advances the fault-lab clock to cover `time`: every wakeup-period
    /// boundary crossed enters the next plan cycle.
    fn advance_fault_cycles(&mut self, time: f64) {
        while (self.fault_cycle + 1) as f64 * self.cycle_duration <= time {
            let next = self.fault_cycle + 1;
            self.enter_fault_cycle(next);
        }
    }

    /// Runs the simulation until `end_time`, taking a [`TimeSample`] every
    /// `sample_interval` time units.
    ///
    /// The call is resumable: a second invocation continues from the current
    /// [`AsyncSimulation::now`], and sampling restarts at the first grid
    /// point `k * sample_interval` *after* `now` rather than flooding the
    /// caller with stale samples for already-elapsed times. Sample times are
    /// always computed as `k * sample_interval` (never by accumulation), so
    /// a run split across calls lands on bit-identical grid points to an
    /// uninterrupted one even for intervals that are not exactly
    /// representable in floating point.
    ///
    /// # Panics
    ///
    /// Panics when `sample_interval` is not finite and positive (it would
    /// loop forever otherwise).
    pub fn run_until(&mut self, end_time: f64, sample_interval: f64) -> Vec<TimeSample> {
        assert!(
            sample_interval.is_finite() && sample_interval > 0.0,
            "sample interval {sample_interval} must be finite and > 0"
        );
        let mut samples = Vec::new();
        let mut sample_index = first_sample_index_after(self.now, sample_interval);
        let mut next_sample = sample_index as f64 * sample_interval;
        while let Some(Reverse(entry)) = self.queue.peek().copied() {
            if entry.time > end_time {
                break;
            }
            self.queue.pop();
            while entry.time >= next_sample && next_sample <= end_time {
                samples.push(self.sample(next_sample));
                sample_index += 1;
                next_sample = sample_index as f64 * sample_interval;
            }
            self.now = entry.time;
            self.advance_fault_cycles(entry.time);
            self.dispatch(entry.event);
        }
        while next_sample <= end_time {
            samples.push(self.sample(next_sample));
            sample_index += 1;
            next_sample = sample_index as f64 * sample_interval;
        }
        self.now = end_time;
        samples
    }

    fn sample(&self, time: f64) -> TimeSample {
        let estimates = self.estimates();
        TimeSample {
            time,
            variance: aggregate_core::avg::variance(&estimates),
            mean: aggregate_core::avg::mean(&estimates),
        }
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Wakeup(node_id) => {
                // A crashed node stays silent for good: its wakeup chain
                // ends here (no reschedule).
                if !self.is_live(node_id) {
                    return;
                }
                if self.live.len() >= 2 {
                    // Partner from the peer-sampling layer. The default
                    // uniform sampler consumes the engine RNG exactly like
                    // the historical inline pick loop, so default runs stay
                    // bit-identical.
                    let peer = {
                        let AsyncSimulation {
                            sampler,
                            live,
                            pos_of,
                            rng,
                            ..
                        } = self;
                        let initiator_pos = pos_of[node_id.index()] as usize;
                        sample_live_peer(
                            sampler.as_mut(),
                            &AsyncDirectory { live, pos_of },
                            initiator_pos,
                            rng,
                        )
                    };
                    // The fault lab vetoes the contact when the link is dead
                    // or a partition separates the endpoints; the node's
                    // local clock still ticks, and the failed contact is
                    // reported to the sampler (tail-drop healing).
                    if let Some(peer) = peer {
                        if self.injector.link_blocked(node_id, peer) {
                            self.sampler.peer_failed(node_id, peer);
                        } else {
                            let mut pushes = std::mem::take(&mut self.scratch);
                            ExchangeCore::begin(
                                &mut self.nodes[node_id.index()],
                                peer,
                                &mut pushes,
                            );
                            for push in pushes.drain(..) {
                                let delay = self.config.message_latency;
                                self.schedule(self.now + delay, Event::Deliver(push));
                            }
                            self.scratch = pushes;
                        }
                    }
                    // One wakeup is one local cycle for the epoch machinery.
                    self.nodes[node_id.index()].end_cycle();
                }
                let wait = self.config.wakeup.next_wakeup(&mut self.rng);
                self.schedule(self.now + wait, Event::Wakeup(node_id));
            }
            Event::Deliver(message) => {
                let recipient = message.recipient();
                if recipient.index() >= self.nodes.len() || !self.is_live(recipient) {
                    return;
                }
                // Message omission: each in-flight message (push or reply)
                // is lost independently at the cycle's effective loss rate.
                let loss = self.injector.loss_probability();
                if loss > 0.0 && self.rng.gen_bool(loss) {
                    return;
                }
                if let Some(reply) =
                    ExchangeCore::deliver(&mut self.nodes[recipient.index()], message)
                {
                    self.schedule(
                        self.now + self.config.message_latency,
                        Event::Deliver(reply),
                    );
                }
            }
        }
    }

    fn schedule(&mut self, time: f64, event: Event) {
        self.sequence += 1;
        self.queue.push(Reverse(QueuedEvent {
            time,
            sequence: self.sequence,
            event,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(wakeup: WakeupDistribution) -> AsyncConfig {
        AsyncConfig {
            protocol: ProtocolConfig::builder()
                .cycles_per_epoch(1_000) // effectively no restarts during the test
                .build()
                .unwrap(),
            wakeup,
            message_latency: 0.01,
            sampler: SamplerConfig::UniformComplete,
        }
    }

    #[test]
    fn asynchronous_averaging_converges_without_global_synchronisation() {
        let values: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let true_mean = aggregate_core::avg::mean(&values);
        let mut sim = AsyncSimulation::new(
            config(WakeupDistribution::FixedPeriod { period: 1.0 }),
            &values,
            3,
        )
        .unwrap();
        let samples = sim.run_until(20.0, 1.0);
        assert_eq!(samples.len(), 20);
        let last = samples.last().unwrap();
        assert!(last.variance < 1e-3, "variance {} too large", last.variance);
        assert!((last.mean - true_mean).abs() < 0.5);
        assert!(sim.now() >= 20.0 - 1e-9);
    }

    #[test]
    fn variance_decreases_roughly_exponentially_in_time() {
        let values: Vec<f64> = (0..500).map(|i| (i % 50) as f64).collect();
        let mut sim = AsyncSimulation::new(
            config(WakeupDistribution::FixedPeriod { period: 1.0 }),
            &values,
            5,
        )
        .unwrap();
        let samples = sim.run_until(10.0, 1.0);
        // Each unit of time is one "cycle worth" of wakeups, so consecutive
        // samples should show a clear geometric decrease.
        let mut decreasing = 0;
        for pair in samples.windows(2) {
            if pair[1].variance < pair[0].variance {
                decreasing += 1;
            }
        }
        assert!(
            decreasing >= samples.len() - 2,
            "variance must decrease in almost every interval"
        );
        let first = samples.first().unwrap().variance;
        let last = samples.last().unwrap().variance;
        assert!(last < first * 1e-3);
    }

    #[test]
    fn exponential_wakeups_also_converge() {
        let values: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let true_mean = aggregate_core::avg::mean(&values);
        let mut sim = AsyncSimulation::new(
            config(WakeupDistribution::Exponential { mean: 1.0 }),
            &values,
            7,
        )
        .unwrap();
        let samples = sim.run_until(25.0, 5.0);
        let last = samples.last().unwrap();
        assert!(last.variance < 1e-2);
        assert!((last.mean - true_mean).abs() < 1.0);
    }

    #[test]
    fn mean_is_conserved_despite_in_flight_messages() {
        // With a non-zero latency some mass is "in flight" at any instant, but
        // the long-run mean of the node estimates stays at the true average.
        let values: Vec<f64> = (0..100).map(|i| (i * 3 % 40) as f64).collect();
        let true_mean = aggregate_core::avg::mean(&values);
        let mut sim = AsyncSimulation::new(
            config(WakeupDistribution::FixedPeriod { period: 1.0 }),
            &values,
            11,
        )
        .unwrap();
        let samples = sim.run_until(15.0, 15.0);
        assert!((samples.last().unwrap().mean - true_mean).abs() < 0.75);
    }

    #[test]
    fn degenerate_networks_are_handled() {
        let mut single = AsyncSimulation::new(
            config(WakeupDistribution::FixedPeriod { period: 1.0 }),
            &[42.0],
            13,
        )
        .unwrap();
        let samples = single.run_until(5.0, 1.0);
        assert_eq!(samples.len(), 5);
        assert_eq!(samples.last().unwrap().mean, 42.0);
        assert_eq!(samples.last().unwrap().variance, 0.0);

        let mut empty = AsyncSimulation::new(
            config(WakeupDistribution::Exponential { mean: 1.0 }),
            &[],
            17,
        )
        .unwrap();
        let samples = empty.run_until(2.0, 1.0);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples.last().unwrap().mean, 0.0);
    }

    #[test]
    fn run_until_resumes_without_replaying_stale_samples() {
        // Regression: a second run_until used to restart next_sample at
        // sample_interval, flooding the caller with samples for times that
        // had already elapsed.
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let cfg = config(WakeupDistribution::FixedPeriod { period: 1.0 });
        let mut split = AsyncSimulation::new(cfg, &values, 19).unwrap();
        let mut first = split.run_until(10.0, 1.0);
        assert_eq!(first.len(), 10);
        let second = split.run_until(20.0, 1.0);
        assert_eq!(second.len(), 10, "resume must not replay samples 1..=10");
        assert!(second.iter().all(|s| s.time > 10.0));
        assert!((second[0].time - 11.0).abs() < 1e-9);

        // The split run is observably identical to one uninterrupted run:
        // same event processing, same sample times, same values.
        let mut whole = AsyncSimulation::new(cfg, &values, 19).unwrap();
        let reference = whole.run_until(20.0, 1.0);
        first.extend(second);
        assert_eq!(first, reference);

        // Resuming off the sample grid starts at the next grid point.
        let mut offgrid = AsyncSimulation::new(cfg, &values, 23).unwrap();
        offgrid.run_until(2.5, 1.0);
        let resumed = offgrid.run_until(4.0, 1.0);
        let times: Vec<f64> = resumed.iter().map(|s| s.time).collect();
        assert_eq!(times, vec![3.0, 4.0]);

        // Intervals with no exact binary representation (0.7, 0.1) must not
        // duplicate or drop grid samples across the split: sample times are
        // k*interval in both paths, never an accumulated sum.
        for (interval, split_at, end) in [(0.7, 3.5, 7.0), (0.1, 2.0, 4.0)] {
            let mut split = AsyncSimulation::new(cfg, &values, 29).unwrap();
            let mut joined = split.run_until(split_at, interval);
            joined.extend(split.run_until(end, interval));
            let mut whole = AsyncSimulation::new(cfg, &values, 29).unwrap();
            assert_eq!(
                joined,
                whole.run_until(end, interval),
                "split at {split_at} with interval {interval} diverged"
            );
        }
    }

    #[test]
    fn first_sample_index_is_exact_on_awkward_grids() {
        // The grid point at the returned index is strictly after `now`, and
        // the one before it is not — evaluated in f64, like the sampler.
        for (now, interval) in [
            (0.0, 1.0),
            (3.5, 0.7),
            (2.0, 0.1),
            (20.0, 1.0),
            (0.3, 0.1),
            (1e9, 0.1),
        ] {
            let k = first_sample_index_after(now, interval);
            assert!(k as f64 * interval > now, "k*i must exceed now={now}");
            if k > 1 {
                assert!(
                    (k - 1) as f64 * interval <= now,
                    "(k-1)*i must not exceed now={now} (interval {interval})"
                );
            }
        }
    }

    #[test]
    fn invalid_configurations_are_rejected_with_typed_errors() {
        let values = [1.0, 2.0];
        for (wakeup, latency) in [
            (WakeupDistribution::FixedPeriod { period: 1.0 }, -0.5),
            (WakeupDistribution::FixedPeriod { period: 1.0 }, f64::NAN),
            (
                WakeupDistribution::FixedPeriod { period: 1.0 },
                f64::INFINITY,
            ),
        ] {
            let bad = AsyncConfig {
                message_latency: latency,
                ..config(wakeup)
            };
            assert!(matches!(
                AsyncSimulation::new(bad, &values, 1),
                Err(AsyncConfigError::InvalidLatency { .. })
            ));
        }
        for wakeup in [
            WakeupDistribution::FixedPeriod { period: 0.0 },
            WakeupDistribution::FixedPeriod { period: -1.0 },
            WakeupDistribution::FixedPeriod { period: f64::NAN },
            WakeupDistribution::Exponential { mean: 0.0 },
            WakeupDistribution::Exponential { mean: f64::NAN },
            WakeupDistribution::Exponential {
                mean: f64::INFINITY,
            },
        ] {
            let err = AsyncSimulation::new(config(wakeup), &values, 1).unwrap_err();
            assert!(matches!(err, AsyncConfigError::InvalidWakeup { .. }));
            assert!(!err.to_string().is_empty());
        }
        // A zero latency is fine (instant delivery), as is a valid config.
        let zero_latency = AsyncConfig {
            message_latency: 0.0,
            ..config(WakeupDistribution::FixedPeriod { period: 1.0 })
        };
        assert!(zero_latency.validate().is_ok());
        assert!(AsyncSimulation::new(zero_latency, &values, 1).is_ok());
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_the_plain_constructor() {
        let values: Vec<f64> = (0..200).map(|i| (i % 31) as f64).collect();
        let cfg = config(WakeupDistribution::FixedPeriod { period: 1.0 });
        let mut plain = AsyncSimulation::new(cfg, &values, 37).unwrap();
        let mut faulted =
            AsyncSimulation::with_faults(cfg, &values, 37, FaultPlan::none()).unwrap();
        let a = plain.run_until(12.0, 1.0);
        let b = faulted.run_until(12.0, 1.0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.time.to_bits(), y.time.to_bits());
            assert_eq!(x.mean.to_bits(), y.mean.to_bits(), "t={}", x.time);
            assert_eq!(x.variance.to_bits(), y.variance.to_bits(), "t={}", x.time);
        }
    }

    #[test]
    fn newscast_sampling_converges_on_the_async_engine() {
        let values: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let true_mean = aggregate_core::avg::mean(&values);
        let cfg = AsyncConfig {
            sampler: SamplerConfig::newscast(),
            ..config(WakeupDistribution::FixedPeriod { period: 1.0 })
        };
        let mut sim = AsyncSimulation::new(cfg, &values, 3).unwrap();
        let samples = sim.run_until(20.0, 1.0);
        let last = samples.last().unwrap();
        assert!(last.variance < 1e-2, "variance {} too large", last.variance);
        assert!((last.mean - true_mean).abs() < 1.0);
    }

    #[test]
    fn invalid_sampler_configurations_are_rejected() {
        let cfg = AsyncConfig {
            sampler: SamplerConfig::Newscast { cache_size: 0 },
            ..config(WakeupDistribution::FixedPeriod { period: 1.0 })
        };
        assert!(matches!(
            AsyncSimulation::new(cfg, &[1.0, 2.0], 1),
            Err(AsyncConfigError::Sampler { .. })
        ));
    }

    #[test]
    fn crash_bursts_silence_nodes_and_survivors_keep_converging() {
        let values: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let cfg = config(WakeupDistribution::FixedPeriod { period: 1.0 });
        let plan = FaultPlan::with_crash_burst(5, 0.3);
        let mut sim = AsyncSimulation::with_faults(cfg, &values, 7, plan).unwrap();
        let samples = sim.run_until(25.0, 1.0);
        assert_eq!(sim.live_count(), 140);
        assert_eq!(sim.estimates().len(), 140);
        let last = samples.last().unwrap();
        assert!(
            last.variance < 1e-2,
            "survivors must converge, variance {}",
            last.variance
        );
        // The crash biases the surviving average away from the global one,
        // but it stays a finite consensus value inside the initial range.
        assert!(last.mean.is_finite());
        assert!((0.0..200.0).contains(&last.mean));
    }

    #[test]
    fn message_loss_slows_but_does_not_prevent_async_convergence() {
        let values: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let cfg = config(WakeupDistribution::FixedPeriod { period: 1.0 });
        let mut reliable = AsyncSimulation::new(cfg, &values, 11).unwrap();
        let mut lossy =
            AsyncSimulation::with_faults(cfg, &values, 11, FaultPlan::with_message_loss(0.2))
                .unwrap();
        let r = reliable.run_until(15.0, 15.0);
        let l = lossy.run_until(15.0, 15.0);
        let (rv, lv) = (r.last().unwrap().variance, l.last().unwrap().variance);
        assert!(lv < 1.0, "lossy async run still converges, got {lv}");
        assert!(rv <= lv, "loss can only slow convergence ({rv} vs {lv})");
    }

    #[test]
    fn a_healed_async_partition_converges_to_the_global_average() {
        let values: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let true_mean = aggregate_core::avg::mean(&values);
        let cfg = config(WakeupDistribution::FixedPeriod { period: 1.0 });
        // Split over t ∈ [2, 10): while split, the two sides converge to
        // different means; after healing everything meets the global one.
        let plan = FaultPlan::with_partition(2, 10, 0.5);
        let mut sim = AsyncSimulation::with_faults(cfg, &values, 13, plan).unwrap();
        let during = sim.run_until(9.0, 1.0);
        let while_split = during.last().unwrap();
        let healed = sim.run_until(40.0, 1.0);
        let after = healed.last().unwrap();
        assert!(
            after.variance < while_split.variance.max(1e-6),
            "healing must resume convergence ({} -> {})",
            while_split.variance,
            after.variance
        );
        assert!(after.variance < 1e-2, "variance {}", after.variance);
        assert!((after.mean - true_mean).abs() < 1.0);
    }

    #[test]
    fn event_ordering_is_stable_for_equal_times() {
        let a = QueuedEvent {
            time: 1.0,
            sequence: 1,
            event: Event::Wakeup(NodeId::new(0)),
        };
        let b = QueuedEvent {
            time: 1.0,
            sequence: 2,
            event: Event::Wakeup(NodeId::new(1)),
        };
        assert!(a < b);
        let c = QueuedEvent {
            time: 0.5,
            sequence: 9,
            event: Event::Wakeup(NodeId::new(2)),
        };
        assert!(c < a);
    }
}
