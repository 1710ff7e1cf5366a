//! The deterministic in-memory runtime: [`VirtualCluster`] steps a whole
//! gossip network through the *wire* message path under virtual time.
//!
//! This is the second binding of the "one core, two runtimes" design. The
//! node stepping is the same [`NodeCore`] the threaded [`crate::GossipRuntime`]
//! drives, every message crosses an [`InMemoryNetwork`] endpoint (and is
//! therefore encoded and decoded through the 33-byte wire codec), time is a
//! virtual clock advanced one `cycle_length_ms` per cycle, and all
//! randomness comes from the labelled seed streams of one master seed.
//!
//! The cluster executes cycles in *lockstep* with
//! [`gossip_sim::GossipSimulation`]: the epoch environment — fault lab,
//! adversary, elections, telemetry and virtual time — is the same
//! [`Coordinator`] the engine runs, and the exchange phase draws the same
//! schedule shuffle, sampler picks and loss coins in the same order. A
//! seeded run is therefore not merely deterministic — it is
//! **bit-identical** to the cycle engine for the same seed, membership and
//! topology, which `tests/determinism.rs` pins. That identity is the
//! strongest statement this repository can make that the deployed message
//! path and the simulated one realise the same protocol.

use crate::node_core::{Delivery, NodeCore};
use crate::{InMemoryNetwork, Transport};
use aggregate_core::node::ProtocolNode;
use aggregate_core::sampler::{sample_live_peer, SamplerDirectory};
use aggregate_core::{EpochResult, ExchangeTally, GossipMessage, InstanceTag};
use gossip_faults::{Adversary, AdversaryPlan, FaultPlan};
use gossip_sim::coordinator::{Coordinator, CycleNodes, NodeTicks};
use gossip_sim::{CycleSummary, SimConfigError, SimulationConfig};
use gossip_telemetry::{Event, TelemetryConfig};
use overlay_topology::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::time::Duration;

/// Sentinel for "slot is not live" in the slot → live-position map (the same
/// convention as the engine arena's internal map).
const NOT_LIVE: u32 = u32::MAX;

/// The cluster's membership: slot-indexed node state and the dense live
/// order the sampler and the coordinator see. Positions and liveness answer
/// exactly as the engine arena does; no generation check is needed because a
/// [`VirtualCluster`] never rejoins a vacated slot, so every identifier in
/// circulation is generation 0 and trace keys are identifiers.
#[derive(Debug)]
struct Members {
    /// Slot-indexed node state; `None` marks a crashed node's vacated slot.
    nodes: Vec<Option<NodeCore>>,
    /// Dense array of live slot indices, in engine live order.
    live: Vec<u32>,
    /// Slot → position in `live`, [`NOT_LIVE`] for vacated slots.
    live_pos: Vec<u32>,
}

impl Members {
    fn core_mut(&mut self, id: NodeId) -> Option<&mut NodeCore> {
        self.nodes.get_mut(id.as_u32() as usize)?.as_mut()
    }
}

impl SamplerDirectory for Members {
    fn len(&self) -> usize {
        self.live.len()
    }

    fn id_at(&self, pos: usize) -> NodeId {
        NodeId::from_u32(self.live[pos])
    }

    fn is_live(&self, id: NodeId) -> bool {
        let slot = id.as_u32() as usize;
        slot < self.live_pos.len() && self.live_pos[slot] != NOT_LIVE
    }
}

impl CycleNodes for Members {
    fn can_participate(&self, pos: usize) -> bool {
        let core = self.nodes[self.live[pos] as usize].as_ref();
        core.is_some_and(|core| core.node().can_participate())
    }

    fn start_led_instance(&mut self, pos: usize, tag: InstanceTag, state: f64) {
        if let Some(core) = self.nodes[self.live[pos] as usize].as_mut() {
            core.node_mut().start_led_instance(tag, state);
        }
    }

    fn corrupt_estimate(&mut self, id: NodeId, value: f64) -> Option<u64> {
        self.core_mut(id)?.corrupt_estimate(value);
        Some(u64::from(id.as_u32()))
    }

    fn corrupt_instance(&mut self, id: NodeId, state: f64) {
        if let Some(core) = self.core_mut(id) {
            core.node_mut()
                .corrupt_instance(InstanceTag::from_leader(id), state);
        }
    }

    /// The engine arena's swap-remove bookkeeping, so crash bursts leave
    /// both runtimes with identical live orders.
    fn remove_at(&mut self, pos: usize) -> (NodeId, u64) {
        let slot = self.live.swap_remove(pos);
        if let Some(&moved) = self.live.get(pos) {
            self.live_pos[moved as usize] = pos as u32;
        }
        self.live_pos[slot as usize] = NOT_LIVE;
        self.nodes[slot as usize] = None;
        (NodeId::from_u32(slot), u64::from(slot))
    }
}

impl NodeTicks for Members {
    fn end_cycle(&mut self, pos: usize) -> Option<EpochResult> {
        self.nodes[self.live[pos] as usize].as_mut()?.end_cycle()
    }

    fn estimate(&self, pos: usize) -> Option<f64> {
        self.nodes[self.live[pos] as usize].as_ref()?.estimate()
    }
}

/// A whole gossip network run deterministically inside one thread: real
/// [`NodeCore`] state machines, real wire frames over [`InMemoryNetwork`]
/// endpoints, virtual time — stepped one cycle at a time in lockstep with
/// the reference engine's schedule.
///
/// Takes the *same* [`SimulationConfig`] (and optionally the same
/// [`FaultPlan`]) as [`gossip_sim::GossipSimulation`] and produces the same
/// [`CycleSummary`] values, bit for bit. No joins are supported (the live
/// runtime has a static bootstrap membership); crash bursts from the fault
/// plan remove nodes exactly as the engine's churn path does.
///
/// # Example
///
/// ```
/// use gossip_net::VirtualCluster;
/// use gossip_sim::{GossipSimulation, SimulationConfig};
/// use aggregate_core::ProtocolConfig;
///
/// let config = SimulationConfig::averaging(ProtocolConfig::default());
/// let values: Vec<f64> = (0..50).map(|i| i as f64).collect();
/// let mut wire = VirtualCluster::new(config, &values, 7).unwrap();
/// let mut engine = GossipSimulation::new(config, &values, 7);
/// // The wire runtime and the cycle engine take identical trajectories.
/// for _ in 0..5 {
///     assert_eq!(wire.run_cycle(), engine.run_cycle());
/// }
/// ```
#[derive(Debug)]
pub struct VirtualCluster {
    members: Members,
    /// Wire endpoints, slot-indexed and immortal (a crashed node simply
    /// stops being scheduled; frames addressed to it are never sent because
    /// the sampler only returns live peers).
    endpoints: Vec<InMemoryNetwork>,
    /// The schedule stream, drawn in the engine's order.
    rng: StdRng,
    /// The epoch environment, shared with the cycle engines.
    coordinator: Coordinator,
    scratch_pushes: Vec<GossipMessage>,
}

impl VirtualCluster {
    /// Creates a deterministic in-memory cluster with one node per initial
    /// value, all present from epoch 0, fault-free.
    ///
    /// # Errors
    ///
    /// Everything [`gossip_sim::GossipSimulation::try_new`] rejects: an empty
    /// population, non-finite initial values, invalid failure conditions,
    /// unrealisable sampler configurations.
    pub fn new(
        config: SimulationConfig,
        initial_values: &[f64],
        master_seed: u64,
    ) -> Result<Self, SimConfigError> {
        let (plan, adversary) = (FaultPlan::none(), AdversaryPlan::none());
        VirtualCluster::with_adversary(config, initial_values, master_seed, plan, adversary)
    }

    /// Creates the cluster executing a [`FaultPlan`] and a stateful
    /// [`AdversaryPlan`], exactly as
    /// [`gossip_sim::GossipSimulation::with_adversary`] does — the wire-path
    /// binding of the Byzantine adversary lab.
    ///
    /// # Errors
    ///
    /// Everything [`VirtualCluster::new`] rejects, plus
    /// [`SimConfigError::Faults`] for a malformed schedule and
    /// [`SimConfigError::Adversary`] for a malformed adversary plan.
    pub fn with_adversary(
        config: SimulationConfig,
        initial_values: &[f64],
        master_seed: u64,
        plan: FaultPlan,
        adversary: AdversaryPlan,
    ) -> Result<Self, SimConfigError> {
        config.validate(initial_values)?;
        let n = initial_values.len();
        let mut members = Members {
            nodes: initial_values
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let node = ProtocolNode::new(NodeId::new(i), config.protocol, v);
                    Some(NodeCore::new(node))
                })
                .collect(),
            live: (0..n as u32).collect(),
            live_pos: (0..n as u32).collect(),
        };
        let initial_ids: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let mut coordinator =
            Coordinator::build(&config, &initial_ids, master_seed, plan, adversary)?;
        let mut rng = coordinator.seeds().rng_for_run(0);
        coordinator.elect_leaders(&mut members, Some(&mut rng));
        Ok(VirtualCluster {
            members,
            endpoints: InMemoryNetwork::create(n),
            rng,
            coordinator,
            scratch_pushes: Vec::new(),
        })
    }

    /// Installs (or replaces) the telemetry sink. With
    /// [`TelemetryConfig::disabled`] — the construction default — every hook
    /// is a single branch and the run stays bit-identical to the reference
    /// engine's trajectory.
    pub fn set_telemetry(&mut self, config: TelemetryConfig) {
        self.coordinator.set_telemetry(config);
    }

    /// Drains the recorded events in canonical trace order.
    pub fn drain_trace(&mut self) -> Vec<Event> {
        self.coordinator.telemetry.drain_events() // lint-allow(observer-effect): post-hoc export accessor for runners/tests, not protocol logic
    }

    /// The convergence watchdog's current verdict, if one is configured.
    pub fn watchdog_verdict(&self) -> Option<gossip_telemetry::WatchdogVerdict> {
        self.coordinator.telemetry.watchdog_verdict() // lint-allow(observer-effect): post-hoc diagnosis accessor for runners/tests, not protocol logic
    }

    /// The realised adversary (colluding set and per-epoch captures) — the
    /// cross-runtime tests inspect it to cross-check which nodes are lying.
    pub fn adversary(&self) -> &Adversary {
        self.coordinator.adversary()
    }

    /// The most recent pooled network-size estimate, if any epoch completed.
    pub fn last_size_estimate(&self) -> Option<f64> {
        self.coordinator.last_size_estimate()
    }

    /// Current default-instance estimates of all live nodes, in live order.
    pub fn estimates(&self) -> Vec<f64> {
        let Members { nodes, live, .. } = &self.members;
        live.iter()
            .filter_map(|&slot| nodes[slot as usize].as_ref())
            .filter_map(|core| core.estimate())
            .collect()
    }

    /// Runs one full protocol cycle over the wire path and returns the same
    /// summary the reference engine produces for this cycle.
    pub fn run_cycle(&mut self) -> CycleSummary {
        let mut tally = ExchangeTally::default();
        let mut exchanges_blocked = 0usize;
        let loss = self
            .coordinator
            .enter_cycle(&mut self.members, &mut self.rng);
        let Coordinator {
            sampler,
            injector,
            telemetry,
            ..
        } = &mut self.coordinator;
        let record = telemetry.events_enabled();
        let members = &mut self.members;

        // Active phase: every live node initiates one exchange, in the same
        // shuffled order the engine draws — but here each exchange travels
        // as encoded wire frames through the in-memory transport and is
        // stepped through `NodeCore` message delivery.
        let mut order = members.live.clone();
        order.shuffle(&mut self.rng);
        for initiator_slot in order {
            let slot = initiator_slot as usize;
            if members.nodes[slot].is_none() {
                continue;
            }
            let initiator_pos = members.live_pos[slot] as usize;
            let Some(peer_id) =
                sample_live_peer(sampler.as_mut(), &*members, initiator_pos, &mut self.rng)
            else {
                continue;
            };
            let initiator_id = NodeId::from_u32(initiator_slot);
            let (initiator_key, peer_key) = (initiator_slot, peer_id.as_u32());
            if injector.link_blocked(initiator_id, peer_id) {
                sampler.peer_failed(initiator_id, peer_id);
                exchanges_blocked += 1;
                if record {
                    telemetry.exchange_vetoed(initiator_key.into(), peer_key.into());
                }
                continue;
            }
            let peer_slot = peer_id.as_u32() as usize;
            let mut pushes = std::mem::take(&mut self.scratch_pushes);
            let started = members.nodes[slot]
                .as_mut()
                // lint-allow(unwrap): slot liveness checked when the schedule entry was drawn
                .expect("checked above")
                .begin(peer_id, &mut pushes);
            if !started {
                self.scratch_pushes = pushes;
                continue;
            }
            tally.exchanges += 1;
            let seq = (tally.exchanges - 1) as u64;
            let lost_before = tally.messages_lost;
            if record {
                telemetry.exchange_begun(seq, initiator_key.into(), peer_key.into());
            }
            // Ship each push over the wire, delivering at the peer as it
            // lands; the loss coins are drawn in the exact order the
            // engine's `ExchangeCore::respond` draws them — push, then (if a
            // reply was produced) reply, for each push in turn.
            for push in &pushes {
                if loss > 0.0 && self.rng.gen_bool(loss) {
                    tally.messages_lost += 1;
                    continue;
                }
                self.endpoints[slot]
                    .send(push)
                    // lint-allow(unwrap): every live slot owns an in-memory endpoint; send cannot fail
                    .expect("sampled peer has an endpoint");
                let message = self.endpoints[peer_slot]
                    .recv_timeout(Duration::ZERO)
                    // lint-allow(unwrap): frames cross an in-memory channel bit-exactly; decode cannot fail
                    .expect("in-memory frames always decode")
                    // lint-allow(unwrap): the push was enqueued by the send directly above
                    .expect("frame was just enqueued");
                // When no reply is owed (stale-epoch push, epoch jump) there
                // is nothing to ship back; a peer can never be mid-exchange
                // here — the lockstep schedule completes each exchange
                // before the next begins.
                if let Delivery::Reply(reply) = members.nodes[peer_slot]
                    .as_mut()
                    // lint-allow(unwrap): peer liveness checked when the exchange was scheduled
                    .expect("sampled peer is live")
                    .deliver(message)
                {
                    if loss > 0.0 && self.rng.gen_bool(loss) {
                        tally.messages_lost += 1;
                    } else {
                        self.endpoints[peer_slot]
                            .send(&reply)
                            // lint-allow(unwrap): every live slot owns an in-memory endpoint; send cannot fail
                            .expect("initiator has an endpoint");
                    }
                }
            }
            // Absorb whatever replies made it back, then settle the
            // exchange.
            let initiator = members.nodes[slot]
                .as_mut()
                // lint-allow(unwrap): slot liveness checked when the schedule entry was drawn
                .expect("checked above");
            while let Ok(Some(reply)) = self.endpoints[slot].recv_timeout(Duration::ZERO) {
                initiator.deliver(reply);
            }
            initiator.close_pending();
            if record {
                let lost_now = tally.messages_lost - lost_before;
                for _ in 0..lost_now {
                    telemetry.message_lost(seq);
                }
                if lost_now == 0 {
                    telemetry.exchange_completed(seq);
                }
            }
            self.scratch_pushes = pushes;
        }
        self.coordinator
            .close_cycle(&mut self.members, &mut self.rng, tally, exchanges_blocked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggregate_core::sampler::SamplerConfig;
    use aggregate_core::size_estimation::LeaderPolicy;
    use aggregate_core::ProtocolConfig;
    use gossip_sim::GossipSimulation;

    fn averaging(cycles_per_epoch: u32) -> SimulationConfig {
        SimulationConfig::averaging(
            ProtocolConfig::builder()
                .cycles_per_epoch(cycles_per_epoch)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn wire_cluster_matches_the_engine_cycle_for_cycle() {
        let values: Vec<f64> = (0..120).map(|i| (i % 19) as f64).collect();
        let config = averaging(10);
        let mut wire = VirtualCluster::new(config, &values, 33).unwrap();
        let mut engine = GossipSimulation::new(config, &values, 33);
        for _ in 0..25 {
            assert_eq!(wire.run_cycle(), engine.run_cycle());
        }
        assert_eq!(wire.estimates(), engine.estimates());
    }

    #[test]
    fn virtual_time_advances_one_cycle_length_per_cycle() {
        let config = SimulationConfig::averaging(
            ProtocolConfig::builder()
                .cycles_per_epoch(10)
                .cycle_length_ms(2_000)
                .build()
                .unwrap(),
        );
        let mut cluster = VirtualCluster::new(config, &[1.0, 2.0, 3.0], 1).unwrap();
        assert_eq!(cluster.coordinator.now_ms(), 0);
        for _ in 0..4 {
            cluster.run_cycle();
        }
        assert_eq!(cluster.coordinator.now_ms(), 8_000);
        assert_eq!(cluster.coordinator.cycle(), 4);
    }

    #[test]
    fn rejects_what_the_engine_rejects() {
        let config = averaging(10);
        assert!(matches!(
            VirtualCluster::new(config, &[], 1).err(),
            Some(SimConfigError::ZeroNodes)
        ));
        assert!(matches!(
            VirtualCluster::new(config, &[1.0, f64::NAN], 1).err(),
            Some(SimConfigError::NonFiniteInitialValue { index: 1, .. })
        ));
        assert!(matches!(
            VirtualCluster::with_adversary(
                config,
                &[1.0],
                1,
                FaultPlan::with_link_failure(2.0),
                AdversaryPlan::none()
            )
            .err(),
            Some(SimConfigError::Faults { .. })
        ));
        let bad_sampler = SimulationConfig {
            sampler: SamplerConfig::Newscast { cache_size: 0 },
            ..config
        };
        assert!(matches!(
            VirtualCluster::new(bad_sampler, &[1.0, 2.0], 1).err(),
            Some(SimConfigError::Sampler { .. })
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
                    VirtualCluster::new(bad_policy, &[1.0, 2.0], 1).err(),
                    Some(SimConfigError::LeaderPolicy { .. })
                ),
                "{policy:?} must be rejected"
            );
        }
    }

    #[test]
    fn crash_bursts_mirror_the_engine_churn_path() {
        let values: Vec<f64> = (0..80).map(|i| i as f64).collect();
        let config = averaging(10);
        let plan = FaultPlan::with_crash_burst(3, 0.25);
        let adversary = AdversaryPlan::none();
        let mut wire =
            VirtualCluster::with_adversary(config, &values, 9, plan.clone(), adversary).unwrap();
        let mut engine = GossipSimulation::with_faults(config, &values, 9, plan).unwrap();
        for _ in 0..8 {
            assert_eq!(wire.run_cycle(), engine.run_cycle());
        }
        assert_eq!(wire.members.live.len(), 60);
        assert_eq!(wire.members.live.len(), engine.live_count());
        assert_eq!(wire.estimates(), engine.estimates());
    }
}
