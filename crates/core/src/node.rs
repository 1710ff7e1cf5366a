//! Per-node protocol driver: epochs, instances and message handling combined.
//!
//! [`ProtocolNode`] glues together the pieces defined elsewhere in this crate —
//! per-instance `AggregationInstance` state machines, the
//! [`crate::epoch::EpochManager`] and the [`crate::config::ProtocolConfig`] —
//! into the object a runtime (simulator or live transport) drives:
//!
//! 1. once per cycle the runtime picks a peer and calls
//!    [`crate::ExchangeCore::begin`], sending the returned messages;
//! 2. every received message goes through [`crate::ExchangeCore::deliver`],
//!    and any returned reply is sent back;
//! 3. at the end of each cycle the runtime calls [`ProtocolNode::end_cycle`],
//!    which advances the epoch machinery and reports converged epoch results.

use crate::aggregate::AggregateKind;
use crate::config::{LateJoinPolicy, ProtocolConfig};
use crate::epoch::{EpochManager, EpochTransition};
use crate::exchange::{absorb, absorb_led_push};
use crate::protocol::{AggregationInstance, GossipMessage, InstanceTag};
use overlay_topology::NodeId;

/// Converged result of one finished epoch on one node.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochResult {
    /// The epoch that finished.
    pub epoch: u64,
    /// Estimates of every instance that was live during the epoch, keyed by
    /// instance tag, already passed through the aggregate's estimate
    /// transform.
    pub(crate) estimates: Vec<(InstanceTag, f64)>,
    /// Whether this node participated in the epoch from its first cycle; only
    /// then is the estimate a converged, trustworthy value.
    pub full_participation: bool,
}

impl EpochResult {
    /// The report of a node finishing `epoch` with default-instance state
    /// `state` and led instances `led`: the default estimate first, then the
    /// led ones in tag order ([`InstanceTag::DEFAULT`] sorts before every
    /// leader-derived tag).
    pub(crate) fn report(
        epoch: u64,
        kind: AggregateKind,
        state: f64,
        led: &[LedSlot],
        full_participation: bool,
    ) -> Self {
        let led = led.iter().map(|s| (s.tag, kind.estimate_value(s.state)));
        let default = (InstanceTag::DEFAULT, kind.estimate_value(state));
        EpochResult {
            epoch,
            estimates: std::iter::once(default).chain(led).collect(),
            full_participation,
        }
    }

    /// The estimate of the default instance, if it was live.
    pub fn default_estimate(&self) -> Option<f64> {
        self.estimates
            .iter()
            .find(|(tag, _)| *tag == InstanceTag::DEFAULT)
            .map(|(_, v)| *v)
    }
}

/// The four words of state that completely describe a *hot* node — one that
/// participates, has been in its current epoch from the first cycle, and runs
/// only the default aggregation instance. The sharded engine's
/// struct-of-arrays store keeps exactly this per hot node, with the local
/// value beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotView {
    /// Running approximation of the default instance.
    pub state: f64,
    /// Epoch the node currently executes.
    pub epoch: u64,
    /// Cycles completed in the current epoch.
    pub cycle_in_epoch: u32,
    /// Exchanges the default instance has completed this epoch.
    pub exchanges: u32,
}

/// One leader-led instance of a node: its tag, running state and exchange
/// count. Aggregate kind, local value and epoch are the node's own: a led
/// instance is created in the node's current epoch and every epoch restart
/// drops it, so it never differs from its node in them. A node keeps its
/// led instances sorted by tag, in a [`ProtocolNode`]'s own vector or in an
/// engine's per-shard table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedSlot {
    /// The instance.
    pub(crate) tag: InstanceTag,
    /// Its running approximation.
    pub(crate) state: f64,
    /// Exchanges it has completed this epoch.
    pub(crate) exchanges: u32,
}

impl LedSlot {
    /// A fresh instance: `state`, no exchanges yet.
    pub fn new(tag: InstanceTag, state: f64) -> Self {
        LedSlot {
            tag,
            state,
            exchanges: 0,
        }
    }
}

/// The complete protocol state of one node.
///
/// # Example
///
/// A miniature two-node network driven by hand:
///
/// ```
/// use aggregate_core::node::ProtocolNode;
/// use aggregate_core::config::ProtocolConfig;
/// use aggregate_core::ExchangeCore;
/// use overlay_topology::NodeId;
///
/// let config = ProtocolConfig::default();
/// let mut a = ProtocolNode::new(NodeId::new(0), config, 10.0);
/// let mut b = ProtocolNode::new(NodeId::new(1), config, 20.0);
///
/// // One push–pull exchange initiated by a towards b.
/// let mut pushes = Vec::new();
/// assert!(ExchangeCore::begin(&mut a, NodeId::new(1), &mut pushes));
/// for push in pushes {
///     if let Some(reply) = ExchangeCore::deliver(&mut b, push) {
///         ExchangeCore::deliver(&mut a, reply);
///     }
/// }
/// assert_eq!(a.estimate(), Some(15.0));
/// assert_eq!(b.estimate(), Some(15.0));
/// ```
///
/// The default aggregation instance is stored inline (every node always has
/// one). The extra leader-led instances of the network-size estimator are
/// [`LedSlot`]s in one vector sorted by tag, whose capacity survives epoch
/// restarts, so a node that ever carries led instances allocates once in its
/// life. In the common single-instance configuration a node owns no heap
/// allocation at all.
#[derive(Debug, Clone, PartialEq)]
#[repr(C)] // hot-first field order: everything the fused exchange fast path
           // reads (epoch state, default instance, led slots, id) lives in
           // the leading ~96 bytes, so an exchange costs the engines two
           // cache lines per node, not three
pub struct ProtocolNode {
    epochs: EpochManager,
    default_instance: AggregationInstance,
    led: Vec<LedSlot>,
    id: NodeId,
    local_value: f64,
    config: ProtocolConfig,
}

impl ProtocolNode {
    /// Creates a node present from the start of epoch 0, with the given local
    /// attribute value.
    pub fn new(id: NodeId, config: ProtocolConfig, local_value: f64) -> Self {
        ProtocolNode {
            id,
            config,
            epochs: EpochManager::new(config.cycles_per_epoch(), 0),
            local_value,
            default_instance: AggregationInstance::new(config.aggregate(), local_value, 0),
            led: Vec::new(),
        }
    }

    /// Rebuilds a node from the parts an engine keeps in columns: its epoch
    /// machinery, the default instance's running state and exchange count,
    /// and its led instances sorted by tag.
    pub fn from_parts(
        id: NodeId,
        config: ProtocolConfig,
        local_value: f64,
        epochs: EpochManager,
        state: f64,
        exchanges: u32,
        led: &[LedSlot],
    ) -> Self {
        let epoch = epochs.current_epoch();
        let mut default_instance = AggregationInstance::new(config.aggregate(), local_value, epoch);
        default_instance.restore_hot(epoch, state, exchanges);
        ProtocolNode {
            epochs,
            default_instance,
            led: led.to_vec(),
            id,
            local_value,
            config,
        }
    }

    /// Creates a node that joins a running network: it was told by its contact
    /// that the next epoch is `next_epoch` and starts in `cycles_until_start`
    /// cycles, and stays passive until then (Section 4's join protocol).
    pub fn joining(
        id: NodeId,
        config: ProtocolConfig,
        local_value: f64,
        next_epoch: u64,
        cycles_until_start: u32,
    ) -> Self {
        ProtocolNode {
            id,
            config,
            epochs: EpochManager::joining(
                config.cycles_per_epoch(),
                next_epoch,
                cycles_until_start,
            ),
            local_value,
            default_instance: AggregationInstance::new(config.aggregate(), local_value, next_epoch),
            led: Vec::new(),
        }
    }

    /// This node's identifier.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's local attribute value `a_i`.
    #[inline]
    pub fn local_value(&self) -> f64 {
        self.local_value
    }

    /// Updates the node's local attribute value. Running estimates are not
    /// touched; the new value is picked up at the next epoch restart, which is
    /// how the protocol adapts to changing inputs.
    pub fn set_local_value(&mut self, value: f64) {
        self.local_value = value;
        self.default_instance.set_local_value(value);
    }

    /// Current estimate of the default aggregation instance.
    #[inline]
    pub fn estimate(&self) -> Option<f64> {
        Some(self.default_instance.estimate())
    }

    /// Estimate of an arbitrary instance.
    #[inline]
    pub fn instance_estimate(&self, tag: InstanceTag) -> Option<f64> {
        if tag == InstanceTag::DEFAULT {
            return Some(self.default_instance.estimate());
        }
        let index = self.led_position(tag).ok()?;
        Some(self.kind().estimate_value(self.led[index].state))
    }

    /// The aggregate every instance of this node computes: the
    /// configuration's, read from the default instance, which sits in the
    /// node's first cache line.
    #[inline]
    fn kind(&self) -> AggregateKind {
        self.default_instance.kind()
    }

    /// Where led instance `tag` sits in the sorted store, or where it would
    /// be inserted.
    #[inline]
    fn led_position(&self, tag: InstanceTag) -> Result<usize, usize> {
        self.led.binary_search_by_key(&tag, |s| s.tag)
    }

    /// The initiator's side of the exchange kernel: its epoch, aggregate,
    /// default-instance state and exchange count, and led instances.
    #[inline]
    pub(crate) fn exchange_parts(
        &mut self,
    ) -> (u64, AggregateKind, &mut f64, &mut u32, &mut [LedSlot]) {
        let (epoch, kind) = (self.epochs.current_epoch(), self.kind());
        let (state, exchanges) = self.default_instance.parts_mut();
        (epoch, kind, state, exchanges, &mut self.led)
    }

    /// Overwrites the default instance's running approximation — the
    /// value-injection fault of the `gossip-faults` lab, modelling a
    /// compromised node reporting an adversarial estimate. The local
    /// attribute value is untouched, so the corruption washes out over the
    /// following exchanges and disappears at the next epoch restart.
    pub fn corrupt_estimate(&mut self, value: f64) {
        self.default_instance.corrupt_state(value);
    }

    /// Overwrites the running approximation of one specific instance — the
    /// leader-capture attack of the adversary lab, where a compromised leader
    /// re-asserts a false state into the counting instance it leads. Returns
    /// `false` when the node is not running an instance with that tag (the
    /// corruption then has no target and nothing happens).
    pub fn corrupt_instance(&mut self, tag: InstanceTag, value: f64) -> bool {
        if tag == InstanceTag::DEFAULT {
            self.default_instance.corrupt_state(value);
            return true;
        }
        self.corrupt_led(tag, value)
    }

    /// The epoch this node is currently executing.
    #[inline]
    pub fn current_epoch(&self) -> u64 {
        self.epochs.current_epoch()
    }

    /// Whether the node may actively initiate exchanges (joining nodes are
    /// passive until their first epoch starts).
    #[inline]
    pub fn can_participate(&self) -> bool {
        self.epochs.can_participate()
    }

    /// Snapshot of the state a dense struct-of-arrays store keeps of a
    /// steady-state node.
    ///
    /// Returns `Some` exactly when the node is *hot*: participating, present
    /// since the start of its current epoch, and running only the default
    /// instance. Such a node's per-cycle behaviour is fully described by four
    /// words; a cold node also needs its join wait, mid-epoch flag and led
    /// instances.
    pub fn hot_view(&self) -> Option<HotView> {
        if self.epochs.can_participate()
            && self.epochs.participated_from_epoch_start()
            && self.led.is_empty()
        {
            Some(HotView {
                state: self.default_instance.state(),
                epoch: self.epochs.current_epoch(),
                cycle_in_epoch: self.epochs.cycle_in_epoch(),
                exchanges: self.default_instance.exchanges(),
            })
        } else {
            None
        }
    }

    /// Starts (or restarts) an extra aggregation instance led by this node,
    /// seeded with an explicit initial state. The network-size estimator uses
    /// this with state `1.0` on the elected leader.
    pub fn start_led_instance(&mut self, tag: InstanceTag, initial_state: f64) {
        if tag == InstanceTag::DEFAULT {
            self.default_instance = AggregationInstance::with_initial_state(
                self.config.aggregate(),
                self.local_value,
                initial_state,
                self.epochs.current_epoch(),
            );
            return;
        }
        self.start_led(tag, initial_state);
    }

    /// Active half of the protocol (Figure 1's "active process"): appends the
    /// push messages for one exchange with `peer`, one per live instance, to
    /// a caller-owned buffer, so engines driving millions of exchanges per
    /// cycle can reuse one scratch vector. Appends nothing when the node is
    /// not yet allowed to participate.
    pub(crate) fn begin_exchange_into(&mut self, peer: NodeId, pushes: &mut Vec<GossipMessage>) {
        if !self.epochs.can_participate() || peer == self.id {
            return;
        }
        let epoch = self.epochs.current_epoch();
        let default = (InstanceTag::DEFAULT, self.default_instance.initiate());
        let led = self.led.iter().map(|s| (s.tag, s.state));
        pushes.extend(
            std::iter::once(default)
                .chain(led)
                .map(|(instance, value)| GossipMessage::Push {
                    from: self.id,
                    to: peer,
                    instance,
                    epoch,
                    value,
                }),
        );
    }

    /// Handles an incoming message, returning the reply to send (for pushes)
    /// or `None` (for replies and ignored messages).
    ///
    /// Stale messages (older epoch) are dropped; messages from a newer epoch
    /// first trigger the epoch jump (restarting all instances) and are then
    /// processed inside the new epoch.
    pub(crate) fn handle_message(&mut self, message: GossipMessage) -> Option<GossipMessage> {
        if !self.accept(message.epoch()) {
            return None;
        }
        let kind = self.kind();
        match message {
            GossipMessage::Push {
                from,
                instance: tag,
                epoch,
                value,
                ..
            } => {
                let reply_value = if tag == InstanceTag::DEFAULT {
                    self.default_instance.absorb_push(value)
                } else {
                    absorb_led_push(self, &mut 0, kind, tag, value)
                };
                Some(GossipMessage::Reply {
                    from: self.id,
                    to: from,
                    instance: tag,
                    epoch,
                    value: reply_value,
                })
            }
            GossipMessage::Reply {
                instance: tag,
                value,
                ..
            } => {
                if tag == InstanceTag::DEFAULT {
                    self.default_instance.absorb_reply(value);
                } else if let Ok(index) = self.led_position(tag) {
                    let slot = &mut self.led[index];
                    absorb(kind, &mut slot.state, &mut slot.exchanges, value);
                }
                None
            }
        }
    }

    /// Marks the end of one protocol cycle. When this completes an epoch the
    /// converged [`EpochResult`] is returned and all instances restart for the
    /// new epoch (extra led instances are dropped — their leaders re-elect
    /// themselves at the start of the next epoch if required).
    pub fn end_cycle(&mut self) -> Option<EpochResult> {
        self.tick()
    }
}

/// One node's protocol state, wherever it is kept: a [`ProtocolNode`]'s own
/// fields, or an engine's columns for one node. The node's semantics are
/// written once, as the provided methods, over the required accessors: the
/// passive side of the exchange kernel ([`NodeState::accept`],
/// [`NodeState::join_led`]), a leader's start, a capture and the end of a
/// cycle.
pub trait NodeState {
    /// The protocol the node runs.
    fn protocol(&self) -> ProtocolConfig;

    /// The node's local value.
    fn local(&self) -> f64;

    /// The node's epoch machinery.
    fn epochs(&self) -> EpochManager;

    /// Writes the node's epoch machinery.
    fn set_epochs(&mut self, epochs: EpochManager);

    /// The default instance's running state and exchange count.
    fn default_state(&mut self) -> (&mut f64, &mut u32);

    /// The led instances, sorted by tag.
    fn led(&mut self) -> &mut [LedSlot];

    /// Inserts `slot` at `index` of [`NodeState::led`].
    fn insert_led(&mut self, index: usize, slot: LedSlot);

    /// Drops every led instance, keeping the store's room.
    fn clear_led(&mut self);

    /// Whether a message stamped `epoch` is processed: `false` when it is
    /// stale (older than the node's epoch). A newer epoch first restarts the
    /// node (the epoch jump), and the epoch a joiner waits for ends its wait.
    #[inline]
    fn accept(&mut self, epoch: u64) -> bool {
        let mut epochs = self.epochs();
        if epochs.is_stale(epoch) {
            return false;
        }
        if epoch == epochs.current_epoch() && epochs.can_participate() {
            // Nothing to observe: the common case costs no write-back.
            return true;
        }
        let transition = epochs.observe_remote_epoch(epoch);
        self.set_epochs(epochs);
        if let EpochTransition::Jumped { .. } = transition {
            self.restart();
        }
        true
    }

    /// Inserts led instance `tag` at `index` of [`NodeState::led`], in the
    /// state the late-join policy gives it.
    fn join_led(&mut self, index: usize, tag: InstanceTag) {
        let protocol = self.protocol();
        let state = match protocol.late_join() {
            LateJoinPolicy::LocalValue => protocol.aggregate().init_value(self.local()),
            LateJoinPolicy::FixedState(state) => state,
        };
        self.insert_led(index, LedSlot::new(tag, state));
    }

    /// Starts (or restarts) led instance `tag`, which is not
    /// [`InstanceTag::DEFAULT`], at `state`.
    fn start_led(&mut self, tag: InstanceTag, state: f64) {
        let slot = LedSlot::new(tag, state);
        match self.led().binary_search_by_key(&tag, |s| s.tag) {
            Ok(index) => self.led()[index] = slot,
            Err(index) => self.insert_led(index, slot),
        }
    }

    /// Overwrites led instance `tag`'s state; `false` when the node runs no
    /// such instance.
    fn corrupt_led(&mut self, tag: InstanceTag, state: f64) -> bool {
        let led = self.led();
        let found = led.binary_search_by_key(&tag, |s| s.tag);
        found.map(|index| led[index].state = state).is_ok()
    }

    /// Ends one protocol cycle: ticks the epoch machinery and, when that
    /// completes an epoch, reports it and restarts the instances.
    fn tick(&mut self) -> Option<EpochResult> {
        let mut epochs = self.epochs();
        let full_participation = epochs.participated_from_epoch_start();
        let transition = epochs.tick_cycle();
        self.set_epochs(epochs);
        let EpochTransition::Completed { finished, .. } = transition else {
            return None;
        };
        let (kind, state) = (self.protocol().aggregate(), *self.default_state().0);
        let result = EpochResult::report(finished, kind, state, self.led(), full_participation);
        self.restart();
        Some(result)
    }

    /// Restarts the instances for the node's (already advanced) epoch: no led
    /// instance (they are per-epoch by construction), the default one from
    /// the local value.
    fn restart(&mut self) {
        self.clear_led();
        let state = self.protocol().aggregate().init_value(self.local());
        let (default, exchanges) = self.default_state();
        (*default, *exchanges) = (state, 0);
    }
}

impl NodeState for ProtocolNode {
    fn protocol(&self) -> ProtocolConfig {
        self.config
    }

    fn local(&self) -> f64 {
        self.local_value
    }

    #[inline]
    fn epochs(&self) -> EpochManager {
        self.epochs
    }

    #[inline]
    fn set_epochs(&mut self, epochs: EpochManager) {
        self.epochs = epochs;
        // The default instance carries its node's epoch.
        self.default_instance.set_epoch(epochs.current_epoch());
    }

    #[inline]
    fn default_state(&mut self) -> (&mut f64, &mut u32) {
        self.default_instance.parts_mut()
    }

    #[inline]
    fn led(&mut self) -> &mut [LedSlot] {
        &mut self.led
    }

    fn insert_led(&mut self, index: usize, slot: LedSlot) {
        self.led.insert(index, slot);
    }

    fn clear_led(&mut self) {
        self.led.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateKind;

    fn config_with_epoch(cycles: u32) -> ProtocolConfig {
        ProtocolConfig::builder()
            .cycles_per_epoch(cycles)
            .build()
            .unwrap()
    }

    /// The push messages `node` sends `peer` to begin one exchange.
    fn pushes(node: &mut ProtocolNode, peer: NodeId) -> Vec<GossipMessage> {
        let mut pushes = Vec::new();
        node.begin_exchange_into(peer, &mut pushes);
        pushes
    }

    fn exchange(a: &mut ProtocolNode, b: &mut ProtocolNode) {
        for push in pushes(a, b.id()) {
            if let Some(reply) = b.handle_message(push) {
                a.handle_message(reply);
            }
        }
    }

    #[test]
    fn exchange_averages_both_nodes() {
        let config = ProtocolConfig::default();
        let mut a = ProtocolNode::new(NodeId::new(0), config, 0.0);
        let mut b = ProtocolNode::new(NodeId::new(1), config, 8.0);
        exchange(&mut a, &mut b);
        assert_eq!(a.estimate(), Some(4.0));
        assert_eq!(b.estimate(), Some(4.0));
    }

    #[test]
    fn self_exchange_is_a_no_op() {
        let config = ProtocolConfig::default();
        let mut a = ProtocolNode::new(NodeId::new(0), config, 5.0);
        assert!(pushes(&mut a, NodeId::new(0)).is_empty());
    }

    #[test]
    fn stale_epoch_messages_are_dropped() {
        let config = config_with_epoch(1);
        let mut a = ProtocolNode::new(NodeId::new(0), config, 1.0);
        let mut b = ProtocolNode::new(NodeId::new(1), config, 3.0);
        // Finish an epoch on b so that it is in epoch 1 while a's messages are
        // still tagged with epoch 0.
        b.end_cycle();
        assert_eq!(b.current_epoch(), 1);
        let sent = pushes(&mut a, b.id());
        assert_eq!(sent.len(), 1);
        assert!(b.handle_message(sent[0]).is_none());
        // b's estimate is untouched.
        assert_eq!(b.estimate(), Some(3.0));
    }

    #[test]
    fn newer_epoch_messages_trigger_a_jump_and_restart() {
        let config = config_with_epoch(2);
        let mut a = ProtocolNode::new(NodeId::new(0), config, 1.0);
        let mut b = ProtocolNode::new(NodeId::new(1), config, 3.0);
        // Drag a's estimate away from its local value within epoch 0.
        exchange(&mut a, &mut b);
        assert_eq!(a.estimate(), Some(2.0));
        // Advance b to epoch 1.
        b.end_cycle();
        b.end_cycle();
        assert_eq!(b.current_epoch(), 1);
        // b initiates towards a; a must jump to epoch 1, restart from its
        // local value and then absorb the push.
        exchange(&mut b, &mut a);
        assert_eq!(a.current_epoch(), 1);
        assert!(!a.epochs.participated_from_epoch_start());
        // After restart a's state was 1.0 (its local value), b pushed 3.0.
        assert_eq!(a.estimate(), Some(2.0));
        assert_eq!(b.estimate(), Some(2.0));
    }

    #[test]
    fn end_cycle_reports_the_converged_epoch_result() {
        let config = config_with_epoch(2);
        let mut a = ProtocolNode::new(NodeId::new(0), config, 10.0);
        let mut b = ProtocolNode::new(NodeId::new(1), config, 20.0);
        exchange(&mut a, &mut b);
        assert!(a.end_cycle().is_none());
        exchange(&mut a, &mut b);
        let result = a.end_cycle().expect("second cycle completes the epoch");
        assert_eq!(result.epoch, 0);
        assert!(result.full_participation);
        assert_eq!(result.default_estimate(), Some(15.0));
        // After the epoch the default instance restarts from the local value.
        assert_eq!(a.estimate(), Some(10.0));
        assert_eq!(a.current_epoch(), 1);
    }

    #[test]
    fn local_value_changes_take_effect_at_the_next_epoch() {
        let config = config_with_epoch(1);
        let mut a = ProtocolNode::new(NodeId::new(0), config, 10.0);
        a.set_local_value(99.0);
        assert_eq!(a.estimate(), Some(10.0), "running estimate is untouched");
        a.end_cycle();
        assert_eq!(a.estimate(), Some(99.0), "restart picks up the new value");
        assert_eq!(a.local_value(), 99.0);
    }

    #[test]
    fn joining_node_stays_passive_and_ignores_the_running_epoch() {
        let config = config_with_epoch(5);
        let mut veteran = ProtocolNode::new(NodeId::new(0), config, 4.0);
        let mut newcomer = ProtocolNode::joining(NodeId::new(1), config, 100.0, 1, 3);
        assert!(!newcomer.can_participate());
        assert!(pushes(&mut newcomer, veteran.id()).is_empty());
        // Pushes from the running epoch 0 are stale for the newcomer.
        let sent = pushes(&mut veteran, newcomer.id());
        assert!(newcomer.handle_message(sent[0]).is_none());
        assert_eq!(newcomer.estimate(), Some(100.0));
        // A message tagged with the awaited epoch activates it.
        let mut future_peer = ProtocolNode::new(NodeId::new(2), config, 8.0);
        for _ in 0..5 {
            future_peer.end_cycle();
        }
        assert_eq!(future_peer.current_epoch(), 1);
        let sent = pushes(&mut future_peer, newcomer.id());
        assert!(newcomer.handle_message(sent[0]).is_some());
        assert!(newcomer.can_participate());
        assert_eq!(newcomer.estimate(), Some(54.0)); // (100 + 8) / 2
    }

    #[test]
    fn led_instances_are_gossiped_and_dropped_at_epoch_end() {
        let config = ProtocolConfig::builder()
            .cycles_per_epoch(2)
            .late_join(LateJoinPolicy::FixedState(0.0))
            .build()
            .unwrap();
        let mut leader = ProtocolNode::new(NodeId::new(0), config, 0.0);
        let mut other = ProtocolNode::new(NodeId::new(1), config, 0.0);
        let tag = InstanceTag::from_leader(leader.id());
        leader.start_led_instance(tag, 1.0);
        assert_eq!(leader.instance_estimate(tag), Some(1.0));

        exchange(&mut leader, &mut other);
        // The other node late-joined the led instance with state 0, so both
        // now hold 0.5 — the converged value for N = 2 would be 1/2.
        assert_eq!(leader.instance_estimate(tag), Some(0.5));
        assert_eq!(other.instance_estimate(tag), Some(0.5));

        // Epoch end drops the led instance but reports its estimate.
        leader.end_cycle();
        let result = leader.end_cycle().unwrap();
        assert!(result
            .estimates
            .iter()
            .any(|(t, v)| *t == tag && (*v - 0.5).abs() < 1e-12));
        assert_eq!(leader.instance_estimate(tag), None);
        assert_eq!(leader.instance_estimate(InstanceTag::DEFAULT), Some(0.0));
    }

    #[test]
    fn replies_for_unknown_instances_are_ignored() {
        let config = ProtocolConfig::default();
        let mut a = ProtocolNode::new(NodeId::new(0), config, 1.0);
        let orphan_reply = GossipMessage::Reply {
            from: NodeId::new(9),
            to: a.id(),
            instance: InstanceTag(77),
            epoch: 0,
            value: 123.0,
        };
        assert!(a.handle_message(orphan_reply).is_none());
        assert_eq!(a.estimate(), Some(1.0));
    }

    #[test]
    fn maximum_aggregate_runs_through_the_node_layer() {
        let config = ProtocolConfig::builder()
            .aggregate(AggregateKind::Maximum)
            .build()
            .unwrap();
        let mut a = ProtocolNode::new(NodeId::new(0), config, 3.0);
        let mut b = ProtocolNode::new(NodeId::new(1), config, 11.0);
        exchange(&mut a, &mut b);
        assert_eq!(a.estimate(), Some(11.0));
        assert_eq!(b.estimate(), Some(11.0));
    }

    #[test]
    fn accessors_expose_configuration_and_instances() {
        let config = ProtocolConfig::default();
        let node = ProtocolNode::new(NodeId::new(3), config, 2.0);
        assert_eq!(node.id(), NodeId::new(3));
        assert_eq!(node.config.cycles_per_epoch(), 30);
        assert_eq!(node.instance_estimate(InstanceTag::DEFAULT), Some(2.0));
        assert_eq!(node.instance_estimate(InstanceTag(5)), None);
        assert!(node.epochs.participated_from_epoch_start());
    }
}
