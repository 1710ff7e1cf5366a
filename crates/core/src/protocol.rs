//! The node-level push–pull exchange state machine (Figure 1 of the paper).
//!
//! The types in this module are deliberately I/O free: they describe *what* a
//! node sends and how it updates its state, while the transport — a
//! discrete-event simulator (`gossip-sim`), a threaded UDP runtime
//! (`gossip-net`) or anything else — decides *how* messages travel. This is
//! what lets the same protocol implementation be validated in simulation and
//! then deployed unchanged.

use crate::aggregate::AggregateKind;
use overlay_topology::NodeId;

/// Identifier of an aggregation instance.
///
/// The basic protocol runs a single instance (`InstanceTag::default()`); the
/// network-size estimator of Section 4 runs one instance per elected leader,
/// tagged with the leader's node id, and the epoch-restart machinery keeps
/// instances of different epochs apart via the epoch number carried in every
/// message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InstanceTag(pub u64);

impl InstanceTag {
    /// Tag of the default (single) aggregation instance.
    pub const DEFAULT: InstanceTag = InstanceTag(0);

    /// Builds a tag from the leader that started the instance (used by the
    /// network-size estimator, which tags every concurrent instance with the
    /// address of its leader).
    pub fn from_leader(leader: NodeId) -> Self {
        // Offset by one so the leader-0 instance does not collide with DEFAULT.
        InstanceTag(u64::from(leader.as_u32()) + 1)
    }
}

/// A protocol message.
///
/// The exchange is push–pull: the active node sends [`GossipMessage::Push`]
/// with its current approximation, the passive node replies with
/// [`GossipMessage::Reply`] carrying its *pre-update* approximation, and both
/// then apply the aggregate function. Every message is tagged with the epoch
/// it belongs to (Section 4's restart mechanism) and the instance tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GossipMessage {
    /// First half of the exchange, sent by the initiating (active) node.
    Push {
        /// Sender of the push.
        from: NodeId,
        /// Target of the push.
        to: NodeId,
        /// Aggregation instance this exchange belongs to.
        instance: InstanceTag,
        /// Epoch the sender is currently in.
        epoch: u64,
        /// The sender's current approximation `x_i`.
        value: f64,
    },
    /// Second half of the exchange, sent back by the passive node.
    Reply {
        /// Sender of the reply (the passive node).
        from: NodeId,
        /// Target of the reply (the original initiator).
        to: NodeId,
        /// Aggregation instance this exchange belongs to.
        instance: InstanceTag,
        /// Epoch the sender is currently in.
        epoch: u64,
        /// The passive node's approximation `x_j` *before* it applied the
        /// aggregate.
        value: f64,
    },
}

impl GossipMessage {
    /// The node this message is addressed to.
    pub fn recipient(&self) -> NodeId {
        match self {
            GossipMessage::Push { to, .. } | GossipMessage::Reply { to, .. } => *to,
        }
    }

    /// The node that sent this message.
    pub fn sender(&self) -> NodeId {
        match self {
            GossipMessage::Push { from, .. } | GossipMessage::Reply { from, .. } => *from,
        }
    }

    /// The epoch stamped on this message.
    pub(crate) fn epoch(&self) -> u64 {
        match self {
            GossipMessage::Push { epoch, .. } | GossipMessage::Reply { epoch, .. } => *epoch,
        }
    }
}

/// Per-instance protocol state of one node: the local attribute value `a_i`,
/// the current approximation `x_i` and book-keeping for epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AggregationInstance {
    kind: AggregateKind,
    local_value: f64,
    state: f64,
    epoch: u64,
    exchanges: u32,
}

impl AggregationInstance {
    /// Creates an instance for `kind`, initialising the approximation from the
    /// node's local attribute value (`x_i := a_i`, the paper's time-0 state).
    pub(crate) fn new(kind: AggregateKind, local_value: f64, epoch: u64) -> Self {
        AggregationInstance {
            kind,
            local_value,
            state: kind.init_value(local_value),
            epoch,
            exchanges: 0,
        }
    }

    /// Creates an instance whose *initial state* is given explicitly rather
    /// than derived from the local value. Used by the network-size estimator,
    /// where non-leader nodes start from `0.0` regardless of their local
    /// attribute.
    pub(crate) fn with_initial_state(
        kind: AggregateKind,
        local_value: f64,
        state: f64,
        epoch: u64,
    ) -> Self {
        AggregationInstance {
            kind,
            local_value,
            state,
            epoch,
            exchanges: 0,
        }
    }

    /// The aggregate this instance computes.
    #[inline]
    pub(crate) fn kind(&self) -> AggregateKind {
        self.kind
    }

    /// Updates the local attribute value. The running approximation is *not*
    /// touched — the new value takes effect when the next epoch restarts the
    /// instance, which is exactly how the paper makes the protocol adaptive.
    pub(crate) fn set_local_value(&mut self, value: f64) {
        self.local_value = value;
    }

    /// Number of exchanges this instance has completed in the current epoch.
    pub(crate) fn exchanges(&self) -> u32 {
        self.exchanges
    }

    /// The raw internal state `x_i` (before the aggregate's estimate
    /// transform). This is the value that travels in messages.
    #[inline]
    pub(crate) fn state(&self) -> f64 {
        self.state
    }

    /// The user-facing estimate of the aggregate.
    #[inline]
    pub(crate) fn estimate(&self) -> f64 {
        self.kind.estimate_value(self.state)
    }

    /// Writes back the fields an engine keeps in columns (see
    /// [`crate::node::ProtocolNode::from_parts`]): running state, epoch and
    /// exchange counter in one call, leaving the kind and local value
    /// untouched. Equivalent to replaying the stored exchanges and epoch
    /// restarts on this instance.
    pub(crate) fn restore_hot(&mut self, epoch: u64, state: f64, exchanges: u32) {
        self.epoch = epoch;
        self.state = state;
        self.exchanges = exchanges;
    }

    /// Overwrites the running approximation in place, leaving the local
    /// value, epoch and exchange counter untouched.
    ///
    /// This is the adversarial hook of the fault-injection lab
    /// (`gossip-faults`): a value-injection fault corrupts the *converging
    /// state* a malicious participant could report, not the node's true
    /// attribute — so subsequent exchanges dilute the corruption and the
    /// next epoch restart flushes it, exactly the recovery behaviour the
    /// robustness experiments measure.
    pub(crate) fn corrupt_state(&mut self, state: f64) {
        self.state = state;
    }

    /// Active side, step 1: returns the approximation to push to the peer.
    #[inline]
    pub(crate) fn initiate(&self) -> f64 {
        self.state
    }

    /// Passive side: absorbs a pushed approximation and returns the value to
    /// send back (the *pre-update* local approximation, as in Figure 1 where
    /// node `n_j` first sends `x_j` and then sets `x_j := aggregate(x_j, x_i)`).
    #[inline]
    pub(crate) fn absorb_push(&mut self, pushed: f64) -> f64 {
        crate::exchange::absorb(self.kind, &mut self.state, &mut self.exchanges, pushed)
    }

    /// Active side, step 2: absorbs the reply and completes the exchange.
    #[inline]
    pub(crate) fn absorb_reply(&mut self, replied: f64) {
        crate::exchange::absorb(self.kind, &mut self.state, &mut self.exchanges, replied);
    }

    /// Moves the instance to its node's `epoch`.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The running state and exchange count, for the exchange kernel.
    #[inline]
    pub(crate) fn parts_mut(&mut self) -> (&mut f64, &mut u32) {
        (&mut self.state, &mut self.exchanges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_tag_from_leader_is_unique_per_leader_and_nonzero() {
        let a = InstanceTag::from_leader(NodeId::new(0));
        let b = InstanceTag::from_leader(NodeId::new(1));
        assert_ne!(a, b);
        assert_ne!(a, InstanceTag::DEFAULT);
        assert_ne!(b, InstanceTag::DEFAULT);
    }

    #[test]
    fn message_accessors() {
        let push = GossipMessage::Push {
            from: NodeId::new(1),
            to: NodeId::new(2),
            instance: InstanceTag(7),
            epoch: 3,
            value: 0.5,
        };
        assert_eq!(push.sender(), NodeId::new(1));
        assert_eq!(push.recipient(), NodeId::new(2));
        assert_eq!(push.epoch(), 3);

        let reply = GossipMessage::Reply {
            from: NodeId::new(2),
            to: NodeId::new(1),
            instance: InstanceTag(7),
            epoch: 3,
            value: 0.25,
        };
        assert_eq!(reply.sender(), NodeId::new(2));
        assert_eq!(reply.recipient(), NodeId::new(1));
    }

    #[test]
    fn full_push_pull_exchange_averages_both_sides() {
        let mut a = AggregationInstance::new(AggregateKind::Average, 0.0, 0);
        let mut b = AggregationInstance::new(AggregateKind::Average, 100.0, 0);
        let pushed = a.initiate();
        let replied = b.absorb_push(pushed);
        a.absorb_reply(replied);
        assert_eq!(a.estimate(), 50.0);
        assert_eq!(b.estimate(), 50.0);
        assert_eq!(a.exchanges(), 1);
        assert_eq!(b.exchanges(), 1);
    }

    #[test]
    fn exchange_preserves_pairwise_mass() {
        let mut a = AggregationInstance::new(AggregateKind::Average, 13.5, 0);
        let mut b = AggregationInstance::new(AggregateKind::Average, -7.25, 0);
        let sum_before = a.state() + b.state();
        let replied = b.absorb_push(a.initiate());
        a.absorb_reply(replied);
        let sum_after = a.state() + b.state();
        assert!((sum_before - sum_after).abs() < 1e-12);
    }

    #[test]
    fn lost_reply_keeps_passive_side_consistent() {
        // If the reply is lost, only the active node misses the update; the
        // passive node has already applied the aggregate. Mass is no longer
        // conserved exactly — this is the failure mode the robustness
        // benchmarks quantify — but each individual state stays finite and
        // within the convex hull of the inputs.
        let a = AggregationInstance::new(AggregateKind::Average, 0.0, 0);
        let mut b = AggregationInstance::new(AggregateKind::Average, 100.0, 0);
        let _lost_reply = b.absorb_push(a.initiate());
        assert_eq!(b.estimate(), 50.0);
        assert_eq!(a.estimate(), 0.0);
    }

    #[test]
    fn max_instance_converges_to_max_via_exchanges() {
        let mut a = AggregationInstance::new(AggregateKind::Maximum, 3.0, 0);
        let mut b = AggregationInstance::new(AggregateKind::Maximum, 9.0, 0);
        let replied = b.absorb_push(a.initiate());
        a.absorb_reply(replied);
        assert_eq!(a.estimate(), 9.0);
        assert_eq!(b.estimate(), 9.0);
    }

    #[test]
    fn moment_instance_reports_transformed_estimate() {
        let inst = AggregationInstance::new(AggregateKind::Moment { order: 2 }, 3.0, 0);
        // Internal state is 9 (squared); the estimate is the raw second moment.
        assert_eq!(inst.state(), 9.0);
        assert_eq!(inst.estimate(), 9.0);
        assert_eq!(inst.kind(), AggregateKind::Moment { order: 2 });
    }
}
