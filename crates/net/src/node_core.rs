//! The per-node protocol step shared by both gossip-net runtimes.
//!
//! [`NodeCore`] wraps one [`ProtocolNode`] and drives every state transition
//! through [`ExchangeCore`] — `begin` for the active half, `deliver` for each
//! in-flight message — while tracking the *one* piece of state a live
//! transport adds over a simulator: whether this node currently has an
//! exchange in flight (pushes sent, replies awaited).
//!
//! That pending flag is what fixes the old runtime's silent mass leak:
//! push–pull conserves the network-wide sum only if the initiator's state is
//! untouched between reading its value into the push and absorbing the
//! reply. A concurrent push arriving in that window used to be served
//! anyway, silently breaking conservation. `NodeCore` instead rejects
//! overlapping pushes ([`Delivery::RejectedOverlap`]) — the would-be
//! initiator simply times out and retries next cycle, exactly as it would
//! after a lost message — and drops replies that match no pending exchange
//! ([`Delivery::UnmatchedReply`]), so a late reply cannot be absorbed twice.
//! A push or reply carrying a NaN or infinite value is dropped unprocessed
//! ([`Delivery::RejectedNonFinite`]): one such value, absorbed, would spread
//! to every node.

use aggregate_core::node::{EpochResult, ProtocolNode};
use aggregate_core::{ExchangeCore, GossipMessage};
use overlay_topology::NodeId;

/// Outcome of delivering one in-flight message to a [`NodeCore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delivery {
    /// A push was absorbed and this reply must be sent back to its sender.
    Reply(GossipMessage),
    /// The message was absorbed with no reply owed (e.g. a stale-epoch push
    /// the node dropped, or a push that triggered an epoch jump).
    Absorbed,
    /// A reply matching the pending exchange was absorbed; more replies are
    /// still expected (one per push sent).
    ReplyAbsorbed,
    /// The final expected reply was absorbed and the pending exchange is now
    /// closed — the node can serve pushes again immediately.
    ExchangeComplete,
    /// A push arrived while this node awaits a reply of its own. It was
    /// dropped *unprocessed* — serving it would mutate the initiator state
    /// between `begin` and the reply, violating mass conservation.
    RejectedOverlap,
    /// A reply that matches no pending exchange (late, duplicate, or from a
    /// peer this node never pushed to). Dropped unprocessed.
    UnmatchedReply,
    /// A push or reply whose value is NaN or infinite. Dropped unprocessed:
    /// the node's state is untouched, and a pending exchange stays pending
    /// until [`NodeCore::close_pending`].
    RejectedNonFinite,
}

/// State of one pending (awaiting-reply) exchange.
#[derive(Debug, Clone, Copy)]
struct Pending {
    peer: NodeId,
    /// Replies expected: one per push the exchange sent.
    expected: usize,
    replies_absorbed: usize,
}

/// One node's protocol state plus the in-flight exchange tracking a live
/// message path needs. Both gossip-net runtimes — the threaded
/// [`crate::GossipRuntime`] and the deterministic [`crate::VirtualCluster`]
/// — step their nodes exclusively through this type.
#[derive(Debug)]
pub struct NodeCore {
    node: ProtocolNode,
    pending: Option<Pending>,
}

impl NodeCore {
    /// Wraps a protocol node with no exchange in flight.
    pub fn new(node: ProtocolNode) -> Self {
        NodeCore {
            node,
            pending: None,
        }
    }

    /// The node's identifier.
    pub(crate) fn id(&self) -> NodeId {
        self.node.id()
    }

    /// Read access to the wrapped protocol node.
    pub(crate) fn node(&self) -> &ProtocolNode {
        &self.node
    }

    /// Mutable access to the wrapped protocol node (leader election, value
    /// corruption — the non-exchange operations an engine performs).
    pub(crate) fn node_mut(&mut self) -> &mut ProtocolNode {
        &mut self.node
    }

    /// Whether an exchange is currently awaiting replies.
    pub(crate) fn is_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Active half: fills `pushes` via [`ExchangeCore::begin`] and marks the
    /// exchange pending. Returns `false` — initiating nothing — when the node
    /// may not participate, has nothing to push, or still has an exchange in
    /// flight (callers close the previous exchange with
    /// [`NodeCore::close_pending`] at their cycle boundary first).
    pub fn begin(&mut self, peer: NodeId, pushes: &mut Vec<GossipMessage>) -> bool {
        if self.pending.is_some() {
            return false;
        }
        if !ExchangeCore::begin(&mut self.node, peer, pushes) {
            return false;
        }
        self.pending = Some(Pending {
            peer,
            expected: pushes.len(),
            replies_absorbed: 0,
        });
        true
    }

    /// Delivers one received message through [`ExchangeCore::deliver`],
    /// enforcing the finiteness and no-overlap rules documented on
    /// [`Delivery`].
    pub fn deliver(&mut self, message: GossipMessage) -> Delivery {
        let (GossipMessage::Push { value, .. } | GossipMessage::Reply { value, .. }) = message;
        if !value.is_finite() {
            return Delivery::RejectedNonFinite;
        }
        match message {
            GossipMessage::Push { .. } => {
                if self.pending.is_some() {
                    return Delivery::RejectedOverlap;
                }
                match ExchangeCore::deliver(&mut self.node, message) {
                    Some(reply) => Delivery::Reply(reply),
                    None => Delivery::Absorbed,
                }
            }
            GossipMessage::Reply { from, .. } => match self.pending.as_mut() {
                Some(pending) if pending.peer == from => {
                    ExchangeCore::deliver(&mut self.node, message);
                    pending.replies_absorbed += 1;
                    if pending.replies_absorbed >= pending.expected {
                        // Every push was answered: the exchange is settled,
                        // free the node to serve pushes again right away
                        // instead of holding the lock-out until the cycle
                        // boundary (two nodes pushing at each other every
                        // cycle would otherwise reject forever).
                        self.pending = None;
                        Delivery::ExchangeComplete
                    } else {
                        Delivery::ReplyAbsorbed
                    }
                }
                _ => Delivery::UnmatchedReply,
            },
        }
    }

    /// Closes a still-pending exchange, if any — the timeout path for
    /// exchanges whose replies were (partially) lost; fully-answered
    /// exchanges close themselves on [`Delivery::ExchangeComplete`].
    /// `Some(true)` when at least one reply was absorbed, `Some(false)` when
    /// none arrived (replies arriving later are dropped as
    /// [`Delivery::UnmatchedReply`]), `None` when nothing was pending.
    pub fn close_pending(&mut self) -> Option<bool> {
        self.pending.take().map(|p| p.replies_absorbed > 0)
    }

    /// End-of-cycle bookkeeping on the wrapped node (epoch advance/restart).
    pub fn end_cycle(&mut self) -> Option<EpochResult> {
        self.node.end_cycle()
    }

    /// The node's current default-instance estimate.
    pub fn estimate(&self) -> Option<f64> {
        self.node.estimate()
    }

    /// The epoch the node is currently executing.
    pub(crate) fn current_epoch(&self) -> u64 {
        self.node.current_epoch()
    }

    /// Updates the node's local attribute value (picked up at the next epoch
    /// restart, as in the paper's adaptive protocol).
    pub(crate) fn set_local_value(&mut self, value: f64) {
        self.node.set_local_value(value);
    }

    /// Overwrites the node's running estimate (the fault lab's adversarial
    /// value injection).
    pub(crate) fn corrupt_estimate(&mut self, value: f64) {
        self.node.corrupt_estimate(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggregate_core::ProtocolConfig;

    fn core(id: usize, value: f64) -> NodeCore {
        NodeCore::new(ProtocolNode::new(
            NodeId::new(id),
            ProtocolConfig::default(),
            value,
        ))
    }

    #[test]
    fn full_exchange_through_deliver_matches_direct_averaging() {
        let mut a = core(0, 2.0);
        let mut b = core(1, 6.0);
        let mut pushes = Vec::new();
        assert!(a.begin(NodeId::new(1), &mut pushes));
        assert!(a.is_pending());
        let Delivery::Reply(reply) = b.deliver(pushes[0]) else {
            panic!("push must produce a reply");
        };
        // One push sent → the one reply settles the exchange on the spot.
        assert_eq!(a.deliver(reply), Delivery::ExchangeComplete);
        assert!(!a.is_pending());
        assert_eq!(a.close_pending(), None);
        assert_eq!(a.estimate(), Some(4.0));
        assert_eq!(b.estimate(), Some(4.0));
    }

    #[test]
    fn overlapping_push_is_rejected_and_conserves_mass() {
        let mut a = core(0, 0.0);
        let mut b = core(1, 10.0);
        let mut c = core(2, 20.0);
        let mut pushes = Vec::new();
        // a is mid-exchange with b …
        assert!(a.begin(NodeId::new(1), &mut pushes));
        let ab_push = pushes[0];
        // … when c pushes to a: rejected unprocessed, a's state untouched.
        let mut c_pushes = Vec::new();
        assert!(c.begin(NodeId::new(0), &mut c_pushes));
        assert_eq!(a.deliver(c_pushes[0]), Delivery::RejectedOverlap);
        assert_eq!(a.estimate(), Some(0.0));
        // The a↔b exchange still completes exactly.
        let Delivery::Reply(reply) = b.deliver(ab_push) else {
            panic!("push must produce a reply");
        };
        assert_eq!(a.deliver(reply), Delivery::ExchangeComplete);
        // c's exchange timed out; total mass is conserved.
        assert_eq!(c.close_pending(), Some(false));
        let total: f64 = [&a, &b, &c].iter().filter_map(|n| n.estimate()).sum();
        assert_eq!(total, 30.0);
    }

    #[test]
    fn late_and_unmatched_replies_are_dropped() {
        let mut a = core(0, 2.0);
        let mut b = core(1, 6.0);
        let mut pushes = Vec::new();
        assert!(a.begin(NodeId::new(1), &mut pushes));
        let Delivery::Reply(reply) = b.deliver(pushes[0]) else {
            panic!("push must produce a reply");
        };
        // The exchange times out before the reply arrives …
        assert_eq!(a.close_pending(), Some(false));
        // … so the late reply must not be absorbed.
        assert_eq!(a.deliver(reply), Delivery::UnmatchedReply);
        assert_eq!(a.estimate(), Some(2.0));
        // A reply from a peer other than the pending one is equally dropped.
        assert!(a.begin(NodeId::new(1), &mut pushes));
        let stray = GossipMessage::Reply {
            from: NodeId::new(3),
            to: NodeId::new(0),
            instance: aggregate_core::InstanceTag::DEFAULT,
            epoch: 0,
            value: 9.0,
        };
        assert_eq!(a.deliver(stray), Delivery::UnmatchedReply);
        assert_eq!(a.estimate(), Some(2.0));
    }

    /// A NaN or infinite value, in a push or in a reply, is rejected and
    /// leaves the node as it was: a rejected reply leaves the exchange
    /// pending until `close_pending`.
    #[test]
    fn non_finite_pushes_and_replies_are_rejected_unprocessed() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let (mut a, mut b) = (core(0, 2.0), core(1, 6.0));
            let mut pushes = Vec::new();
            assert!(a.begin(NodeId::new(1), &mut pushes));
            let GossipMessage::Push { value, .. } = &mut pushes[0] else {
                panic!("begin forms pushes");
            };
            *value = bad;
            let before = format!("{:?}", b.node());
            assert_eq!(b.deliver(pushes[0]), Delivery::RejectedNonFinite, "{bad}");
            assert_eq!(format!("{:?}", b.node()), before, "{bad}: push");
            assert!(!b.is_pending());

            let reply = GossipMessage::Reply {
                from: NodeId::new(1),
                to: NodeId::new(0),
                instance: aggregate_core::InstanceTag::DEFAULT,
                epoch: 0,
                value: bad,
            };
            let before = format!("{:?}", a.node());
            assert_eq!(a.deliver(reply), Delivery::RejectedNonFinite, "{bad}");
            assert_eq!(format!("{:?}", a.node()), before, "{bad}: reply");
            assert!(a.is_pending(), "{bad}: the exchange stays pending");
            assert_eq!(a.close_pending(), Some(false));
        }
    }

    #[test]
    fn begin_refuses_while_pending() {
        let mut a = core(0, 1.0);
        let mut pushes = Vec::new();
        assert!(a.begin(NodeId::new(1), &mut pushes));
        assert!(!a.begin(NodeId::new(2), &mut pushes));
        a.close_pending();
        assert!(a.begin(NodeId::new(2), &mut pushes));
    }
}
