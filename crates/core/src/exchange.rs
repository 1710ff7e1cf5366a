//! Engine-agnostic push–pull exchange core.
//!
//! Every runtime in this workspace — the reference cycle engine and the
//! sharded engine in `gossip-sim`, as well as the wire cluster and the live
//! runtime in `gossip-net` — ultimately
//! performs the same node-level step: the initiator pushes one message per
//! live instance, the peer absorbs each push and replies with its pre-update
//! approximation, and the initiator absorbs the replies (Figure 1 of the
//! paper). [`ExchangeCore`] is that step, extracted once so the engines only
//! differ in *scheduling* (who exchanges with whom, when, on which thread),
//! never in protocol semantics.
//!
//! The core is deliberately split into resumable halves —
//! [`ExchangeCore::begin`] on the initiator and [`ExchangeCore::deliver`]
//! for each message in flight — because message-passing runtimes (the wire
//! cluster, the live runtime) execute the two sides of an
//! exchange with a message hop in between. With both nodes in hand, an
//! engine runs the one kernel, [`ExchangeCore::exchange_instances`], without
//! building a message: the initiator's instances as slices, the peer as a
//! [`NodeState`] — a [`ProtocolNode`] ([`ExchangeCore::exchange`]) or an
//! engine's columns for one node. The kernel performs bit-identical
//! arithmetic and draws loss decisions in bit-identical order, so an engine
//! may mix kernel and split execution freely without perturbing results. A
//! proptest below holds the two equal, and the determinism suite's
//! `/wire ≡ /ref` cells pin the reference engine's kernel run to the wire
//! cluster's message path.
//!
//! Message loss is injected through a `FnMut() -> bool` closure so the core
//! stays independent of any particular RNG or failure model; the closure is
//! consulted once per push and once per produced reply, in message order.

use crate::aggregate::AggregateKind;
use crate::node::{LedSlot, NodeState, ProtocolNode};
use crate::protocol::{GossipMessage, InstanceTag};
use overlay_topology::NodeId;

/// Running counters over one or more exchanges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeTally {
    /// Number of exchanges that produced at least one push message.
    pub exchanges: usize,
    /// Number of messages (pushes and replies) dropped by the loss model.
    pub messages_lost: usize,
}

/// Reusable scratch for engines that drive millions of exchanges per cycle:
/// a buffer an engine copies an initiator's led instances into when they
/// live in storage the peer's side of the exchange borrows too.
#[derive(Debug, Default)]
pub struct ExchangeScratch {
    /// The buffer.
    pub led: Vec<LedSlot>,
}

impl ExchangeScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        ExchangeScratch::default()
    }
}

/// One side's absorb, the arithmetic every exchange path shares: merges
/// `value` into `state`, counts the exchange and returns the pre-update
/// state (what a passive side replies). Always inlined: behind a call, the
/// fused raw path ran measurably slower.
#[inline(always)]
pub(crate) fn absorb(kind: AggregateKind, state: &mut f64, exchanges: &mut u32, value: f64) -> f64 {
    let before = *state;
    *state = kind.merge_values(before, value);
    *exchanges += 1;
    before
}

/// Passive side of one led instance: finds `tag` in the peer's store from
/// merge cursor `from` (every slot before it holds a smaller tag), creates
/// it under the late-join policy when missing, absorbs `pushed` and returns
/// the pre-update state. Leaves the cursor just past the instance.
#[inline]
pub(crate) fn absorb_led_push(
    peer: &mut impl NodeState,
    from: &mut usize,
    kind: AggregateKind,
    tag: InstanceTag,
    pushed: f64,
) -> f64 {
    let led = peer.led();
    let index = *from + led[*from..].iter().take_while(|s| s.tag < tag).count();
    if led.get(index).map(|s| s.tag) != Some(tag) {
        peer.join_led(index, tag);
    }
    *from = index + 1;
    let slot = &mut peer.led()[index];
    absorb(kind, &mut slot.state, &mut slot.exchanges, pushed)
}

/// The one push–pull exchange implementation shared by every engine.
///
/// `ExchangeCore` is a stateless namespace (`Send + Sync` trivially); all
/// node state lives in the nodes or columns handed to each step.
#[derive(Debug, Clone, Copy)]
pub struct ExchangeCore;

impl ExchangeCore {
    /// Active step: clears `pushes` and fills it with the initiator's push
    /// messages towards `peer`, one per live instance. Returns `true` when
    /// the exchange was actually initiated (the node may participate and has
    /// something to push).
    pub fn begin(
        initiator: &mut ProtocolNode,
        peer: NodeId,
        pushes: &mut Vec<GossipMessage>,
    ) -> bool {
        pushes.clear();
        initiator.begin_exchange_into(peer, pushes);
        !pushes.is_empty()
    }

    /// Delivers one in-flight message to a node, returning the reply to send
    /// back, if any. This is the entry point for engines that model message
    /// transit explicitly (the wire cluster, the live runtime).
    pub fn deliver(node: &mut ProtocolNode, message: GossipMessage) -> Option<GossipMessage> {
        node.handle_message(message)
    }

    /// One full push–pull exchange with both nodes in hand: the kernel
    /// ([`ExchangeCore::exchange_instances`]) when the initiator may
    /// participate and the nodes are distinct, nothing otherwise.
    ///
    /// Equivalent to [`ExchangeCore::begin`], then [`ExchangeCore::deliver`]
    /// of each push to the peer and of each surviving reply back to the
    /// initiator, with the loss model consulted once per push and once per
    /// produced reply — and bit-identical to that sequence in both arithmetic
    /// and loss-draw order, whatever the nodes' epochs and led instances.
    /// `scratch` is not used: both nodes own their state.
    pub fn exchange(
        initiator: &mut ProtocolNode,
        peer: &mut ProtocolNode,
        _scratch: &mut ExchangeScratch,
        lost: &mut impl FnMut() -> bool,
        tally: &mut ExchangeTally,
    ) {
        if !initiator.can_participate() || initiator.id() == peer.id() {
            return;
        }
        let (epoch, kind, state, exchanges, led) = initiator.exchange_parts();
        Self::exchange_instances(kind, epoch, state, exchanges, led, peer, lost, tally);
    }

    /// The fused fast path over raw state words, for engines that keep hot
    /// nodes in dense struct-of-arrays storage instead of [`ProtocolNode`]s.
    ///
    /// Performs exactly the kernel's step for one instance — same arithmetic,
    /// same loss-draw order, same tallies — on `(state, exchanges)` pairs the
    /// caller has already verified to belong to two *distinct* nodes that
    /// both participate, share an epoch, and (for the initiator) run only
    /// the default instance. The determinism suite pins this bit-identical
    /// to the node-based path.
    #[inline]
    pub fn exchange_fused_raw(
        kind: AggregateKind,
        initiator_state: &mut f64,
        initiator_exchanges: &mut u32,
        peer_state: &mut f64,
        peer_exchanges: &mut u32,
        lost: &mut impl FnMut() -> bool,
        tally: &mut ExchangeTally,
    ) {
        tally.exchanges += 1;
        let pushed = *initiator_state;
        let push = || Some(absorb(kind, peer_state, peer_exchanges, pushed));
        Self::fused_instance(lost, tally, push, |replied| {
            absorb(kind, initiator_state, initiator_exchanges, replied);
        });
    }

    /// The exchange kernel: one exchange from an initiator in `epoch` —
    /// default-instance `state` and `exchanges`, led instances `led` sorted
    /// by tag — to `peer`, one step per initiator instance, default first:
    /// a loss draw for the push, the peer's absorb (creating a missing led
    /// instance under its late-join policy), a loss draw for the reply and
    /// the initiator's absorb.
    ///
    /// The caller guarantees the initiator may participate and is not the
    /// peer. The first push the peer receives settles the epochs, as in the
    /// message path: a stale push leaves the peer untouched and draws no
    /// reply coin, so every later push is stale too; a newer epoch restarts
    /// the peer before it absorbs, and every later push then shares its
    /// epoch. The initiator is untouched until its replies, which are
    /// independent across instances, so running each instance's reply right
    /// after its push leaves the state and the draw order of the message
    /// path. The peer's led instances the initiator does
    /// not carry are untouched.
    #[allow(clippy::too_many_arguments)] // the initiator's parts are the kernel's slices
    #[inline]
    pub fn exchange_instances(
        kind: AggregateKind,
        epoch: u64,
        state: &mut f64,
        exchanges: &mut u32,
        led: &mut [LedSlot],
        peer: &mut impl NodeState,
        lost: &mut impl FnMut() -> bool,
        tally: &mut ExchangeTally,
    ) {
        tally.exchanges += 1;
        let mut accepted = None;
        let pushed = *state;
        let push = || {
            if !*accepted.get_or_insert_with(|| peer.accept(epoch)) {
                return None;
            }
            let (peer_state, peer_exchanges) = peer.default_state();
            Some(absorb(kind, peer_state, peer_exchanges, pushed))
        };
        Self::fused_instance(lost, tally, push, |replied| {
            absorb(kind, state, exchanges, replied);
        });
        // A merge cursor over the peer's store: both stores are sorted by tag.
        let mut from = 0;
        for slot in led {
            let (tag, pushed) = (slot.tag, slot.state);
            let push = || {
                if !*accepted.get_or_insert_with(|| peer.accept(epoch)) {
                    return None;
                }
                Some(absorb_led_push(peer, &mut from, kind, tag, pushed))
            };
            Self::fused_instance(lost, tally, push, |replied| {
                absorb(kind, &mut slot.state, &mut slot.exchanges, replied);
            });
        }
    }

    /// One instance of an exchange: the push's loss draw, `push` (the peer
    /// absorbs and returns its pre-update state, or `None` for a stale
    /// push, which draws no reply coin), the reply's loss draw and `reply`
    /// (the initiator absorbs).
    #[inline]
    fn fused_instance(
        lost: &mut impl FnMut() -> bool,
        tally: &mut ExchangeTally,
        push: impl FnOnce() -> Option<f64>,
        reply: impl FnOnce(f64),
    ) {
        if lost() {
            tally.messages_lost += 1;
            return;
        }
        let Some(replied) = push() else {
            return;
        };
        if lost() {
            tally.messages_lost += 1;
            return;
        }
        reply(replied);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LateJoinPolicy, ProtocolConfig};
    use crate::protocol::InstanceTag;
    use proptest::prelude::*;

    /// The message path of one exchange, the reference the kernel is held
    /// to: the passive and final halves of `begin` → `respond` → `complete`.
    impl ExchangeCore {
        /// Passive step: the peer absorbs each push and produces replies.
        ///
        /// For every push the loss model is consulted once for the push itself
        /// and — when the peer produced a reply — once for the reply; surviving
        /// replies are appended to `replies` in push order. Lost messages are
        /// counted in `tally`.
        fn respond(
            peer: &mut ProtocolNode,
            pushes: &[GossipMessage],
            replies: &mut Vec<GossipMessage>,
            lost: &mut impl FnMut() -> bool,
            tally: &mut ExchangeTally,
        ) {
            for &push in pushes {
                if lost() {
                    tally.messages_lost += 1;
                    continue;
                }
                let Some(reply) = peer.handle_message(push) else {
                    continue;
                };
                if lost() {
                    tally.messages_lost += 1;
                    continue;
                }
                replies.push(reply);
            }
        }

        /// Final step: the initiator absorbs the surviving replies.
        fn complete(initiator: &mut ProtocolNode, replies: &[GossipMessage]) {
            for &reply in replies {
                initiator.handle_message(reply);
            }
        }
    }

    fn node(id: u32, value: f64) -> ProtocolNode {
        ProtocolNode::new(NodeId::new(id as usize), ProtocolConfig::default(), value)
    }

    fn no_loss() -> impl FnMut() -> bool {
        || false
    }

    #[test]
    fn fused_and_message_paths_agree_bitwise() {
        // Same initial state driven through both paths must agree exactly.
        let mut a1 = node(0, 3.25);
        let mut b1 = node(1, -1.5);
        let mut tally1 = ExchangeTally::default();
        let mut scratch = ExchangeScratch::new();
        ExchangeCore::exchange(&mut a1, &mut b1, &mut scratch, &mut no_loss(), &mut tally1);

        let mut a2 = node(0, 3.25);
        let mut b2 = node(1, -1.5);
        let mut tally2 = ExchangeTally::default();
        let mut pushes = Vec::new();
        let mut replies = Vec::new();
        assert!(ExchangeCore::begin(&mut a2, b2.id(), &mut pushes));
        tally2.exchanges += 1;
        ExchangeCore::respond(&mut b2, &pushes, &mut replies, &mut no_loss(), &mut tally2);
        ExchangeCore::complete(&mut a2, &replies);

        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_eq!(tally1, tally2);
        assert_eq!(
            a1.estimate().unwrap().to_bits(),
            a2.estimate().unwrap().to_bits()
        );
    }

    #[test]
    fn raw_fused_path_matches_node_fused_path_bitwise() {
        use crate::aggregate::AggregateKind;
        // Every loss pattern the two draws can produce, checked against the
        // node-based fused path on identical starting state.
        for pattern in [vec![false, false], vec![true], vec![false, true]] {
            let mut a = node(0, 3.25);
            let mut b = node(1, -1.5);
            let mut tally = ExchangeTally::default();
            let mut scratch = ExchangeScratch::new();
            let mut draws = pattern.clone().into_iter();
            ExchangeCore::exchange(
                &mut a,
                &mut b,
                &mut scratch,
                &mut move || draws.next().unwrap(),
                &mut tally,
            );

            let (mut sa, mut sb) = (3.25_f64, -1.5_f64);
            let (mut xa, mut xb) = (0_u32, 0_u32);
            let mut raw_tally = ExchangeTally::default();
            let mut draws = pattern.into_iter();
            ExchangeCore::exchange_fused_raw(
                AggregateKind::Average,
                &mut sa,
                &mut xa,
                &mut sb,
                &mut xb,
                &mut move || draws.next().unwrap(),
                &mut raw_tally,
            );

            assert_eq!(tally, raw_tally);
            assert_eq!(a.estimate().unwrap().to_bits(), sa.to_bits());
            assert_eq!(b.estimate().unwrap().to_bits(), sb.to_bits());
            let view_a = a.hot_view().expect("steady-state node is hot");
            let view_b = b.hot_view().expect("steady-state node is hot");
            assert_eq!(view_a.exchanges, xa);
            assert_eq!(view_b.exchanges, xb);
        }
    }

    #[test]
    fn fused_path_draws_losses_in_message_order() {
        // Drop the push: neither state moves, the reply draw never happens.
        let mut a = node(0, 0.0);
        let mut b = node(1, 10.0);
        let mut tally = ExchangeTally::default();
        let mut scratch = ExchangeScratch::new();
        let mut draws = [true].iter().copied();
        ExchangeCore::exchange(
            &mut a,
            &mut b,
            &mut scratch,
            &mut move || draws.next().expect("exactly one draw"),
            &mut tally,
        );
        assert_eq!(
            tally,
            ExchangeTally {
                exchanges: 1,
                messages_lost: 1
            }
        );
        assert_eq!(a.estimate(), Some(0.0));
        assert_eq!(b.estimate(), Some(10.0));

        // Drop only the reply: the peer has absorbed, the initiator has not.
        let mut a = node(0, 0.0);
        let mut b = node(1, 10.0);
        let mut tally = ExchangeTally::default();
        let mut draws = vec![false, true].into_iter();
        ExchangeCore::exchange(
            &mut a,
            &mut b,
            &mut scratch,
            &mut move || draws.next().unwrap(),
            &mut tally,
        );
        assert_eq!(
            tally,
            ExchangeTally {
                exchanges: 1,
                messages_lost: 1
            }
        );
        assert_eq!(a.estimate(), Some(0.0));
        assert_eq!(b.estimate(), Some(5.0));
    }

    #[test]
    fn cross_epoch_exchange_falls_back_to_the_message_path() {
        // Peer one epoch ahead: the initiator must jump and restart, which
        // only the message path implements.
        let config = ProtocolConfig::builder()
            .cycles_per_epoch(1)
            .build()
            .unwrap();
        let mut a = ProtocolNode::new(NodeId::new(0), config, 4.0);
        let mut b = ProtocolNode::new(NodeId::new(1), config, 8.0);
        b.end_cycle();
        assert_eq!(b.current_epoch(), 1);
        let mut tally = ExchangeTally::default();
        let mut scratch = ExchangeScratch::new();
        // b initiates towards a (a is behind).
        ExchangeCore::exchange(&mut b, &mut a, &mut scratch, &mut no_loss(), &mut tally);
        assert_eq!(a.current_epoch(), 1);
        assert_eq!(tally.exchanges, 1);
        assert_eq!(a.estimate(), b.estimate());
    }

    /// An initiator carrying a led instance once fell back to the message
    /// path; the fused multi-instance path now runs it, with the message
    /// path's result.
    #[test]
    fn initiator_with_led_instances_uses_the_message_path() {
        let config = ProtocolConfig::builder()
            .late_join(LateJoinPolicy::FixedState(0.0))
            .build()
            .unwrap();
        let mut leader = ProtocolNode::new(NodeId::new(0), config, 0.0);
        let mut other = ProtocolNode::new(NodeId::new(1), config, 0.0);
        let tag = InstanceTag::from_leader(leader.id());
        leader.start_led_instance(tag, 1.0);
        let mut tally = ExchangeTally::default();
        let mut scratch = ExchangeScratch::new();
        ExchangeCore::exchange(
            &mut leader,
            &mut other,
            &mut scratch,
            &mut no_loss(),
            &mut tally,
        );
        // Both instances travelled: the led instance reached the other node.
        assert_eq!(other.instance_estimate(tag), Some(0.5));
        assert_eq!(tally.exchanges, 1);
    }

    /// One node of `fused_exchange_equals_the_message_path` after `epochs`
    /// epoch restarts: local value `states[8]`, default state `states[9]`
    /// and, for every set bit `t` of `led`, led tag `t + 1` at `states[t]`.
    fn drawn_node(
        id: usize,
        config: ProtocolConfig,
        epochs: u32,
        led: u32,
        states: &[f64],
    ) -> ProtocolNode {
        let mut node = ProtocolNode::new(NodeId::new(id), config, states[8]);
        for _ in 0..epochs * config.cycles_per_epoch() {
            node.end_cycle();
        }
        node.corrupt_estimate(states[9]);
        for (bit, &state) in states[..8].iter().enumerate() {
            if led & (1 << bit) != 0 {
                node.start_led_instance(InstanceTag(bit as u64 + 1), state);
            }
        }
        node
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `exchange` equals `begin` → `respond` → `complete` on two nodes
        /// with any led tags, states, aggregate, late-join policy and loss
        /// coins: node state bit for bit, tallies and coins drawn. One case
        /// in three puts the nodes in different epochs, so the message-path
        /// fallback is held to the same contract.
        #[test]
        fn fused_exchange_equals_the_message_path(
            setup in (0usize..4, proptest::bool::ANY, 0usize..3),
            led in (0u32..256, 0u32..256),
            initiator_states in proptest::collection::vec(0.5f64..100.0, 10..11),
            peer_states in proptest::collection::vec(0.5f64..100.0, 10..11),
            coins in proptest::collection::vec(0u8..3, 18..19),
        ) {
            let ((kind, fixed_late_join, epochs), (initiator_led, peer_led)) = (setup, led);
            let kind = [
                AggregateKind::Average,
                AggregateKind::Maximum,
                AggregateKind::Minimum,
                AggregateKind::GeometricMean,
            ][kind];
            let late_join = if fixed_late_join {
                LateJoinPolicy::FixedState(0.0)
            } else {
                LateJoinPolicy::LocalValue
            };
            let config = ProtocolConfig::builder()
                .aggregate(kind)
                .cycles_per_epoch(2)
                .late_join(late_join)
                .build()
                .unwrap();
            // 0: same epoch; 1: the peer one epoch ahead; 2: the initiator.
            let (ahead_i, ahead_p) = (u32::from(epochs == 2), u32::from(epochs == 1));
            let a = drawn_node(0, config, ahead_i, initiator_led, &initiator_states);
            let b = drawn_node(1, config, ahead_p, peer_led, &peer_states);
            let run = |fused: bool| {
                let (mut a, mut b) = (a.clone(), b.clone());
                let (mut tally, mut drawn) = (ExchangeTally::default(), 0);
                let mut lost = || {
                    drawn += 1;
                    coins[drawn - 1] == 0
                };
                if fused {
                    let mut scratch = ExchangeScratch::new();
                    ExchangeCore::exchange(&mut a, &mut b, &mut scratch, &mut lost, &mut tally);
                } else {
                    let (mut pushes, mut replies) = (Vec::new(), Vec::new());
                    if ExchangeCore::begin(&mut a, b.id(), &mut pushes) {
                        tally.exchanges += 1;
                        ExchangeCore::respond(&mut b, &pushes, &mut replies, &mut lost, &mut tally);
                        ExchangeCore::complete(&mut a, &replies);
                    }
                }
                // `Debug` prints every float in exact round-trip form.
                (format!("{a:?}"), format!("{b:?}"), tally, drawn)
            };
            prop_assert_eq!(run(true), run(false));
        }
    }

    #[test]
    fn passive_initiator_initiates_nothing() {
        let config = ProtocolConfig::default();
        let mut newcomer = ProtocolNode::joining(NodeId::new(0), config, 9.0, 1, 5);
        let mut veteran = node(1, 1.0);
        let mut tally = ExchangeTally::default();
        let mut scratch = ExchangeScratch::new();
        ExchangeCore::exchange(
            &mut newcomer,
            &mut veteran,
            &mut scratch,
            &mut no_loss(),
            &mut tally,
        );
        assert_eq!(tally, ExchangeTally::default());
        assert_eq!(veteran.estimate(), Some(1.0));
    }

    #[test]
    fn deliver_matches_handle_message() {
        let mut a = node(0, 2.0);
        let mut b = node(1, 6.0);
        let mut pushes = Vec::new();
        assert!(ExchangeCore::begin(&mut a, b.id(), &mut pushes));
        let reply = ExchangeCore::deliver(&mut b, pushes[0]).expect("push produces a reply");
        assert!(ExchangeCore::deliver(&mut a, reply).is_none());
        assert_eq!(a.estimate(), Some(4.0));
        assert_eq!(b.estimate(), Some(4.0));
    }
}
