//! The per-node newscast protocol state machine.

use crate::{NodeDescriptor, PartialView};
use overlay_topology::NodeId;

/// The membership state of one node running the newscast protocol.
///
/// Once per membership cycle the node picks a peer from its view, the two
/// exchange their full views plus a fresh descriptor of themselves, and both
/// keep the `view_size` freshest descriptors of the union. The node also ages
/// its view every cycle, so descriptors of crashed nodes grow old and are
/// eventually pushed out — failure handling without a failure detector.
///
/// # Example
///
/// ```
/// use overlay_topology::NodeId;
/// use peer_sampling::NewscastNetwork;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// // Three nodes, each knowing only its successor on a ring.
/// let mut network = NewscastNetwork::bootstrap_ring(3, 4);
/// assert_eq!(network.node(NodeId::new(0)).view().len(), 1);
///
/// // One cycle: every node exchanges views with its oldest peer, so each
/// // learns of the third node, and then every descriptor ages by one.
/// network.run_cycle(&mut rng);
/// for i in 0..3 {
///     let view = network.node(NodeId::new(i)).view();
///     assert_eq!(view.len(), 2);
///     assert!(view.iter().all(|d| d.node != NodeId::new(i) && d.age >= 1));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewscastNode {
    id: NodeId,
    view: PartialView,
}

impl NewscastNode {
    /// Creates a node with the given view size, seeded with `bootstrap`
    /// contacts (fresh descriptors).
    ///
    /// # Panics
    ///
    /// Panics if `view_size` is zero.
    pub(crate) fn new(id: NodeId, view_size: usize, bootstrap: &[NodeId]) -> Self {
        let mut view = PartialView::new(view_size);
        let contacts = bootstrap.iter().filter(|&&peer| peer != id);
        view.admit_all(contacts.map(|&peer| NodeDescriptor::fresh(peer)));
        NewscastNode { id, view }
    }

    /// This node's identifier.
    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    /// Read access to the current view.
    pub fn view(&self) -> &PartialView {
        &self.view
    }

    /// Chooses the peer to exchange views with this cycle: the *oldest* known
    /// peer, the last of them on an age tie, or `None` on an empty view.
    ///
    /// Oldest-first is CYCLON's partner rule; NEWSCAST as published picks a
    /// random cache entry. The fidelity check of item 4 in `ROADMAP.md`
    /// makes the policy explicit and defaults to the paper's.
    pub(crate) fn exchange_partner(&self) -> Option<NodeId> {
        self.view.oldest_peer()
    }

    /// Writes the descriptor list this node sends in an exchange, its whole
    /// view plus a fresh descriptor of itself, into `payload`, which is
    /// cleared first, so one buffer serves every exchange.
    pub(crate) fn write_payload(&self, payload: &mut Vec<NodeDescriptor>) {
        payload.clear();
        payload.extend(self.view.iter());
        payload.push(NodeDescriptor::fresh(self.id));
    }

    /// Merges the payload a peer sent into the view; both sides of an
    /// exchange end with it.
    pub(crate) fn complete_exchange(&mut self, payload: &[NodeDescriptor]) {
        self.view.merge(payload, self.id);
    }

    /// Ends the membership cycle: ages every descriptor by one.
    pub(crate) fn end_cycle(&mut self) {
        self.view.age_all();
    }

    /// Drops a peer from the view (used when an exchange attempt failed).
    pub(crate) fn evict(&mut self, peer: NodeId) -> bool {
        self.view.remove(peer)
    }
}

/// The one per-exchange step behind both whole-population cycles
/// ([`crate::NewscastNetwork`] and [`crate::NewscastSampler`]): owns the
/// offer and response buffers, which every exchange refills instead of
/// allocating.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExchangeBuffers {
    offer: Vec<NodeDescriptor>,
    response: Vec<NodeDescriptor>,
}

impl ExchangeBuffers {
    /// One membership exchange initiated by `initiator` with `partner`.
    /// Both payloads are taken before either side merges, so each side
    /// merges the other's pre-exchange view, mirroring the push–pull
    /// structure of the aggregation exchange.
    pub(crate) fn exchange(&mut self, initiator: &mut NewscastNode, partner: &mut NewscastNode) {
        initiator.write_payload(&mut self.offer);
        partner.write_payload(&mut self.response);
        partner.complete_exchange(&self.offer);
        initiator.complete_exchange(&self.response);
    }
}

/// Mutable access to two distinct elements of `items`; `None` when the
/// indices coincide or either is out of range.
pub(crate) fn pair_mut<T>(items: &mut [T], a: usize, b: usize) -> Option<(&mut T, &mut T)> {
    if a == b || a.max(b) >= items.len() {
        return None;
    }
    let (low, high) = items.split_at_mut(a.max(b));
    let (at_min, at_max) = (&mut low[a.min(b)], &mut high[0]);
    Some(if a < b {
        (at_min, at_max)
    } else {
        (at_max, at_min)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::oracle_merge;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn bootstrap_excludes_self_references() {
        let node = NewscastNode::new(NodeId::new(0), 5, &[NodeId::new(0), NodeId::new(1)]);
        assert_eq!(node.view().node_ids(), vec![NodeId::new(1)]);
        assert_eq!(node.id(), NodeId::new(0));
    }

    #[test]
    fn exchange_spreads_membership_information() {
        // a knows b, b knows c; after one a<->b exchange a must know c too.
        let mut a = NewscastNode::new(NodeId::new(0), 5, &[NodeId::new(1)]);
        let mut b = NewscastNode::new(NodeId::new(1), 5, &[NodeId::new(2)]);
        ExchangeBuffers::default().exchange(&mut a, &mut b);
        assert!(a.view().node_ids().contains(&NodeId::new(2)));
        assert!(a.view().node_ids().contains(&NodeId::new(1)));
        assert!(b.view().node_ids().contains(&NodeId::new(0)));
        // Neither node ever lists itself.
        assert!(!a.view().node_ids().contains(&NodeId::new(0)));
        assert!(!b.view().node_ids().contains(&NodeId::new(1)));
    }

    #[test]
    fn pair_mut_hands_out_two_distinct_elements_in_argument_order() {
        let mut items = [10, 20, 30];
        assert_eq!(pair_mut(&mut items, 2, 0), Some((&mut 30, &mut 10)));
        assert_eq!(pair_mut(&mut items, 0, 1), Some((&mut 10, &mut 20)));
        assert!(pair_mut(&mut items, 1, 1).is_none());
        assert!(pair_mut(&mut items, 0, 3).is_none());
    }

    #[test]
    fn payload_contains_a_fresh_self_descriptor() {
        let node = NewscastNode::new(NodeId::new(4), 3, &[NodeId::new(1)]);
        let mut payload = vec![NodeDescriptor::fresh(NodeId::new(8))];
        node.write_payload(&mut payload);
        assert_eq!(payload.len(), 2, "the buffer is cleared first");
        assert!(payload
            .iter()
            .any(|d| d.node == NodeId::new(4) && d.age == 0));
    }

    #[test]
    fn end_cycle_ages_the_view_and_partner_selection_prefers_old_entries() {
        let mut node = NewscastNode::new(NodeId::new(0), 4, &[NodeId::new(1), NodeId::new(2)]);
        node.end_cycle();
        node.view().iter().for_each(|d| assert_eq!(d.age, 1));
        // Make node 2 older explicitly by inserting node 1 fresh again.
        node.complete_exchange(&[NodeDescriptor::fresh(NodeId::new(1))]);
        assert_eq!(node.exchange_partner(), Some(NodeId::new(2)));
    }

    #[test]
    fn eviction_removes_failed_peers() {
        let mut node = NewscastNode::new(NodeId::new(0), 4, &[NodeId::new(1), NodeId::new(2)]);
        assert!(node.evict(NodeId::new(1)));
        assert!(!node.evict(NodeId::new(1)));
        assert_eq!(node.view().node_ids(), vec![NodeId::new(2)]);
    }

    #[test]
    fn random_peers_come_from_the_view_and_never_name_the_node_itself() {
        let node = NewscastNode::new(
            NodeId::new(0),
            4,
            &[
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3),
            ],
        );
        let mut r = rng();
        for _ in 0..50 {
            let peer = node.view().random_peer(&mut r).unwrap();
            assert!(node.view().node_ids().contains(&peer));
            assert_ne!(peer, NodeId::new(0));
        }
        let empty = NewscastNode::new(NodeId::new(9), 4, &[]);
        assert!(empty.view().random_peer(&mut r).is_none());
    }

    /// Node `id` with its view `pairs` merged by the oracle. Drawn ages from
    /// 5 up move to 30 and over, so the merge's shared last age bucket (31
    /// and older) comes up beside the ties of small ages.
    fn drawn_node(id: usize, capacity: usize, pairs: &[(usize, u32)]) -> NewscastNode {
        let age = |drawn: u32| if drawn < 5 { drawn } else { drawn + 25 };
        let incoming: Vec<NodeDescriptor> = pairs
            .iter()
            .map(|&(node, drawn)| NodeDescriptor {
                node: NodeId::new(node),
                age: age(drawn),
            })
            .collect();
        let mut view = PartialView::new(capacity);
        oracle_merge(&mut view, &incoming, NodeId::new(id));
        NewscastNode {
            id: NodeId::new(id),
            view,
        }
    }

    /// The oracle's oldest peer: the last entry of maximum age.
    fn oracle_oldest(node: &NewscastNode) -> Option<NodeId> {
        node.view.iter().max_by_key(|d| d.age).map(|d| d.node)
    }

    proptest! {
        /// `ExchangeBuffers::exchange` leaves both nodes as both
        /// `write_payload`s followed by `oracle_merge` each way: the same
        /// entries at the same positions, and the same oldest peer. Twelve
        /// ids make shared ids and duplicates common and few ages make ties
        /// common; views are drawn full and part-full, capacity 1 included,
        /// and the initiator (node 0) is often in the partner's view.
        #[test]
        fn prop_exchange_matches_payloads_then_oracle_merges(
            capacity in 1usize..7,
            initiator_view in proptest::collection::vec((0usize..12, 0u32..10), 0..12),
            partner_view in proptest::collection::vec((0usize..12, 0u32..10), 0..12),
            partner_knows_initiator in proptest::bool::ANY,
            initiator_age in 0u32..10,
        ) {
            let mut partner_view = partner_view;
            if partner_knows_initiator {
                partner_view.insert(0, (0, initiator_age));
            }
            let initiator = drawn_node(0, capacity, &initiator_view);
            let partner = drawn_node(1, capacity, &partner_view);
            let (mut a, mut b) = (initiator.clone(), partner.clone());
            ExchangeBuffers::default().exchange(&mut a, &mut b);

            let (mut offer, mut response) = (Vec::new(), Vec::new());
            initiator.write_payload(&mut offer);
            partner.write_payload(&mut response);
            let (mut expected_a, mut expected_b) = (initiator, partner);
            oracle_merge(&mut expected_b.view, &offer, expected_b.id);
            oracle_merge(&mut expected_a.view, &response, expected_a.id);
            prop_assert_eq!(&a, &expected_a);
            prop_assert_eq!(&b, &expected_b);
            prop_assert_eq!(a.exchange_partner(), oracle_oldest(&expected_a));
            prop_assert_eq!(b.exchange_partner(), oracle_oldest(&expected_b));
        }
    }
}
