//! [`PeerSampler`] implementations backed by this crate's membership
//! machinery: a live NEWSCAST protocol and static overlay graphs.
//!
//! The simulation engines in `gossip-sim` drive any [`PeerSampler`] through
//! the same three hooks — `begin_cycle` (overlay maintenance, in lockstep
//! with aggregation cycles), `sample` (one pick per initiating node) and the
//! churn notifications — so swapping the paper's idealised uniform sampling
//! for a realistic membership service is a one-line configuration change
//! ([`aggregate_core::sampler::SamplerConfig`]).

use crate::newscast::{pair_mut, ExchangeBuffers};
use crate::{NewscastNode, NodeDescriptor, PartialView};
use aggregate_core::sampler::{PeerSampler, SamplerConfig, SamplerDirectory};
use overlay_topology::{
    BuiltTopology, NodeId, Topology, TopologyBuilder, TopologyError, TopologyKind,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::collections::HashMap; // lint-allow(nondeterminism): NewscastSampler's id → slot index, keyed lookups only
use std::hash::{BuildHasherDefault, Hasher};

/// A live NEWSCAST membership service acting as the peer sampler of a
/// simulation: every live node keeps a partial view ("cache") of
/// `cache_size` descriptors; once per aggregation cycle each node exchanges
/// and merges views with its oldest known peer, then all descriptors age by
/// one. Exchange partners for the *aggregation* protocol are drawn uniformly
/// from the initiator's current view.
///
/// Failure handling is exactly the paper's: there is no failure detector.
/// Descriptors of departed nodes age until they fall off the cache tail, and
/// a failed exchange attempt drops the stale descriptor immediately
/// (tail-drop healing, reported by the engine through
/// [`PeerSampler::peer_failed`]).
///
/// Determinism: membership randomness (exchange order, bootstrap contacts)
/// comes from an internal RNG seeded at construction; sampling randomness
/// comes from the engine's seeded pick stream. Exchanges run in the drawn
/// order over directory positions, and every other pass (aging, in-degree
/// and stale counts) treats each member on its own, so the trajectory is a
/// pure function of the seeds whatever order members are stored in.
///
/// Layout: members live in a dense slab of slots (`Vec<Option<…>>`), and a
/// departure frees its slot for the next join. An id → slot hash index is
/// used for keyed lookups only and is never iterated. An exchange performs
/// two index lookups and refills two buffers the sampler owns, so it does
/// not allocate.
///
/// # Example
///
/// ```
/// use aggregate_core::sampler::{PeerSampler, SliceDirectory};
/// use overlay_topology::NodeId;
/// use peer_sampling::NewscastSampler;
/// use rand::SeedableRng;
///
/// let live: Vec<NodeId> = (0..100).map(NodeId::new).collect();
/// let directory = SliceDirectory::new(&live);
/// let mut sampler = NewscastSampler::new(8, &live, 42);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
///
/// // A few cycles of view exchange fill and randomise the caches…
/// for _ in 0..10 {
///     sampler.begin_cycle(&directory);
/// }
/// // …after which every node can produce a partner from its own view.
/// let peer = sampler.sample(&directory, 3, &mut rng).unwrap();
/// assert_ne!(peer, NodeId::new(3));
/// assert_eq!(sampler.view_of(NodeId::new(3)).unwrap().len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct NewscastSampler {
    cache_size: usize,
    /// Member state by slot; `None` marks a free slot.
    slots: Vec<Option<NewscastNode>>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    /// Member id → slot.
    index: SlotIndex,
    rng: StdRng,
    /// Scratch buffer for the per-cycle exchange order.
    order: Vec<NodeId>,
    exchange: ExchangeBuffers,
}

// lint-allow(nondeterminism): keyed lookups only; every pass over members walks the slots
type SlotIndex = HashMap<NodeId, u32, BuildHasherDefault<IdHasher>>;

/// A fixed multiplicative hash for [`NodeId`] keys: one multiply by the
/// 64-bit golden ratio, rotated so the well-mixed high half of the product
/// selects the bucket. Ids that differ only in high bits (shard or
/// generation tags) therefore still spread. Keys are the ids the engine or
/// runtime admits as members, never ids read off the wire, so there is no
/// crafted-collision input to defend against.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

impl NewscastSampler {
    /// Creates the sampler over an initial population, bootstrapping each
    /// node's view with `cache_size` uniformly random contacts — the
    /// steady-state regime the paper's experiments start from (a NEWSCAST
    /// overlay converges to a `c`-out random graph within a few cycles from
    /// any connected start, so this skips the transient without changing
    /// the dynamics).
    ///
    /// `membership_seed` seeds the internal RNG driving bootstrap contacts
    /// and the per-cycle exchange order; the engines derive it from the
    /// master seed via a labelled stream so it never interferes with the
    /// aggregation draws.
    ///
    /// # Panics
    ///
    /// Panics if `cache_size` is zero.
    pub fn new(cache_size: usize, initial: &[NodeId], membership_seed: u64) -> Self {
        assert!(cache_size > 0, "newscast cache size must be positive");
        let n = initial.len();
        let contacts_per_node = cache_size.min(n.saturating_sub(1));
        let mut sampler = NewscastSampler {
            cache_size,
            slots: Vec::with_capacity(n),
            free: Vec::new(),
            index: SlotIndex::with_capacity_and_hasher(n, BuildHasherDefault::default()),
            rng: StdRng::seed_from_u64(membership_seed),
            order: Vec::new(),
            exchange: ExchangeBuffers::default(),
        };
        let mut contacts: Vec<NodeId> = Vec::with_capacity(contacts_per_node);
        for (i, &id) in initial.iter().enumerate() {
            // Distinct random contacts, drawn positionally so the bootstrap
            // is invariant under the engines' id layouts.
            contacts.clear();
            while contacts.len() < contacts_per_node {
                let pos = sampler.rng.gen_range(0..n);
                let candidate = initial[pos];
                if pos != i && !contacts.contains(&candidate) {
                    contacts.push(candidate);
                }
            }
            sampler.admit(NewscastNode::new(id, cache_size, &contacts));
        }
        sampler
    }

    /// Stores `node` as a member: in place of its previous state if its id
    /// is already a member, else in the most recently freed slot or a new
    /// one.
    fn admit(&mut self, node: NewscastNode) {
        let id = node.id();
        let slot = match self.index.get(&id) {
            Some(&slot) => slot as usize,
            None => {
                let slot = match self.free.pop() {
                    Some(slot) => slot as usize,
                    None => {
                        self.slots.push(None);
                        self.slots.len() - 1
                    }
                };
                // lint-allow(unwrap): at most one slot per distinct u32 NodeId, so slots fit a u32
                let key = u32::try_from(slot).expect("slot fits u32");
                self.index.insert(id, key);
                slot
            }
        };
        self.slots[slot] = Some(node);
    }

    /// The member state of `id`, if it is a member.
    fn member(&self, id: NodeId) -> Option<&NewscastNode> {
        let slot = *self.index.get(&id)?;
        self.slots[slot as usize].as_ref()
    }

    /// Mutable member state of `id`, if it is a member.
    fn member_mut(&mut self, id: NodeId) -> Option<&mut NewscastNode> {
        let slot = *self.index.get(&id)?;
        self.slots[slot as usize].as_mut()
    }

    /// Every member's state, in slot order.
    fn members(&self) -> impl Iterator<Item = &NewscastNode> {
        self.slots.iter().flatten()
    }

    /// Number of nodes currently holding membership state.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` when no node holds membership state.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Read access to a node's current partial view, if the node is known.
    pub fn view_of(&self, id: NodeId) -> Option<&PartialView> {
        self.member(id).map(NewscastNode::view)
    }

    /// In-degree of every member: how many *other* members currently list it
    /// in their view. A healthy peer-sampling service keeps this
    /// distribution narrow; the view-dynamics tests bound it.
    pub fn in_degrees(&self) -> BTreeMap<NodeId, usize> {
        let mut degrees: BTreeMap<NodeId, usize> =
            self.members().map(|node| (node.id(), 0)).collect();
        for descriptor in self.members().flat_map(|node| node.view().iter()) {
            if let Some(count) = degrees.get_mut(&descriptor.node) {
                *count += 1;
            }
        }
        degrees
    }

    /// Number of *stale* descriptors across all views: entries naming a node
    /// that no longer holds membership state. Self-healing drives this to
    /// zero after a failure burst; the dynamics tests assert it.
    pub fn stale_descriptors(&self) -> usize {
        self.members()
            .flat_map(|node| node.view().iter())
            .filter(|descriptor| !self.index.contains_key(&descriptor.node))
            .count()
    }
}

impl PeerSampler for NewscastSampler {
    fn config(&self) -> SamplerConfig {
        SamplerConfig::Newscast {
            cache_size: self.cache_size,
        }
    }

    /// One NEWSCAST cycle: every member (in a shuffled order drawn from the
    /// internal RNG) exchanges views with its oldest known peer — dropping
    /// the descriptor instead when that peer has departed — then every view
    /// ages by one.
    ///
    /// The exchange order is drawn over *directory positions*, not raw
    /// identifiers: the sharded engine's directory order is invariant under
    /// the shard count (identifiers are not — they embed shard bits), and
    /// iterating positionally is what keeps NEWSCAST-sampled node
    /// trajectories bit-identical across 1/2/4/8 shards.
    fn begin_cycle(&mut self, directory: &dyn SamplerDirectory) {
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend((0..directory.len()).map(|pos| directory.id_at(pos)));
        order.shuffle(&mut self.rng);
        for initiator in &order {
            let Some(&slot) = self.index.get(initiator) else {
                continue;
            };
            let slot = slot as usize;
            let Some(partner) = self.slots[slot]
                .as_ref()
                .and_then(NewscastNode::exchange_partner)
            else {
                continue;
            };
            match self.index.get(&partner) {
                Some(&partner_slot) => {
                    if let Some((Some(a), Some(b))) =
                        pair_mut(&mut self.slots, slot, partner_slot as usize)
                    {
                        self.exchange.exchange(a, b);
                    }
                }
                // The oldest entry points at a departed node: heal the view
                // (no failure detector — the failed contact attempt is the
                // detection) and skip this cycle's membership exchange.
                None => {
                    if let Some(node) = self.slots[slot].as_mut() {
                        node.evict(partner);
                    }
                }
            }
        }
        for node in self.slots.iter_mut().flatten() {
            node.end_cycle();
        }
        self.order = order;
    }

    fn sample(
        &mut self,
        directory: &dyn SamplerDirectory,
        initiator_pos: usize,
        rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        self.member(directory.id_at(initiator_pos))?
            .view()
            .random_peer(rng)
    }

    /// A joining node learns one uniformly random live contact (the paper's
    /// "a joining node knows an arbitrary member"); gossip spreads its
    /// descriptor from there.
    fn on_join(&mut self, id: NodeId, directory: &dyn SamplerDirectory) {
        let n = directory.len();
        let mut bootstrap = Vec::new();
        if n > 1 {
            // The directory already contains the newcomer; reject self-picks.
            // The loop terminates because some other node exists (n > 1).
            loop {
                let contact = directory.id_at(self.rng.gen_range(0..n));
                if contact != id {
                    bootstrap.push(contact);
                    break;
                }
            }
        }
        self.admit(NewscastNode::new(id, self.cache_size, &bootstrap));
        // Tell the contact about the newcomer as well (the join handshake's
        // other half), so isolated newcomers cannot linger unreferenced.
        if let Some(&contact) = bootstrap.first() {
            if let Some(node) = self.member_mut(contact) {
                node.complete_exchange(&[NodeDescriptor::fresh(id)]);
            }
        }
    }

    fn on_depart(&mut self, id: NodeId) {
        if let Some(slot) = self.index.remove(&id) {
            self.slots[slot as usize] = None;
            self.free.push(slot);
        }
    }

    fn peer_failed(&mut self, initiator: NodeId, peer: NodeId) {
        if let Some(node) = self.member_mut(initiator) {
            node.evict(peer);
        }
    }
}

/// Peer sampling along the edges of a static overlay graph generated once at
/// construction — the setting of the paper's Figure 3(b) overlay sweep
/// (random regular graphs, small worlds, scale-free graphs, …).
///
/// The overlay's vertices are bound to the initial population in directory
/// order. Under churn the binding evolves deterministically: a departure
/// vacates its vertex (neighbours drawing it simply fail that attempt, as a
/// crashed neighbour would), and a later join re-occupies the most recently
/// vacated vertex. Joins beyond the vacancy pool stay overlay-isolated and
/// never initiate (a static overlay has no room for them — use
/// [`NewscastSampler`] for workloads where the overlay must follow churn).
#[derive(Debug, Clone)]
pub struct StaticOverlaySampler {
    kind: TopologyKind,
    topology: BuiltTopology,
    /// Vertex → current occupant.
    occupant: Vec<Option<NodeId>>,
    /// Occupant → vertex.
    vertex_of: BTreeMap<NodeId, usize>,
    /// Vacated vertices, re-assigned LIFO.
    vacant: Vec<usize>,
}

impl StaticOverlaySampler {
    /// Generates the overlay over the initial population (vertex `i` ↔
    /// `initial[i]`), with generator randomness from `topology_seed`.
    ///
    /// # Errors
    ///
    /// Propagates [`TopologyError`] for invalid generator parameters (degree
    /// too large, probability out of range, …).
    pub fn new(
        kind: TopologyKind,
        initial: &[NodeId],
        topology_seed: u64,
    ) -> Result<Self, TopologyError> {
        let mut rng = StdRng::seed_from_u64(topology_seed);
        let topology = TopologyBuilder::new(kind)
            .nodes(initial.len())
            .build(&mut rng)?;
        Ok(StaticOverlaySampler {
            kind,
            topology,
            occupant: initial.iter().map(|&id| Some(id)).collect(),
            vertex_of: initial.iter().enumerate().map(|(v, &id)| (id, v)).collect(),
            vacant: Vec::new(),
        })
    }
}

impl PeerSampler for StaticOverlaySampler {
    fn config(&self) -> SamplerConfig {
        SamplerConfig::StaticOverlay {
            topology: self.kind,
        }
    }

    fn sample(
        &mut self,
        directory: &dyn SamplerDirectory,
        initiator_pos: usize,
        rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        let id = directory.id_at(initiator_pos);
        let vertex = *self.vertex_of.get(&id)?;
        let neighbor = self.topology.random_neighbor(NodeId::new(vertex), rng)?;
        // A vacated neighbour vertex is a crashed peer: the contact attempt
        // fails and the initiator skips this cycle, as in the paper's model.
        self.occupant[neighbor.index()]
    }

    fn on_join(&mut self, id: NodeId, _directory: &dyn SamplerDirectory) {
        if let Some(vertex) = self.vacant.pop() {
            self.occupant[vertex] = Some(id);
            self.vertex_of.insert(id, vertex);
        }
    }

    fn on_depart(&mut self, id: NodeId) {
        if let Some(vertex) = self.vertex_of.remove(&id) {
            self.occupant[vertex] = None;
            self.vacant.push(vertex);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggregate_core::sampler::{sample_live_peer, SliceDirectory};

    fn ids(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(9)
    }

    #[test]
    fn newscast_views_fill_to_cache_size_and_samples_stay_live() {
        let live = ids(200);
        let directory = SliceDirectory::new(&live);
        let mut sampler = NewscastSampler::new(10, &live, 1);
        for _ in 0..15 {
            sampler.begin_cycle(&directory);
        }
        let mut r = rng();
        for (pos, &own) in live.iter().enumerate() {
            assert_eq!(sampler.view_of(own).unwrap().len(), 10);
            let peer = sample_live_peer(&mut sampler, &directory, pos, &mut r).unwrap();
            assert_ne!(peer, own);
        }
        assert_eq!(sampler.cache_size, 10);
        assert_eq!(sampler.len(), 200);
    }

    #[test]
    fn newscast_same_seed_same_trajectory() {
        let live = ids(60);
        let directory = SliceDirectory::new(&live);
        let run = || {
            let mut sampler = NewscastSampler::new(6, &live, 77);
            let mut r = StdRng::seed_from_u64(5);
            let mut picks = Vec::new();
            for _ in 0..10 {
                sampler.begin_cycle(&directory);
                for pos in 0..60 {
                    picks.push(sampler.sample(&directory, pos, &mut r));
                }
            }
            picks
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn newscast_joins_bootstrap_and_departures_heal() {
        let mut live = ids(50);
        let mut sampler = NewscastSampler::new(5, &live, 3);
        {
            let directory = SliceDirectory::new(&live);
            for _ in 0..10 {
                sampler.begin_cycle(&directory);
            }
        }
        // Depart 10 nodes, join one newcomer.
        for dead in live.drain(0..10) {
            sampler.on_depart(dead);
        }
        let newcomer = NodeId::new(1_000);
        live.push(newcomer);
        let directory = SliceDirectory::new(&live);
        sampler.on_join(newcomer, &directory);
        assert_eq!(sampler.len(), 41);
        let bootstrap = sampler.view_of(newcomer).unwrap();
        assert_eq!(bootstrap.len(), 1, "newcomer knows exactly one contact");
        assert!(
            sampler.stale_descriptors() > 0,
            "views still cache the departed"
        );
        // A few cycles of aging + tail-drop flush every stale descriptor and
        // spread the newcomer.
        for _ in 0..40 {
            sampler.begin_cycle(&directory);
        }
        assert_eq!(sampler.stale_descriptors(), 0);
        assert!(
            sampler.in_degrees()[&newcomer] > 0,
            "the newcomer must be gossiped into other views"
        );
    }

    #[test]
    fn newscast_peer_failed_evicts_the_stale_descriptor() {
        let live = ids(10);
        let directory = SliceDirectory::new(&live);
        let mut sampler = NewscastSampler::new(4, &live, 1);
        sampler.begin_cycle(&directory);
        let initiator = live[0];
        let peer = sampler.view_of(initiator).unwrap().node_ids()[0];
        sampler.peer_failed(initiator, peer);
        assert!(!sampler
            .view_of(initiator)
            .unwrap()
            .node_ids()
            .contains(&peer));
    }

    #[test]
    fn newscast_rejoin_of_a_member_replaces_its_state_in_place() {
        let live = ids(30);
        let directory = SliceDirectory::new(&live);
        let mut sampler = NewscastSampler::new(6, &live, 4);
        for _ in 0..5 {
            sampler.begin_cycle(&directory);
        }
        let member = live[7];
        let slot = sampler.index[&member];
        assert_eq!(sampler.view_of(member).unwrap().len(), 6);
        sampler.on_join(member, &directory);
        assert_eq!(
            sampler.view_of(member).unwrap().len(),
            1,
            "a re-join starts from a one-contact view, as a map insert would"
        );
        assert_eq!(sampler.index[&member], slot, "state replaced in place");
        assert_eq!(sampler.slots.len(), 30, "no slot leaked");
        assert_eq!(sampler.len(), 30);
    }

    #[test]
    fn newscast_depart_then_join_reuses_the_freed_slot() {
        let mut live = ids(20);
        let mut sampler = NewscastSampler::new(4, &live, 5);
        let departed = live.remove(3);
        let slot = sampler.index[&departed];
        sampler.on_depart(departed);
        sampler.on_depart(departed);
        assert!(sampler.view_of(departed).is_none());
        assert_eq!(sampler.free, vec![slot], "a repeated departure frees once");
        let newcomer = NodeId::new(100);
        live.push(newcomer);
        sampler.on_join(newcomer, &SliceDirectory::new(&live));
        assert_eq!(sampler.index[&newcomer], slot);
        assert!(sampler.free.is_empty());
        assert!(sampler.view_of(departed).is_none());
        assert_eq!(sampler.view_of(newcomer).unwrap().len(), 1);
    }

    #[test]
    fn newscast_len_counts_members_not_slots() {
        let mut live = ids(10);
        let mut sampler = NewscastSampler::new(3, &live, 6);
        for dead in live.drain(0..4) {
            sampler.on_depart(dead);
        }
        assert_eq!(sampler.len(), 6);
        assert_eq!(sampler.slots.len(), 10, "freed slots stay in the slab");
        assert_eq!(sampler.in_degrees().len(), 6);
        for dead in live.drain(..) {
            sampler.on_depart(dead);
        }
        assert!(sampler.is_empty());
        assert_eq!(sampler.stale_descriptors(), 0);
    }

    #[test]
    fn static_overlay_samples_along_edges_only() {
        let live = ids(30);
        let directory = SliceDirectory::new(&live);
        let mut sampler = StaticOverlaySampler::new(TopologyKind::Ring, &live, 11).unwrap();
        let mut r = rng();
        for pos in 0..30 {
            let peer = sampler.sample(&directory, pos, &mut r).unwrap();
            let delta = (peer.index() as i64 - pos as i64).rem_euclid(30);
            assert!(
                delta == 1 || delta == 29,
                "ring neighbours only, got {peer}"
            );
        }
        assert_eq!(
            sampler.config(),
            SamplerConfig::StaticOverlay {
                topology: TopologyKind::Ring
            }
        );
    }

    #[test]
    fn static_overlay_departures_vacate_and_joins_reoccupy() {
        let live = ids(20);
        let directory = SliceDirectory::new(&live);
        let mut sampler =
            StaticOverlaySampler::new(TopologyKind::RandomRegular { degree: 4 }, &live, 13)
                .unwrap();
        sampler.on_depart(live[7]);
        assert_eq!(sampler.vertex_of.get(&live[7]), None);
        // The vacated vertex's neighbours now occasionally fail the attempt.
        let newcomer = NodeId::new(500);
        sampler.on_join(newcomer, &directory);
        assert_eq!(sampler.vertex_of.get(&newcomer), Some(&7));
        // A join without a vacancy stays overlay-isolated.
        let extra = NodeId::new(501);
        sampler.on_join(extra, &directory);
        assert_eq!(sampler.vertex_of.get(&extra), None);
        let mut r = rng();
        assert!(sampler.sample(&directory, 0, &mut r).is_some());
    }

    #[test]
    fn static_overlay_invalid_parameters_error() {
        let live = ids(5);
        assert!(
            StaticOverlaySampler::new(TopologyKind::RandomRegular { degree: 10 }, &live, 1)
                .is_err()
        );
    }
}
