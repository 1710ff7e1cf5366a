//! [`PeerSampler`] implementations backed by this crate's membership
//! machinery: a live NEWSCAST protocol and static overlay graphs.
//!
//! The simulation engines in `gossip-sim` drive any [`PeerSampler`] through
//! the same three hooks — `begin_cycle` (overlay maintenance, in lockstep
//! with aggregation cycles), `sample` (one pick per initiating node) and the
//! churn notifications — so swapping the paper's idealised uniform sampling
//! for a realistic membership service is a one-line configuration change
//! ([`aggregate_core::sampler::SamplerConfig`]).

use crate::view::ViewTable;
use crate::NodeDescriptor;
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
/// Layout: every member's view is a row of one flat table, the slot's
/// `cache_size` descriptors beside the slot's id and view length, so no
/// member has a heap allocation of its own. A departure empties its slot for
/// the next join. An id → slot hash index is used for keyed lookups only and
/// is never iterated. A cycle looks every initiator's slot up once, in
/// directory order, before it shuffles them; an exchange then performs one
/// index lookup (the partner's) and refills two buffers the table owns, so
/// it does not allocate.
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
    /// Every view by slot; a free slot's view is empty.
    views: ViewTable,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    /// Member id → slot.
    index: SlotIndex,
    rng: StdRng,
    /// Scratch buffer for the per-cycle exchange order, as slots.
    order: Vec<u32>,
}

/// The exchange order's mark for a directory entry that is not a member. No
/// slot reaches it: that would take a row for each of the 2³² ids.
const NOT_A_MEMBER: u32 = u32::MAX;

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
        let n = initial.len();
        let contacts_per_node = cache_size.min(n.saturating_sub(1));
        let mut sampler = NewscastSampler {
            views: ViewTable::with_capacity(cache_size, n),
            free: Vec::new(),
            index: SlotIndex::with_capacity_and_hasher(n, BuildHasherDefault::default()),
            rng: StdRng::seed_from_u64(membership_seed),
            order: Vec::new(),
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
            sampler.admit(id, &contacts);
        }
        sampler
    }

    /// Makes `id` a member with a view of fresh descriptors of `contacts`:
    /// in place of its previous view if it is already a member, else in the
    /// most recently freed slot or a new one.
    fn admit(&mut self, id: NodeId, contacts: &[NodeId]) {
        let slot = match self.index.get(&id) {
            Some(&slot) => slot as usize,
            None => {
                let slot = match self.free.pop() {
                    Some(slot) => slot as usize,
                    None => self.views.slots(),
                };
                // lint-allow(unwrap): at most one slot per distinct u32 NodeId, so slots fit a u32
                let key = u32::try_from(slot).expect("slot fits u32");
                self.index.insert(id, key);
                slot
            }
        };
        self.views.reset(slot, id, contacts);
    }

    /// The slot of `id`, if it is a member.
    fn slot(&self, id: NodeId) -> Option<usize> {
        self.index.get(&id).map(|&slot| slot as usize)
    }

    /// Every member's slot, in slot order.
    fn members(&self) -> impl Iterator<Item = usize> + '_ {
        let slots = 0..self.views.slots();
        slots.filter(|&slot| self.slot(self.views.id(slot)) == Some(slot))
    }

    /// Number of nodes currently holding membership state.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` when no node holds membership state.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// A node's current partial view in entry order, if the node is known.
    pub fn view_of(&self, id: NodeId) -> Option<&[NodeDescriptor]> {
        self.slot(id).map(|slot| self.views.view(slot))
    }

    /// In-degree of every member: how many *other* members currently list it
    /// in their view. A healthy peer-sampling service keeps this
    /// distribution narrow; the view-dynamics tests bound it.
    pub fn in_degrees(&self) -> BTreeMap<NodeId, usize> {
        let mut degrees: BTreeMap<NodeId, usize> = self
            .members()
            .map(|slot| (self.views.id(slot), 0))
            .collect();
        for descriptor in self.members().flat_map(|slot| self.views.view(slot)) {
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
            .flat_map(|slot| self.views.view(slot))
            .filter(|descriptor| !self.index.contains_key(&descriptor.node))
            .count()
    }
}

impl PeerSampler for NewscastSampler {
    fn config(&self) -> SamplerConfig {
        SamplerConfig::Newscast {
            cache_size: self.views.cache_size(),
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
        // The slot of every directory entry, then shuffled: the permutation
        // depends on the length alone, so this is the order of the ids.
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend((0..directory.len()).map(|pos| {
            let slot = self.index.get(&directory.id_at(pos));
            slot.map_or(NOT_A_MEMBER, |&slot| slot)
        }));
        order.shuffle(&mut self.rng);
        for &slot in &order {
            if slot == NOT_A_MEMBER {
                continue;
            }
            let slot = slot as usize;
            let Some(partner) = self.views.oldest_peer(slot) else {
                continue;
            };
            match self.index.get(&partner) {
                Some(&partner_slot) => self.views.exchange(slot, partner_slot as usize),
                // The oldest entry points at a departed node: heal the view
                // (no failure detector — the failed contact attempt is the
                // detection) and skip this cycle's membership exchange.
                None => self.views.evict(slot, partner),
            }
        }
        self.views.age_all();
        self.order = order;
    }

    fn sample(
        &mut self,
        directory: &dyn SamplerDirectory,
        initiator_pos: usize,
        rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        let slot = self.slot(directory.id_at(initiator_pos))?;
        self.views.random_peer(slot, rng)
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
        self.admit(id, &bootstrap);
        // Tell the contact about the newcomer as well (the join handshake's
        // other half), so isolated newcomers cannot linger unreferenced.
        if let Some(slot) = bootstrap.first().and_then(|&contact| self.slot(contact)) {
            self.views.merge(slot, [NodeDescriptor::fresh(id)]);
        }
    }

    fn on_depart(&mut self, id: NodeId) {
        if let Some(slot) = self.index.remove(&id) {
            self.views.clear(slot as usize);
            self.free.push(slot);
        }
    }

    fn peer_failed(&mut self, initiator: NodeId, peer: NodeId) {
        if let Some(slot) = self.slot(initiator) {
            self.views.evict(slot, peer);
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
    use crate::view::oracle_merge;
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
        assert_eq!(sampler.views.cache_size(), 10);
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
        let peer = sampler.view_of(initiator).unwrap()[0].node;
        sampler.peer_failed(initiator, peer);
        let view = sampler.view_of(initiator).unwrap();
        assert!(view.iter().all(|d| d.node != peer));
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
        assert_eq!(sampler.views.slots(), 30, "no slot leaked");
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
        assert_eq!(sampler.views.slots(), 10, "freed slots stay in the slab");
        assert_eq!(sampler.in_degrees().len(), 6);
        for dead in live.drain(..) {
            sampler.on_depart(dead);
        }
        assert!(sampler.is_empty());
        assert_eq!(sampler.stale_descriptors(), 0);
    }

    /// [`NewscastSampler`] in its plainest form: one `Vec` per member, keyed
    /// by id, merged by [`oracle_merge`], with the sampler's internal draws
    /// replayed from a twin of its RNG.
    struct Model {
        cache_size: usize,
        views: BTreeMap<NodeId, Vec<NodeDescriptor>>,
        rng: StdRng,
    }

    impl Model {
        fn new(cache_size: usize, initial: &[NodeId], seed: u64) -> Self {
            let mut model = Model {
                cache_size,
                views: BTreeMap::new(),
                rng: StdRng::seed_from_u64(seed),
            };
            let n = initial.len();
            for (i, &id) in initial.iter().enumerate() {
                let mut contacts = Vec::new();
                while contacts.len() < cache_size.min(n - 1) {
                    let pos = model.rng.gen_range(0..n);
                    if pos != i && !contacts.contains(&initial[pos]) {
                        contacts.push(initial[pos]);
                    }
                }
                model.admit(id, &contacts);
            }
            model
        }

        fn admit(&mut self, id: NodeId, contacts: &[NodeId]) {
            let fresh: Vec<NodeDescriptor> =
                contacts.iter().map(|&c| NodeDescriptor::fresh(c)).collect();
            let mut view = Vec::new();
            oracle_merge(&mut view, self.cache_size, &fresh, id);
            self.views.insert(id, view);
        }

        fn join(&mut self, id: NodeId, directory: &[NodeId]) {
            let n = directory.len();
            let mut contact = None;
            while n > 1 && contact.is_none() {
                contact = Some(directory[self.rng.gen_range(0..n)]).filter(|&c| c != id);
            }
            self.admit(id, contact.as_slice());
            if let Some(view) = contact.and_then(|c| self.views.get_mut(&c)) {
                let contact = contact.unwrap_or(id);
                oracle_merge(view, self.cache_size, &[NodeDescriptor::fresh(id)], contact);
            }
        }

        fn begin_cycle(&mut self, directory: &[NodeId]) {
            let mut order = directory.to_vec();
            order.shuffle(&mut self.rng);
            for initiator in order {
                let Some(view) = self.views.get(&initiator) else {
                    continue;
                };
                let Some(partner) = view.iter().max_by_key(|d| d.age).map(|d| d.node) else {
                    continue;
                };
                let Some(partner_view) = self.views.get(&partner) else {
                    self.peer_failed(initiator, partner);
                    continue;
                };
                let payload = |view: &[NodeDescriptor], id| {
                    let mut payload = view.to_vec();
                    payload.push(NodeDescriptor::fresh(id));
                    payload
                };
                let (offer, response) = (payload(view, initiator), payload(partner_view, partner));
                for (id, incoming) in [(partner, offer), (initiator, response)] {
                    let view = self.views.get_mut(&id).unwrap();
                    oracle_merge(view, self.cache_size, &incoming, id);
                }
            }
            for descriptor in self.views.values_mut().flatten() {
                descriptor.age = descriptor.age.saturating_add(1);
            }
        }

        fn peer_failed(&mut self, initiator: NodeId, peer: NodeId) {
            if let Some(view) = self.views.get_mut(&initiator) {
                view.retain(|d| d.node != peer);
            }
        }

        fn sample(&self, id: NodeId, rng: &mut StdRng) -> Option<NodeId> {
            let view = self.views.get(&id).filter(|view| !view.is_empty())?;
            Some(view[rng.gen_range(0..view.len())].node)
        }
    }

    /// Drives a [`NewscastSampler`] and its [`Model`] through one history
    /// and asserts after every step that every view, of members and of
    /// departed ids alike, is equal entry for entry, and so is every pick.
    ///
    /// `steps` are `(op, a, b)`: 0 a cycle; 1 a newcomer joins; 2 the
    /// directory entry `a` joins again (a live member's in-place re-join,
    /// or a departed id's return); 3 and 4 member `a` departs, with 4
    /// leaving it in the directory; 5 member `a` reports its `b`-th view
    /// entry, or a made-up id, as failed; 6 a pick for every directory
    /// entry.
    fn sampler_follows_its_model(
        cache_size: usize,
        members: usize,
        seed: u64,
        steps: &[(u8, usize, usize)],
    ) {
        let mut directory: Vec<NodeId> = (0..members).map(|i| NodeId::new(3 * i + 1)).collect();
        let mut sampler = NewscastSampler::new(cache_size, &directory, seed);
        let mut model = Model::new(cache_size, &directory, seed);
        let (mut picks, mut model_picks) =
            (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let mut next_id = 3 * members + 1;
        for (step, &(op, a, b)) in steps.iter().enumerate() {
            let live: Vec<NodeId> = directory
                .iter()
                .copied()
                .filter(|id| model.views.contains_key(id))
                .collect();
            match op {
                0 => {
                    sampler.begin_cycle(&SliceDirectory::new(&directory));
                    model.begin_cycle(&directory);
                }
                1 | 2 => {
                    let id = if op == 1 || directory.is_empty() {
                        next_id += 3;
                        directory.push(NodeId::new(next_id));
                        NodeId::new(next_id)
                    } else {
                        directory[a % directory.len()]
                    };
                    sampler.on_join(id, &SliceDirectory::new(&directory));
                    model.join(id, &directory);
                }
                3 | 4 if !live.is_empty() => {
                    let id = live[a % live.len()];
                    sampler.on_depart(id);
                    model.views.remove(&id);
                    if op == 3 {
                        directory.retain(|&d| d != id);
                    }
                }
                5 if !live.is_empty() => {
                    let id = live[a % live.len()];
                    let view = &model.views[&id];
                    let peer = view
                        .get(b % (view.len() + 1))
                        .map_or(NodeId::new(b), |d| d.node);
                    sampler.peer_failed(id, peer);
                    model.peer_failed(id, peer);
                }
                6 => {
                    let directory_now = SliceDirectory::new(&directory);
                    for (pos, &id) in directory.iter().enumerate() {
                        let pick = sampler.sample(&directory_now, pos, &mut picks);
                        assert_eq!(
                            pick,
                            model.sample(id, &mut model_picks),
                            "step {step}: pick"
                        );
                    }
                }
                _ => {}
            }
            assert_eq!(sampler.len(), model.views.len(), "step {step}: members");
            for id in (0..=next_id).map(NodeId::new) {
                let expected = model.views.get(&id).map(Vec::as_slice);
                assert_eq!(sampler.view_of(id), expected, "step {step}: view of {id}");
            }
        }
    }

    proptest::proptest! {
        /// [`sampler_follows_its_model`] over short random histories. Cache
        /// sizes run past 64, where the merge's age index leaves the stack,
        /// and populations run past the cache size, so views of every size
        /// fill.
        #[test]
        fn sampler_follows_its_model_over_random_histories(
            cache_size in 1usize..71,
            members in 0usize..90,
            seed in 0u64..1_000,
            steps in proptest::collection::vec((0u8..7, 0usize..100, 0usize..100), 0..24),
        ) {
            sampler_follows_its_model(cache_size, members, seed, &steps);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8_000))]

        /// The deep run of [`sampler_follows_its_model`]: more and longer
        /// histories.
        #[test]
        #[ignore = "deep run: 8 000 histories of up to 200 steps"]
        fn sampler_follows_its_model_over_long_random_histories(
            cache_size in 1usize..71,
            members in 0usize..90,
            seed in 0u64..1_000,
            steps in proptest::collection::vec((0u8..7, 0usize..100, 0usize..100), 0..200),
        ) {
            sampler_follows_its_model(cache_size, members, seed, &steps);
        }
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
