//! Slot-reclaiming node arena with generation-tagged identifiers.
//!
//! The Figure 4 scenario churns ~200 nodes per cycle forever: a naive
//! `Vec<Option<Node>>` arena that always appends on join and leaves a `None`
//! hole on departure leaks one slot per departure (≈100 000 dead slots per
//! 500-cycle oscillation period) and its node indices grow without bound.
//! `NodeArena` fixes both: departed slots go on a free list and are reused
//! by the next join, so capacity stays bounded by the peak number of
//! simultaneously live nodes (plus the joins that land before the same
//! cycle's departures).
//!
//! Reusing a slot raises an aliasing question: a stale [`NodeId`] held from a
//! previous occupant must not resolve to the new occupant. The arena
//! therefore packs a per-slot *generation* into the identifier itself — the
//! low bits of the raw `u32` are the slot index, the high bits count how many
//! times the slot has been recycled.
//!
//! The exact bit split is an `IdLayout`. The single-threaded engine uses
//! `IdLayout::single` — `SLOT_BITS` (21) slot bits, the rest generation, so
//! identifiers of the initial population are plain indices and existing
//! `NodeId::new(i)` call sites keep working. The sharded engine gives each
//! shard its own sub-arena with `IdLayout::sharded`, which additionally
//! packs the owning shard's index between the slot and generation bits:
//!
//! ```text
//! single :  [ generation : 11 ][            slot : 21             ]
//! sharded:  [ generation : 8 ][ shard : 4 ][      slot : 20       ]
//! ```
//!
//! An identifier minted by one shard's arena never resolves in another
//! shard's arena (the tag check fails), and the sharded engine routes
//! messages by extracting the shard bits — no map lookup required.
//!
//! The arena is kept as columns: the generations in a `Vec<u32>` of their
//! own, beside the `Vec<Option<T>>` of payloads and the slot → live-position
//! map. Resolving an identifier (`NodeArena::slot_of`,
//! `NodeArena::is_live`) or naming a slot's occupant
//! (`NodeArena::id_at_slot`) reads only the two 4-byte columns, so a peer
//! pick never touches a node: at 10⁵ nodes a node is a cache miss, and the
//! reference engine resolves every pick of a block before it touches the
//! nodes it picked.

use aggregate_core::node::ProtocolNode;
use overlay_topology::NodeId;

/// Number of low bits of a raw [`NodeId`] that address the slot in the
/// single-engine layout; the remaining high bits hold the slot's generation.
///
/// 21 bits ≈ 2 M simultaneously live nodes — an order of magnitude above the
/// paper's 110 000-node peak — leaving 11 generation bits (2 048 reuses per
/// slot before the counter wraps; with departures spread uniformly over the
/// arena this covers hundreds of millions of churn events per run).
pub(crate) const SLOT_BITS: u32 = 21;

/// Number of shard-index bits in the sharded layout ([`IdLayout::sharded`]).
pub(crate) const SHARD_BITS: u32 = 4;

/// Maximum number of shards the sharded layout can address.
pub const MAX_SHARDS: usize = 1 << SHARD_BITS;

/// Number of slot bits per shard in the sharded layout: 2^20 ≈ 1.05 M
/// simultaneously live nodes *per shard*, so even a single-shard arena holds
/// the million-node workload, and 8 generation bits remain (256 reuses per
/// slot — at the Figure 4 churn rate of 200 events/cycle spread over ≥ 90 000
/// slots this covers > 100 000 cycles per run).
pub(crate) const SHARDED_SLOT_BITS: u32 = 20;

/// Sentinel for "slot is not live" in the slot → live-position map.
const NOT_LIVE: u32 = u32::MAX;

/// How a raw `u32` [`NodeId`] is split into slot, tag (shard) and generation
/// bits: `[ generation | tag | slot ]`, lowest bits first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IdLayout {
    slot_bits: u32,
    tag_bits: u32,
    tag: u32,
}

impl IdLayout {
    /// The single-engine layout: [`SLOT_BITS`] slot bits, no tag, 11
    /// generation bits. Generation-0 identifiers are plain indices.
    pub(crate) const fn single() -> Self {
        IdLayout {
            slot_bits: SLOT_BITS,
            tag_bits: 0,
            tag: 0,
        }
    }

    /// The sharded layout for the sub-arena owned by `shard`:
    /// [`SHARDED_SLOT_BITS`] slot bits, [`SHARD_BITS`] shard bits, 8
    /// generation bits.
    ///
    /// # Panics
    ///
    /// Panics when `shard` does not fit in [`SHARD_BITS`] bits.
    pub(crate) const fn sharded(shard: u32) -> Self {
        assert!((shard as usize) < MAX_SHARDS, "shard index out of range");
        IdLayout {
            slot_bits: SHARDED_SLOT_BITS,
            tag_bits: SHARD_BITS,
            tag: shard,
        }
    }

    /// Maximum number of simultaneously allocated slots under this layout.
    pub(crate) const fn max_slots(&self) -> usize {
        1 << self.slot_bits
    }

    /// Number of generation values before the per-slot counter wraps.
    const fn generation_limit(&self) -> u32 {
        1 << (32 - self.slot_bits - self.tag_bits)
    }

    /// Packs a slot index and generation (plus this layout's tag) into a
    /// [`NodeId`].
    #[inline]
    fn pack(&self, slot: u32, generation: u32) -> NodeId {
        NodeId::from_u32(((generation << self.tag_bits | self.tag) << self.slot_bits) | slot)
    }

    /// Splits a [`NodeId`] into `(slot, tag, generation)`.
    #[inline]
    fn unpack(&self, id: NodeId) -> (u32, u32, u32) {
        let raw = id.as_u32();
        let slot = raw & ((1 << self.slot_bits) - 1);
        let high = raw >> self.slot_bits;
        let tag = high & ((1 << self.tag_bits) - 1);
        (slot, tag, high >> self.tag_bits)
    }

    /// Extracts the shard index from an identifier minted under the sharded
    /// layout (any shard's instance decodes any sharded identifier).
    #[inline]
    pub(crate) fn shard_of(id: NodeId) -> u32 {
        (id.as_u32() >> SHARDED_SLOT_BITS) & ((1 << SHARD_BITS) - 1)
    }

    /// Extracts the slot index from an identifier minted under the sharded
    /// layout.
    #[inline]
    pub(crate) fn sharded_slot_of(id: NodeId) -> u32 {
        id.as_u32() & ((1 << SHARDED_SLOT_BITS) - 1)
    }
}

impl Default for IdLayout {
    fn default() -> Self {
        IdLayout::single()
    }
}

/// A generational arena of node payloads — [`ProtocolNode`]s unless stated
/// otherwise — with O(1) insert, remove and uniform sampling over the live
/// set. The reference engine stores its nodes inline; the sharded engine
/// stores `()` and keeps its node state in columns beside the arena.
///
/// * `generations` holds each slot's generation and `nodes` its payload,
///   `None` when the slot is dead; a departed slot keeps its generation and
///   goes on `free` for reuse.
/// * `live` is a dense array of the currently live slot indices — the
///   iteration and sampling surface for the per-cycle active phase.
/// * `live_pos` maps a slot index back to its position in `live` so removal
///   by identifier is O(1) swap-remove rather than a linear scan. It is also
///   the liveness column: a slot is live exactly when its entry is set.
///
/// Identifier lookups answer from `generations` and `live_pos` alone and
/// never read `nodes`.
#[derive(Debug)]
pub(crate) struct NodeArena<T = ProtocolNode> {
    layout: IdLayout,
    generations: Vec<u32>,
    nodes: Vec<Option<T>>,
    free: Vec<u32>,
    live: Vec<u32>,
    live_pos: Vec<u32>,
}

impl<T> Default for NodeArena<T> {
    fn default() -> Self {
        NodeArena::with_layout(IdLayout::default())
    }
}

impl<T> NodeArena<T> {
    /// Resident bytes of one allocated slot: its generation and its payload.
    #[cfg(test)]
    pub(crate) const SLOT_BYTES: usize =
        std::mem::size_of::<u32>() + std::mem::size_of::<Option<T>>();

    /// Creates an empty arena with the single-engine layout and room for
    /// `capacity` slots. The reference engine sizes it for its initial
    /// population: its columns then grow by no reallocation at set-up.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        NodeArena {
            generations: Vec::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            live: Vec::with_capacity(capacity),
            live_pos: Vec::with_capacity(capacity),
            ..NodeArena::default()
        }
    }

    /// Creates an empty arena minting identifiers under `layout` (the sharded
    /// engine passes [`IdLayout::sharded`] per sub-arena).
    pub(crate) fn with_layout(layout: IdLayout) -> Self {
        NodeArena {
            layout,
            generations: Vec::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            live: Vec::new(),
            live_pos: Vec::new(),
        }
    }

    /// Number of live nodes.
    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }

    /// Number of allocated slots (live + reusable). This is the resident
    /// footprint of the arena; the churn tests assert it stays bounded by the
    /// peak live size plus the per-cycle churn.
    pub(crate) fn slot_capacity(&self) -> usize {
        self.generations.len()
    }

    /// Number of dead slots currently awaiting reuse.
    pub(crate) fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// The dense array of live slot indices, in arena order.
    pub(crate) fn live_slots(&self) -> &[u32] {
        &self.live
    }

    /// The position of `slot` in the dense live array, or `None` when the
    /// slot is dead or out of range.
    pub(crate) fn live_pos_of_slot(&self, slot: u32) -> Option<u32> {
        match self.live_pos.get(slot as usize) {
            Some(&pos) if pos != NOT_LIVE => Some(pos),
            _ => None,
        }
    }

    /// The slot `id` names when its tag is this arena's and its generation
    /// is the slot's current one, live or not.
    #[inline]
    fn current_slot(&self, id: NodeId) -> Option<usize> {
        let (slot, tag, generation) = self.layout.unpack(id);
        let current = self.generations.get(slot as usize)?;
        (tag == self.layout.tag && *current == generation).then_some(slot as usize)
    }

    /// The slot of the live node with identifier `id` — `None` when the
    /// identifier is stale, foreign (minted by another shard's arena) or its
    /// slot is dead. The id-addressed analogue of [`NodeArena::id_at_slot`].
    #[inline]
    pub(crate) fn slot_of(&self, id: NodeId) -> Option<u32> {
        let slot = self.current_slot(id)?;
        (self.live_pos[slot] != NOT_LIVE).then_some(slot as u32)
    }

    /// Whether `id` names a live node: [`NodeArena::slot_of`] without the
    /// slot.
    #[inline]
    pub(crate) fn is_live(&self, id: NodeId) -> bool {
        self.slot_of(id).is_some()
    }

    /// The identifier of the current occupant of `slot` (which must be live).
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of bounds; returns a stale-generation id
    /// only if the caller raced an arena mutation, which the engine never
    /// does within a cycle.
    #[inline]
    pub(crate) fn id_at_slot(&self, slot: u32) -> NodeId {
        self.layout.pack(slot, self.generations[slot as usize])
    }

    /// Read access to the live occupant of `slot`, if any.
    pub(crate) fn node_at_slot(&self, slot: u32) -> Option<&T> {
        self.nodes.get(slot as usize)?.as_ref()
    }

    /// Mutable access to the live occupant of `slot`, if any.
    pub(crate) fn node_at_slot_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.nodes.get_mut(slot as usize)?.as_mut()
    }

    /// Mutable access to the live occupants of two *distinct* slots at once —
    /// the borrow shape of a fused push–pull exchange.
    ///
    /// # Panics
    ///
    /// Panics when `a == b` (an exchange needs two distinct nodes; the
    /// schedulers guarantee this).
    pub(crate) fn pair_mut(&mut self, a: u32, b: u32) -> (Option<&mut T>, Option<&mut T>) {
        assert_ne!(a, b, "pair_mut requires two distinct slots");
        let (lo, hi, swapped) = if a < b { (a, b, false) } else { (b, a, true) };
        let (head, tail) = self.nodes.split_at_mut(hi as usize);
        let lo_node = head.get_mut(lo as usize).and_then(Option::as_mut);
        let hi_node = tail.first_mut().and_then(Option::as_mut);
        if swapped {
            (hi_node, lo_node)
        } else {
            (lo_node, hi_node)
        }
    }

    /// Resolves an identifier to its node — `None` when the slot is dead,
    /// the identifier's generation is stale (a previous occupant), or the
    /// identifier was minted by a different shard's arena.
    pub(crate) fn get(&self, id: NodeId) -> Option<&T> {
        self.nodes[self.current_slot(id)?].as_ref()
    }

    /// Mutable variant of [`NodeArena::get`].
    pub(crate) fn get_mut(&mut self, id: NodeId) -> Option<&mut T> {
        let slot = self.current_slot(id)?;
        self.nodes[slot].as_mut()
    }

    /// Inserts a node, reusing a free slot when one exists. The constructor
    /// closure receives the identifier the node will live under (slot +
    /// fresh generation).
    ///
    /// Returns the identifier and the slot it occupies.
    ///
    /// # Panics
    ///
    /// Panics when all of the layout's slots are simultaneously live.
    pub(crate) fn insert_at(&mut self, make_node: impl FnOnce(NodeId) -> T) -> (NodeId, u32) {
        let slot = match self.free.pop() {
            Some(slot) => {
                // Recycled slot: bump the generation so identifiers of the
                // previous occupant no longer resolve. Wrap-around after
                // the layout's generation limit is documented and accepted.
                let generation = &mut self.generations[slot as usize];
                *generation = (*generation + 1) % self.layout.generation_limit();
                slot
            }
            None => {
                assert!(
                    self.generations.len() < self.layout.max_slots(),
                    "node arena exhausted: {} simultaneously live slots",
                    self.layout.max_slots()
                );
                self.generations.push(0);
                self.nodes.push(None);
                self.live_pos.push(NOT_LIVE);
                (self.generations.len() - 1) as u32
            }
        };
        let id = self.id_at_slot(slot);
        self.nodes[slot as usize] = Some(make_node(id));
        self.live_pos[slot as usize] = self.live.len() as u32;
        self.live.push(slot);
        (id, slot)
    }

    /// [`NodeArena::insert_at`] returning only the identifier.
    pub(crate) fn insert(&mut self, make_node: impl FnOnce(NodeId) -> T) -> NodeId {
        self.insert_at(make_node).0
    }

    /// Removes the live node at position `pos` of the dense live array
    /// (O(1) swap-remove) — the primitive behind uniform random departures.
    ///
    /// # Panics
    ///
    /// Panics when `pos` is out of bounds.
    pub(crate) fn remove_live_at(&mut self, pos: usize) {
        let slot = self.live[pos];
        self.remove_slot(slot);
    }

    /// Removes the live occupant of `slot`. Returns `false` when the slot is
    /// dead or out of bounds.
    pub(crate) fn remove_slot_checked(&mut self, slot: u32) -> bool {
        let live = self.live_pos_of_slot(slot).is_some();
        if live {
            self.remove_slot(slot);
        }
        live
    }

    fn remove_slot(&mut self, slot: u32) {
        let pos = self.live_pos[slot as usize];
        debug_assert_ne!(pos, NOT_LIVE, "removing a slot that is not live");
        let last = *self.live.last().expect("live set contains the slot"); // lint-allow(unwrap): live_pos proved the slot live, so the live set is non-empty
        self.live.swap_remove(pos as usize);
        if last != slot {
            self.live_pos[last as usize] = pos;
        }
        self.live_pos[slot as usize] = NOT_LIVE;
        self.nodes[slot as usize] = None;
        self.free.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggregate_core::ProtocolConfig;
    use std::collections::HashMap;

    fn make(id: NodeId, value: f64) -> ProtocolNode {
        ProtocolNode::new(id, ProtocolConfig::default(), value)
    }

    /// Removes the live node `id` names: `false` when `id` is stale,
    /// foreign (minted by another shard's arena) or its slot is dead.
    fn remove(arena: &mut NodeArena, id: NodeId) -> bool {
        arena
            .slot_of(id)
            .is_some_and(|slot| arena.remove_slot_checked(slot))
    }

    fn arena_with(n: usize) -> (NodeArena, Vec<NodeId>) {
        let mut arena = NodeArena::default();
        let ids = (0..n)
            .map(|i| arena.insert(|id| make(id, i as f64)))
            .collect();
        (arena, ids)
    }

    #[test]
    fn initial_population_gets_dense_generation_zero_ids() {
        let (arena, ids) = arena_with(4);
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.slot_capacity(), 4);
        assert_eq!(arena.free_slots(), 0);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i, "generation 0 ids are plain indices");
            assert_eq!(arena.get(*id).unwrap().local_value(), i as f64);
        }
    }

    #[test]
    fn removal_feeds_the_free_list_and_insert_reuses_it() {
        let (mut arena, ids) = arena_with(3);
        assert!(remove(&mut arena, ids[1]));
        assert!(!remove(&mut arena, ids[1]), "double removal is rejected");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.free_slots(), 1);

        let newcomer = arena.insert(|id| make(id, 42.0));
        assert_eq!(arena.slot_capacity(), 3, "slot was reused, not appended");
        assert_eq!(arena.free_slots(), 0);
        let (slot, tag, generation) = arena.layout.unpack(newcomer);
        assert_eq!(slot, 1);
        assert_eq!(tag, 0);
        assert_eq!(generation, 1);
        assert_eq!(arena.get(newcomer).unwrap().local_value(), 42.0);
    }

    #[test]
    fn stale_ids_do_not_alias_the_new_occupant() {
        let (mut arena, ids) = arena_with(2);
        let stale = ids[0];
        remove(&mut arena, stale);
        let fresh = arena.insert(|id| make(id, 7.0));
        assert_ne!(stale, fresh);
        assert!(arena.get(stale).is_none(), "stale id must not resolve");
        assert!(
            !remove(&mut arena, stale),
            "stale id must not remove the newcomer"
        );
        assert!(arena.get(fresh).is_some());
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn live_positions_stay_consistent_under_swap_remove() {
        let (mut arena, ids) = arena_with(6);
        remove(&mut arena, ids[0]);
        remove(&mut arena, ids[3]);
        arena.remove_live_at(0);
        assert_eq!(arena.len(), 3);
        // Every live slot maps back to its own position.
        for (pos, &slot) in arena.live_slots().iter().enumerate() {
            assert_eq!(arena.live_pos[slot as usize] as usize, pos);
            assert!(arena.node_at_slot(slot).is_some());
            assert!(arena.get(arena.id_at_slot(slot)).is_some());
        }
        // The removed-by-position node is gone as well.
        let live_values: Vec<f64> = arena
            .live_slots()
            .iter()
            .map(|&slot| arena.node_at_slot(slot).unwrap().local_value())
            .collect();
        assert_eq!(live_values.len(), 3);
    }

    #[test]
    fn sustained_churn_keeps_capacity_bounded() {
        let (mut arena, _) = arena_with(100);
        // 1 000 cycles of 10 joins + 10 departures: the leaky arena would
        // grow to 10 100 slots; the free-list arena stays at ~110.
        for round in 0..1_000 {
            for i in 0..10 {
                arena.insert(|id| make(id, (round * 10 + i) as f64));
            }
            for _ in 0..10 {
                arena.remove_live_at(round % arena.len());
            }
        }
        assert_eq!(arena.len(), 100);
        assert!(
            arena.slot_capacity() <= 110,
            "capacity {} must stay bounded by peak live + per-round joins",
            arena.slot_capacity()
        );
    }

    #[test]
    fn generation_wraps_instead_of_overflowing() {
        let mut arena = NodeArena::default();
        let mut id = arena.insert(|id| make(id, 0.0));
        for _ in 0..IdLayout::single().generation_limit() {
            remove(&mut arena, id);
            id = arena.insert(|id| make(id, 0.0));
        }
        // After the generation limit the counter is back to its start value
        // + 1; the arena still has exactly one slot and one live node.
        assert_eq!(arena.slot_capacity(), 1);
        assert_eq!(arena.len(), 1);
        assert!(arena.get(id).is_some());
    }

    #[test]
    fn pack_unpack_round_trip_single_layout() {
        let layout = IdLayout::single();
        for (slot, generation) in [(0, 0), (1, 1), ((1 << SLOT_BITS) - 1, 5), (123_456, 2_047)] {
            let id = layout.pack(slot, generation);
            assert_eq!(layout.unpack(id), (slot, 0, generation));
        }
    }

    #[test]
    fn pack_unpack_round_trip_sharded_layout() {
        for shard in [0u32, 1, 7, 15] {
            let layout = IdLayout::sharded(shard);
            for (slot, generation) in [(0, 0), (1, 3), ((1 << SHARDED_SLOT_BITS) - 1, 255)] {
                let id = layout.pack(slot, generation);
                assert_eq!(layout.unpack(id), (slot, shard, generation));
                assert_eq!(IdLayout::shard_of(id), shard);
            }
        }
    }

    #[test]
    fn cross_shard_identifiers_do_not_resolve() {
        let mut a = NodeArena::with_layout(IdLayout::sharded(0));
        let mut b = NodeArena::with_layout(IdLayout::sharded(1));
        let id_a = a.insert(|id| make(id, 1.0));
        let id_b = b.insert(|id| make(id, 2.0));
        assert_ne!(id_a, id_b);
        assert_eq!(IdLayout::shard_of(id_a), 0);
        assert_eq!(IdLayout::shard_of(id_b), 1);
        // Same slot index, different shard tag: must not alias.
        assert!(a.get(id_b).is_none());
        assert!(b.get(id_a).is_none());
        assert!(!remove(&mut a, id_b));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn pair_mut_returns_disjoint_borrows_in_caller_order() {
        let (mut arena, ids) = arena_with(3);
        remove(&mut arena, ids[1]);
        {
            let (x, y) = arena.pair_mut(2, 0);
            assert_eq!(x.unwrap().local_value(), 2.0);
            assert_eq!(y.unwrap().local_value(), 0.0);
        }
        let (x, y) = arena.pair_mut(1, 2);
        assert!(x.is_none(), "dead slot yields None");
        assert_eq!(y.unwrap().local_value(), 2.0);
    }

    #[test]
    #[should_panic(expected = "distinct slots")]
    fn pair_mut_rejects_identical_slots() {
        let (mut arena, _) = arena_with(2);
        let _ = arena.pair_mut(1, 1);
    }

    #[test]
    fn slot_and_position_lookups_track_liveness() {
        let (mut arena, ids) = arena_with(4);
        assert_eq!(arena.slot_of(ids[2]), Some(2));
        assert_eq!(arena.live_pos_of_slot(2), Some(2));
        assert!(remove(&mut arena, ids[2]));
        assert_eq!(arena.slot_of(ids[2]), None, "dead slot does not resolve");
        assert_eq!(arena.live_pos_of_slot(2), None);
        assert_eq!(arena.live_pos_of_slot(99), None, "out of range");
        // A recycled slot resolves only under the fresh identifier.
        let fresh = arena.insert(|id| make(id, 9.0));
        assert_eq!(arena.slot_of(fresh), Some(2));
        assert_eq!(arena.slot_of(ids[2]), None, "stale generation is rejected");
    }

    #[test]
    fn remove_slot_checked_handles_dead_and_out_of_range_slots() {
        let (mut arena, ids) = arena_with(2);
        assert!(arena.remove_slot_checked(0));
        assert!(!arena.remove_slot_checked(0), "already dead");
        assert!(!arena.remove_slot_checked(99), "out of range");
        assert_eq!(arena.len(), 1);
        assert!(arena.get(ids[1]).is_some());
    }

    /// The arena as a map from live identifier to payload, plus the slot
    /// count: a join appends a slot only when none is free.
    #[derive(Default)]
    struct Model {
        live: HashMap<NodeId, u64>,
        /// Every identifier minted so far, once each; most are stale.
        minted: Vec<NodeId>,
        capacity: usize,
        next: u64,
    }

    impl Model {
        fn insert(&mut self, arena: &mut NodeArena<u64>) -> NodeId {
            let value = self.next;
            self.next += 1;
            let (id, slot) = arena.insert_at(|_| value);
            assert!(!self.live.contains_key(&id), "{id:?} was already live");
            assert_eq!(arena.layout.unpack(id).1, arena.layout.tag);
            if self.live.len() == self.capacity {
                assert_eq!(slot as usize, self.capacity, "no free slot: append");
                self.capacity += 1;
            }
            self.live.insert(id, value);
            id
        }

        fn remove(&mut self, arena: &mut NodeArena<u64>, id: NodeId) {
            let removed = arena
                .slot_of(id)
                .is_some_and(|slot| arena.remove_slot_checked(slot));
            assert_eq!(removed, self.live.remove(&id).is_some(), "{id:?}");
        }

        fn note(&mut self, id: NodeId) {
            if !self.minted.contains(&id) {
                self.minted.push(id);
            }
        }

        /// Every lookup of every minted identifier, of its twin under
        /// another shard's tag, and of every slot answers as the model says.
        fn check(&self, arena: &NodeArena<u64>, step: usize) {
            assert_eq!(arena.len(), self.live.len(), "step {step}");
            assert_eq!(arena.slot_capacity(), self.capacity, "step {step}");
            assert_eq!(arena.free_slots(), self.capacity - self.live.len());
            for &id in &self.minted {
                let value = self.live.get(&id);
                assert_eq!(arena.get(id), value, "step {step}: {id:?}");
                assert_eq!(arena.is_live(id), value.is_some(), "step {step}");
                match arena.slot_of(id) {
                    Some(slot) => {
                        assert!(value.is_some(), "step {step}: {id:?} resolved");
                        assert_eq!(arena.id_at_slot(slot), id, "step {step}");
                        assert_eq!(arena.node_at_slot(slot), value, "step {step}");
                        let pos = arena.live_pos_of_slot(slot).expect("a live slot");
                        assert_eq!(arena.live_slots()[pos as usize], slot);
                    }
                    None => assert!(value.is_none(), "step {step}: {id:?} lost"),
                }
                let (slot, tag, generation) = arena.layout.unpack(id);
                if arena.layout.tag_bits > 0 {
                    let other = IdLayout::sharded((tag + 1) % MAX_SHARDS as u32);
                    let foreign = other.pack(slot, generation);
                    assert!(arena.get(foreign).is_none() && arena.slot_of(foreign).is_none());
                }
            }
            let mut live: Vec<u32> = self
                .live
                .keys()
                .filter_map(|&id| arena.slot_of(id))
                .collect();
            live.sort_unstable();
            let mut listed = arena.live_slots().to_vec();
            listed.sort_unstable();
            assert_eq!(live, listed, "step {step}: live slots");
            for slot in 0..self.capacity as u32 + 2 {
                let expected = live.binary_search(&slot).is_ok();
                assert_eq!(
                    arena.live_pos_of_slot(slot).is_some(),
                    expected,
                    "step {step}"
                );
                assert_eq!(arena.node_at_slot(slot).is_some(), expected, "step {step}");
            }
        }
    }

    /// Holds a `NodeArena<u64>` to [`Model`] over one history, under the
    /// single layout or shard `layout.1`'s. A step `(op, k)` is an insert
    /// (op 0–7), a removal by the minted identifier `k` names, live, stale
    /// or dead (8–10), a removal at live position `k` (11–12), a payload
    /// rewrite through `get_mut` (13–14), or the slot at live position `k`
    /// reused one time past the layout's generation limit (15), where the
    /// identifier comes round to the one it started from.
    fn arena_follows_its_model(layout: (bool, u32), steps: &[(u8, usize)]) {
        let layout = if layout.0 {
            IdLayout::single()
        } else {
            IdLayout::sharded(layout.1)
        };
        let mut arena = NodeArena::<u64>::with_layout(layout);
        let mut model = Model::default();
        for (step, &(op, k)) in steps.iter().enumerate() {
            let minted = model.minted.len().max(1);
            match op {
                0..=7 => {
                    let id = model.insert(&mut arena);
                    model.note(id);
                }
                8..=10 if !model.minted.is_empty() => {
                    model.remove(&mut arena, model.minted[k % minted]);
                }
                11..=12 if arena.len() > 0 => {
                    let pos = k % arena.len();
                    let id = arena.id_at_slot(arena.live_slots()[pos]);
                    arena.remove_live_at(pos);
                    assert!(model.live.remove(&id).is_some(), "step {step}");
                }
                13..=14 if !model.minted.is_empty() => {
                    let id = model.minted[k % minted];
                    let (real, modelled) = (arena.get_mut(id), model.live.get_mut(&id));
                    assert_eq!(real.is_some(), modelled.is_some(), "step {step}");
                    if let (Some(real), Some(modelled)) = (real, modelled) {
                        (*real, *modelled) = (*real + 1_000, *modelled + 1_000);
                    }
                }
                15 if arena.len() > 0 => {
                    let slot = arena.live_slots()[k % arena.len()];
                    let start = arena.id_at_slot(slot);
                    let mut id = start;
                    let limit = layout.generation_limit();
                    for reuse in 1..=limit + 1 {
                        model.remove(&mut arena, id);
                        id = model.insert(&mut arena);
                        assert_eq!(arena.slot_of(id), Some(slot), "the free list is LIFO");
                        assert_eq!(id == start, reuse == limit, "step {step}, reuse {reuse}");
                    }
                    model.note(id);
                }
                _ => {}
            }
            model.check(&arena, step);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// [`arena_follows_its_model`] over random histories.
        #[test]
        fn arena_follows_its_model_over_random_histories(
            layout in (proptest::bool::ANY, 0u32..16),
            steps in proptest::collection::vec((0u8..16, 0usize..1024), 0..80),
        ) {
            arena_follows_its_model(layout, &steps);
        }
    }
}
