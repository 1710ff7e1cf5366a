//! Every node's partial view in one flat table, and the newscast merge rule
//! over a row of it.

use crate::NodeDescriptor;
use overlay_topology::NodeId;
use rand::Rng;

/// The partial views ("caches") of a set of nodes, one row per slot — the
/// one store behind both [`crate::NewscastNetwork`] and
/// [`crate::NewscastSampler`].
///
/// Slot `s` belongs to node `ids[s]`, and its view is the first `lens[s]`
/// descriptors of row `s`, the `cache_size` entries of `entries` from
/// `s * cache_size` on. A view never names its own node, never holds two
/// descriptors of one node (the younger wins) and never exceeds `cache_size`
/// entries (the oldest are evicted first): the newscast merge rule, which
/// [`ViewTable::merge`] applies for every exchange, join and bootstrap.
///
/// Rows never move and are never freed: a slot handed to another node is
/// overwritten in place, so the table allocates only when it grows.
#[derive(Debug, Clone)]
pub(crate) struct ViewTable {
    cache_size: usize,
    ids: Vec<NodeId>,
    /// `u32` keeps the column small: it is read at random, once a side
    /// per exchange.
    lens: Vec<u32>,
    entries: Vec<NodeDescriptor>,
    /// Index words of the merge's [`AgeIndex`] above 64 entries a view
    /// (`shift > 0`), reused by every merge; empty otherwise.
    masks: Vec<u64>,
    shift: u32,
    /// An exchange's two payloads, refilled by every exchange.
    offer: Vec<NodeDescriptor>,
    response: Vec<NodeDescriptor>,
}

impl ViewTable {
    /// An empty table of views of `cache_size` entries, with room for
    /// `slots` rows.
    ///
    /// # Panics
    ///
    /// Panics if `cache_size` is zero.
    pub(crate) fn with_capacity(cache_size: usize, slots: usize) -> Self {
        assert!(cache_size > 0, "view capacity must be positive");
        let shift = cache_size.div_ceil(64).next_power_of_two().trailing_zeros();
        // Views of up to 64 entries, every NEWSCAST cache in this workspace,
        // index into an inline array instead.
        let masks = if shift == 0 {
            Vec::new()
        } else {
            vec![0; AGE_BUCKETS << shift]
        };
        ViewTable {
            cache_size,
            ids: Vec::with_capacity(slots),
            lens: Vec::with_capacity(slots),
            entries: Vec::with_capacity(slots * cache_size),
            masks,
            shift,
            offer: Vec::new(),
            response: Vec::new(),
        }
    }

    /// The most descriptors a view holds.
    pub(crate) fn cache_size(&self) -> usize {
        self.cache_size
    }

    /// The number of rows, in use or not.
    pub(crate) fn slots(&self) -> usize {
        self.ids.len()
    }

    /// The node slot `slot` was last given to.
    pub(crate) fn id(&self, slot: usize) -> NodeId {
        self.ids[slot]
    }

    /// Gives slot `slot`, an existing row or the next new one, to node `id`
    /// with a view of fresh descriptors of `contacts` (`id` itself left out),
    /// admitted in order by the merge rule.
    pub(crate) fn reset(&mut self, slot: usize, id: NodeId, contacts: &[NodeId]) {
        if slot == self.slots() {
            self.ids.push(id);
            self.lens.push(0);
            let end = self.entries.len() + self.cache_size;
            self.entries.resize(end, NodeDescriptor::fresh(id));
        } else {
            self.ids[slot] = id;
            self.lens[slot] = 0;
        }
        self.merge(
            slot,
            contacts.iter().map(|&peer| NodeDescriptor::fresh(peer)),
        );
    }

    /// Empties slot `slot`'s view; its node has left and the slot awaits
    /// reuse.
    pub(crate) fn clear(&mut self, slot: usize) {
        self.lens[slot] = 0;
    }

    /// Slot `slot`'s view, in entry order.
    pub(crate) fn view(&self, slot: usize) -> &[NodeDescriptor] {
        &self.entries[slot * self.cache_size..][..self.lens[slot] as usize]
    }

    /// The exchange partner of slot `slot`'s node: the *oldest* peer in its
    /// view, the last of them on an age tie (also the eviction victim), or
    /// `None` on an empty view.
    ///
    /// Oldest-first is CYCLON's partner rule, which speeds up the removal of
    /// stale descriptors; NEWSCAST as published picks a random cache entry.
    /// The fidelity check of item 4 in `ROADMAP.md` makes the policy explicit
    /// and defaults to the paper's.
    pub(crate) fn oldest_peer(&self, slot: usize) -> Option<NodeId> {
        let view = self.view(slot);
        view.get(last_oldest(view)).map(|d| d.node)
    }

    /// A uniformly random peer from slot `slot`'s view.
    pub(crate) fn random_peer<R: Rng + ?Sized>(&self, slot: usize, rng: &mut R) -> Option<NodeId> {
        let view = self.view(slot);
        if view.is_empty() {
            None
        } else {
            Some(view[rng.gen_range(0..view.len())].node)
        }
    }

    /// One membership exchange between the nodes of two distinct slots: each
    /// sends its whole view plus a fresh descriptor of itself, and merges the
    /// other's. Both payloads are taken before either side merges, mirroring
    /// the push–pull structure of the aggregation exchange.
    pub(crate) fn exchange(&mut self, initiator: usize, partner: usize) {
        let mut offer = std::mem::take(&mut self.offer);
        let mut response = std::mem::take(&mut self.response);
        self.write_payload(initiator, &mut offer);
        self.write_payload(partner, &mut response);
        self.merge(partner, offer.iter().copied());
        self.merge(initiator, response.iter().copied());
        (self.offer, self.response) = (offer, response);
    }

    /// Writes what slot `slot`'s node sends in an exchange, its view and
    /// then a fresh descriptor of itself, into `payload`, cleared first.
    fn write_payload(&self, slot: usize, payload: &mut Vec<NodeDescriptor>) {
        payload.clear();
        payload.extend_from_slice(self.view(slot));
        payload.push(NodeDescriptor::fresh(self.ids[slot]));
    }

    /// Merges `incoming` into slot `slot`'s view (the newscast merge): the
    /// union, deduplicated keeping the youngest, cut to the `cache_size`
    /// freshest entries, never admitting the slot's own node.
    pub(crate) fn merge(
        &mut self,
        slot: usize,
        incoming: impl IntoIterator<Item = NodeDescriptor>,
    ) {
        let exclude = self.ids[slot];
        let incoming = incoming.into_iter().filter(|d| d.node != exclude);
        let row = &mut self.entries[slot * self.cache_size..][..self.cache_size];
        let len = self.lens[slot] as usize;
        let len = if self.shift == 0 {
            admit(row, len, incoming, &mut [0; AGE_BUCKETS], 0)
        } else {
            self.masks.fill(0);
            admit(row, len, incoming, &mut self.masks, self.shift)
        };
        // At most `cache_size`: a row past `u32::MAX` entries would not fit
        // in memory.
        self.lens[slot] = len as u32;
    }

    /// Drops `peer` from slot `slot`'s view (an exchange with it failed, so
    /// it is suspected to have crashed), keeping the order of the rest.
    pub(crate) fn evict(&mut self, slot: usize, peer: NodeId) {
        let Some(pos) = self.view(slot).iter().position(|d| d.node == peer) else {
            return;
        };
        let start = slot * self.cache_size;
        let end = start + self.lens[slot] as usize;
        self.entries.copy_within(start + pos + 1..end, start + pos);
        self.lens[slot] -= 1;
    }

    /// Ends a membership cycle: every descriptor in every view ages by one.
    pub(crate) fn age_all(&mut self) {
        let rows = self.entries.chunks_exact_mut(self.cache_size);
        for (row, &len) in rows.zip(&self.lens) {
            for descriptor in &mut row[..len as usize] {
                *descriptor = descriptor.aged();
            }
        }
    }
}

/// Admits each descriptor in turn into the view `row[..len]` of a row with
/// room for `row.len()` entries and returns the view's new length; `masks`,
/// zeroed, holds `AGE_BUCKETS << shift` words.
///
/// A newcomer already in the view only ever lowers that entry's age. Any
/// other newcomer is appended while the view has room. Once it is full, the
/// newcomer overwrites the victim, the last entry of maximum age, in place if
/// strictly younger and is dropped otherwise. That is exactly where pushing
/// it and then `swap_remove`-ing the last maximum-age entry of the overfull
/// view would leave every entry.
///
/// One pass over the view at the start fills an [`IdFilter`] and an
/// [`AgeIndex`]. After that a newcomer costs a filter probe, a scan of the
/// view only on a filter hit, and a constant number of mask updates; in a
/// full view, one at least as old as the victim costs a comparison.
#[inline(always)]
fn admit(
    row: &mut [NodeDescriptor],
    mut len: usize,
    mut incoming: impl Iterator<Item = NodeDescriptor>,
    masks: &mut [u64],
    shift: u32,
) -> usize {
    let mut ids = IdFilter::default();
    let mut ages = AgeIndex::new(masks, shift, &row[..len], &mut ids);
    while len < row.len() {
        let Some(descriptor) = incoming.next() else {
            return len;
        };
        if !refresh(&mut row[..len], &mut ages, &ids, descriptor) {
            ids.note(descriptor.node);
            ages.insert(len, descriptor.age);
            row[len] = descriptor;
            len += 1;
        }
    }
    // Full from here on: every position of the row holds an entry.
    for descriptor in incoming {
        let (victim, victim_age) = ages.victim(row);
        // No entry is older than the victim, so a newcomer at least as old
        // would neither be admitted nor refresh its duplicate.
        if descriptor.age >= victim_age || refresh(row, &mut ages, &ids, descriptor) {
            continue;
        }
        ids.note(descriptor.node);
        ages.lower(victim, victim_age, descriptor.age);
        row[victim] = descriptor;
    }
    len
}

/// When `descriptor` names a node already in `entries`, lowers that entry's
/// age to the descriptor's if younger and returns `true`; `ids` holds every
/// node in `entries`, so a filter miss skips the scan.
#[inline(always)]
fn refresh(
    entries: &mut [NodeDescriptor],
    ages: &mut AgeIndex<'_>,
    ids: &IdFilter,
    descriptor: NodeDescriptor,
) -> bool {
    if !ids.may_contain(descriptor.node) {
        return false;
    }
    let Some(pos) = entries.iter().position(|d| d.node == descriptor.node) else {
        return false;
    };
    let entry = &mut entries[pos];
    if descriptor.age < entry.age {
        ages.lower(pos, entry.age, descriptor.age);
        entry.age = descriptor.age;
    }
    true
}

/// Ages from this one up share the last [`AgeIndex`] bucket. Steady views
/// stay far younger: every age is below 5 in a NEWSCAST run with c = 20.
const AGE_BUCKETS: usize = 32;

/// A view's positions by eviction key, for one merge.
///
/// Each bucket has `1 << shift` words, enough for every position, and bit
/// `pos % 64` of word `(bucket << shift) + pos / 64` of `masks` is set when
/// position `pos` holds an entry in age bucket `bucket`: its age, or
/// `AGE_BUCKETS - 1` for anything older. Read as one bitset, a higher bit is a
/// larger `(age, position)` key, so the victim is the highest set bit. A merge
/// only lowers keys or adds positions, so that bit's word, `hi`, mostly moves
/// down; it is kept out of `masks` in `top`, and every word above it is zero.
struct AgeIndex<'a> {
    masks: &'a mut [u64],
    shift: u32,
    hi: usize,
    top: u64,
}

impl<'a> AgeIndex<'a> {
    /// The index of `entries` in `masks`, which must be zero. The same pass
    /// notes every entry's node in `ids`.
    fn new(
        masks: &'a mut [u64],
        shift: u32,
        entries: &[NodeDescriptor],
        ids: &mut IdFilter,
    ) -> Self {
        let mut index = AgeIndex {
            masks,
            shift,
            hi: 0,
            top: 0,
        };
        for (pos, entry) in entries.iter().enumerate() {
            let (word, bit) = index.slot(pos, entry.age);
            ids.note(entry.node);
            index.masks[word] |= bit;
            index.hi = index.hi.max(word);
        }
        index.top = std::mem::take(&mut index.masks[index.hi]);
        index
    }

    /// The word and bit of position `pos` at age `age`.
    fn slot(&self, pos: usize, age: u32) -> (usize, u64) {
        let bucket = (age as usize).min(AGE_BUCKETS - 1);
        ((bucket << self.shift) + pos / 64, 1 << (pos % 64))
    }

    fn insert(&mut self, pos: usize, age: u32) {
        let (word, bit) = self.slot(pos, age);
        if word > self.hi {
            self.masks[self.hi] = self.top;
            self.hi = word;
            self.top = 0;
        }
        if word == self.hi {
            self.top |= bit;
        } else {
            self.masks[word] |= bit;
        }
    }

    /// Moves position `pos` from age `old` down to age `new`.
    #[inline]
    fn lower(&mut self, pos: usize, old: u32, new: u32) {
        let (from, bit) = self.slot(pos, old);
        let to = self.slot(pos, new).0;
        // `to <= from <= hi`. Clear first: both ages may share the last bucket.
        if from == self.hi {
            self.top &= !bit;
        } else {
            self.masks[from] &= !bit;
        }
        if to == self.hi {
            self.top |= bit;
        } else {
            self.masks[to] |= bit;
        }
        while self.top == 0 && self.hi > 0 {
            self.hi -= 1;
            self.top = std::mem::take(&mut self.masks[self.hi]);
        }
    }

    /// Position and age of the last entry of maximum age: the highest set
    /// bit, unless that is in the shared last bucket, which holds the oldest
    /// entries of all, so a scan of `entries` finds the victim among them.
    fn victim(&self, entries: &[NodeDescriptor]) -> (usize, u32) {
        let bucket = self.hi >> self.shift;
        if bucket == AGE_BUCKETS - 1 {
            let pos = last_oldest(entries);
            return (pos, entries.get(pos).map_or(0, |entry| entry.age));
        }
        let word = self.hi - (bucket << self.shift);
        (word * 64 + (self.top | 1).ilog2() as usize, bucket as u32)
    }
}

/// Position of the *last* entry of maximum age, the eviction victim: the
/// largest `(age, position)` key. 0 for no entries.
fn last_oldest(entries: &[NodeDescriptor]) -> usize {
    let keys = entries.iter().enumerate();
    let key = |(pos, d): (usize, &NodeDescriptor)| (u64::from(d.age) << 32) | pos as u64;
    keys.map(key).max().map_or(0, |key| key as u32 as usize)
}

/// A per-merge filter over the ids in the view: 512 bits, one per id hash.
/// A miss proves the id absent; a hit asks for a scan.
#[derive(Default)]
struct IdFilter([u64; 8]);

impl IdFilter {
    fn slot(node: NodeId) -> (usize, u64) {
        let hash = node.as_u32().wrapping_mul(0x9e37_79b9) >> 23;
        ((hash >> 6) as usize, 1 << (hash & 63))
    }

    fn note(&mut self, node: NodeId) {
        let (word, bit) = Self::slot(node);
        self.0[word] |= bit;
    }

    fn may_contain(&self, node: NodeId) -> bool {
        let (word, bit) = Self::slot(node);
        self.0[word] & bit != 0
    }
}

/// The merge rule in its plainest form, the tests' oracle, over a view of
/// its own: append a newcomer, then `swap_remove` the last maximum-age entry
/// while the view holds more than `capacity` entries.
#[cfg(test)]
pub(crate) fn oracle_merge(
    view: &mut Vec<NodeDescriptor>,
    capacity: usize,
    incoming: &[NodeDescriptor],
    exclude: NodeId,
) {
    for descriptor in incoming.iter().filter(|d| d.node != exclude) {
        match view.iter_mut().find(|d| d.node == descriptor.node) {
            Some(existing) => {
                if descriptor.age < existing.age {
                    existing.age = descriptor.age;
                }
            }
            None => {
                view.push(*descriptor);
                while view.len() > capacity {
                    let (idx, _) = view.iter().enumerate().max_by_key(|(_, d)| d.age).unwrap();
                    view.swap_remove(idx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(5)
    }

    fn descriptor(node: usize, age: u32) -> NodeDescriptor {
        NodeDescriptor {
            node: NodeId::new(node),
            age,
        }
    }

    fn descriptors(pairs: &[(usize, u32)]) -> Vec<NodeDescriptor> {
        pairs
            .iter()
            .map(|&(node, age)| descriptor(node, age))
            .collect()
    }

    /// A table whose slots `0..views.len()` belong to nodes `owners` and
    /// hold `views`, entry for entry.
    fn table_of(capacity: usize, owners: &[usize], views: &[&[NodeDescriptor]]) -> ViewTable {
        let mut table = ViewTable::with_capacity(capacity, owners.len());
        for (slot, (&owner, view)) in owners.iter().zip(views).enumerate() {
            table.reset(slot, NodeId::new(owner), &[]);
            table.entries[slot * capacity..][..view.len()].copy_from_slice(view);
            table.lens[slot] = view.len() as u32;
        }
        table
    }

    fn node_ids(table: &ViewTable, slot: usize) -> Vec<NodeId> {
        table.view(slot).iter().map(|d| d.node).collect()
    }

    /// The oracle's oldest peer: the last entry of maximum age.
    fn oracle_oldest(view: &[NodeDescriptor]) -> Option<NodeId> {
        view.iter().max_by_key(|d| d.age).map(|d| d.node)
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _ = ViewTable::with_capacity(0, 1);
    }

    #[test]
    fn bootstrap_excludes_self_references() {
        let mut table = ViewTable::with_capacity(5, 1);
        table.reset(0, NodeId::new(0), &[NodeId::new(0), NodeId::new(1)]);
        assert_eq!(node_ids(&table, 0), vec![NodeId::new(1)]);
        assert_eq!(table.id(0), NodeId::new(0));
    }

    #[test]
    fn a_reset_slot_forgets_its_old_view() {
        let mut table = table_of(3, &[0], &[&descriptors(&[(1, 0), (2, 4)])]);
        table.reset(0, NodeId::new(7), &[NodeId::new(9)]);
        assert_eq!(table.view(0), descriptors(&[(9, 0)]));
        assert_eq!((table.slots(), table.id(0)), (1, NodeId::new(7)));
        table.clear(0);
        assert!(table.view(0).is_empty());
    }

    #[test]
    fn merge_deduplicates_keeping_the_youngest() {
        let mut table = table_of(4, &[0], &[&[]]);
        for age in [5, 2, 9] {
            table.merge(0, [descriptor(1, age)]);
        }
        assert_eq!(table.view(0), descriptors(&[(1, 2)]));
    }

    #[test]
    fn merge_excludes_self_and_evicts_the_oldest() {
        let mut table = table_of(3, &[0], &[&[]]);
        let incoming = descriptors(&[(0, 0), (1, 4), (2, 1), (3, 2), (4, 9)]);
        table.merge(0, incoming);
        assert_eq!(table.view(0), descriptors(&[(1, 4), (2, 1), (3, 2)]));
    }

    #[test]
    fn aging_and_eviction_keep_the_order_of_the_rest() {
        let view = descriptors(&[(1, 0), (2, 3), (3, 1)]);
        let mut table = table_of(4, &[0, 5], &[&view, &[descriptor(6, 2)]]);
        table.age_all();
        assert_eq!(table.view(0), descriptors(&[(1, 1), (2, 4), (3, 2)]));
        assert_eq!(table.view(1), descriptors(&[(6, 3)]));
        table.evict(0, NodeId::new(2));
        table.evict(0, NodeId::new(2));
        assert_eq!(table.view(0), descriptors(&[(1, 1), (3, 2)]));
    }

    #[test]
    fn random_and_oldest_peer_selection() {
        let mut table = table_of(4, &[0], &[&[]]);
        let mut r = rng();
        assert!(table.random_peer(0, &mut r).is_none());
        assert!(table.oldest_peer(0).is_none());
        table.merge(0, descriptors(&[(1, 0), (2, 8), (3, 3), (0, 9)]));
        assert_eq!(table.oldest_peer(0), Some(NodeId::new(2)));
        for _ in 0..50 {
            let peer = table.random_peer(0, &mut r).unwrap();
            assert!(node_ids(&table, 0).contains(&peer));
            assert_ne!(peer, NodeId::new(0));
        }
    }

    #[test]
    fn exchange_spreads_membership_information() {
        // 0 knows 1, 1 knows 2; after one exchange 0 must know 2 too.
        let mut table = table_of(5, &[0, 1], &[&[descriptor(1, 0)], &[descriptor(2, 0)]]);
        table.exchange(0, 1);
        assert_eq!(table.view(0), descriptors(&[(1, 0), (2, 0)]));
        assert_eq!(table.view(1), descriptors(&[(2, 0), (0, 0)]));
    }

    #[test]
    fn payload_is_the_view_then_a_fresh_self_descriptor() {
        let table = table_of(3, &[4], &[&[descriptor(1, 2)]]);
        let mut payload = vec![descriptor(8, 0)];
        table.write_payload(0, &mut payload);
        assert_eq!(payload, descriptors(&[(1, 2), (4, 0)]), "cleared first");
    }

    /// Merges `incoming` into a copy of the view of `owner` both ways and
    /// returns the entries, asserting that they agree position by position
    /// and name the same oldest peer.
    fn merge_against_oracle(
        capacity: usize,
        owner: usize,
        start: &[NodeDescriptor],
        incoming: &[NodeDescriptor],
    ) -> Vec<NodeDescriptor> {
        let mut table = table_of(capacity, &[owner], &[start]);
        table.merge(0, incoming.iter().copied());
        let mut expected = start.to_vec();
        oracle_merge(&mut expected, capacity, incoming, NodeId::new(owner));
        assert_eq!(table.view(0), expected);
        assert_eq!(table.oldest_peer(0), oracle_oldest(&expected));
        expected
    }

    #[test]
    fn full_view_merge_replaces_the_last_oldest_entry_in_place() {
        let view = descriptors(&[(1, 3), (2, 5), (3, 1), (4, 5)]);
        // Ties at age 5: the last one (node 4, position 3) is the victim; a
        // newcomer as old as it is dropped, a younger one takes its slot.
        let tied = merge_against_oracle(4, 0, &view, &descriptors(&[(9, 5)]));
        assert_eq!(tied, view);
        let younger = merge_against_oracle(4, 0, &view, &descriptors(&[(9, 4)]));
        assert_eq!(younger, descriptors(&[(1, 3), (2, 5), (3, 1), (9, 4)]));
        // Duplicates only ever lower an age, and never evict.
        let dups = merge_against_oracle(4, 0, &view, &descriptors(&[(2, 0), (3, 7)]));
        assert_eq!(dups, descriptors(&[(1, 3), (2, 0), (3, 1), (4, 5)]));
        // Refreshing the victim itself hands the role to the last entry
        // still at the maximum age.
        let moved = merge_against_oracle(4, 0, &view, &descriptors(&[(4, 0), (9, 4)]));
        assert_eq!(moved, descriptors(&[(1, 3), (9, 4), (3, 1), (4, 0)]));
        // The excluded node is never admitted, however young.
        let own = merge_against_oracle(4, 7, &view, &descriptors(&[(7, 0)]));
        assert_eq!(own, view);
    }

    #[test]
    fn merge_matches_the_oracle_when_the_view_fills_mid_merge_and_at_capacity_one() {
        let incoming = descriptors(&[(2, 6), (3, 6), (4, 1), (5, 6), (1, 0)]);
        let filled = merge_against_oracle(3, 0, &descriptors(&[(1, 2)]), &incoming);
        assert_eq!(filled, descriptors(&[(1, 0), (2, 6), (4, 1)]));
        let incoming = descriptors(&[(1, 4), (2, 4), (3, 2), (3, 5), (4, 3)]);
        let kept = merge_against_oracle(1, 0, &[], &incoming);
        assert_eq!(kept, descriptors(&[(3, 2)]));
    }

    #[test]
    fn refreshes_that_empty_the_oldest_ages_leave_no_stale_victim() {
        // Both refreshes empty the view's oldest age, the two pushes fill it
        // above them, and the evictions then walk back down past both, to
        // where node 7 is as old as the victim, node 1, and is dropped.
        let start = descriptors(&[(1, 3), (2, 2)]);
        let incoming = descriptors(&[(1, 1), (2, 0), (3, 5), (4, 4), (5, 0), (6, 0), (7, 1)]);
        let merged = merge_against_oracle(4, 0, &start, &incoming);
        assert_eq!(merged, descriptors(&[(1, 1), (2, 0), (5, 0), (6, 0)]));
    }

    /// The view of `owner` the oracle builds from `pairs`. Drawn ages from
    /// 5 up move to 30 and over, so the merge's shared last age bucket (31
    /// and older) comes up beside the ties of small ages.
    fn drawn_view(owner: usize, capacity: usize, pairs: &[(usize, u32)]) -> Vec<NodeDescriptor> {
        let age = |drawn: u32| if drawn < 5 { drawn } else { drawn + 25 };
        let incoming: Vec<NodeDescriptor> = pairs
            .iter()
            .map(|&(node, drawn)| descriptor(node, age(drawn)))
            .collect();
        let mut view = Vec::new();
        oracle_merge(&mut view, capacity, &incoming, NodeId::new(owner));
        view
    }

    proptest! {
        /// `merge` leaves the same entries in the same order as the
        /// push-then-evict oracle, from any reachable start: few node ids
        /// and few ages make duplicates and age ties common, the start is
        /// often part-full so views fill mid-merge, and capacity 1 is drawn.
        #[test]
        fn prop_merge_matches_the_push_then_evict_oracle(
            capacity in 1usize..7,
            start in proptest::collection::vec((0usize..12, 0u32..5), 0..10),
            incoming in proptest::collection::vec((0usize..12, 0u32..5), 0..24),
            owner in 0usize..12,
        ) {
            let mut view = Vec::new();
            oracle_merge(&mut view, capacity, &descriptors(&start), NodeId::new(owner));
            merge_against_oracle(capacity, owner, &view, &descriptors(&incoming));
        }

        /// A view never exceeds its capacity and never contains duplicates,
        /// no matter what descriptor stream is merged.
        #[test]
        fn prop_capacity_and_uniqueness_invariants(
            capacity in 1usize..8,
            inserts in proptest::collection::vec((0usize..20, 0u32..50), 0..100),
        ) {
            let mut table = table_of(capacity, &[99], &[&[]]);
            for (node, age) in inserts {
                table.merge(0, [descriptor(node, age)]);
                prop_assert!(table.view(0).len() <= capacity);
                let mut ids = node_ids(&table, 0);
                ids.sort();
                ids.dedup();
                prop_assert_eq!(ids.len(), table.view(0).len());
            }
        }

        /// `exchange` leaves both views as both payloads followed by
        /// `oracle_merge` each way: the same entries at the same positions,
        /// and the same oldest peer. Twelve ids make shared ids and
        /// duplicates common and few ages make ties common; views are drawn
        /// full and part-full, capacity 1 included, and the initiator
        /// (node 0) is often in the partner's view.
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
            let a = drawn_view(0, capacity, &initiator_view);
            let b = drawn_view(1, capacity, &partner_view);
            let mut table = table_of(capacity, &[0, 1], &[&a, &b]);
            let (mut offer, mut response) = (Vec::new(), Vec::new());
            table.write_payload(0, &mut offer);
            table.write_payload(1, &mut response);
            table.exchange(0, 1);

            let (mut expected_a, mut expected_b) = (a, b);
            oracle_merge(&mut expected_b, capacity, &offer, NodeId::new(1));
            oracle_merge(&mut expected_a, capacity, &response, NodeId::new(0));
            prop_assert_eq!(table.view(0), expected_a.as_slice());
            prop_assert_eq!(table.view(1), expected_b.as_slice());
            prop_assert_eq!(table.oldest_peer(0), oracle_oldest(&expected_a));
            prop_assert_eq!(table.oldest_peer(1), oracle_oldest(&expected_b));
        }
    }
}
