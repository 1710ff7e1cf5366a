//! Bounded partial views of node descriptors.

use crate::NodeDescriptor;
use overlay_topology::NodeId;
use rand::Rng;

/// A bounded set of [`NodeDescriptor`]s — the "neighbour set" a node knows
/// about.
///
/// The view never contains two descriptors for the same node (the younger one
/// wins) and never exceeds its capacity (the oldest entries are evicted
/// first), which is the newscast merge rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialView {
    capacity: usize,
    entries: Vec<NodeDescriptor>,
}

impl PartialView {
    /// Creates an empty view with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        PartialView {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// The number of descriptors currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the view holds no descriptors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the descriptors (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &NodeDescriptor> {
        self.entries.iter()
    }

    /// The node identifiers currently in the view.
    pub(crate) fn node_ids(&self) -> Vec<NodeId> {
        self.entries.iter().map(|d| d.node).collect()
    }

    /// Merges the descriptors received from a peer (the newscast merge): take
    /// the union, deduplicate keeping the youngest, keep the `capacity`
    /// freshest entries. `exclude` (normally the merging node itself) is never
    /// admitted into the view.
    pub(crate) fn merge(&mut self, incoming: &[NodeDescriptor], exclude: NodeId) {
        self.admit_all(incoming.iter().copied().filter(|d| d.node != exclude));
    }

    /// Admits each descriptor in turn, the one merge rule behind
    /// [`PartialView::merge`] and [`crate::NewscastNode::new`]'s bootstrap.
    ///
    /// A newcomer already in the view only ever lowers that entry's age. Any
    /// other newcomer is appended while the view has room. Once it is full,
    /// the newcomer overwrites the victim, the last entry of maximum age, in
    /// place if strictly younger and is dropped otherwise. That is exactly
    /// where pushing it and then `swap_remove`-ing the last maximum-age entry
    /// of the overfull view would leave every entry.
    ///
    /// One pass over the view at the start fills an [`IdFilter`] and an
    /// [`AgeIndex`]. After that a newcomer costs a filter probe, a scan of
    /// the view only on a filter hit, and a constant number of mask updates;
    /// in a full view, one at least as old as the victim costs a comparison.
    pub(crate) fn admit_all(&mut self, incoming: impl IntoIterator<Item = NodeDescriptor>) {
        let shift = self
            .capacity
            .div_ceil(64)
            .next_power_of_two()
            .trailing_zeros();
        if shift == 0 {
            // Views of up to 64 entries, every NEWSCAST cache in this
            // workspace, get a copy with a constant shift and an inline index.
            self.admit_with(incoming, &mut [0; AGE_BUCKETS], 0);
        } else {
            self.admit_with(incoming, &mut vec![0; AGE_BUCKETS << shift], shift);
        }
    }

    /// [`PartialView::admit_all`] with the index in `masks`, zeroed, of
    /// `AGE_BUCKETS << shift` words.
    #[inline(always)]
    fn admit_with(
        &mut self,
        incoming: impl IntoIterator<Item = NodeDescriptor>,
        masks: &mut [u64],
        shift: u32,
    ) {
        let mut ids = IdFilter::default();
        let mut ages = AgeIndex::new(masks, shift, &self.entries, &mut ids);
        let mut incoming = incoming.into_iter();
        while self.entries.len() < self.capacity {
            let Some(descriptor) = incoming.next() else {
                return;
            };
            if !refresh(&mut self.entries, &mut ages, &ids, descriptor) {
                ids.note(descriptor.node);
                ages.insert(self.entries.len(), descriptor.age);
                self.entries.push(descriptor);
            }
        }
        // Full from here on, and a slice: nothing below can reallocate.
        let entries = self.entries.as_mut_slice();
        for descriptor in incoming {
            let (victim, victim_age) = ages.victim(entries);
            // No entry is older than the victim, so a newcomer at least as
            // old would neither be admitted nor refresh its duplicate.
            if descriptor.age >= victim_age || refresh(entries, &mut ages, &ids, descriptor) {
                continue;
            }
            ids.note(descriptor.node);
            ages.lower(victim, victim_age, descriptor.age);
            entries[victim] = descriptor;
        }
    }

    /// Increments the age of every descriptor by one cycle.
    pub(crate) fn age_all(&mut self) {
        for descriptor in &mut self.entries {
            *descriptor = descriptor.aged();
        }
    }

    /// Removes the descriptor of `node` (e.g. when an exchange with it failed
    /// and it is suspected to have crashed). Returns `true` if it was present.
    pub(crate) fn remove(&mut self, node: NodeId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|d| d.node != node);
        before != self.entries.len()
    }

    /// Picks a uniformly random node from the view.
    pub(crate) fn random_peer<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<NodeId> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries[rng.gen_range(0..self.entries.len())].node)
        }
    }

    /// Picks the *oldest* descriptor's node (the partner rule of
    /// [`crate::NewscastNode::exchange_partner`], which speeds up the removal
    /// of stale descriptors); among equally old entries, the last one, which
    /// is also the eviction victim.
    pub(crate) fn oldest_peer(&self) -> Option<NodeId> {
        self.entries.get(last_oldest(&self.entries)).map(|d| d.node)
    }
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

/// The merge rule in its plainest form, the tests' oracle: append a
/// newcomer, then `swap_remove` the last maximum-age entry while the view is
/// over capacity.
#[cfg(test)]
pub(crate) fn oracle_merge(view: &mut PartialView, incoming: &[NodeDescriptor], exclude: NodeId) {
    for descriptor in incoming.iter().filter(|d| d.node != exclude) {
        match view.entries.iter_mut().find(|d| d.node == descriptor.node) {
            Some(existing) => {
                if descriptor.age < existing.age {
                    existing.age = descriptor.age;
                }
            }
            None => {
                view.entries.push(*descriptor);
                while view.entries.len() > view.capacity {
                    let (idx, _) = view
                        .entries
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, d)| d.age)
                        .unwrap();
                    view.entries.swap_remove(idx);
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

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _ = PartialView::new(0);
    }

    #[test]
    fn insert_deduplicates_keeping_the_youngest() {
        let mut view = PartialView::new(4);
        view.admit_all([descriptor(1, 5)]);
        view.admit_all([descriptor(1, 2)]);
        view.admit_all([descriptor(1, 9)]);
        assert_eq!(view.len(), 1);
        assert_eq!(view.iter().next().unwrap().age, 2);
    }

    #[test]
    fn capacity_is_enforced_by_evicting_the_oldest() {
        let mut view = PartialView::new(2);
        view.admit_all([descriptor(1, 7)]);
        view.admit_all([descriptor(2, 1)]);
        view.admit_all([descriptor(3, 3)]);
        assert_eq!(view.len(), 2);
        assert!(
            !view.node_ids().contains(&NodeId::new(1)),
            "oldest entry must be evicted"
        );
        assert!(view.node_ids().contains(&NodeId::new(2)));
        assert!(view.node_ids().contains(&NodeId::new(3)));
    }

    #[test]
    fn merge_excludes_self_and_respects_capacity() {
        let mut view = PartialView::new(3);
        let incoming = vec![
            descriptor(0, 0), // self, must be excluded
            descriptor(1, 4),
            descriptor(2, 1),
            descriptor(3, 2),
            descriptor(4, 9),
        ];
        view.merge(&incoming, NodeId::new(0));
        assert_eq!(view.len(), 3);
        assert!(!view.node_ids().contains(&NodeId::new(0)));
        assert!(
            !view.node_ids().contains(&NodeId::new(4)),
            "the oldest descriptor loses"
        );
    }

    #[test]
    fn aging_and_removal() {
        let mut view = PartialView::new(3);
        view.admit_all([NodeDescriptor::fresh(NodeId::new(1))]);
        view.admit_all([descriptor(2, 3)]);
        view.age_all();
        let ages: Vec<u32> = view.iter().map(|d| d.age).collect();
        assert!(ages.contains(&1) && ages.contains(&4));
        assert!(view.remove(NodeId::new(1)));
        assert!(!view.remove(NodeId::new(1)));
        assert_eq!(view.len(), 1);
    }

    #[test]
    fn random_and_oldest_peer_selection() {
        let mut view = PartialView::new(4);
        assert!(view.random_peer(&mut rng()).is_none());
        assert!(view.oldest_peer().is_none());
        view.admit_all([descriptor(1, 0)]);
        view.admit_all([descriptor(2, 8)]);
        view.admit_all([descriptor(3, 3)]);
        assert_eq!(view.oldest_peer(), Some(NodeId::new(2)));
        let mut r = rng();
        for _ in 0..50 {
            let peer = view.random_peer(&mut r).unwrap();
            assert!(view.node_ids().contains(&peer));
        }
    }

    #[test]
    fn node_ids_lists_current_members() {
        let mut view = PartialView::new(4);
        view.admit_all([NodeDescriptor::fresh(NodeId::new(7))]);
        view.admit_all([NodeDescriptor::fresh(NodeId::new(9))]);
        let mut ids = view.node_ids();
        ids.sort();
        assert_eq!(ids, vec![NodeId::new(7), NodeId::new(9)]);
        assert!(!view.is_empty());
    }

    fn descriptors(pairs: &[(usize, u32)]) -> Vec<NodeDescriptor> {
        pairs
            .iter()
            .map(|&(node, age)| descriptor(node, age))
            .collect()
    }

    /// Merges `incoming` into a copy of `start` both ways and returns the
    /// entries, asserting that they agree position by position and name the
    /// same oldest peer.
    fn merge_against_oracle(
        start: &PartialView,
        incoming: &[NodeDescriptor],
        exclude: NodeId,
    ) -> Vec<NodeDescriptor> {
        let mut merged = start.clone();
        merged.merge(incoming, exclude);
        let mut expected = start.clone();
        oracle_merge(&mut expected, incoming, exclude);
        assert_eq!(merged.entries, expected.entries);
        assert_eq!(
            merged.oldest_peer(),
            expected
                .entries
                .iter()
                .max_by_key(|d| d.age)
                .map(|d| d.node)
        );
        merged.entries
    }

    #[test]
    fn full_view_merge_replaces_the_last_oldest_entry_in_place() {
        let mut view = PartialView::new(4);
        view.merge(
            &descriptors(&[(1, 3), (2, 5), (3, 1), (4, 5)]),
            NodeId::new(0),
        );
        // Ties at age 5: the last one (node 4, position 3) is the victim; a
        // newcomer as old as it is dropped, a younger one takes its slot.
        let tied = merge_against_oracle(&view, &descriptors(&[(9, 5)]), NodeId::new(0));
        assert_eq!(tied, view.entries);
        let younger = merge_against_oracle(&view, &descriptors(&[(9, 4)]), NodeId::new(0));
        assert_eq!(younger, descriptors(&[(1, 3), (2, 5), (3, 1), (9, 4)]));
        // Duplicates only ever lower an age, and never evict.
        let dups = merge_against_oracle(&view, &descriptors(&[(2, 0), (3, 7)]), NodeId::new(0));
        assert_eq!(dups, descriptors(&[(1, 3), (2, 0), (3, 1), (4, 5)]));
        // Refreshing the victim itself hands the role to the last entry
        // still at the maximum age.
        let moved = merge_against_oracle(&view, &descriptors(&[(4, 0), (9, 4)]), NodeId::new(0));
        assert_eq!(moved, descriptors(&[(1, 3), (9, 4), (3, 1), (4, 0)]));
        // The excluded node is never admitted, however young.
        let own = merge_against_oracle(&view, &descriptors(&[(7, 0)]), NodeId::new(7));
        assert_eq!(own, view.entries);
    }

    #[test]
    fn merge_matches_the_oracle_when_the_view_fills_mid_merge_and_at_capacity_one() {
        let mut view = PartialView::new(3);
        view.merge(&descriptors(&[(1, 2)]), NodeId::new(0));
        let filled = merge_against_oracle(
            &view,
            &descriptors(&[(2, 6), (3, 6), (4, 1), (5, 6), (1, 0)]),
            NodeId::new(0),
        );
        assert_eq!(filled, descriptors(&[(1, 0), (2, 6), (4, 1)]));
        let single = PartialView::new(1);
        let kept = merge_against_oracle(
            &single,
            &descriptors(&[(1, 4), (2, 4), (3, 2), (3, 5), (4, 3)]),
            NodeId::new(0),
        );
        assert_eq!(kept, descriptors(&[(3, 2)]));
    }

    #[test]
    fn refreshes_that_empty_the_oldest_ages_leave_no_stale_victim() {
        let mut view = PartialView::new(4);
        view.merge(&descriptors(&[(1, 3), (2, 2)]), NodeId::new(0));
        // Both refreshes empty the view's oldest age, the two pushes fill it
        // above them, and the evictions then walk back down past both, to
        // where node 7 is as old as the victim, node 1, and is dropped.
        let incoming = descriptors(&[(1, 1), (2, 0), (3, 5), (4, 4), (5, 0), (6, 0), (7, 1)]);
        let merged = merge_against_oracle(&view, &incoming, NodeId::new(0));
        assert_eq!(merged, descriptors(&[(1, 1), (2, 0), (5, 0), (6, 0)]));
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
            exclude in 0usize..12,
        ) {
            let mut view = PartialView::new(capacity);
            oracle_merge(&mut view, &descriptors(&start), NodeId::new(exclude));
            merge_against_oracle(&view, &descriptors(&incoming), NodeId::new(exclude));
        }

        /// The view never exceeds its capacity and never contains duplicates,
        /// no matter what descriptor stream is inserted.
        #[test]
        fn prop_capacity_and_uniqueness_invariants(
            capacity in 1usize..8,
            inserts in proptest::collection::vec((0u32..20, 0u32..50), 0..100),
        ) {
            let mut view = PartialView::new(capacity);
            for (node, age) in inserts {
                view.admit_all([descriptor(node as usize, age)]);
                prop_assert!(view.len() <= capacity);
                let mut ids = view.node_ids();
                ids.sort();
                ids.dedup();
                prop_assert_eq!(ids.len(), view.len());
            }
        }
    }
}
