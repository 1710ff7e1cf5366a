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
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        PartialView {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// The maximum number of descriptors the view can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
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
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.entries.iter().map(|d| d.node).collect()
    }

    /// Returns `true` if the view holds a descriptor for `node`.
    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.iter().any(|d| d.node == node)
    }

    /// Inserts a descriptor, keeping only the youngest descriptor per node and
    /// evicting the oldest entry when the capacity would be exceeded.
    pub fn insert(&mut self, descriptor: NodeDescriptor) {
        let oldest = self.last_oldest();
        self.admit(descriptor, oldest);
    }

    /// Merges the descriptors received from a peer (the newscast merge): take
    /// the union, deduplicate keeping the youngest, keep the `capacity`
    /// freshest entries. `exclude` (normally the merging node itself) is never
    /// admitted into the view.
    ///
    /// Equivalent to [`PartialView::insert`] of each descriptor in turn. The
    /// eviction victim is carried from one descriptor to the next, so the
    /// view is rescanned for it only after the victim itself changed.
    pub fn merge(&mut self, incoming: &[NodeDescriptor], exclude: NodeId) {
        let mut oldest = self.last_oldest();
        for &descriptor in incoming {
            if descriptor.node != exclude {
                oldest = self.admit(descriptor, oldest);
            }
        }
    }

    /// Position and age of the *last* entry of maximum age, the eviction
    /// victim; `(0, 0)` for an empty view.
    fn last_oldest(&self) -> (usize, u32) {
        let mut oldest = (0, 0);
        for (i, entry) in self.entries.iter().enumerate() {
            if entry.age >= oldest.1 {
                oldest = (i, entry.age);
            }
        }
        oldest
    }

    /// Inserts `descriptor` given the current [`PartialView::last_oldest`]
    /// and returns the updated one.
    ///
    /// A newcomer is appended while the view has room. Once it is full, the
    /// newcomer overwrites the victim in place if strictly younger and is
    /// dropped otherwise. That is exactly where pushing it and then
    /// `swap_remove`-ing the last maximum-age entry of the overfull view
    /// would leave every entry.
    fn admit(&mut self, descriptor: NodeDescriptor, oldest: (usize, u32)) -> (usize, u32) {
        let (victim, victim_age) = oldest;
        match self.entries.iter().position(|d| d.node == descriptor.node) {
            Some(i) if descriptor.age < self.entries[i].age => {
                self.entries[i].age = descriptor.age;
                // Lowering any other age leaves the last maximum in place.
                if i == victim {
                    self.last_oldest()
                } else {
                    oldest
                }
            }
            Some(_) => oldest,
            None if self.entries.len() < self.capacity => {
                self.entries.push(descriptor);
                if descriptor.age >= victim_age {
                    (self.entries.len() - 1, descriptor.age)
                } else {
                    oldest
                }
            }
            None if descriptor.age < victim_age => {
                self.entries[victim] = descriptor;
                self.last_oldest()
            }
            None => oldest,
        }
    }

    /// Increments the age of every descriptor by one cycle.
    pub fn age_all(&mut self) {
        for descriptor in &mut self.entries {
            *descriptor = descriptor.aged();
        }
    }

    /// Removes the descriptor of `node` (e.g. when an exchange with it failed
    /// and it is suspected to have crashed). Returns `true` if it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|d| d.node != node);
        before != self.entries.len()
    }

    /// Picks a uniformly random node from the view.
    pub fn random_peer<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<NodeId> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries[rng.gen_range(0..self.entries.len())].node)
        }
    }

    /// Picks the *oldest* descriptor's node (newscast's partner-selection
    /// heuristic that speeds up the removal of stale descriptors); among
    /// equally old entries, the last one, which is also the eviction victim.
    pub fn oldest_peer(&self) -> Option<NodeId> {
        self.entries.get(self.last_oldest().0).map(|d| d.node)
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

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _ = PartialView::new(0);
    }

    #[test]
    fn insert_deduplicates_keeping_the_youngest() {
        let mut view = PartialView::new(4);
        view.insert(NodeDescriptor::with_age(NodeId::new(1), 5));
        view.insert(NodeDescriptor::with_age(NodeId::new(1), 2));
        view.insert(NodeDescriptor::with_age(NodeId::new(1), 9));
        assert_eq!(view.len(), 1);
        assert_eq!(view.iter().next().unwrap().age, 2);
    }

    #[test]
    fn capacity_is_enforced_by_evicting_the_oldest() {
        let mut view = PartialView::new(2);
        view.insert(NodeDescriptor::with_age(NodeId::new(1), 7));
        view.insert(NodeDescriptor::with_age(NodeId::new(2), 1));
        view.insert(NodeDescriptor::with_age(NodeId::new(3), 3));
        assert_eq!(view.len(), 2);
        assert!(
            !view.contains(NodeId::new(1)),
            "oldest entry must be evicted"
        );
        assert!(view.contains(NodeId::new(2)));
        assert!(view.contains(NodeId::new(3)));
    }

    #[test]
    fn merge_excludes_self_and_respects_capacity() {
        let mut view = PartialView::new(3);
        let incoming = vec![
            NodeDescriptor::with_age(NodeId::new(0), 0), // self, must be excluded
            NodeDescriptor::with_age(NodeId::new(1), 4),
            NodeDescriptor::with_age(NodeId::new(2), 1),
            NodeDescriptor::with_age(NodeId::new(3), 2),
            NodeDescriptor::with_age(NodeId::new(4), 9),
        ];
        view.merge(&incoming, NodeId::new(0));
        assert_eq!(view.len(), 3);
        assert!(!view.contains(NodeId::new(0)));
        assert!(
            !view.contains(NodeId::new(4)),
            "the oldest descriptor loses"
        );
    }

    #[test]
    fn aging_and_removal() {
        let mut view = PartialView::new(3);
        view.insert(NodeDescriptor::fresh(NodeId::new(1)));
        view.insert(NodeDescriptor::with_age(NodeId::new(2), 3));
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
        view.insert(NodeDescriptor::with_age(NodeId::new(1), 0));
        view.insert(NodeDescriptor::with_age(NodeId::new(2), 8));
        view.insert(NodeDescriptor::with_age(NodeId::new(3), 3));
        assert_eq!(view.oldest_peer(), Some(NodeId::new(2)));
        let mut r = rng();
        for _ in 0..50 {
            let peer = view.random_peer(&mut r).unwrap();
            assert!(view.contains(peer));
        }
    }

    #[test]
    fn node_ids_lists_current_members() {
        let mut view = PartialView::new(4);
        view.insert(NodeDescriptor::fresh(NodeId::new(7)));
        view.insert(NodeDescriptor::fresh(NodeId::new(9)));
        let mut ids = view.node_ids();
        ids.sort();
        assert_eq!(ids, vec![NodeId::new(7), NodeId::new(9)]);
        assert_eq!(view.capacity(), 4);
        assert!(!view.is_empty());
    }

    /// The merge as it was before the eviction victim was carried between
    /// descriptors: append a newcomer, then `swap_remove` the last
    /// maximum-age entry while the view is over capacity.
    fn oracle_merge(view: &mut PartialView, incoming: &[NodeDescriptor], exclude: NodeId) {
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

    fn descriptors(pairs: &[(usize, u32)]) -> Vec<NodeDescriptor> {
        pairs
            .iter()
            .map(|&(node, age)| NodeDescriptor::with_age(NodeId::new(node), age))
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
                view.insert(NodeDescriptor::with_age(NodeId::new(node as usize), age));
                prop_assert!(view.len() <= capacity);
                let mut ids = view.node_ids();
                ids.sort();
                ids.dedup();
                prop_assert_eq!(ids.len(), view.len());
            }
        }
    }
}
