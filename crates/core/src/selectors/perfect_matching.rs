//! `GETPAIR_PM`: non-overlapping perfect matchings (the optimal reference).

use super::PairSelector;
use overlay_topology::{NodeId, Topology};
use rand::seq::SliceRandom;
use rand::RngCore;
use std::collections::VecDeque;

/// The paper's `GETPAIR_PM`: pairs are taken from precomputed perfect
/// matchings, so within one cycle every node participates in **exactly two**
/// exchanges (`φ ≡ 2`), which Lemma 2 shows is the optimum — a per-cycle
/// variance reduction of exactly 1/4.
///
/// As the paper notes, this strategy "cannot be mapped to an efficient
/// distributed P2P protocol because it requires global knowledge of the
/// system"; it is implemented here purely as the reference point for the
/// convergence benchmarks (E1) and for validating Theorem 1.
///
/// # Behaviour per topology
///
/// * On (near-)complete topologies the selector builds a random perfect
///   matching from a shuffled permutation, and when it runs out it builds a
///   *second* matching guaranteed to share no pair with the first (the
///   "rotated" pairing of the same permutation), exactly as prescribed in
///   Section 3.3.1.
/// * On sparse topologies a random *maximal* matching is built greedily along
///   existing edges; nodes that cannot be matched are skipped (their slot
///   returns `None`). This keeps the selector usable on arbitrary graphs,
///   albeit without the optimality guarantee, which only holds for complete
///   overlays anyway.
#[derive(Debug, Default)]
pub(crate) struct PerfectMatchingSelector {
    /// Pairs remaining in the current matching.
    queue: VecDeque<(NodeId, NodeId)>,
    /// The shuffled permutation behind the current matching (complete-topology
    /// path only); reused to derive the second, disjoint matching.
    permutation: Vec<NodeId>,
    /// Whether the next refill should use the rotated (second) matching.
    use_rotation: bool,
}

impl PerfectMatchingSelector {
    /// Creates a new perfect-matching selector.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Treats the topology as complete if every node's degree is `n - 1`
    /// (checked on a small sample to stay O(1)).
    fn topology_is_complete(topology: &dyn Topology) -> bool {
        let n = topology.len();
        if n < 2 {
            return false;
        }
        let probes = [0usize, n / 2, n - 1];
        probes
            .iter()
            .all(|&i| topology.degree(NodeId::new(i)) == n - 1)
    }

    fn refill_complete(&mut self, topology: &dyn Topology, rng: &mut dyn RngCore) {
        let n = topology.len();
        if !self.use_rotation || self.permutation.len() != n {
            // Fresh permutation → first matching: (p0,p1), (p2,p3), …
            self.permutation = (0..n).map(NodeId::new).collect();
            self.permutation.shuffle(rng);
            self.queue = self
                .permutation
                .chunks_exact(2)
                .map(|c| (c[0], c[1]))
                .collect();
            self.use_rotation = true;
        } else {
            // Second matching from the same permutation, shifted by one:
            // (p1,p2), (p3,p4), …, (p_{n-1}, p0). For even n this is a perfect
            // matching sharing no pair with the first one.
            let p = &self.permutation;
            let n = p.len();
            let mut pairs = VecDeque::with_capacity(n / 2);
            let mut i = 1;
            while i + 1 < n {
                pairs.push_back((p[i], p[i + 1]));
                i += 2;
            }
            if n % 2 == 0 && n >= 2 {
                pairs.push_back((p[n - 1], p[0]));
            }
            self.queue = pairs;
            self.use_rotation = false;
        }
    }

    fn refill_sparse(&mut self, topology: &dyn Topology, rng: &mut dyn RngCore) {
        let n = topology.len();
        let mut order: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        order.shuffle(rng);
        let mut matched = vec![false; n];
        let mut pairs = VecDeque::with_capacity(n / 2);
        for &node in &order {
            if matched[node.index()] {
                continue;
            }
            // Try a few random neighbours, then fall back to scanning the
            // neighbour list for any unmatched one.
            let mut partner = None;
            for _ in 0..8 {
                if let Some(candidate) = topology.random_neighbor(node, rng) {
                    if !matched[candidate.index()] {
                        partner = Some(candidate);
                        break;
                    }
                }
            }
            if partner.is_none() {
                partner = topology
                    .neighbors(node)
                    .into_iter()
                    .find(|c| !matched[c.index()]);
            }
            if let Some(p) = partner {
                matched[node.index()] = true;
                matched[p.index()] = true;
                pairs.push_back((node, p));
            }
        }
        self.queue = pairs;
    }

    fn refill(&mut self, topology: &dyn Topology, rng: &mut dyn RngCore) {
        if Self::topology_is_complete(topology) {
            self.refill_complete(topology, rng);
        } else {
            self.refill_sparse(topology, rng);
        }
    }
}

impl PairSelector for PerfectMatchingSelector {
    fn begin_cycle(&mut self, _topology: &dyn Topology, _rng: &mut dyn RngCore) {
        // Matchings deliberately survive across cycle boundaries: the paper's
        // definition only requires that pairs are served matching-by-matching.
        // Restarting here would be equally valid; keeping the queue avoids
        // discarding half-used matchings when N is odd.
    }

    fn next_pair(
        &mut self,
        topology: &dyn Topology,
        rng: &mut dyn RngCore,
    ) -> Option<(NodeId, NodeId)> {
        if topology.len() < 2 {
            return None;
        }
        if self.queue.is_empty() {
            self.refill(topology, rng);
        }
        self.queue.pop_front()
    }

    fn name(&self) -> &'static str {
        "perfect-matching"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selectors::tests::contact_counts;
    use overlay_topology::{generators, CompleteTopology};
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn every_node_contacted_exactly_twice_per_cycle_on_complete_topology() {
        // This is the φ ≡ 2 property that makes PM optimal (rate 1/4).
        let topo = CompleteTopology::new(100);
        let mut r = rng();
        let mut selector = PerfectMatchingSelector::new();
        for _ in 0..5 {
            let counts = contact_counts(&mut selector, &topo, &mut r);
            assert!(
                counts.iter().all(|&c| c == 2),
                "expected every node to be selected exactly twice, got {counts:?}"
            );
        }
    }

    #[test]
    fn consecutive_matchings_share_no_pair() {
        let topo = CompleteTopology::new(20);
        let mut r = rng();
        let mut selector = PerfectMatchingSelector::new();
        selector.begin_cycle(&topo, &mut r);
        let mut first = HashSet::new();
        for _ in 0..10 {
            let (a, b) = selector.next_pair(&topo, &mut r).unwrap();
            first.insert(if a < b { (a, b) } else { (b, a) });
        }
        for _ in 0..10 {
            let (a, b) = selector.next_pair(&topo, &mut r).unwrap();
            let key = if a < b { (a, b) } else { (b, a) };
            assert!(
                !first.contains(&key),
                "pair {key:?} appeared in two consecutive matchings"
            );
        }
    }

    #[test]
    fn pairs_are_always_distinct_nodes() {
        let topo = CompleteTopology::new(50);
        let mut r = rng();
        let mut selector = PerfectMatchingSelector::new();
        selector.begin_cycle(&topo, &mut r);
        for _ in 0..200 {
            let (a, b) = selector.next_pair(&topo, &mut r).unwrap();
            assert_ne!(a, b);
        }
    }

    #[test]
    fn sparse_topology_uses_only_existing_edges() {
        let mut r = rng();
        let graph = generators::random_regular(60, 6, &mut r).unwrap();
        let mut selector = PerfectMatchingSelector::new();
        selector.begin_cycle(&graph, &mut r);
        for _ in 0..120 {
            if let Some((a, b)) = selector.next_pair(&graph, &mut r) {
                assert!(
                    graph.contains_edge(a, b),
                    "pair {a}-{b} is not an edge of the overlay"
                );
            }
        }
    }

    #[test]
    fn sparse_topology_matchings_touch_each_node_at_most_once() {
        let mut r = rng();
        let graph = generators::random_regular(40, 4, &mut r).unwrap();
        let mut selector = PerfectMatchingSelector::new();
        // Force a refill and inspect exactly one matching.
        selector.refill(&graph, &mut r);
        let mut seen = HashSet::new();
        while let Some((a, b)) = selector.queue.pop_front() {
            assert!(seen.insert(a), "node {a} matched twice in one matching");
            assert!(seen.insert(b), "node {b} matched twice in one matching");
        }
    }

    #[test]
    fn degenerate_topologies_produce_no_pairs() {
        let mut r = rng();
        let mut selector = PerfectMatchingSelector::new();
        assert!(selector
            .next_pair(&CompleteTopology::new(0), &mut r)
            .is_none());
        assert!(selector
            .next_pair(&CompleteTopology::new(1), &mut r)
            .is_none());
    }

    #[test]
    fn star_topology_matches_hub_with_one_leaf() {
        let mut r = rng();
        let star = generators::star(9);
        let mut selector = PerfectMatchingSelector::new();
        let counts = contact_counts(&mut selector, &star, &mut r);
        // The hub can only be matched once per matching; the selector must
        // never pair two leaves together.
        assert!(counts[0] >= 1);
        for leaf in 1..9 {
            assert!(counts[leaf] <= counts[0] + 1);
        }
    }
}
