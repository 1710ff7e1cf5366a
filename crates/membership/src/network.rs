//! Whole-network newscast driver.

use crate::view::ViewTable;
use crate::NodeDescriptor;
use overlay_topology::{NodeId, ViewTopology};
use rand::seq::SliceRandom;
use rand::Rng;

/// A complete network of newscast nodes, driven cycle by cycle.
///
/// This is the piece that turns the membership substrate into something the
/// aggregation experiments can consume: after a few cycles of
/// [`NewscastNetwork::run_cycle`] the per-node views approximate a random
/// `view_size`-out-degree graph, which [`NewscastNetwork::view_topology`]
/// exports as an [`overlay_topology::ViewTopology`] for the aggregation
/// protocol or the simulator.
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
/// assert_eq!(network.view(NodeId::new(0)).len(), 1);
///
/// // One cycle: every node exchanges views with its oldest peer, so each
/// // learns of the third node, and then every descriptor ages by one.
/// network.run_cycle(&mut rng);
/// for i in 0..3 {
///     let view = network.view(NodeId::new(i));
///     assert_eq!(view.len(), 2);
///     assert!(view.iter().all(|d| d.node != NodeId::new(i) && d.age >= 1));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct NewscastNetwork {
    /// Slot `i` is node `NodeId::new(i)`.
    views: ViewTable,
}

impl NewscastNetwork {
    /// Bootstraps `n` nodes whose initial views contain only their successor
    /// on a ring — the weakest sensible starting point; a handful of cycles
    /// suffices to randomise it.
    ///
    /// # Panics
    ///
    /// Panics if `view_size` is zero.
    pub fn bootstrap_ring(n: usize, view_size: usize) -> Self {
        let mut views = ViewTable::with_capacity(view_size, n);
        for i in 0..n {
            views.reset(i, NodeId::new(i), &[NodeId::new((i + 1) % n)]);
        }
        NewscastNetwork { views }
    }

    /// Node `id`'s current view, in entry order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not one of the network's nodes.
    pub fn view(&self, id: NodeId) -> &[NodeDescriptor] {
        self.views.view(id.index())
    }

    /// Runs one membership cycle: every node (in random order) exchanges views
    /// with its oldest known peer, then all views age by one.
    pub fn run_cycle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let mut order: Vec<usize> = (0..self.views.slots()).collect();
        order.shuffle(rng);
        for initiator in order {
            if let Some(partner) = self.views.oldest_peer(initiator) {
                self.views.exchange(initiator, partner.index());
            }
        }
        self.views.age_all();
    }

    /// Exports the current directed views as a [`ViewTopology`].
    pub fn view_topology(&self) -> ViewTopology {
        let n = self.views.slots();
        let mut topology = ViewTopology::new(n);
        for slot in 0..n {
            let peers = self.views.view(slot).iter().map(|d| d.node).collect();
            topology.set_view(NodeId::new(slot), peers);
        }
        topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_topology::Topology;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(23)
    }

    #[test]
    fn ring_bootstrap_creates_one_contact_per_node() {
        let network = NewscastNetwork::bootstrap_ring(10, 5);
        assert_eq!(network.views.slots(), 10);
        for i in 0..10 {
            let successor = NodeDescriptor::fresh(NodeId::new((i + 1) % 10));
            assert_eq!(network.view(NodeId::new(i)), [successor]);
        }
    }

    #[test]
    fn views_fill_up_to_capacity_after_a_few_cycles() {
        let mut r = rng();
        let mut network = NewscastNetwork::bootstrap_ring(200, 10);
        for _ in 0..15 {
            network.run_cycle(&mut r);
        }
        let topology = network.view_topology();
        for i in 0..200 {
            assert_eq!(
                topology.degree(NodeId::new(i)),
                10,
                "node {i} has an under-full view"
            );
        }
    }

    #[test]
    fn emergent_overlay_is_connected_and_well_mixed() {
        let mut r = rng();
        let mut network = NewscastNetwork::bootstrap_ring(300, 15);
        for _ in 0..25 {
            network.run_cycle(&mut r);
        }
        // The union (undirected) graph of the views must be connected; check
        // via the in-degree distribution and a reachability walk over views.
        let mut in_degrees = vec![0usize; 300];
        for i in 0..300 {
            for descriptor in network.view(NodeId::new(i)) {
                in_degrees[descriptor.node.index()] += 1;
            }
        }
        assert!(
            in_degrees.iter().all(|&d| d > 0),
            "no node may be forgotten"
        );
        let max_in = *in_degrees.iter().max().unwrap();
        let mean_in: f64 = in_degrees.iter().sum::<usize>() as f64 / in_degrees.len() as f64;
        assert!(
            (max_in as f64) < 6.0 * mean_in,
            "in-degree distribution too skewed: max {max_in}, mean {mean_in}"
        );

        // Reachability from node 0 along directed view edges.
        let topology = network.view_topology();
        let mut visited = vec![false; 300];
        let mut stack = vec![NodeId::new(0)];
        visited[0] = true;
        while let Some(current) = stack.pop() {
            for peer in topology.view(current) {
                if !visited[peer.index()] {
                    visited[peer.index()] = true;
                    stack.push(*peer);
                }
            }
        }
        assert!(visited.iter().all(|&v| v), "overlay must stay connected");
    }

    #[test]
    fn degenerate_networks_do_not_panic() {
        let mut r = rng();
        let mut empty = NewscastNetwork::bootstrap_ring(0, 3);
        empty.run_cycle(&mut r);
        assert_eq!(empty.views.slots(), 0);
        let mut single = NewscastNetwork::bootstrap_ring(1, 3);
        single.run_cycle(&mut r);
        assert!(single.view(NodeId::new(0)).is_empty());
    }
}
