//! Whole-network newscast driver.

use crate::newscast::{pair_mut, ExchangeBuffers};
use crate::{NewscastNode, PeerSampling};
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
#[derive(Debug, Clone)]
pub struct NewscastNetwork {
    /// Node `i` is `NodeId::new(i)`.
    nodes: Vec<NewscastNode>,
    view_size: usize,
    exchange: ExchangeBuffers,
}

impl NewscastNetwork {
    /// Bootstraps `n` nodes whose initial views contain only their successor
    /// on a ring — the weakest sensible starting point; a handful of cycles
    /// suffices to randomise it.
    pub fn bootstrap_ring(n: usize, view_size: usize) -> Self {
        let nodes = (0..n)
            .map(|i| {
                let successor = NodeId::new((i + 1) % n.max(1));
                NewscastNode::new(NodeId::new(i), view_size, &[successor])
            })
            .collect();
        NewscastNetwork {
            nodes,
            view_size,
            exchange: ExchangeBuffers::default(),
        }
    }

    /// Bootstraps `n` nodes whose initial views contain `contacts_per_node`
    /// uniformly random contacts, or all `n - 1` other nodes when there are
    /// fewer.
    pub fn bootstrap_random<R: Rng + ?Sized>(
        n: usize,
        view_size: usize,
        contacts_per_node: usize,
        rng: &mut R,
    ) -> Self {
        let contacts_per_node = contacts_per_node.min(n.saturating_sub(1));
        let nodes = (0..n)
            .map(|i| {
                let mut contacts = Vec::with_capacity(contacts_per_node);
                while contacts.len() < contacts_per_node {
                    let candidate = NodeId::new(rng.gen_range(0..n));
                    if candidate != NodeId::new(i) && !contacts.contains(&candidate) {
                        contacts.push(candidate);
                    }
                }
                NewscastNode::new(NodeId::new(i), view_size, &contacts)
            })
            .collect();
        NewscastNetwork {
            nodes,
            view_size,
            exchange: ExchangeBuffers::default(),
        }
    }

    /// Number of nodes in the network.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The configured view size.
    pub fn view_size(&self) -> usize {
        self.view_size
    }

    /// Read access to a node.
    pub fn node(&self, id: NodeId) -> &NewscastNode {
        &self.nodes[id.index()]
    }

    /// Runs one membership cycle: every node (in random order) exchanges views
    /// with its oldest known peer, then all views age by one.
    pub fn run_cycle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.shuffle(rng);
        for initiator in order {
            let Some(partner) = self.nodes[initiator].exchange_partner() else {
                continue;
            };
            if let Some((a, b)) = pair_mut(&mut self.nodes, initiator, partner.index()) {
                self.exchange.exchange(a, b);
            }
        }
        for node in &mut self.nodes {
            node.end_cycle();
        }
    }

    /// Exports the current directed views as a [`ViewTopology`].
    pub fn view_topology(&self) -> ViewTopology {
        let mut topology = ViewTopology::new(self.nodes.len());
        for node in &self.nodes {
            topology.set_view(node.id(), node.known_peers());
        }
        topology
    }

    /// In-degree of every node in the current views: how many other nodes list
    /// it. A healthy peer-sampling service keeps this distribution narrow
    /// (no node is systematically over- or under-represented).
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut degrees = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            for peer in node.known_peers() {
                degrees[peer.index()] += 1;
            }
        }
        degrees
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
        assert_eq!(network.len(), 10);
        assert!(!network.is_empty());
        assert_eq!(network.view_size(), 5);
        for i in 0..10 {
            assert_eq!(
                network.node(NodeId::new(i)).known_peers(),
                vec![NodeId::new((i + 1) % 10)]
            );
        }
    }

    #[test]
    fn random_bootstrap_gives_requested_contacts() {
        let mut r = rng();
        let network = NewscastNetwork::bootstrap_random(50, 8, 3, &mut r);
        for i in 0..50 {
            let peers = network.node(NodeId::new(i)).known_peers();
            assert_eq!(peers.len(), 3);
            assert!(!peers.contains(&NodeId::new(i)));
        }
    }

    #[test]
    fn random_bootstrap_asks_for_at_most_every_other_node() {
        let network = NewscastNetwork::bootstrap_random(3, 8, 5, &mut rng());
        for i in 0..3 {
            let mut peers = network.node(NodeId::new(i)).known_peers();
            peers.sort();
            let others: Vec<NodeId> = (0..3).filter(|&j| j != i).map(NodeId::new).collect();
            assert_eq!(peers, others);
        }
        let single = NewscastNetwork::bootstrap_random(1, 8, 5, &mut rng());
        assert!(single.node(NodeId::new(0)).known_peers().is_empty());
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
        let in_degrees = network.in_degrees();
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
        assert!(empty.is_empty());
        let mut single = NewscastNetwork::bootstrap_ring(1, 3);
        single.run_cycle(&mut r);
        assert_eq!(single.len(), 1);
    }
}
