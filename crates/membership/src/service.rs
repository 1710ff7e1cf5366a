//! The peer-sampling service abstraction.

use overlay_topology::NodeId;
use rand::RngCore;

/// A peer-sampling service: the interface the aggregation layer uses to obtain
/// gossip partners, independent of how neighbourhood information is
/// maintained.
///
/// [`crate::NewscastNode`] (a real membership protocol) implements it. The
/// aggregation paper's model corresponds to a service whose samples are
/// uniformly random over the whole network; newscast approximates this
/// closely, which is why the paper's convergence rates carry over to
/// membership-fed deployments.
pub trait PeerSampling {
    /// Returns a peer to gossip with, approximately uniformly random over the
    /// service's current view of the network, or `None` when no peer is known.
    fn select_peer(&mut self, rng: &mut dyn RngCore) -> Option<NodeId>;

    /// The node identifiers currently known to the service.
    fn known_peers(&self) -> Vec<NodeId>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NewscastNode;
    use rand::SeedableRng;

    #[test]
    fn trait_is_object_safe() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let node = NewscastNode::new(NodeId::new(1), 4, &[NodeId::new(2)]);
        let mut boxed: Box<dyn PeerSampling> = Box::new(node);
        assert_eq!(boxed.select_peer(&mut rng), Some(NodeId::new(2)));
        assert_eq!(boxed.known_peers(), vec![NodeId::new(2)]);
    }
}
