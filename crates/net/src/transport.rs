//! The transport abstraction.

use crate::NetError;
use aggregate_core::GossipMessage;
use overlay_topology::NodeId;
use std::time::Duration;

/// A message carrier between nodes.
///
/// A transport instance belongs to exactly one node (its
/// [`Transport::local_node`]); it can send a [`GossipMessage`] to any peer it
/// knows and receive messages addressed to its node. Implementations must be
/// `Send` so a node's runtime thread can own its transport.
///
/// Two implementations ship with the crate:
///
/// * [`crate::InMemoryNetwork`] — `std::sync::mpsc` channels carrying
///   frames encoded with [`crate::codec`] inside one process;
/// * [`crate::UdpTransport`] — UDP datagrams encoded with [`crate::codec`].
pub trait Transport: Send {
    /// The node this transport endpoint belongs to.
    fn local_node(&self) -> NodeId;

    /// The peers this transport can reach (the node's static neighbour set).
    fn peers(&self) -> Vec<NodeId>;

    /// Sends a message to its recipient.
    ///
    /// # Errors
    ///
    /// Returns an error if the recipient is unknown or the underlying channel
    /// or socket failed.
    fn send(&self, message: &GossipMessage) -> Result<(), NetError>;

    /// Waits up to `timeout` for the next message addressed to this node.
    ///
    /// Returns `Ok(None)` when the timeout elapsed without a message.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying channel or socket failed or an
    /// undecodable frame arrived.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<GossipMessage>, NetError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_trait_is_object_safe() {
        fn _takes_boxed(_t: Box<dyn Transport>) {}
    }
}
