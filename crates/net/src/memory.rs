//! In-process transport backed by `std::sync::mpsc` channels.

use crate::codec::{self, FRAME_LEN};
use crate::{NetError, Transport};
use aggregate_core::GossipMessage;
use overlay_topology::NodeId;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// One encoded wire frame in flight.
type Frame = [u8; FRAME_LEN];

/// A single-process "network": one inbox per node, and one routing table of
/// inbox senders, indexed by node id, shared by every endpoint.
///
/// A send to an id outside the network, or to the endpoint itself, is
/// [`NetError::UnknownPeer`]; a send to a dropped endpoint is
/// [`NetError::Disconnected`]. Because the table keeps every inbox's sender
/// alive, a receive never disconnects: once the wait elapses it is `Ok(None)`.
///
/// The channels carry *encoded wire frames* ([`codec::encode`] on send,
/// [`codec::decode`] on receive), not in-process message structs, so every
/// message that crosses this transport exercises exactly the byte path the
/// UDP transport ships — which is what lets the deterministic in-memory
/// cluster pin the live wire format against the cycle engine bit-for-bit.
///
/// Used by unit/integration tests, by the quickstart example and as the
/// reference implementation against which the UDP transport is tested.
///
/// # Example
///
/// ```
/// use gossip_net::{InMemoryNetwork, Transport};
/// use aggregate_core::{GossipMessage, InstanceTag};
/// use overlay_topology::NodeId;
/// use std::time::Duration;
///
/// let endpoints = InMemoryNetwork::create(2);
/// let push = GossipMessage::Push {
///     from: NodeId::new(0),
///     to: NodeId::new(1),
///     instance: InstanceTag::DEFAULT,
///     epoch: 0,
///     value: 1.0,
/// };
/// endpoints[0].send(&push).unwrap();
/// let received = endpoints[1].recv_timeout(Duration::from_millis(50)).unwrap();
/// assert_eq!(received, Some(push));
/// ```
#[derive(Debug)]
pub struct InMemoryNetwork {
    id: NodeId,
    inbox: Receiver<Frame>,
    /// Sender to every endpoint's inbox, this one's included, by node id.
    routes: Arc<[Sender<Frame>]>,
}

impl InMemoryNetwork {
    /// Creates a fully connected in-memory network of `n` endpoints.
    pub fn create(n: usize) -> Vec<InMemoryNetwork> {
        let (routes, inboxes): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        let routes: Arc<[Sender<Frame>]> = routes.into();
        inboxes
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| InMemoryNetwork {
                id: NodeId::new(i),
                inbox,
                routes: Arc::clone(&routes),
            })
            .collect()
    }
}

impl Transport for InMemoryNetwork {
    fn local_node(&self) -> NodeId {
        self.id
    }

    fn peers(&self) -> Vec<NodeId> {
        (0..self.routes.len())
            .map(NodeId::new)
            .filter(|&node| node != self.id)
            .collect()
    }

    fn send(&self, message: &GossipMessage) -> Result<(), NetError> {
        let to = message.recipient();
        let route = self
            .routes
            .get(to.index())
            .filter(|_| to != self.id)
            .ok_or(NetError::UnknownPeer { peer: to.as_u32() })?;
        route
            .send(codec::encode(message))
            .map_err(|_| NetError::Disconnected)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<GossipMessage>, NetError> {
        // `routes` keeps a sender to this inbox alive, so a receive can only
        // time out, never disconnect.
        match self.inbox.recv_timeout(timeout) {
            Ok(frame) => codec::decode(&frame).map(Some),
            Err(_) => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggregate_core::InstanceTag;

    fn push(from: usize, to: usize, value: f64) -> GossipMessage {
        GossipMessage::Push {
            from: NodeId::new(from),
            to: NodeId::new(to),
            instance: InstanceTag::DEFAULT,
            epoch: 0,
            value,
        }
    }

    #[test]
    fn endpoints_know_their_identity_and_peers() {
        let endpoints = InMemoryNetwork::create(3);
        assert_eq!(endpoints[1].local_node(), NodeId::new(1));
        assert_eq!(endpoints[1].peers(), vec![NodeId::new(0), NodeId::new(2)]);
    }

    #[test]
    fn messages_are_routed_to_the_right_endpoint() {
        let endpoints = InMemoryNetwork::create(3);
        endpoints[0].send(&push(0, 2, 7.0)).unwrap();
        endpoints[1].send(&push(1, 2, 8.0)).unwrap();
        let timeout = Duration::from_millis(100);
        let first = endpoints[2].recv_timeout(timeout).unwrap().unwrap();
        let second = endpoints[2].recv_timeout(timeout).unwrap().unwrap();
        let values: Vec<f64> = [first, second]
            .iter()
            .map(|m| match m {
                GossipMessage::Push { value, .. } => *value,
                GossipMessage::Reply { value, .. } => *value,
            })
            .collect();
        assert!(values.contains(&7.0) && values.contains(&8.0));
        // Nothing was delivered to endpoint 1.
        assert_eq!(
            endpoints[1]
                .recv_timeout(Duration::from_millis(10))
                .unwrap(),
            None
        );
    }

    #[test]
    fn sending_to_unknown_or_self_is_an_error() {
        let endpoints = InMemoryNetwork::create(2);
        let err = endpoints[0].send(&push(0, 5, 1.0)).unwrap_err();
        assert!(matches!(err, NetError::UnknownPeer { peer: 5 }));
        // Self-sends are also unknown (no loopback channel).
        let err = endpoints[0].send(&push(0, 0, 1.0)).unwrap_err();
        assert!(matches!(err, NetError::UnknownPeer { peer: 0 }));
    }

    #[test]
    fn messages_cross_the_wire_codec_bit_exactly() {
        // The channels carry encoded frames; any f64 payload — including
        // non-finite ones — must survive the encode/decode hop bit-for-bit.
        let endpoints = InMemoryNetwork::create(2);
        for value in [1.5, -0.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            endpoints[0].send(&push(0, 1, value)).unwrap();
            let received = endpoints[1]
                .recv_timeout(Duration::from_millis(50))
                .unwrap()
                .unwrap();
            let GossipMessage::Push {
                value: received_value,
                ..
            } = received
            else {
                panic!("expected a push");
            };
            assert_eq!(received_value.to_bits(), value.to_bits());
        }
    }

    #[test]
    fn recv_timeout_returns_none_when_idle() {
        let endpoints = InMemoryNetwork::create(2);
        assert_eq!(
            endpoints[0].recv_timeout(Duration::from_millis(5)).unwrap(),
            None
        );
    }

    #[test]
    fn a_blocked_receive_is_woken_by_a_send_from_another_thread() {
        let mut endpoints = InMemoryNetwork::create(2).into_iter();
        let (sender, receiver) = (endpoints.next().unwrap(), endpoints.next().unwrap());
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            ready_tx.send(()).unwrap();
            receiver.recv_timeout(Duration::from_secs(5))
        });
        // The handshake orders the receive before the send; the pause makes
        // it likely that the receive is already blocked when the frame lands.
        ready_rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        sender.send(&push(0, 1, 42.0)).unwrap();
        assert_eq!(waiter.join().unwrap().unwrap(), Some(push(0, 1, 42.0)));
    }

    #[test]
    fn frames_from_one_sender_arrive_in_send_order() {
        let endpoints = InMemoryNetwork::create(2);
        for i in 0..10 {
            endpoints[0].send(&push(0, 1, f64::from(i))).unwrap();
        }
        for i in 0..10 {
            assert_eq!(
                endpoints[1].recv_timeout(Duration::ZERO).unwrap(),
                Some(push(0, 1, f64::from(i)))
            );
        }
    }

    #[test]
    fn sending_to_a_dropped_endpoint_is_disconnected() {
        let mut endpoints = InMemoryNetwork::create(2);
        drop(endpoints.pop());
        let err = endpoints[0].send(&push(0, 1, 1.0)).unwrap_err();
        assert!(matches!(err, NetError::Disconnected));
        // The shared routing table keeps every inbox's sender alive, so the
        // survivor's receive times out instead of reporting a disconnect.
        assert_eq!(endpoints[0].recv_timeout(Duration::ZERO).unwrap(), None);
    }
}
