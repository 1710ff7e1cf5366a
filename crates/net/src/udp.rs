//! UDP transport.

use crate::{codec, lock, NetError, Transport};
use aggregate_core::GossipMessage;
use overlay_topology::NodeId;
use std::collections::HashMap; // lint-allow(nondeterminism): keyed lookup only; peers() sorts before iterating
use std::net::{SocketAddr, UdpSocket};
use std::sync::Mutex;
use std::time::Duration;

/// A UDP-based transport endpoint: one socket per node plus a static address
/// book mapping node identifiers to socket addresses.
///
/// Gossip messages fit in a single 33-byte datagram ([`codec::FRAME_LEN`]), so
/// there is no framing or fragmentation to deal with; datagram loss simply
/// looks like the message-loss failure mode the protocol already tolerates.
///
/// # Example
///
/// ```no_run
/// use gossip_net::UdpTransport;
/// use overlay_topology::NodeId;
///
/// // Bind node 0 on a local port and tell it where node 1 lives.
/// let peers = vec![(NodeId::new(1), "127.0.0.1:4101".parse().unwrap())];
/// let transport = UdpTransport::bind(NodeId::new(0), "127.0.0.1:4100".parse().unwrap(), peers)?;
/// # Ok::<(), gossip_net::NetError>(())
/// ```
#[derive(Debug)]
pub struct UdpTransport {
    id: NodeId,
    socket: UdpSocket,
    // lint-allow(nondeterminism): address book is looked up by key; peers() sorts its keys
    address_book: HashMap<u32, SocketAddr>,
    // Nanoseconds of the read timeout currently programmed into the socket
    // (0 = nothing cached). Receive loops call recv_timeout with the same
    // duration over and over; caching it saves one setsockopt syscall per
    // receive. The mutex keeps the transport `Sync` and is held across the
    // setsockopt so cache and socket can never disagree under concurrency.
    read_timeout_nanos: Mutex<u64>,
}

impl UdpTransport {
    /// Binds a UDP socket for `id` on `local_address` and registers the peer
    /// address book.
    ///
    /// # Errors
    ///
    /// Returns an error when the socket cannot be bound.
    pub fn bind(
        id: NodeId,
        local_address: SocketAddr,
        peers: Vec<(NodeId, SocketAddr)>,
    ) -> Result<Self, NetError> {
        let socket = UdpSocket::bind(local_address)?;
        Ok(UdpTransport {
            id,
            socket,
            address_book: peers
                .into_iter()
                .map(|(node, addr)| (node.as_u32(), addr))
                .collect(),
            read_timeout_nanos: Mutex::new(0),
        })
    }

    /// The local socket address this transport is bound to (useful when
    /// binding to port 0 and letting the OS pick).
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket error.
    pub fn local_address(&self) -> Result<SocketAddr, NetError> {
        Ok(self.socket.local_addr()?)
    }

    /// Adds or updates one entry of the address book.
    pub fn register_peer(&mut self, node: NodeId, address: SocketAddr) {
        self.address_book.insert(node.as_u32(), address);
    }
}

impl Transport for UdpTransport {
    fn local_node(&self) -> NodeId {
        self.id
    }

    fn peers(&self) -> Vec<NodeId> {
        let mut peers: Vec<NodeId> = self
            .address_book
            .keys()
            .map(|&raw| NodeId::from_u32(raw))
            .filter(|&node| node != self.id)
            .collect();
        peers.sort();
        peers
    }

    fn send(&self, message: &GossipMessage) -> Result<(), NetError> {
        let to = message.recipient();
        let address = self
            .address_book
            .get(&to.as_u32())
            .ok_or(NetError::UnknownPeer { peer: to.as_u32() })?;
        let frame = codec::encode(message);
        self.socket.send_to(&frame, address)?;
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<GossipMessage>, NetError> {
        // std rejects a zero read timeout; the smallest non-zero one turns
        // `Duration::ZERO` into the poll the `Transport` contract promises.
        let timeout = timeout.max(Duration::from_nanos(1));
        // Only touch the socket option when the requested timeout changed.
        // Timeouts that don't fit the cache key (≥ ~584 years) always take
        // the syscall path, preserving the socket's error behaviour.
        {
            let key = u64::try_from(timeout.as_nanos()).unwrap_or(0);
            let mut cached = lock(&self.read_timeout_nanos);
            if key == 0 || *cached != key {
                self.socket.set_read_timeout(Some(timeout))?;
                *cached = key;
            }
        }
        let mut buffer = [0u8; codec::FRAME_LEN];
        match self.socket.recv_from(&mut buffer) {
            Ok((len, _from)) => Ok(Some(codec::decode(&buffer[..len])?)),
            Err(err)
                if err.kind() == std::io::ErrorKind::WouldBlock
                    || err.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(err) => Err(NetError::Io(err)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggregate_core::InstanceTag;

    fn localhost(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    fn bind_pair() -> (UdpTransport, UdpTransport) {
        // Bind with port 0 (OS-assigned), then exchange the real addresses.
        let mut a = UdpTransport::bind(NodeId::new(0), localhost(0), vec![]).unwrap();
        let mut b = UdpTransport::bind(NodeId::new(1), localhost(0), vec![]).unwrap();
        let addr_a = a.local_address().unwrap();
        let addr_b = b.local_address().unwrap();
        a.register_peer(NodeId::new(1), addr_b);
        b.register_peer(NodeId::new(0), addr_a);
        (a, b)
    }

    #[test]
    fn push_pull_round_trip_over_udp() {
        let (a, b) = bind_pair();
        let push = GossipMessage::Push {
            from: NodeId::new(0),
            to: NodeId::new(1),
            instance: InstanceTag::DEFAULT,
            epoch: 3,
            value: 12.5,
        };
        a.send(&push).unwrap();
        let received = b
            .recv_timeout(Duration::from_millis(500))
            .unwrap()
            .expect("datagram should arrive on loopback");
        assert_eq!(received, push);

        let reply = GossipMessage::Reply {
            from: NodeId::new(1),
            to: NodeId::new(0),
            instance: InstanceTag::DEFAULT,
            epoch: 3,
            value: -1.0,
        };
        b.send(&reply).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(500)).unwrap(),
            Some(reply)
        );
    }

    #[test]
    fn timeout_returns_none_and_unknown_peer_is_an_error() {
        let (a, _b) = bind_pair();
        assert_eq!(a.recv_timeout(Duration::from_millis(10)).unwrap(), None);
        let to_unknown = GossipMessage::Push {
            from: NodeId::new(0),
            to: NodeId::new(9),
            instance: InstanceTag::DEFAULT,
            epoch: 0,
            value: 0.0,
        };
        assert!(matches!(
            a.send(&to_unknown).unwrap_err(),
            NetError::UnknownPeer { peer: 9 }
        ));
    }

    #[test]
    fn cached_read_timeout_still_honours_repeated_and_changed_timeouts() {
        let (a, b) = bind_pair();
        // Same timeout over and over: only the first receive pays the
        // setsockopt; the cached path must still time out correctly.
        for _ in 0..3 {
            assert_eq!(a.recv_timeout(Duration::from_millis(5)).unwrap(), None);
        }
        assert_eq!(
            *lock(&a.read_timeout_nanos),
            Duration::from_millis(5).as_nanos() as u64
        );
        // Changing the timeout reprograms the socket and still delivers.
        let push = GossipMessage::Push {
            from: NodeId::new(1),
            to: NodeId::new(0),
            instance: InstanceTag::DEFAULT,
            epoch: 1,
            value: 2.0,
        };
        b.send(&push).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(500)).unwrap(),
            Some(push)
        );
        assert_eq!(
            *lock(&a.read_timeout_nanos),
            Duration::from_millis(500).as_nanos() as u64
        );
        // The cache must not cost the transport its shared-reference
        // thread-safety.
        fn assert_sync<T: Sync>() {}
        assert_sync::<UdpTransport>();
    }

    #[test]
    fn peers_lists_the_address_book() {
        let (a, b) = bind_pair();
        assert_eq!(a.peers(), vec![NodeId::new(1)]);
        assert_eq!(b.peers(), vec![NodeId::new(0)]);
        assert_eq!(a.local_node(), NodeId::new(0));
    }
}
