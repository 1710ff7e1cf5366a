//! Integration coverage for the wire layer: every message variant must
//! round-trip through the public codec over real transport framing, and
//! malformed frames — truncated, oversized, garbage-tagged — must surface as
//! typed [`NetError::Decode`] values, never panics or silent drops.

use aggregate_core::{GossipMessage, InstanceTag};
use gossip_net::codec::{decode, encode, FRAME_LEN};
use gossip_net::{InMemoryNetwork, NetError, Transport, UdpTransport};
use overlay_topology::NodeId;
use std::net::SocketAddr;
use std::time::Duration;

/// One message of each variant for every interesting field shape: default
/// and leader-derived instance tags, epoch extremes, finite/subnormal/
/// non-finite payloads, and boundary node ids.
fn every_variant() -> Vec<GossipMessage> {
    let field_shapes = [
        (InstanceTag::DEFAULT, 0u64, 0.0f64),
        (InstanceTag::DEFAULT, 1, -0.0),
        (InstanceTag::from_leader(NodeId::new(7)), 42, 123.456),
        (
            InstanceTag::from_leader(NodeId::from_u32(u32::MAX)),
            u64::MAX,
            f64::MAX,
        ),
        (InstanceTag(u64::MAX), u64::MAX - 1, f64::MIN_POSITIVE),
        (InstanceTag(1), 9, f64::INFINITY),
        (InstanceTag(2), 10, f64::NEG_INFINITY),
        (InstanceTag(3), 11, f64::NAN),
    ];
    let mut messages = Vec::new();
    for (instance, epoch, value) in field_shapes {
        messages.push(GossipMessage::Push {
            from: NodeId::new(0),
            to: NodeId::from_u32(u32::MAX - 1),
            instance,
            epoch,
            value,
        });
        messages.push(GossipMessage::Reply {
            from: NodeId::from_u32(u32::MAX - 1),
            to: NodeId::new(0),
            instance,
            epoch,
            value,
        });
    }
    messages
}

#[test]
fn every_message_variant_round_trips_bit_exactly() {
    for message in every_variant() {
        let frame = encode(&message);
        assert_eq!(frame.len(), FRAME_LEN, "frames are fixed-size");
        let decoded = decode(&frame).expect("well-formed frame decodes");
        // NaN payloads compare unequal through PartialEq; the re-encoded
        // frame is the bit-exact witness for every payload.
        assert_eq!(
            encode(&decoded),
            frame,
            "round trip altered the frame for {message:?}"
        );
    }
}

/// The frame layout is a stability contract (documented as implementable
/// from other languages): pin the exact bytes of a known message.
#[test]
fn frame_layout_is_pinned() {
    let push = GossipMessage::Push {
        from: NodeId::new(1),
        to: NodeId::new(2),
        instance: InstanceTag(0x0102_0304_0506_0708),
        epoch: 0x1122_3344_5566_7788,
        value: 1.0,
    };
    let mut expected = vec![0u8]; // type tag: push
    expected.extend_from_slice(&1u32.to_be_bytes()); // from
    expected.extend_from_slice(&2u32.to_be_bytes()); // to
    expected.extend_from_slice(&0x0102_0304_0506_0708u64.to_be_bytes());
    expected.extend_from_slice(&0x1122_3344_5566_7788u64.to_be_bytes());
    expected.extend_from_slice(&1.0f64.to_bits().to_be_bytes());
    assert_eq!(encode(&push).to_vec(), expected);

    let reply = GossipMessage::Reply {
        from: NodeId::new(2),
        to: NodeId::new(1),
        instance: InstanceTag(0x0102_0304_0506_0708),
        epoch: 0x1122_3344_5566_7788,
        value: 1.0,
    };
    let mut reply_bytes = encode(&reply).to_vec();
    assert_eq!(reply_bytes[0], 1, "reply type tag");
    reply_bytes[0] = 0;
    // Beyond the tag, the layout is variant-independent — only from/to swap.
    assert_eq!(&reply_bytes[9..], &expected[9..]);
}

#[test]
fn truncated_frames_are_typed_decode_errors() {
    let frame = encode(&every_variant()[0]);
    for len in 0..FRAME_LEN {
        let err = decode(&frame[..len]).expect_err("truncation must fail");
        match err {
            NetError::Decode { reason } => {
                assert!(
                    reason.contains(&format!("got {len}")),
                    "reason should name the bad length: {reason}"
                );
            }
            other => panic!("truncated frame produced {other:?}, not Decode"),
        }
    }
}

#[test]
fn oversized_frames_are_typed_decode_errors() {
    let mut oversized = encode(&every_variant()[0]).to_vec();
    oversized.push(0);
    for extra in [1usize, 7, FRAME_LEN, 1024] {
        let mut frame = oversized.clone();
        frame.resize(FRAME_LEN + extra, 0xA5);
        let err = decode(&frame).expect_err("oversized frame must fail");
        assert!(
            matches!(err, NetError::Decode { .. }),
            "oversized frame produced {err:?}, not Decode"
        );
    }
}

#[test]
fn unknown_type_tags_are_typed_decode_errors() {
    let mut frame = encode(&every_variant()[0]).to_vec();
    for tag in [2u8, 3, 0x7F, 0xFF] {
        frame[0] = tag;
        match decode(&frame).expect_err("unknown tag must fail") {
            NetError::Decode { reason } => {
                assert!(reason.contains("unknown message type"), "reason: {reason}");
            }
            other => panic!("bad tag produced {other:?}, not Decode"),
        }
    }
}

/// Both transports keep one contract: an idle receive is `Ok(None)` whether
/// it waits (5 ms) or polls (`Duration::ZERO`), a send to an unknown peer is
/// `UnknownPeer`, and every variant survives the full hop — encoded on send,
/// carried by a channel or a loopback datagram, decoded on receive —
/// bit-exactly, NaN, −0.0 and ±∞ included.
#[test]
fn every_variant_crosses_both_transports_bit_exactly() {
    let endpoints = InMemoryNetwork::create(2);
    check_transport_contract(&endpoints[0], &endpoints[1]);

    let localhost = SocketAddr::from(([127, 0, 0, 1], 0));
    let mut a = UdpTransport::bind(NodeId::new(0), localhost, vec![]).unwrap();
    let mut b = UdpTransport::bind(NodeId::new(1), localhost, vec![]).unwrap();
    a.register_peer(NodeId::new(1), b.local_address().unwrap());
    b.register_peer(NodeId::new(0), a.local_address().unwrap());
    check_transport_contract(&a, &b);
}

/// Runs the contract from node 0's endpoint `sender` to node 1's `receiver`.
fn check_transport_contract(sender: &impl Transport, receiver: &impl Transport) {
    for wait in [Duration::ZERO, Duration::from_millis(5)] {
        assert_eq!(receiver.recv_timeout(wait).unwrap(), None, "idle {wait:?}");
    }
    let to_unknown = GossipMessage::Push {
        from: NodeId::new(0),
        to: NodeId::new(9),
        instance: InstanceTag::DEFAULT,
        epoch: 0,
        value: 0.0,
    };
    assert!(matches!(
        sender.send(&to_unknown),
        Err(NetError::UnknownPeer { peer: 9 })
    ));
    for message in every_variant() {
        // Rewrite the endpoints so routing targets endpoint 1.
        let routed = match message {
            GossipMessage::Push {
                instance,
                epoch,
                value,
                ..
            } => GossipMessage::Push {
                from: NodeId::new(0),
                to: NodeId::new(1),
                instance,
                epoch,
                value,
            },
            GossipMessage::Reply {
                instance,
                epoch,
                value,
                ..
            } => GossipMessage::Reply {
                from: NodeId::new(0),
                to: NodeId::new(1),
                instance,
                epoch,
                value,
            },
        };
        sender.send(&routed).expect("send succeeds");
        let received = receiver
            .recv_timeout(Duration::from_secs(1))
            .expect("decode succeeds")
            .expect("frame was delivered");
        assert_eq!(encode(&received), encode(&routed), "{routed:?}");
    }
}
