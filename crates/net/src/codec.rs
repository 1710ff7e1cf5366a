//! Binary wire format for gossip messages.
//!
//! Each message is a fixed 33-byte frame:
//!
//! | bytes | field |
//! |---|---|
//! | 1 | message type: `0` = push, `1` = reply |
//! | 4 | sender node id (big-endian u32) |
//! | 4 | recipient node id (big-endian u32) |
//! | 8 | instance tag (big-endian u64) |
//! | 8 | epoch (big-endian u64) |
//! | 8 | estimate value (IEEE-754 bits, big-endian u64) |
//!
//! The format is intentionally explicit (no serialization framework) so that
//! the byte layout is stable across versions and trivially implementable by
//! other languages.

use crate::NetError;
use aggregate_core::{GossipMessage, InstanceTag};
use overlay_topology::NodeId;

/// Exact size of an encoded message in bytes.
pub const FRAME_LEN: usize = 33;

const TYPE_PUSH: u8 = 0;
const TYPE_REPLY: u8 = 1;

/// Encodes a message into its 33-byte frame.
pub fn encode(message: &GossipMessage) -> [u8; FRAME_LEN] {
    let (tag, from, to, instance, epoch, value) = match *message {
        GossipMessage::Push {
            from,
            to,
            instance,
            epoch,
            value,
        } => (TYPE_PUSH, from, to, instance, epoch, value),
        GossipMessage::Reply {
            from,
            to,
            instance,
            epoch,
            value,
        } => (TYPE_REPLY, from, to, instance, epoch, value),
    };
    let mut frame = [0u8; FRAME_LEN];
    frame[0] = tag;
    frame[1..5].copy_from_slice(&from.as_u32().to_be_bytes());
    frame[5..9].copy_from_slice(&to.as_u32().to_be_bytes());
    frame[9..17].copy_from_slice(&instance.0.to_be_bytes());
    frame[17..25].copy_from_slice(&epoch.to_be_bytes());
    frame[25..33].copy_from_slice(&value.to_bits().to_be_bytes());
    frame
}

/// Decodes a 33-byte frame back into a message.
///
/// # Errors
///
/// Returns [`NetError::Decode`] when the frame has the wrong length or an
/// unknown type tag.
pub fn decode(frame: &[u8]) -> Result<GossipMessage, NetError> {
    let frame: &[u8; FRAME_LEN] = frame.try_into().map_err(|_| NetError::Decode {
        reason: format!("expected {FRAME_LEN} bytes, got {}", frame.len()),
    })?;
    let from = NodeId::from_u32(u32::from_be_bytes(field(frame, 1)));
    let to = NodeId::from_u32(u32::from_be_bytes(field(frame, 5)));
    let instance = InstanceTag(u64::from_be_bytes(field(frame, 9)));
    let epoch = u64::from_be_bytes(field(frame, 17));
    let value = f64::from_bits(u64::from_be_bytes(field(frame, 25)));
    match frame[0] {
        TYPE_PUSH => Ok(GossipMessage::Push {
            from,
            to,
            instance,
            epoch,
            value,
        }),
        TYPE_REPLY => Ok(GossipMessage::Reply {
            from,
            to,
            instance,
            epoch,
            value,
        }),
        other => Err(NetError::Decode {
            reason: format!("unknown message type tag {other}"),
        }),
    }
}

/// The `N` bytes of `frame` starting at `at`; every caller keeps
/// `at + N <= FRAME_LEN`.
fn field<const N: usize>(frame: &[u8; FRAME_LEN], at: usize) -> [u8; N] {
    let mut bytes = [0u8; N];
    bytes.copy_from_slice(&frame[at..at + N]);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn push(value: f64) -> GossipMessage {
        GossipMessage::Push {
            from: NodeId::new(3),
            to: NodeId::new(8),
            instance: InstanceTag(42),
            epoch: 7,
            value,
        }
    }

    #[test]
    fn frame_length_is_fixed() {
        assert_eq!(encode(&push(1.5)).len(), FRAME_LEN);
        let reply = GossipMessage::Reply {
            from: NodeId::new(8),
            to: NodeId::new(3),
            instance: InstanceTag(42),
            epoch: 7,
            value: -2.5,
        };
        assert_eq!(encode(&reply).len(), FRAME_LEN);
    }

    #[test]
    fn round_trip_push_and_reply() {
        let original = push(123.456);
        assert_eq!(decode(&encode(&original)).unwrap(), original);
        let reply = GossipMessage::Reply {
            from: NodeId::new(1),
            to: NodeId::new(2),
            instance: InstanceTag::DEFAULT,
            epoch: 0,
            value: f64::MIN_POSITIVE,
        };
        assert_eq!(decode(&encode(&reply)).unwrap(), reply);
    }

    #[test]
    fn special_float_values_survive_the_round_trip() {
        for value in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            1e-308,
        ] {
            let decoded = decode(&encode(&push(value))).unwrap();
            match decoded {
                GossipMessage::Push { value: v, .. } => {
                    assert_eq!(v.to_bits(), value.to_bits());
                }
                _ => panic!("wrong variant"),
            }
        }
    }

    #[test]
    fn invalid_frames_are_rejected() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[0u8; FRAME_LEN - 1]).is_err());
        assert!(decode(&[0u8; FRAME_LEN + 1]).is_err());
        let mut bad_tag = encode(&push(1.0));
        bad_tag[0] = 9;
        let err = decode(&bad_tag).unwrap_err();
        assert!(err.to_string().contains("unknown message type"));
    }

    /// Seeded property sweep (a plain loop rather than the vendored proptest,
    /// so NaN payloads and raw-frame fuzzing can be expressed directly): every
    /// representable message survives an encode/decode round trip, including
    /// the size-estimation shape (leader-derived instance tags) and the
    /// epoch-restart shape (large, unequal epochs).
    #[test]
    fn prop_round_trip_random_messages() {
        let mut rng = StdRng::seed_from_u64(0xC0DEC);
        for case in 0..10_000 {
            let from = NodeId::from_u32(rng.gen::<u32>());
            let to = NodeId::from_u32(rng.gen::<u32>());
            // Alternate plain tags with the leader-derived tags the network
            // size estimator stamps on its concurrent instances.
            let instance = if case % 3 == 0 {
                InstanceTag::from_leader(NodeId::from_u32(rng.gen::<u32>()))
            } else {
                InstanceTag(rng.gen::<u64>())
            };
            let epoch: u64 = rng.gen();
            let value = f64::from_bits(rng.gen::<u64>());
            let msg = if rng.gen_bool(0.5) {
                GossipMessage::Push {
                    from,
                    to,
                    instance,
                    epoch,
                    value,
                }
            } else {
                GossipMessage::Reply {
                    from,
                    to,
                    instance,
                    epoch,
                    value,
                }
            };
            let decoded = decode(&encode(&msg)).unwrap();
            // NaN payloads round-trip bit-exactly but compare unequal through
            // PartialEq, so compare the re-encoded frames instead.
            assert_eq!(
                encode(&decoded),
                encode(&msg),
                "case {case}: round trip altered the frame"
            );
            if !value.is_nan() {
                assert_eq!(decoded, msg, "case {case}");
            }
        }
    }

    /// Malformed input never panics: decode returns `NetError` for every
    /// length and for random garbage of the right length with a bad tag.
    #[test]
    fn prop_malformed_frames_return_errors_not_panics() {
        // Every wrong length up to twice the frame size.
        for len in (0..2 * FRAME_LEN).filter(|&l| l != FRAME_LEN) {
            let frame = vec![0xA5u8; len];
            assert!(decode(&frame).is_err(), "length {len} must be rejected");
        }
        // Right length, fuzzed contents: decode must either succeed (tag 0/1)
        // or return a NetError — never panic.
        let mut rng = StdRng::seed_from_u64(0xBAD_F00D);
        for _ in 0..10_000 {
            let mut frame = [0u8; FRAME_LEN];
            for byte in &mut frame {
                *byte = rng.gen::<u8>();
            }
            match decode(&frame) {
                Ok(_) => assert!(frame[0] <= 1, "tag {} accepted", frame[0]),
                Err(err) => {
                    assert!(
                        err.to_string().contains("unknown message type"),
                        "unexpected error for full-length frame: {err}"
                    );
                }
            }
        }
    }
}
