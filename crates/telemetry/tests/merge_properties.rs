//! Property tests for the trace merge: however events are split across
//! batches or recorder rings — in key order or not, some empty, some rings
//! overflowed — the merged trace is exactly the events sorted on their full
//! key. A sink drains the same trace, whether it merges its rings or, fed
//! in key order, hands its exchange ring over.

use gossip_telemetry::{merge_events, Event, EventKind, TelemetryConfig, TelemetrySink};
use proptest::prelude::*;

/// One sampled event: `((cycle, time), seq, kind, (a, b), batch)`. The
/// ranges are small so that keys tie often.
type Raw = ((u64, u64), u64, u8, (u64, u64), usize);

fn raw_events() -> impl Strategy<Value = Vec<Raw>> {
    proptest::collection::vec(
        (
            (0u64..3, 0u64..3),
            0u64..5,
            0u8..11,
            (0u64..3, 0u64..3),
            0usize..64,
        ),
        0..200,
    )
}

fn event(((cycle, time_ms), seq, kind, (a, b), _): Raw) -> Event {
    let kind = match kind {
        0 => EventKind::NodeJoined { node: a },
        1 => EventKind::NodeDeparted { node: a },
        2 => EventKind::ValueCorrupted { node: a },
        3 => EventKind::ExchangeVetoed {
            initiator: a,
            peer: b,
        },
        4 => EventKind::ExchangeBegun {
            initiator: a,
            peer: b,
        },
        5 => EventKind::MessageLost,
        6 => EventKind::MessageDelivered,
        7 => EventKind::ExchangeCompleted,
        8 => EventKind::ExchangeRejected { node: a },
        9 => EventKind::EpochRestarted { epoch: a },
        _ => EventKind::LeaderElected { node: a },
    };
    Event {
        cycle,
        time_ms,
        seq,
        kind,
    }
}

/// Splits the events over `count` batches (none when `count` is 0), and
/// puts each batch whose flag is set in key order.
fn split(raw: &[Raw], count: usize, sorted: &[bool]) -> Vec<Vec<Event>> {
    let mut batches = vec![Vec::new(); count];
    if count > 0 {
        for &r in raw {
            batches[r.4 % count].push(event(r));
        }
    }
    for (batch, &sort) in batches.iter_mut().zip(sorted) {
        if sort {
            batch.sort_by_key(Event::sort_key);
        }
    }
    batches
}

/// Feeds each sampled event to `sink` through the recording method of its
/// kind, each under its own `begin_cycle`, so cycles and sequence numbers
/// arrive in any order. Returns the events each of its two rings receives,
/// the exchange ring's first. (`MessageDelivered` has no recording method;
/// it stands for an uncounted outcome of two lost messages.)
fn feed_any(sink: &mut TelemetrySink, raw: &[Raw]) -> [Vec<Event>; 2] {
    let (mut exchange_ring, mut veto_ring) = (Vec::new(), Vec::new());
    for &r in raw {
        let mut e = event(r);
        sink.begin_cycle(e.cycle, e.time_ms);
        let ((a, b), seq) = (r.3, e.seq);
        match e.kind {
            EventKind::NodeJoined { .. } => sink.node_joined(a),
            EventKind::NodeDeparted { .. } => sink.node_departed(a),
            EventKind::ValueCorrupted { .. } => sink.value_corrupted(a),
            EventKind::ExchangeVetoed { .. } => sink.exchange_vetoed(a, b),
            EventKind::ExchangeBegun { .. } => sink.exchange_begun(seq, a, b),
            EventKind::MessageLost => sink.message_lost(seq),
            EventKind::MessageDelivered => sink.exchange_outcome(seq, 2),
            EventKind::ExchangeCompleted => sink.exchange_completed(seq),
            EventKind::ExchangeRejected { .. } => sink.exchange_rejected(seq, a),
            EventKind::EpochRestarted { .. } => sink.epoch_restarted(a),
            EventKind::LeaderElected { .. } => sink.leader_elected(a),
        }
        match e.kind {
            EventKind::ExchangeBegun { .. }
            | EventKind::MessageLost
            | EventKind::ExchangeCompleted
            | EventKind::ExchangeRejected { .. } => exchange_ring.push(e),
            EventKind::MessageDelivered => {
                e.kind = EventKind::MessageLost;
                exchange_ring.extend([e, e]);
            }
            EventKind::ExchangeVetoed { .. } => {
                // The first veto since its `begin_cycle`.
                e.seq = 0;
                veto_ring.push(e);
            }
            _ => {
                // The first cycle-start or cycle-end event since its
                // `begin_cycle`.
                e.seq = 0;
                exchange_ring.push(e);
            }
        }
    }
    [exchange_ring, veto_ring]
}

/// One cycle of a sink's input: the cycle-start events `(kind, node)`,
/// the exchanges `(vetoes just before it, messages lost, outcome recorded
/// uncounted)`, and the epoch restarts.
type RawCycle = (Vec<(u8, u64)>, Vec<(u8, u8, bool)>, Vec<u64>);

fn raw_cycles() -> impl Strategy<Value = Vec<RawCycle>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0u8..3, 0u64..50), 0..4),
            proptest::collection::vec((0u8..3, 0u8..3, proptest::bool::ANY), 0..12),
            proptest::collection::vec(0u64..5, 0..3),
        ),
        0..6,
    )
}

/// Feeds `cycles`, numbered from `first`, to `sink` the way the cycle
/// runtimes do: every band in key order but the vetoes, which come between
/// exchange starts. Returns the events each of its two rings receives, the
/// exchange ring's first.
fn feed_in_order(sink: &mut TelemetrySink, first: u64, cycles: &[RawCycle]) -> [Vec<Event>; 2] {
    let (mut exchange_ring, mut veto_ring) = (Vec::new(), Vec::new());
    for (c, (starts, exchanges, epochs)) in cycles.iter().enumerate() {
        let cycle = first + c as u64;
        let at = |seq, kind| Event {
            cycle,
            time_ms: cycle * 1_000,
            seq,
            kind,
        };
        sink.begin_cycle(cycle, cycle * 1_000);
        let (mut aux, mut veto_seq) = (0, 0);
        for &(kind, node) in starts {
            let kind = match kind {
                0 => {
                    sink.node_joined(node);
                    EventKind::NodeJoined { node }
                }
                1 => {
                    sink.node_departed(node);
                    EventKind::NodeDeparted { node }
                }
                _ => {
                    sink.value_corrupted(node);
                    EventKind::ValueCorrupted { node }
                }
            };
            exchange_ring.push(at(aux, kind));
            aux += 1;
        }
        for (seq, &(vetoes, lost, uncounted)) in exchanges.iter().enumerate() {
            let seq = seq as u64;
            for _ in 0..vetoes {
                let (initiator, peer) = (seq, veto_seq + 7);
                sink.exchange_vetoed(initiator, peer);
                veto_ring.push(at(veto_seq, EventKind::ExchangeVetoed { initiator, peer }));
                veto_seq += 1;
            }
            sink.exchange_begun(seq, seq, seq + 1);
            exchange_ring.push(at(
                seq,
                EventKind::ExchangeBegun {
                    initiator: seq,
                    peer: seq + 1,
                },
            ));
            if uncounted {
                sink.exchange_outcome(seq, usize::from(lost));
            } else if lost == 0 {
                sink.exchange_completed(seq);
            } else {
                (0..lost).for_each(|_| sink.message_lost(seq));
            }
            let outcome = if lost == 0 {
                vec![EventKind::ExchangeCompleted]
            } else {
                vec![EventKind::MessageLost; usize::from(lost)]
            };
            exchange_ring.extend(outcome.into_iter().map(|kind| at(seq, kind)));
        }
        for &epoch in epochs {
            sink.epoch_restarted(epoch);
            exchange_ring.push(at(aux, EventKind::EpochRestarted { epoch }));
            aux += 1;
        }
    }
    [exchange_ring, veto_ring]
}

/// What rings of `capacity` keep of the streams `rings`: the newest events.
fn newest(rings: &[Vec<Event>], capacity: usize) -> Vec<Vec<Event>> {
    rings
        .iter()
        .map(|ring| ring[ring.len().saturating_sub(capacity)..].to_vec())
        .collect()
}

/// The reference: every event of every batch, sorted on the full key.
fn flatten_and_sort(batches: &[Vec<Event>]) -> Vec<Event> {
    let mut all: Vec<Event> = batches.concat();
    all.sort_by_key(Event::sort_key);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `merge_events` over 0–64 batches, each sorted or not, equals the
    /// flattened batches sorted on the full key.
    #[test]
    fn merge_equals_flatten_then_sort(
        raw in raw_events(),
        count in 0usize..65,
        sorted in proptest::collection::vec(proptest::bool::ANY, 64..65),
    ) {
        let batches = split(&raw, count, &sorted);
        let expected = flatten_and_sort(&batches);
        prop_assert_eq!(merge_events(batches.clone()), expected.clone());
        // Batch order does not matter either.
        prop_assert_eq!(merge_events(batches.into_iter().rev()), expected);
    }

    /// A sink fed events in any order — cycles going back and forth, exchange
    /// sequence numbers shuffled — drains exactly what its rings kept,
    /// sorted on the full key, and leaves both rings empty and reusable. A
    /// ring smaller than its stream keeps the newest events, wrapped around
    /// its buffer.
    #[test]
    fn a_sink_fed_in_any_order_drains_flatten_then_sort(
        raw in raw_events(),
        capacity in 1usize..12,
    ) {
        let mut sink = TelemetrySink::new(TelemetryConfig {
            ring_capacity: capacity,
            ..TelemetryConfig::trace()
        });
        for raw in [&raw[..], &raw[..raw.len().min(capacity)]] {
            let rings = feed_any(&mut sink, raw);
            prop_assert_eq!(sink.drain_events(), flatten_and_sort(&newest(&rings, capacity)));
            prop_assert!(sink.drain_events().is_empty());
        }
    }

    /// A sink fed in key order, vetoes mixed in, its rings overflowing or
    /// not, drains exactly what its rings kept sorted on the full key, and
    /// does so twice in a row: the rings are reusable after a hand-off and
    /// the drop count is kept across drains.
    #[test]
    fn a_sink_fed_in_key_order_drains_flatten_then_sort_twice(
        first in raw_cycles(),
        second in raw_cycles(),
        capacity in 1usize..48,
    ) {
        let mut sink = TelemetrySink::new(TelemetryConfig {
            ring_capacity: capacity,
            ..TelemetryConfig::trace()
        });
        let mut dropped = 0;
        for (start, cycles) in [(0, &first), (first.len() as u64, &second)] {
            let rings = feed_in_order(&mut sink, start, cycles);
            prop_assert!(sink.exchange_ring_in_key_order());
            dropped += rings.iter().map(|ring| ring.len().saturating_sub(capacity) as u64).sum::<u64>();
            prop_assert_eq!(sink.drain_events(), flatten_and_sort(&newest(&rings, capacity)));
            prop_assert_eq!(sink.dropped_events(), dropped);
            prop_assert!(sink.drain_events().is_empty());
        }
    }
}
