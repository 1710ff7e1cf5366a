//! Property tests for the trace merge: however events are split across
//! batches or recorder rings — in key order or not, some empty, some rings
//! overflowed — the merged trace is exactly the events sorted on their full
//! key.

use gossip_telemetry::{
    merge_events, Event, EventKind, FlightRecorder, TelemetryConfig, TelemetrySink,
};
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

    /// `drain_events_with` over 0–64 recorder rings equals the flattened
    /// ring contents sorted on the full key, leaves every ring empty, and
    /// the drained rings record and drain again. A ring smaller than its
    /// batch keeps the batch's newest events, wrapped around its buffer.
    #[test]
    fn draining_recorders_equals_flatten_then_sort(
        raw in raw_events(),
        count in 0usize..65,
        sorted in proptest::collection::vec(proptest::bool::ANY, 64..65),
        capacity in 1usize..12,
    ) {
        let batches = split(&raw, count, &sorted);
        let mut sink = TelemetrySink::new(TelemetryConfig::trace());
        let mut rings: Vec<FlightRecorder> = (0..count).map(|_| FlightRecorder::new(capacity)).collect();
        let mut kept = Vec::new();
        for (ring, batch) in rings.iter_mut().zip(&batches) {
            for e in batch {
                ring.set_context(e.cycle, e.time_ms);
                ring.record(e.seq, e.kind);
            }
            kept.push(batch[batch.len().saturating_sub(capacity)..].to_vec());
        }
        prop_assert_eq!(sink.drain_events_with(rings.iter_mut()), flatten_and_sort(&kept));
        prop_assert!(rings.iter().all(FlightRecorder::is_empty));

        for (ring, batch) in rings.iter_mut().zip(&batches) {
            for e in batch.iter().take(capacity) {
                ring.set_context(e.cycle, e.time_ms);
                ring.record(e.seq, e.kind);
            }
        }
        let again: Vec<Vec<Event>> = batches.iter().map(|b| b.iter().take(capacity).copied().collect()).collect();
        prop_assert_eq!(sink.drain_events_with(rings.iter_mut()), flatten_and_sort(&again));
    }
}
