//! A bounded ring buffer of [`Event`] records.

use std::collections::VecDeque;

use crate::event::{Event, EventKind};

/// A bounded event ring.
///
/// Each runtime records through one [`TelemetrySink`], which keeps two of
/// these: one for the exchange-veto band and one for every other event (one
/// sink per node in the live runtime, one for the whole engine in the cycle
/// simulators). Recording is append-only and never read back by protocol
/// code; the sink drains the rings after the fact with
/// [`TelemetrySink::drain_events`].
///
/// The recorder notes as it records whether its events came in key order
/// ([`Event::sort_key`]). A ring in key order can be handed over whole, with
/// no merge and no copy, when it is the only one holding events.
///
/// A recorder built with capacity 0 is disabled: every call is a no-op, so
/// the disabled path stays branch-cheap on the hot loops.
///
/// When the ring is full the *oldest* event is evicted and the
/// [`dropped`](FlightRecorder::dropped) counter increments; a trace with a
/// non-zero drop count is still valid but has lost its oldest events.
///
/// [`TelemetrySink`]: crate::sink::TelemetrySink
/// [`TelemetrySink::drain_events`]: crate::sink::TelemetrySink::drain_events
#[derive(Debug, Default)]
pub struct FlightRecorder {
    ring: VecDeque<Event>,
    capacity: usize,
    cycle: u64,
    time_ms: u64,
    dropped: u64,
    /// Whether an event recorded since the ring was last emptied came with
    /// a key below its predecessor's ([`Event::sort_key`]).
    out_of_order: bool,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            // Lazily allocated on first record so a disabled recorder is free.
            ring: VecDeque::new(),
            capacity,
            cycle: 0,
            time_ms: 0,
            dropped: 0,
            out_of_order: false,
        }
    }

    /// Whether this recorder stores anything at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Stamps the (cycle, injected-clock time) context used by subsequent
    /// [`record`](Self::record) calls.
    pub fn set_context(&mut self, cycle: u64, time_ms: u64) {
        self.cycle = cycle;
        self.time_ms = time_ms;
    }

    /// Appends one event under the current context, evicting the oldest
    /// record if the ring is full.
    #[inline]
    pub fn record(&mut self, seq: u64, kind: EventKind) {
        if self.capacity == 0 {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        let event = Event {
            cycle: self.cycle,
            time_ms: self.time_ms,
            seq,
            kind,
        };
        if let Some(last) = self.ring.back() {
            self.out_of_order |= !last.precedes(&event);
        }
        self.ring.push_back(event);
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Whether every event recorded since the ring was last emptied came
    /// in key order ([`Event::sort_key`]). Eviction does not reset it.
    pub(crate) fn in_key_order(&self) -> bool {
        !self.out_of_order
    }

    /// Events evicted due to ring overflow since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes and returns all buffered events in recording order.
    pub fn drain(&mut self) -> Vec<Event> {
        self.out_of_order = false;
        self.ring.drain(..).collect()
    }

    /// The buffered events as one slice, in recording order.
    pub(crate) fn events_mut(&mut self) -> &mut [Event] {
        self.ring.make_contiguous()
    }

    /// Empties the ring, keeping its allocation for the next events.
    pub(crate) fn clear(&mut self) {
        self.out_of_order = false;
        self.ring.clear();
    }

    /// Hands the buffered events over when they came in key order
    /// ([`in_key_order`](Self::in_key_order)), and leaves an empty ring of
    /// the same capacity behind; `None`, with the ring untouched, when they
    /// did not. The ring's buffer becomes the `Vec`, so nothing is copied (a
    /// ring that overflowed is rotated in place). [`dropped`](Self::dropped)
    /// is unchanged.
    pub(crate) fn take_if_in_key_order(&mut self) -> Option<Vec<Event>> {
        if self.out_of_order {
            return None;
        }
        let empty = VecDeque::with_capacity(self.ring.capacity());
        Some(Vec::from(std::mem::replace(&mut self.ring, empty)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_zero_is_a_no_op() {
        let mut r = FlightRecorder::new(0);
        r.set_context(3, 30);
        r.record(0, EventKind::MessageLost);
        assert!(!r.is_enabled());
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn overflow_evicts_oldest_and_counts() {
        let mut r = FlightRecorder::new(2);
        r.set_context(0, 0);
        r.record(0, EventKind::NodeJoined { node: 0 });
        r.record(1, EventKind::NodeJoined { node: 1 });
        r.record(2, EventKind::NodeJoined { node: 2 });
        assert_eq!(r.dropped(), 1);
        let events = r.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::NodeJoined { node: 1 });
        assert_eq!(events[1].kind, EventKind::NodeJoined { node: 2 });
        assert!(r.is_empty());
    }

    #[test]
    fn a_ring_in_key_order_is_handed_over_with_its_capacity_and_drops() {
        let mut r = FlightRecorder::new(3);
        for seq in 0..5 {
            r.record(seq, EventKind::ExchangeCompleted);
        }
        let capacity = r.ring.capacity();
        let events = r.take_if_in_key_order().expect("recorded in key order");
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), [2, 3, 4]);
        assert!(r.is_empty());
        assert_eq!(r.ring.capacity(), capacity);
        assert_eq!(r.dropped(), 2);
        // The empty ring records again, and a key below its predecessor's
        // keeps the ring from being handed over.
        r.record(1, EventKind::ExchangeCompleted);
        r.record(0, EventKind::ExchangeCompleted);
        assert!(!r.in_key_order());
        assert_eq!(r.take_if_in_key_order(), None);
        assert_eq!(r.len(), 2);
        r.clear();
        assert!(r.in_key_order());
    }

    #[test]
    fn context_stamps_cycle_and_time() {
        let mut r = FlightRecorder::new(8);
        r.set_context(5, 5_000);
        r.record(7, EventKind::ExchangeCompleted);
        let events = r.drain();
        assert_eq!(events[0].cycle, 5);
        assert_eq!(events[0].time_ms, 5_000);
        assert_eq!(events[0].seq, 7);
    }
}
