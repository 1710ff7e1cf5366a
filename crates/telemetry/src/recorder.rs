//! A bounded ring buffer of [`Event`] records.

use std::collections::VecDeque;

use crate::event::{Event, EventKind};

/// A bounded per-node / per-shard event ring.
///
/// Each runtime owns one recorder per independent execution unit (one per
/// shard in [`ShardedSimulation`], one per node in the live runtime, one
/// for the whole engine in the single-threaded simulators). Recording is
/// append-only and never read back by protocol code; the engine drains the
/// rings after the fact, merging them in place with
/// [`TelemetrySink::drain_events_with`](crate::sink::TelemetrySink::drain_events_with).
///
/// A recorder built with capacity 0 is disabled: every call is a no-op, so
/// the disabled path stays branch-cheap on the hot loops.
///
/// When the ring is full the *oldest* event is evicted and the
/// [`dropped`](FlightRecorder::dropped) counter increments; a trace with a
/// non-zero drop count is still valid but no longer guaranteed
/// bit-identical across shard counts (the rings fill at different rates).
///
/// [`ShardedSimulation`]: https://docs.rs/gossip-sim
#[derive(Debug, Default)]
pub struct FlightRecorder {
    ring: VecDeque<Event>,
    capacity: usize,
    cycle: u64,
    time_ms: u64,
    dropped: u64,
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
    pub fn record(&mut self, seq: u64, kind: EventKind) {
        if self.capacity == 0 {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(Event {
            cycle: self.cycle,
            time_ms: self.time_ms,
            seq,
            kind,
        });
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted due to ring overflow since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes and returns all buffered events in recording order.
    pub fn drain(&mut self) -> Vec<Event> {
        self.ring.drain(..).collect()
    }

    /// The buffered events as one slice, in recording order.
    pub(crate) fn events_mut(&mut self) -> &mut [Event] {
        self.ring.make_contiguous()
    }

    /// Empties the ring, keeping its allocation for the next events.
    pub(crate) fn clear(&mut self) {
        self.ring.clear();
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
