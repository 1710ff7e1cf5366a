//! The recording facade the runtimes write through.

use crate::event::{merge_runs, Event, EventKind};
use crate::recorder::FlightRecorder;
use crate::registry::{CounterId, MetricError, MetricsRegistry};
use crate::watchdog::{ConvergenceWatchdog, Diagnosis, WatchdogConfig, WatchdogVerdict};

/// Default flight-recorder ring capacity when tracing is enabled.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// What a runtime records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Record flight-recorder events (exchange lifecycle, churn, epochs).
    pub events: bool,
    /// Ring capacity per recorder when `events` is on. The exchange ring
    /// holds every event but the vetoes: about 2 events an exchange (its
    /// `ExchangeBegun` and its outcome) plus the churn and epoch events,
    /// so a drain interval of E exchanges wants a capacity of about 2·E.
    pub ring_capacity: usize,
    /// Run the convergence watchdog over the per-cycle variance.
    pub watchdog: Option<WatchdogConfig>,
}

impl TelemetryConfig {
    /// Everything off — the hot-path default, pinned bit-identical to the
    /// untraced goldens.
    pub fn disabled() -> Self {
        TelemetryConfig {
            events: false,
            ring_capacity: 0,
            watchdog: None,
        }
    }

    /// Full tracing with the default ring capacity and watchdog thresholds.
    pub fn full() -> Self {
        TelemetryConfig {
            events: true,
            ring_capacity: DEFAULT_RING_CAPACITY,
            watchdog: Some(WatchdogConfig::default()),
        }
    }

    /// Event tracing only (no watchdog).
    pub fn trace() -> Self {
        TelemetryConfig {
            events: true,
            ring_capacity: DEFAULT_RING_CAPACITY,
            watchdog: None,
        }
    }

    /// Whether anything is enabled at all.
    pub fn is_enabled(&self) -> bool {
        self.events || self.watchdog.is_some()
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The engine-side telemetry sink: the flight-recorder rings, a metrics
/// registry of core protocol counters, and the optional watchdog.
///
/// Protocol code only ever calls the *recording* methods (`begin_cycle`,
/// the `record_*` family, `observe_variance`); the *read* side
/// (`drain_events`, `watchdog_verdict`, `diagnoses`, `metrics`) is for
/// runners, tests and exporters after the fact. The gossip-lint
/// `observer-effect` rule enforces that split: telemetry reads inside
/// protocol crates are flagged, so measurements can never feed back into
/// protocol decisions.
///
/// The sink keeps two rings. Vetoes (the veto band) go to their own, and
/// every other event to the exchange ring. Each runtime records the other
/// bands in key order, so the exchange ring stays in key order even when
/// dead links veto exchanges between exchange starts, and a drain with no
/// vetoes pending hands the exchange ring over without a merge or a copy.
#[derive(Debug)]
pub struct TelemetrySink {
    config: TelemetryConfig,
    /// Every event but the vetoes.
    recorder: FlightRecorder,
    /// The veto band.
    veto_recorder: FlightRecorder,
    watchdog: Option<ConvergenceWatchdog>,
    metrics: MetricsRegistry,
    exchanges: CounterId,
    messages_lost: CounterId,
    vetoes: CounterId,
    churn_events: CounterId,
    corruptions: CounterId,
    epochs: CounterId,
    /// Ordinal for cycle-start / cycle-end band events within the cycle.
    aux_seq: u64,
    /// Ordinal for veto-band events within the cycle (vetoed picks never
    /// get an exchange sequence number).
    veto_seq: u64,
}

impl TelemetrySink {
    /// Builds a sink for `config`; disabled configs cost one allocation-free
    /// struct and every recording call short-circuits.
    pub fn new(config: TelemetryConfig) -> Self {
        let mut metrics = MetricsRegistry::new();
        let fallback = CounterId::default();
        let exchanges = metrics.counter("exchanges").unwrap_or(fallback);
        let messages_lost = metrics.counter("messages_lost").unwrap_or(fallback);
        let vetoes = metrics.counter("exchanges_vetoed").unwrap_or(fallback);
        let churn_events = metrics.counter("churn_events").unwrap_or(fallback);
        let corruptions = metrics.counter("values_corrupted").unwrap_or(fallback);
        let epochs = metrics.counter("epochs_completed").unwrap_or(fallback);
        let capacity = if config.events {
            config.ring_capacity
        } else {
            0
        };
        TelemetrySink {
            recorder: FlightRecorder::new(capacity),
            veto_recorder: FlightRecorder::new(capacity),
            watchdog: config.watchdog.map(ConvergenceWatchdog::new),
            metrics,
            exchanges,
            messages_lost,
            vetoes,
            churn_events,
            corruptions,
            epochs,
            aux_seq: 0,
            veto_seq: 0,
            config,
        }
    }

    /// The configuration this sink was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Whether event recording is on (engines gate their hooks on this).
    pub fn events_enabled(&self) -> bool {
        self.config.events
    }

    /// Starts a new cycle: stamps the recorders' context and resets the
    /// per-cycle ordinal counters.
    pub fn begin_cycle(&mut self, cycle: u64, time_ms: u64) {
        self.aux_seq = 0;
        self.veto_seq = 0;
        self.recorder.set_context(cycle, time_ms);
        self.veto_recorder.set_context(cycle, time_ms);
    }

    fn record_aux(&mut self, kind: EventKind) {
        let seq = self.aux_seq;
        self.aux_seq += 1;
        self.recorder.record(seq, kind);
    }

    /// Records a node join (cycle-start band).
    pub fn node_joined(&mut self, node: u64) {
        self.metrics.incr(self.churn_events);
        self.record_aux(EventKind::NodeJoined { node });
    }

    /// Records a node departure or crash (cycle-start band).
    pub fn node_departed(&mut self, node: u64) {
        self.metrics.incr(self.churn_events);
        self.record_aux(EventKind::NodeDeparted { node });
    }

    /// Records a fault-lab / adversary state overwrite (cycle-start band).
    pub fn value_corrupted(&mut self, node: u64) {
        self.metrics.incr(self.corruptions);
        self.record_aux(EventKind::ValueCorrupted { node });
    }

    /// Records a dead-link veto of a scheduled exchange (veto band).
    pub fn exchange_vetoed(&mut self, initiator: u64, peer: u64) {
        self.metrics.incr(self.vetoes);
        let seq = self.veto_seq;
        self.veto_seq += 1;
        self.veto_recorder
            .record(seq, EventKind::ExchangeVetoed { initiator, peer });
    }

    /// Records the start of exchange `seq` (exchange band).
    #[inline]
    pub fn exchange_begun(&mut self, seq: u64, initiator: u64, peer: u64) {
        self.metrics.incr(self.exchanges);
        self.recorder
            .record(seq, EventKind::ExchangeBegun { initiator, peer });
    }

    /// Records one lost message of exchange `seq` (exchange band).
    pub fn message_lost(&mut self, seq: u64) {
        self.metrics.incr(self.messages_lost);
        self.recorder.record(seq, EventKind::MessageLost);
    }

    /// Records exchange `seq`'s outcome without counting it: one
    /// `MessageLost` per lost message, or `ExchangeCompleted` when none was
    /// lost (exchange band). The sharded engine records its outcomes this
    /// way and feeds the loss counter from its cycle tally with
    /// [`add_message_losses`](Self::add_message_losses).
    #[inline]
    pub fn exchange_outcome(&mut self, seq: u64, lost: usize) {
        if lost == 0 {
            self.recorder.record(seq, EventKind::ExchangeCompleted);
        }
        for _ in 0..lost {
            self.recorder.record(seq, EventKind::MessageLost);
        }
    }

    /// Bumps the message-loss counter by `count` without recording events.
    pub fn add_message_losses(&mut self, count: u64) {
        self.metrics.add(self.messages_lost, count);
    }

    /// Records loss-free completion of exchange `seq` (exchange band).
    pub fn exchange_completed(&mut self, seq: u64) {
        self.recorder.record(seq, EventKind::ExchangeCompleted);
    }

    /// Records a live-runtime rejection of an overlapping exchange.
    pub fn exchange_rejected(&mut self, seq: u64, node: u64) {
        self.recorder
            .record(seq, EventKind::ExchangeRejected { node });
    }

    /// Records an epoch restart (cycle-end band).
    pub fn epoch_restarted(&mut self, epoch: u64) {
        self.metrics.incr(self.epochs);
        self.record_aux(EventKind::EpochRestarted { epoch });
    }

    /// Records a leader election (cycle-end band).
    pub fn leader_elected(&mut self, node: u64) {
        self.record_aux(EventKind::LeaderElected { node });
    }

    /// Feeds the end-of-cycle variance estimate to the watchdog, if one is
    /// configured.
    pub fn observe_variance(&mut self, cycle: u64, variance: f64) {
        if let Some(watchdog) = self.watchdog.as_mut() {
            watchdog.observe(cycle, variance);
        }
    }

    // --- read side (post-hoc; flagged in protocol crates by the
    // observer-effect lint rule) ---

    /// Drains this sink's rings in canonical trace order, and leaves them
    /// empty with their capacity kept.
    ///
    /// When one ring alone holds events and they came in key order, its
    /// buffer is handed over as the result: no merge and no copy. Otherwise
    /// the rings are merged in place (see
    /// [`merge_events`](crate::event::merge_events)).
    pub fn drain_events(&mut self) -> Vec<Event> {
        let mut rings = [&mut self.recorder, &mut self.veto_recorder];
        let mut holding = rings.iter_mut().filter(|ring| !ring.is_empty());
        if let (Some(only), None) = (holding.next(), holding.next()) {
            if let Some(events) = only.take_if_in_key_order() {
                return events;
            }
        }
        let mut runs: Vec<&mut [Event]> = rings.iter_mut().map(|r| r.events_mut()).collect();
        let merged = merge_runs(&mut runs);
        for ring in rings {
            ring.clear();
        }
        merged
    }

    /// Whether the exchange ring's events came in key order since the last
    /// drain. A drain with no vetoes pending hands that ring over whole.
    pub fn exchange_ring_in_key_order(&self) -> bool {
        self.recorder.in_key_order()
    }

    /// Events evicted from this sink's rings (overflow indicator).
    pub fn dropped_events(&self) -> u64 {
        self.recorder.dropped() + self.veto_recorder.dropped()
    }

    /// The watchdog's current verdict, if a watchdog is configured.
    pub fn watchdog_verdict(&self) -> Option<WatchdogVerdict> {
        self.watchdog.as_ref().map(ConvergenceWatchdog::verdict)
    }

    /// Verdict transitions logged by the watchdog.
    pub fn diagnoses(&self) -> &[Diagnosis] {
        self.watchdog
            .as_ref()
            .map(ConvergenceWatchdog::diagnoses)
            .unwrap_or(&[])
    }

    /// The metrics registry (counters accumulated by the record calls).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Registry-related errors cannot occur for the built-in counters, but
    /// callers registering their own metrics go through this accessor.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }
}

/// A typed registration error surface re-exported for sink users.
pub type SinkMetricError = MetricError;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TelemetrySink::new(TelemetryConfig::disabled());
        sink.begin_cycle(0, 0);
        sink.exchange_begun(0, 1, 2);
        sink.message_lost(0);
        sink.epoch_restarted(1);
        assert!(sink.drain_events().is_empty());
        assert_eq!(sink.watchdog_verdict(), None);
        // Counters still accumulate — they are cheap and useful even
        // without the event ring.
        assert_eq!(sink.metrics().counter_value("exchanges"), Ok(1));
    }

    #[test]
    fn events_come_out_in_canonical_order() {
        let mut sink = TelemetrySink::new(TelemetryConfig::trace());
        sink.begin_cycle(0, 0);
        sink.exchange_begun(1, 10, 20);
        sink.exchange_begun(0, 5, 6);
        sink.node_departed(3);
        sink.exchange_vetoed(7, 8);
        sink.epoch_restarted(0);
        let events = sink.drain_events();
        let names: Vec<_> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            names,
            [
                "node_departed",
                "exchange_vetoed",
                "exchange_begun",
                "exchange_begun",
                "epoch_restarted"
            ]
        );
        // Within the exchange band, seq order wins over record order.
        assert_eq!(events[2].seq, 0);
        assert_eq!(events[3].seq, 1);
    }

    #[test]
    fn outcomes_are_recorded_without_counting() {
        let mut sink = TelemetrySink::new(TelemetryConfig::trace());
        sink.begin_cycle(0, 0);
        sink.exchange_begun(0, 1, 2);
        sink.exchange_outcome(0, 0);
        sink.exchange_begun(1, 3, 4);
        sink.exchange_outcome(1, 2);
        let names: Vec<_> = sink.drain_events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            names,
            [
                "exchange_begun",
                "exchange_completed",
                "exchange_begun",
                "message_lost",
                "message_lost"
            ]
        );
        assert_eq!(sink.metrics().counter_value("exchanges"), Ok(2));
        assert_eq!(sink.metrics().counter_value("messages_lost"), Ok(0));
        sink.add_message_losses(2);
        assert_eq!(sink.metrics().counter_value("messages_lost"), Ok(2));
    }

    #[test]
    fn vetoes_keep_the_exchange_ring_in_key_order() {
        let mut sink = TelemetrySink::new(TelemetryConfig::trace());
        sink.begin_cycle(0, 0);
        sink.exchange_begun(0, 1, 2);
        sink.exchange_vetoed(3, 4);
        sink.exchange_begun(1, 5, 6);
        assert!(sink.exchange_ring_in_key_order());
        assert_eq!(sink.veto_recorder.len(), 1);
        let names: Vec<_> = sink.drain_events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            names,
            ["exchange_vetoed", "exchange_begun", "exchange_begun"]
        );
        assert!(sink.recorder.is_empty() && sink.veto_recorder.is_empty());
    }

    #[test]
    fn watchdog_is_fed_through_the_sink() {
        let mut sink = TelemetrySink::new(TelemetryConfig::full());
        let mut var = 1.0;
        for cycle in 0..10 {
            sink.observe_variance(cycle, var);
            var *= 0.3;
        }
        match sink.watchdog_verdict() {
            Some(WatchdogVerdict::Converging { .. }) => {}
            other => panic!("expected converging, got {other:?}"),
        }
    }
}
