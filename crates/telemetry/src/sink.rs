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
    /// Ring capacity per recorder when `events` is on.
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

/// The engine-side telemetry sink: one coordinator-owned recorder, a
/// metrics registry of core protocol counters, and the optional watchdog.
///
/// Protocol code only ever calls the *recording* methods (`begin_cycle`,
/// the `record_*` family, `observe_variance`); the *read* side
/// (`drain_events`, `watchdog_verdict`, `diagnoses`, `metrics`) is for
/// runners, tests and exporters after the fact. The gossip-lint
/// `observer-effect` rule enforces that split: telemetry reads inside
/// protocol crates are flagged, so measurements can never feed back into
/// protocol decisions.
///
/// Sharded engines keep additional per-shard [`FlightRecorder`]s for the
/// exchange-outcome events and hand them to
/// [`drain_events_with`](TelemetrySink::drain_events_with).
#[derive(Debug)]
pub struct TelemetrySink {
    config: TelemetryConfig,
    recorder: FlightRecorder,
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
        TelemetrySink {
            recorder: FlightRecorder::new(if config.events {
                config.ring_capacity
            } else {
                0
            }),
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

    /// Makes a fresh per-shard recorder matching this sink's capacity.
    pub fn shard_recorder(&self) -> FlightRecorder {
        FlightRecorder::new(if self.config.events {
            self.config.ring_capacity
        } else {
            0
        })
    }

    /// Starts a new cycle: stamps the recorder context and resets the
    /// per-cycle ordinal counters.
    pub fn begin_cycle(&mut self, cycle: u64, time_ms: u64) {
        self.aux_seq = 0;
        self.veto_seq = 0;
        self.recorder.set_context(cycle, time_ms);
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
        self.recorder
            .record(seq, EventKind::ExchangeVetoed { initiator, peer });
    }

    /// Records the start of exchange `seq` (exchange band).
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

    /// Bumps the message-loss counter by `count` without recording events.
    /// Sharded engines record per-exchange loss events into per-shard
    /// [`FlightRecorder`]s (identity-free), so the metric is
    /// fed separately from the cycle's merged tally.
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

    /// Drains this sink's own recorder into canonical trace order.
    pub fn drain_events(&mut self) -> Vec<Event> {
        self.drain_events_with([])
    }

    /// Drains this sink's recorder plus the per-shard / per-node
    /// `recorders`, merged into canonical trace order. The merge reads each
    /// ring in place and then empties it, so the rings keep their capacity
    /// for the next events.
    pub fn drain_events_with<'a>(
        &mut self,
        recorders: impl IntoIterator<Item = &'a mut FlightRecorder>,
    ) -> Vec<Event> {
        let mut rings: Vec<&mut FlightRecorder> = std::iter::once(&mut self.recorder)
            .chain(recorders.into_iter().map(|r| &mut *r))
            .collect();
        let mut runs: Vec<&mut [Event]> = rings.iter_mut().map(|r| r.events_mut()).collect();
        let merged = merge_runs(&mut runs);
        for ring in rings {
            ring.clear();
        }
        merged
    }

    /// Events evicted from this sink's own ring (overflow indicator).
    pub fn dropped_events(&self) -> u64 {
        self.recorder.dropped()
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
    fn shard_batches_merge_with_coordinator_events() {
        let mut sink = TelemetrySink::new(TelemetryConfig::trace());
        sink.begin_cycle(2, 20);
        sink.exchange_begun(0, 1, 2);
        let mut shard = sink.shard_recorder();
        shard.set_context(2, 20);
        shard.record(0, EventKind::MessageLost);
        let events = sink.drain_events_with([&mut shard]);
        let names: Vec<_> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, ["exchange_begun", "message_lost"]);
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
