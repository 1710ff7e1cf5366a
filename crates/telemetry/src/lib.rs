//! # gossip-telemetry
//!
//! A deterministic observability layer for the gossip runtimes: a
//! [`FlightRecorder`] ring of structured [`Event`]s, a [`MetricsRegistry`]
//! of named counters/gauges/histograms, and a [`ConvergenceWatchdog`] that
//! diagnoses stalls and divergence from the per-cycle variance trajectory.
//!
//! All four runtimes (`GossipSimulation`, `ShardedSimulation`,
//! `VirtualCluster`, the live `GossipRuntime`) record through one
//! [`TelemetrySink`] facade and emit one event schema, so a trace from any
//! engine can be exported as JSONL ([`trace::to_jsonl`]) and read with the
//! same `trace summarize` tool. Two invariants make the traces useful for
//! determinism auditing:
//!
//! 1. **Recording never perturbs the protocol.** The sink consumes no
//!    randomness and protocol crates only call its write-only recording
//!    methods; the read side is lint-enforced (`observer-effect`) to stay
//!    out of protocol code, so measurements cannot feed back into
//!    decisions.
//! 2. **Traces are bit-identical across executors.** Events carry a
//!    total-order key ([`Event::sort_key`]) built from shard-count-agnostic
//!    identifiers (global directory positions, global exchange sequence
//!    numbers), and a drain returns them in that order, so it yields the
//!    same byte stream at any shard count. The cycle runtimes write their
//!    exchange ring in key order and vetoes to a ring of their own, so a
//!    drain usually hands the one ring over as it is; otherwise it is a
//!    k-way merge of sorted runs, and a ring out of order is sorted first.
//!
//! Timestamps come from the runtime's injected clock (virtual time in the
//! simulators, the `NodeEnv` clock in the live runtime) — never from a
//! wall clock inside protocol crates.
//!
//! ```
//! use gossip_telemetry::{TelemetryConfig, TelemetrySink, trace};
//!
//! let mut sink = TelemetrySink::new(TelemetryConfig::trace());
//! sink.begin_cycle(0, 0);
//! sink.exchange_begun(0, 12, 209);
//! sink.message_lost(0);
//! let events = sink.drain_events();
//! let jsonl = trace::to_jsonl(&events);
//! assert!(jsonl.starts_with("{\"cycle\":0,"));
//! assert_eq!(trace::from_jsonl(&jsonl).ok().as_deref(), Some(&events[..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod recorder;
pub mod registry;
pub mod sink;
pub mod trace;
pub mod watchdog;

pub use event::{merge_events, Event, EventKind, NO_NODE};
pub use recorder::FlightRecorder;
pub use registry::{CounterId, GaugeId, HistogramId, MetricError, MetricsRegistry};
pub use sink::{TelemetryConfig, TelemetrySink, DEFAULT_RING_CAPACITY};
pub use watchdog::{ConvergenceWatchdog, Diagnosis, WatchdogConfig, WatchdogVerdict};
