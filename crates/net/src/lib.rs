//! # gossip-net
//!
//! Deployment runtime for anti-entropy aggregation: pluggable transports, a
//! compact wire codec and **one protocol core behind two runtimes**.
//!
//! The protocol logic lives entirely in `aggregate-core`
//! ([`aggregate_core::ExchangeCore`] is the only place exchange state
//! transitions happen); this crate supplies the pieces for running it
//! outside a simulator:
//!
//! * [`codec`] — a small explicit binary encoding of [`aggregate_core::GossipMessage`]
//!   (a 33-byte array per message, no allocation either way);
//! * [`Transport`] — the interface a message carrier must implement, with two
//!   implementations: [`InMemoryNetwork`] (`std::sync::mpsc` channels carrying
//!   encoded wire frames, for tests and single-process demos) and
//!   [`UdpTransport`] (UDP sockets, for LAN/localhost deployments);
//! * [`NodeCore`] — the per-node protocol step both runtimes share: every
//!   message goes through [`aggregate_core::ExchangeCore`], and overlapping
//!   exchanges are rejected so the live message path conserves the
//!   network-wide sum;
//! * [`GossipRuntime`] — one OS thread per node driving the active cycle of
//!   Figure 1 (wait Δt → sample a peer → push–pull exchange) while serving
//!   incoming exchanges. The node itself is one state machine that owns all
//!   its state and is stepped with the time as an argument; the thread is a
//!   thin driver that reads the wall clock, receives, steps and sends. Its
//!   environment is injected through [`NodeEnv`]: a seeded RNG, a
//!   [`aggregate_core::sampler::PeerSampler`], a
//!   [`gossip_faults::FaultInjector`], telemetry and the transport;
//! * [`GossipCluster`] — a whole cluster of that node in one process,
//!   stepped on the calling thread in virtual time with zero latency: the
//!   deterministic home of the asynchronous protocol's tests (no thread
//!   scheduling, no wall clock);
//! * [`VirtualCluster`] — the same node type and transport under a
//!   [`aggregate_core::effects::VirtualClock`] and labelled
//!   [`aggregate_core::effects::SeedSequence`] streams, stepped in lockstep:
//!   a seeded run is deterministic and **bit-identical** to
//!   [`gossip_sim::GossipSimulation`] for the same seed, membership and
//!   topology (pinned by `tests/determinism.rs`).
//!
//! The calibration notes for this reproduction suggested `tokio` for the async
//! runtime; the offline dependency set for this workspace does not include it,
//! so the runtime uses plain threads — the `Transport` trait is deliberately
//! small so an async transport can be added without touching protocol code.
//!
//! ## Example
//!
//! ```
//! use aggregate_core::sampler::SamplerConfig;
//! use gossip_faults::FaultPlan;
//! use gossip_net::{GossipCluster, ClusterConfig};
//!
//! // Five nodes holding 1..=5 gossip for 30 cycles of 5 ms, uniform
//! // sampling and no faults, stepped in virtual time on this thread.
//! let config = ClusterConfig { cycle_length_ms: 5, cycles: 30 };
//! let values = [1.0, 2.0, 3.0, 4.0, 5.0];
//! let sampler = SamplerConfig::UniformComplete;
//! let report = GossipCluster::run_in_memory(&values, config, sampler, FaultPlan::none()).unwrap();
//! // Every node's estimate has converged close to the true average 3.0.
//! assert!(report.estimates.iter().all(|e| (e - 3.0).abs() < 1.0));
//! // The runtime counts exchange outcomes instead of swallowing them.
//! assert!(report.stats.exchanges_completed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

pub mod codec;
mod error;
mod lockstep;
mod memory;
mod node_core;
mod runtime;
mod transport;
mod udp;

pub use error::NetError;
pub use lockstep::VirtualCluster;
pub use memory::InMemoryNetwork;
pub use node_core::{Delivery, NodeCore};
pub use runtime::{
    ClusterConfig, ClusterReport, GossipCluster, GossipRuntime, NodeEnv, NodeHandle, RuntimeStats,
};
pub use transport::Transport;
pub use udp::UdpTransport;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a previous holder panicked, so a
/// dead runtime thread never makes its node's state unreadable.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recovers_the_guard_from_a_panicked_holder() {
        let mutex = Mutex::new(7);
        let died = std::panic::catch_unwind(|| {
            let _guard = lock(&mutex);
            panic!("holder dies while locked");
        });
        assert!(died.is_err() && mutex.is_poisoned());
        *lock(&mutex) += 1;
        assert_eq!(*lock(&mutex), 8);
    }
}
