//! # aggregate-core
//!
//! Anti-entropy (push–pull gossip) aggregation for large overlay networks — a
//! faithful, production-quality implementation of
//! *"Epidemic-Style Proactive Aggregation in Large Overlay Networks"*
//! (M. Jelasity & A. Montresor, ICDCS 2004).
//!
//! Every node holds a numeric attribute and a running approximation of a
//! global aggregate (average, extremum, moment, count, …). Periodically each
//! node exchanges its approximation with a random neighbour and both adopt the
//! value of an aggregate function applied to the pair. The result is a
//! protocol that is:
//!
//! * **proactive** — every node knows the aggregate continuously, no query
//!   phase is needed;
//! * **democratic** — there is no bottleneck node; load is uniform;
//! * **exponentially fast** — the variance of the approximations shrinks by a
//!   constant factor per cycle (1/4 for the optimal pair selection, ≈ 0.303
//!   for the deployable sequential protocol, 1/e for fully random selection).
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`aggregate`] | the `AGGREGATE` functions, chosen by [`AggregateKind`]: average, min/max, moments, booleans |
//! | [`selectors`] | the `GETPAIR` strategies, chosen by [`SelectorKind`]: PM, RAND, SEQ, PMRAND |
//! | [`sampler`] | pluggable peer sampling: uniform-complete, static overlays, live NEWSCAST |
//! | [`effects`] | injected runtime effects: clocks and the [`SeedSequence`] |
//! | [`avg`] | the whole-network `AVG` algorithm (Figure 2) and its per-cycle reports |
//! | [`theory`] | closed-form convergence rates (Section 3) |
//! | [`epoch`] | restart/termination/join machinery (Section 4) |
//! | [`node`] | [`ProtocolNode`]: epochs + instances + message handling |
//! | [`size_estimation`] | leader election and network size estimation by anti-entropy counting (Section 4) |
//! | [`redundancy`] | redundant concurrent instances and the robust merge of their reports (Section 4) |
//! | [`derived`] | [`derived::NetworkStatistics`]: variance, size and sum from converged instances |
//! | [`config`] | protocol configuration builder |
//!
//! At the crate root, [`ExchangeCore`] is the one push–pull exchange every
//! engine runs, over the wire messages of Figure 1 ([`GossipMessage`]).
//!
//! ## Quick start
//!
//! Compute the average of a value vector the way the paper's simulations do:
//!
//! ```
//! use aggregate_core::avg::{run_avg, mean};
//! use aggregate_core::selectors::SequentialSelector;
//! use overlay_topology::CompleteTopology;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), aggregate_core::AggregationError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let n = 1_000;
//! let mut values: Vec<f64> = (0..n).map(|i| i as f64).collect();
//! let true_average = mean(&values);
//!
//! let topology = CompleteTopology::new(n);
//! let mut selector = SequentialSelector::new();
//! let reports = run_avg(&mut values, &topology, &mut selector, &mut rng, 30)?;
//!
//! // After 30 cycles every node's estimate is essentially the true average,
//! // and each cycle reduced the variance by roughly 1/(2√e) ≈ 0.303.
//! assert!(values.iter().all(|v| (v - true_average).abs() < 1e-3));
//! assert!(reports[0].reduction_factor().unwrap() < 0.4);
//! # Ok(())
//! # }
//! ```
//!
//! For the distributed (per-node, message-passing) form of the same protocol
//! see [`node::ProtocolNode`]; for simulation engines, churn models and the
//! paper's experiments see the `gossip-sim` crate and the examples of this
//! workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

pub mod aggregate;
pub mod avg;
pub mod config;
pub mod derived;
pub mod effects;
pub mod epoch;
mod error;
pub(crate) mod exchange;
pub mod node;
pub(crate) mod protocol;
pub mod redundancy;
pub mod sampler;
pub mod selectors;
pub mod size_estimation;
pub mod theory;

pub use aggregate::AggregateKind;
pub use config::{LateJoinPolicy, ProtocolConfig};
pub use effects::SeedSequence;
pub use error::AggregationError;
pub use exchange::{ExchangeCore, ExchangeScratch, ExchangeTally};
pub use node::{EpochResult, HotView, ProtocolNode};
pub use protocol::{GossipMessage, InstanceTag};
pub use redundancy::ReportError;
pub use sampler::SamplerConfig;
pub use selectors::SelectorKind;

#[cfg(test)]
mod crate_level_tests {
    use super::*;

    #[test]
    fn public_types_implement_debug() {
        fn assert_debug<T: std::fmt::Debug>() {}
        assert_debug::<AggregateKind>();
        assert_debug::<SelectorKind>();
        assert_debug::<ProtocolConfig>();
        assert_debug::<ProtocolNode>();
        assert_debug::<GossipMessage>();
        assert_debug::<AggregationError>();
        assert_debug::<InstanceTag>();
    }

    #[test]
    fn key_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExchangeCore>();
        assert_send_sync::<ExchangeScratch>();
        assert_send_sync::<ProtocolNode>();
        assert_send_sync::<GossipMessage>();
        assert_send_sync::<AggregationError>();
        assert_send_sync::<ProtocolConfig>();
    }
}
