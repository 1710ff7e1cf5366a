//! # epidemic-aggregation
//!
//! Umbrella crate for the reproduction of *"Epidemic-Style Proactive
//! Aggregation in Large Overlay Networks"* (Jelasity & Montresor, ICDCS 2004).
//!
//! The workspace is organised as a set of focused crates; this facade
//! re-exports them under one roof so that applications can depend on a single
//! crate and examples/integration tests can exercise the whole stack:
//!
//! * [`core`] (`aggregate-core`) — the aggregation protocol itself: aggregate
//!   functions, pair selectors, the AVG algorithm, epochs, size estimation and
//!   the convergence theory;
//! * [`topology`] (`overlay-topology`) — overlay graphs and generators;
//! * [`membership`] (`peer-sampling`) — newscast-style peer sampling;
//! * [`sim`] (`gossip-sim`) — the cycle-driven simulators (reference and
//!   sharded), churn models and experiment runners;
//! * [`faults`] (`gossip-faults`) — the fault-injection lab: deterministic
//!   fault schedules (link failures, partitions, crash bursts, loss ramps,
//!   adversarial value injection) every engine executes;
//! * [`net`] (`gossip-net`) — transports, wire codec and two runtimes over
//!   the shared protocol core: the threaded deployment runtime and the
//!   deterministic lockstep cluster pinned against the simulator;
//! * [`analysis`] (`gossip-analysis`) — statistics and report generation.
//!
//! See the workspace `README.md` for a guided tour and `DESIGN.md` for the
//! paper-to-module mapping.
//!
//! ## Quick start
//!
//! ```
//! use epidemic_aggregation::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), AggregationError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let n = 1_000;
//! let topology = CompleteTopology::new(n);
//! let mut values: Vec<f64> = (0..n).map(|i| i as f64).collect();
//! let mut selector = SequentialSelector::new();
//! run_avg(&mut values, &topology, &mut selector, &mut rng, 30)?;
//! assert!(values.iter().all(|v| (v - 499.5).abs() < 1e-3));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aggregate_core as core;
pub use gossip_analysis as analysis;
pub use gossip_faults as faults;
pub use gossip_net as net;
pub use gossip_sim as sim;
pub use gossip_telemetry as telemetry;
pub use overlay_topology as topology;
pub use peer_sampling as membership;

/// The most commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use aggregate_core::aggregate::{Aggregate, AggregateKind};
    pub use aggregate_core::avg::{mean, run_avg, variance};
    pub use aggregate_core::node::ProtocolNode;
    pub use aggregate_core::sampler::{
        PeerSampler, SamplerConfig, SamplerDirectory, SliceDirectory, UniformSampler,
    };
    pub use aggregate_core::selectors::{
        PairSelector, RandomEdgeSelector, SelectorKind, SequentialSelector,
    };
    pub use aggregate_core::size_estimation::LeaderPolicy;
    pub use aggregate_core::{theory, AggregationError, GossipMessage, ProtocolConfig};
    pub use gossip_analysis::{Summary, Table};
    pub use gossip_faults::{
        Adversary, AdversaryPlan, AttackStrategy, CrashBurst, FaultInjector, FaultPlan, LossRamp,
        PartitionWindow, PlanInjector, ValueInjection,
    };
    pub use gossip_net::{
        ClusterConfig, ClusterReport, GossipCluster, GossipRuntime, NodeEnv, RuntimeStats,
        VirtualCluster,
    };
    pub use gossip_sim::runner::{
        ChurnReport, ChurnRunner, SizeEstimationScenario, VarianceExperiment,
    };
    pub use gossip_sim::{
        AttackDefensePoint, ChurnSchedule, GossipSimulation, MergePolicy, NetworkConditions,
        RedundancyConfig, ReportError, RobustnessPoint, RobustnessSweep, ShardedConfig,
        ShardedSimulation, SimConfigError, SimError, SimulationConfig, ValueDistribution,
    };
    pub use gossip_telemetry::{
        ConvergenceWatchdog, Diagnosis, Event, EventKind, FlightRecorder, MetricsRegistry,
        TelemetryConfig, TelemetrySink, WatchdogVerdict,
    };
    pub use overlay_topology::{
        generators, CompleteTopology, Graph, NodeId, Topology, TopologyBuilder, TopologyKind,
    };
    pub use peer_sampling::{NewscastNetwork, NewscastSampler, StaticOverlaySampler};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_key_types() {
        use crate::prelude::*;
        // Compile-time check that the re-exports resolve.
        let _ = AggregateKind::Average;
        let _ = SelectorKind::Sequential;
        let _ = TopologyKind::Complete;
        let _ = NetworkConditions::reliable();
        assert!(FaultPlan::none().is_empty());
        assert!((theory::PM_RATE - 0.25).abs() < 1e-12);
    }
}
