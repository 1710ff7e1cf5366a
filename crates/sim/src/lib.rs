//! # gossip-sim
//!
//! Simulation engines and experiment runners for epidemic-style aggregation.
//!
//! The paper's evaluation is entirely simulation based; this crate is the
//! substrate that replaces the authors' simulator. It provides:
//!
//! * a **cycle-driven engine** ([`GossipSimulation`]) that drives real
//!   [`aggregate_core::node::ProtocolNode`] state machines over a simulated
//!   network with message loss, churn (joins/departures), epochs and
//!   leader election — the engine behind the Figure 4 reproduction. Node
//!   state lives in a slot-reclaiming, generation-tagged node arena, so
//!   indefinite churn runs in memory bounded by the peak live size;
//! * a **sharded engine** ([`ShardedSimulation`]) that partitions the arena
//!   into per-shard sub-arenas and applies each cycle's schedule in sequence
//!   order through a struct-of-arrays block pipeline — bit-identical per
//!   (seed, shard count), node values invariant across shard counts — the
//!   engine behind the million-node epochs (`examples/million_node.rs`);
//! * **experiment runners** ([`runner`]) that package the paper's experiments
//!   (Figure 3's variance-reduction sweeps, Figure 4's size-estimation
//!   scenario, robustness ablations) as reusable, seeded procedures;
//! * the supporting models: initial value distributions ([`ValueDistribution`]),
//!   churn schedules ([`ChurnSchedule`]), failure conditions
//!   ([`NetworkConditions`]) and the labelled seed streams of
//!   [`aggregate_core::effects::SeedSequence`].
//!
//! The engines, their configurations and errors and the value and churn
//! models are re-exported at the crate root. The public modules:
//!
//! | module | contents |
//! |---|---|
//! | [`runner`] | the experiment runners above, and the per-cycle CSV table of a sharded run |
//! | [`robustness`] | convergence under link failure, loss, value injection, crashes and attacks |
//! | [`overlay`] | convergence under each peer-sampling layer (Figure 3(b)) |
//! | [`coordinator`] | the epoch environment every cycle runtime shares, which `gossip-net`'s lockstep cluster drives too |
//! | [`sampling`] | sampler instantiation and the labelled seed streams the runtimes share |
//! | [`soa`] | the sharded engine's struct-of-arrays records and batched draws |
//! | [`arena`] | the node arena's shard limit, [`arena::MAX_SHARDS`] |
//!
//! ## Example: one point of Figure 3(a)
//!
//! ```
//! use gossip_sim::runner::VarianceExperiment;
//! use aggregate_core::SelectorKind;
//! use overlay_topology::TopologyKind;
//!
//! # fn main() -> Result<(), aggregate_core::AggregationError> {
//! let experiment = VarianceExperiment::figure3(
//!     1_000,                      // network size
//!     TopologyKind::Complete,     // overlay
//!     SelectorKind::Sequential,   // getPair_seq
//!     1,                          // one cycle → σ²₁/σ²₀
//!     10,                         // independent runs
//!     42,                         // master seed
//! );
//! let summary = experiment.run_first_cycle()?;
//! // The measured reduction factor is close to the paper's 1/(2√e) ≈ 0.303.
//! assert!((summary.mean - 0.303).abs() < 0.05);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

pub mod arena;
mod churn;
pub mod coordinator;
mod engine;
mod error;
pub mod overlay;
pub mod robustness;
pub mod runner;
pub mod sampling;
pub(crate) mod sharded;
pub mod soa;
mod values;

pub use churn::ChurnSchedule;
pub use engine::{CycleSummary, GossipSimulation, SimulationConfig};
// The failure models live in `gossip-faults` (the fault-injection lab);
// re-exported here because every simulation configuration embeds them.
use aggregate_core::effects::SeedSequence;
pub use aggregate_core::redundancy::{MergePolicy, RedundancyConfig, ReportError};
pub use error::{SimConfigError, SimError};
pub use gossip_faults::NetworkConditions;
pub(crate) use gossip_faults::{AdversaryPlan, FaultPlan};
pub use robustness::{AttackDefensePoint, RobustnessPoint, RobustnessSweep};
pub use sampling::instantiate_sampler;
pub use sharded::{ShardedConfig, ShardedCycleSummary, ShardedSimulation};
pub use values::ValueDistribution;
