//! # peer-sampling
//!
//! A newscast-style peer-sampling (membership) service for gossip protocols.
//!
//! The aggregation paper assumes that "each node has a non-empty set of
//! neighbors" and explicitly delegates the maintenance of that set to
//! membership protocols that "maintain an approximately random topology"
//! (its references [5, 7, 9] — lpbcast, SCAMP and newscast). This crate
//! implements the newscast flavour: every node keeps a small *partial view* of
//! node descriptors tagged with an age; peers periodically exchange views,
//! merge them and keep the freshest entries. The emergent communication graph
//! is close to a random graph with out-degree equal to the view size — exactly
//! the "20-regular random" overlay the paper simulates.
//!
//! The crate offers three layers:
//!
//! * [`NodeDescriptor`] — the unit of a view; callers read a view as a
//!   `&[NodeDescriptor]` through the two layers below, both of which keep
//!   every node's view as a row of one flat table and run the one merge
//!   rule on it;
//! * [`NewscastNetwork`] — a whole-network driver, node `i` in row `i`: it
//!   runs membership cycles and exports the instantaneous communication
//!   graph as an [`overlay_topology::ViewTopology`], ready to be consumed by
//!   the aggregation protocol or the simulator;
//! * [`NewscastSampler`] / [`StaticOverlaySampler`] — implementations of the
//!   engine-facing [`aggregate_core::sampler::PeerSampler`] interface, which
//!   is how the `gossip-sim` engines draw their exchange partners from a
//!   live NEWSCAST membership or a static overlay graph instead of the
//!   complete graph.
//!
//! ## Example
//!
//! ```
//! use peer_sampling::NewscastNetwork;
//! use overlay_topology::Topology;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // 500 nodes, view size 20 (the paper's setting), bootstrapped from a ring.
//! let mut network = NewscastNetwork::bootstrap_ring(500, 20);
//! for _ in 0..20 {
//!     network.run_cycle(&mut rng);
//! }
//! let overlay = network.view_topology();
//! // Every node now has a full view of 20 approximately random neighbours.
//! assert!((0..500).all(|i| overlay.degree(overlay_topology::NodeId::new(i)) == 20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod descriptor;
mod network;
mod sampler;
mod view;

pub use descriptor::NodeDescriptor;
pub use network::NewscastNetwork;
pub use sampler::{NewscastSampler, StaticOverlaySampler};
