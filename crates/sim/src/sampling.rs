//! Engine-side plumbing for the pluggable peer-sampling layer.
//!
//! The sampling *interface* ([`PeerSampler`], [`SamplerDirectory`],
//! [`SamplerConfig`]) lives in `aggregate-core`; the overlay-backed
//! implementations live in `peer-sampling`. This module supplies the glue
//! the simulation engines need:
//!
//! * [`instantiate_sampler`] — turns the serialisable [`SamplerConfig`] of a
//!   [`crate::SimulationConfig`] into a live [`PeerSampler`], deriving every
//!   internal seed from the run's master seed through *labelled* streams
//!   (`"sampler-membership"` for NEWSCAST's view-exchange randomness,
//!   `"sampler-topology"` for static-overlay generation) so the sampler's
//!   randomness never interferes with the engines' schedule/pick draws —
//!   which is what keeps the uniform configuration bit-identical to the
//!   pre-sampler engines;
//! * the O(1) [`SamplerDirectory`] over a `NodeArena`'s dense live array,
//!   the reference engine's directory (the sharded engine has its own over
//!   the global live list).

use crate::arena::NodeArena;
use crate::{SeedSequence, SimConfigError};
use aggregate_core::sampler::{PeerSampler, SamplerConfig, SamplerDirectory, UniformSampler};
use overlay_topology::NodeId;
use peer_sampling::{NewscastSampler, StaticOverlaySampler};

/// Label of the seed stream feeding a NEWSCAST sampler's internal RNG.
pub(crate) const MEMBERSHIP_STREAM: &str = "sampler-membership";

/// Label of the seed stream feeding static-overlay generation.
pub(crate) const TOPOLOGY_STREAM: &str = "sampler-topology";

/// Label of the seed stream feeding the fault-injection lab (link/partition
/// coins and adversarial victim picks). Isolated from every schedule stream,
/// so the empty fault plan leaves engine trajectories bit-identical.
pub const FAULTS_STREAM: &str = "fault-injection";

/// Label of the seed stream feeding the adversary lab's colluder-membership
/// coins. Isolated from every schedule stream, so the empty adversary plan
/// leaves engine trajectories bit-identical.
pub const ADVERSARY_STREAM: &str = "adversary-collusion";

/// Label of the seed stream electing the redundant counting-instance leaders
/// (the median-of-k defense's `k` leaders per epoch). Isolated from the
/// schedule and probabilistic-election streams.
pub(crate) const REDUNDANCY_STREAM: &str = "redundancy-leaders";

/// Builds the [`PeerSampler`] described by `config` over the initial
/// population `initial` (in directory order), deriving internal seeds from
/// `seeds` through labelled streams.
///
/// # Errors
///
/// [`SimConfigError::Sampler`] when the configuration cannot be realised
/// (invalid overlay-generator parameters, zero NEWSCAST cache).
pub fn instantiate_sampler(
    config: SamplerConfig,
    initial: &[NodeId],
    seeds: &SeedSequence,
) -> Result<Box<dyn PeerSampler + Send>, SimConfigError> {
    match config {
        SamplerConfig::UniformComplete => Ok(Box::new(UniformSampler::new())),
        SamplerConfig::StaticOverlay { topology } => {
            let sampler = StaticOverlaySampler::new(
                topology,
                initial,
                seeds.seed_for_labeled(0, TOPOLOGY_STREAM),
            )
            .map_err(|e| SimConfigError::Sampler {
                reason: e.to_string(),
            })?;
            Ok(Box::new(sampler))
        }
        SamplerConfig::Newscast { cache_size } => {
            if cache_size == 0 {
                return Err(SimConfigError::Sampler {
                    reason: "newscast cache size must be positive".to_string(),
                });
            }
            Ok(Box::new(NewscastSampler::new(
                cache_size,
                initial,
                seeds.seed_for_labeled(0, MEMBERSHIP_STREAM),
            )))
        }
        // `SamplerConfig` is non_exhaustive: reject variants this engine
        // version does not know how to build instead of silently defaulting.
        other => Err(SimConfigError::Sampler {
            reason: format!("unsupported sampler configuration {other:?}"),
        }),
    }
}

/// The reference engine's [`SamplerDirectory`]: positions are the arena's
/// dense live order, liveness is a generation-checked arena lookup — all
/// O(1), and none reads a node.
impl SamplerDirectory for NodeArena {
    fn len(&self) -> usize {
        NodeArena::len(self)
    }

    fn id_at(&self, pos: usize) -> NodeId {
        self.id_at_slot(self.live_slots()[pos])
    }

    fn is_live(&self, id: NodeId) -> bool {
        NodeArena::is_live(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggregate_core::ProtocolConfig;
    use overlay_topology::TopologyKind;

    #[test]
    fn instantiates_every_family_and_reports_its_config() {
        let ids: Vec<NodeId> = (0..50).map(NodeId::new).collect();
        let seeds = SeedSequence::new(7);
        for config in SamplerConfig::all() {
            let sampler = instantiate_sampler(config, &ids, &seeds).unwrap();
            assert_eq!(sampler.config(), config);
        }
    }

    #[test]
    fn invalid_configurations_surface_typed_errors() {
        let ids: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let seeds = SeedSequence::new(7);
        let too_dense = SamplerConfig::StaticOverlay {
            topology: TopologyKind::RandomRegular { degree: 10 },
        };
        assert!(matches!(
            instantiate_sampler(too_dense, &ids, &seeds).err(),
            Some(SimConfigError::Sampler { .. })
        ));
        let zero_cache = SamplerConfig::Newscast { cache_size: 0 };
        assert!(matches!(
            instantiate_sampler(zero_cache, &ids, &seeds).err(),
            Some(SimConfigError::Sampler { .. })
        ));
    }

    #[test]
    fn arena_directory_exposes_live_order_and_liveness() {
        let mut arena = NodeArena::default();
        let ids: Vec<NodeId> = (0..4)
            .map(|i| {
                arena.insert(|id| {
                    aggregate_core::node::ProtocolNode::new(id, ProtocolConfig::default(), i as f64)
                })
            })
            .collect();
        arena.remove_live_at(1);
        let directory: &dyn SamplerDirectory = &arena;
        assert_eq!(directory.len(), 3);
        assert!(!directory.is_empty());
        assert!(directory.is_live(ids[0]));
        assert!(!directory.is_live(ids[1]));
        let listed: Vec<NodeId> = (0..directory.len()).map(|p| directory.id_at(p)).collect();
        assert!(listed.contains(&ids[0]) && listed.contains(&ids[3]));
    }
}
