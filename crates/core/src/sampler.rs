//! Pluggable peer sampling — the layer that decides *who* a node gossips
//! with.
//!
//! The paper's analysis assumes each exchange partner is a uniformly random
//! member of the whole network; its robustness claim (Section 5) is that the
//! measured convergence factor barely degrades when partners are instead
//! drawn from a realistic partial view maintained by a membership protocol
//! such as NEWSCAST. This module is the seam that lets every simulation
//! engine swap between those worlds without touching the exchange path:
//!
//! * [`PeerSampler`] — the object-safe sampling interface the engines drive;
//! * [`SamplerDirectory`] — the engine-provided dense directory of live
//!   nodes a sampler draws from (and validates picks against);
//! * [`UniformSampler`] — uniform sampling over the complete live
//!   membership, bit-compatible with the engines' historical behaviour;
//! * [`SamplerConfig`] — the serialisable description experiment
//!   configurations store, mirroring [`crate::SelectorKind`].
//!
//! Implementations backed by static overlay graphs and by a live NEWSCAST
//! membership protocol live in the `peer-sampling` crate
//! (`StaticOverlaySampler`, `NewscastSampler`); the engines in `gossip-sim`
//! instantiate any of them from a [`SamplerConfig`].
//!
//! # Example
//!
//! ```
//! use aggregate_core::sampler::{PeerSampler, SamplerDirectory, SliceDirectory, UniformSampler};
//! use overlay_topology::NodeId;
//! use rand::SeedableRng;
//!
//! let live: Vec<NodeId> = (0..10).map(NodeId::new).collect();
//! let directory = SliceDirectory::new(&live);
//! let mut sampler = UniformSampler::new();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//!
//! // Node at position 3 asks for a partner: any live node but itself.
//! let peer = sampler.sample(&directory, 3, &mut rng).unwrap();
//! assert_ne!(peer, NodeId::new(3));
//! assert!(directory.is_live(peer));
//! ```

use overlay_topology::{NodeId, TopologyKind};
use rand::{Rng, RngCore};
use std::fmt;

/// A dense, indexable directory of the currently live nodes, provided by the
/// engine driving a [`PeerSampler`].
///
/// Positions `0..len()` enumerate the live population in the engine's
/// iteration order (arena live order for the reference engine, global
/// directory order for the sharded engine). The directory also answers
/// liveness queries so that samplers backed by potentially stale views
/// (NEWSCAST caches, static overlays under churn) can have their picks
/// validated by [`sample_live_peer`].
pub trait SamplerDirectory {
    /// Number of live nodes.
    fn len(&self) -> usize;

    /// Returns `true` when no node is live.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The identifier of the live node at `pos` (`pos < len()`).
    fn id_at(&self, pos: usize) -> NodeId;

    /// Whether `id` currently resolves to a live node.
    fn is_live(&self, id: NodeId) -> bool;
}

/// The simplest [`SamplerDirectory`]: a slice of live identifiers.
///
/// Liveness checks are a linear scan, so this is meant for tests, docs and
/// small drivers; the simulation engines provide O(1) directories over their
/// arenas.
#[derive(Debug, Clone, Copy)]
pub struct SliceDirectory<'a> {
    ids: &'a [NodeId],
}

impl<'a> SliceDirectory<'a> {
    /// Wraps a slice of live node identifiers.
    pub fn new(ids: &'a [NodeId]) -> Self {
        SliceDirectory { ids }
    }
}

impl SamplerDirectory for SliceDirectory<'_> {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn id_at(&self, pos: usize) -> NodeId {
        self.ids[pos]
    }

    fn is_live(&self, id: NodeId) -> bool {
        self.ids.contains(&id)
    }
}

/// A peer-sampling service driven by a simulation engine: the seam between
/// the aggregation exchange schedule and the overlay that constrains it.
///
/// The engine calls [`PeerSampler::begin_cycle`] once per aggregation cycle
/// (before any pick), then [`PeerSampler::sample`] once per initiating node.
/// Churn is mirrored through [`PeerSampler::on_join`] /
/// [`PeerSampler::on_depart`], and failed exchange attempts (a sampled peer
/// that is no longer live) are reported through
/// [`PeerSampler::peer_failed`], which is how NEWSCAST's tail-drop healing
/// is triggered.
///
/// Implementations must be deterministic: all randomness is drawn either
/// from the `rng` handed to [`PeerSampler::sample`] (the engine's seeded
/// pick stream) or from an internal RNG seeded at construction, so that a
/// fixed master seed reproduces a run bit for bit.
pub trait PeerSampler: fmt::Debug {
    /// The configuration this sampler realises (used by reports and CSV
    /// exports to label the run).
    fn config(&self) -> SamplerConfig;

    /// Advances overlay maintenance by one cycle, in lockstep with the
    /// aggregation cycle. Called exactly once per engine cycle, before any
    /// [`PeerSampler::sample`] of that cycle. The default is a no-op (static
    /// overlays and uniform sampling need no maintenance).
    fn begin_cycle(&mut self, directory: &dyn SamplerDirectory) {
        let _ = directory;
    }

    /// Picks an exchange partner for the node at `initiator_pos` of the
    /// directory, or `None` when the sampler knows no eligible peer.
    ///
    /// The returned identifier may be stale (a departed node still cached in
    /// a partial view); engines validate it against the directory and report
    /// failures through [`PeerSampler::peer_failed`] — see
    /// [`sample_live_peer`].
    fn sample(
        &mut self,
        directory: &dyn SamplerDirectory,
        initiator_pos: usize,
        rng: &mut dyn RngCore,
    ) -> Option<NodeId>;

    /// A node joined the live set (`directory` already contains it). The
    /// default is a no-op.
    fn on_join(&mut self, id: NodeId, directory: &dyn SamplerDirectory) {
        let _ = (id, directory);
    }

    /// A node departed (crash or leave). The default is a no-op.
    fn on_depart(&mut self, id: NodeId) {
        let _ = id;
    }

    /// An exchange attempt from `initiator` towards the sampled `peer`
    /// failed because the peer is no longer live. Samplers backed by cached
    /// views drop the stale descriptor here (tail-drop healing); the default
    /// is a no-op.
    fn peer_failed(&mut self, initiator: NodeId, peer: NodeId) {
        let _ = (initiator, peer);
    }
}

/// Upper bound on the stale picks [`sample_live_peer`] heals per exchange
/// attempt before giving up on the initiator for this cycle.
pub(crate) const MAX_SAMPLE_ATTEMPTS: usize = 8;

/// Samples a *live* peer for the initiator at `initiator_pos`, healing stale
/// picks along the way.
///
/// Up to `MAX_SAMPLE_ATTEMPTS` (8) times: ask the sampler for a peer; if the
/// directory confirms it live, return it; otherwise report the failure
/// (so cached views evict the dead descriptor) and retry. Returns `None`
/// when the sampler runs out of candidates — the engine simply skips this
/// initiator's exchange, exactly as the paper's protocol does when a contact
/// attempt fails.
pub fn sample_live_peer(
    sampler: &mut dyn PeerSampler,
    directory: &dyn SamplerDirectory,
    initiator_pos: usize,
    rng: &mut dyn RngCore,
) -> Option<NodeId> {
    for _ in 0..MAX_SAMPLE_ATTEMPTS {
        let peer = sampler.sample(directory, initiator_pos, rng)?;
        if directory.is_live(peer) {
            return Some(peer);
        }
        sampler.peer_failed(directory.id_at(initiator_pos), peer);
    }
    None
}

/// Uniform sampling over the complete live membership — the setting of the
/// paper's analysis (every pair of nodes may communicate).
///
/// The draw sequence is pinned: one `gen_range(0..len)` per attempt,
/// rejecting only the initiator's own position. This is exactly the
/// historical peer-pick loop of `GossipSimulation` and `ShardedSimulation`,
/// so engines refactored onto this sampler reproduce their pre-refactor
/// trajectories bit for bit (`tests/determinism.rs` pins golden values).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UniformSampler;

impl UniformSampler {
    /// Creates the sampler.
    pub fn new() -> Self {
        UniformSampler
    }
}

impl PeerSampler for UniformSampler {
    fn config(&self) -> SamplerConfig {
        SamplerConfig::UniformComplete
    }

    fn sample(
        &mut self,
        directory: &dyn SamplerDirectory,
        initiator_pos: usize,
        rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        let n = directory.len();
        if n < 2 {
            return None;
        }
        loop {
            let candidate = rng.gen_range(0..n);
            if candidate != initiator_pos {
                return Some(directory.id_at(candidate));
            }
        }
    }
}

/// Serialisable description of a peer-sampling layer, mirroring
/// [`crate::SelectorKind`]: experiment configurations store a
/// `SamplerConfig`, engines instantiate the matching [`PeerSampler`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[non_exhaustive]
pub enum SamplerConfig {
    /// Uniform sampling over the complete live membership (the paper's
    /// analytical model, and the engines' historical behaviour).
    #[default]
    UniformComplete,
    /// Sampling along the edges of a static overlay graph generated once at
    /// start-up. Departures vacate their vertex; later joins re-occupy
    /// vacated vertices (deterministically, most recently vacated first).
    StaticOverlay {
        /// The overlay family and parameters to generate.
        topology: TopologyKind,
    },
    /// A live NEWSCAST membership protocol running in lockstep with the
    /// aggregation cycles: each node keeps a partial view ("cache") of
    /// `cache_size` descriptors, exchanges and merges views once per cycle,
    /// and samples partners uniformly from its current view.
    Newscast {
        /// The per-node view capacity `c` (the paper's NEWSCAST experiments
        /// use `c = 20`; convergence degrades only for very small caches).
        cache_size: usize,
    },
}

impl SamplerConfig {
    /// NEWSCAST sampling with the paper's default cache size of 20.
    pub fn newscast() -> Self {
        SamplerConfig::Newscast { cache_size: 20 }
    }

    /// A short, stable family name (used as the `sampler` column of report
    /// tables and CSV exports, alongside [`crate::SelectorKind::paper_name`]).
    pub fn paper_name(self) -> &'static str {
        match self {
            SamplerConfig::UniformComplete => "uniform-complete",
            SamplerConfig::StaticOverlay { .. } => "static-overlay",
            SamplerConfig::Newscast { .. } => "newscast",
        }
    }

    /// Representative instances of every sampler family, in report order
    /// (the analogue of [`crate::SelectorKind::all`]).
    pub fn all() -> [SamplerConfig; 3] {
        [
            SamplerConfig::UniformComplete,
            SamplerConfig::StaticOverlay {
                topology: TopologyKind::RandomRegular { degree: 20 },
            },
            SamplerConfig::newscast(),
        ]
    }
}

impl fmt::Display for SamplerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplerConfig::UniformComplete => f.write_str("uniform-complete"),
            SamplerConfig::StaticOverlay { topology } => write!(f, "static[{topology}]"),
            SamplerConfig::Newscast { cache_size } => write!(f, "newscast(c={cache_size})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(3)
    }

    #[test]
    fn uniform_sampler_never_returns_the_initiator() {
        let live: Vec<NodeId> = (0..20).map(NodeId::new).collect();
        let directory = SliceDirectory::new(&live);
        let mut sampler = UniformSampler::new();
        let mut r = rng();
        for (pos, &own) in live.iter().enumerate() {
            for _ in 0..25 {
                let peer = sampler.sample(&directory, pos, &mut r).unwrap();
                assert_ne!(peer, own);
                assert!(directory.is_live(peer));
            }
        }
    }

    #[test]
    fn uniform_sampler_needs_two_nodes() {
        let one = [NodeId::new(0)];
        let mut sampler = UniformSampler::new();
        let mut r = rng();
        assert!(sampler
            .sample(&SliceDirectory::new(&one), 0, &mut r)
            .is_none());
        assert!(sampler
            .sample(&SliceDirectory::new(&[]), 0, &mut r)
            .is_none());
    }

    #[test]
    fn uniform_draw_sequence_matches_the_historical_pick_loop() {
        // The engines' pre-refactor loop drew `gen_range(0..n)` directly and
        // rejected the initiator's own position; the sampler must consume
        // the RNG identically so refactored engines stay bit-identical.
        let live: Vec<NodeId> = (0..50).map(NodeId::new).collect();
        let directory = SliceDirectory::new(&live);
        let mut sampler = UniformSampler::new();
        let mut a = rng();
        let mut b = rng();
        for pos in [0usize, 7, 49, 3, 3, 12] {
            let picked = sampler.sample(&directory, pos, &mut a).unwrap();
            let expected = loop {
                use rand::Rng;
                let candidate = b.gen_range(0..live.len());
                if candidate != pos {
                    break live[candidate];
                }
            };
            assert_eq!(picked, expected);
        }
    }

    #[test]
    fn sample_live_peer_heals_stale_picks() {
        /// Always proposes a fixed stale id first, then delegates to uniform.
        #[derive(Debug)]
        struct Stale {
            stale: NodeId,
            evictions: Vec<(NodeId, NodeId)>,
            proposed: bool,
        }
        impl PeerSampler for Stale {
            fn config(&self) -> SamplerConfig {
                SamplerConfig::newscast()
            }
            fn sample(
                &mut self,
                directory: &dyn SamplerDirectory,
                initiator_pos: usize,
                rng: &mut dyn RngCore,
            ) -> Option<NodeId> {
                if !self.proposed {
                    self.proposed = true;
                    return Some(self.stale);
                }
                UniformSampler::new().sample(directory, initiator_pos, rng)
            }
            fn peer_failed(&mut self, initiator: NodeId, peer: NodeId) {
                self.evictions.push((initiator, peer));
            }
        }

        let live: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let directory = SliceDirectory::new(&live);
        let mut sampler = Stale {
            stale: NodeId::new(99),
            evictions: Vec::new(),
            proposed: false,
        };
        let peer = sample_live_peer(&mut sampler, &directory, 2, &mut rng()).unwrap();
        assert!(directory.is_live(peer));
        assert_eq!(sampler.evictions, vec![(NodeId::new(2), NodeId::new(99))]);
    }

    #[test]
    fn sample_live_peer_gives_up_after_bounded_attempts() {
        /// A view of nothing but ghosts.
        #[derive(Debug)]
        struct Ghosts {
            failures: usize,
        }
        impl PeerSampler for Ghosts {
            fn config(&self) -> SamplerConfig {
                SamplerConfig::newscast()
            }
            fn sample(
                &mut self,
                _directory: &dyn SamplerDirectory,
                _initiator_pos: usize,
                _rng: &mut dyn RngCore,
            ) -> Option<NodeId> {
                Some(NodeId::new(1_000))
            }
            fn peer_failed(&mut self, _initiator: NodeId, _peer: NodeId) {
                self.failures += 1;
            }
        }
        let live: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let mut sampler = Ghosts { failures: 0 };
        let picked = sample_live_peer(&mut sampler, &SliceDirectory::new(&live), 0, &mut rng());
        assert_eq!(picked, None);
        assert_eq!(sampler.failures, MAX_SAMPLE_ATTEMPTS);
    }

    #[test]
    fn config_names_and_display_are_stable() {
        assert_eq!(SamplerConfig::default(), SamplerConfig::UniformComplete);
        assert_eq!(
            SamplerConfig::UniformComplete.paper_name(),
            "uniform-complete"
        );
        assert_eq!(SamplerConfig::newscast().paper_name(), "newscast");
        assert_eq!(SamplerConfig::newscast().to_string(), "newscast(c=20)");
        assert_eq!(
            SamplerConfig::StaticOverlay {
                topology: TopologyKind::Ring
            }
            .to_string(),
            "static[ring]"
        );
        assert_eq!(SamplerConfig::all().len(), 3);
        let names: Vec<&str> = SamplerConfig::all()
            .iter()
            .map(|c| c.paper_name())
            .collect();
        assert_eq!(
            names,
            vec!["uniform-complete", "static-overlay", "newscast"]
        );
    }
}
