//! Graph generators.
//!
//! The paper evaluates the protocol on the **complete graph** (see
//! [`crate::CompleteTopology`]) and on **k-regular random graphs** with a fixed
//! view size of 20 ([`random_regular`]). The remaining generators let the
//! protocol be studied on the overlay structures that real membership
//! services or applications produce. Every generator is reached through a
//! [`crate::TopologyKind`] and [`crate::TopologyBuilder`]:
//!
//! * [`ErdosRenyi`](crate::TopologyKind::ErdosRenyi) — classic `G(n, p)`
//!   random graphs;
//! * [`Ring`](crate::TopologyKind::Ring),
//!   [`Lattice`](crate::TopologyKind::Lattice) and
//!   [`Star`](crate::TopologyKind::Star) ([`star`]) — deterministic reference
//!   structures;
//! * [`SmallWorld`](crate::TopologyKind::SmallWorld) — Watts–Strogatz
//!   small-world graphs (high clustering, low diameter);
//! * [`ScaleFree`](crate::TopologyKind::ScaleFree) — Barabási–Albert
//!   scale-free graphs with hub nodes, the worst case for correlation
//!   accumulation discussed in Section 3.3 of the paper.
//!
//! All random generators take a caller-provided RNG so experiments remain
//! reproducible under a fixed seed.

mod deterministic;
mod random;
mod regular;
mod scale_free;
mod small_world;

pub use deterministic::star;
pub(crate) use deterministic::{lattice2d, ring};
pub(crate) use random::erdos_renyi;
pub use regular::random_regular;
pub(crate) use scale_free::barabasi_albert;
pub(crate) use small_world::watts_strogatz;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(4242)
    }

    #[test]
    fn every_random_generator_is_reproducible_under_a_fixed_seed() {
        let g1 = random_regular(200, 8, &mut rng()).unwrap();
        let g2 = random_regular(200, 8, &mut rng()).unwrap();
        assert_eq!(g1, g2);

        let g1 = erdos_renyi(200, 0.05, &mut rng()).unwrap();
        let g2 = erdos_renyi(200, 0.05, &mut rng()).unwrap();
        assert_eq!(g1, g2);

        let g1 = watts_strogatz(200, 6, 0.1, &mut rng()).unwrap();
        let g2 = watts_strogatz(200, 6, 0.1, &mut rng()).unwrap();
        assert_eq!(g1, g2);

        let g1 = barabasi_albert(200, 3, &mut rng()).unwrap();
        let g2 = barabasi_albert(200, 3, &mut rng()).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn paper_topology_twenty_regular_graph_is_regular_and_connected() {
        // The exact overlay used for Figure 3's "20-reg. random" curves.
        let g = random_regular(2_000, 20, &mut rng()).unwrap();
        assert!(g.is_regular_with_degree(20));
        assert!(g.is_connected());
        assert_eq!(g.num_edges(), 2_000 * 20 / 2);
    }

    #[test]
    fn generators_produce_expected_node_counts() {
        let mut r = rng();
        assert_eq!(ring(17).len(), 17);
        assert_eq!(star(9).len(), 9);
        assert_eq!(lattice2d(4, 6).unwrap().len(), 24);
        assert_eq!(erdos_renyi(50, 0.2, &mut r).unwrap().len(), 50);
        assert_eq!(watts_strogatz(50, 4, 0.2, &mut r).unwrap().len(), 50);
        assert_eq!(barabasi_albert(50, 2, &mut r).unwrap().len(), 50);
    }
}
