//! The engine-facing side of the fault lab: [`FaultInjector`] is the
//! object-safe interface every simulation engine consults at its exchange
//! boundary, and [`PlanInjector`] is its deterministic realisation of a
//! [`FaultPlan`].
//!
//! The contract is built around the same determinism discipline as the
//! peer-sampling layer:
//!
//! * **link and partition decisions are pure** — [`FaultInjector::link_blocked`]
//!   is a function of (plan, seed, endpoints, cycle) with no internal state,
//!   so an engine may evaluate it at any point of its schedule
//!   construction and get identical answers in any query order;
//! * **adversarial randomness is stream-isolated** — victim picks for value
//!   injection come from the injector's own seeded RNG, never the engine's
//!   schedule streams, so a plan with no injections consumes *zero* engine
//!   randomness and an empty plan leaves trajectories bit-identical to a
//!   fault-free engine (pinned by `tests/determinism.rs`);
//! * **crash victims stay with the engine** — the injector only decides *how
//!   many* nodes crash; the engine removes them through its existing churn
//!   path (`remove_random_nodes`), reusing the arena free lists and sampler
//!   notifications.

use crate::plan::FaultPlan;
use overlay_topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The fault-injection interface the simulation engines drive.
///
/// Call order per engine cycle: exactly one [`FaultInjector::begin_cycle`],
/// then at most one [`FaultInjector::crash_count`] and one
/// [`FaultInjector::corruptions`] (both before any exchange), then any
/// number of [`FaultInjector::link_blocked`] /
/// [`FaultInjector::loss_probability`] queries during the exchange phase.
pub trait FaultInjector: fmt::Debug {
    /// Enters cycle `cycle`: caches the cycle-dependent fault state (loss
    /// rate, active partitions). Must be called before any other query of
    /// that cycle.
    fn begin_cycle(&mut self, cycle: usize);

    /// The message-loss probability in effect for the current cycle, in
    /// `[0, 1]`. Engines draw the actual losses from their own (or their
    /// per-exchange) RNG streams, exactly as they always did for
    /// `NetworkConditions`.
    fn loss_probability(&self) -> f64;

    /// Whether the link between `a` and `b` is unusable in the current cycle
    /// (persistent per-link failure or an active partition separating the
    /// endpoints). Symmetric and pure: no internal state changes, identical
    /// answers in any query order.
    fn link_blocked(&self, a: NodeId, b: NodeId) -> bool;

    /// Whether [`FaultInjector::link_blocked`] can answer `true` at all in
    /// the current cycle. A cheap once-per-cycle gate: engines driving
    /// millions of peer picks per cycle skip the per-pick `link_blocked`
    /// query entirely when this is `false`. The default conservatively
    /// returns `true` (always consult `link_blocked`).
    fn links_can_block(&self) -> bool {
        true
    }

    /// Number of nodes to crash at the start of the current cycle, given the
    /// current live count. The engine removes that many uniformly random
    /// live nodes through its churn path.
    fn crash_count(&mut self, live: usize) -> usize;

    /// Adversarial value injections to apply at the start of the current
    /// cycle: `(directory position, injected value)` pairs over the engine's
    /// dense live directory of `live` nodes. Victim picks are drawn from the
    /// injector's own stream; positions may repeat (re-corrupting a victim
    /// is idempotent).
    fn corruptions(&mut self, live: usize) -> Vec<(usize, f64)>;
}

/// SplitMix64 finaliser — the same mixing the engines' `SeedSequence` uses,
/// applied to (seed, entity) pairs so every link and partition-side decision
/// is an independent, reproducible coin. Shared with the stateful adversary
/// lab (`crate::adversary`), whose colluder coins follow the same discipline.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a probability to a threshold on the full `u64` range: an event with
/// hash `h` fires iff `h < threshold(p)`. Monotone in `p`, which is what
/// makes threshold coins *nested*: every event firing at `p₁` also fires at
/// any `p₂ ≥ p₁` under the same seed.
pub(crate) fn probability_threshold(p: f64) -> u64 {
    if p >= 1.0 {
        u64::MAX
    } else if p <= 0.0 {
        0
    } else {
        (p * (u64::MAX as f64)) as u64
    }
}

const LINK_SALT: u64 = 0x6c69_6e6b_2d66_6c74; // "link-flt"
const PARTITION_SALT: u64 = 0x7061_7274_2d66_6c74; // "part-flt"

/// The deterministic realisation of a [`FaultPlan`]: every decision is a
/// pure function of `(plan, seed, cycle, entity)` except value-injection
/// victim picks, which consume the injector's private RNG stream.
#[derive(Debug)]
pub struct PlanInjector {
    plan: FaultPlan,
    seed: u64,
    cycle: usize,
    /// Loss probability cached for the current cycle.
    loss: f64,
    /// Indices of the partition windows active in the current cycle.
    active_partitions: Vec<usize>,
    /// `link_failure > 0` — precomputed so the per-exchange query is two
    /// comparisons on a fault-free run.
    has_link_faults: bool,
    link_threshold: u64,
    rng: StdRng,
}

impl PlanInjector {
    /// Creates the injector for `plan`, deriving every internal decision
    /// from `seed` (engines pass a labelled sub-seed of the run's master
    /// seed, so fault randomness never interferes with schedule draws).
    ///
    /// The plan is assumed valid; engines validate it at construction via
    /// [`FaultPlan::validate`].
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        let has_link_faults = plan.link_failure > 0.0;
        let link_threshold = probability_threshold(plan.link_failure);
        let mut injector = PlanInjector {
            plan,
            seed,
            cycle: 0,
            loss: 0.0,
            active_partitions: Vec::new(),
            has_link_faults,
            link_threshold,
            rng: StdRng::seed_from_u64(mix(seed ^ 0x696e_6a65_6374_696f)), // "injectio"
        };
        injector.refresh_cycle_state();
        injector
    }

    /// The plan this injector realises.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The current cycle (as last set by [`FaultInjector::begin_cycle`]).
    pub fn cycle(&self) -> usize {
        self.cycle
    }

    /// Whether `id` sits on the minority side of partition window
    /// `window_idx` — a per-(window, node) coin with the window's
    /// `minority_fraction`, constant for the whole run so a node never
    /// switches sides while a window is active.
    pub fn partition_side(&self, window_idx: usize, id: NodeId) -> bool {
        let window = &self.plan.partitions[window_idx];
        let h =
            mix(self.seed ^ PARTITION_SALT ^ ((window_idx as u64) << 32) ^ u64::from(id.as_u32()));
        h < probability_threshold(window.minority_fraction)
    }

    /// Whether the (unordered) link between `a` and `b` is persistently
    /// dead — one coin per link, constant over the whole run (the *monotone*
    /// property: dead links never heal and live links never die).
    pub fn link_dead(&self, a: NodeId, b: NodeId) -> bool {
        if !self.has_link_faults {
            return false;
        }
        let (lo, hi) = if a.as_u32() <= b.as_u32() {
            (a.as_u32(), b.as_u32())
        } else {
            (b.as_u32(), a.as_u32())
        };
        let h = mix(self.seed ^ LINK_SALT ^ ((u64::from(lo) << 32) | u64::from(hi)));
        h < self.link_threshold
    }

    fn refresh_cycle_state(&mut self) {
        self.loss = self.plan.loss_at(self.cycle);
        self.active_partitions.clear();
        for (idx, window) in self.plan.partitions.iter().enumerate() {
            if window.active_at(self.cycle) {
                self.active_partitions.push(idx);
            }
        }
    }
}

impl FaultInjector for PlanInjector {
    fn begin_cycle(&mut self, cycle: usize) {
        self.cycle = cycle;
        self.refresh_cycle_state();
    }

    fn loss_probability(&self) -> f64 {
        self.loss
    }

    fn link_blocked(&self, a: NodeId, b: NodeId) -> bool {
        if self.link_dead(a, b) {
            return true;
        }
        for &idx in &self.active_partitions {
            if self.partition_side(idx, a) != self.partition_side(idx, b) {
                return true;
            }
        }
        false
    }

    fn links_can_block(&self) -> bool {
        self.has_link_faults || !self.active_partitions.is_empty()
    }

    fn crash_count(&mut self, live: usize) -> usize {
        let mut remaining = live;
        let mut total = 0;
        // Bursts sharing a cycle compose sequentially: each takes its
        // fraction of the nodes the previous bursts left alive.
        for fraction in self.plan.crash_fractions_at(self.cycle) {
            let victims = (fraction * remaining as f64) as usize;
            total += victims;
            remaining = remaining.saturating_sub(victims);
        }
        total
    }

    fn corruptions(&mut self, live: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        if live == 0 {
            return out;
        }
        // Iterate by index to keep the borrow checker off the RNG; the
        // injection list is tiny (one entry per scheduled attack).
        for i in 0..self.plan.injections.len() {
            let injection = self.plan.injections[i];
            if injection.cycle != self.cycle {
                continue;
            }
            let victims = ((injection.fraction * live as f64) as usize).min(live);
            if victims == 0 {
                continue;
            }
            // Partial Fisher–Yates over the position space: exactly
            // `victims` *distinct* victims, so the corrupted fraction is
            // the configured one (drawing with replacement would fall
            // ~e^-f short). The O(live) scratch is paid only on the rare
            // cycles an injection actually fires.
            let mut positions: Vec<u32> = (0..live as u32).collect();
            for k in 0..victims {
                let j = self.rng.gen_range(k..live);
                positions.swap(k, j);
                out.push((positions[k] as usize, injection.value));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{LossRamp, ValueInjection};

    fn ids(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn empty_plan_injects_nothing_and_consumes_no_stream() {
        let mut injector = PlanInjector::new(FaultPlan::none(), 42);
        for cycle in 0..50 {
            injector.begin_cycle(cycle);
            assert_eq!(injector.loss_probability(), 0.0);
            assert_eq!(injector.crash_count(1_000), 0);
            assert!(injector.corruptions(1_000).is_empty());
            for pair in ids(10).windows(2) {
                assert!(!injector.link_blocked(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn link_failures_are_persistent_symmetric_and_near_the_target_rate() {
        let injector = PlanInjector::new(FaultPlan::with_link_failure(0.2), 7);
        let nodes = ids(200);
        let mut dead = 0usize;
        let mut total = 0usize;
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                total += 1;
                let blocked = injector.link_blocked(a, b);
                assert_eq!(blocked, injector.link_blocked(b, a), "symmetry");
                if blocked {
                    dead += 1;
                }
            }
        }
        let rate = dead as f64 / total as f64;
        assert!((rate - 0.2).abs() < 0.01, "dead-link rate {rate}");

        // Persistence: the same answers at any cycle (monotone — no healing,
        // no new failures).
        let mut later = PlanInjector::new(FaultPlan::with_link_failure(0.2), 7);
        later.begin_cycle(123);
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                assert_eq!(injector.link_blocked(a, b), later.link_blocked(a, b));
            }
        }
    }

    #[test]
    fn different_seeds_draw_different_dead_link_sets() {
        let a = PlanInjector::new(FaultPlan::with_link_failure(0.2), 1);
        let b = PlanInjector::new(FaultPlan::with_link_failure(0.2), 2);
        let nodes = ids(100);
        let disagreements = nodes
            .iter()
            .zip(nodes.iter().skip(1))
            .filter(|&(&x, &y)| a.link_blocked(x, y) != b.link_blocked(x, y))
            .count();
        assert!(disagreements > 0, "seeds must matter");
    }

    #[test]
    fn partitions_block_exactly_the_cross_side_links_while_active() {
        let plan = FaultPlan::with_partition(5, 10, 0.5);
        let mut injector = PlanInjector::new(plan, 11);
        let nodes = ids(100);

        // Inactive before the split…
        injector.begin_cycle(4);
        assert!(nodes.windows(2).all(|p| !injector.link_blocked(p[0], p[1])));

        // …active inside the window: blocked iff sides differ, and both
        // sides are populated at fraction 0.5.
        injector.begin_cycle(5);
        let sides: Vec<bool> = nodes
            .iter()
            .map(|&n| injector.partition_side(0, n))
            .collect();
        let minority = sides.iter().filter(|&&s| s).count();
        assert!((20..=80).contains(&minority), "minority side {minority}");
        for (i, &a) in nodes.iter().enumerate() {
            for (j, &b) in nodes.iter().enumerate().skip(i + 1) {
                assert_eq!(
                    injector.link_blocked(a, b),
                    sides[i] != sides[j],
                    "{a} vs {b}"
                );
            }
        }

        // …healed at the end of the window.
        injector.begin_cycle(10);
        assert!(nodes.windows(2).all(|p| !injector.link_blocked(p[0], p[1])));
    }

    #[test]
    fn loss_schedule_feeds_the_per_cycle_probability() {
        let plan = FaultPlan {
            base_loss: 0.1,
            loss_ramps: vec![LossRamp {
                start_cycle: 10,
                end_cycle: 20,
                start_loss: 0.1,
                end_loss: 0.5,
            }],
            ..FaultPlan::default()
        };
        let mut injector = PlanInjector::new(plan, 3);
        injector.begin_cycle(0);
        assert_eq!(injector.loss_probability(), 0.1);
        injector.begin_cycle(15);
        assert!((injector.loss_probability() - 0.3).abs() < 1e-12);
        injector.begin_cycle(30);
        assert_eq!(injector.loss_probability(), 0.5);
    }

    #[test]
    fn crash_bursts_fire_once_and_compose_sequentially() {
        let plan = FaultPlan {
            crashes: vec![
                crate::plan::CrashBurst {
                    cycle: 3,
                    fraction: 0.5,
                },
                crate::plan::CrashBurst {
                    cycle: 3,
                    fraction: 0.5,
                },
            ],
            ..FaultPlan::default()
        };
        let mut injector = PlanInjector::new(plan, 5);
        injector.begin_cycle(2);
        assert_eq!(injector.crash_count(100), 0);
        injector.begin_cycle(3);
        // 50 % of 100, then 50 % of the remaining 50.
        assert_eq!(injector.crash_count(100), 75);
        injector.begin_cycle(4);
        assert_eq!(injector.crash_count(25), 0);
    }

    #[test]
    fn corruptions_hit_the_configured_fraction_from_a_private_stream() {
        let plan = FaultPlan {
            injections: vec![ValueInjection {
                cycle: 2,
                fraction: 0.1,
                value: 1e6,
            }],
            ..FaultPlan::default()
        };
        let mut a = PlanInjector::new(plan.clone(), 9);
        let mut b = PlanInjector::new(plan, 9);
        for cycle in 0..5 {
            a.begin_cycle(cycle);
            b.begin_cycle(cycle);
            let hits_a = a.corruptions(1_000);
            let hits_b = b.corruptions(1_000);
            assert_eq!(hits_a, hits_b, "cycle {cycle}: same seed, same victims");
            if cycle == 2 {
                assert_eq!(hits_a.len(), 100);
                assert!(hits_a.iter().all(|&(pos, v)| pos < 1_000 && v == 1e6));
                // Victims are distinct: the corrupted fraction is exactly
                // the configured one, not a with-replacement undershoot.
                let mut positions: Vec<usize> = hits_a.iter().map(|&(pos, _)| pos).collect();
                positions.sort_unstable();
                positions.dedup();
                assert_eq!(positions.len(), 100);
            } else {
                assert!(hits_a.is_empty());
            }
        }
        assert!(PlanInjector::new(FaultPlan::none(), 9)
            .corruptions(0)
            .is_empty());
    }
}
