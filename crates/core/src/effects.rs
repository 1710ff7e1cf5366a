//! Injected runtime effects: time and entropy.
//!
//! The protocol core ([`crate::exchange::ExchangeCore`]) is a pure state
//! machine; everything environmental — *when* a cycle boundary occurs and
//! *which* random draws are made — reaches it through the traits in this
//! module. A runtime is therefore parameterised by a ([`Clock`],
//! [`SeedSequence`], transport) triple: bind a [`SystemClock`] and an
//! operating-system socket and the node runs live; bind a [`VirtualClock`]
//! and an in-memory channel and the very same loop becomes a deterministic,
//! replayable execution.

use std::fmt;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A source of monotonic milliseconds-since-start timestamps, plus the
/// ability to advance time.
///
/// Real deployments use [`SystemClock`], where [`Clock::advance`] sleeps the
/// calling thread; virtual runtimes use [`VirtualClock`], where it simply
/// increments a logical counter. Protocol loops written against this trait
/// run identically under both.
pub trait Clock: Send + fmt::Debug {
    /// Milliseconds elapsed since the clock's origin.
    fn now_ms(&self) -> u64;

    /// Advances time by `ms` milliseconds: a real clock blocks the caller,
    /// a virtual clock steps its logical counter.
    fn advance(&mut self, ms: u64);
}

/// Wall-clock time: [`Clock::now_ms`] measures a monotonic
/// [`Instant`] origin and [`Clock::advance`] sleeps the thread.
///
/// # Example
///
/// ```
/// use aggregate_core::effects::{Clock, SystemClock};
///
/// let mut clock = SystemClock::new();
/// let before = clock.now_ms();
/// clock.advance(1);
/// assert!(clock.now_ms() >= before + 1);
/// ```
#[derive(Debug, Clone)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// Creates a clock whose origin is "now".
    pub fn new() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn advance(&mut self, ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// Logical time: a plain counter stepped by [`Clock::advance`], never by the
/// operating system. Drives deterministic in-memory runtimes where one
/// protocol cycle is one logical Δt.
///
/// # Example
///
/// ```
/// use aggregate_core::effects::{Clock, VirtualClock};
///
/// let mut clock = VirtualClock::new();
/// assert_eq!(clock.now_ms(), 0);
/// clock.advance(20);
/// clock.advance(20);
/// assert_eq!(clock.now_ms(), 40);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now_ms: u64,
}

impl VirtualClock {
    /// Creates a clock at logical time zero.
    pub fn new() -> Self {
        VirtualClock { now_ms: 0 }
    }
}

impl Clock for VirtualClock {
    fn now_ms(&self) -> u64 {
        self.now_ms
    }

    fn advance(&mut self, ms: u64) {
        self.now_ms = self.now_ms.saturating_add(ms);
    }
}

/// Derives per-run random number generators from a single master seed, so that
/// a whole experiment (e.g. "50 independent runs for every point of
/// Figure 3(a)") is reproducible from one number while every run still gets an
/// independent stream.
///
/// # Example
///
/// ```
/// use aggregate_core::effects::SeedSequence;
///
/// let seeds = SeedSequence::new(42);
/// let mut run0 = seeds.rng_for_run(0);
/// let mut run1 = seeds.rng_for_run(1);
/// // Streams are independent but reproducible.
/// use rand::Rng;
/// let a: f64 = run0.gen();
/// let b: f64 = run1.gen();
/// assert_ne!(a, b);
/// assert_eq!(a, SeedSequence::new(42).rng_for_run(0).gen::<f64>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    master_seed: u64,
}

impl SeedSequence {
    /// Creates a sequence from a master seed.
    pub fn new(master_seed: u64) -> Self {
        SeedSequence { master_seed }
    }

    /// Returns the RNG for run number `run`.
    pub fn rng_for_run(&self, run: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed_for_run(run))
    }

    /// The raw 64-bit seed behind [`SeedSequence::rng_for_run`] — for callers
    /// that derive further sub-streams (e.g. one RNG per exchange in the
    /// sharded engine) instead of instantiating an RNG directly.
    pub fn seed_for_run(&self, run: u64) -> u64 {
        Self::mix(self.master_seed, run)
    }

    /// Returns the RNG for a named sub-experiment of a run (e.g. separate
    /// streams for topology construction and protocol execution).
    pub fn rng_for_labeled(&self, run: u64, label: &str) -> StdRng {
        StdRng::seed_from_u64(self.seed_for_labeled(run, label))
    }

    /// The raw 64-bit seed behind [`SeedSequence::rng_for_labeled`].
    pub fn seed_for_labeled(&self, run: u64, label: &str) -> u64 {
        Self::mix(self.master_seed ^ Self::label_hash(label), run)
    }

    /// Batched draw: fills `out[i]` with `seed_for_run(start + i)`,
    /// bit-identical to the equivalent sequence of
    /// [`SeedSequence::seed_for_run`] calls. Hot loops (the sharded engine's
    /// per-exchange loss seeds) pre-draw whole blocks through this instead of
    /// issuing one call per exchange.
    pub fn fill_block(&self, start: u64, out: &mut [u64]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = Self::mix(self.master_seed, start.wrapping_add(i as u64));
        }
    }

    /// FNV-1a over the label bytes — the sub-stream identity mixed into the
    /// master seed by every labelled draw.
    fn label_hash(label: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in label.as_bytes() {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// SplitMix64-style mixing so nearby seeds produce unrelated streams.
    fn mix(seed: u64, run: u64) -> u64 {
        let mut z = seed
            .wrapping_add(run.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_run_same_stream() {
        let s = SeedSequence::new(7);
        let a: Vec<u32> = (0..5).map(|_| s.rng_for_run(3).gen()).collect();
        let b: Vec<u32> = (0..5).map(|_| s.rng_for_run(3).gen()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_runs_different_streams() {
        let s = SeedSequence::new(7);
        let a: u64 = s.rng_for_run(0).gen();
        let b: u64 = s.rng_for_run(1).gen();
        let c: u64 = s.rng_for_run(2).gen();
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn different_masters_different_streams() {
        let a: u64 = SeedSequence::new(1).rng_for_run(0).gen();
        let b: u64 = SeedSequence::new(2).rng_for_run(0).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn labeled_streams_are_independent() {
        let s = SeedSequence::new(9);
        let topo: u64 = s.rng_for_labeled(0, "topology").gen();
        let proto: u64 = s.rng_for_labeled(0, "protocol").gen();
        let plain: u64 = s.rng_for_run(0).gen();
        assert_ne!(topo, proto);
        assert_ne!(topo, plain);
        // Reproducible.
        assert_eq!(topo, s.rng_for_labeled(0, "topology").gen::<u64>());
    }

    #[test]
    fn fill_block_equals_sequential_draws_bit_for_bit() {
        let s = SeedSequence::new(0xdead_beef);
        for start in [0u64, 1, 17, u64::MAX - 5] {
            let mut block = [0u64; 33];
            s.fill_block(start, &mut block);
            for (i, &drawn) in block.iter().enumerate() {
                assert_eq!(drawn, s.seed_for_run(start.wrapping_add(i as u64)));
            }
        }
    }

    #[test]
    fn fill_block_handles_empty_output() {
        let s = SeedSequence::new(3);
        let mut empty: [u64; 0] = [];
        s.fill_block(0, &mut empty);
    }

    #[test]
    fn virtual_clock_steps_logically() {
        let mut clock = VirtualClock::new();
        assert_eq!(clock.now_ms(), 0);
        clock.advance(15);
        clock.advance(5);
        assert_eq!(clock.now_ms(), 20);
        clock.advance(u64::MAX);
        assert_eq!(clock.now_ms(), u64::MAX);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::new();
        let a = clock.now_ms();
        let b = clock.now_ms();
        assert!(b >= a);
    }
}
