//! Struct-of-arrays hot store for the sharded engine's fused fast path.
//!
//! At 10⁷ nodes the cost of a cycle is memory, not arithmetic: a fused
//! exchange through two [`aggregate_core::ProtocolNode`]s touches two ~200-byte
//! structs (epoch manager, instance, led-instance map root, config) spread
//! over several cache lines each, and every peer pick pays a virtual
//! `dyn PeerSampler` + `dyn RngCore` dispatch. This module provides the dense
//! store that fixes both:
//!
//! * [`HotSlot`] — 16 bytes of state that completely describe a *hot* node
//!   (participating, present since its epoch's first cycle, default instance
//!   only — [`aggregate_core::node::HotView`] is the exchange format). One
//!   slot per arena slot, indexed identically, so the existing `NodeId`
//!   layout maps straight into the dense array. A fused exchange touches
//!   exactly one cache line per endpoint, and the whole record array is
//!   16 B per node — at 10⁷ nodes a 160 MB random-access footprint.
//! * [`HotStore`] — the per-shard arrays: the hot slots plus the per-slot
//!   cycle position and local value, so an epoch restart is
//!   `init_value(local)` over a dense load instead of a `ProtocolNode`
//!   round-trip.
//! * [`shuffle_batched`] / [`WordBuffer`] / the draw mirrors — batched RNG:
//!   raw `u64` words are pre-drawn in blocks and mapped onto ranges/coins with
//!   the exact arithmetic of the vendored `rand` (`gen_range` is one
//!   `next_u64` + widening multiply, no rejection; `gen_bool` is one
//!   `next_u64` → 53-bit float compare), so the batched draws are bit-for-bit
//!   the draws the unbatched code makes. Unit tests below pin each mirror
//!   against the vendored implementation.
//!
//! A live node is in exactly one representation. Everything cold — joining
//! nodes, mid-epoch jumpers, nodes carrying led size-estimation instances —
//! is a `ProtocolNode` and has no hot record; the sharded engine demotes and
//! promotes a node between the two at well-defined points (see
//! `sharded.rs`). Correctness therefore never depends on *which* nodes are
//! hot: demoting everything merely loses the speed.

use aggregate_core::node::HotView;
use rand::rngs::StdRng;
use rand::RngCore;

/// Sentinel in [`HotSlot::key`] marking a slot whose occupant (if any) is
/// represented by its `ProtocolNode`, not by the dense record.
pub const COLD: u32 = u32::MAX;

/// Dense per-node hot state: a 16-byte, never-line-straddling record per
/// arena slot — the *only* state an exchange touches, so the random-access
/// footprint of a cycle is exactly one line per endpoint over
/// `16 B × slots`.
///
/// `key` doubles as the hot flag ([`COLD`]) and, when hot, the node's current
/// epoch — the fused-exchange precondition "both hot, same epoch" is a single
/// compare. Epochs are kept as `u32` here to halve the record: a node whose
/// epoch does not fit stays on the node path ([`HotStore::promote`] rejects
/// it), which is a correctness-preserving demotion — and would take over a
/// century of millisecond-long cycles to reach. Per-slot state the exchange
/// does *not* touch (cycle position, local value) lives in parallel arrays
/// read only by the engine's sequential end-of-cycle pass.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(16))]
pub struct HotSlot {
    /// Running approximation of the default instance.
    pub state: f64,
    /// Current epoch, or [`COLD`].
    pub key: u32,
    /// Exchanges completed by the default instance this epoch.
    pub exchanges: u32,
}

impl HotSlot {
    /// A cold record.
    pub const fn cold() -> Self {
        HotSlot {
            state: 0.0,
            key: COLD,
            exchanges: 0,
        }
    }

    /// Whether the record currently is its node.
    #[inline]
    pub fn is_hot(&self) -> bool {
        self.key != COLD
    }
}

/// One shard's struct-of-arrays node store, indexed by arena slot.
#[derive(Debug, Default)]
pub struct HotStore {
    /// Hot records, [`COLD`]-keyed where the occupant is node-represented.
    pub slots: Vec<HotSlot>,
    /// Cycles completed in the occupant's current epoch. Per-slot because
    /// hot nodes need not share an epoch position: a node that once jumped
    /// epochs completes them offset from the crowd forever after. Split out
    /// of [`HotSlot`] because only the end-of-cycle pass reads it.
    pub cycles: Vec<u32>,
    /// Per-slot local value of the occupant; an epoch restart sets the
    /// record's state to `kind.init_value(local)`. Valid only while the
    /// matching record is hot (it is written on every promotion); the
    /// sharded engine never changes a node's local value.
    pub local: Vec<f64>,
}

impl HotStore {
    /// Grows the arrays to cover `slot`, cold-initialised.
    pub fn ensure_slot(&mut self, slot: u32) {
        let needed = slot as usize + 1;
        if self.slots.len() < needed {
            self.slots.resize(needed, HotSlot::cold());
            self.cycles.resize(needed, 0);
            self.local.resize(needed, 0.0);
        }
    }

    /// Marks `slot` cold (no-op for never-touched slots beyond the arrays).
    pub fn mark_cold(&mut self, slot: u32) {
        if let Some(record) = self.slots.get_mut(slot as usize) {
            record.key = COLD;
        }
    }

    /// The record at `slot` if it is hot.
    #[inline]
    pub fn hot(&self, slot: u32) -> Option<&HotSlot> {
        self.slots.get(slot as usize).filter(|r| r.is_hot())
    }

    /// The node-facing format of the hot record at `slot`.
    #[inline]
    pub fn view(&self, slot: u32) -> Option<HotView> {
        self.hot(slot).map(|record| HotView {
            state: record.state,
            epoch: u64::from(record.key),
            cycle_in_epoch: self.cycles[slot as usize],
            exchanges: record.exchanges,
        })
    }

    /// Installs a hot record and its local value at `slot`. Returns whether
    /// the snapshot was representable (epochs beyond `u32` stay on the node
    /// path, and the slot is left cold).
    #[inline]
    pub fn promote(&mut self, slot: u32, view: HotView, local: f64) -> bool {
        if view.epoch >= u64::from(COLD) {
            self.mark_cold(slot);
            return false;
        }
        self.ensure_slot(slot);
        self.slots[slot as usize] = HotSlot {
            state: view.state,
            key: view.epoch as u32,
            exchanges: view.exchanges,
        };
        self.cycles[slot as usize] = view.cycle_in_epoch;
        self.local[slot as usize] = local;
        true
    }

    /// Disjoint mutable borrows of two distinct slots.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either slot is out of bounds (the engine only
    /// pairs verified-live, distinct endpoints).
    #[inline]
    pub fn pair_mut(&mut self, a: u32, b: u32) -> (&mut HotSlot, &mut HotSlot) {
        let (a, b) = (a as usize, b as usize);
        debug_assert_ne!(a, b);
        if a < b {
            let (lo, hi) = self.slots.split_at_mut(b);
            (&mut lo[a], &mut hi[0])
        } else {
            let (lo, hi) = self.slots.split_at_mut(a);
            (&mut hi[0], &mut lo[b])
        }
    }
}

/// Maps a raw word onto `[0, span)` — the vendored `rand`'s widening-multiply
/// `gen_range` arithmetic, verbatim.
#[inline]
pub fn index_from_word(word: u64, span: usize) -> usize {
    ((u128::from(word) * span as u128) >> 64) as usize
}

/// Maps a raw word onto a probability-`p` coin — the vendored `rand`'s
/// `gen_bool` arithmetic (53-bit mantissa float in `[0, 1)`), verbatim.
#[inline]
pub fn coin_from_word(word: u64, p: f64) -> bool {
    ((word >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
}

/// A block-buffered word stream over a `StdRng`.
///
/// Words come out in exactly the order `rng.next_u64()` produces them; the
/// buffer merely front-loads the draws so the consuming loop runs branch-light
/// and the generator state stays register-resident across a block. Callers may
/// leave words unconsumed only when the underlying stream is discarded
/// afterwards (the sharded engine's per-cycle schedule stream is).
#[derive(Debug)]
pub struct WordBuffer {
    buf: Vec<u64>,
    pos: usize,
}

impl WordBuffer {
    /// Buffered draws per refill.
    const BLOCK: usize = 1024;

    /// An empty buffer (first `next` refills).
    pub fn new() -> Self {
        WordBuffer {
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// The next word of the stream.
    #[inline]
    pub fn next(&mut self, rng: &mut StdRng) -> u64 {
        if self.pos == self.buf.len() {
            self.refill(rng);
        }
        let word = self.buf[self.pos];
        self.pos += 1;
        word
    }

    fn refill(&mut self, rng: &mut StdRng) {
        self.buf.resize(Self::BLOCK, 0);
        for slot in self.buf.iter_mut() {
            *slot = rng.next_u64();
        }
        self.pos = 0;
    }
}

impl Default for WordBuffer {
    fn default() -> Self {
        WordBuffer::new()
    }
}

/// In-place Fisher–Yates shuffle, bit-identical to the vendored
/// `SliceRandom::shuffle` (the swap sequence depends only on the drawn words
/// and the length, never on the element type or values), with the draws
/// pre-computed per block so the random `order[j]` accesses are touched ahead
/// of the swaps and their cache misses overlap. At 10⁷ entries the order
/// array is tens of MB — far beyond LLC — and the descending sequential
/// `order[i]` side streams while the random `j` side becomes a batch of
/// independent loads instead of a serial miss chain.
pub fn shuffle_batched<T: Copy + Into<u64>>(order: &mut [T], rng: &mut StdRng) {
    const BLOCK: usize = 64;
    let len = order.len();
    if len < 2 {
        return;
    }
    let mut words = [0u64; BLOCK];
    let mut js = [0usize; BLOCK];
    // The sequential loop is `for i in (1..len).rev() { j = gen_range(0..=i) }`;
    // each block handles iterations i, i-1, …, i-count+1 with words drawn in
    // that same order, so the word→iteration mapping is unchanged.
    let mut i = len - 1;
    loop {
        let count = BLOCK.min(i);
        for word in words.iter_mut().take(count) {
            *word = rng.next_u64();
        }
        let mut touch = 0u64;
        for k in 0..count {
            let span = (i - k) as u128 + 1;
            let j = ((u128::from(words[k]) * span) >> 64) as usize;
            js[k] = j;
            // Warm the line; the swap below then hits cache. Swaps cannot
            // invalidate this: j depends only on the words, never the data.
            touch ^= order[j].into();
        }
        std::hint::black_box(touch);
        for (k, &j) in js.iter().enumerate().take(count) {
            order.swap(i - k, j);
        }
        if i == count {
            return;
        }
        i -= count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[test]
    fn shuffle_batched_is_bit_identical_to_slice_random_shuffle() {
        for len in [0usize, 1, 2, 3, 63, 64, 65, 100, 1000, 4096] {
            for seed in [0u64, 7, 20040102, u64::MAX] {
                let mut reference: Vec<u32> = (0..len as u32).collect();
                let mut batched = reference.clone();
                reference.shuffle(&mut StdRng::seed_from_u64(seed));
                shuffle_batched(&mut batched, &mut StdRng::seed_from_u64(seed));
                assert_eq!(reference, batched, "len {len} seed {seed}");
            }
        }
    }

    #[test]
    fn shuffle_batched_swap_sequence_is_element_type_independent() {
        // The engine shuffles u64 entries carrying (position << 32 | payload);
        // the permutation applied must be exactly the permutation a u32
        // position shuffle under the same seed produces.
        for (len, seed) in [(100usize, 3u64), (4096, 77)] {
            let mut positions: Vec<u32> = (0..len as u32).collect();
            let mut entries: Vec<u64> = (0..len as u64).map(|i| (i << 32) | (i ^ 0xABCD)).collect();
            shuffle_batched(&mut positions, &mut StdRng::seed_from_u64(seed));
            shuffle_batched(&mut entries, &mut StdRng::seed_from_u64(seed));
            for (pos, entry) in positions.iter().zip(&entries) {
                assert_eq!(u64::from(*pos), entry >> 32);
                assert_eq!(entry & 0xFFFF_FFFF, u64::from(*pos) ^ 0xABCD);
            }
        }
    }

    #[test]
    fn word_buffer_replays_the_rng_stream_in_order() {
        let mut direct = StdRng::seed_from_u64(99);
        let mut buffered_rng = StdRng::seed_from_u64(99);
        let mut buffer = WordBuffer::new();
        // Cross several refills.
        for _ in 0..(WordBuffer::BLOCK * 3 + 17) {
            assert_eq!(direct.next_u64(), buffer.next(&mut buffered_rng));
        }
    }

    #[test]
    fn index_from_word_matches_gen_range() {
        // Feed identical words through both by replaying the same rng.
        for span in [2usize, 3, 10, 1_000_000, usize::MAX >> 12] {
            let mut a = StdRng::seed_from_u64(5);
            let mut b = StdRng::seed_from_u64(5);
            for _ in 0..100 {
                assert_eq!(a.gen_range(0..span), index_from_word(b.next_u64(), span));
            }
        }
    }

    #[test]
    fn coin_from_word_matches_gen_bool() {
        for p in [0.0, 0.05, 0.5, 0.999, 1.0] {
            let mut a = StdRng::seed_from_u64(11);
            let mut b = StdRng::seed_from_u64(11);
            for _ in 0..200 {
                assert_eq!(a.gen_bool(p), coin_from_word(b.next_u64(), p));
            }
        }
    }

    #[test]
    fn hot_slot_is_one_sixteenth_of_four_lines() {
        // The whole point of the record: 16 bytes, 16-aligned, so a random
        // endpoint access costs exactly one cache line.
        assert_eq!(std::mem::size_of::<HotSlot>(), 16);
        assert_eq!(std::mem::align_of::<HotSlot>(), 16);
    }

    #[test]
    fn sharded_slot_keeps_no_node_resident() {
        // Per slot the sharded engine keeps the arena slot (a generation and
        // an empty node box while hot), the record, and the `cycles` and
        // `local` columns. A `ProtocolNode` back in the slot adds ≥ 144 B.
        let arena = crate::sharded::ShardArena::SLOT_BYTES;
        assert!(arena <= 24, "arena slot {arena} B");
        let mut store = HotStore::default();
        store.ensure_slot(0);
        let columns = std::mem::size_of_val(&store.slots[..])
            + std::mem::size_of_val(&store.cycles[..])
            + std::mem::size_of_val(&store.local[..]);
        assert_eq!(columns, 16 + 4 + 8);
        assert!(arena + columns <= 52);
    }

    #[test]
    fn hot_store_promote_view_roundtrip_and_pairing() {
        let mut store = HotStore::default();
        let view = HotView {
            state: 2.5,
            epoch: 4,
            cycle_in_epoch: 3,
            exchanges: 9,
        };
        assert!(store.promote(7, view, 1.25));
        assert!(store.hot(7).is_some());
        assert_eq!(store.hot(3), None);
        assert_eq!(store.view(7), Some(view));
        assert_eq!(store.view(3), None);
        assert_eq!(store.local[7], 1.25);
        // An epoch beyond u32 is not representable: the slot stays cold and
        // the occupant stays on the node path.
        assert!(!store.promote(
            5,
            HotView {
                state: 1.0,
                epoch: u64::from(COLD) + 3,
                cycle_in_epoch: 0,
                exchanges: 0,
            },
            1.0,
        ));
        assert_eq!(store.hot(5), None);
        assert!(store.promote(
            2,
            HotView {
                state: -1.0,
                epoch: 4,
                cycle_in_epoch: 0,
                exchanges: 0,
            },
            -1.0,
        ));
        let (a, b) = store.pair_mut(7, 2);
        assert_eq!(a.state, 2.5);
        assert_eq!(b.state, -1.0);
        let (b2, a2) = store.pair_mut(2, 7);
        assert_eq!(b2.state, -1.0);
        assert_eq!(a2.state, 2.5);
        store.mark_cold(7);
        assert_eq!(store.hot(7), None);
        // Beyond the arrays: cold by definition, mark_cold is a no-op.
        store.mark_cold(1_000);
        assert_eq!(store.hot(1_000), None);
    }
}
