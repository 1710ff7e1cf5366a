//! The sharded engine's node store — every live node's state in per-shard
//! columns indexed by arena slot — and the batched RNG of its fast path.
//!
//! At 10⁷ nodes the cost of a cycle is memory, not arithmetic, so the store
//! keeps what an exchange touches dense:
//!
//! * [`HotSlot`] — a 16-byte record per slot: the default instance's state
//!   and exchange count and, while the node is *hot* (participating, in its
//!   epoch since the first cycle, default instance only), its epoch. A fused
//!   exchange touches one cache line per endpoint.
//! * [`HotStore`] — the records plus each slot's cycle position and local
//!   value, which only the end-of-cycle pass reads.
//! * `Columns` — a shard's whole store: the [`HotStore`] plus what only a
//!   *cold* node needs (a joiner, a mid-epoch jumper, a node carrying led
//!   COUNT instances): its epoch, join wait and mid-epoch flag, one column
//!   each, and its led instances in one side table keyed by slot. A cold
//!   node runs [`NodeState`] over the columns, and the exchange kernel with
//!   it as the peer; going cold and hot again moves the epoch between the
//!   record's key and its column and allocates nothing per node.
//!   Correctness never depends on which nodes are hot: keeping everything
//!   cold merely loses the speed.
//! * [`shuffle_batched`] / [`WordBuffer`] / the draw mirrors — batched RNG:
//!   raw `u64` words are pre-drawn in blocks and mapped onto ranges/coins with
//!   the exact arithmetic of the vendored `rand` (`gen_range` is one
//!   `next_u64` + widening multiply, no rejection; `gen_bool` is one
//!   `next_u64` → 53-bit float compare), so the batched draws are bit-for-bit
//!   the draws the unbatched code makes. Unit tests below pin each mirror
//!   against the vendored implementation.

use aggregate_core::epoch::EpochManager;
use aggregate_core::node::{HotView, LedSlot, NodeState};
use aggregate_core::{InstanceTag, ProtocolConfig};
use rand::rngs::StdRng;
use rand::RngCore;

/// Sentinel in [`HotSlot::key`] marking a slot whose occupant (if any) is
/// cold: its epoch is in the cold columns, not in the record.
pub(crate) const COLD: u32 = u32::MAX;

/// A node's 16-byte, never-line-straddling record: the *only* state a fused
/// exchange touches.
///
/// `key` doubles as the hot flag (`COLD`, `u32::MAX`) and, when hot, the node's current
/// epoch — the fused-exchange precondition "both hot, same epoch" is a single
/// compare. Epochs are kept as `u32` here to halve the record: a node whose
/// epoch does not fit stays cold ([`HotStore::promote`] rejects it), which
/// is correct, only slower — and would take over a century of
/// millisecond-long cycles to reach.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(16))]
pub struct HotSlot {
    /// Running approximation of the default instance, hot or cold.
    pub state: f64,
    /// Current epoch, or `COLD`.
    pub key: u32,
    /// Exchanges completed by the default instance this epoch, hot or cold.
    pub exchanges: u32,
}

impl HotSlot {
    /// A cold record.
    pub(crate) const fn cold() -> Self {
        HotSlot {
            state: 0.0,
            key: COLD,
            exchanges: 0,
        }
    }

    /// Whether the record holds its node's epoch (the node is hot).
    #[inline]
    pub(crate) fn is_hot(&self) -> bool {
        self.key != COLD
    }
}

/// One shard's struct-of-arrays records, indexed by arena slot.
#[derive(Debug, Default)]
pub struct HotStore {
    /// Records, `COLD`-keyed where the occupant is cold.
    pub slots: Vec<HotSlot>,
    /// Cycles completed in the occupant's current epoch. Per-slot because
    /// hot nodes need not share an epoch position: a node that once jumped
    /// epochs completes them offset from the crowd forever after. Split out
    /// of [`HotSlot`] because only the end-of-cycle pass reads it.
    pub(crate) cycles: Vec<u32>,
    /// Per-slot local value of the occupant; an epoch restart sets the
    /// record's state to `kind.init_value(local)`. The sharded engine never
    /// changes a node's local value.
    pub(crate) local: Vec<f64>,
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

    /// Marks `slot` cold, keeping its state (no-op for never-touched slots
    /// beyond the arrays).
    pub(crate) fn mark_cold(&mut self, slot: u32) {
        if let Some(record) = self.slots.get_mut(slot as usize) {
            record.key = COLD;
        }
    }

    /// The record at `slot` if it is hot.
    #[inline]
    pub(crate) fn hot(&self, slot: u32) -> Option<&HotSlot> {
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
    /// the snapshot was representable (an epoch beyond `u32` leaves the slot
    /// cold).
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

/// A shard's led instances: slot `s` holds `len[s]` of them, sorted by tag,
/// at `slots[s * stride..]`. A run outgrowing the stride doubles it for all,
/// so the table allocates a handful of times a run, never per node.
#[derive(Debug, Default)]
struct LedTable {
    stride: usize,
    slots: Vec<LedSlot>,
    len: Vec<u32>,
}

impl LedTable {
    fn range(&self, slot: u32) -> std::ops::Range<usize> {
        let (at, len) = (slot as usize * self.stride, self.len.get(slot as usize));
        at..at + len.map_or(0, |&len| len as usize)
    }

    fn run(&self, slot: u32) -> &[LedSlot] {
        self.slots.get(self.range(slot)).unwrap_or_default()
    }

    fn run_mut(&mut self, slot: u32) -> &mut [LedSlot] {
        let range = self.range(slot);
        self.slots.get_mut(range).unwrap_or_default()
    }

    fn clear(&mut self, slot: u32) {
        if let Some(len) = self.len.get_mut(slot as usize) {
            *len = 0;
        }
    }

    /// Inserts `led` at `index` of `slot`'s run.
    fn insert(&mut self, slot: u32, index: usize, led: LedSlot) {
        let (s, fill) = (slot as usize, LedSlot::new(InstanceTag::DEFAULT, 0.0));
        if self.len.len() <= s {
            self.len.resize(s + 1, 0);
        }
        let len = self.len[s] as usize;
        if len == self.stride {
            let stride = (2 * self.stride).max(1);
            let mut slots = vec![fill; self.len.len() * stride];
            for (s, &len) in self.len.iter().enumerate() {
                let run = self.range(s as u32);
                slots[s * stride..][..len as usize].copy_from_slice(&self.slots[run]);
            }
            (self.slots, self.stride) = (slots, stride);
        }
        if self.slots.len() < (s + 1) * self.stride {
            self.slots.resize((s + 1) * self.stride, fill);
        }
        let run = &mut self.slots[s * self.stride..][..=len];
        run.copy_within(index..len, index + 1);
        run[index] = led;
        self.len[s] += 1;
    }
}

/// One shard's node store, indexed by arena slot (see the module
/// documentation). `epoch`, `wait` (cycles before the node may initiate)
/// and `mid` (entered its epoch part-way) are read only while the record is
/// cold; a hot node waits for nothing, was in its epoch from the start and
/// carries no led instance.
#[derive(Debug)]
pub(crate) struct Columns {
    /// The records, cycle positions and local values.
    pub(crate) hot: HotStore,
    epoch: Vec<u64>,
    wait: Vec<u32>,
    mid: Vec<bool>,
    led: LedTable,
    protocol: ProtocolConfig,
}

impl Columns {
    /// An empty store for nodes running `protocol`.
    pub(crate) fn new(protocol: ProtocolConfig) -> Self {
        Columns {
            hot: HotStore::default(),
            epoch: Vec::new(),
            wait: Vec::new(),
            mid: Vec::new(),
            led: LedTable::default(),
            protocol,
        }
    }

    /// Installs a node present from the start of epoch 0 at `slot`: hot.
    pub(crate) fn insert_initial(&mut self, slot: u32, local: f64) {
        let view = HotView {
            state: self.protocol.aggregate().init_value(local),
            epoch: 0,
            cycle_in_epoch: 0,
            exchanges: 0,
        };
        self.hot.promote(slot, view, local);
    }

    /// Installs a joiner at `slot`, cold, waiting `wait` cycles for
    /// `next_epoch` (`ProtocolNode::joining`).
    pub(crate) fn insert_joiner(&mut self, slot: u32, local: f64, next_epoch: u64, wait: u32) {
        self.insert_initial(slot, local);
        self.hot.mark_cold(slot);
        let cycles = self.protocol.cycles_per_epoch();
        self.set_epochs(slot, EpochManager::joining(cycles, next_epoch, wait));
        self.led.clear(slot);
    }

    /// The epoch machinery of the node at `slot`.
    pub(crate) fn epochs(&self, slot: u32) -> EpochManager {
        let (s, cycles) = (slot as usize, self.protocol.cycles_per_epoch());
        let at = self.hot.cycles[s];
        match self.hot.hot(slot) {
            Some(record) => EpochManager::from_parts(cycles, record.key.into(), at, 0, false),
            None => EpochManager::from_parts(cycles, self.epoch[s], at, self.wait[s], self.mid[s]),
        }
    }

    /// Writes the epoch machinery of the cold node at `slot`.
    pub(crate) fn set_epochs(&mut self, slot: u32, epochs: EpochManager) {
        let s = slot as usize;
        if self.epoch.len() <= s {
            self.epoch.resize(s + 1, 0);
            self.wait.resize(s + 1, 0);
            self.mid.resize(s + 1, false);
        }
        self.epoch[s] = epochs.current_epoch();
        self.hot.cycles[s] = epochs.cycle_in_epoch();
        self.wait[s] = epochs.waiting_cycles();
        self.mid[s] = epochs.entered_mid_epoch();
    }

    /// Takes the node at `slot` off the fused path: its epoch moves from the
    /// record's key into its column.
    fn cool(&mut self, slot: u32) {
        if self.hot.hot(slot).is_some() {
            let epochs = self.epochs(slot);
            self.hot.mark_cold(slot);
            self.set_epochs(slot, epochs);
        }
    }

    /// Puts the cold node at `slot` back on the fused path if it is hot
    /// again and its epoch fits the record.
    pub(crate) fn reheat(&mut self, slot: u32) {
        let epochs = self.epochs(slot);
        let hot = epochs.participated_from_epoch_start() && self.led.run(slot).is_empty();
        if hot && epochs.current_epoch() < u64::from(COLD) {
            self.hot.slots[slot as usize].key = epochs.current_epoch() as u32;
        }
    }

    /// The default-instance estimate of the node at `slot`.
    pub(crate) fn estimate(&self, slot: u32) -> f64 {
        let kind = self.protocol.aggregate();
        kind.estimate_value(self.hot.slots[slot as usize].state)
    }

    /// The initiator's side of a kernel exchange, copied out (its epoch and
    /// record, its led instances into `led`) so that the peer's side may
    /// borrow these columns. `None` while it waits for its first epoch.
    pub(crate) fn initiator(&self, slot: u32, led: &mut Vec<LedSlot>) -> Option<(u64, HotSlot)> {
        let epochs = self.epochs(slot);
        if !epochs.can_participate() {
            return None;
        }
        led.clear();
        led.extend_from_slice(self.led.run(slot));
        Some((epochs.current_epoch(), self.hot.slots[slot as usize]))
    }

    /// Writes back what the kernel changed on the initiator at `slot`.
    pub(crate) fn write_back(&mut self, slot: u32, record: HotSlot, led: &[LedSlot]) {
        self.hot.slots[slot as usize] = record;
        self.led.run_mut(slot).copy_from_slice(led);
    }

    /// The node at `slot`, which goes cold, as a [`NodeState`] over these
    /// columns: the kernel's peer, a leader's start, a capture, the cold
    /// tick. [`Columns::reheat`] may promote it afterwards.
    pub(crate) fn node(&mut self, slot: u32) -> ColumnNode<'_> {
        self.cool(slot);
        ColumnNode { cols: self, slot }
    }
}

/// A cold node in its [`Columns`].
#[derive(Debug)]
pub(crate) struct ColumnNode<'a> {
    cols: &'a mut Columns,
    slot: u32,
}

impl NodeState for ColumnNode<'_> {
    fn protocol(&self) -> ProtocolConfig {
        self.cols.protocol
    }

    fn local(&self) -> f64 {
        self.cols.hot.local[self.slot as usize]
    }

    fn epochs(&self) -> EpochManager {
        self.cols.epochs(self.slot)
    }

    fn set_epochs(&mut self, epochs: EpochManager) {
        self.cols.set_epochs(self.slot, epochs);
    }

    fn default_state(&mut self) -> (&mut f64, &mut u32) {
        let record = &mut self.cols.hot.slots[self.slot as usize];
        (&mut record.state, &mut record.exchanges)
    }

    fn led(&mut self) -> &mut [LedSlot] {
        self.cols.led.run_mut(self.slot)
    }

    fn insert_led(&mut self, index: usize, slot: LedSlot) {
        self.cols.led.insert(self.slot, index, slot);
    }

    fn clear_led(&mut self) {
        self.cols.led.clear(self.slot);
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
    use aggregate_core::ProtocolNode;
    use overlay_topology::NodeId;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    impl Columns {
        /// The node at `slot` as a `ProtocolNode` with identifier `id`: what
        /// the differential tests compare the columns with.
        pub(crate) fn snapshot(&self, slot: u32, id: NodeId) -> ProtocolNode {
            let (record, local) = (self.hot.slots[slot as usize], self.hot.local[slot as usize]);
            let (epochs, led) = (self.epochs(slot), self.led.run(slot));
            let (state, exchanges) = (record.state, record.exchanges);
            ProtocolNode::from_parts(id, self.protocol, local, epochs, state, exchanges, led)
        }
    }

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
        // a liveness flag, in columns of their own), the record, and the
        // `cycles` and `local` columns; a slot that was never cold has no
        // cold column.
        let arena = crate::sharded::ShardArena::SLOT_BYTES;
        assert!(arena <= 5, "arena slot {arena} B");
        let mut cols = Columns::new(ProtocolConfig::default());
        cols.insert_initial(0, 1.0);
        let store = &cols.hot;
        let columns = std::mem::size_of_val(&store.slots[..])
            + std::mem::size_of_val(&store.cycles[..])
            + std::mem::size_of_val(&store.local[..]);
        assert_eq!(columns, 16 + 4 + 8);
        assert!(arena + columns <= 33);
        assert!(cols.epoch.is_empty() && cols.led.len.is_empty());
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
        // the occupant stays cold.
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
