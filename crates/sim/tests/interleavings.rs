//! Why the sharded engine's block pipeline may batch its draws but must
//! apply exchanges in schedule order.
//!
//! The struct-of-arrays executor pre-draws a block's peer picks and loss
//! coins, then executes the block's exchanges over the dense hot store. A
//! permutation check over the fused merge pins the line between the two:
//! exchanges over disjoint slot pairs commute bitwise, while exchanges that
//! share an endpoint do not, so the execute stage keeps the schedule-time
//! sequence order.

use aggregate_core::{AggregateKind, ExchangeCore, ExchangeTally};
use gossip_sim::soa::{HotSlot, HotStore};

/// All permutations of `items` (Heap's algorithm).
fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    fn heap<T: Clone>(work: &mut Vec<T>, k: usize, out: &mut Vec<Vec<T>>) {
        if k <= 1 {
            out.push(work.clone());
            return;
        }
        for i in 0..k {
            heap(work, k - 1, out);
            if k % 2 == 0 {
                work.swap(i, k - 1);
            } else {
                work.swap(0, k - 1);
            }
        }
    }
    let mut work = items.to_vec();
    let mut out = Vec::new();
    let len = work.len();
    heap(&mut work, len, &mut out);
    out
}

/// A dense hot store with order-sensitive states: catastrophic-cancellation
/// magnitudes make every merge order observable in the low bits.
fn dense_store(states: &[f64]) -> HotStore {
    let mut store = HotStore::default();
    store.ensure_slot(states.len() as u32 - 1);
    for (slot, &state) in states.iter().enumerate() {
        store.slots[slot] = HotSlot {
            state,
            key: 0,
            exchanges: 0,
        };
    }
    store
}

/// Applies a schedule of fused exchanges to the dense store, in order, and
/// returns the resulting state/counter bit fingerprint.
fn apply_dense(store: &mut HotStore, schedule: &[(u32, u32)]) -> u64 {
    let mut tally = ExchangeTally::default();
    for &(a, b) in schedule {
        let (x, y) = store.pair_mut(a, b);
        ExchangeCore::exchange_fused_raw(
            AggregateKind::Average,
            &mut x.state,
            &mut x.exchanges,
            &mut y.state,
            &mut y.exchanges,
            &mut || false,
            &mut tally,
        );
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for record in &store.slots {
        for byte in record
            .state
            .to_bits()
            .to_le_bytes()
            .iter()
            .chain(u64::from(record.exchanges).to_le_bytes().iter())
        {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Model check over the struct-of-arrays fused merge (the executor's hot
/// path): exchanges touching **disjoint** slot pairs commute
/// bitwise — any permutation of them produces the identical dense store —
/// while exchanges **sharing** an endpoint do not, which is exactly why the
/// SoA pipeline resolves and applies its batched schedule in the
/// schedule-time sequence order.
#[test]
fn dense_fused_merge_commutes_exactly_for_disjoint_pairs_only() {
    let states = [1.0e16, 1.0, 0.1, 3.25, -7.5, 1.0e-3];

    // Disjoint pairs: every slot appears at most once per schedule.
    let disjoint = [(0u32, 3u32), (1, 4), (2, 5)];
    let reference = apply_dense(&mut dense_store(&states), &disjoint);
    for schedule in permutations(&disjoint) {
        let fp = apply_dense(&mut dense_store(&states), &schedule);
        assert_eq!(
            fp, reference,
            "disjoint fused exchanges must commute bitwise: {schedule:?}"
        );
    }

    // Overlapping pairs: slot 0 participates twice; at least one order must
    // diverge, or the seq-order discipline would be vacuous.
    let overlapping = [(0u32, 1u32), (0, 2), (3, 4)];
    let reference = apply_dense(&mut dense_store(&states), &overlapping);
    let diverged = permutations(&overlapping)
        .into_iter()
        .any(|schedule| apply_dense(&mut dense_store(&states), &schedule) != reference);
    assert!(
        diverged,
        "overlapping exchanges must be order-sensitive, or this test proves nothing"
    );
}
