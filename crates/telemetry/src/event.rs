//! The structured event schema shared by all four runtimes.
//!
//! One [`Event`] is a compact record of one protocol-visible occurrence —
//! an exchange beginning or completing, a message lost, a node joining,
//! an epoch restarting — stamped with the cycle it happened in, the
//! injected-clock time and a sequence key. Every runtime
//! (`GossipSimulation`, `ShardedSimulation`, `VirtualCluster`, the live
//! `GossipRuntime`) emits this one schema, so traces from different
//! engines can be read, merged and summarized by the same tools.
//!
//! ## Merge order
//!
//! A canonical trace is ordered on [`Event::sort_key`]: `(cycle, phase,
//! seq, rank, payload, time)`. The *phase* groups events within a cycle into
//! cycle-start (churn, corruption), veto, exchange and cycle-end (epoch
//! restarts, elections) bands; within the exchange band the global exchange
//! sequence number `seq` — identical across shard counts by the sharded
//! engine's schedule construction — provides the total order, and the rank
//! orders begun < lost < completed within one exchange. The injected-clock
//! time breaks the last ties: the live runtime's per-node ordinals can give
//! two nodes' events the same key otherwise. Every field of an event is in
//! its key, so equal keys mean equal events, and the merged trace of a
//! seeded run is byte-identical across repeats and shard counts.
//!
//! The cycle runtimes record in key order into one ring, with the veto band
//! in a ring of its own, so a drain usually hands that ring over as it is.
//! The live runtime records one ring per node, not in key order; its traces
//! meet in [`merge_events`], which merges sorted runs rather than sorting
//! their union.

/// Sentinel for "no node attached to this event".
pub const NO_NODE: u64 = u64::MAX;

/// What happened. Node fields carry whatever identifier the recording
/// runtime uses consistently: global directory positions in the sharded
/// engine (shard-count invariant), arena slots in the reference engine and
/// `VirtualCluster`, raw `NodeId`s in the live runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A node joined the network.
    NodeJoined {
        /// Identifier of the joining node.
        node: u64,
    },
    /// A node departed or crashed.
    NodeDeparted {
        /// Identifier of the departing node.
        node: u64,
    },
    /// The fault lab or an adversary overwrote a node's state.
    ValueCorrupted {
        /// Identifier of the corrupted node.
        node: u64,
    },
    /// A scheduled exchange was vetoed by a dead link before it started.
    ExchangeVetoed {
        /// Identifier of the initiating node.
        initiator: u64,
        /// Identifier of the unreachable peer.
        peer: u64,
    },
    /// An exchange survived the veto pass and was scheduled; `seq` is its
    /// global sequence number.
    ExchangeBegun {
        /// Identifier of the initiating node.
        initiator: u64,
        /// Identifier of the contacted peer.
        peer: u64,
    },
    /// The loss model dropped one message of exchange `seq`.
    MessageLost,
    /// Every message of exchange `seq` survived and the initiator absorbed
    /// the replies. (In the live runtime: the initiator received a reply
    /// before its timeout.)
    MessageDelivered,
    /// Exchange `seq` completed loss-free end to end.
    ExchangeCompleted,
    /// The live runtime rejected an overlapping incoming exchange.
    ExchangeRejected {
        /// Identifier of the rejecting node.
        node: u64,
    },
    /// An epoch completed and the protocol restarted into the next one.
    EpochRestarted {
        /// The epoch that just completed.
        epoch: u64,
    },
    /// A node elected itself (or was promoted) leader of a counting
    /// instance at an epoch boundary.
    LeaderElected {
        /// Identifier of the elected leader.
        node: u64,
    },
}

impl EventKind {
    /// The within-cycle band this kind sorts into (see the module docs).
    pub fn phase(&self) -> u8 {
        match self {
            EventKind::NodeJoined { .. }
            | EventKind::NodeDeparted { .. }
            | EventKind::ValueCorrupted { .. } => 0,
            EventKind::ExchangeVetoed { .. } => 1,
            EventKind::ExchangeBegun { .. }
            | EventKind::MessageLost
            | EventKind::MessageDelivered
            | EventKind::ExchangeCompleted
            | EventKind::ExchangeRejected { .. } => 2,
            EventKind::EpochRestarted { .. } | EventKind::LeaderElected { .. } => 3,
        }
    }

    /// Order of kinds sharing one `(cycle, phase, seq)` key.
    pub fn rank(&self) -> u8 {
        match self {
            EventKind::NodeDeparted { .. } => 0,
            EventKind::NodeJoined { .. } => 1,
            EventKind::ValueCorrupted { .. } => 2,
            EventKind::ExchangeVetoed { .. } => 0,
            EventKind::ExchangeBegun { .. } => 0,
            EventKind::MessageLost => 1,
            EventKind::MessageDelivered => 2,
            EventKind::ExchangeCompleted => 3,
            EventKind::ExchangeRejected { .. } => 4,
            EventKind::EpochRestarted { .. } => 0,
            EventKind::LeaderElected { .. } => 1,
        }
    }

    /// The wire name used in the JSONL export.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::NodeJoined { .. } => "node_joined",
            EventKind::NodeDeparted { .. } => "node_departed",
            EventKind::ValueCorrupted { .. } => "value_corrupted",
            EventKind::ExchangeVetoed { .. } => "exchange_vetoed",
            EventKind::ExchangeBegun { .. } => "exchange_begun",
            EventKind::MessageLost => "message_lost",
            EventKind::MessageDelivered => "message_delivered",
            EventKind::ExchangeCompleted => "exchange_completed",
            EventKind::ExchangeRejected { .. } => "exchange_rejected",
            EventKind::EpochRestarted { .. } => "epoch_restarted",
            EventKind::LeaderElected { .. } => "leader_elected",
        }
    }

    /// The payload pair used as the sort-key tiebreaker.
    fn payload(&self) -> (u64, u64) {
        match *self {
            EventKind::NodeJoined { node }
            | EventKind::NodeDeparted { node }
            | EventKind::ValueCorrupted { node }
            | EventKind::ExchangeRejected { node }
            | EventKind::LeaderElected { node } => (node, NO_NODE),
            EventKind::ExchangeVetoed { initiator, peer }
            | EventKind::ExchangeBegun { initiator, peer } => (initiator, peer),
            EventKind::EpochRestarted { epoch } => (epoch, NO_NODE),
            EventKind::MessageLost | EventKind::MessageDelivered | EventKind::ExchangeCompleted => {
                (NO_NODE, NO_NODE)
            }
        }
    }
}

/// One flight-recorder record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The protocol cycle the event happened in.
    pub cycle: u64,
    /// Injected-clock timestamp in milliseconds (virtual time in the
    /// simulators and `VirtualCluster`, wall time in the live runtime —
    /// never read from a wall clock inside protocol crates).
    pub time_ms: u64,
    /// Sequence key within the cycle: the global exchange sequence number
    /// for exchange-band events, a recorder-assigned ordinal otherwise.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The key [`Event::sort_key`] returns.
pub type SortKey = (u64, u8, u64, u8, u64, u64, u64);

impl Event {
    /// The canonical total-order key (see the module docs on merge order).
    pub fn sort_key(&self) -> SortKey {
        let (a, b) = self.kind.payload();
        (
            self.cycle,
            self.kind.phase(),
            self.seq,
            self.kind.rank(),
            a,
            b,
            self.time_ms,
        )
    }

    /// Whether `self` sorts before `next` or ties with it, by
    /// [`sort_key`](Self::sort_key): the prefix `(cycle, phase, seq, rank)`
    /// decides almost every pair, so the rest of the key is compared only
    /// when it ties.
    #[inline]
    pub(crate) fn precedes(&self, next: &Event) -> bool {
        let prefix = |e: &Event| (e.cycle, e.kind.phase(), e.seq, e.kind.rank());
        prefix(self) < prefix(next) || self.sort_key() <= next.sort_key()
    }
}

/// Merges per-shard / per-node event batches into the canonical trace
/// order of [`Event::sort_key`]. The result is independent of how the
/// events were distributed across recorders, which is what makes merged
/// traces bit-identical across shard counts.
///
/// Batches already in key order are merged as they are, in O(E log k) for
/// E events in k batches; should the merge meet a batch out of order, every
/// batch is sorted and merged again.
pub fn merge_events(batches: impl IntoIterator<Item = Vec<Event>>) -> Vec<Event> {
    let mut batches: Vec<Vec<Event>> = batches.into_iter().collect();
    merge_runs(
        &mut batches
            .iter_mut()
            .map(Vec::as_mut_slice)
            .collect::<Vec<_>>(),
    )
}

/// Merges `runs` into one trace in key order, in O(E log k) for E events in
/// k runs. The cycle runtimes' rings are in key order — a sink's exchange
/// ring and its veto ring — so the runs are merged as they are, and the
/// merge itself notices a run out of order (a live node's ring). Only then
/// is every run sorted in place and the merge done again.
pub(crate) fn merge_runs(runs: &mut [&mut [Event]]) -> Vec<Event> {
    let mut merged = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
    if !merge_into(runs, &mut merged) {
        merged.clear();
        for run in runs.iter_mut() {
            run.sort_unstable_by_key(Event::sort_key);
        }
        merge_into(runs, &mut merged);
    }
    debug_assert!(
        merged
            .windows(2)
            .all(|w| w[0].sort_key() <= w[1].sort_key()),
        "a merge of sorted runs is sorted"
    );
    merged
}

/// A run's head in the merge: `(exhausted, key)`, so an exhausted run
/// orders after every run that still has events.
type Head = (bool, SortKey);

/// The head of a run with no events left.
const EXHAUSTED: Head = (true, (0, 0, 0, 0, 0, 0, 0));

/// Appends the loser-tree merge of `runs` to `merged` and returns whether
/// it came out in key order, which it does exactly when every run is.
///
/// The tree is a tournament over the runs' heads: leaf `i` (run `i`) is
/// node `k + i`, node `n`'s parent is `n / 2`, and each inner node keeps
/// the loser of the match played there. Replacing the winner's head then
/// replays only its own path to the root: ⌈log₂ k⌉ comparisons an event.
fn merge_into(runs: &[&mut [Event]], merged: &mut Vec<Event>) -> bool {
    let runs: Vec<&[Event]> = runs
        .iter()
        .map(|r| &**r)
        .filter(|r| !r.is_empty())
        .collect();
    let k = runs.len();
    if k == 0 {
        return true;
    }
    let head = |run: &[Event], at: usize| run.get(at).map_or(EXHAUSTED, |e| (false, e.sort_key()));
    let mut tree = vec![(EXHAUSTED, 0); 2 * k];
    for (i, run) in runs.iter().enumerate() {
        tree[k + i] = (head(run, 0), i);
    }
    // Play the opening tournament bottom-up: a match's winner moves up to
    // its parent's slot for now; its loser stays at the node.
    let mut winners = tree.clone();
    for n in (1..k).rev() {
        let (left, right) = (winners[2 * n], winners[2 * n + 1]);
        (winners[n], tree[n]) = if right.0 < left.0 {
            (right, left)
        } else {
            (left, right)
        };
    }
    let (mut winner, mut next) = (winners[1], vec![0; k]);
    let (mut in_order, mut last) = (true, SortKey::default());
    for _ in 0..runs.iter().map(|r| r.len()).sum::<usize>() {
        let ((_, key), run) = winner;
        in_order &= last <= key;
        last = key;
        let at = next[run];
        merged.push(runs[run][at]);
        next[run] = at + 1;
        winner = (head(runs[run], at + 1), run);
        let mut node = (k + run) / 2;
        while node > 0 {
            if tree[node].0 < winner.0 {
                std::mem::swap(&mut tree[node], &mut winner);
            }
            node /= 2;
        }
    }
    in_order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, seq: u64, kind: EventKind) -> Event {
        Event {
            cycle,
            time_ms: cycle * 10,
            seq,
            kind,
        }
    }

    #[test]
    fn phases_band_the_cycle() {
        assert!(
            EventKind::NodeDeparted { node: 1 }.phase()
                < EventKind::ExchangeVetoed {
                    initiator: 0,
                    peer: 1
                }
                .phase()
        );
        assert!(
            EventKind::ExchangeVetoed {
                initiator: 0,
                peer: 1
            }
            .phase()
                < EventKind::ExchangeBegun {
                    initiator: 0,
                    peer: 1
                }
                .phase()
        );
        assert!(
            EventKind::ExchangeCompleted.phase() < EventKind::EpochRestarted { epoch: 0 }.phase()
        );
    }

    #[test]
    fn precedes_is_the_sort_key_order() {
        let kinds = [
            EventKind::NodeJoined { node: 4 },
            EventKind::NodeDeparted { node: 4 },
            EventKind::ExchangeVetoed {
                initiator: 0,
                peer: 1,
            },
            EventKind::ExchangeBegun {
                initiator: 1,
                peer: 3,
            },
            EventKind::ExchangeBegun {
                initiator: 1,
                peer: 2,
            },
            EventKind::ExchangeBegun {
                initiator: 0,
                peer: 9,
            },
            EventKind::MessageLost,
            EventKind::ExchangeCompleted,
        ];
        let mut events = Vec::new();
        for cycle in 0..2 {
            for seq in 0..2 {
                for time_ms in [0, 5] {
                    events.extend(kinds.map(|kind| Event {
                        cycle,
                        time_ms,
                        seq,
                        kind,
                    }));
                }
            }
        }
        for a in &events {
            for b in &events {
                assert_eq!(a.precedes(b), a.sort_key() <= b.sort_key(), "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn merge_is_distribution_independent() {
        let a = vec![
            ev(
                0,
                0,
                EventKind::ExchangeBegun {
                    initiator: 3,
                    peer: 9,
                },
            ),
            ev(0, 0, EventKind::ExchangeCompleted),
            ev(
                1,
                1,
                EventKind::ExchangeBegun {
                    initiator: 4,
                    peer: 2,
                },
            ),
        ];
        let b = vec![
            ev(0, 1, EventKind::MessageLost),
            ev(
                0,
                1,
                EventKind::ExchangeBegun {
                    initiator: 7,
                    peer: 1,
                },
            ),
            ev(0, 0, EventKind::NodeDeparted { node: 5 }),
        ];
        let one_way = merge_events([a.clone(), b.clone()]);
        let other_way = merge_events([b, a]);
        assert_eq!(one_way, other_way);
        // Cycle-start band sorts first; within the exchange band, seq then
        // rank (begun before lost before completed).
        assert_eq!(one_way[0].kind, EventKind::NodeDeparted { node: 5 });
        assert_eq!(
            one_way[1].kind,
            EventKind::ExchangeBegun {
                initiator: 3,
                peer: 9
            }
        );
        assert_eq!(one_way[2].kind, EventKind::ExchangeCompleted);
        assert_eq!(
            one_way[3].kind,
            EventKind::ExchangeBegun {
                initiator: 7,
                peer: 1
            }
        );
        assert_eq!(one_way[4].kind, EventKind::MessageLost);
    }

    #[test]
    fn equal_keys_but_for_the_time_merge_in_time_order() {
        // Two live nodes' first completed exchanges of one cycle: per-node
        // ordinals give both seq 0, and only the wall time tells them apart.
        let at = |time_ms| Event {
            cycle: 3,
            time_ms,
            seq: 0,
            kind: EventKind::ExchangeCompleted,
        };
        let times = |events: Vec<Event>| events.iter().map(|e| e.time_ms).collect::<Vec<_>>();
        let (a, b) = (vec![at(3_007)], vec![at(3_001)]);
        assert_eq!(times(merge_events([a.clone(), b.clone()])), [3_001, 3_007]);
        assert_eq!(times(merge_events([b, a])), [3_001, 3_007]);
    }
}
