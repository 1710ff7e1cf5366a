//! Epoch management: termination, restart and join handling (Section 4).
//!
//! The basic protocol converges but never terminates; to make it adaptive the
//! paper divides execution into consecutive *epochs*. Every node runs the
//! protocol for a fixed number of cycles per epoch, then restarts it from its
//! (possibly changed) local value. Messages are tagged with the epoch
//! identifier; receiving a message from a later epoch makes the node jump
//! forward immediately, so a new epoch spreads through the network like an
//! epidemic broadcast. Nodes that join mid-epoch are told the identifier of
//! the *next* epoch and how long to wait for it, and stay passive until then —
//! this is what keeps each epoch's result exact with respect to the
//! membership at the epoch's start.

/// What happened to the epoch state as a result of a cycle tick or a received
/// message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EpochTransition {
    /// The node stayed in the same epoch.
    None,
    /// The node finished its quota of cycles and moved to the next epoch.
    Completed {
        /// The epoch that just finished.
        finished: u64,
        /// The epoch that is now current.
        current: u64,
    },
    /// The node jumped forward because it observed a message from a later
    /// epoch.
    Jumped {
        /// The epoch the node was in before the jump.
        from: u64,
        /// The epoch that is now current.
        to: u64,
    },
}

/// Tracks which epoch a node is in and how far through it the node has
/// progressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochManager {
    current_epoch: u64,
    cycle_in_epoch: u32,
    cycles_per_epoch: u32,
    /// Cycles this node must still wait before it may participate (join rule).
    waiting_cycles: u32,
    /// The current epoch was entered part-way through (epoch jump), so this
    /// node's converged estimate for it is not trustworthy.
    entered_mid_epoch: bool,
}

impl EpochManager {
    /// Creates a manager for a node present from the very start of
    /// `start_epoch`, advancing every `cycles_per_epoch` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_epoch` is zero.
    pub fn new(cycles_per_epoch: u32, start_epoch: u64) -> Self {
        assert!(cycles_per_epoch > 0, "cycles_per_epoch must be positive");
        EpochManager {
            current_epoch: start_epoch,
            cycle_in_epoch: 0,
            cycles_per_epoch,
            waiting_cycles: 0,
            entered_mid_epoch: false,
        }
    }

    /// Creates a manager for a node that *joins* an existing network.
    ///
    /// The contacted node reports the identifier of the next epoch and the
    /// number of cycles left until it starts; the joining node stays passive
    /// for that long (Section 4's join protocol: "the node will start to
    /// actively participate in the aggregation protocol after the specified
    /// units of time").
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_epoch` is zero.
    pub fn joining(cycles_per_epoch: u32, next_epoch: u64, cycles_until_start: u32) -> Self {
        assert!(cycles_per_epoch > 0, "cycles_per_epoch must be positive");
        EpochManager {
            current_epoch: next_epoch,
            cycle_in_epoch: 0,
            cycles_per_epoch,
            waiting_cycles: cycles_until_start,
            entered_mid_epoch: false,
        }
    }

    /// The epoch this node currently executes (or waits for).
    #[inline]
    pub fn current_epoch(&self) -> u64 {
        self.current_epoch
    }

    /// Rebuilds a manager from its parts, as an engine that keeps them in
    /// columns stores them (the cycle length is the configuration's): the
    /// inverse of the accessors [`EpochManager::current_epoch`],
    /// [`EpochManager::cycle_in_epoch`], [`EpochManager::waiting_cycles`]
    /// and [`EpochManager::entered_mid_epoch`].
    pub fn from_parts(
        cycles_per_epoch: u32,
        current_epoch: u64,
        cycle_in_epoch: u32,
        waiting_cycles: u32,
        entered_mid_epoch: bool,
    ) -> Self {
        EpochManager {
            current_epoch,
            cycle_in_epoch,
            cycles_per_epoch,
            waiting_cycles,
            entered_mid_epoch,
        }
    }

    /// Cycles this node must still wait before it may participate.
    pub fn waiting_cycles(&self) -> u32 {
        self.waiting_cycles
    }

    /// Whether the current epoch was entered part-way through (an epoch
    /// jump).
    pub fn entered_mid_epoch(&self) -> bool {
        self.entered_mid_epoch
    }

    /// Number of cycles completed in the current epoch.
    pub fn cycle_in_epoch(&self) -> u32 {
        self.cycle_in_epoch
    }

    /// Whether the node may actively initiate exchanges right now. A joining
    /// node is passive until the epoch it was told to wait for starts.
    #[inline]
    pub fn can_participate(&self) -> bool {
        self.waiting_cycles == 0
    }

    /// Whether this node has been participating in the current epoch since the
    /// epoch's first cycle. Only such nodes report converged estimates at the
    /// end of the epoch (Figure 4's error bars are computed over exactly these
    /// nodes).
    pub fn participated_from_epoch_start(&self) -> bool {
        self.waiting_cycles == 0 && !self.entered_mid_epoch
    }

    /// Registers the completion of one protocol cycle.
    ///
    /// While the node is still waiting for its first epoch this only counts
    /// down the wait; afterwards it advances the position inside the epoch and
    /// reports [`EpochTransition::Completed`] when the epoch's cycle quota is
    /// reached.
    pub(crate) fn tick_cycle(&mut self) -> EpochTransition {
        if self.waiting_cycles > 0 {
            self.waiting_cycles -= 1;
            return EpochTransition::None;
        }
        self.cycle_in_epoch += 1;
        if self.cycle_in_epoch >= self.cycles_per_epoch {
            let finished = self.current_epoch;
            self.current_epoch += 1;
            self.cycle_in_epoch = 0;
            self.entered_mid_epoch = false;
            EpochTransition::Completed {
                finished,
                current: self.current_epoch,
            }
        } else {
            EpochTransition::None
        }
    }

    /// Registers the epoch identifier seen on an incoming message.
    ///
    /// If it is newer than the local epoch the node jumps forward immediately
    /// ("to avoid drift, if a node receives a message with an identifier
    /// larger than its current one, it switches to the new epoch
    /// immediately"). A message carrying exactly the epoch a joining node is
    /// waiting for ends the wait: the new epoch has evidently started.
    pub(crate) fn observe_remote_epoch(&mut self, remote_epoch: u64) -> EpochTransition {
        if remote_epoch > self.current_epoch {
            let from = self.current_epoch;
            self.current_epoch = remote_epoch;
            self.cycle_in_epoch = 0;
            self.waiting_cycles = 0;
            self.entered_mid_epoch = true;
            EpochTransition::Jumped {
                from,
                to: remote_epoch,
            }
        } else {
            if remote_epoch == self.current_epoch && self.waiting_cycles > 0 {
                // The awaited epoch has started somewhere in the network.
                self.waiting_cycles = 0;
            }
            EpochTransition::None
        }
    }

    /// Whether a message stamped with `remote_epoch` is stale (older than the
    /// local epoch) and should be ignored.
    #[inline]
    pub(crate) fn is_stale(&self, remote_epoch: u64) -> bool {
        remote_epoch < self.current_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cycles_per_epoch_is_rejected() {
        let _ = EpochManager::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cycles_per_epoch_is_rejected_for_joining_nodes() {
        let _ = EpochManager::joining(0, 1, 5);
    }

    #[test]
    fn three_cycle_epoch_completes_on_its_third_tick() {
        let mut m = EpochManager::new(3, 0);
        assert_eq!(m.tick_cycle(), EpochTransition::None);
        assert_eq!(m.tick_cycle(), EpochTransition::None);
        assert_eq!(
            m.tick_cycle(),
            EpochTransition::Completed {
                finished: 0,
                current: 1
            }
        );
        assert_eq!(m.current_epoch(), 1);
    }

    #[test]
    fn epoch_advances_after_the_configured_number_of_cycles() {
        let mut m = EpochManager::new(30, 0);
        for cycle in 0..29 {
            assert_eq!(m.tick_cycle(), EpochTransition::None, "cycle {cycle}");
        }
        assert_eq!(
            m.tick_cycle(),
            EpochTransition::Completed {
                finished: 0,
                current: 1
            }
        );
        assert_eq!(m.current_epoch(), 1);
        assert_eq!(m.cycle_in_epoch(), 0);
    }

    #[test]
    fn remote_epoch_jump_is_immediate_and_resets_progress() {
        let mut m = EpochManager::new(10, 2);
        m.tick_cycle();
        m.tick_cycle();
        assert_eq!(m.cycle_in_epoch(), 2);
        assert_eq!(
            m.observe_remote_epoch(5),
            EpochTransition::Jumped { from: 2, to: 5 }
        );
        assert_eq!(m.current_epoch(), 5);
        assert_eq!(m.cycle_in_epoch(), 0);
        assert!(!m.participated_from_epoch_start());
        // Older or equal epochs never move the node backwards.
        assert_eq!(m.observe_remote_epoch(4), EpochTransition::None);
        assert_eq!(m.observe_remote_epoch(5), EpochTransition::None);
        assert_eq!(m.current_epoch(), 5);
    }

    #[test]
    fn a_jumped_node_recovers_full_participation_next_epoch() {
        let mut m = EpochManager::new(3, 0);
        m.observe_remote_epoch(2);
        assert!(!m.participated_from_epoch_start());
        for _ in 0..3 {
            m.tick_cycle();
        }
        assert_eq!(m.current_epoch(), 3);
        assert!(m.participated_from_epoch_start());
    }

    #[test]
    fn staleness_check() {
        let m = EpochManager::new(10, 7);
        assert!(m.is_stale(6));
        assert!(!m.is_stale(7));
        assert!(!m.is_stale(8));
    }

    #[test]
    fn joining_node_waits_out_the_current_epoch() {
        let mut m = EpochManager::joining(10, 4, 3);
        assert!(!m.can_participate());
        assert_eq!(m.current_epoch(), 4);
        // Messages from the still-running epoch 3 are stale for it.
        assert!(m.is_stale(3));
        for _ in 0..3 {
            assert_eq!(m.tick_cycle(), EpochTransition::None);
        }
        assert!(m.can_participate());
        assert!(m.participated_from_epoch_start());
        assert_eq!(m.cycle_in_epoch(), 0);
    }

    #[test]
    fn awaited_epoch_message_ends_the_wait_without_marking_partial() {
        let mut m = EpochManager::joining(10, 4, 5);
        assert!(!m.can_participate());
        assert_eq!(m.observe_remote_epoch(4), EpochTransition::None);
        assert!(m.can_participate());
        assert!(m.participated_from_epoch_start());
    }

    #[test]
    fn later_epoch_message_during_wait_jumps_and_marks_partial() {
        let mut m = EpochManager::joining(10, 4, 5);
        assert_eq!(
            m.observe_remote_epoch(6),
            EpochTransition::Jumped { from: 4, to: 6 }
        );
        assert!(m.can_participate());
        assert!(!m.participated_from_epoch_start());
    }

    #[test]
    fn fresh_nodes_participate_from_the_start() {
        let m = EpochManager::new(5, 0);
        assert!(m.can_participate());
        assert!(m.participated_from_epoch_start());
    }
}
