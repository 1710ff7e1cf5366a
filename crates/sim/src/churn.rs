//! Churn models: how the set of live nodes changes over time.

/// A deterministic schedule of the *target* network size plus per-cycle
/// fluctuation, matching the scenario of the paper's Figure 4:
///
/// > "the size oscillates between 90.000 and 110.000. In addition to nodes
/// > added and removed because of the oscillation, 100 nodes are removed from
/// > the network and 100 nodes are added to simulate fluctuation."
///
/// The oscillation follows a triangle wave (linear growth then linear decline)
/// whose period is expressed in cycles; the fluctuation adds a constant number
/// of simultaneous joins and departures per cycle that cancel out in size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSchedule {
    /// Smallest network size reached by the oscillation.
    pub(crate) min_size: usize,
    /// Largest network size reached by the oscillation.
    pub max_size: usize,
    /// Full oscillation period in cycles (grow to max and shrink back to min).
    pub(crate) period_cycles: usize,
    /// Additional simultaneous joins *and* departures per cycle.
    pub fluctuation_per_cycle: usize,
}

impl ChurnSchedule {
    /// The scenario of Figure 4: 90 000–110 000 nodes, full oscillation over
    /// 500 cycles, 100 extra joins and departures per cycle.
    pub fn figure4() -> Self {
        ChurnSchedule {
            min_size: 90_000,
            max_size: 110_000,
            period_cycles: 500,
            fluctuation_per_cycle: 100,
        }
    }

    /// A static network of `size` nodes (no oscillation, no fluctuation).
    pub fn steady(size: usize) -> Self {
        ChurnSchedule {
            min_size: size,
            max_size: size,
            period_cycles: 1,
            fluctuation_per_cycle: 0,
        }
    }

    /// Scales the Figure 4 scenario down to a different base size, keeping the
    /// ±10 % oscillation and 0.1 % per-cycle fluctuation proportions. Useful
    /// for quick runs and unit tests.
    pub fn figure4_scaled(base_size: usize) -> Self {
        ChurnSchedule {
            min_size: base_size - base_size / 10,
            max_size: base_size + base_size / 10,
            period_cycles: 500,
            fluctuation_per_cycle: (base_size / 1_000).max(1),
        }
    }

    /// Target network size at the given cycle (triangle wave between
    /// `min_size` and `max_size`).
    pub fn target_size(&self, cycle: usize) -> usize {
        if self.max_size <= self.min_size || self.period_cycles < 2 {
            return self.min_size;
        }
        let half = self.period_cycles / 2;
        let phase = cycle % self.period_cycles;
        let amplitude = self.max_size - self.min_size;
        // Start in the middle, rise to max, fall to min, return to middle —
        // i.e. a triangle wave centred on the mid size, as in Figure 4 where
        // the run starts at 100 000.
        let mid = self.min_size + amplitude / 2;
        let quarter = half / 2;
        if phase < quarter {
            mid + amplitude * phase / half
        } else if phase < quarter + half {
            // descending from max to min
            self.max_size - amplitude * (phase - quarter) / half
        } else {
            // ascending back to mid
            self.min_size + amplitude * (phase - quarter - half) / half
        }
    }

    /// The planned membership change at `cycle`: `(joins, departures)`,
    /// combining the oscillation delta with the symmetric fluctuation.
    pub fn changes_at(&self, cycle: usize) -> (usize, usize) {
        let current = self.target_size(cycle);
        let next = self.target_size(cycle + 1);
        let (grow, shrink) = if next >= current {
            (next - current, 0)
        } else {
            (0, current - next)
        };
        (
            grow + self.fluctuation_per_cycle,
            shrink + self.fluctuation_per_cycle,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_schedule_is_constant() {
        let s = ChurnSchedule::steady(1_000);
        for cycle in [0, 1, 10, 499, 1_000] {
            assert_eq!(s.target_size(cycle), 1_000);
            assert_eq!(s.changes_at(cycle), (0, 0));
        }
    }

    #[test]
    fn figure4_schedule_oscillates_in_the_documented_band() {
        let s = ChurnSchedule::figure4();
        let mut min_seen = usize::MAX;
        let mut max_seen = 0usize;
        for cycle in 0..1_000 {
            let size = s.target_size(cycle);
            assert!(
                (90_000..=110_000).contains(&size),
                "cycle {cycle}: size {size} outside band"
            );
            min_seen = min_seen.min(size);
            max_seen = max_seen.max(size);
        }
        assert!(min_seen <= 90_100, "oscillation must reach the lower band");
        assert!(max_seen >= 109_900, "oscillation must reach the upper band");
        // The run starts at the middle of the band, like the paper's plot.
        assert_eq!(s.target_size(0), 100_000);
    }

    #[test]
    fn figure4_fluctuation_adds_constant_turnover() {
        let s = ChurnSchedule::figure4();
        let (joins, departures) = s.changes_at(0);
        // Oscillation rising at the start: joins exceed departures by the
        // oscillation slope; both include the 100-node fluctuation.
        assert!(joins >= 100);
        assert!(departures >= 100);
        assert!(joins > departures);
    }

    #[test]
    fn changes_follow_the_size_derivative() {
        let s = ChurnSchedule {
            min_size: 100,
            max_size: 200,
            period_cycles: 100,
            fluctuation_per_cycle: 0,
        };
        let mut size = s.target_size(0);
        for cycle in 0..300 {
            let (joins, departures) = s.changes_at(cycle);
            size = size + joins - departures;
            assert_eq!(size, s.target_size(cycle + 1), "cycle {cycle}");
        }
    }

    #[test]
    fn scaled_figure4_keeps_the_proportions() {
        let s = ChurnSchedule::figure4_scaled(1_000);
        assert_eq!(s.min_size, 900);
        assert_eq!(s.max_size, 1_100);
        assert_eq!(s.fluctuation_per_cycle, 1);
        for cycle in 0..1_000 {
            let size = s.target_size(cycle);
            assert!((900..=1_100).contains(&size));
        }
    }

    #[test]
    fn degenerate_schedules_do_not_panic() {
        let s = ChurnSchedule {
            min_size: 10,
            max_size: 10,
            period_cycles: 0,
            fluctuation_per_cycle: 0,
        };
        assert_eq!(s.target_size(5), 10);
        let s = ChurnSchedule {
            min_size: 20,
            max_size: 10,
            period_cycles: 10,
            fluctuation_per_cycle: 0,
        };
        assert_eq!(s.target_size(3), 20);
    }
}
