//! Streaming (online) statistics.

/// Welford-style online accumulator for mean and variance.
///
/// Used where a run cannot afford to keep every observation in memory — e.g.
/// the sharded engine's per-shard estimate statistics over a 10⁶-node
/// network, merged once a cycle.
///
/// # Example
///
/// ```
/// use gossip_analysis::OnlineStats;
///
/// let mut stats = OnlineStats::new();
/// for v in [2.0, 4.0, 6.0] {
///     stats.push(v);
/// }
/// assert_eq!(stats.mean(), 4.0);
/// assert_eq!(stats.sample_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

/// The empty accumulator, the same as [`OnlineStats::new`]: its `min` and
/// `max` start at `+∞` and `−∞`, so the first observation sets both.
impl Default for OnlineStats {
    fn default() -> Self {
        OnlineStats::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (`/ n`); 0 for fewer than one observation.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (`/ (n − 1)`); 0 for fewer than two observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count as f64 - 1.0)
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Merges another accumulator into this one (parallel Welford update), so
    /// per-thread accumulators can be combined.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_accumulator_defaults() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(OnlineStats::default(), s);
        let mut negatives = OnlineStats::default();
        negatives.push(-1.0);
        negatives.push(-3.0);
        assert_eq!(negatives.max(), Some(-1.0));
        assert_eq!(negatives.min(), Some(-3.0));
    }

    #[test]
    fn matches_two_pass_computation() {
        let values = [1.5, -2.0, 4.25, 0.0, 3.75, -1.25];
        let mut online = OnlineStats::new();
        for &v in &values {
            online.push(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var =
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (values.len() - 1) as f64;
        assert!((online.mean() - mean).abs() < 1e-12);
        assert!((online.sample_variance() - var).abs() < 1e-12);
        assert_eq!(online.min(), Some(-2.0));
        assert_eq!(online.max(), Some(4.25));
    }

    #[test]
    fn merge_equals_sequential_pushes() {
        let first = [1.0, 2.0, 3.0];
        let second = [10.0, 20.0];
        let mut a = OnlineStats::new();
        first.iter().for_each(|&v| a.push(v));
        let mut b = OnlineStats::new();
        second.iter().for_each(|&v| b.push(v));
        a.merge(&b);

        let mut reference = OnlineStats::new();
        first
            .iter()
            .chain(second.iter())
            .for_each(|&v| reference.push(v));
        assert!((a.mean() - reference.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - reference.sample_variance()).abs() < 1e-12);
        assert_eq!(a.count(), 5);

        // Merging an empty accumulator is a no-op in both directions.
        let mut c = OnlineStats::new();
        c.merge(&a);
        assert_eq!(c.count(), 5);
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), 5);
    }

    proptest! {
        /// Online and batch statistics agree for arbitrary inputs.
        #[test]
        fn prop_online_matches_batch(values in proptest::collection::vec(-1e6f64..1e6, 2..100)) {
            let mut online = OnlineStats::new();
            values.iter().for_each(|&v| online.push(v));
            let batch = crate::Summary::from_slice(&values);
            prop_assert!((online.mean() - batch.mean).abs() < 1e-6 * (1.0 + batch.mean.abs()));
            prop_assert!(
                (online.sample_variance().sqrt() - batch.std_dev).abs()
                    < 1e-6 * (1.0 + batch.std_dev)
            );
        }

        /// The sharded engine's telemetry reducer merges one accumulator per
        /// shard; this pins its correctness for *arbitrary* splits: chopping
        /// the input at any set of points, accumulating each chunk
        /// separately and merging left-to-right matches one sequential pass
        /// within 1e-9 relative tolerance, and the order statistics match
        /// exactly.
        #[test]
        fn prop_merge_over_arbitrary_splits_matches_sequential(
            values in proptest::collection::vec(-1e6f64..1e6, 1..200),
            raw_cuts in proptest::collection::vec(0usize..200, 0..8),
        ) {
            let mut sequential = OnlineStats::new();
            values.iter().for_each(|&v| sequential.push(v));

            // Normalise the cut points into ordered in-range split indices.
            let mut cuts: Vec<usize> = raw_cuts.iter().map(|&c| c % (values.len() + 1)).collect();
            cuts.sort_unstable();
            cuts.dedup();

            let mut merged = OnlineStats::new();
            let mut start = 0;
            for &cut in cuts.iter().chain(std::iter::once(&values.len())) {
                let mut chunk = OnlineStats::new();
                values[start..cut].iter().for_each(|&v| chunk.push(v));
                merged.merge(&chunk);
                start = cut;
            }

            prop_assert_eq!(merged.count(), sequential.count());
            prop_assert_eq!(merged.min(), sequential.min());
            prop_assert_eq!(merged.max(), sequential.max());
            let mean_tolerance = 1e-9 * (1.0 + sequential.mean().abs());
            prop_assert!(
                (merged.mean() - sequential.mean()).abs() <= mean_tolerance,
                "mean {} vs {}", merged.mean(), sequential.mean()
            );
            let variance_tolerance = 1e-9 * (1.0 + sequential.sample_variance().abs());
            prop_assert!(
                (merged.sample_variance() - sequential.sample_variance()).abs()
                    <= variance_tolerance,
                "variance {} vs {}", merged.sample_variance(), sequential.sample_variance()
            );
        }
    }
}
