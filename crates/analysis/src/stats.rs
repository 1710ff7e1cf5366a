//! Batch summary statistics.

/// Summary statistics of a batch of observations (e.g. the 50 independent
/// runs behind each point of the paper's Figure 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`n − 1` normalisation); zero for fewer than
    /// two observations.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (average of the two central order statistics for even counts).
    pub median: f64,
}

impl Summary {
    /// Computes the summary of a slice of observations.
    ///
    /// Returns an all-zero summary for an empty slice (documented degenerate
    /// behaviour so experiment code does not need special cases).
    pub fn from_slice(values: &[f64]) -> Self {
        let count = values.len();
        if count == 0 {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
            };
        }
        let mean = values.iter().sum::<f64>() / count as f64;
        let variance = if count > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            (sorted[count / 2 - 1] + sorted[count / 2]) / 2.0
        };
        Summary {
            count,
            mean,
            std_dev: variance.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median,
        }
    }

    /// Standard error of the mean, `σ / √n` (zero for empty batches).
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev / (self.count as f64).sqrt()
        }
    }

    /// Half-width of the ~95 % normal confidence interval for the mean
    /// (`1.96 · std_error`). With the 50-run batches used throughout the
    /// benchmarks the normal approximation is accurate enough for reporting.
    pub fn confidence_95(&self) -> f64 {
        1.96 * self.std_error()
    }

    /// `p`-quantile of the observations (nearest-rank method), or `None` for
    /// empty batches or `p` outside `[0, 1]`.
    pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
        if values.is_empty() || !(0.0..=1.0).contains(&p) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_slice_gives_zeroes() {
        let s = Summary::from_slice(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_error(), 0.0);
        assert_eq!(s.confidence_95(), 0.0);
    }

    #[test]
    fn known_batch_statistics() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 4.5);
        // Sample variance = 32 / 7.
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_observation() {
        let s = Summary::from_slice(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 3.5);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Summary::from_slice(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(Summary::from_slice(&[4.0, 1.0, 2.0, 3.0]).median, 2.5);
    }

    #[test]
    fn confidence_interval_shrinks_with_more_samples() {
        let few = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let many: Vec<f64> = (0..400).map(|i| 1.0 + (i % 4) as f64).collect();
        let many = Summary::from_slice(&many);
        assert!(many.confidence_95() < few.confidence_95());
    }

    #[test]
    fn quantiles() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(Summary::quantile(&values, 0.0), Some(1.0));
        assert_eq!(Summary::quantile(&values, 0.5), Some(5.0));
        assert_eq!(Summary::quantile(&values, 1.0), Some(10.0));
        assert_eq!(Summary::quantile(&values, 0.95), Some(10.0));
        assert_eq!(Summary::quantile(&[], 0.5), None);
        assert_eq!(Summary::quantile(&values, 1.5), None);
    }

    proptest! {
        /// Mean lies within [min, max]; std_dev is non-negative; median within
        /// range — for arbitrary finite batches.
        #[test]
        fn prop_summary_invariants(values in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
            let s = Summary::from_slice(&values);
            prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
            prop_assert!(s.min <= s.median && s.median <= s.max);
            prop_assert!(s.std_dev >= 0.0);
            prop_assert_eq!(s.count, values.len());
        }
    }
}
