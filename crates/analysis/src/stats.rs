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
            };
        }
        let mean = values.iter().sum::<f64>() / count as f64;
        let variance = if count > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        let min = values.iter().copied().min_by(f64::total_cmp);
        let max = values.iter().copied().max_by(f64::total_cmp);
        Summary {
            count,
            mean,
            std_dev: variance.sqrt(),
            min: min.unwrap_or(0.0),
            max: max.unwrap_or(0.0),
        }
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
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn known_batch_statistics() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        // Sample variance = 32 / 7.
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_observation() {
        let s = Summary::from_slice(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
    }

    proptest! {
        /// Mean lies within [min, max] and std_dev is non-negative — for
        /// arbitrary finite batches.
        #[test]
        fn prop_summary_invariants(values in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
            let s = Summary::from_slice(&values);
            prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
            prop_assert!(s.std_dev >= 0.0);
            prop_assert_eq!(s.count, values.len());
        }
    }
}
