//! Initial value distributions for experiments.

use rand::Rng;

/// Distribution of the nodes' initial attribute values.
///
/// The paper's Figure 3 experiments start from a vector of *uncorrelated*
/// values, for which the uniform distribution is the canonical choice; the
/// peak distribution (all mass at a single node) is the hardest case for
/// averaging (maximal initial variance for a given mean) and is used by the
/// robustness ablations; the linear ramp is a convenient deterministic
/// baseline with known mean and variance.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ValueDistribution {
    /// Independent uniform values in `[lo, hi)`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Every node holds `base` except one node (index 0) holding `peak`.
    Peak {
        /// Value at the single peak node.
        peak: f64,
        /// Value at every other node.
        base: f64,
    },
    /// Node `i` holds `offset + slope * i`.
    Linear {
        /// Value at node 0.
        offset: f64,
        /// Increment per node index.
        slope: f64,
    },
    /// Every node holds the same constant (zero variance — useful for
    /// checking that the protocol does not introduce errors of its own).
    Constant(f64),
    /// Independent standard-normal-like values produced by the Box–Muller
    /// transform, scaled to the given mean and standard deviation.
    Gaussian {
        /// Mean of the distribution.
        mean: f64,
        /// Standard deviation of the distribution.
        std_dev: f64,
    },
}

impl ValueDistribution {
    /// Generates the initial values for `n` nodes.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<f64> {
        match *self {
            ValueDistribution::Uniform { lo, hi } => {
                (0..n).map(|_| rng.gen_range(lo..hi)).collect()
            }
            ValueDistribution::Peak { peak, base } => {
                let mut values = vec![base; n];
                if n > 0 {
                    values[0] = peak;
                }
                values
            }
            ValueDistribution::Linear { offset, slope } => {
                (0..n).map(|i| offset + slope * i as f64).collect()
            }
            ValueDistribution::Constant(value) => vec![value; n],
            ValueDistribution::Gaussian { mean, std_dev } => (0..n)
                .map(|_| {
                    // Box–Muller transform from two uniforms.
                    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    mean + std_dev * z
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggregate_core::avg::{mean, variance};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(8)
    }

    #[test]
    fn uniform_values_land_in_range_with_matching_mean() {
        let mut r = rng();
        let dist = ValueDistribution::Uniform { lo: 2.0, hi: 6.0 };
        let values = dist.generate(20_000, &mut r);
        assert!(values.iter().all(|v| (2.0..6.0).contains(v)));
        assert!((mean(&values) - 4.0).abs() < 0.05);
    }

    #[test]
    fn peak_distribution_shape() {
        let mut r = rng();
        let dist = ValueDistribution::Peak {
            peak: 100.0,
            base: 0.0,
        };
        let values = dist.generate(10, &mut r);
        assert_eq!(values[0], 100.0);
        assert!(values[1..].iter().all(|&v| v == 0.0));
        assert_eq!(mean(&values), 10.0);
        assert_eq!(dist.generate(0, &mut r).len(), 0);
    }

    #[test]
    fn linear_and_constant_distributions() {
        let mut r = rng();
        let linear = ValueDistribution::Linear {
            offset: 1.0,
            slope: 2.0,
        };
        let values = linear.generate(5, &mut r);
        assert_eq!(values, vec![1.0, 3.0, 5.0, 7.0, 9.0]);
        assert_eq!(mean(&values), 5.0);

        let constant = ValueDistribution::Constant(3.5);
        let values = constant.generate(4, &mut r);
        assert_eq!(values, vec![3.5; 4]);
        assert_eq!(variance(&values), 0.0);
    }

    #[test]
    fn gaussian_distribution_matches_requested_moments() {
        let mut r = rng();
        let dist = ValueDistribution::Gaussian {
            mean: 10.0,
            std_dev: 2.0,
        };
        let values = dist.generate(50_000, &mut r);
        assert!((mean(&values) - 10.0).abs() < 0.05);
        assert!((variance(&values).sqrt() - 2.0).abs() < 0.05);
    }

    #[test]
    fn generation_is_reproducible_for_a_fixed_seed() {
        let dist = ValueDistribution::Uniform { lo: 0.0, hi: 1.0 };
        let a = dist.generate(100, &mut rng());
        let b = dist.generate(100, &mut rng());
        assert_eq!(a, b);
    }
}
