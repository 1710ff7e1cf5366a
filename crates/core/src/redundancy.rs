//! Redundant concurrent instances: the paper's defense against malicious
//! participants.
//!
//! Section 4's robustness discussion proposes running *multiple* concurrent
//! aggregation instances and "reporting the median" so that a minority of
//! compromised instances cannot move the result: with `k` instances and
//! `f < k/2` of them captured, the median is always bracketed by honest
//! values. This module holds the policy half of that defense — how many
//! instances to run and how to merge their reports — while the engines own
//! the election half (picking `k` distinct leaders per epoch from a labelled
//! seed stream).
//!
//! Merging is deliberately boring and total: sorting uses
//! [`f64::total_cmp`], so NaN inputs cannot poison a comparison, and every
//! degenerate input (no instances, non-finite reports, over-aggressive
//! trimming) returns a typed [`ReportError`] instead of panicking.

use crate::aggregate::CountInit;
use crate::node::EpochResult;
use crate::protocol::InstanceTag;
use std::fmt;

/// How the per-instance reports of one epoch are merged into the defended
/// estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MergePolicy {
    /// Report the median of the instance estimates (the paper's proposal).
    /// With `f < k/2` captured instances the median is bracketed by honest
    /// reports, so the error is bounded by the spread of the honest
    /// instances — see `merge_estimates`.
    Median,
    /// Drop the `trim` smallest and `trim` largest reports, then average the
    /// rest. Matches the median's breakdown point when `trim = ⌊k/2⌋ - ...`
    /// is chosen against the expected number of captured instances, while
    /// pooling more honest instances than the bare median.
    TrimmedMean {
        /// Number of reports removed from *each* end before averaging.
        trim: usize,
    },
}

impl fmt::Display for MergePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MergePolicy::Median => f.write_str("median"),
            MergePolicy::TrimmedMean { trim } => write!(f, "trimmed-mean(trim={trim})"),
        }
    }
}

/// Configuration of the redundant-instance defense: run `instances` parallel
/// counting instances per epoch (each with its own elected leader drawn from
/// an independent labelled seed stream) and merge their reports with
/// `merge`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedundancyConfig {
    /// Number of concurrent instances per epoch (`k`); must be ≥ 1.
    pub instances: usize,
    /// How the per-instance estimates are merged.
    pub merge: MergePolicy,
}

impl RedundancyConfig {
    /// The classic defense: `k` instances, median reporting.
    pub fn median_of(instances: usize) -> Self {
        RedundancyConfig {
            instances,
            merge: MergePolicy::Median,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ReportError::NoInstances`] when `instances` is zero, and
    /// [`ReportError::OverTrimmed`] when the trimmed mean would discard
    /// every report even with all `k` instances present.
    pub fn validate(&self) -> Result<(), ReportError> {
        if self.instances == 0 {
            return Err(ReportError::NoInstances);
        }
        if let MergePolicy::TrimmedMean { trim } = self.merge {
            if 2 * trim >= self.instances {
                return Err(ReportError::OverTrimmed {
                    trim,
                    reports: self.instances,
                });
            }
        }
        Ok(())
    }
}

/// A degenerate instance set that cannot be merged into an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportError {
    /// No instance reports at all (no leaders elected, or the node never
    /// heard of any counting instance).
    NoInstances,
    /// A report was NaN or infinite — an instance state that inverted to a
    /// non-finite size estimate.
    NonFiniteReport,
    /// The trimmed mean would discard every report (`2·trim ≥ reports`).
    OverTrimmed {
        /// Reports removed from each end.
        trim: usize,
        /// Reports available.
        reports: usize,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ReportError::NoInstances => f.write_str("no instance reports to merge"),
            ReportError::NonFiniteReport => f.write_str("instance report is not finite"),
            ReportError::OverTrimmed { trim, reports } => write!(
                f,
                "trimming {trim} from each end of {reports} reports leaves nothing to average"
            ),
        }
    }
}

impl std::error::Error for ReportError {}

/// Merges per-instance estimates into one defended report under `policy`.
///
/// Sorting uses [`f64::total_cmp`] so the merge is total, but non-finite
/// reports are still rejected up front: a NaN that sorted to one end would
/// silently eat a trim slot, and an infinite report is an estimator failure
/// the caller must see, not average away.
///
/// The defended guarantee (pinned in `tests/byzantine.rs`): with `k` reports
/// of which `f < ⌈k/2⌉` are adversarial, the median lies between the minimum
/// and maximum *honest* report — equivalently, the adversary can shift the
/// median by no more than the amplitude of the (⌈k/2⌉)-th order statistic of
/// the honest set.
///
/// # Errors
///
/// [`ReportError::NoInstances`] on an empty slice,
/// [`ReportError::NonFiniteReport`] on any NaN/infinite report, and
/// [`ReportError::OverTrimmed`] when `2·trim ≥ len`.
pub fn merge_estimates(reports: &[f64], policy: MergePolicy) -> Result<f64, ReportError> {
    if reports.is_empty() {
        return Err(ReportError::NoInstances);
    }
    if reports.iter().any(|value| !value.is_finite()) {
        return Err(ReportError::NonFiniteReport);
    }
    let mut sorted = reports.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    match policy {
        MergePolicy::Median => {
            let n = sorted.len();
            if n % 2 == 1 {
                Ok(sorted[n / 2])
            } else {
                // Even k: mean of the two middle reports. Still safe under
                // f < k/2 — at most k/2 - 1 adversarial extremes leave both
                // middle positions honest.
                Ok((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0)
            }
        }
        MergePolicy::TrimmedMean { trim } => {
            let n = sorted.len();
            if 2 * trim >= n {
                return Err(ReportError::OverTrimmed { trim, reports: n });
            }
            let kept = &sorted[trim..n - trim];
            Ok(kept.iter().sum::<f64>() / kept.len() as f64)
        }
    }
}

/// Extracts the *defended* network-size estimate from a finished
/// [`EpochResult`]: each counting instance (non-default tag) is inverted to
/// its own size estimate, and the per-instance estimates are merged under
/// `policy`.
///
/// This is the redundant counterpart of
/// [`crate::size_estimation::size_estimate_from_epoch`], which pools the
/// instance *states* by averaging — optimal when every instance is honest,
/// but a single captured instance moves that average arbitrarily. Merging
/// the per-instance *estimates* by median keeps a minority of captured
/// instances from moving the report at all.
///
/// # Errors
///
/// [`ReportError::NoInstances`] when the node did not participate in the
/// full epoch or observed no counting instance, plus the
/// [`merge_estimates`] errors.
pub fn redundant_size_estimate_from_epoch(
    result: &EpochResult,
    policy: MergePolicy,
) -> Result<f64, ReportError> {
    if !result.full_participation {
        return Err(ReportError::NoInstances);
    }
    let reports: Vec<f64> = result
        .estimates
        .iter()
        .filter(|(tag, _)| *tag != InstanceTag::DEFAULT)
        .map(|(_, state)| CountInit::size_estimate(*state))
        .collect();
    merge_estimates(&reports, policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(merge_estimates(&[3.0], MergePolicy::Median), Ok(3.0));
        assert_eq!(
            merge_estimates(&[9.0, 1.0, 5.0], MergePolicy::Median),
            Ok(5.0)
        );
        assert_eq!(
            merge_estimates(&[4.0, 1.0, 2.0, 3.0], MergePolicy::Median),
            Ok(2.5)
        );
    }

    #[test]
    fn median_ignores_a_minority_of_outliers() {
        // k = 5, f = 2 wildly adversarial reports: the median stays honest.
        let reports = [100.0, 101.0, 99.0, 1e12, -1e12];
        assert_eq!(merge_estimates(&reports, MergePolicy::Median), Ok(100.0));
    }

    #[test]
    fn trimmed_mean_drops_extremes_then_averages() {
        let reports = [100.0, 104.0, 96.0, 1e9, 0.0];
        let merged = merge_estimates(&reports, MergePolicy::TrimmedMean { trim: 1 }).unwrap();
        assert!((merged - 100.0).abs() < 1e-9, "merged {merged}");
        // trim = 0 degenerates to the plain mean.
        assert_eq!(
            merge_estimates(&[1.0, 3.0], MergePolicy::TrimmedMean { trim: 0 }),
            Ok(2.0)
        );
    }

    #[test]
    fn degenerate_inputs_return_typed_errors() {
        assert_eq!(
            merge_estimates(&[], MergePolicy::Median),
            Err(ReportError::NoInstances)
        );
        assert_eq!(
            merge_estimates(&[1.0, f64::NAN], MergePolicy::Median),
            Err(ReportError::NonFiniteReport)
        );
        assert_eq!(
            merge_estimates(&[1.0, f64::INFINITY], MergePolicy::TrimmedMean { trim: 0 }),
            Err(ReportError::NonFiniteReport)
        );
        assert_eq!(
            merge_estimates(&[1.0, 2.0], MergePolicy::TrimmedMean { trim: 1 }),
            Err(ReportError::OverTrimmed {
                trim: 1,
                reports: 2
            })
        );
        for error in [
            ReportError::NoInstances,
            ReportError::NonFiniteReport,
            ReportError::OverTrimmed {
                trim: 2,
                reports: 4,
            },
        ] {
            assert!(!error.to_string().is_empty());
        }
    }

    #[test]
    fn config_validation() {
        assert!(RedundancyConfig::median_of(5).validate().is_ok());
        assert_eq!(
            RedundancyConfig::median_of(0).validate(),
            Err(ReportError::NoInstances)
        );
        assert!(RedundancyConfig {
            instances: 5,
            merge: MergePolicy::TrimmedMean { trim: 2 }
        }
        .validate()
        .is_ok());
        assert_eq!(
            RedundancyConfig {
                instances: 4,
                merge: MergePolicy::TrimmedMean { trim: 2 }
            }
            .validate(),
            Err(ReportError::OverTrimmed {
                trim: 2,
                reports: 4
            })
        );
        assert_eq!(MergePolicy::Median.to_string(), "median");
        assert_eq!(
            MergePolicy::TrimmedMean { trim: 1 }.to_string(),
            "trimmed-mean(trim=1)"
        );
    }

    #[test]
    fn epoch_extraction_inverts_each_instance_before_merging() {
        // Three counting instances at 10k nodes; one captured (state pushed
        // far above 1/N, collapsing its estimate). The median survives.
        let result = EpochResult {
            epoch: 2,
            estimates: vec![
                (InstanceTag::DEFAULT, 42.0),
                (InstanceTag(1), 1.0 / 10_000.0),
                (InstanceTag(2), 1.02 / 10_000.0),
                (InstanceTag(3), 0.05), // captured: claims N = 20
            ],
            full_participation: true,
        };
        let defended = redundant_size_estimate_from_epoch(&result, MergePolicy::Median).unwrap();
        assert!((defended - 10_000.0).abs() < 250.0, "defended {defended}");

        let partial = EpochResult {
            full_participation: false,
            ..result.clone()
        };
        assert_eq!(
            redundant_size_estimate_from_epoch(&partial, MergePolicy::Median),
            Err(ReportError::NoInstances)
        );
        let no_instances = EpochResult {
            epoch: 2,
            estimates: vec![(InstanceTag::DEFAULT, 42.0)],
            full_participation: true,
        };
        assert_eq!(
            redundant_size_estimate_from_epoch(&no_instances, MergePolicy::Median),
            Err(ReportError::NoInstances)
        );
    }

    #[test]
    fn median_shift_is_bounded_by_the_middle_order_statistic() {
        // The pinned bound from the issue: f malicious of k reports shift
        // the median by no more than the (⌈k/2⌉)-th honest order statistic's
        // amplitude. Exhaustively check k = 5, f = 2 with adversarial
        // reports on both sides.
        let honest = [98.0, 100.0, 103.0];
        for adversarial in [[1e6, 2e6], [-1e6, 1e6], [0.0, 0.0]] {
            let mut reports = honest.to_vec();
            reports.extend_from_slice(&adversarial);
            let merged = merge_estimates(&reports, MergePolicy::Median).unwrap();
            let lo = honest.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = honest.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!(
                (lo..=hi).contains(&merged),
                "median {merged} escaped honest range [{lo}, {hi}]"
            );
        }
    }
}
