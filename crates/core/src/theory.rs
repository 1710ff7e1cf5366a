//! Closed-form convergence theory from Section 3 of the paper.
//!
//! The central quantity is the per-cycle variance-reduction factor
//! `ρ = E(2^-φ)`, where `φ` is the number of exchanges a node participates in
//! during one cycle (Theorem 1): `E(σ²_{i+1}) ≈ ρ · E(σ²_i)`. This module
//! provides the paper's closed forms of `ρ` for the pair selectors, `E(2^-φ)`
//! for the distributions of `φ` the analysis assumes, and the number of
//! cycles a target accuracy takes at a given rate. Selectors report their
//! rate through [`crate::SelectorKind::theoretical_rate`]; the convergence
//! tests and the `variance_reduction` example compare measured reductions
//! with these rates.

use crate::AggregationError;

/// Per-cycle variance-reduction factor of `GETPAIR_PM` (perfect matching):
/// every node is selected exactly twice per cycle, so `E(2^-φ) = 2⁻² = 1/4`.
/// The paper proves this is optimal (Lemma 2).
pub const PM_RATE: f64 = 0.25;

/// Per-cycle variance-reduction factor of `GETPAIR_RAND`: `φ` is Poisson(2)
/// distributed, giving `E(2^-φ) = e^(-2) · e^(2/2) = 1/e ≈ 0.368`
/// (equation (10) of the paper).
pub fn rand_rate() -> f64 {
    expected_reduction_poisson(2.0)
}

/// Per-cycle variance-reduction factor of `GETPAIR_SEQ` (analysed through the
/// `GETPAIR_PMRAND` proxy): `φ = 1 + φ'` with `φ'` Poisson(1) distributed,
/// giving `E(2^-φ) = 1/(2√e) ≈ 0.303` (equation (12) of the paper).
pub fn seq_rate() -> f64 {
    expected_reduction_shifted_poisson(1.0)
}

/// `E(2^-φ)` for `φ ~ Poisson(λ)`.
///
/// Closed form: `Σ_j 2^-j λ^j e^-λ / j! = e^-λ · e^(λ/2) = e^(-λ/2)`.
pub(crate) fn expected_reduction_poisson(lambda: f64) -> f64 {
    (-lambda / 2.0).exp()
}

/// `E(2^-φ)` for `φ = 1 + φ'` with `φ' ~ Poisson(λ)`.
///
/// Closed form: `½ · e^(-λ/2)`. The paper's `GETPAIR_SEQ`/`GETPAIR_PMRAND`
/// case is `λ = 1`, giving `1/(2√e)`.
pub(crate) fn expected_reduction_shifted_poisson(lambda: f64) -> f64 {
    0.5 * (-lambda / 2.0).exp()
}

/// Number of cycles needed to reduce the variance to `target_ratio` of its
/// initial value when each cycle multiplies the variance by `rate`.
///
/// This is the quantitative form of the paper's Section 5 claim: "the variance
/// over the network will decrease 99.9 % in ln 1000 ≈ 7 cycles of AVG" (with
/// `GETPAIR_RAND`, whose rate is `1/e`).
///
/// # Errors
///
/// Returns [`AggregationError::InvalidConfig`] if `rate` is not in `(0, 1)` or
/// `target_ratio` is not in `(0, 1]`.
///
/// # Example
///
/// ```
/// use aggregate_core::theory::{cycles_for_accuracy, rand_rate};
/// // 99.9% reduction with getPair_rand takes ln(1000) ≈ 6.9 → 7 cycles.
/// assert_eq!(cycles_for_accuracy(rand_rate(), 1e-3)?, 7);
/// # Ok::<(), aggregate_core::AggregationError>(())
/// ```
pub fn cycles_for_accuracy(rate: f64, target_ratio: f64) -> Result<u32, AggregationError> {
    if !(rate > 0.0 && rate < 1.0) {
        return Err(AggregationError::invalid_config(format!(
            "reduction rate must be in (0, 1), got {rate}"
        )));
    }
    if !(target_ratio > 0.0 && target_ratio <= 1.0) {
        return Err(AggregationError::invalid_config(format!(
            "target ratio must be in (0, 1], got {target_ratio}"
        )));
    }
    // Both logarithms are negative, so the ratio is the (positive) number of
    // cycles; round up, with a small tolerance so exact multiples stay exact.
    let ratio = target_ratio.ln() / rate.ln();
    Ok((ratio - 1e-9).ceil().max(0.0) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::E;

    /// Probability mass function of the Poisson(λ) distribution at `k`: the
    /// law of `φ` the series evaluations below sum over.
    fn poisson_pmf(lambda: f64, k: u32) -> f64 {
        let mut log_factorial = 0.0;
        for i in 1..=k {
            log_factorial += f64::from(i).ln();
        }
        (f64::from(k) * lambda.ln() - lambda - log_factorial).exp()
    }

    #[test]
    fn closed_forms_match_paper_constants() {
        assert!((PM_RATE - 0.25).abs() < 1e-15);
        assert!((rand_rate() - 1.0 / E).abs() < 1e-15);
        // The paper's GETPAIR_RAND case: λ = 2 gives 1/e.
        assert!((expected_reduction_poisson(2.0) - 1.0 / E).abs() < 1e-12);
        assert!((seq_rate() - 1.0 / (2.0 * E.sqrt())).abs() < 1e-15);
        // Numerical values quoted in the paper's Figure 3 caption.
        assert!((rand_rate() - 0.368).abs() < 1e-3);
        assert!((seq_rate() - 0.303).abs() < 1e-3);
    }

    #[test]
    fn ordering_of_rates_is_pm_fastest_rand_slowest() {
        assert!(PM_RATE < seq_rate());
        assert!(seq_rate() < rand_rate());
        assert!(rand_rate() < 1.0);
    }

    #[test]
    fn poisson_reduction_matches_series_evaluation() {
        for lambda in [0.5, 1.0, 2.0, 3.5] {
            let series: f64 = (0..200)
                .map(|j| 2.0f64.powi(-j) * poisson_pmf(lambda, j as u32))
                .sum();
            assert!(
                (series - expected_reduction_poisson(lambda)).abs() < 1e-12,
                "series and closed form disagree for lambda={lambda}"
            );
        }
    }

    #[test]
    fn shifted_poisson_reduction_matches_series_evaluation() {
        for lambda in [0.5, 1.0, 2.0] {
            let series: f64 = (0..200)
                .map(|j| 2.0f64.powi(-(j + 1)) * poisson_pmf(lambda, j as u32))
                .sum();
            assert!(
                (series - expected_reduction_shifted_poisson(lambda)).abs() < 1e-12,
                "series and closed form disagree for lambda={lambda}"
            );
        }
    }

    #[test]
    fn poisson_pmf_is_a_distribution() {
        for lambda in [0.1, 1.0, 2.0, 5.0] {
            let total: f64 = (0..100).map(|k| poisson_pmf(lambda, k)).sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "pmf does not sum to 1 for {lambda}"
            );
        }
        assert!((poisson_pmf(2.0, 0) - (-2.0f64).exp()).abs() < 1e-12);
        assert!((poisson_pmf(2.0, 1) - 2.0 * (-2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn paper_claim_999_percent_in_seven_cycles() {
        // Section 5: "the variance over the network will decrease 99.9% in
        // ln 1000 ≈ 7 cycles" with getPair_rand.
        assert_eq!(cycles_for_accuracy(rand_rate(), 1e-3).unwrap(), 7);
        // The optimal PM selector needs only 5 cycles and SEQ needs 6.
        assert_eq!(cycles_for_accuracy(PM_RATE, 1e-3).unwrap(), 5);
        assert_eq!(cycles_for_accuracy(seq_rate(), 1e-3).unwrap(), 6);
    }

    #[test]
    fn cycles_for_accuracy_edge_cases() {
        assert_eq!(cycles_for_accuracy(0.5, 1.0).unwrap(), 0);
        assert_eq!(cycles_for_accuracy(0.5, 0.5).unwrap(), 1);
        assert_eq!(cycles_for_accuracy(0.5, 0.26).unwrap(), 2);
        assert!(cycles_for_accuracy(0.0, 0.5).is_err());
        assert!(cycles_for_accuracy(1.0, 0.5).is_err());
        assert!(cycles_for_accuracy(-0.5, 0.5).is_err());
        assert!(cycles_for_accuracy(0.5, 0.0).is_err());
        assert!(cycles_for_accuracy(0.5, 1.5).is_err());
    }
}
