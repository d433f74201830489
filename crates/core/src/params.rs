//! Algorithmic parameters of PrivBasis with the defaults used in the paper's experiments.

use crate::consistency::ConsistencyOptions;

/// Whether exponential-mechanism qualities are measured in counts or frequencies.
///
/// Algorithm 3's `GetFreqElements` writes the exponent in terms of the frequency `f ∈ [0,1]`;
/// every other mechanism in the paper (and the TF baseline it compares against) scales by `N`
/// so that the quality is a support *count* with sensitivity 1. The count scale is the default
/// (see DESIGN.md §3); the frequency scale is kept for ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionScale {
    /// Quality = support count (sensitivity 1). Default.
    Count,
    /// Quality = frequency (literal reading of Algorithm 3 line 33).
    Frequency,
}

/// Tunable parameters of Algorithm 3.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivBasisParams {
    /// Fraction of ε spent on estimating λ (step 1). Paper: 0.1.
    pub alpha1: f64,
    /// Fraction of ε spent on selecting frequent items and pairs (steps 2–3). Paper: 0.4.
    pub alpha2: f64,
    /// Fraction of ε spent on the noisy bin counts (step 5). Paper: 0.5.
    pub alpha3: f64,
    /// Safety-margin parameter η; the paper sets 1.1 or 1.2 depending on `k`.
    /// `None` selects 1.1 for k ≤ 100 and 1.2 otherwise.
    pub eta: Option<f64>,
    /// λ threshold below which a single basis containing the top-λ items is used. Paper: 12.
    pub single_basis_lambda: usize,
    /// Hard cap on basis length ℓ (running time is exponential in ℓ). Paper: 12.
    pub max_basis_len: usize,
    /// Scale of exponential-mechanism qualities.
    pub selection_scale: SelectionScale,
    /// Consistency post-processing of the noisy candidate counts (§4 / Hay et al., PVLDB
    /// 2010) applied between `BasisFreq` and the top-`k` selection. Costs no privacy
    /// budget (pure post-processing). `Some(..)` — the default — matches the paper;
    /// `None` publishes the raw reconstructed counts (CLI `--no-consistency`).
    pub consistency: Option<ConsistencyOptions>,
}

impl Default for PrivBasisParams {
    fn default() -> Self {
        PrivBasisParams {
            alpha1: 0.1,
            alpha2: 0.4,
            alpha3: 0.5,
            eta: None,
            single_basis_lambda: 12,
            max_basis_len: 12,
            selection_scale: SelectionScale::Count,
            consistency: Some(ConsistencyOptions::default()),
        }
    }
}

impl PrivBasisParams {
    /// Validates the parameters, returning a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let fractions = [self.alpha1, self.alpha2, self.alpha3];
        if fractions.iter().any(|a| !a.is_finite() || *a <= 0.0) {
            return Err("budget fractions α₁, α₂, α₃ must be positive".to_string());
        }
        let sum: f64 = fractions.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("budget fractions must sum to 1, got {sum}"));
        }
        if let Some(eta) = self.eta {
            if !(eta >= 1.0 && eta.is_finite()) {
                return Err(format!("η must be ≥ 1, got {eta}"));
            }
        }
        if self.single_basis_lambda == 0 {
            return Err("single_basis_lambda must be at least 1".to_string());
        }
        if self.max_basis_len == 0 || self.max_basis_len > 20 {
            return Err("max_basis_len must be in 1..=20 (running time is O(3^ℓ))".to_string());
        }
        if self.single_basis_lambda > self.max_basis_len {
            return Err("single_basis_lambda cannot exceed max_basis_len".to_string());
        }
        Ok(())
    }

    /// The effective η for a given `k` (§4.4: 1.1 or 1.2 depending on `k`).
    pub fn eta_for(&self, k: usize) -> f64 {
        self.eta.unwrap_or(if k <= 100 { 1.1 } else { 1.2 })
    }

    /// The λ₂ heuristic of §4.4: `λ₂ = λ₂′ / sqrt(max(1, λ₂′/λ))` with `λ₂′ = ηk − λ`.
    pub fn lambda2_for(&self, k: usize, lambda: usize) -> usize {
        let eta = self.eta_for(k);
        let lambda2_prime = (eta * k as f64 - lambda as f64).max(0.0);
        if lambda2_prime <= 0.0 {
            return 0;
        }
        let ratio = (lambda2_prime / lambda.max(1) as f64).max(1.0);
        (lambda2_prime / ratio.sqrt()).round().max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_paper() {
        let p = PrivBasisParams::default();
        p.validate().unwrap();
        assert_eq!(p.alpha1, 0.1);
        assert_eq!(p.alpha2, 0.4);
        assert_eq!(p.alpha3, 0.5);
        assert_eq!(p.single_basis_lambda, 12);
        assert_eq!(p.max_basis_len, 12);
        // Consistency post-processing is on by default, as in the paper.
        assert!(p.consistency.is_some());
    }

    #[test]
    fn eta_defaults_depend_on_k() {
        let p = PrivBasisParams::default();
        assert_eq!(p.eta_for(50), 1.1);
        assert_eq!(p.eta_for(100), 1.1);
        assert_eq!(p.eta_for(200), 1.2);
        let fixed = PrivBasisParams {
            eta: Some(1.5),
            ..Default::default()
        };
        assert_eq!(fixed.eta_for(50), 1.5);
    }

    #[test]
    fn lambda2_heuristic_matches_paper_example() {
        // §4.4: pumsb-star with k = 100, noisy λ = 20 ⇒ λ₂ ≈ 44.
        let p = PrivBasisParams {
            eta: Some(1.2),
            ..Default::default()
        };
        let l2 = p.lambda2_for(100, 20);
        assert!((43..=45).contains(&l2), "expected ≈44, got {l2}");
    }

    #[test]
    fn lambda2_handles_small_and_zero_cases() {
        let p = PrivBasisParams::default();
        // λ already above ηk ⇒ no pairs needed.
        assert_eq!(p.lambda2_for(100, 200), 0);
        // λ close to ηk ⇒ small positive λ₂ without division blowups.
        assert!(p.lambda2_for(100, 105) >= 1);
    }

    #[test]
    fn validation_catches_errors() {
        let bad_sum = PrivBasisParams {
            alpha1: 0.5,
            ..Default::default()
        };
        assert!(bad_sum.validate().is_err());
        let bad_eta = PrivBasisParams {
            eta: Some(0.5),
            ..Default::default()
        };
        assert!(bad_eta.validate().is_err());
        let bad_len = PrivBasisParams {
            max_basis_len: 25,
            ..Default::default()
        };
        assert!(bad_len.validate().is_err());
        let bad_single = PrivBasisParams {
            single_basis_lambda: 15,
            max_basis_len: 12,
            ..Default::default()
        };
        assert!(bad_single.validate().is_err());
        let bad_zero = PrivBasisParams {
            alpha1: 0.0,
            alpha2: 0.5,
            alpha3: 0.5,
            ..Default::default()
        };
        assert!(bad_zero.validate().is_err());
    }
}
