//! Graceful model degradation: the recovery ladder and its report.
//!
//! A production DSE campaign fits hundreds of per-coefficient regressors
//! (one RBF network per retained wavelet coefficient, per benchmark, per
//! metric). At that scale the question is not *whether* a fit will ever
//! meet a singular Gram matrix or a NaN, but *what happens when it does*.
//! The answer here is a ladder of increasingly conservative models:
//!
//! 1. **Primary** — the configured model ([`crate::ModelKind`]) with its
//!    configured ridge strength.
//! 2. **Escalated ridge** — the same model refit with the ridge penalty
//!    multiplied by [`RecoveryPolicy::ridge_growth`] per rung; heavier
//!    regularization cures most ill-conditioning.
//! 3. **Linear fallback** — a ridge-linear model; crude, but defined for
//!    any non-degenerate design.
//! 4. **Mean fallback** — the training-set mean of the coefficient, a
//!    constant that can never fail and never produces a non-finite value.
//!
//! Every coefficient records which rung it landed on in a
//! [`DegradationReport`], so a degraded campaign is *visible*, never
//! silent. Fits that return non-finite parameters are treated exactly
//! like solver failures (see `ModelError::NonFinite`).

use std::fmt;

/// Which rung of the recovery ladder a coefficient's model landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryRung {
    /// The configured model fit cleanly on the first attempt.
    Primary,
    /// The configured model fit after `escalation` ridge escalations.
    EscalatedRidge {
        /// 1-based escalation step that finally succeeded.
        escalation: u32,
    },
    /// The ridge-linear fallback model.
    LinearFallback,
    /// The training-set-mean constant fallback.
    MeanFallback,
}

impl RecoveryRung {
    /// Position in the ladder: 0 = primary … 3 = mean fallback.
    pub fn level(self) -> usize {
        match self {
            RecoveryRung::Primary => 0,
            RecoveryRung::EscalatedRidge { .. } => 1,
            RecoveryRung::LinearFallback => 2,
            RecoveryRung::MeanFallback => 3,
        }
    }

    /// Stable short name.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryRung::Primary => "primary",
            RecoveryRung::EscalatedRidge { .. } => "ridge-escalated",
            RecoveryRung::LinearFallback => "linear-fallback",
            RecoveryRung::MeanFallback => "mean-fallback",
        }
    }
}

/// How aggressively training recovers from per-coefficient fit failures.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Ridge-escalation retries before falling back to simpler models.
    pub ridge_escalations: u32,
    /// Multiplier applied to the ridge penalty per escalation step.
    pub ridge_growth: f64,
    /// Permit the ridge-linear fallback rung.
    pub allow_linear: bool,
    /// Permit the training-set-mean fallback rung (makes per-coefficient
    /// fitting infallible).
    pub allow_mean: bool,
}

impl Default for RecoveryPolicy {
    /// The full ladder: 3 ridge escalations (×100 each), then linear,
    /// then mean.
    fn default() -> Self {
        RecoveryPolicy {
            ridge_escalations: 3,
            ridge_growth: 100.0,
            allow_linear: true,
            allow_mean: true,
        }
    }
}

impl RecoveryPolicy {
    /// No recovery at all: the first fit failure aborts training. This is
    /// the policy behind `WaveletNeuralPredictor::train`'s historical
    /// fail-fast contract.
    pub fn strict() -> Self {
        RecoveryPolicy {
            ridge_escalations: 0,
            ridge_growth: 1.0,
            allow_linear: false,
            allow_mean: false,
        }
    }
}

/// Where one coefficient's model landed, and how much work it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoeffRecovery {
    /// Wavelet-coefficient index this record describes.
    pub coefficient: usize,
    /// Rung the ladder settled on.
    pub rung: RecoveryRung,
    /// Fit attempts consumed (1 = clean primary fit).
    pub attempts: u32,
}

/// Per-campaign account of which recovery rung every coefficient's model
/// landed on. Produced by `WaveletNeuralPredictor::train_resilient`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DegradationReport {
    records: Vec<CoeffRecovery>,
}

impl DegradationReport {
    /// Builds a report from per-coefficient records.
    pub fn from_records(records: Vec<CoeffRecovery>) -> Self {
        DegradationReport { records }
    }

    /// An all-primary report for a model known to have fit cleanly (for
    /// example one trained with [`RecoveryPolicy::strict`]).
    pub fn healthy(coefficient_indices: &[usize]) -> Self {
        DegradationReport {
            records: coefficient_indices
                .iter()
                .map(|&coefficient| CoeffRecovery {
                    coefficient,
                    rung: RecoveryRung::Primary,
                    attempts: 1,
                })
                .collect(),
        }
    }

    /// Per-coefficient records, most significant coefficient first.
    pub fn records(&self) -> &[CoeffRecovery] {
        &self.records
    }

    /// Number of coefficients accounted for (always the model's full
    /// coefficient count).
    pub fn coefficient_count(&self) -> usize {
        self.records.len()
    }

    /// Counts per ladder level: `[primary, ridge-escalated, linear, mean]`.
    pub fn rung_counts(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for r in &self.records {
            counts[r.rung.level()] += 1;
        }
        counts
    }

    /// Number of coefficients that did **not** fit cleanly on the primary
    /// rung.
    pub fn degraded_count(&self) -> usize {
        let [primary, ..] = self.rung_counts();
        self.records.len() - primary
    }

    /// `true` when every coefficient fit cleanly on the primary rung.
    pub fn is_pristine(&self) -> bool {
        self.degraded_count() == 0
    }

    /// Total fit attempts across all coefficients.
    pub fn total_attempts(&self) -> u64 {
        self.records.iter().map(|r| u64::from(r.attempts)).sum()
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [primary, ridge, linear, mean] = self.rung_counts();
        write!(
            f,
            "{} coefficients: {primary} primary, {ridge} ridge-escalated, \
             {linear} linear-fallback, {mean} mean-fallback",
            self.records.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_report_is_pristine_and_accounts_for_everything() {
        let r = DegradationReport::healthy(&[0, 3, 7]);
        assert!(r.is_pristine());
        assert_eq!(r.coefficient_count(), 3);
        assert_eq!(r.rung_counts(), [3, 0, 0, 0]);
        assert_eq!(r.degraded_count(), 0);
        assert_eq!(r.total_attempts(), 3);
    }

    #[test]
    fn rung_counts_partition_the_records() {
        let r = DegradationReport::from_records(vec![
            CoeffRecovery {
                coefficient: 0,
                rung: RecoveryRung::Primary,
                attempts: 1,
            },
            CoeffRecovery {
                coefficient: 1,
                rung: RecoveryRung::EscalatedRidge { escalation: 2 },
                attempts: 3,
            },
            CoeffRecovery {
                coefficient: 2,
                rung: RecoveryRung::MeanFallback,
                attempts: 6,
            },
        ]);
        assert_eq!(r.rung_counts(), [1, 1, 0, 1]);
        assert_eq!(r.rung_counts().iter().sum::<usize>(), r.coefficient_count());
        assert_eq!(r.degraded_count(), 2);
        assert!(!r.is_pristine());
        let text = r.to_string();
        assert!(text.contains("3 coefficients"));
        assert!(text.contains("1 ridge-escalated"));
    }

    #[test]
    fn rung_levels_are_ordered() {
        let rungs = [
            RecoveryRung::Primary,
            RecoveryRung::EscalatedRidge { escalation: 1 },
            RecoveryRung::LinearFallback,
            RecoveryRung::MeanFallback,
        ];
        for (i, r) in rungs.iter().enumerate() {
            assert_eq!(r.level(), i);
            assert!(!r.name().is_empty());
        }
    }
}
