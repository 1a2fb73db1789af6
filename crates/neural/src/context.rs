//! The per-design training context shared by every model fit on it.

use crate::normalize::Normalizer;
use crate::tree::FeatureRanks;
use crate::ModelError;
use dynawave_numeric::Matrix;

/// Everything a fit derives from the design matrix alone: the min–max
/// [`Normalizer`], the normalized design and each feature's per-sample
/// value ranks (which let the regression tree find splits without
/// sorting).
///
/// A predictor fits one network per wavelet coefficient, all on the same
/// design; it builds one context and passes it to every fit
/// ([`RbfNetwork::fit_in`](crate::RbfNetwork::fit_in),
/// [`RbfNetwork::fit_with_random_centers_in`](crate::RbfNetwork::fit_with_random_centers_in),
/// [`LinearModel::fit_in`](crate::LinearModel::fit_in)). The matrix-taking
/// `fit` functions build a context and fit in it, so both paths give
/// bit-identical models.
///
/// # Examples
///
/// ```
/// use dynawave_neural::{FitContext, RbfNetwork, RbfParams};
/// use dynawave_numeric::Matrix;
///
/// let x = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[0.5, 0.5], &[1.0, 1.0]]);
/// let ctx = FitContext::new(&x).unwrap();
/// let a = RbfNetwork::fit_in(&ctx, &[0.0, 1.0, 0.5, 1.0], &RbfParams::default()).unwrap();
/// let b = RbfNetwork::fit(&x, &[0.0, 1.0, 0.5, 1.0], &RbfParams::default()).unwrap();
/// assert_eq!(a.to_data(), b.to_data());
/// ```
#[derive(Debug, Clone)]
pub struct FitContext {
    normalizer: Normalizer,
    x: Matrix,
    ranks: FeatureRanks,
}

impl FitContext {
    /// Normalizes `x` (`n x d`) and ranks each of its features.
    ///
    /// # Errors
    ///
    /// [`ModelError::EmptyTrainingSet`] for a design without rows or
    /// columns; [`ModelError::NonFinite`] (context `"design matrix"`) if
    /// any entry is NaN or infinite.
    pub fn new(x: &Matrix) -> Result<Self, ModelError> {
        check_design(x)?;
        let normalizer = Normalizer::fit(x);
        let x = normalizer.transform_matrix(x);
        let ranks = FeatureRanks::new(&x);
        Ok(FitContext {
            normalizer,
            x,
            ranks,
        })
    }

    /// The normalizer fitted on the raw design.
    pub(crate) fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// The normalized design.
    pub(crate) fn x(&self) -> &Matrix {
        &self.x
    }

    /// Per-feature ranks of the normalized design.
    pub(crate) fn ranks(&self) -> &FeatureRanks {
        &self.ranks
    }
}

/// The preconditions of every fit on `x`: at least one row and one
/// column, and only finite entries.
pub(crate) fn check_design(x: &Matrix) -> Result<(), ModelError> {
    if x.rows() == 0 || x.cols() == 0 {
        return Err(ModelError::EmptyTrainingSet);
    }
    if !x.as_slice().iter().all(|v| v.is_finite()) {
        return Err(ModelError::NonFinite {
            context: "design matrix",
        });
    }
    Ok(())
}

/// [`ModelError::SampleCountMismatch`] unless `y` has one target per row
/// of `x`.
pub(crate) fn check_targets(x: &Matrix, y: &[f64]) -> Result<(), ModelError> {
    if x.rows() != y.len() {
        return Err(ModelError::SampleCountMismatch {
            features: x.rows(),
            targets: y.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_non_finite_designs() {
        assert_eq!(
            FitContext::new(&Matrix::zeros(0, 3)).unwrap_err(),
            ModelError::EmptyTrainingSet
        );
        assert_eq!(
            FitContext::new(&Matrix::zeros(3, 0)).unwrap_err(),
            ModelError::EmptyTrainingSet
        );
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let x = Matrix::from_rows(&[&[0.0, 1.0], &[bad, 2.0], &[1.0, 3.0]]);
            assert_eq!(
                FitContext::new(&x).unwrap_err(),
                ModelError::NonFinite {
                    context: "design matrix"
                }
            );
        }
    }

    #[test]
    fn holds_the_normalized_design() {
        let x = Matrix::from_rows(&[&[2.0, 10.0], &[4.0, 30.0], &[6.0, 20.0]]);
        let ctx = FitContext::new(&x).unwrap();
        let normalizer = Normalizer::fit(&x);
        assert_eq!(ctx.normalizer(), &normalizer);
        assert_eq!(ctx.x(), &normalizer.transform_matrix(&x));
        assert!(matches!(
            check_targets(ctx.x(), &[1.0, 2.0]),
            Err(ModelError::SampleCountMismatch {
                features: 3,
                targets: 2
            })
        ));
    }
}
