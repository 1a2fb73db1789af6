//! Ridge-regularized linear regression baseline.

use crate::context::{check_targets, FitContext};
use crate::normalize::Normalizer;
use crate::ModelError;
use dynawave_numeric::{solve, Matrix};

/// A linear model `y = w · x + b` fit by ridge regression on normalized
/// inputs.
///
/// The paper argues linear models "are usually inadequate for modeling the
/// non-linear dynamics of real-world workloads"; this baseline exists so
/// the `ablation_model` bench can quantify that claim against the RBF
/// networks.
///
/// # Examples
///
/// ```
/// use dynawave_neural::LinearModel;
/// use dynawave_numeric::Matrix;
///
/// let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
/// let y = [1.0, 3.0, 5.0, 7.0];
/// let m = LinearModel::fit(&x, &y, 1e-9).unwrap();
/// assert!((m.predict(&[1.5]) - 4.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct LinearModel {
    normalizer: Normalizer,
    weights: Vec<f64>,
    bias: f64,
}

impl LinearModel {
    /// Fits the model on `x` (`n x d`) and targets `y` with ridge strength
    /// `lambda`.
    ///
    /// # Errors
    ///
    /// [`ModelError::EmptyTrainingSet`], [`ModelError::NonFinite`] for a
    /// design holding a NaN or infinity, [`ModelError::SampleCountMismatch`]
    /// or a wrapped numeric failure.
    pub fn fit(x: &Matrix, y: &[f64], lambda: f64) -> Result<Self, ModelError> {
        Self::fit_in(&FitContext::new(x)?, y, lambda)
    }

    /// Fits the model like [`LinearModel::fit`] on the design `ctx` was
    /// built from, reusing its normalization.
    ///
    /// # Errors
    ///
    /// [`ModelError::SampleCountMismatch`] or a wrapped numeric failure.
    pub fn fit_in(ctx: &FitContext, y: &[f64], lambda: f64) -> Result<Self, ModelError> {
        let xn = ctx.x();
        check_targets(xn, y)?;
        // Augment with a bias column.
        let n = xn.rows();
        let d = xn.cols();
        let mut data = Vec::with_capacity(n * (d + 1));
        for r in 0..n {
            data.extend_from_slice(xn.row(r));
            data.push(1.0);
        }
        let design = Matrix::from_vec(n, d + 1, data)?;
        let mut w = solve::ridge_regression(&design, y, lambda)?;
        let bias = w
            .pop()
            .ok_or(ModelError::Internal("ridge fit returned no weights"))?;
        Ok(LinearModel {
            normalizer: ctx.normalizer().clone(),
            weights: w,
            bias,
        })
    }

    /// Predicts the target for one raw input vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let xn = self.normalizer.transform(x);
        self.bias
            + xn.iter()
                .zip(&self.weights)
                .map(|(a, b)| a * b)
                .sum::<f64>()
    }

    /// Predicts targets for every row of `x`.
    pub fn predict_batch(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|r| self.predict(x.row(r))).collect()
    }

    /// Normalized-space coefficients (one per input dimension).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The fitted intercept (normalized space).
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// The input normalizer.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// `true` when every fitted parameter (weights and bias) is finite.
    ///
    /// A model that fails this check predicts NaN everywhere; recovery
    /// policies treat it as a failed fit and escalate.
    pub fn parameters_are_finite(&self) -> bool {
        self.bias.is_finite() && self.weights.iter().all(|w| w.is_finite())
    }

    /// Rebuilds a model from its parts (see [`LinearModel::weights`],
    /// [`LinearModel::bias`] and [`LinearModel::normalizer`]).
    ///
    /// # Errors
    ///
    /// [`ModelError::DimensionMismatch`] if `weights.len()` differs from
    /// the normalizer's dimensionality.
    pub fn from_parts(
        normalizer: Normalizer,
        weights: Vec<f64>,
        bias: f64,
    ) -> Result<Self, ModelError> {
        if weights.len() != normalizer.dims() {
            return Err(ModelError::DimensionMismatch {
                expected: normalizer.dims(),
                got: weights.len(),
            });
        }
        Ok(LinearModel {
            normalizer,
            weights,
            bias,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_plane() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                rows.extend([i as f64, j as f64]);
                y.push(3.0 * i as f64 - 2.0 * j as f64 + 1.0);
            }
        }
        let x = Matrix::from_vec(16, 2, rows).unwrap();
        let m = LinearModel::fit(&x, &y, 1e-10).unwrap();
        assert!((m.predict(&[2.0, 2.0]) - 3.0).abs() < 1e-6);
        assert!((m.predict(&[0.0, 3.0]) + 5.0).abs() < 1e-6);
    }

    #[test]
    fn underfits_quadratic() {
        let x = Matrix::from_rows(&[&[-2.0], &[-1.0], &[0.0], &[1.0], &[2.0]]);
        let y = [4.0, 1.0, 0.0, 1.0, 4.0];
        let m = LinearModel::fit(&x, &y, 1e-10).unwrap();
        // A line through an even function is flat: everything predicts ~mean.
        assert!((m.predict(&[0.0]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn parts_roundtrip() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let y = [1.0, 2.0, 3.0];
        let m = LinearModel::fit(&x, &y, 1e-9).unwrap();
        let rebuilt =
            LinearModel::from_parts(m.normalizer().clone(), m.weights().to_vec(), m.bias())
                .unwrap();
        assert_eq!(m.predict(&[1.5]), rebuilt.predict(&[1.5]));
        assert!(LinearModel::from_parts(m.normalizer().clone(), vec![], 0.0).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        let x = Matrix::zeros(2, 1);
        assert!(matches!(
            LinearModel::fit(&x, &[1.0], 0.1),
            Err(ModelError::SampleCountMismatch { .. })
        ));
    }
}
