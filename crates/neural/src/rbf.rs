//! Gaussian RBF networks with tree-derived or random centers.

use crate::basis::GaussianBasis;
use crate::context::{check_targets, FitContext};
use crate::normalize::Normalizer;
use crate::tree::{RegressionTree, TreeParams};
use crate::ModelError;
use dynawave_numeric::fault::{self, FaultKind, FaultSite};
use dynawave_numeric::{solve, Matrix, NumericError};

/// Hyper-parameters for [`RbfNetwork::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct RbfParams {
    /// Regression-tree parameters used for center/radius selection.
    pub tree: TreeParams,
    /// Multiplier applied to each node's half-extent to obtain the Gaussian
    /// radius. Larger values give smoother interpolation.
    pub radius_scale: f64,
    /// Floor for any radius component, in normalized input units, so that
    /// point-like nodes still have usable receptive fields.
    pub min_radius: f64,
    /// Ridge regularization for the output-weight fit.
    pub ridge_lambda: f64,
    /// Include a bias (constant) unit alongside the Gaussians.
    pub bias: bool,
}

impl Default for RbfParams {
    fn default() -> Self {
        RbfParams {
            tree: TreeParams::default(),
            radius_scale: 6.0,
            min_radius: 0.7,
            ridge_lambda: 3e-4,
            bias: true,
        }
    }
}

/// Portable snapshot of a trained [`RbfNetwork`]: everything needed to
/// reproduce its predictions (the regression tree used for center
/// placement is *not* included — introspection is lost on a round-trip).
#[derive(Debug, Clone, PartialEq)]
pub struct RbfNetworkData {
    /// Per-dimension normalizer minima.
    pub mins: Vec<f64>,
    /// Per-dimension normalizer spans.
    pub spans: Vec<f64>,
    /// Unit centers (normalized coordinates), one row per unit.
    pub centers: Vec<Vec<f64>>,
    /// Unit radius vectors, parallel to `centers`.
    pub radii: Vec<Vec<f64>>,
    /// Output weights, parallel to `centers`.
    pub weights: Vec<f64>,
    /// Bias weight, if the network was trained with one.
    pub bias: Option<f64>,
}

/// A trained radial-basis-function network: normalizer, Gaussian units and
/// ridge-fitted output weights.
///
/// Construct with [`RbfNetwork::fit`] (regression-tree centers, the paper's
/// method) or [`RbfNetwork::fit_with_random_centers`] (ablation baseline).
#[derive(Debug, Clone)]
pub struct RbfNetwork {
    normalizer: Normalizer,
    basis: GaussianBasis,
    weights: Vec<f64>,
    bias_weight: Option<f64>,
    tree: Option<RegressionTree>,
}

impl RbfNetwork {
    /// Trains a network on `x` (`n x d`) and targets `y` using
    /// regression-tree center selection.
    ///
    /// Every tree node (root, internal, leaf) contributes one Gaussian unit
    /// centered at the node's sample mean with radius proportional to the
    /// node's per-dimension extent, then output weights solve the
    /// ridge-regularized least-squares problem.
    ///
    /// # Errors
    ///
    /// [`ModelError::EmptyTrainingSet`], [`ModelError::NonFinite`] for a
    /// design holding a NaN or infinity, [`ModelError::SampleCountMismatch`]
    /// or a wrapped [`ModelError::Numeric`] if the weight solve fails.
    pub fn fit(x: &Matrix, y: &[f64], params: &RbfParams) -> Result<Self, ModelError> {
        Self::fit_in(&FitContext::new(x)?, y, params)
    }

    /// Trains a network like [`RbfNetwork::fit`] on the design `ctx` was
    /// built from, reusing its normalization and feature ranks.
    ///
    /// # Errors
    ///
    /// [`ModelError::SampleCountMismatch`] unless `y` has one target per
    /// design row, or a wrapped [`ModelError::Numeric`] if the weight
    /// solve fails.
    pub fn fit_in(ctx: &FitContext, y: &[f64], params: &RbfParams) -> Result<Self, ModelError> {
        let _span = dynawave_obs::span("neural.rbf_fit");
        check_targets(ctx.x(), y)?;
        let tree = RegressionTree::fit_ranked(ctx.x(), ctx.ranks(), y, &params.tree);
        let mut basis = GaussianBasis::with_capacity(ctx.x().cols(), tree.nodes().len());
        for node in tree.nodes() {
            let radius: Vec<f64> = (node.extent.iter())
                .map(|&e| (e * params.radius_scale).max(params.min_radius))
                .collect();
            basis.push(&node.center, &radius);
        }
        let (weights, bias_weight) = fit_weights(ctx.x(), y, &basis, params)?;
        Ok(RbfNetwork {
            normalizer: ctx.normalizer().clone(),
            basis,
            weights,
            bias_weight,
            tree: Some(tree),
        })
    }

    /// Trains a network whose centers are `n_centers` training points
    /// chosen deterministically from `seed`, with a shared isotropic radius.
    ///
    /// This is the "plain RBF" ablation baseline: identical output-weight
    /// fitting, but no tree-informed placement.
    ///
    /// # Errors
    ///
    /// As for [`RbfNetwork::fit`].
    pub fn fit_with_random_centers(
        x: &Matrix,
        y: &[f64],
        n_centers: usize,
        params: &RbfParams,
        seed: u64,
    ) -> Result<Self, ModelError> {
        Self::fit_with_random_centers_in(&FitContext::new(x)?, y, n_centers, params, seed)
    }

    /// [`RbfNetwork::fit_with_random_centers`] on the design `ctx` was
    /// built from.
    ///
    /// # Errors
    ///
    /// As for [`RbfNetwork::fit_in`].
    pub fn fit_with_random_centers_in(
        ctx: &FitContext,
        y: &[f64],
        n_centers: usize,
        params: &RbfParams,
        seed: u64,
    ) -> Result<Self, ModelError> {
        let xn = ctx.x();
        check_targets(xn, y)?;
        let n = xn.rows();
        let k = n_centers.clamp(1, n);
        // Deterministic stride-based subsample driven by the seed.
        let offset = (dynawave_numeric::rng::splitmix64(seed) as usize) % n;
        let radius = (1.0 / (k as f64).powf(1.0 / xn.cols() as f64)).max(params.min_radius)
            * params.radius_scale;
        let mut basis = GaussianBasis::with_capacity(xn.cols(), k);
        let radius = vec![radius; xn.cols()];
        for i in 0..k {
            basis.push(xn.row((offset + i * n / k) % n), &radius);
        }
        let (weights, bias_weight) = fit_weights(xn, y, &basis, params)?;
        Ok(RbfNetwork {
            normalizer: ctx.normalizer().clone(),
            basis,
            weights,
            bias_weight,
            tree: None,
        })
    }

    /// Number of Gaussian units.
    pub fn unit_count(&self) -> usize {
        self.basis.len()
    }

    /// The regression tree used for center selection, if any.
    ///
    /// `None` for networks built with random centers. The tree carries the
    /// split-order / split-frequency introspection used by the Figure 11
    /// star plots.
    pub fn tree(&self) -> Option<&RegressionTree> {
        self.tree.as_ref()
    }

    /// The Gaussian units, in the order of [`RbfNetwork::weights`].
    pub fn basis(&self) -> &GaussianBasis {
        &self.basis
    }

    /// The input normalizer learned from the training design.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// Output weights, one per unit.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Bias weight, if the network was trained with one.
    pub fn bias(&self) -> Option<f64> {
        self.bias_weight
    }

    /// Predicts the target for one raw (unnormalized) input vector:
    /// `bias + sum_u w_u * phi_u(xn)` at the normalized input `xn`, with
    /// the unit responses from [`GaussianBasis::responses`] and the terms
    /// added in unit order.
    ///
    /// Each call first draws [`FaultSite::RbfPredict`] from the installed
    /// fault plan, if any; a fault makes it return NaN.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn predict(&self, x: &[f64]) -> f64 {
        // Chaos-test hook: an injected fault here simulates a network that
        // silently emits NaN, exercising the caller's sanitization.
        if fault::inject(FaultSite::RbfPredict).is_some() {
            return f64::NAN;
        }
        let mut phi = vec![0.0; self.basis.len()];
        self.basis
            .responses(&self.normalizer.transform(x), &mut phi);
        (self.weights.iter().zip(&phi))
            .fold(self.bias_weight.unwrap_or(0.0), |out, (w, r)| out + w * r)
    }

    /// `true` when every fitted parameter (weights and bias) is finite.
    ///
    /// A network that fails this check predicts NaN everywhere; recovery
    /// policies treat it as a failed fit and escalate.
    pub fn parameters_are_finite(&self) -> bool {
        self.weights.iter().all(|w| w.is_finite()) && self.bias_weight.is_none_or(f64::is_finite)
    }

    /// Predicts targets for every row of `x`.
    pub fn predict_batch(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|r| self.predict(x.row(r))).collect()
    }

    /// Snapshots the network into a portable [`RbfNetworkData`].
    pub fn to_data(&self) -> RbfNetworkData {
        RbfNetworkData {
            mins: self.normalizer.mins().to_vec(),
            spans: self.normalizer.spans().to_vec(),
            centers: self.basis.units().map(|(center, _)| center).collect(),
            radii: self.basis.units().map(|(_, radius)| radius).collect(),
            weights: self.weights.clone(),
            bias: self.bias_weight,
        }
    }

    /// Rebuilds a network from a snapshot. The reconstructed network
    /// predicts identically but carries no regression tree
    /// ([`RbfNetwork::tree`] returns `None`).
    ///
    /// # Errors
    ///
    /// [`ModelError::DimensionMismatch`] if the snapshot's vectors are
    /// inconsistent; [`ModelError::EmptyTrainingSet`] for a unit-less
    /// snapshot.
    pub fn from_data(data: RbfNetworkData) -> Result<Self, ModelError> {
        if data.centers.is_empty() {
            return Err(ModelError::EmptyTrainingSet);
        }
        let dims = data.mins.len();
        if data.spans.len() != dims {
            return Err(ModelError::DimensionMismatch {
                expected: dims,
                got: data.spans.len(),
            });
        }
        if data.radii.len() != data.centers.len() || data.weights.len() != data.centers.len() {
            return Err(ModelError::DimensionMismatch {
                expected: data.centers.len(),
                got: data.radii.len().min(data.weights.len()),
            });
        }
        for (c, r) in data.centers.iter().zip(&data.radii) {
            if c.len() != dims || r.len() != dims || r.iter().any(|&v| v <= 0.0) {
                return Err(ModelError::DimensionMismatch {
                    expected: dims,
                    got: c.len().min(r.len()),
                });
            }
        }
        let mut basis = GaussianBasis::with_capacity(dims, data.centers.len());
        for (center, radius) in data.centers.iter().zip(&data.radii) {
            basis.push(center, radius);
        }
        Ok(RbfNetwork {
            normalizer: Normalizer::from_parts(data.mins, data.spans),
            basis,
            weights: data.weights,
            bias_weight: data.bias,
            tree: None,
        })
    }
}

fn fit_weights(
    xn: &Matrix,
    y: &[f64],
    basis: &GaussianBasis,
    params: &RbfParams,
) -> Result<(Vec<f64>, Option<f64>), ModelError> {
    // Chaos-test hook: force the output-weight fit to fail (or to return
    // silently poisoned weights) so recovery ladders can be exercised.
    if let Some(kind) = fault::inject(FaultSite::RbfWeightFit) {
        return match kind {
            FaultKind::Singular => Err(ModelError::Numeric(NumericError::Singular)),
            FaultKind::EarlyStop => Err(ModelError::Internal(
                "injected early termination of the weight fit",
            )),
            FaultKind::NonFinite => {
                Ok((vec![f64::NAN; basis.len()], params.bias.then_some(f64::NAN)))
            }
        };
    }
    let n = xn.rows();
    let cols = basis.len() + usize::from(params.bias);
    // Each row of the design matrix holds the unit responses at one
    // training point, then the bias column's 1.
    let mut design = vec![1.0; n * cols];
    for (r, row) in design.chunks_exact_mut(cols.max(1)).enumerate() {
        basis.responses(xn.row(r), row);
    }
    let phi = Matrix::from_vec(n, cols, design)?;
    let mut w = solve::ridge_regression(&phi, y, params.ridge_lambda)?;
    let bias_weight = if params.bias { w.pop() } else { None };
    Ok((w, bias_weight))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2d<F: Fn(f64, f64) -> f64>(n: usize, f: F) -> (Matrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (i as f64 / (n - 1) as f64, j as f64 / (n - 1) as f64);
                rows.extend([a, b]);
                y.push(f(a, b));
            }
        }
        (Matrix::from_vec(n * n, 2, rows).unwrap(), y)
    }

    #[test]
    fn fits_linear_surface() {
        let (x, y) = grid_2d(7, |a, b| 2.0 * a + b);
        let net = RbfNetwork::fit(&x, &y, &RbfParams::default()).unwrap();
        for (probe, want) in [([0.3, 0.3], 0.9), ([0.7, 0.2], 1.6)] {
            let got = net.predict(&probe);
            assert!((got - want).abs() < 0.15, "{got} vs {want}");
        }
    }

    #[test]
    fn fits_nonlinear_surface_better_than_mean() {
        let (x, y) = grid_2d(8, |a, b| (3.0 * a).sin() * (2.0 * b).cos());
        let net = RbfNetwork::fit(&x, &y, &RbfParams::default()).unwrap();
        let preds = net.predict_batch(&x);
        let nmse = dynawave_numeric::stats::nmse_percent(&y, &preds);
        assert!(nmse < 10.0, "training NMSE was {nmse}%");
    }

    #[test]
    fn random_center_network_trains() {
        let (x, y) = grid_2d(6, |a, b| a * b);
        let net =
            RbfNetwork::fit_with_random_centers(&x, &y, 12, &RbfParams::default(), 42).unwrap();
        assert_eq!(net.unit_count(), 12);
        assert!(net.tree().is_none());
        let preds = net.predict_batch(&x);
        let nmse = dynawave_numeric::stats::nmse_percent(&y, &preds);
        assert!(nmse < 50.0, "training NMSE was {nmse}%");
    }

    #[test]
    fn tree_is_exposed() {
        let (x, y) = grid_2d(5, |a, _| a);
        let net = RbfNetwork::fit(&x, &y, &RbfParams::default()).unwrap();
        assert!(net.tree().is_some());
        assert_eq!(net.unit_count(), net.tree().unwrap().node_count());
    }

    #[test]
    fn rejects_bad_shapes() {
        let x = Matrix::zeros(0, 0);
        assert!(matches!(
            RbfNetwork::fit(&x, &[], &RbfParams::default()),
            Err(ModelError::EmptyTrainingSet)
        ));
        let x = Matrix::zeros(4, 2);
        assert!(matches!(
            RbfNetwork::fit(&x, &[0.0; 3], &RbfParams::default()),
            Err(ModelError::SampleCountMismatch { .. })
        ));
    }

    #[test]
    fn rejects_a_non_finite_design() {
        let non_finite = ModelError::NonFinite {
            context: "design matrix",
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let (mut x, y) = grid_2d(4, |a, b| a + b);
            x[(5, 1)] = bad;
            let params = RbfParams::default();
            assert_eq!(RbfNetwork::fit(&x, &y, &params).unwrap_err(), non_finite);
            assert_eq!(
                RbfNetwork::fit_with_random_centers(&x, &y, 4, &params, 1).unwrap_err(),
                non_finite
            );
            assert_eq!(
                crate::LinearModel::fit(&x, &y, 1e-6).unwrap_err(),
                non_finite
            );
        }
    }

    #[test]
    fn fits_in_a_shared_context_match_standalone_fits() {
        let (x, y) = grid_2d(6, |a, b| (3.0 * a).sin() + b * b);
        let ctx = FitContext::new(&x).unwrap();
        let params = RbfParams::default();
        let y2: Vec<f64> = y.iter().map(|v| v * v).collect();
        for y in [&y, &y2] {
            let shared = RbfNetwork::fit_in(&ctx, y, &params).unwrap();
            assert_eq!(
                shared.to_data(),
                RbfNetwork::fit(&x, y, &params).unwrap().to_data()
            );
            let random = RbfNetwork::fit_with_random_centers_in(&ctx, y, 9, &params, 3).unwrap();
            assert_eq!(
                random.to_data(),
                RbfNetwork::fit_with_random_centers(&x, y, 9, &params, 3)
                    .unwrap()
                    .to_data()
            );
        }
        assert!(matches!(
            RbfNetwork::fit_in(&ctx, &y[1..], &params),
            Err(ModelError::SampleCountMismatch { .. })
        ));
    }

    #[test]
    fn constant_target_predicts_constant() {
        let (x, y_) = grid_2d(5, |_, _| 0.0);
        let y: Vec<f64> = y_.iter().map(|_| 7.5).collect();
        let net = RbfNetwork::fit(&x, &y, &RbfParams::default()).unwrap();
        // Ridge shrinkage leaves a tiny bias; just require near-constant.
        assert!((net.predict(&[0.5, 0.5]) - 7.5).abs() < 0.05);
        assert!((net.predict(&[0.1, 0.9]) - 7.5).abs() < 0.05);
    }

    #[test]
    fn snapshot_roundtrip_predicts_identically() {
        let (x, y) = grid_2d(6, |a, b| a + 2.0 * b);
        let net = RbfNetwork::fit(&x, &y, &RbfParams::default()).unwrap();
        let rebuilt = RbfNetwork::from_data(net.to_data()).unwrap();
        assert!(rebuilt.tree().is_none());
        for probe in [[0.1, 0.9], [0.5, 0.5], [0.77, 0.31]] {
            assert_eq!(net.predict(&probe), rebuilt.predict(&probe));
        }
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        let (x, y) = grid_2d(5, |a, _| a);
        let net = RbfNetwork::fit(&x, &y, &RbfParams::default()).unwrap();
        let mut data = net.to_data();
        data.weights.pop();
        assert!(RbfNetwork::from_data(data).is_err());
        let mut data = net.to_data();
        data.radii[0][0] = -1.0;
        assert!(RbfNetwork::from_data(data).is_err());
        let mut data = net.to_data();
        data.centers.clear();
        data.radii.clear();
        data.weights.clear();
        assert!(RbfNetwork::from_data(data).is_err());
    }

    #[test]
    fn injected_weight_fit_faults_surface_as_errors_or_nan_weights() {
        use dynawave_numeric::fault::{with_plan, FaultPlan};
        let (x, y) = grid_2d(5, |a, b| a + b);
        for kind in [FaultKind::Singular, FaultKind::EarlyStop] {
            let plan = FaultPlan::new(21)
                .rate(1.0)
                .targeting(&[FaultSite::RbfWeightFit])
                .kinds(&[kind]);
            let (r, report) = with_plan(plan, || RbfNetwork::fit(&x, &y, &RbfParams::default()));
            assert!(r.is_err(), "{} should fail the fit", kind.name());
            assert!(report.fired >= 1);
        }
        // NonFinite silently poisons the weights; the finite check catches it.
        let plan = FaultPlan::new(22)
            .rate(1.0)
            .targeting(&[FaultSite::RbfWeightFit])
            .kinds(&[FaultKind::NonFinite]);
        let (r, _) = with_plan(plan, || RbfNetwork::fit(&x, &y, &RbfParams::default()));
        let net = r.unwrap();
        assert!(!net.parameters_are_finite());
        let healthy = RbfNetwork::fit(&x, &y, &RbfParams::default()).unwrap();
        assert!(healthy.parameters_are_finite());
    }

    #[test]
    fn injected_predict_fault_returns_nan() {
        use dynawave_numeric::fault::{with_plan, FaultPlan};
        let (x, y) = grid_2d(5, |a, _| a);
        let net = RbfNetwork::fit(&x, &y, &RbfParams::default()).unwrap();
        let plan = FaultPlan::new(23)
            .rate(1.0)
            .targeting(&[FaultSite::RbfPredict]);
        let (v, report) = with_plan(plan, || net.predict(&[0.5, 0.5]));
        assert!(v.is_nan());
        assert_eq!(report.fired, 1);
        assert!(
            net.predict(&[0.5, 0.5]).is_finite(),
            "hook must be inert again"
        );
    }

    #[test]
    fn unit_response_peaks_at_center() {
        let mut basis = GaussianBasis::with_capacity(2, 1);
        basis.push(&[0.5, 0.5], &[0.2, 0.2]);
        let response = |x: [f64; 2]| {
            let mut out = [0.0];
            basis.responses(&x, &mut out);
            out[0]
        };
        let at_center = response([0.5, 0.5]);
        assert!((at_center - 1.0).abs() < 1e-12);
        assert!(response([0.9, 0.5]) < at_center);
        assert!(response([0.9, 0.9]) < response([0.9, 0.5]));
    }
}
