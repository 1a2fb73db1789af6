//! The hybrid neuro-wavelet predictive model (paper §2.3 / Figure 6).

use crate::campaign::{fan_out, threads_from_env};
use crate::dataset::TraceSet;
use crate::recovery::{CoeffRecovery, DegradationReport, RecoveryPolicy, RecoveryRung};
use dynawave_neural::{
    FitContext, LinearModel, ModelError, Normalizer, RbfNetwork, RbfNetworkData, RbfParams,
};
use dynawave_numeric::{fault, Matrix};
use dynawave_sampling::DesignPoint;
use dynawave_wavelet::{select, wavedec, waverec, Decomposition, Wavelet};

/// How the set of predicted wavelet coefficients is chosen (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoefficientSelection {
    /// Keep the `k` coefficients with the largest mean magnitude across
    /// the training set (the paper's choice — "it always outperforms the
    /// order-based scheme").
    #[default]
    Magnitude,
    /// Keep the first `k` coefficients in coarse-to-fine order.
    Order,
}

/// Which regression model predicts each wavelet coefficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelKind {
    /// RBF network with regression-tree center selection (the paper's
    /// model).
    #[default]
    TreeRbf,
    /// RBF network with deterministically scattered centers (ablation).
    RandomRbf,
    /// Ridge-regularized linear regression (ablation baseline).
    Linear,
}

/// Hyper-parameters of [`WaveletNeuralPredictor::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorParams {
    /// Mother wavelet for decomposition/reconstruction.
    pub wavelet: Wavelet,
    /// Number of wavelet coefficients to predict (the paper settles on
    /// 16 of 128 as the accuracy/complexity sweet spot, Figure 9).
    pub coefficients: usize,
    /// Selection scheme for the predicted coefficients.
    pub selection: CoefficientSelection,
    /// Per-coefficient regression model.
    pub model: ModelKind,
    /// RBF network hyper-parameters (ignored for [`ModelKind::Linear`]).
    pub rbf: RbfParams,
    /// Unit count for [`ModelKind::RandomRbf`].
    pub random_centers: usize,
}

impl Default for PredictorParams {
    fn default() -> Self {
        PredictorParams {
            wavelet: Wavelet::Haar,
            coefficients: 16,
            selection: CoefficientSelection::Magnitude,
            model: ModelKind::TreeRbf,
            rbf: RbfParams::default(),
            random_centers: 24,
        }
    }
}

/// One trained per-coefficient regressor.
#[derive(Debug, Clone)]
enum CoeffModel {
    Rbf(RbfNetwork),
    Linear(LinearModel),
    /// Training-set-mean constant: the last rung of the recovery ladder.
    Constant(f64),
}

impl CoeffModel {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            CoeffModel::Rbf(m) => m.predict(x),
            CoeffModel::Linear(m) => m.predict(x),
            CoeffModel::Constant(v) => *v,
        }
    }

    /// `true` when every fitted parameter is finite (a non-finite model
    /// predicts NaN everywhere and must be escalated, not kept).
    fn parameters_are_finite(&self) -> bool {
        match self {
            CoeffModel::Rbf(m) => m.parameters_are_finite(),
            CoeffModel::Linear(m) => m.parameters_are_finite(),
            CoeffModel::Constant(v) => v.is_finite(),
        }
    }
}

/// The paper's hybrid scheme: wavelet decomposition, one neural network
/// per retained coefficient, inverse transform for forecasting (Figure 6).
///
/// Train with [`WaveletNeuralPredictor::train`] on a [`TraceSet`] gathered
/// from simulations, then [`WaveletNeuralPredictor::predict`] workload
/// dynamics at unsimulated design points.
#[derive(Debug, Clone)]
pub struct WaveletNeuralPredictor {
    wavelet: Wavelet,
    trace_len: usize,
    indices: Vec<usize>,
    models: Vec<CoeffModel>,
    params: PredictorParams,
}

impl WaveletNeuralPredictor {
    /// Trains the predictor on `train`.
    ///
    /// Every training trace is decomposed; the coefficient subset is
    /// selected per `params.selection`; one regressor per coefficient maps
    /// the design vector to the coefficient value.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the training set is empty, traces have
    /// inconsistent or non-power-of-two lengths, or a regressor fails to
    /// fit. Training fails fast on the first fit failure; use
    /// [`WaveletNeuralPredictor::train_resilient`] for the recovery-ladder
    /// variant that degrades instead of aborting.
    pub fn train(train: &TraceSet, params: &PredictorParams) -> Result<Self, ModelError> {
        let (model, _) = Self::train_resilient(train, params, &RecoveryPolicy::strict())?;
        Ok(model)
    }

    /// Trains like [`WaveletNeuralPredictor::train`], but per-coefficient
    /// fit failures descend a recovery ladder instead of aborting: the
    /// configured model is retried with escalating ridge regularization,
    /// then replaced by a ridge-linear fallback, then by the training-set
    /// mean of the coefficient (see [`RecoveryPolicy`]). The returned
    /// [`DegradationReport`] records which rung every coefficient landed
    /// on. Fits that return non-finite parameters are treated as failures
    /// and escalated.
    ///
    /// With the default policy the per-coefficient stage is infallible:
    /// the mean rung always succeeds on a finite training set.
    ///
    /// The coefficients are fitted on up to [`threads_from_env`] workers
    /// (one when `DYNAWAVE_THREADS` is invalid), and on the calling thread
    /// alone while a [`fault`] plan is installed: a plan is a per-thread
    /// RNG consulted in call order. The trained model, the report and the
    /// traced event stream are the same for every worker count.
    ///
    /// # Errors
    ///
    /// Structural problems (empty set, ragged or non-power-of-two traces,
    /// a design point with a NaN or infinite parameter) are never
    /// recoverable and still error. Fit failures error only when
    /// `policy` forbids the remaining rungs (for example
    /// [`RecoveryPolicy::strict`]).
    pub fn train_resilient(
        train: &TraceSet,
        params: &PredictorParams,
        policy: &RecoveryPolicy,
    ) -> Result<(Self, DegradationReport), ModelError> {
        let workers = if fault::active() {
            1
        } else {
            threads_from_env().unwrap_or(1)
        };
        Self::train_on(train, params, policy, workers)
    }

    /// [`WaveletNeuralPredictor::train_resilient`] on up to `workers`
    /// workers.
    pub(crate) fn train_on(
        train: &TraceSet,
        params: &PredictorParams,
        policy: &RecoveryPolicy,
        workers: usize,
    ) -> Result<(Self, DegradationReport), ModelError> {
        let _span = dynawave_obs::span("predictor.train");
        let (trace_len, dims) = match (train.traces.first(), train.points.first()) {
            (Some(trace), Some(point)) => (trace.len(), point.values().len()),
            _ => return Err(ModelError::EmptyTrainingSet),
        };
        if train.points.len() != train.traces.len() {
            return Err(ModelError::SampleCountMismatch {
                features: train.points.len(),
                targets: train.traces.len(),
            });
        }
        // Decompose every training trace.
        let mut coeff_rows = Vec::with_capacity(train.len());
        for trace in &train.traces {
            if trace.len() != trace_len {
                return Err(ModelError::DimensionMismatch {
                    expected: trace_len,
                    got: trace.len(),
                });
            }
            let dec = wavedec(trace, params.wavelet).map_err(|_| ModelError::EmptyTrainingSet)?;
            coeff_rows.push(dec.into_coeffs());
        }
        // Coefficient selection on the training set.
        let k = params.coefficients.min(trace_len);
        let indices = match params.selection {
            CoefficientSelection::Magnitude => {
                let mut mean_mag = vec![0.0f64; trace_len];
                for row in &coeff_rows {
                    for (m, &c) in mean_mag.iter_mut().zip(row) {
                        *m += c.abs();
                    }
                }
                select::top_k_by_magnitude(&mean_mag, k)
            }
            CoefficientSelection::Order => select::first_k(trace_len, k),
        };
        // Design matrix shared by all per-coefficient regressors.
        let mut xdata = Vec::with_capacity(train.len() * dims);
        for p in &train.points {
            xdata.extend_from_slice(p.values());
        }
        let x = Matrix::from_vec(train.len(), dims, xdata)?;
        // Normalization and feature ranks depend on the design alone, so
        // every coefficient's fit shares them.
        let ctx = FitContext::new(&x)?;
        // One regressor per selected coefficient; training is independent
        // per coefficient, which is what keeps each sub-network simple,
        // lets one coefficient degrade without touching the rest, and lets
        // the fits run on several threads with the same bits.
        let fitted = fan_out(indices.len(), workers, |rank| {
            let idx = indices[rank];
            let y: Vec<f64> = coeff_rows.iter().map(|row| row[idx]).collect();
            fit_coefficient(&ctx, &y, rank, idx, params, policy)
        })?;
        let (models, records): (Vec<_>, Vec<_>) = fitted.into_iter().unzip();
        if dynawave_obs::is_enabled() {
            // Fraction of training-set coefficient energy the selected
            // subset carries (the paper's accuracy/complexity dial).
            let total: f64 = coeff_rows
                .iter()
                .flat_map(|row| row.iter())
                .map(|c| c * c)
                .sum();
            let kept: f64 = coeff_rows
                .iter()
                .flat_map(|row| indices.iter().map(|&i| row[i]))
                .map(|c| c * c)
                .sum();
            if total > 0.0 {
                dynawave_obs::gauge_set("wavelet.coeff_energy_retained", kept / total);
            }
            for r in &records {
                let name = format!("neural.fit_attempts.{}", r.rung.name());
                dynawave_obs::counter_add(&name, u64::from(r.attempts));
            }
        }
        Ok((
            WaveletNeuralPredictor {
                wavelet: params.wavelet,
                trace_len,
                indices,
                models,
                params: params.clone(),
            },
            DegradationReport::from_records(records),
        ))
    }

    /// Forecasts the workload-dynamics trace at a design point.
    ///
    /// Unselected coefficients are approximated with zero, exactly as in
    /// the paper's reconstruction step.
    ///
    /// # Panics
    ///
    /// Panics if the point's dimensionality differs from training.
    pub fn predict(&self, point: &DesignPoint) -> Vec<f64> {
        let _span = dynawave_obs::span("predictor.predict");
        let mut coeffs = vec![0.0; self.trace_len];
        for (&idx, model) in self.indices.iter().zip(&self.models) {
            let v = model.predict(point.values());
            // Sanitize at the crate boundary: a non-finite coefficient
            // (e.g. from a degraded or faulted sub-model) would poison the
            // whole reconstruction; approximate it with zero like an
            // unselected coefficient instead.
            coeffs[idx] = if v.is_finite() { v } else { 0.0 };
        }
        let dec = Decomposition::from_coeffs(coeffs, self.wavelet);
        // The coefficient count matches `trace_len` by construction, so
        // reconstruction cannot fail; degrade to the zero trace rather
        // than aborting a campaign if that invariant is ever broken.
        waverec(&dec).unwrap_or_else(|_| vec![0.0; self.trace_len])
    }

    /// Indices of the predicted coefficients, most significant first.
    pub fn coefficient_indices(&self) -> &[usize] {
        &self.indices
    }

    /// The per-coefficient RBF networks (empty for linear models), most
    /// significant coefficient first. Used for the Figure 11 star plots.
    pub fn networks(&self) -> Vec<&RbfNetwork> {
        self.models
            .iter()
            .filter_map(|m| match m {
                CoeffModel::Rbf(n) => Some(n),
                CoeffModel::Linear(_) | CoeffModel::Constant(_) => None,
            })
            .collect()
    }

    /// The training hyper-parameters.
    pub fn params(&self) -> &PredictorParams {
        &self.params
    }

    /// The trace length (number of samples) the model forecasts.
    pub fn trace_len(&self) -> usize {
        self.trace_len
    }

    /// Snapshots the trained predictor into a [`PortableModel`] for
    /// persistence (see [`crate::persist`]). Regression-tree
    /// introspection (the Figure 11 star plots) is not preserved.
    pub fn to_portable(&self) -> PortableModel {
        PortableModel {
            wavelet: self.wavelet,
            trace_len: self.trace_len,
            indices: self.indices.clone(),
            models: self
                .models
                .iter()
                .map(|m| match m {
                    CoeffModel::Rbf(net) => PortableCoeffModel::Rbf(net.to_data()),
                    CoeffModel::Linear(lin) => PortableCoeffModel::Linear {
                        mins: lin.normalizer().mins().to_vec(),
                        spans: lin.normalizer().spans().to_vec(),
                        weights: lin.weights().to_vec(),
                        bias: lin.bias(),
                    },
                    CoeffModel::Constant(v) => PortableCoeffModel::Constant(*v),
                })
                .collect(),
        }
    }

    /// Rebuilds a predictor from a snapshot.
    ///
    /// # Errors
    ///
    /// [`ModelError::DimensionMismatch`] if the snapshot is internally
    /// inconsistent (index/model count mismatch, out-of-range indices or
    /// malformed sub-models).
    pub fn from_portable(portable: PortableModel) -> Result<Self, ModelError> {
        if portable.indices.len() != portable.models.len() {
            return Err(ModelError::DimensionMismatch {
                expected: portable.indices.len(),
                got: portable.models.len(),
            });
        }
        if portable.trace_len < 2 || !portable.trace_len.is_power_of_two() {
            return Err(ModelError::DimensionMismatch {
                expected: portable.trace_len.next_power_of_two().max(2),
                got: portable.trace_len,
            });
        }
        if let Some(&bad) = portable.indices.iter().find(|&&i| i >= portable.trace_len) {
            return Err(ModelError::DimensionMismatch {
                expected: portable.trace_len,
                got: bad,
            });
        }
        let models = portable
            .models
            .into_iter()
            .map(|m| match m {
                PortableCoeffModel::Rbf(data) => RbfNetwork::from_data(data).map(CoeffModel::Rbf),
                PortableCoeffModel::Linear {
                    mins,
                    spans,
                    weights,
                    bias,
                } => LinearModel::from_parts(Normalizer::from_parts(mins, spans), weights, bias)
                    .map(CoeffModel::Linear),
                PortableCoeffModel::Constant(v) => {
                    if v.is_finite() {
                        Ok(CoeffModel::Constant(v))
                    } else {
                        Err(ModelError::NonFinite {
                            context: "portable constant sub-model",
                        })
                    }
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(WaveletNeuralPredictor {
            wavelet: portable.wavelet,
            trace_len: portable.trace_len,
            indices: portable.indices,
            models,
            params: PredictorParams {
                wavelet: portable.wavelet,
                ..PredictorParams::default()
            },
        })
    }
}

/// Fits one coefficient's regressor with the configured model kind and an
/// explicit ridge strength (the knob the recovery ladder escalates).
fn fit_primary(
    ctx: &FitContext,
    y: &[f64],
    rank: usize,
    params: &PredictorParams,
    lambda: f64,
) -> Result<CoeffModel, ModelError> {
    match params.model {
        ModelKind::TreeRbf => {
            let rbf = RbfParams {
                ridge_lambda: lambda,
                ..params.rbf.clone()
            };
            RbfNetwork::fit_in(ctx, y, &rbf).map(CoeffModel::Rbf)
        }
        ModelKind::RandomRbf => {
            let rbf = RbfParams {
                ridge_lambda: lambda,
                ..params.rbf.clone()
            };
            RbfNetwork::fit_with_random_centers_in(ctx, y, params.random_centers, &rbf, rank as u64)
                .map(CoeffModel::Rbf)
        }
        ModelKind::Linear => LinearModel::fit_in(ctx, y, lambda).map(CoeffModel::Linear),
    }
}

/// Walks one coefficient down the recovery ladder until a rung produces a
/// finite model or `policy` forbids descending further.
fn fit_coefficient(
    ctx: &FitContext,
    y: &[f64],
    rank: usize,
    coefficient: usize,
    params: &PredictorParams,
    policy: &RecoveryPolicy,
) -> Result<(CoeffModel, CoeffRecovery), ModelError> {
    let mut attempts = 0u32;
    let mut last_err = ModelError::Internal("recovery ladder made no fit attempt");
    // Rungs 1–2: the configured model, ridge penalty growing per retry.
    for escalation in 0..=policy.ridge_escalations {
        attempts += 1;
        let lambda = params.rbf.ridge_lambda * policy.ridge_growth.powi(escalation as i32);
        match fit_primary(ctx, y, rank, params, lambda) {
            Ok(model) if model.parameters_are_finite() => {
                let rung = if escalation == 0 {
                    RecoveryRung::Primary
                } else {
                    RecoveryRung::EscalatedRidge { escalation }
                };
                return Ok((
                    model,
                    CoeffRecovery {
                        coefficient,
                        rung,
                        attempts,
                    },
                ));
            }
            Ok(_) => {
                last_err = ModelError::NonFinite {
                    context: "coefficient regressor",
                };
            }
            Err(e) => last_err = e,
        }
    }
    // Rung 3: ridge-linear fallback, defined for any non-degenerate design.
    if policy.allow_linear {
        attempts += 1;
        match LinearModel::fit_in(ctx, y, params.rbf.ridge_lambda.max(1e-6)) {
            Ok(m) if m.parameters_are_finite() => {
                return Ok((
                    CoeffModel::Linear(m),
                    CoeffRecovery {
                        coefficient,
                        rung: RecoveryRung::LinearFallback,
                        attempts,
                    },
                ));
            }
            Ok(_) => {
                last_err = ModelError::NonFinite {
                    context: "linear fallback",
                };
            }
            Err(e) => last_err = e,
        }
    }
    // Rung 4: the training-set mean. Infallible: a non-finite mean (which
    // would require non-finite training targets) degrades to zero.
    if policy.allow_mean {
        attempts += 1;
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        return Ok((
            CoeffModel::Constant(if mean.is_finite() { mean } else { 0.0 }),
            CoeffRecovery {
                coefficient,
                rung: RecoveryRung::MeanFallback,
                attempts,
            },
        ));
    }
    Err(last_err)
}

/// Portable snapshot of a trained [`WaveletNeuralPredictor`].
#[derive(Debug, Clone, PartialEq)]
pub struct PortableModel {
    /// Mother wavelet used for reconstruction.
    pub wavelet: Wavelet,
    /// Forecast trace length.
    pub trace_len: usize,
    /// Predicted coefficient indices, most significant first.
    pub indices: Vec<usize>,
    /// Per-coefficient sub-models, parallel to `indices`.
    pub models: Vec<PortableCoeffModel>,
}

/// Snapshot of one per-coefficient regressor.
#[derive(Debug, Clone, PartialEq)]
pub enum PortableCoeffModel {
    /// A Gaussian RBF network.
    Rbf(RbfNetworkData),
    /// A ridge-linear model.
    Linear {
        /// Normalizer minima.
        mins: Vec<f64>,
        /// Normalizer spans.
        spans: Vec<f64>,
        /// Normalized-space weights.
        weights: Vec<f64>,
        /// Intercept.
        bias: f64,
    },
    /// A constant (training-set-mean) fallback model.
    Constant(f64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Metric;
    use dynawave_workloads::Benchmark;

    /// Builds a synthetic trace set from an analytic response surface so
    /// tests do not need the simulator.
    fn synthetic_set(n: usize, samples: usize) -> TraceSet {
        let mut points = Vec::new();
        let mut traces = Vec::new();
        for i in 0..n {
            let a = (i % 5) as f64;
            let b = ((i / 5) % 5) as f64;
            let point = DesignPoint::new(vec![a, b]);
            // Dynamics: mean level set by a, oscillation amplitude by b.
            let trace: Vec<f64> = (0..samples)
                .map(|s| {
                    let t = s as f64 / samples as f64;
                    1.0 + 0.5 * a + 0.3 * b * (std::f64::consts::TAU * 3.0 * t).sin()
                })
                .collect();
            points.push(point);
            traces.push(trace);
        }
        TraceSet {
            benchmark: Benchmark::Gcc,
            metric: Metric::Cpi,
            points,
            traces,
        }
    }

    #[test]
    fn learns_synthetic_dynamics() {
        let set = synthetic_set(25, 64);
        let model = WaveletNeuralPredictor::train(&set, &PredictorParams::default()).unwrap();
        // Predict at a training-adjacent point and compare to the truth.
        let probe = DesignPoint::new(vec![2.0, 3.0]);
        let pred = model.predict(&probe);
        let truth: Vec<f64> = (0..64)
            .map(|s| {
                let t = s as f64 / 64.0;
                1.0 + 0.5 * 2.0 + 0.3 * 3.0 * (std::f64::consts::TAU * 3.0 * t).sin()
            })
            .collect();
        let nmse = dynawave_numeric::stats::nmse_percent(&truth, &pred);
        assert!(nmse < 8.0, "NMSE {nmse}%");
    }

    #[test]
    fn magnitude_selection_picks_energetic_coefficients() {
        let set = synthetic_set(25, 64);
        let model = WaveletNeuralPredictor::train(&set, &PredictorParams::default()).unwrap();
        // The approximation coefficient (index 0) dominates these traces.
        assert_eq!(model.coefficient_indices()[0], 0);
        assert_eq!(model.coefficient_indices().len(), 16);
        assert_eq!(model.trace_len(), 64);
    }

    #[test]
    fn order_selection_takes_prefix() {
        let set = synthetic_set(10, 32);
        let params = PredictorParams {
            selection: CoefficientSelection::Order,
            coefficients: 4,
            ..PredictorParams::default()
        };
        let model = WaveletNeuralPredictor::train(&set, &params).unwrap();
        assert_eq!(model.coefficient_indices(), &[0, 1, 2, 3]);
    }

    #[test]
    fn linear_kind_trains_without_networks() {
        let set = synthetic_set(10, 32);
        let params = PredictorParams {
            model: ModelKind::Linear,
            ..PredictorParams::default()
        };
        let model = WaveletNeuralPredictor::train(&set, &params).unwrap();
        assert!(model.networks().is_empty());
        assert_eq!(model.predict(&DesignPoint::new(vec![1.0, 1.0])).len(), 32);
    }

    #[test]
    fn random_rbf_kind_trains() {
        let set = synthetic_set(12, 32);
        let params = PredictorParams {
            model: ModelKind::RandomRbf,
            random_centers: 8,
            ..PredictorParams::default()
        };
        let model = WaveletNeuralPredictor::train(&set, &params).unwrap();
        assert_eq!(model.networks().len(), 16);
    }

    #[test]
    fn more_coefficients_reduce_training_error() {
        let set = synthetic_set(25, 64);
        let err = |k: usize| {
            let params = PredictorParams {
                coefficients: k,
                ..PredictorParams::default()
            };
            let model = WaveletNeuralPredictor::train(&set, &params).unwrap();
            let mut total = 0.0;
            for (p, t) in set.points.iter().zip(&set.traces) {
                total += dynawave_numeric::stats::nmse_percent(t, &model.predict(p));
            }
            total / set.len() as f64
        };
        assert!(err(16) <= err(2) + 1e-9);
    }

    #[test]
    fn portable_roundtrip_predicts_identically() {
        let set = synthetic_set(20, 32);
        let model = WaveletNeuralPredictor::train(&set, &PredictorParams::default()).unwrap();
        let rebuilt = WaveletNeuralPredictor::from_portable(model.to_portable()).unwrap();
        let probe = DesignPoint::new(vec![2.0, 2.0]);
        assert_eq!(model.predict(&probe), rebuilt.predict(&probe));
        assert_eq!(model.coefficient_indices(), rebuilt.coefficient_indices());
    }

    #[test]
    fn portable_rejects_inconsistencies() {
        let set = synthetic_set(20, 32);
        let model = WaveletNeuralPredictor::train(&set, &PredictorParams::default()).unwrap();
        let mut p = model.to_portable();
        p.indices.pop();
        assert!(WaveletNeuralPredictor::from_portable(p).is_err());
        let mut p = model.to_portable();
        p.trace_len = 33;
        assert!(WaveletNeuralPredictor::from_portable(p).is_err());
        let mut p = model.to_portable();
        p.indices[0] = 999;
        assert!(WaveletNeuralPredictor::from_portable(p).is_err());
    }

    #[test]
    fn empty_training_set_errors() {
        let set = TraceSet {
            benchmark: Benchmark::Gcc,
            metric: Metric::Cpi,
            points: vec![],
            traces: vec![],
        };
        assert!(matches!(
            WaveletNeuralPredictor::train(&set, &PredictorParams::default()),
            Err(ModelError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn inconsistent_trace_lengths_error() {
        let mut set = synthetic_set(4, 32);
        set.traces[2] = vec![0.0; 16];
        assert!(WaveletNeuralPredictor::train(&set, &PredictorParams::default()).is_err());
    }

    #[test]
    fn resilient_training_is_pristine_on_clean_data() {
        let set = synthetic_set(12, 32);
        let (model, report) = WaveletNeuralPredictor::train_resilient(
            &set,
            &PredictorParams::default(),
            &RecoveryPolicy::default(),
        )
        .unwrap();
        assert!(report.is_pristine());
        assert_eq!(
            report.coefficient_count(),
            model.coefficient_indices().len()
        );
        // The report accounts for exactly the selected coefficients.
        let recorded: Vec<usize> = report.records().iter().map(|r| r.coefficient).collect();
        assert_eq!(recorded, model.coefficient_indices());
    }

    #[test]
    fn chaos_rbf_faults_degrade_to_linear_fallback() {
        use dynawave_numeric::fault::{self, FaultKind, FaultPlan, FaultSite};
        let set = synthetic_set(12, 32);
        let plan = FaultPlan::new(0xC0FFEE)
            .rate(1.0)
            .targeting(&[FaultSite::RbfWeightFit])
            .kinds(&[FaultKind::Singular]);
        let (out, _report) = fault::with_plan(plan, || {
            WaveletNeuralPredictor::train_resilient(
                &set,
                &PredictorParams::default(),
                &RecoveryPolicy::default(),
            )
        });
        let (model, degradation) = out.unwrap();
        // Every RBF fit fails, so every coefficient lands on the linear rung.
        assert_eq!(degradation.rung_counts(), [0, 0, 16, 0]);
        assert_eq!(degradation.degraded_count(), 16);
        assert!(model.networks().is_empty());
        let pred = model.predict(&DesignPoint::new(vec![2.0, 2.0]));
        assert!(pred.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn chaos_non_finite_fits_are_escalated_not_kept() {
        use dynawave_numeric::fault::{self, FaultKind, FaultPlan, FaultSite};
        let set = synthetic_set(12, 32);
        let plan = FaultPlan::new(7)
            .rate(1.0)
            .targeting(&[FaultSite::RbfWeightFit])
            .kinds(&[FaultKind::NonFinite]);
        let (out, _report) = fault::with_plan(plan, || {
            WaveletNeuralPredictor::train_resilient(
                &set,
                &PredictorParams::default(),
                &RecoveryPolicy::default(),
            )
        });
        let (model, degradation) = out.unwrap();
        // NaN weights must never survive as a "successful" fit.
        assert_eq!(degradation.degraded_count(), 16);
        let pred = model.predict(&DesignPoint::new(vec![1.0, 3.0]));
        assert!(pred.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn chaos_mean_fallback_when_linear_also_fails() {
        use dynawave_numeric::fault::{self, FaultKind, FaultPlan, FaultSite};
        let set = synthetic_set(12, 32);
        let plan = FaultPlan::new(11)
            .rate(1.0)
            .targeting(&[FaultSite::RbfWeightFit, FaultSite::RidgeSolve])
            .kinds(&[FaultKind::Singular]);
        let (out, _report) = fault::with_plan(plan, || {
            WaveletNeuralPredictor::train_resilient(
                &set,
                &PredictorParams::default(),
                &RecoveryPolicy::default(),
            )
        });
        let (model, degradation) = out.unwrap();
        assert_eq!(degradation.rung_counts(), [0, 0, 0, 16]);
        // All-constant model still reconstructs a finite trace, and its
        // portable snapshot round-trips bit-identically.
        let probe = DesignPoint::new(vec![2.0, 1.0]);
        let pred = model.predict(&probe);
        assert!(pred.iter().all(|v| v.is_finite()));
        let rebuilt = WaveletNeuralPredictor::from_portable(model.to_portable()).unwrap();
        assert_eq!(pred, rebuilt.predict(&probe));
    }

    #[test]
    fn non_finite_design_point_is_a_structural_error() {
        let mut set = synthetic_set(12, 32);
        set.points[3] = DesignPoint::new(vec![f64::NAN, 1.0]);
        let err = WaveletNeuralPredictor::train_resilient(
            &set,
            &PredictorParams::default(),
            &RecoveryPolicy::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ModelError::NonFinite {
                context: "design matrix"
            }
        );
    }

    #[test]
    fn ladder_attempt_budget() {
        use dynawave_numeric::fault::{self, FaultKind, FaultPlan, FaultSite};
        let set = synthetic_set(12, 32);
        let params = PredictorParams::default();
        // A clean strict fit takes one attempt per coefficient.
        let (_, clean) =
            WaveletNeuralPredictor::train_resilient(&set, &params, &RecoveryPolicy::strict())
                .unwrap();
        assert!(clean.records().iter().all(|r| r.attempts == 1));
        // With every solve failing, the default ladder spends its whole
        // budget: the primary fit, 3 ridge escalations, linear, mean.
        let plan = FaultPlan::new(5)
            .rate(1.0)
            .targeting(&[FaultSite::RbfWeightFit, FaultSite::RidgeSolve])
            .kinds(&[FaultKind::Singular]);
        let (out, _) = fault::with_plan(plan, || {
            WaveletNeuralPredictor::train_resilient(&set, &params, &RecoveryPolicy::default())
        });
        let (_, degraded) = out.unwrap();
        assert!(degraded.records().iter().all(|r| r.attempts == 6));
        assert_eq!(degraded.total_attempts(), 16 * 6);
    }

    #[test]
    fn chaos_strict_policy_still_fails_fast() {
        use dynawave_numeric::fault::{self, FaultKind, FaultPlan, FaultSite};
        let set = synthetic_set(12, 32);
        let plan = FaultPlan::new(3)
            .rate(1.0)
            .targeting(&[FaultSite::RbfWeightFit])
            .kinds(&[FaultKind::Singular]);
        let (out, _report) = fault::with_plan(plan, || {
            WaveletNeuralPredictor::train(&set, &PredictorParams::default())
        });
        assert!(out.is_err());
    }

    #[test]
    fn portable_rejects_non_finite_constant() {
        let set = synthetic_set(12, 32);
        let model = WaveletNeuralPredictor::train(&set, &PredictorParams::default()).unwrap();
        let mut p = model.to_portable();
        p.models[0] = PortableCoeffModel::Constant(f64::NAN);
        assert!(matches!(
            WaveletNeuralPredictor::from_portable(p),
            Err(ModelError::NonFinite { .. })
        ));
    }

    /// Simulated gcc training sets for all three domains, at a scale
    /// where a predictor keeps 16 coefficients and many RBF units.
    fn simulated_sets() -> [TraceSet; 3] {
        let cfg = crate::experiment::ExperimentConfig {
            train_points: 24,
            samples: 32,
            interval_instructions: 64,
            seed: 20261019,
            ..crate::experiment::ExperimentConfig::default()
        };
        crate::collect_domain_traces(Benchmark::Gcc, &cfg.train_design(), &cfg.sim_options())
    }

    /// Every trained bit of `model`, folded FNV-style: indices, and the
    /// bit pattern of every normalizer bound, centre, radius, weight and
    /// constant.
    fn bits_digest(model: &WaveletNeuralPredictor) -> u64 {
        let fold = |d: u64, v: u64| (d ^ v).wrapping_mul(0x0100_0000_01b3);
        let floats = |d: u64, vs: &[f64]| vs.iter().fold(d, |d, v| fold(d, v.to_bits()));
        let portable = model.to_portable();
        let mut d =
            (portable.indices.iter()).fold(0xcbf2_9ce4_8422_2325, |d, &i| fold(d, i as u64));
        for m in &portable.models {
            d = match m {
                PortableCoeffModel::Rbf(net) => {
                    let mut d = floats(floats(d, &net.mins), &net.spans);
                    for (c, r) in net.centers.iter().zip(&net.radii) {
                        d = floats(floats(d, c), r);
                    }
                    fold(
                        floats(d, &net.weights),
                        net.bias.map_or(u64::MAX, f64::to_bits),
                    )
                }
                PortableCoeffModel::Linear {
                    mins,
                    spans,
                    weights,
                    bias,
                } => fold(
                    floats(floats(floats(d, mins), spans), weights),
                    bias.to_bits(),
                ),
                PortableCoeffModel::Constant(v) => fold(d, v.to_bits()),
            };
        }
        d
    }

    #[test]
    fn trained_bits_and_reports_match_at_any_worker_count() {
        let policy = RecoveryPolicy::default();
        for set in simulated_sets() {
            for model in [ModelKind::TreeRbf, ModelKind::RandomRbf, ModelKind::Linear] {
                let params = PredictorParams {
                    model,
                    ..PredictorParams::default()
                };
                let k = params.coefficients;
                let (one, one_report) =
                    WaveletNeuralPredictor::train_on(&set, &params, &policy, 1).unwrap();
                for workers in [2, 3, 8, k + 5] {
                    let (many, report) =
                        WaveletNeuralPredictor::train_on(&set, &params, &policy, workers).unwrap();
                    assert_eq!(
                        bits_digest(&many),
                        bits_digest(&one),
                        "{} {model:?} at {workers} workers",
                        set.metric
                    );
                    assert_eq!(report, one_report, "{} at {workers} workers", set.metric);
                }
            }
        }
    }

    #[test]
    fn failing_coefficients_give_the_one_worker_error_at_any_worker_count() {
        // A (MAX, -MAX) sample pair overflows exactly one finest-level
        // Haar detail to infinity and leaves every other coefficient
        // finite: two pairs make coefficients 8 and 10 of 16 non-finite
        // targets, which the strict policy cannot recover.
        let mut set = synthetic_set(12, 16);
        for i in [0, 4] {
            set.traces[3][i] = f64::MAX;
            set.traces[3][i + 1] = -f64::MAX;
        }
        let params = PredictorParams {
            selection: CoefficientSelection::Order,
            ..PredictorParams::default()
        };
        let strict = RecoveryPolicy::strict();
        let one = WaveletNeuralPredictor::train_on(&set, &params, &strict, 1).unwrap_err();
        for workers in [2, 3, 8, 21] {
            let many = WaveletNeuralPredictor::train_on(&set, &params, &strict, workers);
            assert_eq!(many.unwrap_err(), one, "{workers} workers");
        }
        // The default ladder recovers exactly those two coefficients.
        let (_, report) =
            WaveletNeuralPredictor::train_on(&set, &params, &RecoveryPolicy::default(), 3).unwrap();
        let degraded: Vec<usize> = (report.records().iter())
            .filter(|r| r.rung != RecoveryRung::Primary)
            .map(|r| r.coefficient)
            .collect();
        assert_eq!(degraded, [8, 10]);
    }

    #[test]
    fn traced_training_streams_match_at_one_and_four_workers() {
        let set = &simulated_sets()[0];
        let params = PredictorParams::default();
        let policy = RecoveryPolicy::default();
        let traced = |recorder: dynawave_obs::Recorder, workers: usize| {
            let prior = dynawave_obs::install(recorder);
            WaveletNeuralPredictor::train_on(set, &params, &policy, workers).unwrap();
            let recorder = dynawave_obs::take().unwrap();
            if let Some(prior) = prior {
                dynawave_obs::install(prior);
            }
            let dropped = recorder.dropped();
            (dynawave_obs::encode_lines(&recorder.finish()), dropped)
        };
        let (one, _) = traced(dynawave_obs::Recorder::with_tick_clock(), 1);
        let (four, _) = traced(dynawave_obs::Recorder::with_tick_clock(), 4);
        assert_eq!(four, one);
        assert!(one.matches("neural.rbf_fit").count() >= 32, "{one}");
        assert!(dynawave_obs::validate_stream(&one).is_clean());
        // A ring smaller than the stream keeps the same last events.
        let ring = || dynawave_obs::Recorder::flight_recorder(40);
        let (one, dropped_one) = traced(ring(), 1);
        let (four, dropped_four) = traced(ring(), 4);
        assert_eq!(four, one);
        assert!(dropped_one > 0);
        assert_eq!(dropped_four, dropped_one);
        assert!(dynawave_obs::validate_stream(&one).is_clean());
    }
}
