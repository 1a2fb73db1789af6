//! The hybrid neuro-wavelet predictive model (paper §2.3 / Figure 6).

use crate::campaign::{fan_out, fan_out_workers};
use crate::dataset::TraceSet;
use crate::recovery::{CoeffRecovery, DegradationReport, RecoveryPolicy, RecoveryRung};
use dynawave_neural::{
    FitContext, GaussianBasis, LinearModel, ModelError, Normalizer, RbfNetwork, RbfNetworkData,
    RbfParams,
};
use dynawave_numeric::fault::{self, FaultSite};
use dynawave_numeric::Matrix;
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

/// Every RBF coefficient network of one predictor, evaluated through one
/// basis of distinct Gaussian units.
///
/// The networks are fitted on one design, and their trees share their
/// upper splits, so many units recur from network to network. Two units
/// are merged when their centres, radii and normalizers are equal bit for
/// bit: they respond with the same bits at every query, so evaluating
/// the merged unit once and reading its response wherever the old unit
/// stood reproduces every network's output exactly.
#[derive(Debug, Clone)]
struct SharedBasis {
    /// Each distinct normalizer with the distinct units evaluated on its
    /// output; their responses are laid end to end, group by group.
    groups: Vec<(Normalizer, GaussianBasis)>,
    /// Total unit count over all groups.
    units: usize,
    /// One entry per coefficient model, in order: the ids of an RBF
    /// network's units in the concatenated basis, in the network's unit
    /// order; empty for the other models.
    unit_ids: Vec<Vec<usize>>,
}

impl SharedBasis {
    /// Merges the units of every RBF network among `models`. The units
    /// under one normalizer are sorted by a fingerprint of their bits,
    /// and each is merged with an earlier unit of its fingerprint whose
    /// bits are all equal. Sorting `(fingerprint, network, unit)` triples
    /// gives the same basis on every run.
    fn new(models: &[CoeffModel]) -> Self {
        let rbf: Vec<(usize, &RbfNetwork)> = (models.iter().enumerate())
            .filter_map(|(i, m)| match m {
                CoeffModel::Rbf(net) => Some((i, net)),
                CoeffModel::Linear(_) | CoeffModel::Constant(_) => None,
            })
            .collect();
        let same_normalizer = |a: &Normalizer, b: &Normalizer| {
            same_bits(a.mins(), b.mins()) && same_bits(a.spans(), b.spans())
        };
        let mut normalizers: Vec<&Normalizer> = Vec::new();
        for (_, net) in &rbf {
            if !(normalizers.iter()).any(|n| same_normalizer(n, net.normalizer())) {
                normalizers.push(net.normalizer());
            }
        }
        // Each network's unit ids in the concatenated basis.
        let mut ids: Vec<Vec<usize>> = vec![Vec::new(); rbf.len()];
        let mut groups = Vec::with_capacity(normalizers.len());
        let mut units = 0;
        for normalizer in normalizers {
            let mut keyed = Vec::new();
            for (r, (_, net)) in rbf.iter().enumerate() {
                if same_normalizer(net.normalizer(), normalizer) {
                    let own = net.basis();
                    keyed.extend((0..own.len()).map(|u| (fingerprint(own, u), r, u)));
                    ids[r] = vec![0; own.len()];
                }
            }
            keyed.sort_unstable();
            // The distinct units in id order, as (network, unit), and the
            // ids of those with the current fingerprint.
            let mut distinct: Vec<(usize, usize)> = Vec::new();
            let mut run: Vec<usize> = Vec::new();
            for (k, &(print, r, u)) in keyed.iter().enumerate() {
                if k > 0 && keyed[k - 1].0 != print {
                    run.clear();
                }
                let own = rbf[r].1.basis();
                let found = run.iter().copied().find(|&id| {
                    let (q, v) = distinct[id];
                    unit_bits(rbf[q].1.basis(), v).eq(unit_bits(own, u))
                });
                let id = found.unwrap_or_else(|| {
                    distinct.push((r, u));
                    run.push(distinct.len() - 1);
                    distinct.len() - 1
                });
                ids[r][u] = units + id;
            }
            let mut basis = GaussianBasis::with_capacity(normalizer.dims(), distinct.len());
            let (mut center, mut radius) = (Vec::new(), Vec::new());
            for (r, u) in distinct {
                let own = rbf[r].1.basis();
                center.clear();
                center.extend(own.centers().iter().map(|c| c[u]));
                radius.clear();
                radius.extend(own.radii().iter().map(|c| c[u]));
                basis.push(&center, &radius);
            }
            units += basis.len();
            groups.push((normalizer.clone(), basis));
        }
        let mut unit_ids = vec![Vec::new(); models.len()];
        for ((i, _), ids) in rbf.iter().zip(ids) {
            unit_ids[*i] = ids;
        }
        SharedBasis {
            groups,
            units,
            unit_ids,
        }
    }

    /// Every distinct unit's response at the raw input `x`: the input is
    /// normalized once per group.
    fn responses(&self, x: &[f64]) -> Vec<f64> {
        let mut phi = vec![0.0; self.units];
        let mut rest = phi.as_mut_slice();
        for (normalizer, basis) in &self.groups {
            let (head, tail) = rest.split_at_mut(basis.len());
            basis.responses(&normalizer.transform(x), head);
            rest = tail;
        }
        phi
    }
}

/// `true` when `a` and `b` hold the same bit patterns.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A 64-bit FNV-1a-style fold of the bit patterns of unit `u` of `basis`.
fn fingerprint(basis: &GaussianBasis, u: usize) -> u64 {
    unit_bits(basis, u).fold(0xcbf2_9ce4_8422_2325, |d, b| {
        (d ^ b).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The bit patterns of unit `u` of `basis`: its centre, then its radius.
fn unit_bits(basis: &GaussianBasis, u: usize) -> impl Iterator<Item = u64> + '_ {
    (basis.centers().iter().chain(basis.radii())).map(move |column| column[u].to_bits())
}

/// `net`'s output from the responses `phi` of the merged basis, where
/// its units have the ids `unit_ids`: the fault draw and the operations
/// of [`RbfNetwork::predict`], in its order.
fn merged_predict(net: &RbfNetwork, unit_ids: &[usize], phi: &[f64]) -> f64 {
    if fault::inject(FaultSite::RbfPredict).is_some() {
        return f64::NAN;
    }
    (unit_ids.iter().zip(net.weights()))
        .fold(net.bias().unwrap_or(0.0), |out, (&id, w)| out + w * phi[id])
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
    /// The RBF networks among `models`, merged for prediction.
    basis: SharedBasis,
    params: PredictorParams,
}

impl WaveletNeuralPredictor {
    /// A predictor of `models`, parallel to `indices`, with their merged
    /// basis.
    fn assemble(
        trace_len: usize,
        indices: Vec<usize>,
        models: Vec<CoeffModel>,
        params: PredictorParams,
    ) -> Self {
        WaveletNeuralPredictor {
            wavelet: params.wavelet,
            trace_len,
            indices,
            basis: SharedBasis::new(&models),
            models,
            params,
        }
    }

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
    /// The coefficients are fitted on up to
    /// [`threads_from_env`](crate::threads_from_env) workers (one when
    /// `DYNAWAVE_THREADS` is invalid), and on the calling thread alone
    /// while a [`fault`] plan is installed: a plan is a per-thread RNG
    /// consulted in call order. The trained model, the report and the
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
        Self::train_on(train, params, policy, fan_out_workers())
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
        })
        .unwrap_or(Err(ModelError::Internal("a training worker panicked")))?;
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
            Self::assemble(trace_len, indices, models, params.clone()),
            DegradationReport::from_records(records),
        ))
    }

    /// Forecasts the workload-dynamics trace at a design point.
    ///
    /// Unselected coefficients are approximated with zero, exactly as in
    /// the paper's reconstruction step.
    ///
    /// Every distinct Gaussian unit of the RBF coefficient networks is
    /// evaluated once, on the point normalized once per distinct
    /// normalizer. Each coefficient then sums its own terms in its own
    /// order and draws its [`FaultSite::RbfPredict`] fault like
    /// [`RbfNetwork::predict`], so the forecast has the bits of one
    /// `networks()[i].predict` call per coefficient.
    ///
    /// # Panics
    ///
    /// Panics if the point's dimensionality differs from training.
    pub fn predict(&self, point: &DesignPoint) -> Vec<f64> {
        let _span = dynawave_obs::span("predictor.predict");
        let x = point.values();
        let phi = self.basis.responses(x);
        let mut coeffs = vec![0.0; self.trace_len];
        let coefficients = self.indices.iter().zip(&self.models);
        for ((&idx, model), unit_ids) in coefficients.zip(&self.basis.unit_ids) {
            let v = match model {
                CoeffModel::Rbf(net) => merged_predict(net, unit_ids, &phi),
                CoeffModel::Linear(m) => m.predict(x),
                CoeffModel::Constant(v) => *v,
            };
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

    /// Forecasts the mean of the workload-dynamics trace at a design
    /// point from the approximation coefficient alone.
    ///
    /// Every detail basis function of a full decomposition sums to zero,
    /// so the mean of the trace [`WaveletNeuralPredictor::predict`]
    /// reconstructs is coefficient 0 under Haar's average convention
    /// (paper §2.1) and coefficient 0 / √N under db4, whose orthonormal
    /// filters scale each level's sum by 1/√2. Only coefficient 0's
    /// model is evaluated: an RBF network through [`RbfNetwork::predict`],
    /// with its one [`FaultSite::RbfPredict`] draw. A non-finite value
    /// becomes 0, as in `predict`, and an unselected coefficient 0 gives
    /// exactly 0.
    ///
    /// The value equals the mean of `predict`'s trace up to rounding:
    /// `waverec` and the sum over its samples round on their way, so the
    /// two may differ in the last digits.
    ///
    /// # Panics
    ///
    /// Panics if the point's dimensionality differs from training and
    /// coefficient 0 has an RBF or linear model.
    pub fn predict_mean(&self, point: &DesignPoint) -> f64 {
        let _span = dynawave_obs::span("predictor.predict_mean");
        let mut coefficients = self.indices.iter().zip(&self.models);
        let Some((_, model)) = coefficients.find(|(&idx, _)| idx == 0) else {
            return 0.0;
        };
        let x = point.values();
        let c0 = match model {
            CoeffModel::Rbf(net) => net.predict(x),
            CoeffModel::Linear(m) => m.predict(x),
            CoeffModel::Constant(v) => *v,
        };
        if !c0.is_finite() {
            return 0.0;
        }
        match self.wavelet {
            Wavelet::Haar => c0,
            Wavelet::Daubechies4 => c0 / (self.trace_len as f64).sqrt(),
        }
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
        let params = PredictorParams {
            wavelet: portable.wavelet,
            ..PredictorParams::default()
        };
        Ok(Self::assemble(
            portable.trace_len,
            portable.indices,
            models,
            params,
        ))
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

    /// `model`'s forecast at `point` the unmerged way: one
    /// `networks()[i].predict` call per RBF coefficient, in coefficient
    /// order, and the linear and constant models rebuilt from the
    /// portable snapshot.
    fn reference_predict(model: &WaveletNeuralPredictor, point: &DesignPoint) -> Vec<f64> {
        let x = point.values();
        let portable = model.to_portable();
        let mut networks = model.networks().into_iter();
        let mut coeffs = vec![0.0; model.trace_len()];
        for (&idx, m) in portable.indices.iter().zip(&portable.models) {
            let v = match m {
                PortableCoeffModel::Rbf(_) => networks.next().unwrap().predict(x),
                PortableCoeffModel::Linear {
                    mins,
                    spans,
                    weights,
                    bias,
                } => {
                    let normalizer = Normalizer::from_parts(mins.clone(), spans.clone());
                    (LinearModel::from_parts(normalizer, weights.clone(), *bias).unwrap())
                        .predict(x)
                }
                PortableCoeffModel::Constant(v) => *v,
            };
            coeffs[idx] = if v.is_finite() { v } else { 0.0 };
        }
        waverec(&Decomposition::from_coeffs(coeffs, model.wavelet)).unwrap()
    }

    /// Asserts that `model` forecasts `points` with the reference's bits,
    /// without a fault plan and under one that makes some networks emit
    /// NaN, with the same faults drawn.
    fn assert_merged_matches_reference(model: &WaveletNeuralPredictor, points: &[DesignPoint]) {
        use dynawave_numeric::fault::{with_plan, FaultPlan};
        let bits = |traces: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            (traces.iter())
                .map(|t| t.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let merged = || bits(points.iter().map(|p| model.predict(p)).collect());
        let reference = || bits(points.iter().map(|p| reference_predict(model, p)).collect());
        assert_eq!(merged(), reference());
        let plan = || {
            FaultPlan::new(0x0DD5)
                .rate(0.3)
                .targeting(&[FaultSite::RbfPredict])
        };
        let (faulted, report) = with_plan(plan(), merged);
        assert_eq!((faulted, report), with_plan(plan(), reference));
        if !model.networks().is_empty() {
            assert!(report.fired > 0, "{report:?}");
        }
    }

    /// Probe points: the training design and points between and beyond
    /// its levels.
    fn probes(set: &TraceSet) -> Vec<DesignPoint> {
        let mut points = set.points.clone();
        points.extend((0..6).map(|i| {
            let values = set.points[i]
                .values()
                .iter()
                .map(|v| v * (0.5 + 0.3 * i as f64));
            DesignPoint::new(values.collect())
        }));
        points
    }

    #[test]
    fn merged_basis_predicts_like_each_network_in_turn() {
        use dynawave_numeric::fault::{with_plan, FaultKind, FaultPlan};
        let policy = RecoveryPolicy::default();
        for set in simulated_sets() {
            for model in [ModelKind::TreeRbf, ModelKind::RandomRbf, ModelKind::Linear] {
                let params = PredictorParams {
                    model,
                    ..PredictorParams::default()
                };
                let (trained, _) = WaveletNeuralPredictor::train_on(&set, &params, &policy, 1)
                    .expect("resilient training");
                let total: usize = trained.networks().iter().map(|n| n.unit_count()).sum();
                if model == ModelKind::TreeRbf {
                    // Every tree starts from the same root: units recur.
                    assert!(trained.basis.units < total, "{} {total}", set.metric);
                }
                assert!(trained.basis.groups.len() <= 1);
                assert_merged_matches_reference(&trained, &probes(&set));
            }
            // A predictor whose coefficients landed on every rung.
            let plan = FaultPlan::new(0x2BAD)
                .rate(0.5)
                .targeting(&[FaultSite::RbfWeightFit, FaultSite::RidgeSolve])
                .kinds(&[FaultKind::Singular]);
            let ((degraded, report), _) = with_plan(plan, || {
                WaveletNeuralPredictor::train_resilient(&set, &PredictorParams::default(), &policy)
                    .unwrap()
            });
            let rungs = report.rung_counts();
            assert!(rungs[0] > 0 && rungs[2] + rungs[3] > 0, "{rungs:?}");
            assert_merged_matches_reference(&degraded, &probes(&set));
        }
    }

    #[test]
    fn networks_with_bitwise_different_normalizers_are_not_merged() {
        let set = &simulated_sets()[0];
        let model = WaveletNeuralPredictor::train(set, &PredictorParams::default()).unwrap();
        let distinct = model.basis.units;
        let mut portable = model.to_portable();
        // Coefficient 1's network sees a normalizer one ulp away on one
        // bound, coefficient 2's a negated zero span: neither may share a
        // unit with the others, though their centres and radii do.
        let PortableCoeffModel::Rbf(net) = &mut portable.models[1] else {
            panic!("coefficient 1 is not an RBF network");
        };
        net.mins[0] = f64::from_bits(net.mins[0].to_bits() + 1);
        let PortableCoeffModel::Rbf(net) = &mut portable.models[2] else {
            panic!("coefficient 2 is not an RBF network");
        };
        net.spans[0] = 0.0;
        net.spans[1] = -0.0;
        let units = |i: usize| match &portable.models[i] {
            PortableCoeffModel::Rbf(net) => net.centers.len(),
            _ => 0,
        };
        let rebuilt = WaveletNeuralPredictor::from_portable(portable.clone()).unwrap();
        let group_sizes: Vec<usize> = (rebuilt.basis.groups.iter())
            .map(|(_, basis)| basis.len())
            .collect();
        assert_eq!(group_sizes[1..], [units(1), units(2)]);
        assert!(group_sizes[0] <= distinct);
        assert_merged_matches_reference(&rebuilt, &probes(set));
        // The unchanged snapshot rebuilds the trained predictor's basis.
        let same = WaveletNeuralPredictor::from_portable(model.to_portable()).unwrap();
        assert_eq!(same.basis.units, distinct);
        assert_eq!(same.basis.groups.len(), 1);
    }

    /// Asserts that `model`'s `predict_mean` is within 1e-13 relative of
    /// the mean of its `predict` trace at every point of `points`, and
    /// that its snapshot rebuild returns the same bits.
    fn assert_mean_matches_trace_mean(
        model: &WaveletNeuralPredictor,
        points: &[DesignPoint],
        label: &str,
    ) {
        assert!(model.coefficient_indices().contains(&0), "{label}");
        let rebuilt = WaveletNeuralPredictor::from_portable(model.to_portable()).unwrap();
        for p in points {
            let trace = model.predict(p);
            let want = trace.iter().sum::<f64>() / trace.len() as f64;
            let got = model.predict_mean(p);
            assert!(
                (got - want).abs() <= 1e-13 * want.abs(),
                "{label} at {p}: {got:e} vs {want:e}"
            );
            assert_eq!(rebuilt.predict_mean(p).to_bits(), got.to_bits(), "{label}");
        }
    }

    #[test]
    fn predict_mean_is_the_mean_of_the_forecast_trace() {
        use dynawave_numeric::fault::{with_plan, FaultKind, FaultPlan};
        let cfg = crate::experiment::ExperimentConfig {
            train_points: 24,
            samples: 128,
            interval_instructions: 64,
            seed: 20261020,
            ..crate::experiment::ExperimentConfig::default()
        };
        let policy = RecoveryPolicy::default();
        let train = |set: &TraceSet, params: &PredictorParams| {
            WaveletNeuralPredictor::train_resilient(set, params, &policy).unwrap()
        };
        for bench in [Benchmark::Gcc, Benchmark::Mcf] {
            let sets = crate::collect_domain_traces(bench, &cfg.train_design(), &cfg.sim_options());
            for set in &sets {
                let points = probes(set);
                for wavelet in [Wavelet::Haar, Wavelet::Daubechies4] {
                    for coefficients in [16, 128] {
                        let params = PredictorParams {
                            wavelet,
                            coefficients,
                            ..PredictorParams::default()
                        };
                        let label = format!("{bench} {} {wavelet} k={coefficients}", set.metric);
                        assert_mean_matches_trace_mean(&train(set, &params).0, &points, &label);
                    }
                }
            }
            let cpi = &sets[0];
            let points = probes(cpi);
            for model in [ModelKind::RandomRbf, ModelKind::Linear] {
                let params = PredictorParams {
                    model,
                    ..PredictorParams::default()
                };
                let label = format!("{bench} {model:?}");
                assert_mean_matches_trace_mean(&train(cpi, &params).0, &points, &label);
            }
            // Every weight fit fails: the linear rung. Every ridge solve
            // fails too: the mean rung.
            for (sites, rungs) in [
                (&[FaultSite::RbfWeightFit][..], [0, 0, 16, 0]),
                (
                    &[FaultSite::RbfWeightFit, FaultSite::RidgeSolve],
                    [0, 0, 0, 16],
                ),
            ] {
                let plan = FaultPlan::new(0x3EA5)
                    .rate(1.0)
                    .targeting(sites)
                    .kinds(&[FaultKind::Singular]);
                let params = PredictorParams::default();
                let ((degraded, report), _) = with_plan(plan, || train(cpi, &params));
                assert_eq!(report.rung_counts(), rungs);
                let label = format!("{bench} rungs {rungs:?}");
                assert_mean_matches_trace_mean(&degraded, &points, &label);
            }
        }
    }

    #[test]
    fn predict_mean_is_zero_when_the_approximation_is_unselected() {
        // Every trace alternates sample by sample and in blocks of four:
        // its mean, and so its coefficient 0, is exactly zero, while 24
        // of its 32 Haar details are not.
        let mut set = synthetic_set(25, 32);
        for (p, trace) in set.points.iter().zip(&mut set.traces) {
            let (a, b) = (p.values()[0], p.values()[1]);
            for (s, v) in trace.iter_mut().enumerate() {
                let fine = if s % 2 == 0 { 1.0 } else { -1.0 };
                let block = if s % 4 < 2 { 1.0 } else { -1.0 };
                *v = (1.0 + 0.5 * a) * fine + 0.3 * (b + 1.0) * block;
            }
        }
        for wavelet in [Wavelet::Haar, Wavelet::Daubechies4] {
            let params = PredictorParams {
                wavelet,
                ..PredictorParams::default()
            };
            let model = WaveletNeuralPredictor::train(&set, &params).unwrap();
            assert!(!model.coefficient_indices().contains(&0), "{wavelet}");
            let rebuilt = WaveletNeuralPredictor::from_portable(model.to_portable()).unwrap();
            for p in &set.points {
                assert_eq!(model.predict_mean(p).to_bits(), 0.0f64.to_bits());
                assert_eq!(rebuilt.predict_mean(p).to_bits(), 0.0f64.to_bits());
                let trace = model.predict(p);
                let scale = trace.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                let mean = trace.iter().sum::<f64>() / trace.len() as f64;
                assert!(mean.abs() <= 1e-13 * scale, "{wavelet}: {mean:e}");
            }
        }
    }

    #[test]
    fn predict_mean_draws_one_rbf_fault_per_call_and_zeroes_a_faulted_one() {
        use dynawave_numeric::fault::{with_plan, FaultPlan};
        let set = &simulated_sets()[0];
        let points = probes(set);
        let plan = || {
            FaultPlan::new(0x0DD5)
                .rate(0.3)
                .targeting(&[FaultSite::RbfPredict])
        };
        let means = |model: &WaveletNeuralPredictor| -> Vec<f64> {
            points.iter().map(|p| model.predict_mean(p)).collect()
        };
        let model = WaveletNeuralPredictor::train(set, &PredictorParams::default()).unwrap();
        let clean = means(&model);
        assert!(clean.iter().all(|v| v.abs() > 0.0));
        let (faulted, report) = with_plan(plan(), || means(&model));
        // Coefficient 0 is an RBF network: one draw per call.
        assert_eq!(report.armed, points.len() as u64);
        assert!(report.fired > 0, "{report:?}");
        let mut zeroed = 0;
        for (f, c) in faulted.iter().zip(&clean) {
            if f.to_bits() != c.to_bits() {
                assert_eq!(f.to_bits(), 0.0f64.to_bits());
                zeroed += 1;
            }
        }
        assert_eq!(zeroed, report.fired);
        // A linear coefficient 0 draws nothing.
        let params = PredictorParams {
            model: ModelKind::Linear,
            ..PredictorParams::default()
        };
        let linear = WaveletNeuralPredictor::train(set, &params).unwrap();
        let (_, report) = with_plan(plan(), || means(&linear));
        assert_eq!(report.armed, 0);
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
