//! End-to-end experiment drivers used by the `dynawave-bench` harness.
//!
//! One [`ExperimentConfig`] describes the paper's methodology (§3): an
//! LHS-sampled training set over the Table 2 train levels, an independent
//! random test set over the test levels, traces of `samples` points, and
//! the predictor hyper-parameters. [`evaluate_benchmark`] runs the full
//! train/predict/score loop for one `(benchmark, metric)` pair.
//!
//! The scale knobs honour environment variables so that the bench harness
//! can run anywhere from a smoke test to the paper's full 200/50 scale:
//! `DYNAWAVE_TRAIN`, `DYNAWAVE_TEST`, `DYNAWAVE_SAMPLES`,
//! `DYNAWAVE_INTERVAL`, `DYNAWAVE_SEED`.

use crate::accuracy::ScenarioClassification;
use crate::dataset::{collect_traces, Metric, TraceSet};
use crate::predictor::{PredictorParams, WaveletNeuralPredictor};
use crate::recovery::{DegradationReport, RecoveryPolicy};
use dynawave_neural::ModelError;
use dynawave_numeric::stats::nmse_percent;
use dynawave_sampling::{lhs, random, DesignSpace, Split};
use dynawave_sim::SimOptions;
use dynawave_workloads::Benchmark;
use std::error::Error;
use std::fmt;

/// Scale and hyper-parameters of one accuracy experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Training design points (paper: 200, LHS over train levels).
    pub train_points: usize,
    /// Test design points (paper: 50, random over test levels).
    pub test_points: usize,
    /// Samples per dynamics trace (paper: 128; must be a power of two).
    pub samples: usize,
    /// Instructions per sample interval.
    pub interval_instructions: u64,
    /// Master seed (workload input, LHS, test sampling).
    pub seed: u64,
    /// Predictor hyper-parameters.
    pub predictor: PredictorParams,
    /// Use the 10-parameter space that includes the DVM flag (§5).
    pub with_dvm_parameter: bool,
    /// How training recovers from per-coefficient fit failures (the full
    /// ladder by default; see [`RecoveryPolicy`]).
    pub recovery: RecoveryPolicy,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            train_points: 200,
            test_points: 50,
            samples: 128,
            interval_instructions: 2048,
            seed: 0xD15EA5E,
            predictor: PredictorParams::default(),
            with_dvm_parameter: false,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// A `DYNAWAVE_*` environment variable was set but unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvConfigError {
    /// The offending variable.
    pub name: &'static str,
    /// Its value as found in the environment.
    pub value: String,
    /// What the variable must parse as.
    pub expected: &'static str,
}

impl fmt::Display for EnvConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "environment variable {} is set to {:?}, which is not {}; \
             unset it or supply a valid value",
            self.name, self.value, self.expected
        )
    }
}

impl Error for EnvConfigError {}

impl ExperimentConfig {
    /// Builds a configuration from `DYNAWAVE_*` environment variables,
    /// falling back to the paper-scale defaults for unset variables:
    /// [`ExperimentConfig::from_env_or`] over
    /// [`ExperimentConfig::default`].
    ///
    /// # Errors
    ///
    /// As [`ExperimentConfig::from_env_or`].
    pub fn from_env() -> Result<Self, EnvConfigError> {
        ExperimentConfig::from_env_or(ExperimentConfig::default())
    }

    /// Builds a configuration from `DYNAWAVE_*` environment variables,
    /// taking `DYNAWAVE_TRAIN`, `DYNAWAVE_TEST`, `DYNAWAVE_SAMPLES`,
    /// `DYNAWAVE_INTERVAL` and `DYNAWAVE_SEED` from the environment when
    /// set and every other field, and every unset one, from `defaults`.
    ///
    /// # Errors
    ///
    /// [`EnvConfigError`] naming the variable, its value and the expected
    /// type if a variable is **set but unparseable or out of range**. A
    /// typo like `DYNAWAVE_TRAIN=2OO` must abort the campaign loudly, not
    /// silently run at the default scale, and `DYNAWAVE_SAMPLES` (a power
    /// of two of at least 2, as wavelet decomposition needs) or
    /// `DYNAWAVE_INTERVAL` (positive) values the simulator cannot run
    /// must be refused here, not deep inside a later simulation.
    pub fn from_env_or(defaults: ExperimentConfig) -> Result<Self, EnvConfigError> {
        fn env<T: std::str::FromStr>(
            name: &'static str,
            expected: &'static str,
            default: T,
            valid: fn(&T) -> bool,
        ) -> Result<T, EnvConfigError> {
            // dynalint:allow(D004) -- from_env_or() is the documented, explicit config entry point
            match std::env::var(name) {
                Ok(value) => match value.parse() {
                    Ok(parsed) if valid(&parsed) => Ok(parsed),
                    _ => Err(EnvConfigError {
                        name,
                        value,
                        expected,
                    }),
                },
                Err(_) => Ok(default),
            }
        }
        fn any<T>(_: &T) -> bool {
            true
        }
        Ok(ExperimentConfig {
            train_points: env(
                "DYNAWAVE_TRAIN",
                "a point count",
                defaults.train_points,
                any,
            )?,
            test_points: env("DYNAWAVE_TEST", "a point count", defaults.test_points, any)?,
            samples: env(
                "DYNAWAVE_SAMPLES",
                "a power-of-two sample count of at least 2",
                defaults.samples,
                |&n| n >= 2 && n.is_power_of_two(),
            )?,
            interval_instructions: env(
                "DYNAWAVE_INTERVAL",
                "a positive instruction count",
                defaults.interval_instructions,
                |&n| n > 0,
            )?,
            seed: env("DYNAWAVE_SEED", "a 64-bit seed", defaults.seed, any)?,
            ..defaults
        })
    }

    /// The design space this experiment explores.
    pub fn space(&self) -> DesignSpace {
        if self.with_dvm_parameter {
            DesignSpace::micro2007_with_dvm()
        } else {
            DesignSpace::micro2007()
        }
    }

    /// Simulator options corresponding to this configuration.
    pub fn sim_options(&self) -> SimOptions {
        SimOptions {
            samples: self.samples,
            interval_instructions: self.interval_instructions,
            seed: self.seed,
        }
    }

    /// The LHS training design (deterministic in `seed`).
    pub fn train_design(&self) -> Vec<dynawave_sampling::DesignPoint> {
        lhs::sample(&self.space(), self.train_points, self.seed)
    }

    /// The independent random test design (deterministic in `seed`).
    pub fn test_design(&self) -> Vec<dynawave_sampling::DesignPoint> {
        random::sample(
            &self.space(),
            self.test_points,
            Split::Test,
            self.seed ^ 0x7E57,
        )
    }
}

/// Everything [`evaluate_benchmark`] learns about one
/// `(benchmark, metric)` pair.
#[derive(Debug, Clone)]
pub struct BenchmarkEvaluation {
    /// The benchmark evaluated.
    pub benchmark: Benchmark,
    /// The metric evaluated.
    pub metric: Metric,
    /// The trained predictor.
    pub model: WaveletNeuralPredictor,
    /// Simulated (ground-truth) test traces.
    pub test: TraceSet,
    /// Predicted traces, parallel to `test.traces`.
    pub predictions: Vec<Vec<f64>>,
    /// Normalized MSE (%) per test point — the Figure 8 boxplot data.
    pub nmse_per_test: Vec<f64>,
    /// Threshold-classification quality per test point (Figure 13 data).
    pub scenarios: Vec<ScenarioClassification>,
    /// Which recovery rung each coefficient's model landed on. Pristine
    /// (all-primary) unless training degraded under its
    /// [`RecoveryPolicy`].
    pub degradation: DegradationReport,
}

impl BenchmarkEvaluation {
    /// Median NMSE (%) across the test set.
    pub fn median_nmse(&self) -> f64 {
        dynawave_numeric::stats::median(&self.nmse_per_test).unwrap_or(0.0)
    }

    /// Mean NMSE (%) across the test set.
    pub fn mean_nmse(&self) -> f64 {
        dynawave_numeric::stats::mean(&self.nmse_per_test)
    }

    /// Mean directional asymmetry (%) at the three thresholds.
    pub fn mean_asymmetry(&self) -> [f64; 3] {
        let n = self.scenarios.len().max(1) as f64;
        let mut acc = [0.0; 3];
        for s in &self.scenarios {
            acc[0] += s.q1_asymmetry;
            acc[1] += s.q2_asymmetry;
            acc[2] += s.q3_asymmetry;
        }
        [acc[0] / n, acc[1] / n, acc[2] / n]
    }
}

/// Runs the full §3 methodology for one `(benchmark, metric)` pair:
/// simulate training design → train → simulate test design → predict →
/// score. Training honours `cfg.recovery`, so with the default policy a
/// per-coefficient fit failure degrades the affected coefficient (recorded
/// in [`BenchmarkEvaluation::degradation`]) instead of aborting the run.
///
/// # Errors
///
/// Propagates model-fitting failures that the recovery policy could not
/// absorb (always possible under [`RecoveryPolicy::strict`], never under
/// the default policy).
pub fn evaluate_benchmark(
    benchmark: Benchmark,
    metric: Metric,
    cfg: &ExperimentConfig,
) -> Result<BenchmarkEvaluation, ModelError> {
    let _span = dynawave_obs::span("experiment.evaluate");
    let opts = cfg.sim_options();
    let train = collect_traces(benchmark, &cfg.train_design(), metric, &opts);
    let (model, degradation) =
        WaveletNeuralPredictor::train_resilient(&train, &cfg.predictor, &cfg.recovery)?;
    let test = collect_traces(benchmark, &cfg.test_design(), metric, &opts);
    let mut eval = score_model(benchmark, metric, model, test);
    eval.degradation = degradation;
    if dynawave_obs::is_enabled() {
        // NMSE distribution across test points, in percent.
        const BOUNDS: [f64; 5] = [1.0, 2.0, 5.0, 10.0, 25.0];
        for &nmse in &eval.nmse_per_test {
            dynawave_obs::histogram_observe("experiment.nmse_percent", &BOUNDS, nmse);
        }
    }
    Ok(eval)
}

/// Scores an already-trained model against a test [`TraceSet`]. Split out
/// of [`evaluate_benchmark`] so sweeps can reuse simulated traces.
///
/// The returned evaluation carries a pristine [`DegradationReport`]
/// (callers that trained resiliently overwrite it with the real one).
pub fn score_model(
    benchmark: Benchmark,
    metric: Metric,
    model: WaveletNeuralPredictor,
    test: TraceSet,
) -> BenchmarkEvaluation {
    let predictions: Vec<Vec<f64>> = test.points.iter().map(|p| model.predict(p)).collect();
    let nmse_per_test: Vec<f64> = test
        .traces
        .iter()
        .zip(&predictions)
        .map(|(a, p)| nmse_percent(a, p))
        .collect();
    let scenarios: Vec<ScenarioClassification> = test
        .traces
        .iter()
        .zip(&predictions)
        .map(|(a, p)| ScenarioClassification::evaluate(a, p))
        .collect();
    let degradation = DegradationReport::healthy(model.coefficient_indices());
    BenchmarkEvaluation {
        benchmark,
        metric,
        model,
        test,
        predictions,
        nmse_per_test,
        scenarios,
        degradation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature end-to-end experiment: small but real.
    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            train_points: 30,
            test_points: 8,
            samples: 32,
            interval_instructions: 600,
            seed: 11,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn end_to_end_cpi_prediction_beats_naive_baseline() {
        let cfg = tiny_config();
        let eval = evaluate_benchmark(Benchmark::Eon, Metric::Cpi, &cfg).unwrap();
        assert_eq!(eval.nmse_per_test.len(), 8);
        // The model must do far better than predicting zero everywhere
        // (NMSE 100%).
        let median = eval.median_nmse();
        assert!(median < 50.0, "median NMSE {median}%");
        assert!(median >= 0.0);
    }

    #[test]
    fn designs_are_deterministic() {
        let cfg = tiny_config();
        assert_eq!(cfg.train_design(), cfg.train_design());
        assert_eq!(cfg.test_design(), cfg.test_design());
        assert_eq!(cfg.train_design().len(), 30);
        assert_eq!(cfg.test_design().len(), 8);
    }

    #[test]
    fn dvm_space_has_ten_dims() {
        let cfg = ExperimentConfig {
            with_dvm_parameter: true,
            ..tiny_config()
        };
        assert_eq!(cfg.space().dims(), 10);
        assert_eq!(cfg.train_design()[0].values().len(), 10);
    }

    #[test]
    fn chaos_evaluate_benchmark_survives_injected_fit_faults() {
        use dynawave_numeric::fault::{self, FaultKind, FaultPlan, FaultSite};
        let cfg = tiny_config();
        let plan = FaultPlan::new(0xFA11)
            .rate(0.5)
            .targeting(&[FaultSite::RbfWeightFit])
            .kinds(&[FaultKind::Singular, FaultKind::NonFinite]);
        let (out, fault_report) = fault::with_plan(plan, || {
            evaluate_benchmark(Benchmark::Eon, Metric::Cpi, &cfg)
        });
        let eval = out.unwrap();
        assert!(fault_report.fired > 0, "the plan must actually inject");
        // Every coefficient is accounted for in the degradation report...
        assert_eq!(
            eval.degradation.coefficient_count(),
            eval.model.coefficient_indices().len()
        );
        assert_eq!(
            eval.degradation.rung_counts().iter().sum::<usize>(),
            eval.degradation.coefficient_count()
        );
        // ...a meaningful share (>=10%) of fits were forced to degrade...
        let n = eval.degradation.coefficient_count();
        assert!(
            eval.degradation.degraded_count() * 10 >= n,
            "expected >=10% degraded, got {}",
            eval.degradation
        );
        // ...and the campaign still produced finite predictions & scores.
        assert!(eval.predictions.iter().flatten().all(|v| v.is_finite()));
        assert!(eval.nmse_per_test.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn from_env_parses_validates_and_defaults() {
        // All from_env cases share one test: the environment is
        // process-global and the test harness runs tests in parallel.
        let vars = [
            "DYNAWAVE_TRAIN",
            "DYNAWAVE_TEST",
            "DYNAWAVE_SAMPLES",
            "DYNAWAVE_INTERVAL",
            "DYNAWAVE_SEED",
        ];
        for v in vars {
            std::env::remove_var(v);
        }
        // Unset everywhere: the paper-scale defaults.
        assert_eq!(
            ExperimentConfig::from_env().unwrap(),
            ExperimentConfig::default()
        );
        // Set and valid: honoured.
        std::env::set_var("DYNAWAVE_TRAIN", "33");
        std::env::set_var("DYNAWAVE_SEED", "42");
        let cfg = ExperimentConfig::from_env().unwrap();
        assert_eq!(cfg.train_points, 33);
        assert_eq!(cfg.seed, 42);
        // Set but unparseable: a descriptive error, not a silent default.
        std::env::set_var("DYNAWAVE_TRAIN", "2OO");
        let err = ExperimentConfig::from_env().unwrap_err();
        assert_eq!(err.name, "DYNAWAVE_TRAIN");
        assert_eq!(err.value, "2OO");
        let msg = err.to_string();
        assert!(msg.contains("DYNAWAVE_TRAIN"), "{msg}");
        assert!(msg.contains("2OO"), "{msg}");
        std::env::remove_var("DYNAWAVE_TRAIN");
        // Parseable but out of range: refused before any simulation.
        for (name, value) in [
            ("DYNAWAVE_SAMPLES", "0"),
            ("DYNAWAVE_SAMPLES", "1"),
            ("DYNAWAVE_SAMPLES", "100"),
            ("DYNAWAVE_INTERVAL", "0"),
        ] {
            std::env::set_var(name, value);
            let err = ExperimentConfig::from_env().unwrap_err();
            assert_eq!((err.name, err.value.as_str()), (name, value));
            std::env::remove_var(name);
        }
        std::env::set_var("DYNAWAVE_SAMPLES", "64");
        std::env::set_var("DYNAWAVE_INTERVAL", "1");
        let cfg = ExperimentConfig::from_env().unwrap();
        assert_eq!((cfg.samples, cfg.interval_instructions), (64, 1));
        // from_env_or: set variables override the caller's defaults, unset
        // ones keep them, and bad values are refused the same way.
        let demo = ExperimentConfig {
            train_points: 16,
            test_points: 4,
            samples: 8,
            seed: 5,
            ..ExperimentConfig::default()
        };
        let cfg = ExperimentConfig::from_env_or(demo.clone()).unwrap();
        assert_eq!(
            cfg,
            ExperimentConfig {
                samples: 64,
                interval_instructions: 1,
                seed: 42,
                ..demo.clone()
            }
        );
        std::env::set_var("DYNAWAVE_SAMPLES", "12");
        let err = ExperimentConfig::from_env_or(demo).unwrap_err();
        assert_eq!((err.name, err.value.as_str()), ("DYNAWAVE_SAMPLES", "12"));
        for v in vars {
            std::env::remove_var(v);
        }
    }

    #[test]
    fn mean_asymmetry_shape() {
        let cfg = tiny_config();
        let eval = evaluate_benchmark(Benchmark::Eon, Metric::Cpi, &cfg).unwrap();
        let asym = eval.mean_asymmetry();
        for a in asym {
            assert!((0.0..=100.0).contains(&a), "{asym:?}");
        }
    }
}
