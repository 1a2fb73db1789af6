//! `retrain`: the paper's coefficient sweep (Figs. 9–10). Set-up simulates
//! a 200-point training and a 50-point test design once with
//! `collect_domain_traces`; the timed region trains a predictor with
//! `WaveletNeuralPredictor::train_resilient` and scores it with
//! `score_model` for every coefficient count in {16, 32, 64, 128} and
//! every domain.
//!
//! Wavelet decomposition, RBF fitting and prediction do all the timed
//! work and the simulator does none: the only workload where a change to
//! model training shows.

use crate::layers::{self, Stopwatch, Tracer};
use crate::{derive, median, peak_rss_mb, quantile, Args, Outcome};
use dynawave_core::experiment::{score_model, ExperimentConfig};
use dynawave_core::{collect_domain_traces, PredictorParams, TraceSet, WaveletNeuralPredictor};
use dynawave_numeric::stats::nmse_percent;
use dynawave_workloads::Benchmark;
use std::path::Path;

const BENCHMARKS: [Benchmark; 2] = [Benchmark::Gcc, Benchmark::Mcf];
const SWEEP: [usize; 4] = [16, 32, 64, 128];
const INTERVAL: u64 = 64;

/// Set-up simulates the whole design; repeated for a steadier median.
const SETUP_REPEATS: usize = 5;

fn config(args: &Args) -> ExperimentConfig {
    let (train, test, samples, interval) = if args.smoke {
        (24, 6, 32, 16)
    } else {
        (200, 50, 128, INTERVAL)
    };
    ExperimentConfig {
        train_points: train,
        test_points: test,
        samples,
        interval_instructions: interval,
        seed: derive(args.seed, "retrain/design"),
        ..ExperimentConfig::default()
    }
}

fn sweep(args: &Args) -> Vec<usize> {
    if args.smoke {
        vec![4, 8]
    } else {
        SWEEP.to_vec()
    }
}

/// Training and test trace sets per benchmark, one per domain.
type Traces = Vec<([TraceSet; 3], [TraceSet; 3])>;

fn simulate(cfg: &ExperimentConfig) -> Traces {
    let opts = cfg.sim_options();
    let (train, test) = (cfg.train_design(), cfg.test_design());
    BENCHMARKS
        .iter()
        .map(|&b| {
            (
                collect_domain_traces(b, &train, &opts),
                collect_domain_traces(b, &test, &opts),
            )
        })
        .collect()
}

/// One model of the sweep: trained, scored, its NMSE per test point and
/// its recovery record.
struct Scored {
    nmse: Vec<f64>,
    coefficients: usize,
    attempts: u64,
    degraded: usize,
}

fn train_and_score(
    cfg: &ExperimentConfig,
    k: usize,
    train: &TraceSet,
    test: &TraceSet,
) -> Result<Scored, String> {
    let params = PredictorParams {
        coefficients: k,
        ..cfg.predictor.clone()
    };
    let (model, degradation) =
        WaveletNeuralPredictor::train_resilient(train, &params, &cfg.recovery)
            .map_err(|e| e.to_string())?;
    let eval = score_model(train.benchmark, train.metric, model, test.clone());
    Ok(Scored {
        nmse: eval.nmse_per_test,
        coefficients: degradation.coefficient_count(),
        attempts: degradation.total_attempts(),
        degraded: degradation.degraded_count(),
    })
}

/// One full sweep; returns the models in sweep order and each one's
/// train-and-score latency.
fn run_sweep(
    cfg: &ExperimentConfig,
    ks: &[usize],
    traces: &Traces,
) -> Result<(Vec<Scored>, Vec<f64>), String> {
    let mut models = Vec::new();
    let mut latency = Vec::new();
    for &k in ks {
        for (train, test) in traces {
            for (tr, te) in train.iter().zip(test) {
                let sw = Stopwatch::start();
                models.push(train_and_score(cfg, k, tr, te)?);
                latency.push(sw.secs());
            }
        }
    }
    Ok((models, latency))
}

fn check_models(out: &mut Outcome, models: &[Scored], expected: usize) {
    out.check(models.len() == expected, || {
        format!("sweep trained {} models, expected {expected}", models.len())
    });
    out.check(
        models.iter().flat_map(|m| &m.nmse).all(|v| v.is_finite()),
        || "non-finite NMSE".to_string(),
    );
}

pub fn run(args: &Args, _work: &Path) -> Result<Outcome, String> {
    let cfg = config(args);
    let ks = sweep(args);
    let expected = ks.len() * BENCHMARKS.len() * 3;
    if args.trace {
        return traced(args, &cfg, &ks, expected);
    }
    let mut out = Outcome::default();

    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut traces = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let sw = Stopwatch::start();
        traces = simulate(&cfg);
        setup.push(sw.secs());
    }

    let mut rates = Vec::new();
    let mut latency = Vec::new();
    let mut first: Option<Vec<Scored>> = None;
    let clock = Stopwatch::start();
    while rates.is_empty() || clock.secs() < args.seconds {
        let sw = Stopwatch::start();
        let (models, lat) = run_sweep(&cfg, &ks, &traces)?;
        rates.push(expected as f64 / sw.secs());
        latency.push(median(&lat) * 1e3);
        match &first {
            None => {
                check_models(&mut out, &models, expected);
                first = Some(models);
            }
            Some(reference) => out.check(
                models.iter().zip(reference).all(|(a, b)| a.nmse == b.nmse),
                || "a repeated sweep produced different NMSE".to_string(),
            ),
        }
    }

    out.attempted = (rates.len() * expected) as u64;
    crate::put_timings(&mut out, &setup, &rates, &latency);
    out.put("peak_rss_mb", peak_rss_mb("self"), "MiB");
    Ok(out)
}

fn traced(
    args: &Args,
    cfg: &ExperimentConfig,
    ks: &[usize],
    expected: usize,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Untraced twin of the traced work: set-up plus one sweep.
    let sw = Stopwatch::start();
    let traces = simulate(cfg);
    let (models, _) = run_sweep(cfg, ks, &traces)?;
    let untraced_wall = sw.secs();
    check_models(&mut out, &models, expected);

    let mut t = Tracer::new();
    let opts = cfg.sim_options();
    let (train_design, test_design) = t.call("sampling", "designs", |_| {
        (cfg.train_design(), cfg.test_design())
    });
    let mut layered = Vec::new();
    for &b in &BENCHMARKS {
        let train = layers::domain_traces(&mut t, b, &train_design, &opts);
        let test = layers::domain_traces(&mut t, b, &test_design, &opts);
        layered.push((train, test));
    }
    let same_traces = layered.iter().zip(&traces).all(|((a, b), (c, d))| {
        a.iter()
            .zip(c)
            .chain(b.iter().zip(d))
            .all(|(x, y)| x.traces == y.traces)
    });
    out.check(same_traces, || {
        "layer calls did not reproduce collect_domain_traces".to_string()
    });
    let mut scored = models.iter();
    for &k in ks {
        let params = PredictorParams {
            coefficients: k,
            ..cfg.predictor.clone()
        };
        for (train, test) in &layered {
            for (tr, te) in train.iter().zip(test) {
                let model = layers::train(&mut t, tr, &params)?;
                let nmse: Vec<f64> = te
                    .points
                    .iter()
                    .zip(&te.traces)
                    .map(|(p, actual)| nmse_percent(actual, &layers::predict(&mut t, &model, p)))
                    .collect();
                let reference = scored.next().map(|m| &m.nmse);
                out.check(reference == Some(&nmse), || {
                    format!(
                        "k={k} {}: layer-call NMSE differs from train_resilient",
                        tr.metric
                    )
                });
            }
        }
    }

    let coeffs: usize = models.iter().map(|m| m.coefficients).sum();
    let attempts: u64 = models.iter().map(|m| m.attempts).sum();
    let degraded: usize = models.iter().map(|m| m.degraded).sum();
    let nmse: Vec<f64> = models.iter().flat_map(|m| m.nmse.iter().copied()).collect();
    layers::layer_metrics(&t, untraced_wall, &mut out.metrics);
    out.put("predictor.nmse_median_pct", median(&nmse), "%");
    out.put("predictor.nmse_p90_pct", quantile(&nmse, 0.9), "%");
    let points = BENCHMARKS.len() * (cfg.train_points + cfg.test_points);
    out.put("sim.runs", t.count("sim.runs"), "count");
    out.put(
        "sim.runs_per_point",
        t.count("sim.runs") / points as f64,
        "ratio",
    );
    out.put(
        "neural.fit_attempts_per_coeff",
        attempts as f64 / coeffs.max(1) as f64,
        "ratio",
    );
    out.put("predictor.degraded_coeffs", degraded as f64, "count");
    out.put(
        "predictor.degraded_frac",
        degraded as f64 / coeffs.max(1) as f64,
        "ratio",
    );
    out.attempted = (2 * expected) as u64;
    eprint!("{}", layers::report("retrain", &t, &out.metrics));
    crate::write_spans(args, &t);
    Ok(out)
}
