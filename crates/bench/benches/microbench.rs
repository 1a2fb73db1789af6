//! Microbenchmarks for the performance-critical components — wavelet
//! transforms, RBF training/prediction, the timing simulator, trace
//! generation, design sampling and the end-to-end pipeline — on a plain
//! `std::time::Instant` harness (no external crates, runs fully offline).
//!
//! Run with `cargo bench -p dynawave-bench`. Each benchmark reports the
//! median of `SAMPLES` timed batches to stderr-friendly text plus one JSON
//! line per benchmark on stdout in the `dynawave-obs` sink schema
//! (`"kind":"bench"` lines validate under `obs_validate`), so later PRs
//! can diff perf trajectories mechanically:
//!
//! ```text
//! {"schema":"dynawave-obs","v":1,"schema_version":1,"kind":"bench","bench":"wavelet/wavedec_haar/128","median_ns":1234,...}
//! ```
//!
//! Environment knobs: `DYNAWAVE_BENCH_SAMPLES` (default 15 batches),
//! `DYNAWAVE_BENCH_MIN_BATCH_MS` (default 20 ms per batch). A benchmark
//! name substring can be passed as a CLI filter:
//! `cargo bench -p dynawave-bench -- wavelet`.

use dynawave_neural::{Normalizer, RbfNetwork, RbfParams, RegressionTree, TreeParams};
use dynawave_numeric::{solve, Matrix};
use dynawave_sampling::{lhs, DesignSpace};
use dynawave_sim::{FrontEndOutcomes, MachineConfig, SimOptions, Simulator};
use dynawave_wavelet::{wavedec, waverec, Wavelet};
use dynawave_workloads::{Benchmark, TraceGenerator};
use std::hint::black_box;
use std::time::Instant;

/// Number of timed batches; the median is reported.
fn samples() -> usize {
    std::env::var("DYNAWAVE_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(15)
}

/// Minimum wall time per batch, used to auto-calibrate iteration counts.
fn min_batch_nanos() -> u128 {
    let ms: u128 = std::env::var("DYNAWAVE_BENCH_MIN_BATCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    ms * 1_000_000
}

struct Harness {
    filter: Option<String>,
    samples: usize,
}

impl Harness {
    fn new() -> Self {
        // cargo passes `--bench` (and test-harness flags); treat the first
        // non-flag argument as a name filter.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Harness {
            filter,
            samples: samples().max(3),
        }
    }

    /// `true` unless a name filter excludes `name`.
    fn selects(&self, name: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|f| name.contains(f.as_str()))
    }

    /// Times `op`, auto-calibrated so each batch runs at least
    /// [`min_batch_nanos`], and prints a text summary plus a JSON line.
    /// `throughput_elems` (elements processed per op) is echoed into the
    /// JSON so rates can be derived downstream.
    fn bench<T>(&self, name: &str, throughput_elems: u64, mut op: impl FnMut() -> T) {
        if !self.selects(name) {
            return;
        }
        // Calibrate: grow the per-batch iteration count until a batch
        // takes long enough to time reliably.
        let mut iters: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(op());
            }
            let elapsed = t0.elapsed().as_nanos();
            if elapsed >= min_batch_nanos() || iters >= 1 << 24 {
                break;
            }
            // Aim straight for the target with 2x headroom.
            let scale = (min_batch_nanos() as f64 / elapsed.max(1) as f64) * 2.0;
            iters = ((iters as f64 * scale).ceil() as u64).clamp(iters + 1, 1 << 24);
        }
        let mut per_iter: Vec<u128> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    black_box(op());
                }
                t0.elapsed().as_nanos() / u128::from(iters)
            })
            .collect();
        per_iter.sort_unstable();
        let median = per_iter[per_iter.len() / 2];
        let min = per_iter[0];
        let max = per_iter[per_iter.len() - 1];
        eprintln!(
            "{name:<40} median {median:>12} ns/iter  (min {min}, max {max}, {iters} iters x {} samples)",
            self.samples
        );
        println!(
            "{}",
            dynawave_obs::bench_json_line(
                name,
                median as f64,
                min as f64,
                max as f64,
                iters,
                throughput_elems,
            )
        );
    }
}

fn bench_wavelet(h: &Harness) {
    for &n in &[128usize, 1024] {
        let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin() + 2.0).collect();
        h.bench(&format!("wavelet/wavedec_haar/{n}"), n as u64, || {
            wavedec(black_box(&signal), Wavelet::Haar).unwrap()
        });
        h.bench(&format!("wavelet/wavedec_db4/{n}"), n as u64, || {
            wavedec(black_box(&signal), Wavelet::Daubechies4).unwrap()
        });
        let dec = wavedec(&signal, Wavelet::Haar).unwrap();
        h.bench(&format!("wavelet/waverec_haar/{n}"), n as u64, || {
            waverec(black_box(&dec)).unwrap()
        });
    }
}

fn bench_rbf(h: &Harness) {
    let space = DesignSpace::micro2007();
    let points = lhs::sample(&space, 200, 1);
    let x = Matrix::from_vec(
        points.len(),
        9,
        points.iter().flat_map(|p| p.values().to_vec()).collect(),
    )
    .unwrap();
    let y: Vec<f64> = points
        .iter()
        .map(|p| p.values().iter().map(|v| v.ln()).sum::<f64>())
        .collect();
    h.bench("rbf/fit_200x9", 200, || {
        RbfNetwork::fit(black_box(&x), black_box(&y), &RbfParams::default()).unwrap()
    });
    let net = RbfNetwork::fit(&x, &y, &RbfParams::default()).unwrap();
    h.bench("rbf/predict", 1, || {
        net.predict(black_box(points[0].values()))
    });
    // The two stages of a fit: center placement and the weight solve.
    let tree = TreeParams::default();
    h.bench("rbf/tree_fit", 200, || {
        RegressionTree::fit(black_box(&x), black_box(&y), &tree).unwrap()
    });
    let phi = gaussian_design(&x, 56);
    h.bench("rbf/ridge_solve", 200, || {
        solve::ridge_regression(black_box(&phi), black_box(&y), 3e-4).unwrap()
    });
}

/// A `rows x (units + 1)` RBF design on the min-max normalized `x`:
/// `units` Gaussians centred on evenly spaced rows, then a bias column.
fn gaussian_design(x: &Matrix, units: usize) -> Matrix {
    let xn = Normalizer::fit(x).transform_matrix(x);
    let n = xn.rows();
    let mut data = Vec::with_capacity(n * (units + 1));
    for r in 0..n {
        for u in 0..units {
            let center = xn.row(u * n / units);
            let s: f64 = xn
                .row(r)
                .iter()
                .zip(center)
                .map(|(a, c)| ((a - c) / 0.7).powi(2))
                .sum();
            data.push((-s).exp());
        }
        data.push(1.0);
    }
    Matrix::from_vec(n, units + 1, data).unwrap()
}

/// One predictor's training: wavedec, selection and 128 coefficient fits
/// on a simulated 200-point gcc CPI training set of 128 samples; then
/// its prediction of one unsimulated point's 128-sample trace.
fn bench_predictor(h: &Harness) {
    use dynawave_core::WaveletNeuralPredictor;
    use dynawave_core::{collect_traces, Metric, PredictorParams, RecoveryPolicy};
    // Skip the training-set simulation when the filter drops both lines.
    if !h.selects("predictor/train") && !h.selects("predictor/predict") {
        return;
    }
    let points = lhs::sample(&DesignSpace::micro2007(), 200, 1);
    let opts = SimOptions {
        samples: 128,
        interval_instructions: 64,
        seed: 1,
    };
    let train = collect_traces(Benchmark::Gcc, &points, Metric::Cpi, &opts);
    let params = PredictorParams {
        coefficients: 128,
        ..PredictorParams::default()
    };
    let policy = RecoveryPolicy::default();
    h.bench("predictor/train", 128, || {
        WaveletNeuralPredictor::train_resilient(black_box(&train), &params, &policy).unwrap()
    });
    let (model, _) = WaveletNeuralPredictor::train_resilient(&train, &params, &policy).unwrap();
    let query = &lhs::sample(&DesignSpace::micro2007(), 1, 2)[0];
    h.bench("predictor/predict", 128, || model.predict(black_box(query)));
}

fn bench_simulator(h: &Harness) {
    let opts = SimOptions {
        samples: 8,
        interval_instructions: 4096,
        seed: 1,
    };
    let instructions = opts.samples as u64 * opts.interval_instructions;
    for bench in [Benchmark::Gcc, Benchmark::Mcf] {
        h.bench(
            &format!("simulator/run/{}", bench.name()),
            instructions,
            || Simulator::new(MachineConfig::baseline()).run(black_box(bench), black_box(&opts)),
        );
    }
    // The engine alone: the same gcc run replayed from a pre-generated
    // stream, as campaigns and training sets simulate. `simulator/run/gcc`
    // minus this line is the generator's share (`workloads/generate_gcc`).
    let stream = opts.stream(Benchmark::Gcc);
    h.bench("simulator/engine/gcc", instructions, || {
        Simulator::new(MachineConfig::baseline())
            .run_trace(black_box(&stream).iter().copied(), black_box(&opts))
    });
    // A campaign worker's sweep: one gcc stream replayed into 16 Table 2
    // points, its front-end outcomes computed once inside the op.
    let configs: Vec<MachineConfig> = lhs::sample(&DesignSpace::micro2007(), 16, 1)
        .iter()
        .map(|p| MachineConfig::from_design_values(p.values()))
        .collect();
    h.bench("simulator/engine/sweep_gcc", instructions * 16, || {
        let stream = black_box(&stream);
        let outcomes = FrontEndOutcomes::new(&MachineConfig::baseline(), stream);
        (configs.iter())
            .map(|c| Simulator::new(c.clone()).run_replay(stream, &outcomes, black_box(&opts)))
            .collect::<Vec<_>>()
    });
}

fn bench_trace_generation(h: &Harness) {
    let n = 32_768u64;
    h.bench("workloads/generate_gcc", n, || {
        TraceGenerator::new(Benchmark::Gcc, black_box(n), 1).count()
    });
}

fn bench_sampling(h: &Harness) {
    let space = DesignSpace::micro2007();
    h.bench("sampling/lhs_200_best_of_8", 200, || {
        lhs::sample(black_box(&space), 200, 7)
    });
}

fn bench_end_to_end(h: &Harness) {
    use dynawave_core::experiment::{evaluate_benchmark, ExperimentConfig};
    use dynawave_core::Metric;
    // A deliberately tiny config: this tracks pipeline plumbing cost, and
    // is the baseline the obs overhead budget (DESIGN.md §9) is measured
    // against, so it must be cheap enough to sample repeatedly.
    let cfg = ExperimentConfig {
        train_points: 10,
        test_points: 3,
        samples: 16,
        interval_instructions: 400,
        seed: 42,
        ..ExperimentConfig::default()
    };
    let work = cfg.train_points * cfg.samples;
    h.bench("e2e/evaluate_eon_cpi_10x3", work as u64, || {
        evaluate_benchmark(Benchmark::Eon, Metric::Cpi, black_box(&cfg)).unwrap()
    });
    // The same pipeline with tracing on: the delta against the line above
    // is the observability overhead.
    h.bench("e2e/evaluate_eon_cpi_10x3_traced", work as u64, || {
        let prior = dynawave_obs::take();
        dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
        let eval = evaluate_benchmark(Benchmark::Eon, Metric::Cpi, black_box(&cfg)).unwrap();
        let events = dynawave_obs::drain();
        if let Some(prior) = prior {
            dynawave_obs::install(prior);
        }
        (eval, events)
    });
}

fn bench_campaign(h: &Harness) {
    use dynawave_core::campaign::{run_journaled_parallel, CampaignSpec};
    use dynawave_core::experiment::ExperimentConfig;
    use dynawave_core::Metric;
    // The campaign/parallel pair: the same journaled campaign at 1 and 4
    // worker threads, each writing one journal through the calling
    // thread. On a multi-core box the t4 line should approach a 4x lower
    // median for the simulation phase (training is sequential); on a
    // single hardware thread the pair instead bounds the sharding and
    // hand-off overhead — both are worth tracking in BENCH_*.json.
    let spec = CampaignSpec::single(
        Benchmark::Gcc,
        Metric::Cpi,
        ExperimentConfig {
            train_points: 24,
            test_points: 8,
            samples: 32,
            interval_instructions: 600,
            seed: 61,
            ..ExperimentConfig::default()
        },
    );
    let units = spec.unit_count() as u64;
    for threads in [1usize, 4] {
        let path = std::env::temp_dir().join(format!(
            "dynawave-bench-campaign-t{threads}-{}.journal",
            std::process::id()
        ));
        h.bench(&format!("campaign/parallel/t{threads}"), units, || {
            // Fresh campaign each iteration: a leftover journal would
            // resume instead of simulate.
            let _ = std::fs::remove_file(&path);
            run_journaled_parallel(&spec, &path, threads).map(|evals| evals.len())
        });
        let _ = std::fs::remove_file(&path);
    }
}

fn bench_serve(h: &Harness) {
    use dynawave_core::experiment::ExperimentConfig;
    use dynawave_core::serve::{ServeConfig, ServeEngine};
    let config = ServeConfig {
        config: ExperimentConfig {
            train_points: 12,
            test_points: 2,
            samples: 16,
            interval_instructions: 300,
            seed: 17,
            ..ExperimentConfig::default()
        },
        // Effectively unbounded: throughput, not admission control, is
        // what these lines track.
        queue_capacity: u64::MAX / 4,
        drain_per_request: u64::MAX / 8,
        ..ServeConfig::default()
    };
    let dims = config.config.space().dims();
    let point = |base: f64| -> String {
        let knobs: Vec<String> = (0..dims).map(|i| format!("{}", base + i as f64)).collect();
        format!("[{}]", knobs.join(","))
    };
    let pts: Vec<String> = (0..8).map(|i| point(2.0 + i as f64)).collect();
    let request = format!(
        "{{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"bench\",\
         \"kind\":\"predict\",\"benchmark\":\"gcc\",\"metric\":\"cpi\",\
         \"points\":[{}]}}",
        pts.join(",")
    );
    // Warm the model cache so the lines below measure steady-state
    // request handling, not one-off lazy training.
    let mut engine = ServeEngine::new(config);
    black_box(engine.handle_line(&request));
    h.bench("serve/predict_batch/8", 8, || {
        engine.handle_line(black_box(&request))
    });
    // The rejection path: full parse-validate-respond on garbage. This
    // bounds how cheaply the daemon sheds malformed input.
    h.bench("serve/reject_malformed", 1, || {
        engine.handle_line(black_box("{\"not\":\"a request\",]"))
    });
    // The introspection path: a full snapshot render per probe. This is
    // the overhead a monitoring poller pays, and a ceiling on how much
    // the always-on stats counters can cost the hot path.
    let stats = "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"bench\",\"kind\":\"stats\"}";
    h.bench("serve/stats_probe", 1, || {
        engine.handle_line(black_box(stats))
    });
}

fn main() {
    let h = Harness::new();
    bench_wavelet(&h);
    bench_rbf(&h);
    bench_predictor(&h);
    bench_simulator(&h);
    bench_trace_generation(&h);
    bench_sampling(&h);
    bench_end_to_end(&h);
    bench_campaign(&h);
    bench_serve(&h);
    // Benches run under `timeout` in CI; an unflushed stdout buffer there
    // would truncate the last JSON line mid-record.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
}
