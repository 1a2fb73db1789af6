//! Determinism regression tests: a single `ExperimentConfig.seed` must pin
//! every stochastic component of the workspace bit-for-bit, run to run.
//! These guard the hermetic in-tree RNG — any change to its stream or to a
//! consumer's draw order shows up here before it silently shifts results.

use dynawave_core::experiment::{evaluate_benchmark, ExperimentConfig};
use dynawave_core::Metric;
use dynawave_sampling::{lhs, random, DesignSpace, Split};
use dynawave_workloads::{Benchmark, TraceGenerator};

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        train_points: 20,
        test_points: 5,
        samples: 16,
        interval_instructions: 500,
        seed: 20260806,
        ..ExperimentConfig::default()
    }
}

#[test]
fn traces_are_bit_identical_across_runs() {
    let cfg = cfg();
    for bench in [Benchmark::Gcc, Benchmark::Mcf, Benchmark::Swim] {
        let a: Vec<_> = TraceGenerator::new(bench, 10_000, cfg.seed).collect();
        let b: Vec<_> = TraceGenerator::new(bench, 10_000, cfg.seed).collect();
        assert_eq!(
            a, b,
            "{bench} trace differs between runs of seed {}",
            cfg.seed
        );
    }
}

#[test]
fn traces_differ_across_seeds_and_benchmarks() {
    let cfg = cfg();
    let a: Vec<_> = TraceGenerator::new(Benchmark::Gcc, 5_000, cfg.seed).collect();
    let b: Vec<_> = TraceGenerator::new(Benchmark::Gcc, 5_000, cfg.seed + 1).collect();
    let c: Vec<_> = TraceGenerator::new(Benchmark::Mcf, 5_000, cfg.seed).collect();
    assert_ne!(a, b, "seed does not feed the trace stream");
    assert_ne!(a, c, "benchmark label does not feed the trace stream");
}

#[test]
fn lhs_matrix_is_identical_across_runs() {
    let cfg = cfg();
    let a = cfg.train_design();
    let b = cfg.train_design();
    assert_eq!(a, b, "LHS training design differs between runs");
    // And the raw sampler agrees with itself under an explicit space.
    let space = DesignSpace::micro2007();
    assert_eq!(
        lhs::sample(&space, 50, cfg.seed),
        lhs::sample(&space, 50, cfg.seed)
    );
}

#[test]
fn random_test_design_is_identical_across_runs() {
    let cfg = cfg();
    let space = DesignSpace::micro2007();
    assert_eq!(
        random::sample(&space, 30, Split::Test, cfg.seed),
        random::sample(&space, 30, Split::Test, cfg.seed)
    );
}

#[test]
fn end_to_end_nmse_is_identical_across_runs() {
    let cfg = cfg();
    let a = evaluate_benchmark(Benchmark::Eon, Metric::Cpi, &cfg).expect("pipeline runs");
    let b = evaluate_benchmark(Benchmark::Eon, Metric::Cpi, &cfg).expect("pipeline runs");
    assert_eq!(
        a.nmse_per_test, b.nmse_per_test,
        "end-to-end NMSE differs between identical runs"
    );
    assert_eq!(a.predictions, b.predictions);
    assert_eq!(a.median_nmse(), b.median_nmse());
}

#[test]
fn obs_event_streams_are_byte_identical_across_runs() {
    // Tracing must not perturb determinism, and must itself be
    // deterministic: two identical seeded runs on the tick clock emit
    // byte-identical JSON-lines streams.
    let run = || {
        let prior = dynawave_obs::take();
        dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
        let eval = evaluate_benchmark(Benchmark::Eon, Metric::Cpi, &cfg()).expect("pipeline runs");
        let events = dynawave_obs::drain().expect("recorder was installed");
        if let Some(prior) = prior {
            dynawave_obs::install(prior);
        }
        (eval, dynawave_obs::encode_lines(&events))
    };
    let (eval_a, stream_a) = run();
    let (eval_b, stream_b) = run();
    assert_eq!(stream_a, stream_b, "traced event streams differ");
    assert_eq!(eval_a.nmse_per_test, eval_b.nmse_per_test);
    // The stream is schema-valid and covers the instrumented stages this
    // path exercises.
    let summary = dynawave_obs::validate_stream(&stream_a);
    assert!(summary.is_clean(), "{:?}", summary.errors);
    for stage in ["sim", "wavelet", "neural", "predictor", "experiment"] {
        assert!(
            summary.stages.contains(stage),
            "stage {stage} missing from {:?}",
            summary.stages
        );
    }
    // An untraced run is unaffected by instrumentation.
    let plain = evaluate_benchmark(Benchmark::Eon, Metric::Cpi, &cfg()).expect("pipeline runs");
    assert_eq!(plain.nmse_per_test, eval_a.nmse_per_test);
}

#[test]
fn traced_parallel_campaign_streams_are_byte_identical_across_runs() {
    use dynawave_core::campaign::{run_journaled_parallel, CampaignSpec};
    // Four worker threads, each with its own thread-local recorder; the
    // merged stream must be deterministic run to run, schema-valid, and
    // cover the same stages `obs_validate --require-stages` gates on in
    // CI.
    let spec = CampaignSpec::single(
        Benchmark::Eon,
        Metric::Cpi,
        ExperimentConfig {
            train_points: 10,
            test_points: 4,
            samples: 16,
            interval_instructions: 400,
            seed: 20260808,
            ..ExperimentConfig::default()
        },
    );
    let run = |tag: &str| {
        let journal = std::env::temp_dir().join(format!(
            "dynawave-determinism-par-{}-{tag}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&journal);
        let prior = dynawave_obs::take();
        dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
        let evals = run_journaled_parallel(&spec, &journal, 4).expect("campaign runs");
        let events = dynawave_obs::drain().expect("recorder was installed");
        if let Some(prior) = prior {
            dynawave_obs::install(prior);
        }
        let _ = std::fs::remove_file(&journal);
        (evals, dynawave_obs::encode_lines(&events))
    };
    let (evals_a, stream_a) = run("a");
    let (evals_b, stream_b) = run("b");
    assert_eq!(stream_a, stream_b, "traced parallel streams differ");
    assert_eq!(evals_a[0].nmse_per_test, evals_b[0].nmse_per_test);
    let summary = dynawave_obs::validate_stream(&stream_a);
    assert!(summary.is_clean(), "{:?}", summary.errors);
    for stage in ["sim", "wavelet", "neural", "predictor", "campaign"] {
        assert!(
            summary.stages.contains(stage),
            "stage {stage} missing from {:?}",
            summary.stages
        );
    }
}

#[test]
fn chaos_runs_are_bit_identical_across_runs() {
    use dynawave_numeric::fault::{self, FaultKind, FaultPlan, FaultSite};
    let cfg = cfg();
    // A chaos run is a first-class experiment: the same fault-plan seed
    // must produce the same injected faults, the same degradation ladder
    // and the same numbers, bit for bit.
    let run = || {
        let plan = FaultPlan::new(0xBAD5EED)
            .rate(0.4)
            .targeting(&[FaultSite::RbfWeightFit])
            .kinds(&[FaultKind::Singular, FaultKind::NonFinite]);
        fault::with_plan(plan, || {
            evaluate_benchmark(Benchmark::Eon, Metric::Cpi, &cfg).expect("resilient run")
        })
    };
    let (a, fr_a) = run();
    let (b, fr_b) = run();
    assert_eq!(fr_a, fr_b, "fault schedule differs between identical plans");
    assert!(
        fr_a.fired > 0,
        "plan must inject for this test to mean much"
    );
    assert_eq!(a.degradation, b.degradation, "degradation ladder differs");
    assert!(a.degradation.degraded_count() > 0);
    assert_eq!(a.nmse_per_test, b.nmse_per_test);
    assert_eq!(a.predictions, b.predictions);
}
