//! Determinism regression tests: a single `ExperimentConfig.seed` must pin
//! every stochastic component of the workspace bit-for-bit, run to run.
//! These guard the hermetic in-tree RNG — any change to its stream or to a
//! consumer's draw order shows up here before it silently shifts results.

use dynawave_core::experiment::{evaluate_benchmark, score_model, ExperimentConfig};
use dynawave_core::{
    collect_domain_traces, Metric, PortableCoeffModel, PortableModel, PredictorParams,
    WaveletNeuralPredictor,
};
use dynawave_sampling::{lhs, random, DesignSpace, Split};
use dynawave_sim::{IntervalStats, MachineConfig, SimOptions, Simulator};
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
fn replayed_streams_simulate_exactly_like_regenerated_ones() {
    let sim = Simulator::new(MachineConfig::baseline());
    for seed in [1, 7919, cfg().seed] {
        let opts = SimOptions {
            samples: 8,
            interval_instructions: 300,
            seed,
        };
        for bench in Benchmark::ALL {
            let stream = opts.stream(bench);
            let replayed = sim.run_trace(stream.iter().copied(), &opts);
            assert_eq!(
                replayed.intervals,
                sim.run(bench, &opts).intervals,
                "{bench} seed {seed}: replay differs from Simulator::run"
            );
            // A total that is not a whole number of intervals ends in a
            // partial interval, replayed or streamed alike.
            let total = 8 * 300 + 137;
            let stored: Vec<_> = TraceGenerator::new(bench, total, seed).collect();
            let replayed = sim.run_trace(stored.iter().copied(), &opts);
            let streamed = sim.run_trace(TraceGenerator::new(bench, total, seed), &opts);
            assert_eq!(replayed.intervals.len(), 9);
            assert_eq!(replayed.intervals[8].instructions, 137);
            assert_eq!(
                replayed.intervals, streamed.intervals,
                "{bench} seed {seed}: replay of a partial interval differs"
            );
        }
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

/// Folds one 64-bit value into a running digest.
fn fold(digest: u64, bits: u64) -> u64 {
    dynawave_numeric::rng::splitmix64(digest ^ bits)
}

fn fold_f64s(digest: u64, values: &[f64]) -> u64 {
    values.iter().fold(digest, |d, v| fold(d, v.to_bits()))
}

/// Folds every trained parameter of a predictor: coefficient indices,
/// normalizer minima and spans, unit centres and radii, output weights
/// and biases, and constant fallbacks.
fn fold_portable(mut digest: u64, model: &PortableModel) -> u64 {
    for &i in &model.indices {
        digest = fold(digest, i as u64);
    }
    for m in &model.models {
        digest = match m {
            PortableCoeffModel::Rbf(net) => {
                let mut d = fold_f64s(digest, &net.mins);
                d = fold_f64s(d, &net.spans);
                for (c, r) in net.centers.iter().zip(&net.radii) {
                    d = fold_f64s(fold_f64s(d, c), r);
                }
                d = fold_f64s(d, &net.weights);
                fold(d, net.bias.map_or(u64::MAX, f64::to_bits))
            }
            PortableCoeffModel::Linear {
                mins,
                spans,
                weights,
                bias,
            } => {
                let d = fold_f64s(fold_f64s(digest, mins), spans);
                fold(fold_f64s(d, weights), bias.to_bits())
            }
            PortableCoeffModel::Constant(v) => fold(digest, v.to_bits()),
        };
    }
    digest
}

/// The trained weights themselves, not just their run-to-run identity,
/// are pinned: a digest over every parameter of gcc's CPI, power and AVF
/// predictors at 16 and 128 coefficients, and over every test-point NMSE
/// they score. A rewrite of a training kernel that changes a single bit
/// of any weight fails here; one that only reorders work does not.
#[test]
fn trained_predictor_bits_are_pinned() {
    let cfg = ExperimentConfig {
        train_points: 40,
        test_points: 6,
        samples: 128,
        interval_instructions: 64,
        seed: 20260806,
        ..ExperimentConfig::default()
    };
    let opts = cfg.sim_options();
    let train = collect_domain_traces(Benchmark::Gcc, &cfg.train_design(), &opts);
    let test = collect_domain_traces(Benchmark::Gcc, &cfg.test_design(), &opts);
    let mut digest = 0u64;
    for k in [16, 128] {
        let params = PredictorParams {
            coefficients: k,
            ..cfg.predictor.clone()
        };
        for (tr, te) in train.iter().zip(&test) {
            let (model, degradation) =
                WaveletNeuralPredictor::train_resilient(tr, &params, &cfg.recovery)
                    .expect("resilient training");
            assert!(degradation.is_pristine(), "{}: {degradation}", tr.metric);
            digest = fold_portable(digest, &model.to_portable());
            let eval = score_model(tr.benchmark, tr.metric, model, te.clone());
            digest = fold_f64s(digest, &eval.nmse_per_test);
        }
    }
    assert_eq!(
        digest, 0xf79a_1a2f_07ce_e0ec,
        "trained predictor bits changed: digest {digest:#018x}"
    );
}

/// The forecasts themselves are pinned: a digest over every sample that
/// `predict` returns at the test points and the first training points
/// (where a query sits exactly on some unit centres) for gcc's and
/// mcf's CPI, power and AVF predictors at 16 and 128 coefficients, the
/// same predictors rebuilt from their portable snapshots, a linear and
/// a random-centre predictor, and a predictor whose coefficients landed
/// on every recovery rung. A rewrite of the evaluation path that moves a
/// single predicted bit fails here; one that only reorders independent
/// work does not.
#[test]
fn predicted_trace_bits_are_pinned() {
    use dynawave_core::ModelKind;
    use dynawave_numeric::fault::{self, FaultKind, FaultPlan, FaultSite};
    let cfg = ExperimentConfig {
        train_points: 40,
        test_points: 6,
        samples: 128,
        interval_instructions: 64,
        seed: 20260806,
        ..ExperimentConfig::default()
    };
    let opts = cfg.sim_options();
    let design = cfg.train_design();
    let queries: Vec<_> = (cfg.test_design().into_iter())
        .chain(design.iter().take(4).cloned())
        .collect();
    let fold_predictions = |digest: u64, model: &WaveletNeuralPredictor| {
        (queries.iter()).fold(digest, |d, q| fold_f64s(d, &model.predict(q)))
    };
    let train = |set: &dynawave_core::TraceSet, params: &PredictorParams| {
        WaveletNeuralPredictor::train_resilient(set, params, &cfg.recovery)
            .expect("resilient training")
    };
    let mut digest = 0u64;
    let mut gcc_cpi = None;
    for bench in [Benchmark::Gcc, Benchmark::Mcf] {
        let sets = collect_domain_traces(bench, &design, &opts);
        for k in [16, 128] {
            let params = PredictorParams {
                coefficients: k,
                ..cfg.predictor.clone()
            };
            for set in &sets {
                let (model, _) = train(set, &params);
                digest = fold_predictions(digest, &model);
                let rebuilt = WaveletNeuralPredictor::from_portable(model.to_portable())
                    .expect("portable round trip");
                digest = fold_predictions(digest, &rebuilt);
            }
        }
        gcc_cpi.get_or_insert_with(|| sets[0].clone());
    }
    let gcc_cpi = gcc_cpi.expect("gcc was trained");
    for model in [ModelKind::Linear, ModelKind::RandomRbf] {
        let params = PredictorParams {
            model,
            ..cfg.predictor.clone()
        };
        digest = fold_predictions(digest, &train(&gcc_cpi, &params).0);
    }
    // Half of all weight fits and ridge solves fail: coefficients land on
    // the primary, escalated, linear and mean rungs.
    let plan = FaultPlan::new(0x5EED_0025)
        .rate(0.5)
        .targeting(&[FaultSite::RbfWeightFit, FaultSite::RidgeSolve])
        .kinds(&[FaultKind::Singular]);
    let ((degraded, report), _) = fault::with_plan(plan, || train(&gcc_cpi, &cfg.predictor));
    let rungs = report.rung_counts();
    assert!(rungs[0] > 0 && rungs[2] + rungs[3] > 0, "rungs {rungs:?}");
    digest = fold_predictions(digest, &degraded);
    assert_eq!(
        digest, 0xcb90_8e44_9483_9664,
        "predicted trace bits changed: digest {digest:#018x}"
    );
}

/// What `collect_domain_traces` returns and what it records are pinned:
/// a digest over every trace bit and every byte of the traced event
/// stream for gcc and mcf on a mixed 12-point design (training levels,
/// test levels, and points with a 10th DVM value, some of them on). A
/// change to how the points are simulated that moves one trace bit or
/// one traced byte fails here; one that only reorders independent runs
/// does not.
#[test]
fn collected_trace_and_stream_bits_are_pinned() {
    use dynawave_sampling::DesignPoint;
    let opts = SimOptions {
        samples: 16,
        interval_instructions: 256,
        seed: 20260806,
    };
    let plain = DesignSpace::micro2007();
    let dvm = DesignSpace::micro2007_with_dvm();
    let design: Vec<DesignPoint> = (lhs::sample(&plain, 4, 28).into_iter())
        .chain(random::sample(&plain, 4, Split::Test, 28))
        .chain(lhs::sample(&dvm, 4, 28))
        .collect();
    assert!(design
        .iter()
        .any(|p| p.values().len() == 10 && p.value(9) > 0.0));
    let mut digest = 0u64;
    for bench in [Benchmark::Gcc, Benchmark::Mcf] {
        let prior = dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
        let sets = collect_domain_traces(bench, &design, &opts);
        let events = dynawave_obs::drain().expect("recorder was installed");
        if let Some(prior) = prior {
            dynawave_obs::install(prior);
        }
        for set in &sets {
            digest = set.traces.iter().fold(digest, |d, t| fold_f64s(d, t));
        }
        let stream = dynawave_obs::encode_lines(&events);
        assert!(stream.contains("sim.run_trace"), "{stream}");
        digest = stream.bytes().fold(digest, |d, b| fold(d, u64::from(b)));
    }
    assert_eq!(
        digest, 0x2806_f9ef_395d_c8eb,
        "collected trace or stream bits changed: digest {digest:#018x}"
    );
}

/// Folds every field of one interval: counters as they are, integrals
/// by their bit patterns. The destructuring is exhaustive, so a new
/// field fails to compile here until it is folded too.
fn fold_interval(mut digest: u64, interval: &IntervalStats) -> u64 {
    let IntervalStats {
        instructions,
        cycles,
        il1_accesses,
        il1_misses,
        itlb_misses,
        branches,
        mispredicts,
        btb_misses,
        int_alu_ops,
        int_mul_ops,
        fp_alu_ops,
        fp_mul_ops,
        issues,
        dl1_accesses,
        dl1_misses,
        dtlb_misses,
        l2_accesses,
        l2_misses,
        iq_occupancy,
        iq_ace,
        rob_occupancy,
        rob_ace,
        lsq_occupancy,
        lsq_ace,
        dvm_stall_cycles,
        dvm_triggers,
        dtm_engaged_windows,
        prefetch_fills,
        store_forwards,
    } = *interval;
    for v in [
        instructions,
        cycles,
        il1_accesses,
        il1_misses,
        itlb_misses,
        branches,
        mispredicts,
        btb_misses,
        int_alu_ops,
        int_mul_ops,
        fp_alu_ops,
        fp_mul_ops,
        issues,
        dl1_accesses,
        dl1_misses,
        dtlb_misses,
        l2_accesses,
        l2_misses,
    ] {
        digest = fold(digest, v);
    }
    digest = fold_f64s(
        digest,
        &[
            iq_occupancy,
            iq_ace,
            rob_occupancy,
            rob_ace,
            lsq_occupancy,
            lsq_ace,
        ],
    );
    for v in [
        dvm_stall_cycles,
        dvm_triggers,
        dtm_engaged_windows,
        prefetch_fills,
        store_forwards,
    ] {
        digest = fold(digest, v);
    }
    digest
}

/// The simulator's output itself, not just its run-to-run identity, is
/// pinned: a digest over every field of every interval of six
/// benchmarks on the Table 1 baseline, Table 2 corner and mixed points
/// (widths 2 and 16, ROB 96 and 160, LSQ 16 and 64, L2 256 and
/// 4096 KB), and the baseline with each extension the engine models:
/// the bimodal predictor, DTM fetch throttling at two throttle factors,
/// DVM through the tenth design value, next-line prefetching, store
/// forwarding (also with a 2-entry, 2-way DTLB, where a load that
/// forwards and still touches the DTLB would move its LRU order) and a
/// warmed-up run. A timing-model rewrite that moves a
/// single counter or integral bit fails here; one that only reorders
/// work does not.
#[test]
fn simulated_interval_bits_are_pinned() {
    use dynawave_sim::dtm::DtmConfig;
    use dynawave_sim::BranchPredictorKind;
    let opts = SimOptions {
        samples: 8,
        interval_instructions: 384,
        seed: 20260806,
    };
    let baseline = MachineConfig::baseline();
    let mut bimodal = baseline.clone();
    bimodal.bp_kind = BranchPredictorKind::Bimodal;
    let dtm = |throttle_factor| {
        baseline.clone().with_dtm(DtmConfig {
            ipc_trigger: 0.2,
            throttle_factor,
        })
    };
    let mut small_dtlb = baseline.clone().with_store_forwarding();
    small_dtlb.dtlb_entries = 2;
    small_dtlb.tlb_ways = 2;
    let configs = [
        baseline.clone(),
        MachineConfig::from_design_values(&[2.0, 96.0, 32.0, 16.0, 256.0, 8.0, 8.0, 8.0, 1.0]),
        MachineConfig::from_design_values(&[
            16.0, 160.0, 128.0, 64.0, 4096.0, 20.0, 64.0, 64.0, 4.0,
        ]),
        MachineConfig::from_design_values(&[16.0, 96.0, 64.0, 16.0, 256.0, 20.0, 8.0, 64.0, 4.0]),
        MachineConfig::from_design_values(&[2.0, 160.0, 128.0, 64.0, 4096.0, 8.0, 64.0, 8.0, 2.0]),
        bimodal,
        dtm(0.5),
        dtm(0.3),
        MachineConfig::from_design_values(&[
            8.0, 96.0, 96.0, 48.0, 2048.0, 12.0, 32.0, 64.0, 1.0, 0.1,
        ]),
        baseline.clone().with_next_line_prefetch(),
        baseline.clone().with_store_forwarding(),
        small_dtlb,
    ];
    let benches = [
        Benchmark::Gcc,
        Benchmark::Mcf,
        Benchmark::Swim,
        Benchmark::Crafty,
        Benchmark::Vortex,
        Benchmark::Gap,
    ];
    let mut digest = 0u64;
    let mut totals = vec![IntervalStats::default(); configs.len()];
    for bench in benches {
        for (config, total) in configs.iter().zip(&mut totals) {
            let run = Simulator::new(config.clone()).run(bench, &opts);
            digest = run.intervals.iter().fold(digest, fold_interval);
            run.intervals.iter().for_each(|i| total.absorb(i));
        }
        let warmed = Simulator::new(baseline.clone()).run_with_warmup(bench, &opts, 2000);
        digest = warmed.intervals.iter().fold(digest, fold_interval);
    }
    // Each extension is exercised, not just configured.
    assert!(totals[6].dtm_engaged_windows > 0 && totals[7].dtm_engaged_windows > 0);
    assert!(totals[8].dvm_triggers > 0);
    assert!(totals[9].prefetch_fills > 0);
    assert!(totals[10].store_forwards > 0 && totals[11].store_forwards > 0);
    assert_ne!(totals[5].mispredicts, totals[0].mispredicts);
    assert_eq!(
        digest, 0x4229_885f_8244_d955,
        "simulated interval bits changed: digest {digest:#018x}"
    );
}
