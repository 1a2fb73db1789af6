//! Concurrency battery for the parallel campaign executor: reports,
//! journals, and obs event streams must be byte-identical for any thread
//! count — including under deterministic fault injection and under
//! kill-and-resume, whatever thread count the killed run used. A seeded
//! property resumes the file-backed driver from journals that hold any
//! subset of the sequential oracle's unit lines, in any order, with the
//! last one torn, and checks it against the oracle.

use dynawave_core::campaign::{
    advance_journaled, run_journaled, run_journaled_parallel, threads_from_env, CampaignRunner,
    CampaignSpec, UnitRole,
};
use dynawave_core::experiment::ExperimentConfig;
use dynawave_core::{report, trace_for, Metric};
use dynawave_obs::EventKind;
use dynawave_testkit::{check, ensure, Rng};
use dynawave_workloads::Benchmark;
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

fn tiny_spec(seed: u64) -> CampaignSpec {
    CampaignSpec::single(
        Benchmark::Eon,
        Metric::Cpi,
        ExperimentConfig {
            train_points: 10,
            test_points: 4,
            samples: 16,
            interval_instructions: 400,
            seed,
            ..ExperimentConfig::default()
        },
    )
}

/// A two-pair spec so the merge has to interleave units across
/// (benchmark, metric) boundaries, not just within one pair.
fn wide_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        benchmarks: vec![Benchmark::Eon, Benchmark::Mcf],
        metrics: vec![Metric::Cpi, Metric::Power],
        config: ExperimentConfig {
            train_points: 6,
            test_points: 2,
            samples: 16,
            interval_instructions: 400,
            seed,
            ..ExperimentConfig::default()
        },
    }
}

/// A collision-free scratch journal path that cleans itself up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "dynawave-parallel-{}-{tag}.journal",
            std::process::id()
        ));
        let _ = fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

#[test]
fn reports_and_journals_byte_identical_across_thread_counts() {
    let spec = wide_spec(41);
    let reference = Scratch::new("threads-ref");
    let evals = run_journaled(&spec, &reference.0).unwrap();
    let want_report = report::full_report("campaign", &evals);
    let want_journal = fs::read_to_string(&reference.0).unwrap();
    for threads in [1, 2, 4, 8] {
        let scratch = Scratch::new(&format!("threads-{threads}"));
        let evals = run_journaled_parallel(&spec, &scratch.0, threads).unwrap();
        assert_eq!(
            report::full_report("campaign", &evals),
            want_report,
            "report diverged at {threads} threads"
        );
        assert_eq!(
            fs::read_to_string(&scratch.0).unwrap(),
            want_journal,
            "canonical journal diverged at {threads} threads"
        );
    }
}

#[test]
fn huge_thread_counts_spawn_one_worker_per_pending_point_at_most() {
    let spec = tiny_spec(71);
    let reference = Scratch::new("huge-ref");
    let want = report::full_report("campaign", &run_journaled(&spec, &reference.0).unwrap());
    let want_journal = fs::read_to_string(&reference.0).unwrap();
    let scratch = Scratch::new("huge");
    let evals = run_journaled_parallel(&spec, &scratch.0, 100_000).unwrap();
    assert_eq!(report::full_report("campaign", &evals), want);
    assert_eq!(fs::read_to_string(&scratch.0).unwrap(), want_journal);
}

/// The design point a journal unit line belongs to:
/// `<benchmark> <role> <index>`.
fn point_of(unit_line: &str) -> String {
    let fields: Vec<&str> = unit_line.split(' ').collect();
    format!("{} {} {}", fields[1], fields[3], fields[4])
}

/// The unit lines `journal` holds for design point `point`, in metric
/// order: what one worker hands the journal's writer for that point.
fn point_lines(journal: &str, point: &str) -> String {
    journal
        .split_inclusive('\n')
        .filter(|line| line.starts_with("unit ") && point_of(line) == point)
        .collect()
}

/// Runs `f` under a fresh tick-clock recorder and returns its result with
/// the number of simulator runs (`sim.run_trace` spans) it made.
fn counting_sim_runs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let prior = dynawave_obs::take();
    dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
    let out = f();
    let events = dynawave_obs::drain().expect("recorder was installed");
    if let Some(prior) = prior {
        dynawave_obs::install(prior);
    }
    let runs = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnter && e.name == "sim.run_trace")
        .count();
    (out, runs)
}

/// The canonical journal built unit by unit: one `trace_for` simulation
/// per (benchmark, metric, role, point), in canonical order.
fn per_unit_oracle_journal(spec: &CampaignSpec) -> String {
    let cfg = &spec.config;
    let opts = cfg.sim_options();
    let mut out = CampaignRunner::new(spec.clone()).journal();
    for &benchmark in &spec.benchmarks {
        for &metric in &spec.metrics {
            for (role, design) in [
                (UnitRole::Train, cfg.train_design()),
                (UnitRole::Test, cfg.test_design()),
            ] {
                for (i, point) in design.iter().enumerate() {
                    out.push_str(&format!(
                        "unit {} {metric} {} {i}",
                        benchmark.name(),
                        role.name()
                    ));
                    for v in trace_for(benchmark, point, metric, &opts) {
                        out.push_str(&format!(" {v}"));
                    }
                    out.push('\n');
                }
            }
        }
    }
    out
}

#[test]
fn one_simulation_per_design_point_at_any_thread_count() {
    let spec = wide_spec(47);
    let points = spec.benchmarks.len() * (spec.config.train_points + spec.config.test_points);
    let oracle = per_unit_oracle_journal(&spec);
    for threads in [1, 2, 4, 8] {
        let scratch = Scratch::new(&format!("once-{threads}"));
        let (evals, runs) =
            counting_sim_runs(|| run_journaled_parallel(&spec, &scratch.0, threads));
        evals.unwrap();
        assert_eq!(runs, points, "simulator runs at {threads} threads");
        assert_eq!(
            fs::read_to_string(&scratch.0).unwrap(),
            oracle,
            "journal diverged from the per-unit oracle at {threads} threads"
        );
    }
}

#[test]
fn resuming_a_partly_journaled_point_simulates_it_once_for_the_missing_metric() {
    let spec = wide_spec(53);
    let reference = Scratch::new("partial-point-ref");
    run_journaled(&spec, &reference.0).unwrap();
    let want_journal = fs::read_to_string(&reference.0).unwrap();

    // The first point journals its cpi and power lines in one append; a
    // kill tears the power line.
    let header = CampaignRunner::new(spec.clone()).journal();
    let first = point_lines(&want_journal, "eon train 0");
    assert!(first.starts_with("unit eon cpi train 0 "));
    let power_line = first.lines().nth(1).unwrap();
    assert!(power_line.starts_with("unit eon power train 0 "));
    let victim = Scratch::new("partial-point");
    fs::write(&victim.0, format!("{header}{}", &first[..first.len() - 7])).unwrap();

    // A one-point resume simulates the point once and appends its power
    // line only.
    let (units, runs) = counting_sim_runs(|| advance_journaled(&spec, &victim.0, 1));
    assert_eq!(units.unwrap(), 2);
    assert_eq!(runs, 1);
    assert_eq!(
        fs::read_to_string(&victim.0).unwrap(),
        format!("{header}{first}")
    );

    // Finishing the campaign simulates every other point once and ends on
    // the reference bytes.
    let (evals, runs) = counting_sim_runs(|| run_journaled(&spec, &victim.0));
    evals.unwrap();
    let points = spec.benchmarks.len() * (spec.config.train_points + spec.config.test_points);
    assert_eq!(runs, points - 1);
    assert_eq!(fs::read_to_string(&victim.0).unwrap(), want_journal);
}

#[test]
fn budget_stop_inside_the_second_benchmark_resumes_without_extra_simulations() {
    let spec = wide_spec(59);
    let per_benchmark = spec.config.train_points + spec.config.test_points;
    let points = spec.benchmarks.len() * per_benchmark;
    let reference = Scratch::new("budget-ref");
    let want = report::full_report("campaign", &run_journaled(&spec, &reference.0).unwrap());
    let want_journal = fs::read_to_string(&reference.0).unwrap();
    // Three points into mcf: the stopped worker held mcf's stream, and
    // every resuming worker generates its own.
    let done = per_benchmark + 3;
    for threads in 1..=4 {
        let scratch = Scratch::new(&format!("budget-{threads}"));
        let (units, runs) = counting_sim_runs(|| advance_journaled(&spec, &scratch.0, done));
        assert_eq!(units.unwrap(), done * spec.metrics.len());
        assert_eq!(runs, done);
        let (evals, runs) =
            counting_sim_runs(|| run_journaled_parallel(&spec, &scratch.0, threads));
        assert_eq!(runs, points - done, "simulator runs at {threads} threads");
        assert_eq!(
            report::full_report("campaign", &evals.unwrap()),
            want,
            "report diverged at {threads} threads"
        );
        assert_eq!(
            fs::read_to_string(&scratch.0).unwrap(),
            want_journal,
            "journal diverged at {threads} threads"
        );
    }
}

#[test]
fn killed_4_shard_run_resumes_byte_identical_at_any_thread_count() {
    let spec = wide_spec(43);
    let reference = Scratch::new("kill-ref");
    let want = report::full_report("campaign", &run_journaled(&spec, &reference.0).unwrap());
    let want_journal = fs::read_to_string(&reference.0).unwrap();

    // A killed 4-thread run: shard k owns eon's points k and k + 4, the
    // shards finished them out of order, the writer appended each point's
    // lines as they came, and the kill tore the last append.
    let mut text = CampaignRunner::new(spec.clone()).journal();
    for point in [
        "train 3", "train 1", "train 2", "train 0", "test 1", "train 5", "test 0", "train 4",
    ] {
        text.push_str(&point_lines(&want_journal, &format!("eon {point}")));
    }
    assert_ne!(
        text,
        CampaignRunner::resume(spec.clone(), &text)
            .unwrap()
            .journal(),
        "lines must be out of canonical order"
    );
    text.truncate(text.len() - 9);

    // Any thread count resumes it: the torn point is simulated again and
    // the report and journal end on the reference bytes.
    for threads in 1..=4 {
        let victim = Scratch::new(&format!("kill-victim-{threads}"));
        fs::write(&victim.0, &text).unwrap();
        let evals = run_journaled_parallel(&spec, &victim.0, threads).unwrap();
        assert_eq!(
            report::full_report("campaign", &evals),
            want,
            "report diverged resuming at {threads} threads"
        );
        assert_eq!(
            fs::read_to_string(&victim.0).unwrap(),
            want_journal,
            "journal diverged resuming at {threads} threads"
        );
    }
}

#[test]
fn chaos_under_4_threads_degrades_identically_to_1_thread() {
    use dynawave_numeric::fault::{self, FaultKind, FaultPlan, FaultSite};
    let spec = tiny_spec(97);
    let plan = || {
        FaultPlan::new(5)
            .rate(0.5)
            .targeting(&[FaultSite::RbfWeightFit])
            .kinds(&[
                FaultKind::Singular,
                FaultKind::NonFinite,
                FaultKind::EarlyStop,
            ])
    };
    let run = |threads: usize, tag: &str| {
        let scratch = Scratch::new(tag);
        let (out, fault_report) = fault::with_plan(plan(), || {
            run_journaled_parallel(&spec, &scratch.0, threads)
        });
        (out.unwrap(), fault_report)
    };
    let (evals_1, faults_1) = run(1, "chaos-1");
    let (evals_4, faults_4) = run(4, "chaos-4");
    // All fault sites are solver-side: training stays sequential on the
    // caller's thread, so the injected schedule cannot depend on the
    // worker count.
    assert!(faults_1.fired > 0, "plan must inject to mean much");
    assert_eq!(faults_1, faults_4, "fault schedule depends on thread count");
    assert_eq!(
        evals_1[0].degradation.rung_counts(),
        evals_4[0].degradation.rung_counts(),
        "recovery ladder depends on thread count"
    );
    assert!(evals_1[0].degradation.degraded_count() > 0);
    assert_eq!(
        report::full_report("chaos campaign", &evals_1),
        report::full_report("chaos campaign", &evals_4)
    );
}

#[test]
fn obs_streams_byte_identical_across_thread_counts_and_runs() {
    for (tag, spec) in [("tiny", tiny_spec(59)), ("wide", wide_spec(59))] {
        obs_streams_byte_identical(tag, &spec);
    }
}

fn obs_streams_byte_identical(spec_tag: &str, spec: &CampaignSpec) {
    let traced_run = |threads: usize, tag: &str| {
        let tag = format!("{spec_tag}-{tag}");
        let scratch = Scratch::new(&tag);
        let prior = dynawave_obs::take();
        dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
        let evals = run_journaled_parallel(spec, &scratch.0, threads).unwrap();
        let events = dynawave_obs::drain().expect("recorder was installed");
        if let Some(prior) = prior {
            dynawave_obs::install(prior);
        }
        (evals, dynawave_obs::encode_lines(&events))
    };
    let (evals_1, stream_1) = traced_run(1, "obs-1");
    let (_, stream_2) = traced_run(2, "obs-2");
    let (evals_4, stream_4) = traced_run(4, "obs-4");
    let (_, stream_8) = traced_run(8, "obs-8");
    let (_, stream_4b) = traced_run(4, "obs-4b");
    for (threads, stream) in [(4, &stream_4), (2, &stream_2), (8, &stream_8)] {
        assert_eq!(
            &stream_1, stream,
            "{spec_tag}: stream diverged between 1 and {threads} threads"
        );
    }
    assert_eq!(
        stream_4, stream_4b,
        "{spec_tag}: 4-thread stream diverged across runs"
    );
    for (one, four) in evals_1.iter().zip(&evals_4) {
        assert_eq!(one.nmse_per_test, four.nmse_per_test);
    }
    let summary = dynawave_obs::validate_stream(&stream_4);
    assert!(summary.is_clean(), "{:?}", summary.errors);
}

#[test]
fn stream_analysis_is_deterministic_and_sums_like_the_profile() {
    let spec = tiny_spec(67);
    let traced_run = |threads: usize, tag: &str| {
        let scratch = Scratch::new(tag);
        let prior = dynawave_obs::take();
        dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
        run_journaled_parallel(&spec, &scratch.0, threads).unwrap();
        let events = dynawave_obs::drain().expect("recorder was installed");
        if let Some(prior) = prior {
            dynawave_obs::install(prior);
        }
        events
    };
    let events_1 = traced_run(1, "analysis-1");
    let events_4 = traced_run(4, "analysis-4");
    let analysis_1 = dynawave_obs::StreamAnalysis::from_events(&events_1);
    let analysis_4 = dynawave_obs::StreamAnalysis::from_events(&events_4);
    // The derived report is byte-identical across worker counts, like the
    // stream it came from.
    let report_1 = analysis_1.render_markdown(5);
    assert_eq!(
        report_1,
        analysis_4.render_markdown(5),
        "obs report diverged between 1 and 4 threads"
    );
    assert_eq!(report_1, analysis_1.render_markdown(5), "render not stable");
    for (stage, got) in &analysis_4.stages {
        assert!(
            got.self_ticks <= got.inclusive_ticks,
            "stage {stage} self time exceeds inclusive"
        );
    }
    // One latency sample per completed unit, and the executor's
    // campaign.unit_latency histogram holds the same population.
    assert_eq!(analysis_4.unit_latencies.len(), spec.unit_count());
    let (_, counts) = &analysis_4.histograms["campaign.unit_latency"];
    assert_eq!(
        counts.iter().sum::<u64>(),
        spec.unit_count() as u64,
        "histogram population != unit count"
    );
    assert!(analysis_4.latency_summary().is_some());
    // parse_events round-trips the encoded stream into the same analysis.
    let text = dynawave_obs::encode_lines(&events_4);
    let reparsed = dynawave_obs::parse_events(&text).unwrap();
    assert_eq!(
        dynawave_obs::StreamAnalysis::from_events(&reparsed).render_markdown(5),
        report_1
    );
}

#[test]
fn stress_randomized_schedules_match_the_sequential_oracle() {
    // A schedule is what a killed run leaves in its journal: which of the
    // oracle's unit lines it kept and in what completion order, how many
    // bytes the kill tore off the last one, and the resuming thread count.
    let spec = wide_spec(73);
    let reference = Scratch::new("schedules-ref");
    let want = report::full_report("campaign", &run_journaled(&spec, &reference.0).unwrap());
    let want_journal = fs::read_to_string(&reference.0).unwrap();
    let header = CampaignRunner::new(spec.clone()).journal();
    let units: Vec<&str> = want_journal[header.len()..].split_inclusive('\n').collect();
    let points = spec.benchmarks.len() * (spec.config.train_points + spec.config.test_points);
    let schedule = |rng: &mut Rng| {
        let mut order: Vec<usize> = (0..units.len()).collect();
        rng.shuffle(&mut order);
        order.truncate(rng.range_usize(0, units.len() + 1));
        (order, rng.range_usize(0, 64), rng.range_usize(1, 5))
    };
    let victim = Scratch::new("schedules");
    check("journaled schedules resume to the sequential oracle")
        .cases(24)
        .run(schedule, |(order, tear, threads)| {
            // Shrinking may repeat or overflow an index; a journal holds
            // each unit once.
            let mut kept: Vec<usize> = Vec::new();
            for i in order.iter().map(|i| i % units.len()) {
                if !kept.contains(&i) {
                    kept.push(i);
                }
            }
            let mut text = header.clone();
            for &i in &kept {
                text.push_str(units[i]);
            }
            let torn = (*tear).min(kept.last().map_or(0, |&i| units[i].len()));
            text.truncate(text.len() - torn);
            if torn > 0 {
                kept.pop();
            }
            let mut journaled = BTreeMap::new();
            for &i in &kept {
                *journaled.entry(point_of(units[i])).or_insert(0) += 1;
            }
            let complete = (journaled.values())
                .filter(|&&n| n == spec.metrics.len())
                .count();
            fs::write(&victim.0, &text).map_err(|e| e.to_string())?;
            let (evals, runs) = counting_sim_runs(|| {
                run_journaled_parallel(&spec, &victim.0, (*threads).clamp(1, 4))
            });
            let evals = evals.map_err(|e| format!("resume failed: {e}"))?;
            ensure!(
                runs == points - complete,
                "{runs} simulator runs for {} points with a missing unit",
                points - complete
            );
            let journal = fs::read_to_string(&victim.0).map_err(|e| e.to_string())?;
            ensure!(journal == want_journal, "final journal diverged");
            ensure!(
                report::full_report("campaign", &evals) == want,
                "report diverged"
            );
            Ok(())
        });
}

#[test]
fn threads_from_env_parses_overrides_and_defaults() {
    // One test owns the env var: cargo may run tests concurrently in one
    // process. The other tests here read DYNAWAVE_THREADS only through
    // model training, whose results do not depend on the worker count.
    std::env::set_var("DYNAWAVE_THREADS", "3");
    assert_eq!(threads_from_env().unwrap(), 3);
    std::env::set_var("DYNAWAVE_THREADS", "0");
    let err = threads_from_env().unwrap_err();
    assert_eq!(err.name, "DYNAWAVE_THREADS");
    std::env::set_var("DYNAWAVE_THREADS", "many");
    assert!(threads_from_env().is_err());
    std::env::remove_var("DYNAWAVE_THREADS");
    assert!(threads_from_env().unwrap() >= 1);
}
