//! `campaign`: fresh journaled `run_journaled_parallel` campaigns of CPI,
//! power and AVF on three contrasting benchmarks — gcc (phases and
//! branches), mcf (memory) and swim (floating point) — at the paper's
//! 128-sample trace length, on every available worker thread.
//!
//! Trace generation and the simulator engine do almost all the work here,
//! and every design point is simulated once per metric; model training is
//! a small tail. This is where generator, engine and simulate-once
//! changes show, and where a training change should not.

use crate::layers::{self, Stopwatch, Tracer};
use crate::{derive, median, peak_rss_mb, quantile, Args, Outcome};
use dynawave_core::campaign::{CampaignRunner, CampaignSpec, UnitRole};
use dynawave_core::experiment::{BenchmarkEvaluation, ExperimentConfig};
use dynawave_core::{report, run_journaled_parallel, threads_from_env, Metric, TraceSet};
use dynawave_numeric::stats::nmse_percent;
use dynawave_obs::{EventKind, Recorder};
use dynawave_sampling::DesignPoint;
use dynawave_workloads::Benchmark;
use std::io::Write as _;
use std::path::Path;

const BENCHMARKS: [Benchmark; 3] = [Benchmark::Gcc, Benchmark::Mcf, Benchmark::Swim];

/// Training and test points per benchmark, and instructions per sample.
const TRAIN: usize = 40;
const TEST: usize = 10;
const INTERVAL: u64 = 128;

const TITLE: &str = "dsebench campaign";

fn spec(args: &Args) -> CampaignSpec {
    let (train, test, interval) = if args.smoke {
        (16, 4, 16)
    } else {
        (TRAIN, TEST, INTERVAL)
    };
    CampaignSpec {
        benchmarks: BENCHMARKS.to_vec(),
        metrics: Metric::DOMAINS.to_vec(),
        config: ExperimentConfig {
            train_points: train,
            test_points: test,
            samples: 128,
            interval_instructions: interval,
            seed: derive(args.seed, "campaign/design"),
            ..ExperimentConfig::default()
        },
    }
}

/// Distinct (benchmark, design point) pairs in the campaign.
fn points(spec: &CampaignSpec) -> usize {
    spec.benchmarks.len() * (spec.config.train_points + spec.config.test_points)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn nmse_values(evals: &[BenchmarkEvaluation]) -> Vec<f64> {
    evals
        .iter()
        .flat_map(|e| e.nmse_per_test.iter().copied())
        .collect()
}

/// The campaign's output checks: every unit journaled, one evaluation per
/// (benchmark, metric), finite NMSE, and a resume from the final journal
/// reproducing the same report.
fn check_campaign(
    out: &mut Outcome,
    spec: &CampaignSpec,
    journal: &str,
    evals: &[BenchmarkEvaluation],
    report_text: &str,
) {
    let units = journal.lines().filter(|l| l.starts_with("unit ")).count();
    out.check(units == spec.unit_count(), || {
        format!(
            "journal holds {units} units, expected {}",
            spec.unit_count()
        )
    });
    let expected = spec.benchmarks.len() * spec.metrics.len();
    out.check(evals.len() == expected, || {
        format!("{} evaluations, expected {expected}", evals.len())
    });
    out.check(nmse_values(evals).iter().all(|v| v.is_finite()), || {
        "non-finite NMSE".to_string()
    });
    let resumed = CampaignRunner::resume(spec.clone(), journal)
        .and_then(|r| r.finish())
        .map(|e| report::full_report(TITLE, &e));
    out.check(resumed.as_deref() == Ok(report_text), || {
        "resume from the final journal does not reproduce the report".to_string()
    });
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let threads = threads_from_env().map_err(|e| e.to_string())?;
    if args.trace {
        return traced(args, work, &spec(args), threads);
    }
    // One CPU is left to the rest of the host: on a small shared machine a
    // campaign on every CPU measures its neighbours as much as itself.
    let threads = threads.saturating_sub(1).max(1);
    let mut out = Outcome::default();

    // Each fresh campaign is set up (designs drawn, journal created) and
    // then run; set-up is timed separately, once per campaign.
    let spec = spec(args);
    let mut setup = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<String> = None;
    let clock = Stopwatch::start();
    while walls.is_empty() || clock.secs() < args.seconds {
        let path = work.join(format!("run{}.journal", walls.len()));
        let sw = Stopwatch::start();
        let runner = CampaignRunner::new(spec.clone());
        std::fs::write(&path, runner.journal()).map_err(|e| e.to_string())?;
        setup.push(sw.secs());
        let sw = Stopwatch::start();
        let evals = run_journaled_parallel(&spec, &path, threads).map_err(|e| e.to_string())?;
        walls.push(sw.secs());
        let report_text = report::full_report(TITLE, &evals);
        match &first {
            None => {
                check_campaign(&mut out, &spec, &read(&path)?, &evals, &report_text);
                first = Some(report_text);
            }
            Some(expected) => out.check(report_text == *expected, || {
                "a repeated campaign produced a different report".to_string()
            }),
        }
        let _ = std::fs::remove_file(&path);
    }

    let rates: Vec<f64> = walls.iter().map(|w| points(&spec) as f64 / w).collect();
    let latency: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    out.attempted = walls.len() as u64;
    crate::put_timings(&mut out, &setup, &rates, &latency);
    out.put("peak_rss_mb", peak_rss_mb("self"), "MiB");
    Ok(out)
}

/// One campaign unit's journal line, in the library's format.
fn journal_line(b: Benchmark, m: Metric, role: UnitRole, index: usize, trace: &[f64]) -> String {
    let mut line = format!("unit {} {} {} {index}", b.name(), m.name(), role.name());
    for v in trace {
        line.push_str(&format!(" {v}"));
    }
    line.push('\n');
    line
}

fn traced(
    args: &Args,
    work: &Path,
    spec: &CampaignSpec,
    threads: usize,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let err = |e: dynawave_core::campaign::CampaignError| e.to_string();

    // Untraced references: the parallel campaign (whose outputs the traced
    // path must reproduce) and a single-thread one (the traced path's
    // untraced twin, and the base of the parallel efficiency).
    let ref_path = work.join("reference.journal");
    let sw = Stopwatch::start();
    let evals = run_journaled_parallel(spec, &ref_path, threads).map_err(err)?;
    let wall_parallel = sw.secs();
    let journal = read(&ref_path)?;
    let report_text = report::full_report(TITLE, &evals);
    check_campaign(&mut out, spec, &journal, &evals, &report_text);
    let sw = Stopwatch::start();
    run_journaled_parallel(spec, &work.join("single.journal"), 1).map_err(err)?;
    let wall_single = sw.secs();

    // Simulator runs as the program itself counts them: the engine's own
    // `sim.run_trace` spans and committed-instruction counter.
    dynawave_obs::install(Recorder::with_tick_clock());
    let counted = run_journaled_parallel(spec, &work.join("counted.journal"), threads);
    let events = dynawave_obs::drain().unwrap_or_default();
    counted.map_err(err)?;
    let sim_runs = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnter && e.name == "sim.run_trace")
        .count() as f64;
    let sim_instr = events
        .iter()
        .filter(|e| e.kind == EventKind::Counter && e.name == "sim.instructions_committed")
        .filter_map(|e| e.count)
        .sum::<u64>() as f64;
    let runs_per_point = sim_runs / points(spec) as f64;

    // The traced campaign, single-threaded so layer times add up to wall.
    let mut t = Tracer::new();
    let cfg = &spec.config;
    let opts = cfg.sim_options();
    let (train_design, test_design) = t.call("sampling", "designs", |_| {
        (cfg.train_design(), cfg.test_design())
    });
    let traced_path = work.join("traced.journal");
    let (traced_journal, traced_evals) = t.call("campaign", "run", |t| {
        let header = CampaignRunner::new(spec.clone()).journal();
        std::fs::write(&traced_path, &header).map_err(|e| e.to_string())?;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&traced_path)
            .map_err(|e| e.to_string())?;
        for &b in &spec.benchmarks {
            let traces = [&train_design, &test_design]
                .map(|design| unit_traces(t, b, design, &spec.metrics, &opts, runs_per_point));
            for (mi, &m) in spec.metrics.iter().enumerate() {
                for (ri, role) in [UnitRole::Train, UnitRole::Test].into_iter().enumerate() {
                    for (i, trace) in traces[ri][mi].iter().enumerate() {
                        file.write_all(journal_line(b, m, role, i, trace).as_bytes())
                            .map_err(|e| e.to_string())?;
                    }
                }
            }
        }
        let text = read(&traced_path)?;
        let runner = CampaignRunner::resume(spec.clone(), &text).map_err(err)?;
        let evals = t
            .call("campaign", "finish", |_| runner.finish())
            .map_err(err)?;
        Ok::<_, String>((text, evals))
    })?;
    out.check(traced_journal == journal, || {
        "traced layer calls did not reproduce the campaign journal".to_string()
    });
    out.check(
        report::full_report(TITLE, &traced_evals) == report_text,
        || "traced campaign report differs".to_string(),
    );

    // `finish` trains and scores opaquely; the same models through the
    // layer calls must give the same NMSE.
    for e in &evals {
        let train = TraceSet {
            benchmark: e.benchmark,
            metric: e.metric,
            points: train_design.clone(),
            traces: unit_role_traces(&journal, e.benchmark, e.metric, UnitRole::Train),
        };
        let model = layers::train(&mut t, &train, &cfg.predictor)?;
        let nmse: Vec<f64> = e
            .test
            .points
            .iter()
            .zip(&e.test.traces)
            .map(|(p, actual)| nmse_percent(actual, &layers::predict(&mut t, &model, p)))
            .collect();
        out.check(nmse == e.nmse_per_test, || {
            format!(
                "{} {}: layer-call NMSE differs from finish()",
                e.benchmark.name(),
                e.metric
            )
        });
    }

    let coeffs: usize = evals
        .iter()
        .map(|e| e.degradation.coefficient_count())
        .sum();
    let attempts: u64 = evals.iter().map(|e| e.degradation.total_attempts()).sum();
    let degraded: usize = evals.iter().map(|e| e.degradation.degraded_count()).sum();
    let nmse = nmse_values(&evals);
    layers::layer_metrics(&t, wall_single, &mut out.metrics);
    out.put("predictor.nmse_median_pct", median(&nmse), "%");
    out.put("predictor.nmse_p90_pct", quantile(&nmse, 0.9), "%");
    out.put("sim.runs", sim_runs, "count");
    out.put("sim.instr", sim_instr, "count");
    out.put("sim.runs_per_point", runs_per_point, "ratio");
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
    out.put("campaign.units", spec.unit_count() as f64, "count");
    out.put("campaign.journal_bytes", journal.len() as f64, "bytes");
    out.put(
        "campaign.finish_busy_s",
        t.durations("campaign", "finish").iter().sum(),
        "s",
    );
    out.put("campaign.self_s", t.name_self("campaign", "run"), "s");
    out.put(
        "campaign.parallel_eff",
        wall_single / (threads as f64 * wall_parallel),
        "ratio",
    );
    let useful = points(spec) as f64 * (cfg.samples as u64 * cfg.interval_instructions) as f64;
    out.put(
        "campaign.useful_minstr_per_s",
        useful / wall_parallel / 1e6,
        "Minstr/s",
    );
    out.attempted = 4;
    eprint!("{}", layers::report("campaign", &t, &out.metrics));
    crate::write_spans(args, &t);
    Ok(out)
}

/// Traces of every metric at every point of one design, indexed
/// `[metric][point]`. Like the program, the traced path simulates once per
/// (point, metric) unit while the program does so — `runs_per_point`, as
/// counted from the program's own spans, above 1.5 — and once per point
/// otherwise.
fn unit_traces(
    t: &mut Tracer,
    b: Benchmark,
    design: &[DesignPoint],
    metrics: &[Metric],
    opts: &dynawave_sim::SimOptions,
    runs_per_point: f64,
) -> Vec<Vec<Vec<f64>>> {
    let mut traces = vec![Vec::with_capacity(design.len()); metrics.len()];
    let per_unit = runs_per_point > 1.5;
    for (mi, &m) in metrics.iter().enumerate() {
        if !per_unit && mi > 0 {
            break;
        }
        for point in design {
            let (config, run) = layers::simulate(t, b, point, opts);
            if per_unit {
                traces[mi].push(layers::metric_trace(t, m, &config, &run));
            } else {
                for (slot, &metric) in traces.iter_mut().zip(metrics) {
                    slot.push(layers::metric_trace(t, metric, &config, &run));
                }
            }
        }
    }
    traces
}

/// The traces a journal holds for one (benchmark, metric, role), in order.
fn unit_role_traces(journal: &str, b: Benchmark, m: Metric, role: UnitRole) -> Vec<Vec<f64>> {
    let prefix = format!("unit {} {} {} ", b.name(), m.name(), role.name());
    journal
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .map(|rest| {
            rest.split(' ')
                .skip(1)
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .collect()
}
