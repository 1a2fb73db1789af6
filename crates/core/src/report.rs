//! Markdown report generation for experiment results.
//!
//! Turns a [`BenchmarkEvaluation`] (or a batch of them) into a
//! self-contained markdown document — the per-benchmark accuracy tables a
//! design-space-exploration campaign would archive next to its models.

use crate::experiment::BenchmarkEvaluation;
use crate::recovery::DegradationReport;
use dynawave_numeric::stats::BoxplotSummary;
use std::fmt::Write as _;

/// Renders a model-health paragraph: one line for a pristine model, a
/// per-coefficient table of recovery rungs otherwise. Degradation must be
/// *visible* in the archived report, never silent.
pub fn degradation_section(report: &DegradationReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Model health: {report}.\n");
    if !report.is_pristine() {
        let _ = writeln!(out, "| coefficient | rung | fit attempts |\n|---|---|---|");
        for r in report.records().iter().filter(|r| r.rung.level() > 0) {
            let _ = writeln!(
                out,
                "| {} | {} | {} |",
                r.coefficient,
                r.rung.name(),
                r.attempts
            );
        }
        out.push('\n');
    }
    out
}

/// Renders the per-stage "Pipeline profile" section from a traced run's
/// event stream: the stage rows of `dynawave-obs`'s [`StreamAnalysis`]
/// (completed spans, inclusive ticks, markers), then the final counter
/// and gauge values. Returns a note instead of a table when the stream
/// is empty (tracing was off), so callers can append it unconditionally.
///
/// [`StreamAnalysis`]: dynawave_obs::StreamAnalysis
pub fn pipeline_profile_section(events: &[dynawave_obs::Event]) -> String {
    let analysis = dynawave_obs::StreamAnalysis::from_events(events);
    if analysis.stages.is_empty() {
        return String::from("Pipeline profile: tracing disabled (no events recorded).\n");
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Pipeline profile ({} stages; ticks count recorder activity on \
         the deterministic tick clock, not wall time):\n",
        analysis.stages.len()
    );
    let _ = writeln!(
        out,
        "| stage | spans | ticks | markers |\n|---|---|---|---|"
    );
    for (name, s) in &analysis.stages {
        let _ = writeln!(
            out,
            "| {name} | {} | {} | {} |",
            s.count, s.inclusive_ticks, s.markers
        );
    }
    out.push('\n');
    // Final metric values, stage by stage: `sim-alt.x` sorts before
    // `sim.y`, but stage `sim` sorts before stage `sim-alt`.
    for stage in analysis.stages.keys() {
        let in_stage = |name: &String| name.split('.').next() == Some(stage.as_str());
        for (name, v) in analysis.counters.iter().filter(|(n, _)| in_stage(n)) {
            let _ = writeln!(out, "- `{name}` = {v}");
        }
        for (name, v) in analysis.gauges.iter().filter(|(n, _)| in_stage(n)) {
            let _ = writeln!(out, "- `{name}` = {v}");
        }
    }
    out
}

/// Renders one evaluation as a markdown section.
pub fn evaluation_section(eval: &BenchmarkEvaluation) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### {} / {} — {} test points\n",
        eval.benchmark,
        eval.metric,
        eval.nmse_per_test.len()
    );
    if let Ok(s) = BoxplotSummary::from_data(&eval.nmse_per_test) {
        let _ = writeln!(
            out,
            "| statistic | NMSE % |\n|---|---|\n\
             | median | {:.3} |\n| mean | {:.3} |\n| Q1 | {:.3} |\n\
             | Q3 | {:.3} |\n| max | {:.3} |\n| outliers | {} |\n",
            s.median,
            s.mean,
            s.q1,
            s.q3,
            eval.nmse_per_test.iter().cloned().fold(0.0f64, f64::max),
            s.outliers.len()
        );
    }
    let [q1, q2, q3] = eval.mean_asymmetry();
    let _ = writeln!(
        out,
        "Scenario classification (mean directional asymmetry): \
         Q1 {q1:.2} %, Q2 {q2:.2} %, Q3 {q3:.2} %.\n"
    );
    let _ = writeln!(
        out,
        "Predicted coefficients: {:?}\n",
        eval.model.coefficient_indices()
    );
    out.push_str(&degradation_section(&eval.degradation));
    out
}

/// Renders a batch of evaluations as one markdown document with a summary
/// table followed by per-evaluation sections.
pub fn full_report(title: &str, evals: &[BenchmarkEvaluation]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}\n");
    let _ = writeln!(
        out,
        "| benchmark | metric | median NMSE % | mean NMSE % | Q2 asym % |\n|---|---|---|---|---|"
    );
    for e in evals {
        let [_, q2, _] = e.mean_asymmetry();
        let _ = writeln!(
            out,
            "| {} | {} | {:.3} | {:.3} | {:.2} |",
            e.benchmark,
            e.metric,
            e.median_nmse(),
            e.mean_nmse(),
            q2
        );
    }
    out.push('\n');
    for e in evals {
        out.push_str(&evaluation_section(e));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Metric;
    use crate::experiment::{evaluate_benchmark, ExperimentConfig};
    use dynawave_workloads::Benchmark;

    fn tiny_eval() -> BenchmarkEvaluation {
        let cfg = ExperimentConfig {
            train_points: 25,
            test_points: 5,
            samples: 16,
            interval_instructions: 500,
            seed: 4,
            ..ExperimentConfig::default()
        };
        evaluate_benchmark(Benchmark::Eon, Metric::Cpi, &cfg).unwrap()
    }

    #[test]
    fn section_contains_key_numbers() {
        let e = tiny_eval();
        let text = evaluation_section(&e);
        assert!(text.contains("eon / cpi"));
        assert!(text.contains("median"));
        assert!(text.contains("Scenario classification"));
    }

    #[test]
    fn full_report_has_table_and_sections() {
        let e = tiny_eval();
        let doc = full_report("Smoke report", std::slice::from_ref(&e));
        assert!(doc.starts_with("# Smoke report"));
        assert!(doc.contains("| eon | cpi |"));
        assert!(doc.contains("### eon / cpi"));
    }

    #[test]
    fn pipeline_profile_section_renders_traced_run() {
        // Without events: an explicit "disabled" note.
        let off = pipeline_profile_section(&[]);
        assert!(off.contains("tracing disabled"));
        // With a traced evaluation: a per-stage table.
        let prior = dynawave_obs::take();
        dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
        let _e = tiny_eval();
        let events = dynawave_obs::drain().unwrap();
        if let Some(prior) = prior {
            dynawave_obs::install(prior);
        }
        let text = pipeline_profile_section(&events);
        assert!(text.contains("Pipeline profile"), "{text}");
        assert!(text.contains("| sim |"), "{text}");
        assert!(text.contains("| predictor |"), "{text}");
        assert!(text.contains("`sim.intervals_retired`"), "{text}");
    }

    #[test]
    fn markdown_render_is_stable() {
        let mut counter = dynawave_obs::Event::new(
            0,
            1,
            dynawave_obs::EventKind::Counter,
            "sim.intervals_retired",
        );
        counter.count = Some(3);
        let text = pipeline_profile_section(std::slice::from_ref(&counter));
        assert!(text.contains("Pipeline profile (1 stages"), "{text}");
        assert!(text.contains("| sim | 0 | 0 | 0 |"), "{text}");
        assert!(text.contains("- `sim.intervals_retired` = 3"), "{text}");
        assert_eq!(text, pipeline_profile_section(&[counter]));
    }

    #[test]
    fn empty_stream_is_empty_profile() {
        assert_eq!(
            pipeline_profile_section(&[]),
            "Pipeline profile: tracing disabled (no events recorded).\n"
        );
    }

    /// A small fixed stream: nested spans, a span never closed, heartbeat
    /// and plain markers, counters, gauges and a histogram. Stage `sim`
    /// sorts before `sim-alt`, but `sim-alt.runs` sorts before
    /// `sim.intervals_retired`: the profile lists metrics stage by stage.
    const PINNED_STREAM: &str = concat!(
        r#"{"schema":"dynawave-obs","v":1,"seq":0,"tick":1,"kind":"span_enter","name":"predictor.train","depth":0}"#,
        "\n",
        r#"{"schema":"dynawave-obs","v":1,"seq":1,"tick":2,"kind":"span_enter","name":"wavelet.wavedec","depth":1}"#,
        "\n",
        r#"{"schema":"dynawave-obs","v":1,"seq":2,"tick":3,"kind":"span_exit","name":"wavelet.wavedec","depth":1,"ticks":1}"#,
        "\n",
        r#"{"schema":"dynawave-obs","v":1,"seq":3,"tick":5,"kind":"span_exit","name":"predictor.train","depth":0,"ticks":4}"#,
        "\n",
        r#"{"schema":"dynawave-obs","v":1,"seq":4,"tick":6,"kind":"span_enter","name":"dtm.step","depth":0}"#,
        "\n",
        r#"{"schema":"dynawave-obs","v":1,"seq":5,"tick":7,"kind":"marker","name":"campaign.heartbeat","detail":"gcc/cpi/train/0"}"#,
        "\n",
        r#"{"schema":"dynawave-obs","v":1,"seq":6,"tick":10,"kind":"marker","name":"campaign.heartbeat","detail":"gcc/cpi/train/1"}"#,
        "\n",
        r#"{"schema":"dynawave-obs","v":1,"seq":7,"tick":10,"kind":"marker","name":"campaign.resumed_from","detail":"journal"}"#,
        "\n",
        r#"{"schema":"dynawave-obs","v":1,"seq":8,"tick":11,"kind":"counter","name":"sim.intervals_retired","count":64}"#,
        "\n",
        r#"{"schema":"dynawave-obs","v":1,"seq":9,"tick":12,"kind":"counter","name":"sim-alt.runs","count":2}"#,
        "\n",
        r#"{"schema":"dynawave-obs","v":1,"seq":10,"tick":13,"kind":"counter","name":"campaign.units_done","count":2}"#,
        "\n",
        r#"{"schema":"dynawave-obs","v":1,"seq":11,"tick":14,"kind":"gauge","name":"wavelet.coeff_energy_retained","value":0.97}"#,
        "\n",
        r#"{"schema":"dynawave-obs","v":1,"seq":12,"tick":15,"kind":"gauge","name":"sim.ipc","value":1.5}"#,
        "\n",
        r#"{"schema":"dynawave-obs","v":1,"seq":13,"tick":16,"kind":"hist","name":"neural.nmse","bounds":[1,5],"counts":[2,1,0]}"#,
        "\n",
    );

    const PINNED_PROFILE: &str = "\
Pipeline profile (7 stages; ticks count recorder activity on the deterministic tick clock, not wall time):

| stage | spans | ticks | markers |
|---|---|---|---|
| campaign | 0 | 0 | 3 |
| dtm | 0 | 0 | 0 |
| neural | 0 | 0 | 0 |
| predictor | 1 | 4 | 0 |
| sim | 0 | 0 | 0 |
| sim-alt | 0 | 0 | 0 |
| wavelet | 1 | 1 | 0 |

- `campaign.units_done` = 2
- `sim.intervals_retired` = 64
- `sim.ipc` = 1.5
- `sim-alt.runs` = 2
- `wavelet.coeff_energy_retained` = 0.97
";

    const PINNED_REPORT: &str = "\
# Obs stream report

14 event(s): 2 completed span(s), 3 marker(s), 3 counter(s), 2 gauge(s), 1 histogram(s), 0 unmatched exit(s).

## Per-stage time attribution

Ticks count recorder activity on the deterministic tick clock, not wall time. Inclusive sums span enter→exit deltas per stage (matching the \"Pipeline profile\" `ticks` column); self subtracts time spent in child spans.

| stage | spans | inclusive ticks | self ticks |
|---|---|---|---|
| predictor | 1 | 4 | 3 |
| wavelet | 1 | 1 | 1 |

## Per-span time attribution

| span | count | inclusive ticks | self ticks |
|---|---|---|---|
| predictor.train | 1 | 4 | 3 |
| wavelet.wavedec | 1 | 1 | 1 |

## Campaign unit latency

2 unit(s); ticks between consecutive heartbeats: min 3, median 6, max 6.

Top 2 slowest unit(s):

| unit | ticks |
|---|---|
| gcc/cpi/train/0 | 6 |
| gcc/cpi/train/1 | 3 |

## Histograms

`neural.nmse`:

| bucket | count |
|---|---|
| <= 1 | 2 |
| <= 5 | 1 |
| overflow | 0 |

## Counter rollup

- `campaign.units_done` = 2
- `sim-alt.runs` = 2
- `sim.intervals_retired` = 64

## Gauge rollup

- `sim.ipc` = 1.5
- `wavelet.coeff_energy_retained` = 0.97

";

    #[test]
    fn pipeline_profile_section_bytes_are_pinned() {
        let events = dynawave_obs::parse_events(PINNED_STREAM).unwrap();
        assert_eq!(pipeline_profile_section(&events), PINNED_PROFILE);
    }

    #[test]
    fn stream_report_bytes_are_pinned() {
        let events = dynawave_obs::parse_events(PINNED_STREAM).unwrap();
        let analysis = dynawave_obs::StreamAnalysis::from_events(&events);
        assert_eq!(analysis.render_markdown(5), PINNED_REPORT);
    }

    #[test]
    fn degradation_section_reports_health() {
        use crate::recovery::{CoeffRecovery, RecoveryRung};
        let healthy = DegradationReport::healthy(&[0, 1]);
        let text = degradation_section(&healthy);
        assert!(text.contains("2 primary"));
        assert!(!text.contains("| coefficient |"), "pristine needs no table");
        let degraded = DegradationReport::from_records(vec![
            CoeffRecovery {
                coefficient: 0,
                rung: RecoveryRung::Primary,
                attempts: 1,
            },
            CoeffRecovery {
                coefficient: 5,
                rung: RecoveryRung::MeanFallback,
                attempts: 6,
            },
        ]);
        let text = degradation_section(&degraded);
        assert!(text.contains("| 5 | mean-fallback | 6 |"), "{text}");
        assert!(
            !text.contains("| 0 |"),
            "healthy rows stay out of the table"
        );
    }
}
