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
/// event stream (see `dynawave-obs`). Returns a note instead of a table
/// when the stream is empty (tracing was off), so callers can append it
/// unconditionally.
pub fn pipeline_profile_section(events: &[dynawave_obs::Event]) -> String {
    let profile = dynawave_obs::PipelineProfile::from_events(events);
    if profile.is_empty() {
        return String::from("Pipeline profile: tracing disabled (no events recorded).\n");
    }
    profile.render_markdown()
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
