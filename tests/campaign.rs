//! Fault-tolerance integration tests: journaled campaigns must survive
//! kills (partial journal writes) and resume to a byte-identical report,
//! and must refuse journals written under a different configuration.

use dynawave_core::campaign::{
    advance_journaled, run_journaled, run_journaled_parallel, shard_path, CampaignError,
    CampaignSpec, ShardedCampaign,
};
use dynawave_core::experiment::ExperimentConfig;
use dynawave_core::{report, Metric};
use dynawave_workloads::Benchmark;
use std::fs;
use std::path::{Path, PathBuf};

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

/// `path` with `.tmp` appended: where a journal rewrite stages its bytes.
fn temp_of(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// A collision-free scratch path that cleans itself (and any shard
/// sidecars and rewrite temp files) up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "dynawave-campaign-{}-{tag}.journal",
            std::process::id()
        ));
        let _ = fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
        let _ = fs::remove_dir(temp_of(&self.0));
        for shard in 0..4 {
            let _ = fs::remove_file(shard_path(&self.0, shard));
            let _ = fs::remove_file(temp_of(&shard_path(&self.0, shard)));
        }
    }
}

#[test]
fn killed_file_backed_campaign_resumes_byte_identical() {
    let spec = tiny_spec(31);
    // Reference: one uninterrupted run.
    let reference = Scratch::new("reference");
    let evals = run_journaled(&spec, &reference.0).unwrap();
    let want = report::full_report("campaign", &evals);

    // Victim: run 6 of 14 units, then "kill" it by chopping bytes off the
    // journal tail, leaving a partial final line.
    let victim = Scratch::new("victim");
    let done = advance_journaled(&spec, &victim.0, 6).unwrap();
    assert_eq!(done, 6);
    let text = fs::read_to_string(&victim.0).unwrap();
    assert!(text.ends_with('\n'));
    fs::write(&victim.0, &text[..text.len() - 17]).unwrap();

    // Resume: the partial line is dropped and re-simulated; everything
    // completed stays journaled; the final report matches byte for byte.
    let evals = run_journaled(&spec, &victim.0).unwrap();
    let got = report::full_report("campaign", &evals);
    assert_eq!(want, got);

    // The journal left behind is complete and immediately reusable: a
    // third invocation re-simulates nothing and reports identically.
    let evals = run_journaled(&spec, &victim.0).unwrap();
    assert_eq!(want, report::full_report("campaign", &evals));
}

#[test]
fn journal_from_a_different_spec_is_refused() {
    let spec = tiny_spec(7);
    let scratch = Scratch::new("foreign");
    advance_journaled(&spec, &scratch.0, 3).unwrap();
    let other = tiny_spec(8);
    match run_journaled(&other, &scratch.0) {
        Err(CampaignError::SpecMismatch { expected, found }) => {
            assert_eq!(expected, other.fingerprint());
            assert_eq!(found, spec.fingerprint());
        }
        other => panic!("expected SpecMismatch, got {other:?}"),
    }
}

#[test]
fn corrupt_complete_journal_line_is_an_error_not_a_skip() {
    let spec = tiny_spec(13);
    let scratch = Scratch::new("corrupt");
    advance_journaled(&spec, &scratch.0, 2).unwrap();
    let text = fs::read_to_string(&scratch.0).unwrap();
    // Poison a value on a *complete* (newline-terminated) line.
    let poisoned = text.replacen("unit eon cpi train 0 ", "unit eon cpi train 0 NaN ", 1);
    assert_ne!(text, poisoned);
    fs::write(&scratch.0, poisoned).unwrap();
    assert!(matches!(
        run_journaled(&spec, &scratch.0),
        Err(CampaignError::NonFinite { .. })
    ));
}

#[test]
fn chaos_journaled_campaign_completes_under_injected_faults() {
    use dynawave_numeric::fault::{self, FaultKind, FaultPlan, FaultSite};
    let spec = tiny_spec(97);
    let scratch = Scratch::new("chaos");
    let plan = FaultPlan::new(5)
        .rate(0.5)
        .targeting(&[FaultSite::RbfWeightFit])
        .kinds(&[
            FaultKind::Singular,
            FaultKind::NonFinite,
            FaultKind::EarlyStop,
        ]);
    let (out, fault_report) = fault::with_plan(plan, || run_journaled(&spec, &scratch.0));
    let evals = out.unwrap();
    assert!(fault_report.fired > 0);
    let degradation = &evals[0].degradation;
    assert_eq!(
        degradation.rung_counts().iter().sum::<usize>(),
        degradation.coefficient_count(),
        "every coefficient must be accounted for"
    );
    assert!(degradation.degraded_count() > 0);
    // Degradation is visible in the archived report.
    let doc = report::full_report("chaos campaign", &evals);
    assert!(doc.contains("Model health:"));
    assert!(doc.contains("fallback") || doc.contains("ridge-escalated"));
}

#[test]
fn failed_rewrite_leaves_journal_and_sidecar_byte_identical() {
    let spec = tiny_spec(37);
    let reference = Scratch::new("atomic-ref");
    let want = report::full_report("campaign", &run_journaled(&spec, &reference.0).unwrap());

    // A killed one-thread run: a torn canonical journal plus a sidecar.
    let victim = Scratch::new("atomic-victim");
    advance_journaled(&spec, &victim.0, 4).unwrap();
    let text = fs::read_to_string(&victim.0).unwrap();
    fs::write(&victim.0, &text[..text.len() - 5]).unwrap();
    let mut partial = ShardedCampaign::new(spec.clone(), 1);
    for _ in 0..6 {
        partial.step(0);
    }
    let sidecar = shard_path(&victim.0, 0);
    fs::write(&sidecar, partial.shard_journal(0)).unwrap();
    // A stale temp file from a killed four-thread rewrite: parsed as a
    // sidecar it would be refused as a shard-count mismatch.
    let stale = temp_of(&shard_path(&victim.0, 3));
    let stale_text = ShardedCampaign::new(spec.clone(), 4).shard_journal(3);
    fs::write(&stale, &stale_text).unwrap();

    // A directory at the canonical rewrite's temp path makes it fail.
    let blocker = temp_of(&victim.0);
    fs::create_dir_all(&blocker).unwrap();
    let journal_before = fs::read(&victim.0).unwrap();
    let sidecar_before = fs::read(&sidecar).unwrap();
    match run_journaled_parallel(&spec, &victim.0, 1) {
        Err(CampaignError::Io(_)) => {}
        other => panic!("expected Io, got {other:?}"),
    }
    assert_eq!(fs::read(&victim.0).unwrap(), journal_before);
    assert_eq!(fs::read(&sidecar).unwrap(), sidecar_before);

    // Unblocked, the resume completes to the reference report and leaves
    // no sidecar or temp file of its own behind.
    fs::remove_dir(&blocker).unwrap();
    let evals = run_journaled_parallel(&spec, &victim.0, 1).unwrap();
    assert_eq!(report::full_report("campaign", &evals), want);
    assert!(!sidecar.exists() && !blocker.exists());
    assert_eq!(fs::read_to_string(&stale).unwrap(), stale_text);
}
