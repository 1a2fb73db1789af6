//! Golden-fixture tests: every rule must fire on its positive fixture
//! and stay silent on its negative fixture.

use dynawave_lint::{lint_manifest, lint_rust_source, RuleId};
use std::path::Path;

/// Virtual path that classifies fixtures as plain library code.
const LIB_PATH: &str = "crates/demo/src/lib.rs";

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

fn rust_rules(name: &str) -> Vec<RuleId> {
    lint_rust_source(LIB_PATH, &fixture(name))
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

fn assert_fires(fired: &[RuleId], rule: RuleId, fixture_name: &str) {
    assert!(
        fired.contains(&rule),
        "{fixture_name}: expected {rule} to fire, got {fired:?}"
    );
    assert!(
        fired.iter().all(|&r| r == rule),
        "{fixture_name}: only {rule} may fire, got {fired:?}"
    );
}

#[test]
fn d001_fires_and_clean() {
    let fired = rust_rules("d001_fire.rs");
    assert_fires(&fired, RuleId::D001, "d001_fire.rs");
    assert_eq!(fired.len(), 2, "one finding per unwrap/expect site");
    assert_eq!(
        rust_rules("d001_clean.rs"),
        [],
        "d001_clean.rs must be silent"
    );
}

#[test]
fn d002_fires_and_clean() {
    let fired = rust_rules("d002_fire.rs");
    assert_fires(&fired, RuleId::D002, "d002_fire.rs");
    assert_eq!(fired.len(), 2, "panic! and todo! each fire");
    assert_eq!(
        rust_rules("d002_clean.rs"),
        [],
        "d002_clean.rs must be silent"
    );
}

#[test]
fn d003_fires_and_clean() {
    let fired = rust_rules("d003_fire.rs");
    assert_fires(&fired, RuleId::D003, "d003_fire.rs");
    assert_eq!(fired.len(), 2, "== and != against float literals");
    assert_eq!(
        rust_rules("d003_clean.rs"),
        [],
        "d003_clean.rs must be silent"
    );
}

#[test]
fn d004_fires_and_clean() {
    let fired = rust_rules("d004_fire.rs");
    assert_fires(&fired, RuleId::D004, "d004_fire.rs");
    assert!(fired.len() >= 4, "clock, sleep, env and HashMap all fire");
    assert_eq!(
        rust_rules("d004_clean.rs"),
        [],
        "d004_clean.rs must be silent"
    );
}

#[test]
fn d004_exempts_harness_crates() {
    let src = fixture("d004_fire.rs");
    assert!(lint_rust_source("crates/bench/src/lib.rs", &src).is_empty());
    assert!(lint_rust_source("crates/testkit/src/gen.rs", &src).is_empty());
}

#[test]
fn d005_fires_and_clean() {
    let fired: Vec<RuleId> = lint_manifest("crates/demo/Cargo.toml", &fixture("d005_fire.toml"))
        .into_iter()
        .map(|f| f.rule)
        .collect();
    assert_fires(&fired, RuleId::D005, "d005_fire.toml");
    assert!(fired.len() >= 3, "serde, rand and the git dep all fire");
    assert!(
        lint_manifest("crates/demo/Cargo.toml", &fixture("d005_clean.toml")).is_empty(),
        "d005_clean.toml must be silent"
    );
}

#[test]
fn d006_fires_and_clean() {
    let fired = rust_rules("d006_fire.rs");
    assert_fires(&fired, RuleId::D006, "d006_fire.rs");
    assert_eq!(
        rust_rules("d006_clean.rs"),
        [],
        "d006_clean.rs must be silent"
    );
}

#[test]
fn d007_fires_and_clean() {
    // D007 applies even where D004 is silent — lint the fixtures under a
    // tests path so the only rule that can fire is the one under test.
    const TEST_PATH: &str = "crates/demo/tests/it.rs";
    let fired: Vec<RuleId> = lint_rust_source(TEST_PATH, &fixture("d007_fire.rs"))
        .into_iter()
        .map(|f| f.rule)
        .collect();
    assert_fires(&fired, RuleId::D007, "d007_fire.rs");
    assert_eq!(
        fired.len(),
        3,
        "one Instant::now call plus two SystemTime mentions"
    );
    assert_eq!(
        lint_rust_source(TEST_PATH, &fixture("d007_clean.rs")),
        [],
        "d007_clean.rs must be silent"
    );
}

#[test]
fn d007_exempts_harness_crates_and_obs_clocks() {
    let src = fixture("d007_fire.rs");
    assert!(lint_rust_source("crates/bench/benches/microbench.rs", &src).is_empty());
    assert!(lint_rust_source("crates/testkit/src/gen.rs", &src).is_empty());
    // The obs clock module is where wall-clock impls are allowed to live;
    // D004 still governs it (it classifies as Lib), but D007 stays quiet.
    assert!(lint_rust_source("crates/obs/src/clock.rs", &src)
        .iter()
        .all(|f| f.rule != RuleId::D007));
}

fn findings_for(name: &str) -> Vec<dynawave_lint::Finding> {
    lint_rust_source(LIB_PATH, &fixture(name))
}

#[test]
fn d010_fires_clean_and_allow() {
    let findings = findings_for("d010_fire.rs");
    let rules: Vec<RuleId> = findings.iter().map(|f| f.rule).collect();
    // `inner`'s own unwrap is D001; `api` reaching it transitively and
    // `nth` indexing its parameter are each D010.
    assert_eq!(
        rules.iter().filter(|&&r| r == RuleId::D001).count(),
        1,
        "{findings:?}"
    );
    assert_eq!(
        rules.iter().filter(|&&r| r == RuleId::D010).count(),
        2,
        "{findings:?}"
    );
    let witness = findings
        .iter()
        .find(|f| f.message.contains("can reach a panic"))
        .expect("reachability finding present");
    assert!(
        witness.message.contains("api -> inner"),
        "witness path names the chain: {}",
        witness.message
    );
    assert_eq!(rust_rules("d010_clean.rs"), [], "d010_clean.rs");
    assert_eq!(rust_rules("d010_allow.rs"), [], "d010_allow.rs");
}

#[test]
fn d011_fires_clean_and_allow() {
    let fired = rust_rules("d011_fire.rs");
    assert_fires(&fired, RuleId::D011, "d011_fire.rs");
    assert_eq!(fired.len(), 2, "comparator and reduction each fire");
    assert_eq!(rust_rules("d011_clean.rs"), [], "d011_clean.rs");
    assert_eq!(rust_rules("d011_allow.rs"), [], "d011_allow.rs");
}

#[test]
fn d012_fires_clean_and_allow() {
    let fired = rust_rules("d012_fire.rs");
    assert_fires(&fired, RuleId::D012, "d012_fire.rs");
    assert!(
        fired.len() >= 3,
        "the use, the static mut and the spawn each fire: {fired:?}"
    );
    let findings = findings_for("d012_fire.rs");
    assert!(
        findings.iter().any(|f| f.message.contains("thread")),
        "the misplaced spawn is called out: {findings:?}"
    );
    assert_eq!(rust_rules("d012_clean.rs"), [], "d012_clean.rs");
    assert_eq!(rust_rules("d012_allow.rs"), [], "d012_allow.rs");
}

#[test]
fn d012_accepts_containment_modules_verbatim() {
    // The exact source that fires at a library path is accepted inside
    // the campaign executor, the one concurrency module, and nowhere else.
    let src = fixture("d012_fire.rs");
    let d012_at = |path: &str| {
        lint_rust_source(path, &src)
            .iter()
            .any(|f| f.rule == RuleId::D012)
    };
    assert!(
        !d012_at("crates/core/src/campaign.rs"),
        "the campaign executor is inside the containment boundary"
    );
    assert!(
        d012_at("crates/obs/src/lib.rs"),
        "the obs crate is outside the containment boundary"
    );
}

#[test]
fn d013_fires_clean_and_allow() {
    let fired = rust_rules("d013_fire.rs");
    assert_fires(&fired, RuleId::D013, "d013_fire.rs");
    assert_eq!(
        fired.len(),
        4,
        "tag constant, embedded tag, bench unit and instrument name each fire"
    );
    assert_eq!(rust_rules("d013_clean.rs"), [], "d013_clean.rs");
    assert_eq!(rust_rules("d013_allow.rs"), [], "d013_allow.rs");
}

#[test]
fn d013_serve_kind_fires_and_clean() {
    let fired = rust_rules("d013_serve_fire.rs");
    assert_fires(&fired, RuleId::D013, "d013_serve_fire.rs");
    assert_eq!(fired.len(), 1, "only the off-vocabulary kind fires");
    assert_eq!(rust_rules("d013_serve_clean.rs"), [], "d013_serve_clean.rs");
}

#[test]
fn d013_serve_metric_fires_and_clean() {
    let fired = rust_rules("d013_serve_metric_fire.rs");
    assert_fires(&fired, RuleId::D013, "d013_serve_metric_fire.rs");
    assert_eq!(
        fired.len(),
        1,
        "only the uncatalogued serve instrument fires"
    );
    let findings = lint_rust_source(LIB_PATH, &fixture("d013_serve_metric_fire.rs"));
    assert!(
        findings[0].message.contains("SERVE_METRICS"),
        "{}",
        findings[0].message
    );
    assert_eq!(
        rust_rules("d013_serve_metric_clean.rs"),
        [],
        "d013_serve_metric_clean.rs"
    );
}

#[test]
fn findings_carry_clickable_spans() {
    let findings = lint_rust_source(LIB_PATH, &fixture("d001_fire.rs"));
    let first = &findings[0];
    let rendered = first.to_string();
    assert!(
        rendered.starts_with(&format!("{}:{}:{}: D001:", LIB_PATH, first.line, first.col)),
        "expected file:line:col prefix, got {rendered}"
    );
    assert!(first.line > 1, "line numbers are 1-based and past the docs");
}
