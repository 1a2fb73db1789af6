//! Integration tests for the analysis layer: golden markdown fixtures
//! and the real `compare_bench` / `obs_report` binaries.
//!
//! The golden file pins the report byte-for-byte — the ratchet's whole
//! value is that two runs of the tool over the same snapshots produce
//! identical bytes, so any formatting drift must be a deliberate,
//! reviewed change to `tests/fixtures/perf_trajectory.md`.

use dynawave_obs::{BenchComparison, BenchSnapshot, CompareOptions, DeltaFlag};
use std::process::Command;

const BASE: &str = include_str!("fixtures/bench_base.json");
const CURRENT: &str = include_str!("fixtures/bench_current.json");
const GOLDEN: &str = include_str!("fixtures/perf_trajectory.md");

const BASE_PATH: &str = "tests/fixtures/bench_base.json";
const CURRENT_PATH: &str = "tests/fixtures/bench_current.json";

fn fixture_comparison() -> BenchComparison {
    let base = BenchSnapshot::parse(BASE).expect("base fixture parses");
    let current = BenchSnapshot::parse(CURRENT).expect("current fixture parses");
    BenchComparison::compare(&base, &current, &CompareOptions::default())
}

#[test]
fn golden_markdown_report_is_byte_identical() {
    let report = fixture_comparison().render_markdown(BASE_PATH, CURRENT_PATH);
    assert_eq!(report, GOLDEN, "report drifted from the golden fixture");
}

#[test]
fn fixture_covers_every_flag_and_list() {
    let cmp = fixture_comparison();
    let flag_of = |name: &str| {
        cmp.rows
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("row {name} missing"))
            .flag
    };
    // +30% outside the band: flagged.
    assert_eq!(flag_of("rbf/train/64"), DeltaFlag::Regression);
    // -28% outside the band: flagged the other way.
    assert_eq!(flag_of("sim/run_trace/64"), DeltaFlag::Improvement);
    // +5% is under the threshold: within noise.
    assert_eq!(flag_of("e2e/quickstart"), DeltaFlag::Ok);
    // +11% but inside the baseline's [8000, 12000] noise band: the band
    // rule is what keeps jittery benches from crying wolf.
    assert_eq!(flag_of("wavelet/wavedec/128"), DeltaFlag::Ok);
    // A derived ratio moved: noted, never a regression.
    assert_eq!(flag_of("campaign/speedup_x1000"), DeltaFlag::Changed);
    // Zero baseline median: unbounded relative delta renders n/a.
    assert_eq!(flag_of("sampling/lhs/200"), DeltaFlag::Regression);
    assert!(cmp
        .rows
        .iter()
        .find(|r| r.name == "sampling/lhs/200")
        .is_some_and(|r| r.rel_delta.is_none()));
    assert_eq!(cmp.added, vec!["added/new_bench"]);
    assert_eq!(cmp.removed, vec!["removed/old_bench"]);
    assert_eq!(cmp.unit_mismatches.len(), 1);
    assert_eq!(cmp.unit_mismatches[0].0, "mismatch/units");
}

/// Runs a bin from this package against the fixture files, with the
/// manifest dir as cwd so the report's labels are machine-independent.
fn run_bin(exe: &str, args: &[&str]) -> std::process::Output {
    Command::new(exe)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs")
}

#[test]
fn compare_bench_cli_matches_golden_and_soft_fails() {
    let exe = env!("CARGO_BIN_EXE_compare_bench");
    // Soft ratchet: regressions reported, exit 0.
    let out = run_bin(exe, &[BASE_PATH, CURRENT_PATH]);
    assert!(out.status.success(), "soft run must exit 0");
    assert_eq!(String::from_utf8_lossy(&out.stdout), GOLDEN);
    assert!(String::from_utf8_lossy(&out.stderr).contains("soft ratchet"));
    // Strict ratchet: same bytes, exit 1.
    let strict = run_bin(exe, &["--strict", BASE_PATH, CURRENT_PATH]);
    assert_eq!(strict.status.code(), Some(1), "strict run must gate");
    assert_eq!(String::from_utf8_lossy(&strict.stdout), GOLDEN);
    // A generous threshold quiets every *bounded* flag — but the
    // appeared-from-zero row has an unbounded relative delta, which no
    // threshold can excuse: still one regression, still gated.
    let loose = run_bin(
        exe,
        &["--strict", "--threshold", "9.0", BASE_PATH, CURRENT_PATH],
    );
    assert_eq!(loose.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&loose.stderr).contains("1 noise-aware regression(s)"),
        "{}",
        String::from_utf8_lossy(&loose.stderr)
    );
    // Usage and parse errors exit 2.
    assert_eq!(run_bin(exe, &[BASE_PATH]).status.code(), Some(2));
    assert_eq!(
        run_bin(exe, &[BASE_PATH, "Cargo.toml"]).status.code(),
        Some(2),
        "a non-obs file must be a parse error"
    );
}

#[test]
fn obs_report_cli_is_deterministic_over_a_stream_file() {
    // Record a tiny deterministic stream to a scratch file.
    let prior = dynawave_obs::take();
    dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
    {
        let _outer = dynawave_obs::span("predictor.train");
        let _inner = dynawave_obs::span("wavelet.wavedec");
    }
    dynawave_obs::marker_latency("campaign.heartbeat", "u0", "campaign.unit_latency", &[8.0]);
    dynawave_obs::counter_add("campaign.units_done", 1);
    let events = dynawave_obs::drain().expect("recorder installed above");
    if let Some(prior) = prior {
        dynawave_obs::install(prior);
    }
    let path = std::env::temp_dir().join(format!(
        "dynawave-obs-report-test-{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, dynawave_obs::encode_lines(&events)).expect("scratch is writable");

    let exe = env!("CARGO_BIN_EXE_obs_report");
    let path_str = path.to_string_lossy().to_string();
    let first = run_bin(exe, &[path_str.as_str()]);
    let second = run_bin(exe, &[path_str.as_str()]);
    let _ = std::fs::remove_file(&path);
    assert!(first.status.success(), "{:?}", first);
    assert_eq!(first.stdout, second.stdout, "report not byte-stable");
    let text = String::from_utf8_lossy(&first.stdout);
    assert!(text.contains("# Obs stream report"), "{text}");
    assert!(text.contains("| predictor | 1 |"), "{text}");
    assert!(text.contains("## Campaign unit latency"), "{text}");
    assert!(text.contains("| u0 |"), "{text}");
    // Garbage input exits 2.
    assert_eq!(run_bin(exe, &["Cargo.toml"]).status.code(), Some(2));
}

/// Three lines `obs_validate` refuses: a histogram whose counts lack the
/// overflow bucket, a span exit without `depth`, and a gauge without
/// `schema` whose value overflows to infinity.
const MALFORMED: &str = concat!(
    r#"{"schema":"dynawave-obs","v":1,"seq":0,"tick":1,"kind":"hist","name":"serve.latency.predict","bounds":[1,4,16],"counts":[0,5,0]}"#,
    "\n",
    r#"{"schema":"dynawave-obs","v":1,"seq":1,"tick":2,"kind":"span_exit","name":"serve.request","ticks":1}"#,
    "\n",
    r#"{"v":1,"seq":2,"tick":3,"kind":"gauge","name":"serve.load","value":1e999}"#,
    "\n",
);

#[test]
fn obs_report_refuses_the_lines_obs_validate_refuses() {
    let summary = dynawave_obs::validate_stream(MALFORMED);
    let lines: Vec<u64> = summary.errors.iter().map(|(line, _)| *line).collect();
    assert_eq!(lines, vec![1, 2, 3], "{:?}", summary.errors);

    let path = std::env::temp_dir().join(format!(
        "dynawave-obs-malformed-{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, MALFORMED).expect("scratch is writable");
    let path_str = path.to_string_lossy().to_string();
    let exe = env!("CARGO_BIN_EXE_obs_report");
    // Neither a report nor an SLO verdict comes from a malformed stream.
    let runs = [
        run_bin(exe, &[path_str.as_str()]),
        run_bin(exe, &["--slo", "predict:p99<=4", path_str.as_str()]),
    ];
    let _ = std::fs::remove_file(&path);
    for out in runs {
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        assert!(out.stdout.is_empty(), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("line 1: counts length 3 != bounds length 3 + 1"),
            "{stderr}"
        );
    }
}
