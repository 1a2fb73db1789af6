//! BENCH_6 generator: wall-clock speedup of the parallel campaign
//! executor (sharded workers, one journal writer) on the full-space demo
//! (all 12 benchmarks × 3 metric domains).
//!
//! Runs the identical campaign at 1 and 4 worker threads, several
//! repetitions each, and emits one obs-schema `"kind":"bench"` JSON line
//! per configuration plus derived lines for the measured speedup and the
//! machine's available parallelism — the speedup is only meaningful
//! relative to the hardware threads actually present, so the JSON records
//! both. Byte-identity of the two runs' reports is asserted here too:
//! a speedup from a *different* answer would be worthless.
//!
//! ```text
//! cargo run --release -p dynawave-bench --bin campaign_parallel > results/BENCH_6.json
//! ```
//!
//! Scale via `DYNAWAVE_TRAIN` / `DYNAWAVE_TEST` / `DYNAWAVE_SAMPLES` /
//! `DYNAWAVE_INTERVAL` / `DYNAWAVE_SEED` (validated by
//! `ExperimentConfig::from_env_or`; a bad value exits with status 2);
//! repetitions via `DYNAWAVE_BENCH_SAMPLES` (default 3 — each rep is a
//! full campaign).

use dynawave_core::campaign::{run_journaled_parallel, CampaignSpec};
use dynawave_core::experiment::{EnvConfigError, ExperimentConfig};
use dynawave_core::{report, Metric};
use dynawave_obs::{bench_json_line, bench_json_line_with_unit};
use dynawave_workloads::Benchmark;
use std::time::Instant;

/// Medians one thread-count configuration: repeated fresh campaign runs,
/// returning (median wall nanoseconds per run, the report text).
fn measure(spec: &CampaignSpec, threads: usize, reps: usize) -> (u128, String) {
    let path = std::env::temp_dir().join(format!(
        "dynawave-bench6-t{threads}-{}.journal",
        std::process::id()
    ));
    let mut doc = String::new();
    let mut times: Vec<u128> = (0..reps)
        .map(|_| {
            let _ = std::fs::remove_file(&path);
            let t0 = Instant::now();
            let evals = match run_journaled_parallel(spec, &path, threads) {
                Ok(evals) => evals,
                Err(e) => {
                    eprintln!("error: campaign failed at {threads} thread(s): {e}");
                    std::process::exit(1);
                }
            };
            let elapsed = t0.elapsed().as_nanos();
            doc = report::full_report("full-space campaign", &evals);
            elapsed
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    times.sort_unstable();
    (times[times.len() / 2], doc)
}

/// Repetitions per thread count: `DYNAWAVE_BENCH_SAMPLES`, default 3.
fn reps_from_env() -> Result<usize, EnvConfigError> {
    match std::env::var("DYNAWAVE_BENCH_SAMPLES") {
        Ok(value) => match value.parse() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(EnvConfigError {
                name: "DYNAWAVE_BENCH_SAMPLES",
                value,
                expected: "a positive repetition count",
            }),
        },
        Err(_) => Ok(3),
    }
}

fn main() {
    let demo = ExperimentConfig {
        train_points: 24,
        test_points: 8,
        samples: 32,
        interval_instructions: 600,
        seed: 2007,
        ..ExperimentConfig::default()
    };
    let setup = ExperimentConfig::from_env_or(demo)
        .and_then(|config| reps_from_env().map(|reps| (config, reps)));
    let (config, reps) = match setup {
        Ok(setup) => setup,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let spec = CampaignSpec {
        benchmarks: Benchmark::ALL.to_vec(),
        metrics: Metric::DOMAINS.to_vec(),
        config,
    };
    let units = spec.unit_count() as u64;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "campaign_parallel: {units} units ({} pairs), {reps} rep(s) per thread count, \
         {cores} hardware thread(s) available",
        spec.benchmarks.len() * spec.metrics.len()
    );
    let (t1, doc1) = measure(&spec, 1, reps);
    eprintln!("  t1: {:.2}s median", t1 as f64 / 1e9);
    let (t4, doc4) = measure(&spec, 4, reps);
    eprintln!("  t4: {:.2}s median", t4 as f64 / 1e9);
    if doc1 != doc4 {
        eprintln!("error: 1-thread and 4-thread reports are not byte-identical");
        std::process::exit(1);
    }
    let speedup = t1 as f64 / t4.max(1) as f64;
    eprintln!(
        "  speedup: {speedup:.2}x at 4 threads on {cores} hardware thread(s); \
         reports byte-identical"
    );
    println!(
        "{}",
        bench_json_line(
            "campaign/full_space/t1",
            t1 as f64,
            t1 as f64,
            t1 as f64,
            reps as u64,
            units
        )
    );
    println!(
        "{}",
        bench_json_line(
            "campaign/full_space/t4",
            t4 as f64,
            t4 as f64,
            t4 as f64,
            reps as u64,
            units
        )
    );
    // Derived lines, each tagged with its real unit (bench schema v2) so
    // they no longer masquerade as nanoseconds: the speedup in
    // thousandths (so the integer-friendly JSON number stays exact) and
    // the hardware context it was measured under. A 4-thread speedup can
    // only approach 4x when available_parallelism >= 4; on a 1-thread
    // container it hovers around 1x and the pair instead bounds sharding
    // overhead.
    println!(
        "{}",
        bench_json_line_with_unit(
            "campaign/full_space/speedup_x1000",
            "ratio_x1000",
            (speedup * 1000.0).round(),
            (speedup * 1000.0).round(),
            (speedup * 1000.0).round(),
            reps as u64,
            4
        )
    );
    println!(
        "{}",
        bench_json_line_with_unit(
            "campaign/full_space/available_parallelism",
            "count",
            cores as f64,
            cores as f64,
            cores as f64,
            1,
            cores as u64
        )
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
}
