//! Full-space parallel campaign: every benchmark (12) × every metric
//! domain (3), sharded across worker threads that hand finished points
//! to one journal writer.
//!
//! This is the paper's Table-2-style sweep run the way a cluster would
//! run it — embarrassingly parallel over (benchmark, role, design-point)
//! points, each simulated once for all three metrics — with the
//! guarantee the sequential driver gives: the report is
//! **byte-identical for any thread count**, and the journal is the only
//! file the run writes, whatever the worker count. stdout
//! carries only that deterministic report (`ci.sh --par` byte-compares it
//! between 1 and 4 threads); progress and wall-clock timing go to stderr.
//!
//! Run with:
//!
//! ```text
//! DYNAWAVE_THREADS=4 cargo run --release -p dynawave-core --example parallel_campaign
//! ```
//!
//! Scale knobs (defaults are demo-sized; raise them to saturate a real
//! machine): `DYNAWAVE_TRAIN`, `DYNAWAVE_TEST`, `DYNAWAVE_SAMPLES`,
//! `DYNAWAVE_INTERVAL`, `DYNAWAVE_SEED`, validated by
//! `ExperimentConfig::from_env_or`, and `DYNAWAVE_THREADS` for the
//! worker count (default: available parallelism). A bad value exits with
//! status 2 and names the variable.

use dynawave_core::campaign::{run_journaled_parallel, threads_from_env, CampaignSpec};
use dynawave_core::experiment::ExperimentConfig;
use dynawave_core::{report, Metric};
use dynawave_workloads::Benchmark;
use std::time::Instant;

fn main() {
    // Demo-scale defaults: the paper-scale ones are too heavy for an
    // example.
    let demo = ExperimentConfig {
        train_points: 16,
        test_points: 4,
        samples: 16,
        interval_instructions: 400,
        seed: 2007,
        ..ExperimentConfig::default()
    };
    let setup = threads_from_env()
        .and_then(|threads| ExperimentConfig::from_env_or(demo).map(|cfg| (threads, cfg)));
    let (threads, config) = match setup {
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
    let journal = std::env::temp_dir().join(format!(
        "dynawave-parallel-campaign-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    eprintln!(
        "campaign: {} benchmarks x {} metrics = {} pairs, {} work units, at most {} worker thread(s)",
        spec.benchmarks.len(),
        spec.metrics.len(),
        spec.benchmarks.len() * spec.metrics.len(),
        spec.unit_count(),
        threads
    );
    // dynalint:allow(D007) -- wall-clock progress on stderr only; the report on stdout never depends on it
    let t0 = Instant::now();
    let evals = match run_journaled_parallel(&spec, &journal, threads) {
        Ok(evals) => evals,
        Err(e) => {
            eprintln!("error: campaign failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "completed {} units in {:.2}s wall",
        spec.unit_count(),
        t0.elapsed().as_secs_f64()
    );
    let _ = std::fs::remove_file(&journal);
    // The deterministic payload: byte-identical for any DYNAWAVE_THREADS.
    println!(
        "{}",
        report::full_report("full-space parallel campaign", &evals)
    );
}
