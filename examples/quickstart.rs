//! Quickstart: train a wavelet neural predictor for gcc CPI dynamics on a
//! handful of simulated configurations, then forecast the dynamics at an
//! unsimulated design point and compare against the simulator.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p dynawave-core --example quickstart
//! ```
//!
//! Set `DYNAWAVE_TRACE=1` to record the run with `dynawave-obs`: the
//! JSON-lines event stream goes to **stderr** (pipe it into
//! `obs_validate` or any JSON-lines tool) and a per-stage "Pipeline
//! profile" section is printed to stdout. The traced run also exercises a
//! miniature journaled campaign — kill-and-resume, then finished by the
//! parallel executor under `DYNAWAVE_THREADS` workers — so the
//! stream covers all five pipeline stages (sim, wavelet, neural,
//! predictor, campaign) and is byte-identical for any worker count.

use dynawave_core::campaign::{
    advance_journaled, run_journaled_parallel, threads_from_env, CampaignSpec,
};
use dynawave_core::experiment::ExperimentConfig;
use dynawave_core::{
    collect_traces, report, trace_for, Metric, PredictorParams, WaveletNeuralPredictor,
};
use dynawave_numeric::stats::nmse_percent;
use dynawave_sampling::{lhs, random, DesignSpace, Split};
use dynawave_sim::SimOptions;
use dynawave_workloads::Benchmark;

fn main() {
    let tracing = std::env::var("DYNAWAVE_TRACE").map(|v| v == "1") == Ok(true);
    if tracing {
        dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
    }

    // 1. The paper's 9-parameter design space (Table 2).
    let space = DesignSpace::micro2007();
    println!(
        "design space: {} parameters, {} train-grid configurations",
        space.dims(),
        space.grid_size(Split::Train)
    );

    // 2. Simulate a Latin-hypercube training design. 64 samples of 2000
    //    instructions keep this example fast; the paper uses 128 samples
    //    of a 200M-instruction SimPoint interval.
    let opts = SimOptions {
        samples: 64,
        interval_instructions: 2000,
        seed: 42,
    };
    let train_points = lhs::sample(&space, 60, 7);
    println!(
        "simulating {} training configurations ...",
        train_points.len()
    );
    let train = collect_traces(Benchmark::Gcc, &train_points, Metric::Cpi, &opts);

    // 3. Train: one RBF network per important wavelet coefficient.
    let model = WaveletNeuralPredictor::train(&train, &PredictorParams::default())
        .expect("training succeeds on a well-formed trace set");
    println!(
        "trained {} coefficient networks (indices {:?} ...)",
        model.coefficient_indices().len(),
        &model.coefficient_indices()[..4.min(model.coefficient_indices().len())]
    );

    // 4. Forecast dynamics at an unsimulated test configuration ...
    let probe = random::sample(&space, 1, Split::Test, 99).remove(0);
    let forecast = model.predict(&probe);

    // 5. ... and check it against a detailed simulation of that point.
    let actual = trace_for(Benchmark::Gcc, &probe, Metric::Cpi, &opts);
    println!("\nprobe configuration: {probe}");
    println!(
        "forecast CPI range: {:.2} .. {:.2}",
        forecast.iter().cloned().fold(f64::INFINITY, f64::min),
        forecast.iter().cloned().fold(0.0f64, f64::max),
    );
    println!(
        "simulated CPI range: {:.2} .. {:.2}",
        actual.iter().cloned().fold(f64::INFINITY, f64::min),
        actual.iter().cloned().fold(0.0f64, f64::max),
    );
    println!("NMSE: {:.2}%", nmse_percent(&actual, &forecast));

    if tracing {
        // 6. Under tracing, also run a miniature journaled campaign with a
        //    simulated kill-and-resume, so the event stream demonstrates
        //    heartbeats and the `resumed_from` marker.
        let spec = CampaignSpec::single(
            Benchmark::Gcc,
            Metric::Cpi,
            ExperimentConfig {
                train_points: 10,
                test_points: 3,
                samples: 16,
                interval_instructions: 400,
                seed: 42,
                ..ExperimentConfig::default()
            },
        );
        let journal = std::env::temp_dir().join(format!(
            "dynawave-quickstart-{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&journal);
        // A run killed after five design points leaves their units in the
        // journal. The parallel executor then resumes and finishes it:
        // DYNAWAVE_THREADS workers simulate, and this thread appends their
        // points to the one journal. The merged event stream is
        // byte-identical for any worker count — `ci.sh --obs`
        // cross-checks the `obs_report` renders.
        advance_journaled(&spec, &journal, 5).expect("temp journal is writable");
        let threads = threads_from_env().expect("DYNAWAVE_THREADS must be a positive integer");
        let evals = run_journaled_parallel(&spec, &journal, threads)
            .expect("the default recovery policy cannot fail training");
        let _ = std::fs::remove_file(&journal);
        println!(
            "\ncampaign: {} unit(s) completed, median NMSE {:.2}%",
            spec.unit_count(),
            evals[0].median_nmse()
        );

        // 7. Flush the recorder: JSON lines to stderr (machine channel),
        //    human-readable profile to stdout.
        let events = dynawave_obs::drain().expect("recorder was installed above");
        eprint!("{}", dynawave_obs::encode_lines(&events));
        println!();
        print!("{}", report::pipeline_profile_section(&events));
    }
}
