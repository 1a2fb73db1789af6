//! The paper's headline use case, end to end: simulate a *small* training
//! sample, then explore the **entire** test grid (5,832 configurations)
//! through the models alone — here, finding the best-CPI configuration
//! whose predicted worst-case power stays under a budget, a query no
//! simulation campaign could answer at this cost.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p dynawave-core --example full_space_exploration
//! ```

use dynawave_core::{collect_domain_traces, PredictorParams, WaveletNeuralPredictor};
use dynawave_numeric::stats::mean;
use dynawave_sampling::{grid, lhs, DesignSpace, Split};
use dynawave_sim::SimOptions;
use dynawave_workloads::Benchmark;
use std::time::Instant;

const POWER_BUDGET_WATTS: f64 = 110.0;

fn main() {
    let bench = Benchmark::Twolf;
    let space = DesignSpace::micro2007();
    let opts = SimOptions {
        samples: 64,
        interval_instructions: 2000,
        seed: 42,
    };

    // 1. Simulate a 60-point LHS training design (the expensive part),
    //    once for both domains.
    println!("simulating 60 training configurations of {bench} ...");
    // dynalint:allow(D007) -- progress display for a long example run; no result depends on it
    let t0 = Instant::now();
    let train_points = lhs::sample(&space, 60, 7);
    let [cpi_train, power_train, _] = collect_domain_traces(bench, &train_points, &opts);
    let sim_time = t0.elapsed();

    // 2. Train one model per domain.
    let params = PredictorParams::default();
    let cpi_model = WaveletNeuralPredictor::train(&cpi_train, &params).expect("training");
    let power_model = WaveletNeuralPredictor::train(&power_train, &params).expect("training");

    // 3. Sweep the ENTIRE test grid through the models.
    // dynalint:allow(D007) -- progress display for a long example run; no result depends on it
    let t1 = Instant::now();
    let mut best: Option<(f64, f64, dynawave_sampling::DesignPoint)> = None;
    let mut feasible = 0usize;
    let mut total = 0usize;
    for point in grid::full_factorial(&space, Split::Test) {
        total += 1;
        let power = predicted_peak_power(&power_model, &point);
        if power > POWER_BUDGET_WATTS {
            continue;
        }
        feasible += 1;
        let cpi = cpi_model.predict_mean(&point);
        if best.as_ref().is_none_or(|(c, _, _)| cpi < *c) {
            best = Some((cpi, power, point));
        }
    }
    let sweep_time = t1.elapsed();

    let (cpi, power, point) = best.expect("some configuration is feasible");
    println!(
        "\nswept {total} configurations in {:.2}s ({} feasible under {POWER_BUDGET_WATTS} W); \
         training sims took {:.1}s",
        sweep_time.as_secs_f64(),
        feasible,
        sim_time.as_secs_f64()
    );
    println!("best predicted configuration: {point}");
    println!("  predicted mean CPI {cpi:.3}, predicted peak power {power:.1} W");

    // 4. Validate the winner with one detailed simulation.
    let [cpi_sim, power_sim, _] = collect_domain_traces(bench, std::slice::from_ref(&point), &opts);
    let actual_cpi = mean(&cpi_sim.traces[0]);
    let actual_power = power_sim.traces[0].iter().cloned().fold(0.0f64, f64::max);
    println!("  simulated  mean CPI {actual_cpi:.3}, simulated  peak power {actual_power:.1} W");
    println!(
        "  budget {}: {}",
        POWER_BUDGET_WATTS,
        if actual_power <= POWER_BUDGET_WATTS * 1.02 {
            "respected"
        } else {
            "VIOLATED (model under-predicted the peak)"
        }
    );
}

/// Predicted worst-case (peak) power at a design point.
fn predicted_peak_power(
    model: &WaveletNeuralPredictor,
    point: &dynawave_sampling::DesignPoint,
) -> f64 {
    model.predict(point).iter().cloned().fold(0.0f64, f64::max)
}
