//! Extension case study: forecasting the efficiency of a fetch-throttling
//! DTM (dynamic thermal/power management) policy, the power-domain
//! counterpart of the paper's §5 DVM study.
//!
//! The simulator's DTM policy (paper reference \[1\], Brooks & Martonosi)
//! throttles fetch whenever recent activity exceeds a trigger. Here we
//! measure, per benchmark, the policy's effect on the *power dynamics*
//! trace — peak power, power above a 75 W envelope, and the CPI cost —
//! demonstrating that the scenario-based methodology generalizes to
//! other domains and policies.

use dynawave_bench::{fmt, print_table, start};
use dynawave_power::PowerModel;
use dynawave_sim::{dtm::DtmConfig, MachineConfig, Simulator};
use dynawave_workloads::Benchmark;

fn main() {
    let (cfg, t0) = start(
        "Case study: DTM fetch throttling",
        "power-domain scenario management (extension beyond the paper's DVM)",
    );
    let opts = cfg.sim_options();
    let base = MachineConfig::baseline();
    // The trigger must sit inside the machine's achievable IPC range;
    // CPI on the baseline runs ~2-10, so sustained IPC above 0.40 marks
    // the "hot" compute phases worth throttling.
    // The throttle must bind: an 8-wide front end at half rate still
    // outruns an achieved IPC of ~0.4, so the engaged fetch rate is cut
    // to ~0.3 instructions/cycle (factor 1/25).
    let managed = base.clone().with_dtm(DtmConfig {
        ipc_trigger: 0.40,
        throttle_factor: 0.04,
    });
    let mut rows = Vec::new();
    for bench in Benchmark::ALL {
        eprintln!("simulating {bench} ...");
        let stream = opts.stream(bench);
        let replay = |config: &MachineConfig| {
            Simulator::new(config.clone()).run_trace(stream.iter().copied(), &opts)
        };
        let run_of = |config: &MachineConfig, envelope: f64| {
            let run = replay(config);
            let watts = PowerModel::new(config).power_trace(&run);
            let peak = watts.iter().cloned().fold(0.0f64, f64::max);
            let over = watts.iter().filter(|&&w| w > envelope).count() as f64 / watts.len() as f64;
            let engaged: u64 = run.intervals.iter().map(|i| i.dtm_engaged_windows).sum();
            (peak, over, run.aggregate_cpi(), engaged)
        };
        // Per-benchmark envelope: halfway between unmanaged mean and peak.
        let probe = replay(&base);
        let watts = PowerModel::new(&base).power_trace(&probe);
        let mean = watts.iter().sum::<f64>() / watts.len() as f64;
        let peak = watts.iter().cloned().fold(0.0f64, f64::max);
        let envelope = mean + 0.5 * (peak - mean);
        let (peak0, over0, cpi0, _) = run_of(&base, envelope);
        let (peak1, over1, cpi1, engaged) = run_of(&managed, envelope);
        rows.push(vec![
            bench.name().to_string(),
            fmt(envelope, 1),
            fmt(peak0, 1),
            fmt(peak1, 1),
            fmt(100.0 * over0, 1),
            fmt(100.0 * over1, 1),
            fmt(100.0 * (cpi1 / cpi0 - 1.0), 2),
            engaged.to_string(),
        ]);
    }
    println!();
    print_table(
        &[
            "benchmark",
            "envelope W",
            "peak W (off)",
            "peak W (DTM)",
            ">env % (off)",
            ">env % (DTM)",
            "CPI cost %",
            "engaged",
        ],
        &rows,
    );
    println!(
        "\nExpected shape: the throttle clips power peaks and shrinks the\n\
         above-envelope fraction on high-IPC benchmarks at a bounded CPI\n\
         cost; memory-bound benchmarks are untouched (trigger never\n\
         fires)."
    );
    dynawave_bench::finish(t0);
}
