//! Ablation: optional microarchitectural features beyond the paper's
//! baseline — next-line prefetching and store-to-load forwarding — and
//! their effect on CPI and L1D misses per benchmark.

use dynawave_bench::{fmt, print_table, start};
use dynawave_sim::{MachineConfig, RunResult, Simulator};
use dynawave_workloads::Benchmark;

fn main() {
    let (cfg, t0) = start(
        "Ablation: optional features",
        "next-line prefetch and store-to-load forwarding (dl1_lat=3 machine)",
    );
    let opts = cfg.sim_options();
    // Store-to-load forwarding only pays off when the L1D hit itself is
    // not single-cycle, so the ablation machine uses dl1_lat = 3 (a Table
    // 2 level).
    let mut base = MachineConfig::baseline();
    base.dl1_lat = 3;
    let configs: [(&str, MachineConfig); 4] = [
        ("baseline", base.clone()),
        ("+prefetch", base.clone().with_next_line_prefetch()),
        ("+forwarding", base.clone().with_store_forwarding()),
        (
            "+both",
            base.clone()
                .with_next_line_prefetch()
                .with_store_forwarding(),
        ),
    ];
    let mut rows = Vec::new();
    for bench in Benchmark::ALL {
        eprintln!("simulating {bench} ...");
        let mut row = vec![bench.name().to_string()];
        let mut base_cpi = 0.0;
        let mut base_misses = 0u64;
        let stream = opts.stream(bench);
        for (i, (_, config)) in configs.iter().enumerate() {
            let run: RunResult =
                Simulator::new(config.clone()).run_trace(stream.iter().copied(), &opts);
            let cpi = run.aggregate_cpi();
            let misses: u64 = run.intervals.iter().map(|s| s.dl1_misses).sum();
            if i == 0 {
                base_cpi = cpi;
                base_misses = misses;
                row.push(fmt(cpi, 3));
                row.push(misses.to_string());
            } else {
                row.push(fmt(100.0 * (cpi / base_cpi - 1.0), 2));
                row.push(fmt(
                    100.0 * (misses as f64 / base_misses.max(1) as f64 - 1.0),
                    1,
                ));
            }
        }
        rows.push(row);
    }
    println!();
    print_table(
        &[
            "benchmark",
            "base CPI",
            "base dl1miss",
            "pf dCPI%",
            "pf dMiss%",
            "fwd dCPI%",
            "fwd dMiss%",
            "both dCPI%",
            "both dMiss%",
        ],
        &rows,
    );
    println!(
        "\nExpected shape: prefetching cuts misses ~30%% and CPI 12-18%%\n\
         across the board (the synthetic address streams are stride-rich).\n\
         Store-to-load forwarding fires rarely here - the synthetic data\n\
         streams have no stack-frame store/reload idiom - so its effect is\n\
         within noise; the mechanism itself is exercised by the sim tests."
    );
    dynawave_bench::finish(t0);
}
