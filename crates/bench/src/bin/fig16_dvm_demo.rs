//! Figure 16: the IQ DVM policy, shown as the implemented pseudo-code and
//! a live trace of the policy's state while managing a memory-bound run.

use dynawave_avf::{AvfModel, Structure};
use dynawave_bench::{downsample, fmt, sparkline, start};
use dynawave_sim::{DvmConfig, FrontEndOutcomes, MachineConfig, Simulator};
use dynawave_workloads::Benchmark;

fn main() {
    let (cfg, t0) = start(
        "Figure 16",
        "IQ DVM policy: pseudo-code and a live management trace",
    );
    println!(
        r#"
DVM_IQ {{
    ACE bits counter updating();
    if current context has L2 cache misses
    then stall dispatching instructions for current context;
    every (sample_interval/5) cycles {{
        if online IQ_AVF > trigger threshold
        then wq_ratio = wq_ratio / 2;
        else wq_ratio = wq_ratio + 1;
    }}
    if (ratio of waiting instruction # to ready instruction # > wq_ratio)
    then stall dispatching instructions;
}}
"#
    );
    let opts = cfg.sim_options();
    let threshold = 0.3;
    let base = MachineConfig::baseline();
    let managed = base.clone().with_dvm(DvmConfig {
        threshold,
        initial_wq_ratio: 4.0,
    });
    for bench in [Benchmark::Mcf, Benchmark::Gcc] {
        let stream = opts.stream(bench);
        let outcomes = FrontEndOutcomes::new(&base, &stream);
        let plain = Simulator::new(base.clone()).run_replay(&stream, &outcomes, &opts);
        let dvm = Simulator::new(managed.clone()).run_replay(&stream, &outcomes, &opts);
        let avf_plain = AvfModel::new(&base).avf_trace(&plain, Structure::IssueQueue);
        let avf_dvm = AvfModel::new(&managed).avf_trace(&dvm, Structure::IssueQueue);
        let peak = |t: &[f64]| t.iter().cloned().fold(0.0f64, f64::max);
        let triggers: u64 = dvm.intervals.iter().map(|i| i.dvm_triggers).sum();
        let stalls: u64 = dvm.intervals.iter().map(|i| i.dvm_stall_cycles).sum();
        println!("{bench}: target {threshold}");
        println!(
            "  IQ AVF w/o DVM: peak {} {}",
            fmt(peak(&avf_plain), 3),
            sparkline(&downsample(&avf_plain, 64))
        );
        println!(
            "  IQ AVF w/  DVM: peak {} {}",
            fmt(peak(&avf_dvm), 3),
            sparkline(&downsample(&avf_dvm, 64))
        );
        println!(
            "  triggers {triggers}, dispatch-stall cycles {stalls}, CPI cost {:.2}%\n",
            100.0 * (dvm.aggregate_cpi() / plain.aggregate_cpi() - 1.0)
        );
    }
    println!(
        "Expected shape: the policy caps the vulnerability trace below the\n\
         designed-for level at some performance cost (paper Figure 15/16)."
    );
    dynawave_bench::finish(t0);
}
