//! `dsebench`: end-to-end and per-layer benchmark of the dynawave DSE
//! pipeline.
//!
//! ```text
//! dsebench --workload campaign|retrain|serve --seed N --seconds S --trace 0|1
//!          [--serve-bin PATH] [--smoke]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with nothing
//! but the workload's own calls on the clock; with `--trace 1` it sends
//! the same work through the layers' public functions with a span around
//! each call and reports per-layer metrics instead (see `layers.rs`). The
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (name → value and unit). Every run checks the program's
//! outputs; a failed check is reported in `failed` and makes the exit code
//! non-zero. `--smoke` shrinks every workload to a few seconds for the
//! harness's own test (`smoke.py`). See METRICS.md for every metric.

mod campaign;
mod layers;
mod retrain;
mod serve;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload does not run reads 0 there.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("workloads.instr", "count"),
    ("workloads.busy_s", "s"),
    ("workloads.ns_per_instr", "ns"),
    ("sim.runs", "count"),
    ("sim.instr", "count"),
    ("sim.busy_s", "s"),
    ("sim.ns_per_instr", "ns"),
    ("sim.runs_per_point", "ratio"),
    ("power.busy_s", "s"),
    ("avf.busy_s", "s"),
    ("sampling.busy_s", "s"),
    ("wavelet.wavedec_calls", "count"),
    ("wavelet.waverec_calls", "count"),
    ("wavelet.busy_s", "s"),
    ("neural.fits", "count"),
    ("neural.fit_attempts_per_coeff", "ratio"),
    ("neural.units_per_fit", "count"),
    ("neural.fit_busy_s", "s"),
    ("predictor.train_calls", "count"),
    ("predictor.train_busy_s", "s"),
    ("predictor.busy_s", "s"),
    ("predictor.predict_points", "count"),
    ("predictor.predict_us_per_point", "us"),
    ("predictor.degraded_coeffs", "count"),
    ("predictor.degraded_frac", "ratio"),
    ("predictor.nmse_median_pct", "%"),
    ("predictor.nmse_p90_pct", "%"),
    ("campaign.units", "count"),
    ("campaign.journal_bytes", "bytes"),
    ("campaign.finish_busy_s", "s"),
    ("campaign.self_s", "s"),
    ("campaign.busy_s", "s"),
    ("campaign.parallel_eff", "ratio"),
    ("campaign.useful_minstr_per_s", "Minstr/s"),
    ("serve.handle_us.predict", "us"),
    ("serve.handle_us.sweep", "us"),
    ("serve.handle_us.topk", "us"),
    ("serve.handle_us.pareto", "us"),
    ("serve.handle_us.stats", "us"),
    ("serve.handle_us.invalid", "us"),
    ("serve.journal_append_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.ticks", "count"),
    ("serve.model_cache_misses", "count"),
    ("serve.overloaded", "count"),
    ("serve.partial", "count"),
    ("serve.journal_bytes", "bytes"),
    ("serve.busy_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// What the command line asked for.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    pub smoke: bool,
}

/// One run's result: operations attempted, checks failed, metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "dsebench: {msg}\nusage: dsebench --workload campaign|retrain|serve --seed N \
         --seconds S --trace 0|1 [--serve-bin PATH] [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        smoke: false,
    };
    // dynalint:allow(D004) -- command-line arguments are the benchmark's input
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let Some(value) = argv.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value)),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let work = run_dir(&args.workload);
    let result = match args.workload.as_str() {
        "campaign" => campaign::run(&args, &work),
        "retrain" => retrain::run(&args, &work),
        "serve" => serve::run(&args, &work),
        other => usage(&format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("dsebench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in declared {
        outcome
            .metrics
            .entry((*name).to_string())
            .or_insert((0.0, unit));
    }
    for e in &outcome.errors {
        eprintln!("dsebench: check failed: {e}");
    }
    println!("{}", result_line(&outcome, declared));
    if !outcome.errors.is_empty() {
        std::process::exit(1);
    }
}

/// The result object: the declared metrics only, values at full precision.
fn result_line(outcome: &Outcome, declared: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(*name).map_or(0.0, |m| m.0);
            let value = if value.is_finite() { value } else { -1.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.errors.is_empty(),
        outcome.attempted.max(1),
        outcome.errors.len(),
        metrics.join(",")
    )
}

/// Scratch directory for this run's journals, under `.bench_run/` in the
/// working directory; removed when the run ends.
fn run_dir(workload: &str) -> PathBuf {
    let dir = Path::new(".bench_run").join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("dsebench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    dir
}

/// Writes a traced run's spans to `.bench_run/trace-<workload>-<seed>.jsonl`.
pub fn write_spans(args: &Args, t: &layers::Tracer) {
    let path = Path::new(".bench_run").join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = std::fs::write(&path, t.spans_jsonl()) {
        eprintln!("dsebench: cannot write {}: {e}", path.display());
    }
}

/// Linear-interpolated quantile `q` in [0, 1]; 0 for no data.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    let mut v = data.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(data: &[f64]) -> f64 {
    quantile(data, 0.5)
}

/// Puts the timing metrics every untraced run reports. A run repeats one
/// iteration of identical work (a campaign, a sweep, a round of requests)
/// for `--seconds`; `rates` holds each iteration's operations per second
/// and `latency_ms` each iteration's median operation latency. The host
/// is a shared virtual machine whose speed drifts by a third over tens of
/// seconds, and interference only ever slows, so the fast decile of the
/// iterations — not their median — estimates the program's own speed.
/// Set-up repeats identical work too; its median is reported.
pub fn put_timings(out: &mut Outcome, setup: &[f64], rates: &[f64], latency_ms: &[f64]) {
    out.put("setup_s", median(setup), "s");
    out.put("throughput_per_s", quantile(rates, 0.9), "1/s");
    out.put("latency_ms", quantile(latency_ms, 0.1), "ms");
    eprintln!(
        "{} iterations: throughput median {:.4} fast decile {:.4} /s; latency median {:.4} fast decile {:.4} ms; set-up {setup:.4?} s",
        rates.len(),
        median(rates),
        quantile(rates, 0.9),
        median(latency_ms),
        quantile(latency_ms, 0.1)
    );
}

/// Peak resident set (`VmHWM`) of a process, in MiB; 0 when unreadable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-workload seed for one purpose, so designs and request mixes vary
/// independently with `--seed`.
pub fn derive(seed: u64, label: &str) -> u64 {
    dynawave_numeric::rng::derive_seed(seed, label)
}
