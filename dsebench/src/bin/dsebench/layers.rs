//! Wall-clock spans around calls into the pipeline's layers, and the layer
//! calls the traced runs make.
//!
//! The library's composite entry points (`collect_domain_traces`,
//! `train_resilient`, `run_journaled_parallel`) hide several layers behind
//! one call. A traced run therefore sends the same work through the
//! layers' own public functions — `TraceGenerator`, `Simulator::run_trace`,
//! `PowerModel::power_trace`, `AvfModel::interval_report`, `wavedec`,
//! `RbfNetwork::fit`, `waverec` — with a span around each call. Every
//! workload checks that this path reproduces the composite call's output
//! bit for bit, so the spans time the work the program really does.

use dynawave_avf::AvfModel;
use dynawave_core::WaveletNeuralPredictor;
use dynawave_core::{Metric, PortableCoeffModel, PortableModel, PredictorParams, TraceSet};
use dynawave_neural::RbfNetwork;
use dynawave_numeric::Matrix;
use dynawave_power::PowerModel;
use dynawave_sampling::DesignPoint;
use dynawave_sim::{MachineConfig, RunResult, SimOptions, Simulator};
use dynawave_wavelet::{select, wavedec, waverec, Decomposition, Wavelet};
use dynawave_workloads::{Benchmark, Instruction, TraceGenerator};
use std::collections::BTreeMap;

/// The layers, named after the crates and modules they time. Self times
/// of these plus `unattributed` add up to a traced run's wall time.
pub const LAYERS: [&str; 10] = [
    "workloads",
    "sim",
    "power",
    "avf",
    "sampling",
    "wavelet",
    "neural",
    "predictor",
    "campaign",
    "serve",
];

/// Host wall-clock time since construction.
pub struct Stopwatch {
    // dynalint:allow(D004) -- host wall time is the quantity this benchmark measures
    start: std::time::Instant,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            // dynalint:allow(D004, D007) -- host wall time is the quantity this benchmark measures
            start: std::time::Instant::now(),
        }
    }

    pub fn secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// One recorded call into a layer.
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Spans and counts of one traced run, kept in memory until the run ends.
pub struct Tracer {
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            clock: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn call<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            parent: self.open.last().copied(),
            start: self.clock.secs(),
            end: 0.0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.clock.secs();
        out
    }

    pub fn add(&mut self, key: &str, value: f64) {
        *self.counts.entry(key.to_string()).or_insert(0.0) += value;
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Seconds since the tracer was created: the traced run's wall time.
    pub fn wall(&self) -> f64 {
        self.clock.secs()
    }

    /// Durations of every span called `layer.name`.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Each span's duration minus the part its children cover.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Self time per layer, for every layer in [`LAYERS`].
    pub fn layer_self(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
        for (s, own) in self.spans.iter().zip(self.self_secs()) {
            *out.entry(s.layer).or_insert(0.0) += own;
        }
        out
    }

    /// Self time of the spans called `layer.name`.
    pub fn name_self(&self, layer: &str, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_secs())
            .filter(|(s, _)| s.layer == layer && s.name == name)
            .map(|(_, own)| own)
            .sum()
    }

    /// The spans as JSON lines, for the trace file written at the end.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}\n",
                s.layer, s.name, s.start, s.end
            ));
        }
        out
    }
}

/// Simulates one design point: the instruction stream is generated first
/// (`workloads`), then replayed through the engine (`sim`). This is what
/// `Simulator::run` does, with the two layers separated.
pub fn simulate(
    t: &mut Tracer,
    benchmark: Benchmark,
    point: &DesignPoint,
    opts: &SimOptions,
) -> (MachineConfig, RunResult) {
    let config = MachineConfig::from_design_values(point.values());
    let total = opts.samples as u64 * opts.interval_instructions;
    let stream: Vec<Instruction> = t.call("workloads", "generate", |_| {
        TraceGenerator::new(benchmark, total, opts.seed).collect()
    });
    let sim = Simulator::new(config.clone());
    let run = t.call("sim", "run_trace", |_| sim.run_trace(stream, opts));
    let committed: u64 = run.intervals.iter().map(|i| i.instructions).sum();
    t.add("workloads.instr", total as f64);
    t.add("sim.runs", 1.0);
    t.add("sim.instr", committed as f64);
    (config, run)
}

/// Extracts one domain's dynamics trace from a run, as the library does.
pub fn metric_trace(
    t: &mut Tracer,
    metric: Metric,
    config: &MachineConfig,
    run: &RunResult,
) -> Vec<f64> {
    match metric {
        Metric::Power => t.call("power", "power_trace", |_| {
            PowerModel::new(config).power_trace(run)
        }),
        Metric::Avf => t.call("avf", "interval_report", |_| {
            let model = AvfModel::new(config);
            run.intervals
                .iter()
                .map(|i| model.interval_report(i).combined(config))
                .collect()
        }),
        Metric::Cpi | Metric::IqAvf => t.call("sim", "cpi_trace", |_| run.cpi_trace()),
    }
}

/// Simulates `points` once each and derives every domain trace from the
/// same run: `collect_domain_traces` through the layer calls.
pub fn domain_traces(
    t: &mut Tracer,
    benchmark: Benchmark,
    points: &[DesignPoint],
    opts: &SimOptions,
) -> [TraceSet; 3] {
    let mut traces: [Vec<Vec<f64>>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for point in points {
        let (config, run) = simulate(t, benchmark, point, opts);
        for (slot, metric) in traces.iter_mut().zip(Metric::DOMAINS) {
            slot.push(metric_trace(t, metric, &config, &run));
        }
    }
    let [cpi, power, avf] = traces;
    let set = |metric, traces| TraceSet {
        benchmark,
        metric,
        points: points.to_vec(),
        traces,
    };
    [
        set(Metric::Cpi, cpi),
        set(Metric::Power, power),
        set(Metric::Avf, avf),
    ]
}

/// A predictor trained through the layer calls: one RBF network per
/// selected wavelet coefficient.
pub struct LayeredModel {
    wavelet: Wavelet,
    trace_len: usize,
    indices: Vec<usize>,
    nets: Vec<RbfNetwork>,
}

impl LayeredModel {
    /// The same model as a library predictor (for persisting or serving).
    pub fn to_predictor(&self) -> Result<WaveletNeuralPredictor, String> {
        WaveletNeuralPredictor::from_portable(PortableModel {
            wavelet: self.wavelet,
            trace_len: self.trace_len,
            indices: self.indices.clone(),
            models: self
                .nets
                .iter()
                .map(|n| PortableCoeffModel::Rbf(n.to_data()))
                .collect(),
        })
        .map_err(|e| e.to_string())
    }
}

/// `WaveletNeuralPredictor::train` on its primary rung, through the layer
/// calls: `wavedec` per training trace, magnitude-first coefficient
/// selection, then `RbfNetwork::fit` per selected coefficient. A fit that
/// fails or returns non-finite weights is an error here: the library would
/// have descended its recovery ladder, which this path does not mirror.
pub fn train(
    t: &mut Tracer,
    set: &TraceSet,
    params: &PredictorParams,
) -> Result<LayeredModel, String> {
    t.add("predictor.train_calls", 1.0);
    t.call("predictor", "train", |t| {
        let trace_len = set.traces.first().map_or(0, Vec::len);
        let dims = set.points.first().map_or(0, |p| p.values().len());
        let mut rows = Vec::with_capacity(set.traces.len());
        for trace in &set.traces {
            let dec = t.call("wavelet", "wavedec", |_| wavedec(trace, params.wavelet));
            rows.push(dec.map_err(|e| e.to_string())?.into_coeffs());
        }
        t.add("wavelet.wavedec_calls", rows.len() as f64);
        let mut mean_mag = vec![0.0f64; trace_len];
        for row in &rows {
            for (m, &c) in mean_mag.iter_mut().zip(row) {
                *m += c.abs();
            }
        }
        let indices = select::top_k_by_magnitude(&mean_mag, params.coefficients.min(trace_len));
        let xdata: Vec<f64> = set
            .points
            .iter()
            .flat_map(|p| p.values().to_vec())
            .collect();
        let x = Matrix::from_vec(set.points.len(), dims, xdata).map_err(|e| e.to_string())?;
        let mut nets = Vec::with_capacity(indices.len());
        for &idx in &indices {
            let y: Vec<f64> = rows.iter().map(|row| row[idx]).collect();
            t.add("neural.fit_attempts", 1.0);
            let net = t
                .call("neural", "fit", |_| RbfNetwork::fit(&x, &y, &params.rbf))
                .map_err(|e| e.to_string())?;
            if !net.parameters_are_finite() {
                return Err(format!("coefficient {idx} fit non-finite weights"));
            }
            t.add("neural.fits", 1.0);
            t.add("neural.units", net.unit_count() as f64);
            nets.push(net);
        }
        Ok(LayeredModel {
            wavelet: params.wavelet,
            trace_len,
            indices,
            nets,
        })
    })
}

/// `WaveletNeuralPredictor::predict` through the layer calls: one network
/// evaluation per selected coefficient, then `waverec`.
pub fn predict(t: &mut Tracer, model: &LayeredModel, point: &DesignPoint) -> Vec<f64> {
    t.add("predictor.predict_points", 1.0);
    t.add("wavelet.waverec_calls", 1.0);
    t.call("predictor", "predict", |t| {
        let mut coeffs = vec![0.0; model.trace_len];
        for (&idx, net) in model.indices.iter().zip(&model.nets) {
            let v = net.predict(point.values());
            coeffs[idx] = if v.is_finite() { v } else { 0.0 };
        }
        let dec = Decomposition::from_coeffs(coeffs, model.wavelet);
        t.call("wavelet", "waverec", |_| waverec(&dec))
            .unwrap_or_else(|_| vec![0.0; model.trace_len])
    })
}

/// Layer metrics every traced run reports, computed from its spans and
/// counts. Workload-specific metrics are added by the workloads.
pub fn layer_metrics(
    t: &Tracer,
    untraced_wall: f64,
    out: &mut BTreeMap<String, (f64, &'static str)>,
) {
    let wall = t.wall();
    let layer = t.layer_self();
    let busy = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.insert(name.to_string(), (value, unit));
    };
    put("workloads.instr", t.count("workloads.instr"), "count");
    put("workloads.busy_s", busy("workloads"), "s");
    put(
        "workloads.ns_per_instr",
        per(busy("workloads") * 1e9, t.count("workloads.instr")),
        "ns",
    );
    put("sim.instr", t.count("sim.instr"), "count");
    put("sim.busy_s", busy("sim"), "s");
    put(
        "sim.ns_per_instr",
        per(t.name_self("sim", "run_trace") * 1e9, t.count("sim.instr")),
        "ns",
    );
    put("power.busy_s", busy("power"), "s");
    put("avf.busy_s", busy("avf"), "s");
    put("sampling.busy_s", busy("sampling"), "s");
    put(
        "wavelet.wavedec_calls",
        t.count("wavelet.wavedec_calls"),
        "count",
    );
    put(
        "wavelet.waverec_calls",
        t.count("wavelet.waverec_calls"),
        "count",
    );
    put("wavelet.busy_s", busy("wavelet"), "s");
    put("neural.fits", t.count("neural.fits"), "count");
    put(
        "neural.fit_attempts_per_coeff",
        per(t.count("neural.fit_attempts"), t.count("neural.fits")),
        "ratio",
    );
    put(
        "neural.units_per_fit",
        per(t.count("neural.units"), t.count("neural.fits")),
        "count",
    );
    put(
        "neural.fit_busy_s",
        t.durations("neural", "fit").iter().sum(),
        "s",
    );
    put(
        "predictor.train_calls",
        t.count("predictor.train_calls"),
        "count",
    );
    put(
        "predictor.train_busy_s",
        t.durations("predictor", "train").iter().sum(),
        "s",
    );
    put("predictor.busy_s", busy("predictor"), "s");
    let predict_s: f64 = t.durations("predictor", "predict").iter().sum();
    put(
        "predictor.predict_points",
        t.count("predictor.predict_points"),
        "count",
    );
    put(
        "predictor.predict_us_per_point",
        per(predict_s * 1e6, t.count("predictor.predict_points")),
        "us",
    );
    put("campaign.busy_s", busy("campaign"), "s");
    put("serve.busy_s", busy("serve"), "s");
    let attributed: f64 = layer.values().sum();
    put("trace.wall_s", wall, "s");
    put("trace.unattributed_s", wall - attributed, "s");
    put(
        "trace.overhead_frac",
        per(wall, untraced_wall) - 1.0,
        "ratio",
    );
}

/// The traced-run report: self time, share of wall time and counts per
/// layer, plus the unattributed remainder. Written to stderr.
pub fn report(
    workload: &str,
    t: &Tracer,
    metrics: &BTreeMap<String, (f64, &'static str)>,
) -> String {
    let wall = t.wall();
    let layer = t.layer_self();
    let mut out = format!("traced run: {workload}, wall {wall:.3} s\n");
    out.push_str(&format!(
        "{:<12} {:>10} {:>8}  counts\n",
        "layer", "self_s", "share"
    ));
    for name in LAYERS {
        let own = layer.get(name).copied().unwrap_or(0.0);
        let counts: Vec<String> = metrics
            .iter()
            .filter(|(k, (_, unit))| k.starts_with(&format!("{name}.")) && *unit == "count")
            .map(|(k, (v, _))| format!("{}={v}", &k[name.len() + 1..]))
            .collect();
        out.push_str(&format!(
            "{name:<12} {own:>10.4} {:>7.2}%  {}\n",
            100.0 * own / wall.max(f64::MIN_POSITIVE),
            counts.join(" ")
        ));
    }
    let unattributed = wall - layer.values().sum::<f64>();
    out.push_str(&format!(
        "{:<12} {unattributed:>10.4} {:>7.2}%\n",
        "unattributed",
        100.0 * unattributed / wall.max(f64::MIN_POSITIVE)
    ));
    let overhead = metrics.get("trace.overhead_frac").map_or(0.0, |m| m.0);
    out.push_str(&format!("trace.overhead_frac {overhead:.4}\n"));
    out
}
