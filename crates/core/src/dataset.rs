//! Simulation-backed dataset collection: design points → dynamics traces.

use crate::campaign::{fan_out_map, fan_out_workers};
use dynawave_avf::{AvfModel, Structure};
use dynawave_power::PowerModel;
use dynawave_sampling::DesignPoint;
use dynawave_sim::{FrontEndOutcomes, MachineConfig, RunResult, SimOptions, Simulator};
use dynawave_workloads::{Benchmark, Instruction};

/// Which workload-dynamics metric a trace measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Metric {
    /// Cycles per instruction (performance domain).
    Cpi,
    /// Total processor power in watts (power domain).
    Power,
    /// Combined processor AVF (reliability domain, Figure 8c).
    Avf,
    /// Issue-queue AVF (the §5 DVM case study).
    IqAvf,
}

impl Metric {
    /// All metrics of the paper's three domains (Figure 8).
    pub const DOMAINS: [Metric; 3] = [Metric::Cpi, Metric::Power, Metric::Avf];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Cpi => "cpi",
            Metric::Power => "power",
            Metric::Avf => "avf",
            Metric::IqAvf => "iq_avf",
        }
    }

    /// Inverse of [`Metric::name`]: parses a stable lowercase name.
    pub fn parse(name: &str) -> Option<Metric> {
        match name {
            "cpi" => Some(Metric::Cpi),
            "power" => Some(Metric::Power),
            "avf" => Some(Metric::Avf),
            "iq_avf" => Some(Metric::IqAvf),
            _ => None,
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A collection of per-design-point dynamics traces for one
/// `(benchmark, metric)` pair — the training or test set of a predictor.
#[derive(Debug, Clone)]
pub struct TraceSet {
    /// The benchmark the traces belong to.
    pub benchmark: Benchmark,
    /// The measured metric.
    pub metric: Metric,
    /// Design points, parallel to `traces`.
    pub points: Vec<DesignPoint>,
    /// One dynamics trace (length = `SimOptions::samples`) per point.
    pub traces: Vec<Vec<f64>>,
}

impl TraceSet {
    /// Number of design points in the set.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the set holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Simulates one design point and extracts the dynamics trace for
/// `metric`. Generates the benchmark's instruction stream for this one
/// run; to simulate many points of one benchmark use
/// [`collect_traces`], which generates it once.
///
/// Design points may carry 9 values (Table 2) or 10 (with the DVM flag of
/// the §5 case study).
///
/// # Panics
///
/// Panics on invalid design values (see
/// [`MachineConfig::from_design_values`]).
pub fn trace_for(
    benchmark: Benchmark,
    point: &DesignPoint,
    metric: Metric,
    opts: &SimOptions,
) -> Vec<f64> {
    let stream = opts.stream(benchmark);
    let outcomes = front_end_outcomes(&stream);
    simulate_metrics(&stream, &outcomes, point, &[metric], opts).swap_remove(0)
}

/// The front-end outcomes of `stream` for every design point: points
/// vary only Table 2 knobs, so each has the baseline's front end.
pub(crate) fn front_end_outcomes(stream: &[Instruction]) -> FrontEndOutcomes {
    FrontEndOutcomes::new(&MachineConfig::baseline(), stream)
}

/// Simulates one design point **once** by replaying `stream` — the
/// benchmark's [`SimOptions::stream`], generated by the caller, with its
/// [`front_end_outcomes`] — and derives the trace of each of `metrics`
/// from that run, in order: the one simulate path behind [`trace_for`],
/// [`collect_metric_traces`] and campaign design points.
pub(crate) fn simulate_metrics(
    stream: &[Instruction],
    outcomes: &FrontEndOutcomes,
    point: &DesignPoint,
    metrics: &[Metric],
    opts: &SimOptions,
) -> Vec<Vec<f64>> {
    let config = MachineConfig::from_design_values(point.values());
    let run = Simulator::new(config).run_replay(stream, outcomes, opts);
    metric_traces(&run, metrics)
}

/// Derives the trace of each of `metrics` from one simulator run, in
/// order: the only place a metric trace is computed from a run.
pub fn metric_traces(run: &RunResult, metrics: &[Metric]) -> Vec<Vec<f64>> {
    let config = &run.config;
    let avf = AvfModel::new(config);
    metrics
        .iter()
        .map(|metric| match metric {
            Metric::Cpi => run.cpi_trace(),
            Metric::Power => PowerModel::new(config).power_trace(run),
            Metric::Avf => (run.intervals.iter())
                .map(|i| avf.interval_report(i).combined(config))
                .collect(),
            Metric::IqAvf => avf.avf_trace(run, Structure::IssueQueue),
        })
        .collect()
}

/// Simulates every design point **once** and derives the trace of each
/// of `metrics` from the same runs: one [`TraceSet`] per metric, in
/// order. The benchmark's instruction stream and its front-end outcomes
/// are computed once on the calling thread and replayed into every
/// point; both are dropped on return. The points run on up to
/// [`threads_from_env`](crate::threads_from_env) workers (see
/// [`fan_out_workers`]); each is a pure function of its configuration
/// and of the shared stream and outcomes, and its traces and traced
/// events are placed by point, so the sets and the event stream are
/// the same bits at any worker count. The trace-set collector behind
/// [`collect_traces`], [`collect_domain_traces`] and the serve model
/// cache.
///
/// # Panics
///
/// As the lowest-ranked point whose simulation panics (see
/// [`MachineConfig::from_design_values`]), with its payload.
pub(crate) fn collect_metric_traces(
    benchmark: Benchmark,
    points: &[DesignPoint],
    metrics: &[Metric],
    opts: &SimOptions,
) -> Vec<TraceSet> {
    collect_metric_traces_on(benchmark, points, metrics, opts, fan_out_workers())
}

/// [`collect_metric_traces`] on up to `workers` workers.
pub(crate) fn collect_metric_traces_on(
    benchmark: Benchmark,
    points: &[DesignPoint],
    metrics: &[Metric],
    opts: &SimOptions,
    workers: usize,
) -> Vec<TraceSet> {
    let stream = opts.stream(benchmark);
    let outcomes = front_end_outcomes(&stream);
    let runs = fan_out_map(points, workers, |point| {
        simulate_metrics(&stream, &outcomes, point, metrics, opts)
    });
    let mut sets: Vec<TraceSet> = metrics
        .iter()
        .map(|&metric| TraceSet {
            benchmark,
            metric,
            points: points.to_vec(),
            traces: Vec::with_capacity(points.len()),
        })
        .collect();
    for traces in runs {
        for (set, trace) in sets.iter_mut().zip(traces) {
            set.traces.push(trace);
        }
    }
    sets
}

/// Simulates every design point **once** and extracts all three domain
/// traces (CPI, power, combined AVF) from the same runs.
///
/// The same traces as three [`collect_traces`] calls at a third of the
/// simulation cost; used by the Figure 8/9/10 harnesses.
pub fn collect_domain_traces(
    benchmark: Benchmark,
    points: &[DesignPoint],
    opts: &SimOptions,
) -> [TraceSet; 3] {
    let sets = collect_metric_traces(benchmark, points, &Metric::DOMAINS, opts);
    // dynalint:allow(D001) -- collect_metric_traces returns one set per metric asked for
    sets.try_into().expect("one set per domain metric")
}

/// Simulates every design point and gathers the traces into a
/// [`TraceSet`].
///
/// This is the expensive step the predictive models exist to avoid at
/// *unsimulated* points: the paper simulates 200 training + 50 test
/// configurations per benchmark and predicts everywhere else.
pub fn collect_traces(
    benchmark: Benchmark,
    points: &[DesignPoint],
    metric: Metric,
    opts: &SimOptions,
) -> TraceSet {
    collect_metric_traces(benchmark, points, &[metric], opts).swap_remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynawave_sampling::{lhs, random, DesignSpace, Split};

    fn opts() -> SimOptions {
        SimOptions {
            samples: 16,
            interval_instructions: 800,
            seed: 5,
        }
    }

    #[test]
    fn collects_traces_of_right_shape() {
        let space = DesignSpace::micro2007();
        let pts = lhs::sample(&space, 3, 1);
        let set = collect_traces(Benchmark::Eon, &pts, Metric::Cpi, &opts());
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        for t in &set.traces {
            assert_eq!(t.len(), 16);
            assert!(t.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn one_pass_collects_the_per_metric_traces_in_order() {
        let space = DesignSpace::micro2007();
        let pts = lhs::sample(&space, 3, 4);
        let metrics = [Metric::IqAvf, Metric::Cpi, Metric::Power];
        let sets = collect_metric_traces(Benchmark::Mcf, &pts, &metrics, &opts());
        assert_eq!(sets.len(), metrics.len());
        for (set, metric) in sets.iter().zip(metrics) {
            let alone = collect_traces(Benchmark::Mcf, &pts, metric, &opts());
            assert_eq!(set.metric, metric);
            assert_eq!(set.points, alone.points);
            assert_eq!(set.traces, alone.traces, "{metric}");
        }
    }

    /// `2 * n` points of the DVM space: training and test levels, DVM
    /// on and off.
    fn mixed_design(n: usize) -> Vec<DesignPoint> {
        let space = DesignSpace::micro2007_with_dvm();
        let mut design = lhs::sample(&space, n, 8);
        design.extend(random::sample(&space, n, Split::Test, 8));
        design
    }

    /// Every trace bit of `sets`, set by set.
    fn trace_bits(sets: &[TraceSet]) -> Vec<u64> {
        (sets.iter().flat_map(|s| s.traces.iter().flatten()))
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn traces_are_the_same_bits_at_any_worker_count() {
        let design = mixed_design(3);
        let metrics = [Metric::Cpi, Metric::Power, Metric::Avf, Metric::IqAvf];
        let collect =
            |workers| collect_metric_traces_on(Benchmark::Gcc, &design, &metrics, &opts(), workers);
        let one = collect(1);
        assert_eq!(one.len(), metrics.len());
        assert!(one.iter().all(|s| s.points == design && s.len() == 6));
        for workers in [2, 3, 8] {
            assert_eq!(trace_bits(&collect(workers)), trace_bits(&one), "{workers}");
        }
    }

    #[test]
    fn traced_streams_are_the_same_bytes_at_any_worker_count() {
        // Two span events per point overflow a 40-event ring.
        let design = mixed_design(12);
        let traced = |recorder: dynawave_obs::Recorder, workers| {
            let prior = dynawave_obs::install(recorder);
            let sets = collect_metric_traces_on(
                Benchmark::Mcf,
                &design,
                &Metric::DOMAINS,
                &opts(),
                workers,
            );
            let recorder = dynawave_obs::take().expect("recorder was installed");
            if let Some(prior) = prior {
                dynawave_obs::install(prior);
            }
            let dropped = recorder.dropped();
            let stream = dynawave_obs::encode_lines(&recorder.finish());
            (trace_bits(&sets), stream, dropped)
        };
        let plain = traced(dynawave_obs::Recorder::with_tick_clock(), 1);
        assert_eq!(
            plain.1.matches("\"sim.run_trace\"").count(),
            2 * design.len()
        );
        assert_eq!(traced(dynawave_obs::Recorder::with_tick_clock(), 4), plain);
        let ring = traced(dynawave_obs::Recorder::flight_recorder(40), 1);
        assert!(ring.2 > 0, "the ring must wrap for this test to mean much");
        assert_eq!(traced(dynawave_obs::Recorder::flight_recorder(40), 4), ring);
        assert_eq!(ring.0, plain.0);
    }

    #[test]
    #[should_panic(expected = "cache smaller than one way")]
    fn a_bad_point_panics_with_its_own_message_on_workers() {
        let mut design = mixed_design(3);
        // An L2 knob of 0.5 truncates to a 0 KB cache.
        let mut values = design[4].values().to_vec();
        values[4] = 0.5;
        design[4] = DesignPoint::new(values);
        collect_metric_traces_on(Benchmark::Gcc, &design, &[Metric::Cpi], &opts(), 3);
    }

    #[test]
    fn metrics_have_distinct_scales() {
        let space = DesignSpace::micro2007();
        let pts = lhs::sample(&space, 1, 2);
        let cpi = trace_for(Benchmark::Gcc, &pts[0], Metric::Cpi, &opts());
        let power = trace_for(Benchmark::Gcc, &pts[0], Metric::Power, &opts());
        let avf = trace_for(Benchmark::Gcc, &pts[0], Metric::Avf, &opts());
        assert!(power[0] > cpi[0], "power in watts should exceed CPI");
        assert!(avf.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn dvm_flag_changes_iq_avf() {
        let mut values = vec![8.0, 96.0, 96.0, 48.0, 2048.0, 12.0, 32.0, 64.0, 1.0];
        values.push(0.0);
        let off = DesignPoint::new(values.clone());
        values[9] = 1.0;
        let on = DesignPoint::new(values);
        let t_off = trace_for(Benchmark::Mcf, &off, Metric::IqAvf, &opts());
        let t_on = trace_for(Benchmark::Mcf, &on, Metric::IqAvf, &opts());
        let mean = |t: &[f64]| t.iter().sum::<f64>() / t.len() as f64;
        assert!(mean(&t_on) < mean(&t_off), "DVM should lower IQ AVF");
    }

    #[test]
    fn metric_names() {
        assert_eq!(Metric::Cpi.to_string(), "cpi");
        assert_eq!(Metric::IqAvf.to_string(), "iq_avf");
        assert_eq!(Metric::DOMAINS.len(), 3);
    }

    #[test]
    fn metric_names_roundtrip() {
        for m in [Metric::Cpi, Metric::Power, Metric::Avf, Metric::IqAvf] {
            assert_eq!(Metric::parse(m.name()), Some(m));
        }
        assert_eq!(Metric::parse("ipc"), None);
    }
}
