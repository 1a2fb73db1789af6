//! Fault-tolerant DSE campaigns: checkpoint/resume over simulation units.
//!
//! A paper-scale accuracy campaign simulates hundreds of design points per
//! `(benchmark, metric)` pair before a single model is trained. On shared
//! clusters those jobs get preempted, killed by OOM sweeps, or rebooted —
//! and restarting a multi-hour campaign from scratch is the difference
//! between "ran the full Table 2 sweep" and "gave up".
//!
//! This module schedules an [`ExperimentConfig`] campaign by design
//! point: each `(benchmark, role, point)` is simulated **once**, and every
//! requested metric's trace is derived from that one run. The benchmark's
//! instruction stream does not depend on the machine, so it is generated
//! once per worker and benchmark and replayed into each of the worker's
//! points of that benchmark; points run benchmark by benchmark, so a
//! worker holds one stream at a time (`24 B × samples ×
//! interval_instructions`: 6 MiB at the paper's 128 × 2048) and drops it
//! before generating the next benchmark's. Each trace is a
//! [`WorkUnit`] — `(benchmark, metric, role, point)` — journaled as one
//! line of an append-only, human-inspectable text file. A killed campaign
//! resumes by replaying the journal: completed units are never
//! re-simulated, a partially written trailing line (the kill signature)
//! is dropped, a point whose units are only partly journaled is
//! simulated again for the missing ones, and the final report is
//! **byte-identical** to an uninterrupted run because traces round-trip
//! through the journal with Rust's shortest-exact float formatting.
//!
//! The journal is guarded by a fingerprint of the campaign spec, so a
//! journal written under one configuration can never silently poison a
//! resumed run under another.
//!
//! # Parallel execution
//!
//! Design points are independent by construction — simulation is pure
//! per point — so campaigns shard across worker threads
//! ([`run_journaled_parallel`]; `std::thread` only — the workspace is
//! hermetic). Design point `p` belongs to shard `p % N`; each worker
//! simulates its points and hands every finished point's lines to the
//! calling thread, the journal's single writer, which appends them to the
//! one canonical journal before recording them. Mid-run the journal holds
//! points in completion order; the final rewrite puts it back into
//! canonical unit order — so the final report and the final journal are
//! **byte-identical for any thread count**, including under kill-and-resume
//! (a killed run resumes at any `N`) and fault injection (all
//! fault-injection sites live in training, which fits on the caller's
//! thread alone while a fault plan is installed). See DESIGN.md §10 for
//! the full determinism argument. Every campaign runs through this one
//! file-backed driver: [`run_journaled`] and [`advance_journaled`] are
//! its one-thread cases.
//!
//! # Fan-out
//!
//! This module is the workspace's one home of concurrency (lint rule
//! D012), so it also holds `fan_out`, which runs independent ranks on up
//! to [`threads_from_env`] workers, the calling thread and scoped
//! threads spawned for the call, which take ranks from one shared
//! counter. It fits a predictor's coefficient networks
//! ([`WaveletNeuralPredictor::train_resilient`]), simulates the design
//! points of a trace collection ([`crate::collect_domain_traces`] and
//! its siblings) and predicts the test points of
//! [`score_model`]. Results, the first error or panic and traced events
//! come back in rank order, so models, traces, scores and event streams
//! are the same at any worker count.
//!
//! # Examples
//!
//! ```no_run
//! use dynawave_core::campaign::{run_journaled, CampaignSpec};
//! use dynawave_core::experiment::ExperimentConfig;
//! use dynawave_core::{report, Metric};
//! use dynawave_workloads::Benchmark;
//!
//! let spec = CampaignSpec::single(Benchmark::Gcc, Metric::Cpi, ExperimentConfig::default());
//! // Re-running after a kill resumes from the journal instead of
//! // re-simulating completed units.
//! let evals = run_journaled(&spec, std::path::Path::new("gcc_cpi.journal"))?;
//! let doc = report::full_report("gcc / cpi campaign", &evals);
//! # Ok::<(), dynawave_core::campaign::CampaignError>(())
//! ```

use crate::dataset::{front_end_outcomes, simulate_metrics, Metric, TraceSet};
use crate::experiment::{score_model, BenchmarkEvaluation, EnvConfigError, ExperimentConfig};
use crate::journal::{self, Appender, HeaderError};
use crate::predictor::WaveletNeuralPredictor;
use dynawave_neural::ModelError;
use dynawave_numeric::fault;
use dynawave_sampling::DesignPoint;
use dynawave_sim::{FrontEndOutcomes, SimOptions};
use dynawave_workloads::{Benchmark, Instruction};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::error::Error;
use std::fmt::{self, Write as _};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};

/// Format tag on the first line of every campaign journal.
const MAGIC: &str = dynawave_obs::schema::CAMPAIGN_JOURNAL;

/// Whether a design point belongs to the training or the test design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UnitRole {
    /// Point from the LHS training design.
    Train,
    /// Point from the independent random test design.
    Test,
}

impl UnitRole {
    /// Stable lowercase name used in journal lines.
    pub fn name(self) -> &'static str {
        match self {
            UnitRole::Train => "train",
            UnitRole::Test => "test",
        }
    }

    /// Inverse of [`UnitRole::name`].
    pub fn parse(name: &str) -> Option<UnitRole> {
        match name {
            "train" => Some(UnitRole::Train),
            "test" => Some(UnitRole::Test),
            _ => None,
        }
    }
}

/// The atomic unit of journaled campaign progress: one metric's dynamics
/// trace at one design point. A campaign simulates each design point once
/// and derives every metric's unit from that one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkUnit {
    /// Benchmark to simulate.
    pub benchmark: Benchmark,
    /// Metric to extract from the run.
    pub metric: Metric,
    /// Which design the point belongs to.
    pub role: UnitRole,
    /// Index of the point within its design.
    pub point_index: usize,
}

impl WorkUnit {
    /// The unit's stable journal key, e.g. `gcc cpi train 17`.
    pub fn key(&self) -> String {
        format!(
            "{} {} {} {}",
            self.benchmark.name(),
            self.metric.name(),
            self.role.name(),
            self.point_index
        )
    }

    /// Inverse of [`WorkUnit::key`] over a key's whitespace-separated
    /// fields; `None` when one does not parse.
    fn parse<'a>(fields: &mut impl Iterator<Item = &'a str>) -> Option<WorkUnit> {
        Some(WorkUnit {
            benchmark: Benchmark::from_name(fields.next()?)?,
            metric: Metric::parse(fields.next()?)?,
            role: UnitRole::parse(fields.next()?)?,
            point_index: fields.next()?.parse().ok()?,
        })
    }
}

/// What a campaign runs: which `(benchmark, metric)` pairs, at what scale.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Benchmarks to evaluate, in order.
    pub benchmarks: Vec<Benchmark>,
    /// Metrics to evaluate per benchmark, in order.
    pub metrics: Vec<Metric>,
    /// Scale, seeds and predictor hyper-parameters.
    pub config: ExperimentConfig,
}

impl CampaignSpec {
    /// A one-pair campaign.
    pub fn single(benchmark: Benchmark, metric: Metric, config: ExperimentConfig) -> Self {
        CampaignSpec {
            benchmarks: vec![benchmark],
            metrics: vec![metric],
            config,
        }
    }

    /// A deterministic fingerprint of every spec field. Journals record it
    /// so a resume under a different configuration is rejected instead of
    /// silently mixing incompatible traces.
    pub fn fingerprint(&self) -> u64 {
        let names: Vec<&str> = self.benchmarks.iter().map(|b| b.name()).collect();
        let metrics: Vec<&str> = self.metrics.iter().map(|m| m.name()).collect();
        journal::fnv1a64(&format!("{names:?}|{metrics:?}|{:?}", self.config))
    }

    /// Total number of work units in this campaign.
    pub fn unit_count(&self) -> usize {
        self.benchmarks.len()
            * self.metrics.len()
            * (self.config.train_points + self.config.test_points)
    }
}

/// Errors raised while journaling or resuming a campaign.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CampaignError {
    /// The journal does not start with the expected magic line.
    BadMagic,
    /// A structural journal line was missing or malformed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was expected there.
        expected: &'static str,
    },
    /// The journal was written under a different campaign spec.
    SpecMismatch {
        /// Fingerprint of the spec being resumed.
        expected: u64,
        /// Fingerprint recorded in the journal.
        found: u64,
    },
    /// A journaled trace value was NaN or infinite.
    NonFinite {
        /// 1-based line number.
        line: usize,
    },
    /// A unit line names a benchmark/metric/point outside this campaign.
    UnknownUnit {
        /// 1-based line number.
        line: usize,
    },
    /// A journaled trace has the wrong number of samples.
    BadTraceLength {
        /// 1-based line number.
        line: usize,
        /// Samples the spec requires.
        expected: usize,
        /// Samples found on the line.
        got: usize,
    },
    /// The campaign still has pending units.
    Incomplete {
        /// Units not yet simulated.
        remaining: usize,
    },
    /// A worker thread died (panicked) mid-campaign.
    Worker {
        /// Which shard's worker failed.
        shard: usize,
        /// The panic payload, best-effort stringified.
        message: String,
    },
    /// Model training failed (possible only under a restrictive
    /// [`crate::RecoveryPolicy`]).
    Model(ModelError),
    /// A journal file operation failed.
    Io(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::BadMagic => write!(f, "not a dynawave campaign journal"),
            CampaignError::Malformed { line, expected } => {
                write!(f, "malformed journal at line {line}: expected {expected}")
            }
            CampaignError::SpecMismatch { expected, found } => write!(
                f,
                "journal belongs to a different campaign: \
                 spec fingerprint {expected:016x}, journal has {found:016x}"
            ),
            CampaignError::NonFinite { line } => {
                write!(f, "non-finite trace value in journal at line {line}")
            }
            CampaignError::UnknownUnit { line } => {
                write!(f, "journal line {line} names a unit outside this campaign")
            }
            CampaignError::BadTraceLength {
                line,
                expected,
                got,
            } => write!(
                f,
                "journal line {line}: trace has {got} samples, spec requires {expected}"
            ),
            CampaignError::Incomplete { remaining } => {
                write!(f, "campaign has {remaining} pending units")
            }
            CampaignError::Worker { shard, message } => {
                write!(f, "campaign worker for shard {shard} failed: {message}")
            }
            CampaignError::Model(e) => write!(f, "model training failed: {e}"),
            CampaignError::Io(msg) => write!(f, "journal I/O failed: {msg}"),
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for CampaignError {
    fn from(e: ModelError) -> Self {
        CampaignError::Model(e)
    }
}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e.to_string())
    }
}

/// A campaign's state: which [`WorkUnit`]s are complete and their traces,
/// so an interrupted campaign resumes exactly where it stopped.
///
/// Design points are numbered benchmark by benchmark, training design
/// first. Units keep their canonical order — benchmark, metric, role,
/// point index — in which the journal and the report list them.
///
/// [`CampaignRunner::resume`] rebuilds the state from journal text,
/// whatever order its unit lines are in, [`CampaignRunner::journal`]
/// writes it back in canonical order and [`CampaignRunner::finish`]
/// scores it. Its design points run only through the file-backed driver
/// behind [`run_journaled_parallel`] and [`advance_journaled`].
#[derive(Debug, Clone)]
pub struct CampaignRunner {
    spec: CampaignSpec,
    /// Completed canonical unit index → simulated trace.
    completed: BTreeMap<usize, Vec<f64>>,
    train_design: Vec<DesignPoint>,
    test_design: Vec<DesignPoint>,
}

/// The instruction stream of the benchmark a worker is on, with its
/// front-end outcomes. Design points are numbered benchmark by
/// benchmark, so a worker generates each benchmark's stream once, when
/// it reaches that benchmark's first pending point, replays it into
/// every later point of the benchmark, and drops it before generating
/// the next benchmark's: one stream per worker at most
/// (`25 B × samples × interval_instructions`).
#[derive(Default)]
struct BenchmarkStream {
    held: Option<(Benchmark, Vec<Instruction>, FrontEndOutcomes)>,
}

impl BenchmarkStream {
    /// `benchmark`'s stream under `opts` and its front-end outcomes,
    /// generated unless they are the ones already held.
    fn of(
        &mut self,
        benchmark: Benchmark,
        opts: &SimOptions,
    ) -> (&[Instruction], &FrontEndOutcomes) {
        let held = match self.held.take() {
            Some(held) if held.0 == benchmark => held,
            stale => {
                // Free the held stream first, so only one is ever allocated.
                drop(stale);
                let instructions = opts.stream(benchmark);
                let outcomes = front_end_outcomes(&instructions);
                (benchmark, instructions, outcomes)
            }
        };
        let (_, instructions, outcomes) = self.held.insert(held);
        (instructions, outcomes)
    }
}

impl fmt::Debug for BenchmarkStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BenchmarkStream")
            .field("benchmark", &self.held.as_ref().map(|h| h.0))
            .field("instructions", &self.held.as_ref().map_or(0, |h| h.1.len()))
            .finish()
    }
}

impl CampaignRunner {
    /// Starts a fresh campaign with every unit pending.
    pub fn new(spec: CampaignSpec) -> Self {
        let train_design = spec.config.train_design();
        let test_design = spec.config.test_design();
        CampaignRunner {
            spec,
            completed: BTreeMap::new(),
            train_design,
            test_design,
        }
    }

    /// Rebuilds a runner from journal text written by a previous
    /// (possibly killed) run.
    ///
    /// A trailing line without a terminating newline is treated as the
    /// partial write of a killed process and dropped; every
    /// newline-terminated line must parse cleanly.
    ///
    /// # Errors
    ///
    /// [`CampaignError::BadMagic`] / [`CampaignError::Malformed`] for a
    /// broken header, [`CampaignError::SpecMismatch`] if the journal was
    /// written under a different spec, and per-line errors for corrupt
    /// unit records (non-finite values, wrong trace length, unknown
    /// units).
    pub fn resume(spec: CampaignSpec, journal: &str) -> Result<Self, CampaignError> {
        let mut runner = CampaignRunner::new(spec);
        for (i, l) in runner.verify(journal)? {
            runner.ingest_unit_line(i + 1, l)?;
        }
        if dynawave_obs::is_enabled() && !runner.completed.is_empty() {
            dynawave_obs::marker_with_detail(
                "campaign.resumed_from",
                &format!("{} completed unit(s)", runner.completed.len()),
            );
            dynawave_obs::counter_add("campaign.units_resumed", runner.completed.len() as u64);
        }
        Ok(runner)
    }

    /// Validates the journal header (magic + fingerprint) and returns the
    /// complete body lines with their 0-based line indices.
    fn verify<'a>(
        &self,
        text: &'a str,
    ) -> Result<impl Iterator<Item = (usize, &'a str)>, CampaignError> {
        let expected = self.spec.fingerprint();
        match journal::verify(text, MAGIC, expected) {
            Ok(verified) => Ok(verified.lines),
            Err(HeaderError::Empty) => Err(CampaignError::Malformed {
                line: 1,
                expected: "magic header",
            }),
            Err(HeaderError::BadMagic) => Err(CampaignError::BadMagic),
            Err(HeaderError::BadFingerprint) => Err(CampaignError::Malformed {
                line: 2,
                expected: "fingerprint <hex>",
            }),
            Err(HeaderError::Mismatch(found)) => {
                Err(CampaignError::SpecMismatch { expected, found })
            }
        }
    }

    /// Parses one `unit ...` journal body line (1-based `line` for error
    /// reporting) and records its trace as completed.
    fn ingest_unit_line(&mut self, line: usize, l: &str) -> Result<(), CampaignError> {
        if l.trim().is_empty() {
            return Ok(());
        }
        let mut parts = l.split_whitespace();
        if parts.next() != Some("unit") {
            return Err(CampaignError::Malformed {
                line,
                expected: "unit <benchmark> <metric> <train|test> <index> <samples...>",
            });
        }
        let (point, metric) = WorkUnit::parse(&mut parts)
            .and_then(|unit| self.locate(&unit))
            .ok_or(CampaignError::UnknownUnit { line })?;
        let mut trace = Vec::with_capacity(self.spec.config.samples);
        for p in parts {
            let v: f64 = p.parse().map_err(|_| CampaignError::Malformed {
                line,
                expected: "floating-point trace sample",
            })?;
            if !v.is_finite() {
                return Err(CampaignError::NonFinite { line });
            }
            trace.push(v);
        }
        if trace.len() != self.spec.config.samples {
            return Err(CampaignError::BadTraceLength {
                line,
                expected: self.spec.config.samples,
                got: trace.len(),
            });
        }
        self.completed.insert(self.unit_index(point, metric), trace);
        Ok(())
    }

    /// The campaign spec this runner executes.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Number of completed units.
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }

    /// Number of still-pending units.
    pub fn remaining(&self) -> usize {
        self.spec.unit_count() - self.completed.len()
    }

    /// `true` when every unit has a trace.
    pub fn is_complete(&self) -> bool {
        self.remaining() == 0
    }

    /// Design points per benchmark: the training design, then the test
    /// design.
    fn points_per_benchmark(&self) -> usize {
        self.spec.config.train_points + self.spec.config.test_points
    }

    /// Number of design points across all benchmarks.
    fn point_count(&self) -> usize {
        self.spec.benchmarks.len() * self.points_per_benchmark()
    }

    /// Benchmark, role and index within its design of design point
    /// `point`.
    fn point(&self, point: usize) -> (Benchmark, UnitRole, usize) {
        let per = self.points_per_benchmark();
        let train = self.spec.config.train_points;
        let (role, index) = match point % per {
            i if i < train => (UnitRole::Train, i),
            i => (UnitRole::Test, i - train),
        };
        (self.spec.benchmarks[point / per], role, index)
    }

    /// Canonical index of the unit for `spec.metrics[metric]` at design
    /// point `point`.
    fn unit_index(&self, point: usize, metric: usize) -> usize {
        let per = self.points_per_benchmark();
        (point / per * self.spec.metrics.len() + metric) * per + point % per
    }

    /// The unit at canonical index `index` and its design point: the
    /// inverse of [`CampaignRunner::unit_index`].
    fn unit(&self, index: usize) -> (usize, WorkUnit) {
        let (per, metrics) = (self.points_per_benchmark(), self.spec.metrics.len());
        let point = index / (per * metrics) * per + index % per;
        let (benchmark, role, point_index) = self.point(point);
        let metric = self.spec.metrics[index / per % metrics];
        let unit = WorkUnit {
            benchmark,
            metric,
            role,
            point_index,
        };
        (point, unit)
    }

    /// `(design point, metric position)` of `unit`, or `None` when it lies
    /// outside this campaign.
    fn locate(&self, unit: &WorkUnit) -> Option<(usize, usize)> {
        let spec = &self.spec;
        let benchmark = spec.benchmarks.iter().position(|&b| b == unit.benchmark)?;
        let metric = spec.metrics.iter().position(|&m| m == unit.metric)?;
        let (train, test) = (spec.config.train_points, spec.config.test_points);
        let offset = match unit.role {
            UnitRole::Train if unit.point_index < train => 0,
            UnitRole::Test if unit.point_index < test => train,
            _ => return None,
        };
        let point = benchmark * self.points_per_benchmark() + offset + unit.point_index;
        Some((point, metric))
    }

    /// `true` while any metric's unit at design point `point` is pending.
    fn is_pending(&self, point: usize) -> bool {
        (0..self.spec.metrics.len())
            .any(|metric| !self.completed.contains_key(&self.unit_index(point, metric)))
    }

    /// The one executor body: simulates design point `point` once,
    /// replaying its benchmark's instruction stream from `stream`, and
    /// derives the trace of every metric still pending there. Returns the
    /// `(canonical unit index, trace)` pairs and their newline-terminated
    /// journal lines, in metric order. Records nothing, so worker threads
    /// can share the runner, each with its own `stream`; the journal's
    /// writer appends the lines in one write and then records the traces.
    fn run_point(&self, point: usize, stream: &mut BenchmarkStream) -> PointRun {
        let (benchmark, role, point_index) = self.point(point);
        let design = match role {
            UnitRole::Train => &self.train_design[point_index],
            UnitRole::Test => &self.test_design[point_index],
        };
        let (indices, metrics): (Vec<usize>, Vec<Metric>) = (self.spec.metrics.iter().enumerate())
            .map(|(m, &metric)| (self.unit_index(point, m), metric))
            .filter(|(i, _)| !self.completed.contains_key(i))
            .unzip();
        let opts = self.spec.config.sim_options();
        let (instructions, outcomes) = stream.of(benchmark, &opts);
        let traces = simulate_metrics(instructions, outcomes, design, &metrics, &opts);
        let mut lines = String::new();
        for (metric, trace) in metrics.into_iter().zip(&traces) {
            let unit = WorkUnit {
                benchmark,
                metric,
                role,
                point_index,
            };
            lines.push_str(&journal_line(&unit, trace));
            observe_unit_done(&unit);
        }
        (indices.into_iter().zip(traces).collect(), lines)
    }

    /// The first design point of shard `shard` of `shards` at or after
    /// `from` that has pending units; `None` when there is none or the
    /// shard index is out of range. Design point `p` belongs to shard
    /// `p % shards`.
    fn next_pending(&self, shard: usize, shards: usize, from: usize) -> Option<usize> {
        if shard >= shards {
            return None;
        }
        (from..self.point_count()).find(|&p| p % shards == shard && self.is_pending(p))
    }

    /// The full journal text for the current state: header plus one line
    /// per completed unit, in canonical order. Writing this to disk
    /// produces a journal that [`CampaignRunner::resume`] accepts and
    /// that is free of any partial tail.
    pub fn journal(&self) -> String {
        let mut out = journal::header(MAGIC, self.spec.fingerprint());
        for (&i, trace) in &self.completed {
            out.push_str(&journal_line(&self.unit(i).1, trace));
        }
        out
    }

    /// Trains, predicts and scores every `(benchmark, metric)` pair from
    /// the completed traces, using the spec's recovery policy (see
    /// [`ExperimentConfig::recovery`]).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Incomplete`] while units are pending;
    /// [`CampaignError::Model`] if training fails outright (possible only
    /// under a restrictive recovery policy).
    pub fn finish(&self) -> Result<Vec<BenchmarkEvaluation>, CampaignError> {
        let _span = dynawave_obs::span("campaign.finish");
        if !self.is_complete() {
            return Err(CampaignError::Incomplete {
                remaining: self.remaining(),
            });
        }
        let cfg = &self.spec.config;
        let per = self.points_per_benchmark();
        let mut evals = Vec::new();
        for (b, &benchmark) in self.spec.benchmarks.iter().enumerate() {
            for (m, &metric) in self.spec.metrics.iter().enumerate() {
                // A pair's units are contiguous in canonical order: its
                // training traces, then its test traces.
                let first = self.unit_index(b * per, m);
                let gather = |units: std::ops::Range<usize>| -> Vec<Vec<f64>> {
                    units
                        .filter_map(|i| self.completed.get(&i).cloned())
                        .collect()
                };
                let train = TraceSet {
                    benchmark,
                    metric,
                    points: self.train_design.clone(),
                    traces: gather(first..first + cfg.train_points),
                };
                let (model, degradation) = match WaveletNeuralPredictor::train_resilient(
                    &train,
                    &cfg.predictor,
                    &cfg.recovery,
                ) {
                    Ok(trained) => trained,
                    Err(e) => {
                        dynawave_obs::counter_add("campaign.units_failed", 1);
                        return Err(e.into());
                    }
                };
                let test = TraceSet {
                    benchmark,
                    metric,
                    points: self.test_design.clone(),
                    traces: gather(first + cfg.train_points..first + per),
                };
                let mut eval = score_model(benchmark, metric, model, test);
                eval.degradation = degradation;
                evals.push(eval);
            }
        }
        Ok(evals)
    }
}

/// Bucket bounds for the `campaign.unit_latency` histogram: per-unit
/// tick deltas between heartbeats. On the deterministic tick clock a
/// unit costs single-digit ticks today; the doubling tail leaves room
/// for more heavily instrumented stages without re-bucketing committed
/// streams (histogram merges require identical bounds).
const UNIT_LATENCY_BOUNDS: [f64; 6] = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Per-unit completion heartbeat: a killed campaign's stream shows
/// exactly how far it got, and the unit key in the marker detail is what
/// the traced-stream merge sorts worker segments by. The tick delta since the
/// previous heartbeat lands in the `campaign.unit_latency` histogram, so
/// `obs_report` gets a latency distribution without re-deriving it from
/// raw spans. A point's simulation lands in the delta of its first
/// pending unit; its other units' deltas cover their heartbeat alone.
/// Deltas count recorder activity per point, which is identical for
/// every worker split of the same point set — histograms with matching
/// bounds sum across workers at merge time.
fn observe_unit_done(unit: &WorkUnit) {
    if dynawave_obs::is_enabled() {
        dynawave_obs::marker_latency(
            "campaign.heartbeat",
            &unit.key(),
            "campaign.unit_latency",
            &UNIT_LATENCY_BOUNDS,
        );
        dynawave_obs::counter_add("campaign.units_done", 1);
    }
}

/// Worker count for parallel campaigns and for a predictor's coefficient
/// fits: `DYNAWAVE_THREADS` when set, the machine's available
/// parallelism otherwise. Deliberately *not* part of [`ExperimentConfig`]
/// — the journal fingerprint covers the config, and the whole point of
/// the deterministic merge is that the same journal serves any thread
/// count.
///
/// # Errors
///
/// [`EnvConfigError`] when `DYNAWAVE_THREADS` is set but is not a
/// positive integer.
pub fn threads_from_env() -> Result<usize, EnvConfigError> {
    // dynalint:allow(D004) -- documented, explicit config entry point (mirrors ExperimentConfig::from_env)
    match std::env::var("DYNAWAVE_THREADS") {
        Ok(value) => match value.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(EnvConfigError {
                name: "DYNAWAVE_THREADS",
                value,
                expected: "a positive worker count",
            }),
        },
        // dynalint:allow(D004) -- capacity probe at the documented entry point; affects wall-clock only, never report bytes
        Err(_) => Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)),
    }
}

/// Formats one completed unit as its journal line (newline-terminated).
/// Floats use Rust's shortest round-trip representation, which is what
/// makes a resumed campaign bit-identical to an uninterrupted one.
fn journal_line(unit: &WorkUnit, trace: &[f64]) -> String {
    let mut line = String::from("unit ");
    line.push_str(&unit.key());
    for v in trace {
        // Writing into a String cannot fail.
        let _ = write!(line, " {v}");
    }
    line.push('\n');
    line
}

/// Opens (or creates) the journal at `path` and runs at most
/// `max_points` design points with pending units on one worker, appending
/// each point's lines to the journal before moving on. Returns the total
/// number of completed units afterwards. The journal is first rewritten
/// from the parsed state (see [`run_journaled_parallel`]), dropping a
/// torn tail.
///
/// # Errors
///
/// As [`run_journaled_parallel`].
pub fn advance_journaled(
    spec: &CampaignSpec,
    path: &Path,
    max_points: usize,
) -> Result<usize, CampaignError> {
    Ok(drive(spec, path, 1, max_points)?.completed_count())
}

/// Runs a campaign to completion against the journal at `path` — creating
/// it, resuming it, or simply finishing from it — and returns the scored
/// evaluations: the one-thread case of [`run_journaled_parallel`].
///
/// # Errors
///
/// As [`run_journaled_parallel`].
pub fn run_journaled(
    spec: &CampaignSpec,
    path: &Path,
) -> Result<Vec<BenchmarkEvaluation>, CampaignError> {
    run_journaled_parallel(spec, path, 1)
}

/// Runs a campaign to completion against the journal at `path` — creating
/// it, resuming it, or simply finishing from it — across up to `threads`
/// worker threads, and returns the scored evaluations. The journal is the
/// only file the campaign writes: workers hand each finished point to the
/// calling thread, which appends its lines there, and the completed
/// journal is rewritten in canonical order. The returned evaluations, the
/// final report, and the final journal bytes are identical for every
/// thread count; with tracing enabled, each worker records to its own
/// recorder and the streams merge deterministically in design-point order
/// (see [`dynawave_obs::absorb_workers`]).
///
/// A killed run resumes by calling this again with the same spec and
/// path, at any thread count, to a byte-identical report. A kill loses
/// at most the points the workers had in flight.
///
/// # Errors
///
/// Journal parse errors, I/O failures (the OS refusing a worker thread
/// included), model-training failures under restrictive recovery
/// policies and [`CampaignError::Worker`] when a worker thread panics.
pub fn run_journaled_parallel(
    spec: &CampaignSpec,
    path: &Path,
    threads: usize,
) -> Result<Vec<BenchmarkEvaluation>, CampaignError> {
    let _span = dynawave_obs::span("campaign.run");
    let runner = drive(spec, path, threads, usize::MAX)?;
    journal::rewrite(path, &runner.journal())?;
    runner.finish()
}

/// A finished design point: its `(canonical unit index, trace)` pairs and
/// their journal lines, as [`CampaignRunner::run_point`] returns them.
type PointRun = (Vec<(usize, Vec<f64>)>, String);

/// The one file-backed driver. Loads the campaign from the journal at
/// `path` (or starts it), rewrites the journal from the parsed state, then
/// runs at most `budget` pending design points per shard across
/// `min(threads, pending points)` workers, at least one. The calling
/// thread is the journal's single writer: it appends each point's lines
/// in one write, then records its traces, so the journal stays ahead of
/// the recorded state.
fn drive(
    spec: &CampaignSpec,
    path: &Path,
    threads: usize,
    budget: usize,
) -> Result<CampaignRunner, CampaignError> {
    let mut runner = match std::fs::read_to_string(path) {
        Ok(text) => CampaignRunner::resume(spec.clone(), &text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => CampaignRunner::new(spec.clone()),
        Err(e) => return Err(e.into()),
    };
    journal::rewrite(path, &runner.journal())?;
    let mut appender = Appender::open(path)?;
    let pending = (0..runner.point_count())
        .filter(|&p| runner.is_pending(p))
        .count();
    let shards = threads.min(pending).max(1);
    let traced = dynawave_obs::is_enabled();
    let shared = &runner;
    let mut recorded = Vec::new();
    let (io, joined) = std::thread::scope(|scope| {
        let (tx, rx) = sync_channel::<PointRun>(shards);
        let mut handles = Vec::new();
        let mut io = Ok(());
        for shard in 0..shards {
            let tx = tx.clone();
            let worker = move || run_shard(shared, shard, shards, budget, tx, traced);
            match std::thread::Builder::new().spawn_scoped(scope, worker) {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    io = Err(e);
                    break;
                }
            }
        }
        drop(tx);
        if io.is_ok() {
            for (traces, lines) in &rx {
                io = appender.append(&lines);
                if io.is_err() {
                    break;
                }
                recorded.extend(traces);
            }
        }
        // Hanging up stops any worker still sending.
        drop(rx);
        let joined: Vec<_> = (handles.into_iter().enumerate())
            .map(|(shard, handle)| {
                handle.join().map_err(|payload| CampaignError::Worker {
                    shard,
                    message: panic_message(payload.as_ref()),
                })
            })
            .collect();
        (io, joined)
    });
    io?;
    let mut recorders = Vec::new();
    for recorder in joined {
        recorders.extend(recorder?);
    }
    runner.completed.extend(recorded);
    if traced {
        // Sort worker event segments by (design point, metric) — the
        // order one worker runs them in — so the merged stream is
        // byte-identical for any thread count.
        let metrics = runner.spec.metrics.len() as u64;
        dynawave_obs::absorb_workers(recorders, "campaign.heartbeat", |detail| {
            WorkUnit::parse(&mut detail.split_whitespace())
                .and_then(|unit| runner.locate(&unit))
                .map_or(u64::MAX, |(point, metric)| {
                    point as u64 * metrics + metric as u64
                })
        });
    }
    Ok(runner)
}

/// One worker: runs at most `budget` of shard `shard` of `shards`'s
/// pending design points, in order, sending each finished point to the
/// journal's writer; stops early when the writer hangs up. It holds the
/// instruction stream of the benchmark it is on ([`BenchmarkStream`]). A
/// `traced` worker records to its own recorder and hands it back.
fn run_shard(
    runner: &CampaignRunner,
    shard: usize,
    shards: usize,
    budget: usize,
    tx: SyncSender<PointRun>,
    traced: bool,
) -> Option<dynawave_obs::Recorder> {
    if traced {
        dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
    }
    let mut stream = BenchmarkStream::default();
    let mut from = 0;
    for _ in 0..budget {
        let Some(point) = runner.next_pending(shard, shards, from) else {
            break;
        };
        if tx.send(runner.run_point(point, &mut stream)).is_err() {
            break;
        }
        from = point + 1;
    }
    if traced {
        dynawave_obs::take()
    } else {
        None
    }
}

/// Worker count for a [`fan_out`] from the calling thread: up to
/// [`threads_from_env`] (one when `DYNAWAVE_THREADS` is invalid), and
/// one while a [`fault`] plan is installed, because a plan is a
/// per-thread RNG consulted in call order.
pub(crate) fn fan_out_workers() -> usize {
    if fault::active() {
        1
    } else {
        threads_from_env().unwrap_or(1)
    }
}

/// Runs `task` on every rank in `0..count` across up to `workers`
/// workers and returns the results in rank order: the fan-out behind
/// trace collection, test-point scoring and
/// [`WaveletNeuralPredictor::train_resilient`]. The calling thread is
/// worker 0; the others are at most `count - 1` scoped threads spawned
/// for this call. Workers take ranks from one shared counter, so a slow
/// rank holds up only its own worker. A spawn the OS refuses leaves the
/// remaining ranks to the workers already running.
///
/// A rank fails when its task returns an error or panics. Once a rank
/// fails no higher rank starts, and the lowest failing rank decides the
/// outcome: `Ok(Err(e))` for its error, `Err(payload)` for its panic.
/// That is what a loop over the ranks in order returns, a panic caught
/// at the loop. With tracing on, each rank records to a recorder of its
/// own, and the calling thread appends the ranks' events in rank order
/// ([`dynawave_obs::append_segment`]), so the stream is the one-worker
/// stream for every worker count: up to the failing rank after an error,
/// none of the call's events after a panic.
pub(crate) fn fan_out<T: Send, E: Send>(
    count: usize,
    workers: usize,
    task: impl Fn(usize) -> Result<T, E> + Sync,
) -> std::thread::Result<Result<Vec<T>, E>> {
    fan_out_on(std::thread::Builder::new, count, workers, task)
}

/// [`fan_out`] of a task that cannot fail over `items`: rank `r` maps
/// item `r`. Returns the mapped items in order, or resumes the lowest
/// panicking rank's panic on the calling thread.
pub(crate) fn fan_out_map<I: Sync, T: Send>(
    items: &[I],
    workers: usize,
    task: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let mapped = fan_out(items.len(), workers, |rank| {
        Ok::<_, Infallible>(items.get(rank).map(&task))
    });
    match mapped {
        // Every rank is below `items.len()`, so no entry is `None`.
        Ok(Ok(results)) => results.into_iter().flatten().collect(),
        Ok(Err(never)) => match never {},
        Err(payload) => resume_unwind(payload),
    }
}

/// [`fan_out`], spawning its threads from `builder`'s builders.
fn fan_out_on<T: Send, E: Send>(
    builder: impl Fn() -> std::thread::Builder,
    count: usize,
    workers: usize,
    task: impl Fn(usize) -> Result<T, E> + Sync,
) -> std::thread::Result<Result<Vec<T>, E>> {
    // Worker 0 records its ranks apart too; the caller's recorder waits.
    let outer = dynawave_obs::take();
    let traced = outer.is_some();
    // Both counters publish no data (results come back through the joins),
    // so relaxed ordering suffices.
    let next = AtomicUsize::new(0);
    let lowest_failed = AtomicUsize::new(usize::MAX);
    let work = || {
        let mut done = Vec::new();
        loop {
            let rank = next.fetch_add(1, Ordering::Relaxed);
            if rank >= count || rank > lowest_failed.load(Ordering::Relaxed) {
                return done;
            }
            if traced {
                dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
            }
            let result = catch_unwind(AssertUnwindSafe(|| task(rank)));
            if !matches!(result, Ok(Ok(_))) {
                lowest_failed.fetch_min(rank, Ordering::Relaxed);
            }
            done.push((rank, result, dynawave_obs::take()));
        }
    };
    let mut ranked = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (1..workers.min(count))
            .map_while(|_| builder().spawn_scoped(scope, work).ok())
            .collect();
        let mut ranked = work();
        for handle in handles {
            // Every task runs under `catch_unwind`, so a worker panics
            // only if the recorder hand-off itself does.
            ranked.extend(
                handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload)),
            );
        }
        ranked
    });
    if let Some(outer) = outer {
        dynawave_obs::install(outer);
    }
    ranked.sort_by_key(|&(rank, ..)| rank);
    let mut results = Vec::with_capacity(ranked.len());
    let mut segments = Vec::with_capacity(ranked.len());
    let mut error = None;
    for (_, result, segment) in ranked {
        segments.extend(segment);
        match result {
            Ok(Ok(value)) => results.push(value),
            Ok(Err(e)) => {
                error = Some(e);
                break;
            }
            // The call's events are dropped with the panic.
            Err(payload) => return Err(payload),
        }
    }
    segments.into_iter().for_each(dynawave_obs::append_segment);
    Ok(error.map_or(Ok(results), Err))
}

/// Best-effort stringification of a worker panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("worker panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::single(
            Benchmark::Eon,
            Metric::Cpi,
            ExperimentConfig {
                train_points: 12,
                test_points: 4,
                samples: 16,
                interval_instructions: 400,
                seed: 21,
                ..ExperimentConfig::default()
            },
        )
    }

    /// The final journal and evaluations of one uninterrupted
    /// [`run_journaled`] run of `spec`.
    fn completed_run(spec: &CampaignSpec, tag: &str) -> (String, Vec<BenchmarkEvaluation>) {
        let path = std::env::temp_dir().join(format!(
            "dynawave-campaign-{}-{tag}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let evals = run_journaled(spec, &path).unwrap();
        let journal = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        (journal, evals)
    }

    /// A journal's two header lines and its first `units` unit lines.
    fn journal_prefix(journal: &str, units: usize) -> String {
        journal.split_inclusive('\n').take(2 + units).collect()
    }

    #[test]
    fn fresh_campaign_enumerates_units_in_order() {
        let spec = tiny_spec();
        let runner = CampaignRunner::new(spec.clone());
        assert_eq!(spec.unit_count(), 16);
        assert_eq!(runner.unit(0).1.role, UnitRole::Train);
        assert_eq!(runner.unit(12).1.role, UnitRole::Test);
        assert_eq!(runner.unit(3).1.key(), "eon cpi train 3");
        assert_eq!(runner.remaining(), 16);
        assert!(!runner.is_complete());
    }

    #[test]
    fn point_and_unit_numberings_are_inverse() {
        let mut spec = tiny_spec();
        spec.benchmarks.push(Benchmark::Mcf);
        spec.metrics.extend([Metric::Power, Metric::Avf]);
        let runner = CampaignRunner::new(spec.clone());
        assert_eq!(runner.point_count(), 32);
        let mut seen = vec![false; spec.unit_count()];
        for point in 0..runner.point_count() {
            for metric in 0..spec.metrics.len() {
                let index = runner.unit_index(point, metric);
                assert!(!std::mem::replace(&mut seen[index], true), "{index} twice");
                let (of, unit) = runner.unit(index);
                assert_eq!(of, point);
                assert_eq!(runner.locate(&unit), Some((point, metric)));
                let key = unit.key();
                assert_eq!(WorkUnit::parse(&mut key.split_whitespace()), Some(unit));
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Canonical order: benchmark, metric, role, point index.
        assert_eq!(runner.unit(16).1.key(), "eon power train 0");
        assert_eq!(runner.unit(60).1.key(), "mcf cpi test 0");
        let outside = WorkUnit {
            point_index: 4,
            ..runner.unit(12).1
        };
        assert_eq!(runner.locate(&outside), None);
    }

    #[test]
    fn run_to_completion_and_finish() {
        let spec = tiny_spec();
        let (journal, evals) = completed_run(&spec, "finish");
        assert_eq!(journal.lines().count(), 2 + 16);
        let runner = CampaignRunner::resume(spec, &journal).unwrap();
        assert!(runner.is_complete());
        assert_eq!(runner.journal(), journal);
        assert_eq!(evals.len(), 1);
        assert_eq!(evals[0].nmse_per_test.len(), 4);
        assert!(evals[0].degradation.is_pristine());
        assert_eq!(
            runner.finish().unwrap()[0].nmse_per_test,
            evals[0].nmse_per_test
        );
    }

    #[test]
    fn finish_before_completion_is_rejected() {
        assert!(matches!(
            CampaignRunner::new(tiny_spec()).finish(),
            Err(CampaignError::Incomplete { remaining: 16 })
        ));
    }

    #[test]
    fn journal_roundtrip_restores_progress() {
        let spec = tiny_spec();
        let partial = journal_prefix(&completed_run(&spec, "roundtrip").0, 5);
        let restored = CampaignRunner::resume(spec, &partial).unwrap();
        assert_eq!(restored.completed_count(), 5);
        assert_eq!(restored.remaining(), 11);
        assert_eq!(restored.journal(), partial);
    }

    #[test]
    fn resume_drops_partial_tail_but_rejects_corrupt_complete_lines() {
        let spec = tiny_spec();
        let journal = journal_prefix(&completed_run(&spec, "tail").0, 3);
        // A kill mid-write: the last line loses its tail (and newline).
        let cut = journal.len() - 10;
        let killed = &journal[..cut];
        let restored = CampaignRunner::resume(spec.clone(), killed).unwrap();
        assert_eq!(restored.completed_count(), 2);
        // But a *complete* line with garbage is corruption, not a kill.
        let corrupt = journal.replacen("unit eon", "unit zzz", 1);
        assert!(matches!(
            CampaignRunner::resume(spec, &corrupt),
            Err(CampaignError::UnknownUnit { .. })
        ));
    }

    #[test]
    fn resume_rejects_non_finite_and_short_traces() {
        let spec = tiny_spec();
        let journal = journal_prefix(&completed_run(&spec, "non-finite").0, 1);
        let header_len = journal.find("unit").unwrap();
        let (header, unit_line) = journal.split_at(header_len);
        // Replace the first sample with NaN.
        let mut parts: Vec<&str> = unit_line.trim_end().split(' ').collect();
        parts[6] = "NaN";
        let poisoned = format!("{header}{}\n", parts.join(" "));
        assert!(matches!(
            CampaignRunner::resume(spec.clone(), &poisoned),
            Err(CampaignError::NonFinite { .. })
        ));
        // Drop one sample: complete line, wrong length.
        parts.remove(6);
        let short = format!("{header}{}\n", parts.join(" "));
        assert!(matches!(
            CampaignRunner::resume(spec, &short),
            Err(CampaignError::BadTraceLength {
                expected: 16,
                got: 15,
                ..
            })
        ));
    }

    #[test]
    fn resume_rejects_other_specs_and_garbage() {
        let spec = tiny_spec();
        let runner = CampaignRunner::new(spec.clone());
        let other = CampaignSpec::single(
            Benchmark::Mcf,
            Metric::Power,
            ExperimentConfig {
                seed: 999,
                ..spec.config.clone()
            },
        );
        assert!(matches!(
            CampaignRunner::resume(other, &runner.journal()),
            Err(CampaignError::SpecMismatch { .. })
        ));
        assert!(matches!(
            CampaignRunner::resume(spec.clone(), "hello\nworld\n"),
            Err(CampaignError::BadMagic)
        ));
        assert!(CampaignRunner::resume(spec, "").is_err());
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_knob() {
        let spec = tiny_spec();
        let base = spec.fingerprint();
        assert_eq!(base, tiny_spec().fingerprint());
        let mut other = spec.clone();
        other.config.seed ^= 1;
        assert_ne!(base, other.fingerprint());
        let mut other = spec.clone();
        other.benchmarks.push(Benchmark::Gcc);
        assert_ne!(base, other.fingerprint());
        let mut other = spec;
        other.config.recovery.ridge_escalations += 1;
        assert_ne!(base, other.fingerprint());
    }

    #[test]
    fn journal_lines_write_shortest_round_trip_floats() {
        let unit = WorkUnit {
            benchmark: Benchmark::Gcc,
            metric: Metric::Power,
            role: UnitRole::Test,
            point_index: 17,
        };
        let trace = [
            0.1,
            1e-7,
            1.0,
            -0.0,
            123456789.125,
            1e300,
            f64::MIN_POSITIVE,
        ];
        let expected: String = trace.iter().map(|v| format!(" {v}")).collect();
        let line = journal_line(&unit, &trace);
        assert_eq!(line, format!("unit gcc power test 17{expected}\n"));
        assert!(line.starts_with("unit gcc power test 17 0.1 0.0000001 1 -0 123456789.125 "));
    }

    /// A fan-out task that fails at ranks 3 and 6 with errors naming the
    /// rank, and counts the ranks it ran.
    fn failing_at_3_and_6(
        ran: &AtomicUsize,
    ) -> impl Fn(usize) -> Result<usize, ModelError> + Sync + '_ {
        move |rank| {
            ran.fetch_add(1, Ordering::Relaxed);
            match rank {
                3 => Err(ModelError::Internal("rank 3")),
                6 => Err(ModelError::Internal("rank 6")),
                _ => Ok(rank * rank),
            }
        }
    }

    /// The message of a fan-out panic payload.
    fn payload_text(payload: Box<dyn std::any::Any + Send>) -> String {
        panic_message(payload.as_ref())
    }

    #[test]
    fn fan_out_returns_ranks_in_order_or_the_lowest_failing_rank() {
        for workers in [1, 2, 3, 8, 100] {
            let squares = fan_out(9, workers, |rank| Ok::<_, ModelError>(rank * rank));
            assert_eq!(squares.ok(), Some(Ok((0..9).map(|r| r * r).collect())));
            let ran = AtomicUsize::new(0);
            let failed = fan_out(9, workers, failing_at_3_and_6(&ran));
            assert_eq!(
                failed.ok(),
                Some(Err(ModelError::Internal("rank 3"))),
                "{workers}"
            );
        }
        // One worker stops at the first failure, as a loop over the ranks
        // in order does.
        let ran = AtomicUsize::new(0);
        assert!(matches!(
            fan_out(9, 1, failing_at_3_and_6(&ran)),
            Ok(Err(_))
        ));
        assert_eq!(ran.into_inner(), 4);
        assert_eq!(
            fan_out(0, 4, Ok::<_, ModelError>).ok(),
            Some(Ok(Vec::new()))
        );
    }

    /// A fan-out task that panics at the ranks in `panics`, fails at the
    /// ranks in `errors`, and counts the ranks it ran.
    fn failing_task<'a>(
        panics: &'a [usize],
        errors: &'a [usize],
        ran: &'a AtomicUsize,
    ) -> impl Fn(usize) -> Result<usize, ModelError> + Sync + 'a {
        move |rank| {
            ran.fetch_add(1, Ordering::Relaxed);
            if panics.contains(&rank) {
                panic!("rank {rank} panicked");
            }
            if errors.contains(&rank) {
                return Err(ModelError::Internal("a rank failed"));
            }
            Ok(rank)
        }
    }

    #[test]
    fn the_lowest_failing_rank_decides_between_an_error_and_a_panic() {
        for workers in [1, 2, 3, 8] {
            let ran = AtomicUsize::new(0);
            let out = fan_out(9, workers, failing_task(&[3, 5], &[6], &ran));
            let payload = out.err().map(payload_text);
            assert_eq!(payload.as_deref(), Some("rank 3 panicked"), "{workers}");
            let ran = AtomicUsize::new(0);
            let out = fan_out(9, workers, failing_task(&[6], &[3], &ran));
            let error = Some(Err(ModelError::Internal("a rank failed")));
            assert_eq!(out.ok(), error, "{workers}");
        }
        // One worker stops at the first panic, as a loop over the ranks
        // in order does.
        let ran = AtomicUsize::new(0);
        assert!(fan_out(9, 1, failing_task(&[3], &[], &ran)).is_err());
        assert_eq!(ran.into_inner(), 4);
    }

    #[test]
    fn a_fan_out_map_resumes_the_lowest_panic_on_the_caller() {
        let items: Vec<usize> = (0..9).collect();
        for workers in [1, 3] {
            let ran = AtomicUsize::new(0);
            let task = failing_task(&[2, 7], &[], &ran);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                fan_out_map(&items, workers, |&rank| task(rank).ok())
            }));
            let payload = caught.err().map(payload_text);
            assert_eq!(payload.as_deref(), Some("rank 2 panicked"), "{workers}");
            assert_eq!(
                fan_out_map(&items, workers, |i| i + 1),
                (1..10).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn results_follow_rank_order_not_completion_order() {
        // Ranks 0 and 1 wait for each other, so they run on different
        // workers, and each worker then holds a run of later ranks.
        for workers in [2, 3] {
            let barrier = std::sync::Barrier::new(2);
            let items: Vec<usize> = (0..9).collect();
            let ranks = fan_out_map(&items, workers, |&rank| {
                if rank < 2 {
                    barrier.wait();
                }
                rank
            });
            assert_eq!(ranks, items, "{workers}");
        }
    }

    #[test]
    fn refused_spawns_leave_the_ranks_to_the_running_workers() {
        // A 4 EiB stack cannot be mapped, so the OS refuses every spawn
        // after the first without starting a thread.
        let spawns = AtomicUsize::new(0);
        let builder = || match spawns.fetch_add(1, Ordering::Relaxed) {
            0 => std::thread::Builder::new(),
            _ => std::thread::Builder::new().stack_size(1 << 62),
        };
        let squares = fan_out_on(builder, 12, 4, |rank| Ok::<_, ModelError>(rank * rank));
        assert_eq!(squares.ok(), Some(Ok((0..12).map(|r| r * r).collect())));
        assert_eq!(spawns.into_inner(), 2, "the first refusal stops spawning");
    }

    #[test]
    fn a_panicking_rank_returns_its_payload_and_keeps_the_recorder() {
        let prior = dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
        dynawave_obs::counter_add("campaign.units_done", 1);
        for workers in [1, 4] {
            let out = fan_out(8, workers, |rank| {
                let _span = dynawave_obs::span("neural.rbf_fit");
                if rank == 5 {
                    panic!("fit {rank} panicked");
                }
                Ok::<_, ModelError>(rank)
            });
            let payload = out.err().map(payload_text);
            assert_eq!(payload.as_deref(), Some("fit 5 panicked"), "{workers}");
        }
        // The caller's recorder is back in place and holds none of the
        // aborted call's events.
        let events = dynawave_obs::drain().expect("caller's recorder restored");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "campaign.units_done");
        if let Some(prior) = prior {
            dynawave_obs::install(prior);
        }
    }

    #[test]
    fn huge_worker_counts_spawn_one_thread_per_rank_but_the_callers() {
        for count in [1, 2, 7] {
            let spawns = AtomicUsize::new(0);
            let builder = || {
                spawns.fetch_add(1, Ordering::Relaxed);
                std::thread::Builder::new()
            };
            let ranks = fan_out_on(builder, count, 100_000, Ok::<_, ModelError>);
            assert_eq!(ranks.ok(), Some(Ok((0..count).collect())));
            assert_eq!(spawns.into_inner(), count - 1);
        }
    }
}
