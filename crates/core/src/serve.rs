//! Kill-safe DSE prediction daemon: the `dynawave-serve` protocol.
//!
//! The paper's end-use is interactive design-space exploration: a trained
//! neuro-wavelet model answering "what are the dynamics of config X"
//! queries long after the simulation campaign finished. This module is
//! that serving layer, built with robustness as the headline feature:
//!
//! 1. **Total request handling.** [`ServeEngine::handle_line`] maps
//!    *every* input line — valid request, byte soup, wrong schema, wrong
//!    arity, non-finite knobs — to exactly one well-formed JSON response
//!    line. It never panics and never drops a request silently; the
//!    [`ServeError`] taxonomy turns each failure mode into a typed
//!    `error` response.
//! 2. **Deadline budgets.** Work is metered on a deterministic tick
//!    clock (1 tick per model prediction, [`ServeConfig::train_cost`]
//!    ticks per lazy model train). A request whose `deadline` budget is
//!    exhausted mid-batch gets a `partial` response carrying the
//!    completed prefix; one that cannot even start gets a typed
//!    `deadline-exceeded` error. No wall clock is consulted, so the
//!    daemon is bit-reproducible (workspace rule D004/D007).
//! 3. **Graceful degradation.** Models are cached per
//!    `(benchmark, metric)`. A snapshot that fails to load from
//!    [`ServeConfig::models_dir`] falls back to lazy training under the
//!    configured [`RecoveryPolicy`](crate::RecoveryPolicy) ladder
//!    (Rbf → ridge escalation → Linear → Constant), and every
//!    model-backed response reports the worst recovery rung that served
//!    it — a degraded answer is visible, never silent. Lazy training
//!    simulates a benchmark's training design once for all its domain
//!    metrics: the traces of metrics not yet needed are parked until
//!    their own miss (or a snapshot load) takes them, so at most two
//!    training sets per benchmark are held (three after an `iq_avf`
//!    miss on a benchmark with no domain model yet).
//! 4. **Backpressure.** Admitted work accumulates in a leaky-bucket
//!    load counter; when a request would overflow
//!    [`ServeConfig::queue_capacity`], the daemon answers `overloaded`
//!    with a deterministic `retry_after` hint instead of growing without
//!    bound.
//! 5. **Kill-safe replay.** Responses append to a fingerprinted journal
//!    (the campaign journal's discipline, shared through one journal
//!    module: magic line, config fingerprint, torn tail ignored).
//!    [`replay`] re-runs a request log through a fresh engine, verifies
//!    the surviving journal prefix byte-for-byte, and rewrites the
//!    journal to what an uninterrupted run would have produced.
//!    [`FaultSite::JournalAppend`] faults exercise the degraded-
//!    durability path: the daemon keeps serving with journaling
//!    disabled.
//!
//! 6. **Introspection.** The engine keeps always-on, allocation-light
//!    telemetry ([`ServeStats`]): per-kind request/outcome counters,
//!    per-kind tick-latency histograms, deadline-budget spend, recovery
//!    rung counts, model-cache traffic, the leaky-bucket level and the
//!    journal status. The side-effect-free `stats` request kind
//!    snapshots it as a versioned JSON object — zero work ticks, so a
//!    `stats` probe never perturbs the transcript it reports on, and
//!    the snapshot is byte-identical live vs [`replay`]. When obs
//!    tracing is enabled the same pipeline also emits request-scoped
//!    spans (`serve.parse` → `serve.admission` → `serve.model_resolve`
//!    → `serve.solve` → `serve.journal_append`) correlated by request
//!    id in `serve.request_id` marker details — see DESIGN.md §14.
//!
//! The wire format is versioned JSON lines tagged
//! `{"schema":"dynawave-serve","v":1,...}` (vocabulary in
//! [`dynawave_obs::schema`]; dynalint rule D013 cross-checks literals).
//! Endpoints cover the paper's real queries: batched dynamics prediction
//! (`predict`), Pareto frontier over CPI/power/AVF (`pareto`), top-K
//! configs under a power budget (`topk`), single-axis sensitivity
//! sweeps (`sweep`), and the `stats` introspection probe. See DESIGN.md
//! §13 for the full protocol contract.
//!
//! # Examples
//!
//! ```
//! use dynawave_core::experiment::ExperimentConfig;
//! use dynawave_core::serve::{ServeConfig, ServeEngine};
//!
//! let cfg = ServeConfig {
//!     config: ExperimentConfig {
//!         train_points: 12,
//!         test_points: 2,
//!         samples: 16,
//!         interval_instructions: 300,
//!         ..ExperimentConfig::default()
//!     },
//!     ..ServeConfig::default()
//! };
//! let mut engine = ServeEngine::new(cfg);
//! // Malformed input still gets exactly one structured response.
//! let resp = engine.handle_line("not json at all");
//! assert!(resp.contains("\"kind\":\"error\""));
//! assert!(resp.contains("bad-json"));
//! ```

use crate::dataset::{collect_metric_traces, Metric, TraceSet};
use crate::experiment::ExperimentConfig;
use crate::journal::{self, Appender, HeaderError};
use crate::persist;
use crate::predictor::{PortableCoeffModel, WaveletNeuralPredictor};
use crate::recovery::RecoveryRung;
use dynawave_numeric::fault::{self, FaultSite};
use dynawave_obs::event::{push_json_number, push_json_string};
use dynawave_obs::json::{self, Value};
use dynawave_obs::schema;
use dynawave_sampling::DesignPoint;
use dynawave_workloads::Benchmark;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

/// Magic tag on the first line of every serve response journal.
const MAGIC: &str = schema::SERVE_JOURNAL;

/// Configuration of one serving session. Everything that can change a
/// response byte is in here (directly or via [`ExperimentConfig`]), so
/// the [`ServeConfig::fingerprint`] guards replay the same way the
/// campaign fingerprint guards resume.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Scale, seed and recovery policy for lazily trained models.
    pub config: ExperimentConfig,
    /// Tick budget for requests that do not carry a `deadline` field.
    pub default_deadline: u64,
    /// Leaky-bucket capacity for admitted-but-unfinished work, in ticks.
    pub queue_capacity: u64,
    /// Ticks drained from the load counter per incoming request.
    pub drain_per_request: u64,
    /// Tick cost of one lazy model train (cache miss).
    pub train_cost: u64,
    /// Requests longer than this many bytes are refused (`too-large`)
    /// before parsing, bounding per-request memory.
    pub max_request_bytes: usize,
    /// Directory of persisted model snapshots
    /// (`<benchmark>_<metric>.dynawave`). Load failures degrade to lazy
    /// training; `None` always trains lazily.
    pub models_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            config: ExperimentConfig::default(),
            default_deadline: 4096,
            queue_capacity: 1 << 16,
            drain_per_request: 64,
            train_cost: 256,
            max_request_bytes: 1 << 20,
            models_dir: None,
        }
    }
}

impl ServeConfig {
    /// Deterministic fingerprint of every response-affecting knob,
    /// recorded in the journal header so [`replay`] under a different
    /// configuration is refused instead of silently diverging.
    pub fn fingerprint(&self) -> u64 {
        journal::fnv1a64(&format!(
            "{:?}|{}|{}|{}|{}|{}|{:?}",
            self.config,
            self.default_deadline,
            self.queue_capacity,
            self.drain_per_request,
            self.train_cost,
            self.max_request_bytes,
            self.models_dir
        ))
    }

    /// The two-line journal header for this configuration.
    pub fn journal_header(&self) -> String {
        journal::header(MAGIC, self.fingerprint())
    }
}

/// Every way a request can fail. Each variant maps to a stable
/// kebab-case code carried in the response's `error` field — clients
/// dispatch on the code, humans read the accompanying `detail`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The line is not valid JSON.
    BadJson(String),
    /// The line parsed but is not a JSON object.
    NotAnObject,
    /// `schema` is missing or not `dynawave-serve`.
    UnknownSchema,
    /// `v` is missing or not a supported version.
    UnsupportedVersion(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field is present but has the wrong type or an invalid value.
    BadField {
        /// The offending field.
        field: &'static str,
        /// What the field must be.
        expected: &'static str,
    },
    /// `kind` is not a known request kind.
    UnknownKind(String),
    /// `benchmark` does not name a known workload.
    UnknownBenchmark(String),
    /// `metric` does not name a known metric.
    UnknownMetric(String),
    /// A design vector has the wrong number of knobs.
    BadArity {
        /// Knob count the configured design space requires.
        expected: usize,
        /// Knob count found in the request.
        found: usize,
    },
    /// A design-vector or sweep value is NaN or infinite.
    NonFiniteInput,
    /// The request carries no work (empty `points` / `values`).
    EmptyBatch,
    /// The request line exceeds [`ServeConfig::max_request_bytes`].
    TooLarge {
        /// Bytes in the offending line.
        found: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The tick budget cannot cover even the first unit of work.
    DeadlineExceeded {
        /// The request's effective budget.
        budget: u64,
        /// Ticks the request would need to produce its first result.
        needed: u64,
    },
    /// Admitting the request would overflow the work queue.
    Overloaded {
        /// Requests to wait before retrying.
        retry_after: u64,
    },
    /// Lazy training failed beyond what the recovery ladder could absorb.
    TrainFailed(String),
}

impl ServeError {
    /// Stable kebab-case error code (the response's `error` field).
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::BadJson(_) => "bad-json",
            ServeError::NotAnObject => "not-an-object",
            ServeError::UnknownSchema => "unknown-schema",
            ServeError::UnsupportedVersion(_) => "unsupported-version",
            ServeError::MissingField(_) => "missing-field",
            ServeError::BadField { .. } => "bad-field",
            ServeError::UnknownKind(_) => "unknown-kind",
            ServeError::UnknownBenchmark(_) => "unknown-benchmark",
            ServeError::UnknownMetric(_) => "unknown-metric",
            ServeError::BadArity { .. } => "bad-arity",
            ServeError::NonFiniteInput => "non-finite-input",
            ServeError::EmptyBatch => "empty-batch",
            ServeError::TooLarge { .. } => "too-large",
            ServeError::DeadlineExceeded { .. } => "deadline-exceeded",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::TrainFailed(_) => "train-failed",
        }
    }

    /// True for `internal`-class errors: the daemon itself failed, as
    /// opposed to the client sending something refusable. The serve
    /// binary dumps its flight recorder on the first internal error.
    pub fn is_internal(&self) -> bool {
        matches!(self, ServeError::TrainFailed(_))
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadJson(msg) => write!(f, "request is not valid JSON: {msg}"),
            ServeError::NotAnObject => write!(f, "request must be a JSON object"),
            ServeError::UnknownSchema => {
                write!(
                    f,
                    "request must carry \"schema\": {:?}",
                    schema::SERVE_SCHEMA
                )
            }
            ServeError::UnsupportedVersion(found) => write!(
                f,
                "unsupported protocol version {found}; this daemon speaks v{}",
                schema::SERVE_SCHEMA_VERSION
            ),
            ServeError::MissingField(field) => write!(f, "required field {field:?} is missing"),
            ServeError::BadField { field, expected } => {
                write!(f, "field {field:?} must be {expected}")
            }
            ServeError::UnknownKind(found) => {
                write!(f, "unknown request kind {found:?}")
            }
            ServeError::UnknownBenchmark(found) => write!(f, "unknown benchmark {found:?}"),
            ServeError::UnknownMetric(found) => write!(f, "unknown metric {found:?}"),
            ServeError::BadArity { expected, found } => write!(
                f,
                "design vector has {found} knobs, the configured space needs {expected}"
            ),
            ServeError::NonFiniteInput => write!(f, "design values must be finite"),
            ServeError::EmptyBatch => write!(f, "request carries no work"),
            ServeError::TooLarge { found, limit } => {
                write!(f, "request is {found} bytes, limit is {limit}")
            }
            ServeError::DeadlineExceeded { budget, needed } => write!(
                f,
                "deadline budget {budget} ticks cannot cover the {needed} \
                 ticks needed for the first result"
            ),
            ServeError::Overloaded { retry_after } => write!(
                f,
                "work queue is full; retry after {retry_after} request(s)"
            ),
            ServeError::TrainFailed(msg) => write!(f, "model training failed: {msg}"),
        }
    }
}

impl Error for ServeError {}

/// Errors raised by [`replay`] and journal I/O — problems with the
/// journal file itself, as opposed to per-request [`ServeError`]s.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReplayError {
    /// The journal's first line is not the serve magic.
    BadMagic,
    /// The journal belongs to a different [`ServeConfig`].
    Fingerprint {
        /// Fingerprint of the replaying configuration.
        expected: u64,
        /// Fingerprint recorded in the journal.
        found: u64,
    },
    /// The journal header is structurally broken.
    MalformedHeader,
    /// A surviving journal line does not match the replayed response —
    /// the request log and journal are from different sessions.
    Divergence {
        /// 1-based response index where live and replay disagree.
        response: usize,
    },
    /// The journal holds more responses than the request log explains.
    ExcessResponses {
        /// Complete response lines found in the journal.
        journaled: usize,
        /// Requests in the supplied log.
        requests: usize,
    },
    /// Reading or writing the journal failed.
    Io(std::io::Error),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::BadMagic => write!(f, "not a dynawave serve journal"),
            ReplayError::Fingerprint { expected, found } => write!(
                f,
                "journal belongs to a different serving configuration: \
                 config fingerprint {expected:016x}, journal has {found:016x}"
            ),
            ReplayError::MalformedHeader => write!(f, "malformed journal header"),
            ReplayError::Divergence { response } => write!(
                f,
                "journal diverges from replay at response {response}; the \
                 request log does not reproduce this journal"
            ),
            ReplayError::ExcessResponses {
                journaled,
                requests,
            } => write!(
                f,
                "journal holds {journaled} responses but the request log has \
                 only {requests} requests"
            ),
            ReplayError::Io(e) => write!(f, "journal I/O failed: {e}"),
        }
    }
}

impl Error for ReplayError {}

impl From<std::io::Error> for ReplayError {
    fn from(e: std::io::Error) -> Self {
        ReplayError::Io(e)
    }
}

/// A cached model, or the stable reason it could not be built. Failures
/// are cached too: retraining on every request would both waste budget
/// and (under fault injection) consume extra RNG draws, breaking replay.
type CacheEntry = Result<CachedModel, String>;

struct CachedModel {
    model: WaveletNeuralPredictor,
    rung: RecoveryRung,
}

/// Worst rung implied by a loaded snapshot's sub-model kinds. A snapshot
/// has no degradation report, but its persisted fallback models tell the
/// same story.
fn rung_of_snapshot(model: &WaveletNeuralPredictor) -> RecoveryRung {
    let rungs = model.to_portable().models.into_iter().map(|m| match m {
        PortableCoeffModel::Rbf(_) => RecoveryRung::Primary,
        PortableCoeffModel::Linear { .. } => RecoveryRung::LinearFallback,
        PortableCoeffModel::Constant(_) => RecoveryRung::MeanFallback,
    });
    rungs
        .max_by_key(|r| r.level())
        .unwrap_or(RecoveryRung::Primary)
}

/// One validated request that does model work — the output of the pure
/// validation stage, before any budget or model work happens. The
/// `stats` probe is not a job: it never reaches admission.
struct Job {
    benchmark: Benchmark,
    work: Work,
}

/// The per-kind payload of a [`Job`].
enum Work {
    Predict {
        metric: Metric,
        points: Vec<DesignPoint>,
        with_trace: bool,
    },
    Pareto {
        points: Vec<DesignPoint>,
    },
    TopK {
        k: usize,
        power_budget: f64,
        points: Vec<DesignPoint>,
    },
    Sweep {
        metric: Metric,
        base: Vec<f64>,
        axis: usize,
        values: Vec<f64>,
    },
}

impl Work {
    /// The canonical request-kind name (see
    /// [`schema::SERVE_REQUEST_KINDS`]).
    fn kind_name(&self) -> &'static str {
        match self {
            Work::Predict { .. } => "predict",
            Work::Pareto { .. } => "pareto",
            Work::TopK { .. } => "topk",
            Work::Sweep { .. } => "sweep",
        }
    }

    /// The models this work needs and its item count, under the one cost
    /// rule: one tick per (metric, point) prediction.
    fn cost(&self) -> (&[Metric], u64) {
        let (metrics, points): (&[Metric], usize) = match self {
            Work::Predict { metric, points, .. } => (std::slice::from_ref(metric), points.len()),
            Work::Pareto { points } => (&Metric::DOMAINS, points.len()),
            Work::TopK { points, .. } => (&[Metric::Cpi, Metric::Power], points.len()),
            Work::Sweep { metric, values, .. } => (std::slice::from_ref(metric), values.len()),
        };
        (metrics, (metrics.len() * points) as u64)
    }
}

/// Journal attachment state as the `stats` snapshot reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum JournalStatus {
    /// No journal attached to this session.
    #[default]
    None,
    /// Journal attached and appending.
    Active,
    /// Journal attached but disabled by a fault (degraded durability).
    Broken,
}

impl JournalStatus {
    fn name(self) -> &'static str {
        match self {
            JournalStatus::None => "none",
            JournalStatus::Active => "active",
            JournalStatus::Broken => "broken",
        }
    }
}

/// One event the engine counts: see [`ServeStats::tally`].
#[derive(Clone, Copy)]
enum Tally {
    Ok,
    Partial,
    Error,
    Overloaded,
    Stats,
    DeadlineRefused,
    /// A model-backed response served at this worst rung.
    Rung(RecoveryRung),
    ModelLoaded,
    ModelTrained,
    ModelFailed,
}

/// Always-on engine telemetry, snapshotted by the `stats` request kind.
///
/// This is deliberately *not* the obs recorder: tracing is optional and
/// per-thread, while these counters are part of the engine's
/// deterministic state — the same request log yields the same snapshot
/// bytes live, under `--replay`, and at any `DYNAWAVE_THREADS` setting
/// (the engine is single-threaded by construction). Everything here is
/// plain integer arithmetic on the tick clock; the cost on the hot path
/// is a handful of array increments (budgeted <2% on
/// `serve/predict_batch/8`, enforced by the BENCH ratchet).
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests per canonical kind, indexed like
    /// [`schema::SERVE_REQUEST_KINDS`].
    requests: [u64; 5],
    /// Requests whose `kind` never classified (byte soup, wrong schema,
    /// unknown kind, oversized lines...).
    requests_invalid: u64,
    /// Responses per outcome: ok, partial, error, overloaded, stats.
    outcomes: [u64; 5],
    /// `error` outcomes that were internal-class ([`ServeError::is_internal`]).
    internal_errors: u64,
    /// Tick-latency histogram per *workload* kind (predict, pareto,
    /// topk, sweep — `stats` is always zero-tick and has none), on the
    /// shared [`schema::SERVE_LATENCY_BOUNDS`] bounds plus an overflow
    /// bucket.
    latency: [[u64; 10]; 4],
    /// Sum of tick budgets granted to requests that were admitted,
    /// saturating at `u64::MAX` like every other budget sum.
    deadline_granted: u64,
    /// Ticks actually consumed by admitted requests.
    deadline_used: u64,
    /// Requests refused outright because the budget could not cover the
    /// first unit of work.
    deadline_refused: u64,
    /// Model-backed responses per worst recovery rung, indexed by
    /// [`RecoveryRung::level`] (primary .. mean-fallback).
    rungs: [u64; 4],
    /// Model-cache lookups that hit.
    model_hits: u64,
    /// Model-cache lookups that missed (and went to snapshot/training).
    model_misses: u64,
    /// Cache misses filled from a persisted snapshot.
    models_loaded: u64,
    /// Cache misses filled by lazy training.
    models_trained: u64,
    /// Cache misses where training failed beyond the recovery ladder.
    models_failed: u64,
    /// Journal attachment state (set by the session owner).
    journal: JournalStatus,
    /// Kind index of the request currently in flight, for latency
    /// attribution in `handle_line`.
    in_flight: Option<usize>,
}

impl ServeStats {
    /// Counts one request under its raw `kind` field when that is a
    /// canonical kind and remembers it for latency attribution.
    fn classify(&mut self, kind: Option<&str>) {
        let kinds = schema::SERVE_REQUEST_KINDS;
        self.in_flight = kind.and_then(|kind| kinds.iter().position(|k| *k == kind));
        if let Some(idx) = self.in_flight {
            self.requests[idx] += 1;
        }
    }

    /// Counts one engine event in its [`ServeStats`] field and in its obs
    /// counter, together.
    fn tally(&mut self, tally: Tally) {
        use dynawave_obs::counter_add;
        let slot = match tally {
            Tally::Ok => {
                counter_add("serve.responses.ok", 1);
                &mut self.outcomes[0]
            }
            Tally::Partial => {
                counter_add("serve.responses.partial", 1);
                &mut self.outcomes[1]
            }
            Tally::Error => {
                counter_add("serve.responses.error", 1);
                &mut self.outcomes[2]
            }
            Tally::Overloaded => {
                counter_add("serve.responses.overloaded", 1);
                &mut self.outcomes[3]
            }
            Tally::Stats => {
                counter_add("serve.responses.stats", 1);
                &mut self.outcomes[4]
            }
            Tally::DeadlineRefused => {
                counter_add("serve.responses.deadline_exceeded", 1);
                &mut self.deadline_refused
            }
            Tally::Rung(rung) => {
                if rung.level() > 0 {
                    counter_add("serve.responses.degraded", 1);
                }
                &mut self.rungs[(rung.level() as usize).min(3)]
            }
            Tally::ModelLoaded => {
                counter_add("serve.models.loaded", 1);
                &mut self.models_loaded
            }
            Tally::ModelTrained => {
                counter_add("serve.models.trained", 1);
                &mut self.models_trained
            }
            Tally::ModelFailed => {
                counter_add("serve.models.failed", 1);
                &mut self.models_failed
            }
        };
        *slot += 1;
    }

    /// Counts `ticks` into the latency histogram of the request kind at
    /// `kind_idx`, here and in obs (`stats` has neither).
    fn observe_latency(&mut self, kind_idx: usize, ticks: u64) {
        if let Some(hist) = self.latency.get_mut(kind_idx) {
            let bucket = schema::SERVE_LATENCY_BOUNDS
                .iter()
                .position(|&b| ticks <= b)
                .unwrap_or(schema::SERVE_LATENCY_BOUNDS.len());
            hist[bucket] += 1;
        }
        if !dynawave_obs::is_enabled() {
            return;
        }
        let kind = schema::SERVE_REQUEST_KINDS.get(kind_idx).copied();
        if let Some(hist) = kind.and_then(schema::serve_latency_histogram) {
            let bounds: Vec<f64> = schema::SERVE_LATENCY_BOUNDS
                .iter()
                .map(|&b| b as f64)
                .collect();
            dynawave_obs::histogram_observe(hist, &bounds, ticks as f64);
        }
    }

    /// Total internal-class errors so far (the serve binary's flight-
    /// recorder trigger).
    pub fn internal_errors(&self) -> u64 {
        self.internal_errors
    }

    /// Renders the versioned snapshot object. Field order is fixed —
    /// the snapshot is a byte-level contract (`obs_validate` checks the
    /// shape; determinism tests diff the bytes).
    fn render(&self, out: &mut String, load: u64, capacity: u64) {
        out.push_str(&format!("{{\"v\":{}", schema::SERVE_STATS_VERSION));
        let (requests, invalid) = (&schema::SERVE_REQUEST_KINDS, self.requests_invalid);
        let requests = json_counts(requests, &self.requests);
        out.push_str(&format!(
            ",\"requests\":{{{requests},\"invalid\":{invalid}}}"
        ));
        let outcomes = ["ok", "partial", "error", "overloaded", "stats"];
        let (outcomes, internal) = (json_counts(&outcomes, &self.outcomes), self.internal_errors);
        out.push_str(&format!(
            ",\"outcomes\":{{{outcomes},\"internal\":{internal}}}"
        ));
        let bounds = join(schema::SERVE_LATENCY_BOUNDS);
        let latency = self.latency.iter().zip(schema::SERVE_REQUEST_KINDS);
        let latency = join(latency.map(|(hist, kind)| {
            format!(
                "\"{kind}\":{{\"bounds\":[{bounds}],\"counts\":[{}]}}",
                join(hist)
            )
        }));
        out.push_str(&format!(",\"latency\":{{{latency}}}"));
        out.push_str(&format!(
            ",\"deadline\":{{\"granted\":{},\"used\":{},\"refused\":{}}}",
            self.deadline_granted, self.deadline_used, self.deadline_refused
        ));
        let rungs = [
            "primary",
            "ridge-escalated",
            "linear-fallback",
            "mean-fallback",
        ];
        let rungs = json_counts(&rungs, &self.rungs);
        out.push_str(&format!(",\"rungs\":{{{rungs}}}"));
        out.push_str(&format!(
            ",\"models\":{{\"hits\":{},\"misses\":{},\"loaded\":{},\"trained\":{},\"failed\":{}}}",
            self.model_hits,
            self.model_misses,
            self.models_loaded,
            self.models_trained,
            self.models_failed
        ));
        out.push_str(&format!(
            ",\"load\":{{\"level\":{load},\"capacity\":{capacity}}}"
        ));
        out.push_str(&format!(",\"journal\":\"{}\"}}", self.journal.name()));
    }
}

/// The serving engine: a pure, deterministic function from a sequence of
/// request lines to a sequence of response lines.
///
/// All I/O lives in the callers ([`ServeJournal`], the `serve` binary);
/// the engine itself only computes, which is what makes [`replay`]
/// byte-exact. One engine serves one session: `seq`, the tick clock, the
/// load counter and the model cache all advance monotonically.
pub struct ServeEngine {
    config: ServeConfig,
    dims: usize,
    cache: BTreeMap<(Benchmark, Metric), CacheEntry>,
    /// Training sets simulated alongside another metric's miss, waiting
    /// for their own (see [`Self::ensure_model`]).
    parked: BTreeMap<(Benchmark, Metric), TraceSet>,
    seq: u64,
    tick: u64,
    load: u64,
    stats: ServeStats,
}

impl ServeEngine {
    /// A fresh engine with an empty model cache and zeroed clocks.
    pub fn new(config: ServeConfig) -> Self {
        let dims = config.config.space().dims();
        ServeEngine {
            config,
            dims,
            cache: BTreeMap::new(),
            parked: BTreeMap::new(),
            seq: 0,
            tick: 0,
            load: 0,
            stats: ServeStats::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Responses produced so far (equals request lines consumed).
    pub fn responses(&self) -> u64 {
        self.seq
    }

    /// The deterministic tick clock: total work ticks consumed.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The always-on telemetry the `stats` request kind snapshots.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Marks a response journal as attached to this session. Journal
    /// state lives with the session owner (the serve binary, [`replay`]);
    /// the engine only mirrors it so `stats` snapshots can report it
    /// deterministically.
    pub fn note_journal_attached(&mut self) {
        self.stats.journal = JournalStatus::Active;
    }

    /// Marks the attached journal as broken (degraded durability).
    pub fn note_journal_broken(&mut self) {
        self.stats.journal = JournalStatus::Broken;
    }

    /// Handles one request line and returns exactly one response line
    /// (no trailing newline). Total: every input, including byte soup
    /// and the empty string, maps to a well-formed JSON response.
    pub fn handle_line(&mut self, line: &str) -> String {
        let _span = dynawave_obs::span("serve.request");
        self.seq += 1;
        self.load = self.load.saturating_sub(self.config.drain_per_request);
        let tick_before = self.tick;
        let response = match self.process(line) {
            Ok(ok) => ok,
            Err((id, e)) => self.error_response(&id, &e),
        };
        // Latency attribution: the ticks this request consumed, into its
        // kind's histogram. Refused/errored requests count as zero-tick —
        // a shed request is latency the client *didn't* pay. Lines without
        // a canonical kind (byte soup, wrong schema, unknown kind,
        // oversize...) tally as invalid, keeping sum(requests) + invalid
        // == seq.
        match self.stats.in_flight.take() {
            Some(kind_idx) => self
                .stats
                .observe_latency(kind_idx, self.tick - tick_before),
            None => self.stats.requests_invalid += 1,
        }
        if dynawave_obs::is_enabled() {
            dynawave_obs::gauge_set("serve.load", self.load as f64);
        }
        response
    }

    /// Everything that can fail, with the request id recovered as early
    /// as possible so even deep failures echo it back.
    fn process(&mut self, line: &str) -> Result<String, (String, ServeError)> {
        let (id, job, deadline) = {
            let _span = dynawave_obs::span("serve.parse");
            if line.len() > self.config.max_request_bytes {
                return Err((
                    String::new(),
                    ServeError::TooLarge {
                        found: line.len(),
                        limit: self.config.max_request_bytes,
                    },
                ));
            }
            let value = json::parse(line)
                .map_err(|e| (String::new(), ServeError::BadJson(e.to_string())))?;
            let obj = value
                .as_object()
                .ok_or((String::new(), ServeError::NotAnObject))?;
            // Recover the id before any further validation.
            let id = match obj.get("id") {
                None => String::new(),
                Some(v) => v.as_str().map(str::to_string).ok_or((
                    String::new(),
                    ServeError::BadField {
                        field: "id",
                        expected: "a string",
                    },
                ))?,
            };
            let fail = |e: ServeError| (id.clone(), e);
            if obj.get("schema").and_then(Value::as_str) != Some(schema::SERVE_SCHEMA) {
                return Err(fail(ServeError::UnknownSchema));
            }
            match obj.get("v") {
                Some(v) if v.as_u64() == Some(schema::SERVE_SCHEMA_VERSION) => {}
                Some(v) => {
                    let found = match v.as_f64() {
                        Some(n) => format!("{n}"),
                        None => "non-numeric".to_string(),
                    };
                    return Err(fail(ServeError::UnsupportedVersion(found)));
                }
                None => return Err(fail(ServeError::MissingField("v"))),
            }
            // The line has a classifiable kind from here on: tally it
            // (even if deeper validation rejects the payload).
            self.stats.classify(obj.get("kind").and_then(Value::as_str));
            let job = self.validate(obj).map_err(&fail)?;
            let deadline = match obj.get("deadline") {
                None => self.config.default_deadline,
                Some(v) => match v.as_u64() {
                    Some(d) if d > 0 => d,
                    _ => {
                        return Err(fail(ServeError::BadField {
                            field: "deadline",
                            expected: "a positive integer tick budget",
                        }))
                    }
                },
            };
            (id, job, deadline)
        };
        let kind = job.as_ref().map_or("stats", |job| job.work.kind_name());
        if dynawave_obs::is_enabled() {
            dynawave_obs::marker_with_detail("serve.request_id", &format!("id={id} kind={kind}"));
        }
        match job {
            Some(job) => self.execute(&id, &job, deadline).map_err(|e| (id, e)),
            None => Ok(self.stats_response(&id)),
        }
    }

    /// Pure structural validation: no budget, no models, no state.
    /// `None` is the `stats` probe.
    fn validate(&self, obj: &BTreeMap<String, Value>) -> Result<Option<Job>, ServeError> {
        let kind = obj
            .get("kind")
            .ok_or(ServeError::MissingField("kind"))?
            .as_str()
            .ok_or(ServeError::BadField {
                field: "kind",
                expected: "a string",
            })?;
        // The introspection probe carries no benchmark or payload, so it
        // dispatches before the benchmark requirement below.
        if kind == "stats" {
            return Ok(None);
        }
        let benchmark = {
            let name = obj
                .get("benchmark")
                .ok_or(ServeError::MissingField("benchmark"))?
                .as_str()
                .ok_or(ServeError::BadField {
                    field: "benchmark",
                    expected: "a string",
                })?;
            Benchmark::from_name(name)
                .ok_or_else(|| ServeError::UnknownBenchmark(name.to_string()))?
        };
        let work = match kind {
            "predict" => Work::Predict {
                metric: self.metric_field(obj)?,
                points: self.points_field(obj, "points")?,
                with_trace: match obj.get("trace") {
                    None => false,
                    Some(Value::Bool(b)) => *b,
                    Some(_) => {
                        return Err(ServeError::BadField {
                            field: "trace",
                            expected: "a boolean",
                        })
                    }
                },
            },
            "pareto" => Work::Pareto {
                points: self.points_field(obj, "points")?,
            },
            "topk" => {
                let k = obj
                    .get("k")
                    .ok_or(ServeError::MissingField("k"))?
                    .as_u64()
                    .filter(|&k| k > 0)
                    .ok_or(ServeError::BadField {
                        field: "k",
                        expected: "a positive integer",
                    })? as usize;
                let power_budget = obj
                    .get("power_budget")
                    .ok_or(ServeError::MissingField("power_budget"))?
                    .as_f64()
                    .filter(|b| b.is_finite())
                    .ok_or(ServeError::BadField {
                        field: "power_budget",
                        expected: "a finite number",
                    })?;
                Work::TopK {
                    k,
                    power_budget,
                    points: self.points_field(obj, "points")?,
                }
            }
            "sweep" => {
                let base = self.point_values(
                    obj.get("base").ok_or(ServeError::MissingField("base"))?,
                    "base",
                )?;
                let axis = obj
                    .get("axis")
                    .ok_or(ServeError::MissingField("axis"))?
                    .as_u64()
                    .filter(|&a| (a as usize) < self.dims)
                    .ok_or(ServeError::BadField {
                        field: "axis",
                        expected: "an integer knob index inside the design space",
                    })? as usize;
                let values = obj
                    .get("values")
                    .ok_or(ServeError::MissingField("values"))?
                    .as_array()
                    .ok_or(ServeError::BadField {
                        field: "values",
                        expected: "an array of numbers",
                    })?
                    .iter()
                    .map(|v| {
                        v.as_f64()
                            .filter(|x| x.is_finite())
                            .ok_or(ServeError::NonFiniteInput)
                    })
                    .collect::<Result<Vec<f64>, _>>()?;
                if values.is_empty() {
                    return Err(ServeError::EmptyBatch);
                }
                Work::Sweep {
                    metric: self.metric_field(obj)?,
                    base,
                    axis,
                    values,
                }
            }
            other => return Err(ServeError::UnknownKind(other.to_string())),
        };
        Ok(Some(Job { benchmark, work }))
    }

    fn metric_field(&self, obj: &BTreeMap<String, Value>) -> Result<Metric, ServeError> {
        let name = obj
            .get("metric")
            .ok_or(ServeError::MissingField("metric"))?
            .as_str()
            .ok_or(ServeError::BadField {
                field: "metric",
                expected: "a string",
            })?;
        Metric::parse(name).ok_or_else(|| ServeError::UnknownMetric(name.to_string()))
    }

    /// One design vector: array of `dims` finite numbers.
    fn point_values(&self, v: &Value, field: &'static str) -> Result<Vec<f64>, ServeError> {
        let arr = v.as_array().ok_or(ServeError::BadField {
            field,
            expected: "an array of numbers",
        })?;
        if arr.len() != self.dims {
            return Err(ServeError::BadArity {
                expected: self.dims,
                found: arr.len(),
            });
        }
        arr.iter()
            .map(|x| {
                x.as_f64()
                    .filter(|v| v.is_finite())
                    .ok_or(ServeError::NonFiniteInput)
            })
            .collect()
    }

    fn points_field(
        &self,
        obj: &BTreeMap<String, Value>,
        field: &'static str,
    ) -> Result<Vec<DesignPoint>, ServeError> {
        let arr = obj
            .get(field)
            .ok_or(ServeError::MissingField("points"))?
            .as_array()
            .ok_or(ServeError::BadField {
                field,
                expected: "an array of design vectors",
            })?;
        if arr.is_empty() {
            return Err(ServeError::EmptyBatch);
        }
        arr.iter()
            .map(|p| self.point_values(p, field).map(DesignPoint::new))
            .collect()
    }

    /// Admission control, model resolution and dispatch for a job.
    fn execute(&mut self, id: &str, job: &Job, deadline: u64) -> Result<String, ServeError> {
        let benchmark = job.benchmark;
        let (metrics, items) = job.work.cost();
        let uncached = metrics
            .iter()
            .filter(|m| !self.cache.contains_key(&(benchmark, **m)))
            .count() as u64;
        let upfront = uncached.saturating_mul(self.config.train_cost);
        let total_cost = upfront.saturating_add(items);
        {
            let _span = dynawave_obs::span("serve.admission");
            // Backpressure before any work: the leaky bucket was drained
            // on entry; if this request's full cost would overflow it,
            // refuse with a deterministic retry hint.
            let level = self.load.saturating_add(total_cost);
            if level > self.config.queue_capacity {
                let drain = self.config.drain_per_request.max(1);
                let retry_after = (level - self.config.queue_capacity).div_ceil(drain);
                if dynawave_obs::is_enabled() {
                    dynawave_obs::marker_with_detail(
                        "serve.overloaded",
                        &format!("id={id} retry_after={retry_after}"),
                    );
                }
                return Err(ServeError::Overloaded { retry_after });
            }

            // Deadline: the batch-splittable endpoints (predict, sweep)
            // need budget for training plus one item; the rank/frontier
            // endpoints need the whole batch, because a frontier over
            // half the candidates is not a partial answer, it is a wrong
            // one. Costs saturate, and a saturated cost never fits: the
            // budget must also exceed the training ticks.
            let splittable = matches!(job.work, Work::Predict { .. } | Work::Sweep { .. });
            let needed = if splittable {
                upfront.saturating_add(1)
            } else {
                total_cost
            };
            if deadline < needed || deadline <= upfront {
                self.stats.tally(Tally::DeadlineRefused);
                return Err(ServeError::DeadlineExceeded {
                    budget: deadline,
                    needed,
                });
            }
            self.stats.deadline_granted = self.stats.deadline_granted.saturating_add(deadline);
        }

        // Acquire the models (cache hit, snapshot load, or lazy train).
        {
            let _span = dynawave_obs::span("serve.model_resolve");
            for m in metrics {
                self.ensure_model(benchmark, *m)?;
            }
        }
        let rung = metrics
            .iter()
            .filter_map(|m| self.cache.get(&(benchmark, *m))?.as_ref().ok())
            .map(|c| c.rung)
            .max_by_key(|r| r.level())
            .unwrap_or(RecoveryRung::Primary);
        self.stats.tally(Tally::Rung(rung));
        if rung.level() > 0 && dynawave_obs::is_enabled() {
            dynawave_obs::marker_with_detail(
                "serve.degraded",
                &format!("id={id} rung={}", rung.name()),
            );
        }

        // Execute within the remaining item budget; admission left the
        // all-or-nothing kinds a budget for every item.
        let completed = (deadline - upfront).min(items);
        let results = {
            let _span = dynawave_obs::span("serve.solve");
            self.run(job, metrics, completed)?
        };
        let consumed = upfront + completed;
        self.tick = self.tick.saturating_add(consumed);
        self.load += consumed;
        self.stats.deadline_used = self.stats.deadline_used.saturating_add(consumed);

        let partial = completed < items;
        let (kind, tally) = if partial {
            ("partial", Tally::Partial)
        } else {
            ("ok", Tally::Ok)
        };
        self.stats.tally(tally);
        let mut out = self.response_head(id, kind);
        out.push_str(",\"rung\":");
        push_json_string(&mut out, rung.name());
        if partial {
            out.push_str(&format!(
                ",\"error\":\"deadline-exceeded\",\"completed\":{completed},\"total\":{items}"
            ));
        }
        out.push_str(",\"results\":");
        out.push_str(&results);
        out.push('}');
        Ok(out)
    }

    /// Runs the job's first `items` predictions (all of them for pareto
    /// and topk) with the models of `metrics` and returns the encoded
    /// results array.
    fn run(&self, job: &Job, metrics: &[Metric], items: u64) -> Result<String, ServeError> {
        let benchmark = job.benchmark;
        let mut out = String::from("[");
        match &job.work {
            Work::Predict {
                metric,
                points,
                with_trace,
            } => {
                let model = self.cached(benchmark, *metric)?;
                for (i, p) in points.iter().take(items as usize).enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let trace = model.predict(p);
                    let mean = trace_mean(&trace);
                    let lo = trace.iter().cloned().fold(f64::INFINITY, f64::min);
                    let hi = trace.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    out.push_str("{\"mean\":");
                    push_json_number(&mut out, mean);
                    out.push_str(",\"min\":");
                    push_json_number(&mut out, lo);
                    out.push_str(",\"max\":");
                    push_json_number(&mut out, hi);
                    if *with_trace {
                        out.push_str(",\"trace\":[");
                        for (j, v) in trace.iter().enumerate() {
                            if j > 0 {
                                out.push(',');
                            }
                            push_json_number(&mut out, *v);
                        }
                        out.push(']');
                    }
                    out.push('}');
                }
            }
            Work::Pareto { points } => {
                let means = self.means(benchmark, metrics, points)?;
                let frontier = means.iter().enumerate().filter(|&(i, a)| {
                    !means.iter().enumerate().any(|(j, b)| {
                        j != i
                            && b.iter().zip(a).all(|(x, y)| x <= y)
                            && b.iter().zip(a).any(|(x, y)| x < y)
                    })
                });
                push_rows(&mut out, metrics, frontier);
            }
            Work::TopK {
                k,
                power_budget,
                points,
            } => {
                // Rows are [cpi, power], the order of `Work::cost`.
                let means = self.means(benchmark, metrics, points)?;
                let mut ranked: Vec<(usize, &Vec<f64>)> = means
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| matches!(m[..], [_, power] if power <= *power_budget))
                    .collect();
                // Deterministic order: CPI ascending, index as tiebreak.
                ranked.sort_by(|(i, a), (j, b)| a[0].total_cmp(&b[0]).then(i.cmp(j)));
                push_rows(&mut out, metrics, ranked.into_iter().take(*k));
            }
            Work::Sweep {
                metric,
                base,
                axis,
                values,
            } => {
                let model = self.cached(benchmark, *metric)?;
                for (i, v) in values.iter().take(items as usize).enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let mut knobs = base.clone();
                    if let Some(slot) = knobs.get_mut(*axis) {
                        *slot = *v;
                    }
                    let mean = trace_mean(&model.predict(&DesignPoint::new(knobs)));
                    out.push_str("{\"value\":");
                    push_json_number(&mut out, *v);
                    out.push_str(",\"mean\":");
                    push_json_number(&mut out, mean);
                    out.push('}');
                }
            }
        }
        out.push(']');
        Ok(out)
    }

    /// Answers the `stats` probe: the versioned telemetry snapshot,
    /// including this very response in its own outcome counters (so
    /// `sum(outcomes) == seq` holds for every snapshot).
    fn stats_response(&mut self, id: &str) -> String {
        self.stats.tally(Tally::Stats);
        let mut out = self.response_head(id, "stats");
        out.push_str(",\"stats\":");
        self.stats
            .render(&mut out, self.load, self.config.queue_capacity);
        out.push('}');
        out
    }

    /// Mean of each metric's predicted trace per point, point-major and
    /// metric-minor (the order the chaos fault draws follow).
    fn means(
        &self,
        benchmark: Benchmark,
        metrics: &[Metric],
        points: &[DesignPoint],
    ) -> Result<Vec<Vec<f64>>, ServeError> {
        let models: Vec<&WaveletNeuralPredictor> = metrics
            .iter()
            .map(|m| self.cached(benchmark, *m))
            .collect::<Result<_, _>>()?;
        Ok(points
            .iter()
            .map(|p| models.iter().map(|m| trace_mean(&m.predict(p))).collect())
            .collect())
    }

    /// The cached model for a key [`Self::ensure_model`] already
    /// populated.
    fn cached(
        &self,
        benchmark: Benchmark,
        metric: Metric,
    ) -> Result<&WaveletNeuralPredictor, ServeError> {
        match self.cache.get(&(benchmark, metric)) {
            Some(Ok(entry)) => Ok(&entry.model),
            Some(Err(msg)) => Err(ServeError::TrainFailed(msg.clone())),
            None => Err(ServeError::TrainFailed(
                "model cache entry missing (engine bug)".to_string(),
            )),
        }
    }

    /// Populates the cache for `(benchmark, metric)`: snapshot load from
    /// `models_dir` first, lazy training under the recovery policy as
    /// the fallback. Failures are cached so a broken key fails the same
    /// way on every request.
    ///
    /// Training simulates the benchmark's training design once for
    /// every domain metric still without a model and parks the other
    /// metrics' traces until their own miss (or a snapshot load) takes
    /// them, so at most two sets per benchmark stay parked (three after
    /// an [`Metric::IqAvf`] miss on a benchmark with no domain model).
    fn ensure_model(&mut self, benchmark: Benchmark, metric: Metric) -> Result<(), ServeError> {
        let key = (benchmark, metric);
        if self.cache.contains_key(&key) {
            self.stats.model_hits += 1;
            return Ok(());
        }
        self.stats.model_misses += 1;
        let _span = dynawave_obs::span("serve.model_acquire");
        if let Some(dir) = self.config.models_dir.clone() {
            let path = dir.join(format!("{}_{}.dynawave", benchmark.name(), metric.name()));
            match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| persist::from_string(&text).map_err(|e| e.to_string()))
            {
                Ok(model) => {
                    let rung = rung_of_snapshot(&model);
                    self.stats.tally(Tally::ModelLoaded);
                    self.parked.remove(&key);
                    self.cache.insert(key, Ok(CachedModel { model, rung }));
                    return Ok(());
                }
                Err(reason) => {
                    // Degradation, not failure: fall back to training.
                    dynawave_obs::marker_with_detail("serve.model_load_failed", &reason);
                }
            }
        }
        let train = match self.parked.remove(&key) {
            Some(set) => set,
            None => self.simulate_training_sets(benchmark, metric),
        };
        let cfg = &self.config.config;
        let entry =
            match WaveletNeuralPredictor::train_resilient(&train, &cfg.predictor, &cfg.recovery) {
                Ok((model, degradation)) => {
                    let rung = degradation
                        .records()
                        .iter()
                        .map(|r| r.rung)
                        .max_by_key(|r| r.level())
                        .unwrap_or(RecoveryRung::Primary);
                    self.stats.tally(Tally::ModelTrained);
                    Ok(CachedModel { model, rung })
                }
                Err(e) => {
                    self.stats.tally(Tally::ModelFailed);
                    Err(e.to_string())
                }
            };
        let failed = entry.as_ref().err().cloned();
        self.cache.insert(key, entry);
        match failed {
            Some(msg) => Err(ServeError::TrainFailed(msg)),
            None => Ok(()),
        }
    }

    /// Simulates the training design of `benchmark` once, returns the
    /// training set of `metric` and parks the set of each other domain
    /// metric that has neither a model nor a parked set yet.
    fn simulate_training_sets(&mut self, benchmark: Benchmark, metric: Metric) -> TraceSet {
        let mut metrics = vec![metric];
        metrics.extend(Metric::DOMAINS.into_iter().filter(|&m| {
            let key = (benchmark, m);
            m != metric && !self.cache.contains_key(&key) && !self.parked.contains_key(&key)
        }));
        let cfg = &self.config.config;
        let mut sets =
            collect_metric_traces(benchmark, &cfg.train_design(), &metrics, &cfg.sim_options());
        let train = sets.swap_remove(0);
        for set in sets {
            self.parked.insert((benchmark, set.metric), set);
        }
        train
    }

    /// Common response prefix: schema, version, seq, tick, id, kind.
    fn response_head(&self, id: &str, kind: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\":\"{}\",\"v\":{},\"seq\":{},\"tick\":{},\"id\":",
            schema::SERVE_SCHEMA,
            schema::SERVE_SCHEMA_VERSION,
            self.seq,
            self.tick
        ));
        push_json_string(&mut out, id);
        out.push_str(",\"kind\":");
        push_json_string(&mut out, kind);
        out
    }

    /// Encodes a [`ServeError`] as its response line. `overloaded` gets
    /// its own response kind (clients treat it as "try again", not
    /// "request was wrong"); everything else is kind `error`.
    fn error_response(&mut self, id: &str, e: &ServeError) -> String {
        let (kind, tally) = match e {
            ServeError::Overloaded { .. } => ("overloaded", Tally::Overloaded),
            _ => ("error", Tally::Error),
        };
        self.stats.tally(tally);
        if e.is_internal() {
            self.stats.internal_errors += 1;
        }
        let mut out = self.response_head(id, kind);
        out.push_str(",\"error\":");
        push_json_string(&mut out, e.code());
        out.push_str(",\"detail\":");
        push_json_string(&mut out, &e.to_string());
        if let ServeError::Overloaded { retry_after } = e {
            out.push_str(&format!(",\"retry_after\":{retry_after}"));
        }
        out.push('}');
        out
    }
}

/// Comma-joins the displayed `items`.
fn join<T: fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|x| x.to_string()).collect();
    items.join(",")
}

/// `"name":count` pairs, comma-joined.
fn json_counts(names: &[&str], counts: &[u64]) -> String {
    join(
        names
            .iter()
            .zip(counts)
            .map(|(n, c)| format!("\"{n}\":{c}")),
    )
}

/// Appends one `{"index":i,"<metric>":mean,...}` object per row,
/// comma-separated.
fn push_rows<'a>(
    out: &mut String,
    metrics: &[Metric],
    rows: impl IntoIterator<Item = (usize, &'a Vec<f64>)>,
) {
    for (n, (i, means)) in rows.into_iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"index\":{i}"));
        for (m, v) in metrics.iter().zip(means) {
            out.push_str(",\"");
            out.push_str(m.name());
            out.push_str("\":");
            push_json_number(out, *v);
        }
        out.push('}');
    }
}

/// Mean of a predicted dynamics trace.
fn trace_mean(trace: &[f64]) -> f64 {
    trace.iter().sum::<f64>() / trace.len().max(1) as f64
}

/// Append-only response journal with the campaign journal's kill-safe
/// discipline: fingerprinted header, newline-terminated records, and a
/// torn final line treated as never written. Not power-loss-safe: no
/// record is fsynced (DESIGN.md §8.3).
///
/// Journal faults ([`FaultSite::JournalAppend`] injection or real I/O
/// errors) flip the journal into a broken state: the daemon keeps
/// serving, no further appends happen, and the journal remains a clean
/// prefix of the response stream — degraded durability, never a torn
/// middle.
pub struct ServeJournal {
    appender: Appender,
    broken: bool,
}

impl ServeJournal {
    /// Replaces any journal at `path` with a fresh header and opens it for
    /// appending.
    pub fn create(path: &Path, config: &ServeConfig) -> Result<Self, std::io::Error> {
        journal::rewrite(path, &config.journal_header())?;
        Ok(ServeJournal {
            appender: Appender::open(path)?,
            broken: false,
        })
    }

    /// Appends one response line (newline added here). After the first
    /// failure — injected or real — the journal is broken and appends
    /// become no-ops; the caller keeps serving.
    pub fn append(&mut self, response: &str) {
        if self.broken {
            return;
        }
        let _span = dynawave_obs::span("serve.journal_append");
        if fault::inject(FaultSite::JournalAppend).is_some() {
            self.mark_broken("injected journal fault");
            return;
        }
        if let Err(e) = self.appender.append(&format!("{response}\n")) {
            self.mark_broken(&e.to_string());
        }
    }

    fn mark_broken(&mut self, reason: &str) {
        self.broken = true;
        dynawave_obs::counter_add("serve.journal.broken", 1);
        dynawave_obs::marker_with_detail("serve.journal_disabled", reason);
    }

    /// `true` once journaling has been disabled by a fault.
    pub fn is_broken(&self) -> bool {
        self.broken
    }
}

/// Outcome of a successful [`replay`].
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Every response line the request log produces, in order.
    pub responses: Vec<String>,
    /// Complete journal lines that survived the crash and were verified
    /// byte-for-byte against the replay.
    pub verified: usize,
    /// `true` when the surviving journal ended in a torn (ignored)
    /// partial line — the signature of a kill mid-write.
    pub torn_tail: bool,
}

/// Replays `request_log` through a fresh engine and reconciles the
/// response journal at `journal_path`.
///
/// The surviving journal (header + complete response lines; a torn final
/// line is ignored, exactly like campaign journals) must be a
/// byte-for-byte prefix of the replayed responses — it was produced by
/// the same deterministic engine, so any divergence means the request
/// log and journal do not belong together and replay refuses to guess.
/// On success the journal is rewritten to the full uninterrupted
/// transcript: header plus every response, newline-terminated, torn tail
/// gone.
///
/// A missing journal file is treated as an empty journal (verified 0):
/// replay then simply regenerates it.
///
/// # Errors
///
/// [`ReplayError`] on header mismatch, fingerprint mismatch, divergence
/// or I/O failure. The journal is not modified on error.
pub fn replay(
    config: ServeConfig,
    request_log: &str,
    journal_path: &Path,
) -> Result<ReplayOutcome, ReplayError> {
    let _span = dynawave_obs::span("serve.replay");
    let raw = match std::fs::read_to_string(journal_path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(ReplayError::Io(e)),
    };
    let expected = config.fingerprint();
    let (journaled, torn_tail): (Vec<&str>, bool) = match journal::verify(&raw, MAGIC, expected) {
        Ok(verified) => (verified.lines.map(|(_, l)| l).collect(), verified.torn_tail),
        Err(HeaderError::Empty) => (Vec::new(), !raw.is_empty()),
        Err(HeaderError::BadMagic) => return Err(ReplayError::BadMagic),
        Err(HeaderError::BadFingerprint) => return Err(ReplayError::MalformedHeader),
        Err(HeaderError::Mismatch(found)) => {
            return Err(ReplayError::Fingerprint { expected, found })
        }
    };

    let mut engine = ServeEngine::new(config);
    // Replay always runs against a journal, so `stats` snapshots report
    // the same "active" journal state the live journaled session saw.
    engine.note_journal_attached();
    let responses: Vec<String> = request_log
        .lines()
        .map(|line| engine.handle_line(line))
        .collect();

    if journaled.len() > responses.len() {
        return Err(ReplayError::ExcessResponses {
            journaled: journaled.len(),
            requests: responses.len(),
        });
    }
    for (i, (old, new)) in journaled.iter().zip(&responses).enumerate() {
        if old != new {
            return Err(ReplayError::Divergence { response: i + 1 });
        }
    }

    let mut full = engine.config().journal_header();
    for r in &responses {
        full.push_str(r);
        full.push('\n');
    }
    journal::rewrite(journal_path, &full)?;
    dynawave_obs::counter_add("serve.replay.responses", responses.len() as u64);
    Ok(ReplayOutcome {
        responses,
        verified: journaled.len(),
        torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny but real serving configuration: fast to train, cheap ticks.
    fn tiny_config() -> ServeConfig {
        ServeConfig {
            config: ExperimentConfig {
                train_points: 12,
                test_points: 2,
                samples: 16,
                interval_instructions: 300,
                seed: 9,
                ..ExperimentConfig::default()
            },
            default_deadline: 4096,
            queue_capacity: 1 << 14,
            drain_per_request: 32,
            train_cost: 64,
            max_request_bytes: 1 << 16,
            models_dir: None,
        }
    }

    fn point_json(dims: usize, base: f64) -> String {
        let knobs: Vec<String> = (0..dims).map(|i| format!("{}", base + i as f64)).collect();
        format!("[{}]", knobs.join(","))
    }

    fn predict_request(id: &str, points: usize) -> String {
        let dims = ExperimentConfig::default().space().dims();
        let pts: Vec<String> = (0..points)
            .map(|i| point_json(dims, 2.0 + i as f64))
            .collect();
        format!(
            "{{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"{id}\",\
             \"kind\":\"predict\",\"benchmark\":\"gcc\",\"metric\":\"cpi\",\
             \"points\":[{}]}}",
            pts.join(",")
        )
    }

    fn parse_resp(line: &str) -> BTreeMap<String, Value> {
        json::parse(line)
            .expect("response must be valid JSON")
            .as_object()
            .expect("response must be an object")
            .clone()
    }

    #[test]
    fn predict_roundtrip_reports_rung_and_results() {
        let mut engine = ServeEngine::new(tiny_config());
        let resp = engine.handle_line(&predict_request("r1", 2));
        let obj = parse_resp(&resp);
        assert_eq!(obj["schema"].as_str(), Some(schema::SERVE_SCHEMA));
        assert_eq!(obj["v"].as_u64(), Some(1));
        assert_eq!(obj["seq"].as_u64(), Some(1));
        assert_eq!(obj["id"].as_str(), Some("r1"));
        assert_eq!(obj["kind"].as_str(), Some("ok"));
        assert_eq!(obj["rung"].as_str(), Some("primary"));
        let results = obj["results"].as_array().unwrap();
        assert_eq!(results.len(), 2);
        for r in results {
            let mean = r.as_object().unwrap()["mean"].as_f64().unwrap();
            assert!(mean.is_finite() && mean > 0.0);
        }
        // Second request hits the cache: tick advances by items only.
        let t1 = obj["tick"].as_u64().unwrap();
        let resp2 = engine.handle_line(&predict_request("r2", 2));
        let obj2 = parse_resp(&resp2);
        assert_eq!(obj2["tick"].as_u64(), Some(t1 + 2));
    }

    #[test]
    fn malformed_inputs_get_typed_error_responses() {
        let mut engine = ServeEngine::new(tiny_config());
        let cases: &[(&str, &str)] = &[
            ("", "bad-json"),
            ("not json", "bad-json"),
            ("[1,2,3]", "not-an-object"),
            ("{}", "unknown-schema"),
            ("{\"schema\":\"dynawave-obs\",\"v\":1}", "unknown-schema"),
            ("{\"schema\":\"dynawave-serve\"}", "missing-field"),
            (
                "{\"schema\":\"dynawave-serve\",\"v\":2}",
                "unsupported-version",
            ),
            ("{\"schema\":\"dynawave-serve\",\"v\":1}", "missing-field"),
            (
                "{\"schema\":\"dynawave-serve\",\"v\":1,\"kind\":\"zap\",\
                 \"benchmark\":\"gcc\"}",
                "unknown-kind",
            ),
            (
                "{\"schema\":\"dynawave-serve\",\"v\":1,\"kind\":\"predict\",\
                 \"benchmark\":\"quake3\"}",
                "unknown-benchmark",
            ),
            (
                "{\"schema\":\"dynawave-serve\",\"v\":1,\"kind\":\"predict\",\
                 \"benchmark\":\"gcc\",\"metric\":\"mips\"}",
                "unknown-metric",
            ),
            (
                "{\"schema\":\"dynawave-serve\",\"v\":1,\"kind\":\"predict\",\
                 \"benchmark\":\"gcc\",\"metric\":\"cpi\",\"points\":[[1,2]]}",
                "bad-arity",
            ),
            (
                "{\"schema\":\"dynawave-serve\",\"v\":1,\"kind\":\"predict\",\
                 \"benchmark\":\"gcc\",\"metric\":\"cpi\",\"points\":[]}",
                "empty-batch",
            ),
        ];
        for (i, (input, code)) in cases.iter().enumerate() {
            let resp = engine.handle_line(input);
            let obj = parse_resp(&resp);
            assert_eq!(obj["kind"].as_str(), Some("error"), "case {i}: {input}");
            assert_eq!(obj["error"].as_str(), Some(*code), "case {i}: {input}");
            assert_eq!(obj["seq"].as_u64(), Some(i as u64 + 1));
            assert!(obj["detail"].as_str().is_some());
        }
        // Errors never consult a model, so no training happened.
        assert_eq!(engine.tick(), 0);
    }

    #[test]
    fn non_finite_points_are_rejected() {
        let mut engine = ServeEngine::new(tiny_config());
        let dims = ExperimentConfig::default().space().dims();
        let mut knobs = vec!["2.0".to_string(); dims];
        if let Some(first) = knobs.get_mut(0) {
            // 1e999 overflows f64 to infinity in this parser.
            *first = "1e999".to_string();
        }
        let req = format!(
            "{{\"schema\":\"dynawave-serve\",\"v\":1,\"kind\":\"predict\",\
             \"benchmark\":\"gcc\",\"metric\":\"cpi\",\"points\":[[{}]]}}",
            knobs.join(",")
        );
        let obj = parse_resp(&engine.handle_line(&req));
        assert_eq!(obj["error"].as_str(), Some("non-finite-input"));
    }

    #[test]
    fn deadline_partial_and_exceeded() {
        let mut engine = ServeEngine::new(tiny_config());
        // Budget covers training + 2 of 4 points -> partial.
        let req = predict_request("p", 4);
        let with_deadline =
            req.replacen("\"kind\"", &format!("\"deadline\":{},\"kind\"", 64 + 2), 1);
        let obj = parse_resp(&engine.handle_line(&with_deadline));
        assert_eq!(obj["kind"].as_str(), Some("partial"));
        assert_eq!(obj["error"].as_str(), Some("deadline-exceeded"));
        assert_eq!(obj["completed"].as_u64(), Some(2));
        assert_eq!(obj["total"].as_u64(), Some(4));
        assert_eq!(obj["results"].as_array().unwrap().len(), 2);
        // Budget below train cost -> typed error before any work.
        let mut fresh = ServeEngine::new(tiny_config());
        let starved = req.replacen("\"kind\"", "\"deadline\":3,\"kind\"", 1);
        let obj = parse_resp(&fresh.handle_line(&starved));
        assert_eq!(obj["kind"].as_str(), Some("error"));
        assert_eq!(obj["error"].as_str(), Some("deadline-exceeded"));
        assert_eq!(fresh.tick(), 0, "a starved request must not train");
    }

    #[test]
    fn backpressure_overloads_deterministically() {
        let cfg = ServeConfig {
            queue_capacity: 80,
            drain_per_request: 10,
            train_cost: 64,
            ..tiny_config()
        };
        let mut engine = ServeEngine::new(cfg);
        // Request 1: cost 64 (train) + 2 = 66, load 66. Request 2 after
        // drain: load 56, cost 2 -> 58. Request 3: load 48 + 2 = 50 ...
        // keep pushing until the bucket fills.
        let mut saw_overload = None;
        for i in 0..40 {
            let obj = parse_resp(&engine.handle_line(&predict_request("b", 16)));
            if obj["kind"].as_str() == Some("overloaded") {
                assert_eq!(obj["error"].as_str(), Some("overloaded"));
                let retry = obj["retry_after"].as_u64().unwrap();
                assert!(retry >= 1);
                saw_overload = Some(i);
                break;
            }
        }
        assert!(saw_overload.is_some(), "bucket must eventually overflow");
        // Identical engines overload at the identical request index.
        let cfg = ServeConfig {
            queue_capacity: 80,
            drain_per_request: 10,
            train_cost: 64,
            ..tiny_config()
        };
        let mut twin = ServeEngine::new(cfg);
        for i in 0..40 {
            let obj = parse_resp(&twin.handle_line(&predict_request("b", 16)));
            if obj["kind"].as_str() == Some("overloaded") {
                assert_eq!(
                    Some(i),
                    saw_overload,
                    "overload point must be deterministic"
                );
                break;
            }
        }
    }

    #[test]
    fn saturated_costs_are_refused_not_wrapped() {
        let cfg = ServeConfig {
            queue_capacity: u64::MAX,
            train_cost: u64::MAX,
            ..tiny_config()
        };
        let mut engine = ServeEngine::new(cfg);
        let req = predict_request("m", 2).replacen(
            "\"kind\"",
            &format!("\"deadline\":{},\"kind\"", u64::MAX),
            1,
        );
        let obj = parse_resp(&engine.handle_line(&req));
        assert_eq!(obj["error"].as_str(), Some("deadline-exceeded"));
        assert_eq!(engine.tick(), 0, "a refused request must not train");
    }

    #[test]
    fn too_large_requests_are_refused_before_parse() {
        let cfg = ServeConfig {
            max_request_bytes: 64,
            ..tiny_config()
        };
        let mut engine = ServeEngine::new(cfg);
        let obj = parse_resp(&engine.handle_line(&predict_request("big", 8)));
        assert_eq!(obj["error"].as_str(), Some("too-large"));
    }

    #[test]
    fn pareto_returns_nondominated_set() {
        let mut engine = ServeEngine::new(tiny_config());
        let dims = ExperimentConfig::default().space().dims();
        let pts: Vec<String> = (0..4).map(|i| point_json(dims, 1.5 + i as f64)).collect();
        let req = format!(
            "{{\"schema\":\"dynawave-serve\",\"v\":1,\"kind\":\"pareto\",\
             \"benchmark\":\"gcc\",\"points\":[{}]}}",
            pts.join(",")
        );
        let obj = parse_resp(&engine.handle_line(&req));
        assert_eq!(obj["kind"].as_str(), Some("ok"));
        let frontier = obj["results"].as_array().unwrap();
        assert!(!frontier.is_empty() && frontier.len() <= 4);
        for f in frontier {
            let o = f.as_object().unwrap();
            assert!(o["cpi"].as_f64().unwrap().is_finite());
            assert!(o["power"].as_f64().unwrap().is_finite());
            assert!(o["avf"].as_f64().unwrap().is_finite());
        }
    }

    #[test]
    fn topk_respects_budget_and_order() {
        let mut engine = ServeEngine::new(tiny_config());
        let dims = ExperimentConfig::default().space().dims();
        let pts: Vec<String> = (0..5).map(|i| point_json(dims, 1.5 + i as f64)).collect();
        let req = format!(
            "{{\"schema\":\"dynawave-serve\",\"v\":1,\"kind\":\"topk\",\"k\":3,\
             \"power_budget\":1e9,\"benchmark\":\"gcc\",\"points\":[{}]}}",
            pts.join(",")
        );
        let obj = parse_resp(&engine.handle_line(&req));
        assert_eq!(obj["kind"].as_str(), Some("ok"));
        let ranked = obj["results"].as_array().unwrap();
        assert_eq!(ranked.len(), 3);
        let cpis: Vec<f64> = ranked
            .iter()
            .map(|r| r.as_object().unwrap()["cpi"].as_f64().unwrap())
            .collect();
        assert!(cpis.windows(2).all(|w| w[0] <= w[1]), "{cpis:?}");
        // An impossible power budget excludes everything.
        let req = req.replacen("1e9", "-1e9", 1);
        let obj = parse_resp(&engine.handle_line(&req));
        assert_eq!(obj["results"].as_array().unwrap().len(), 0);
    }

    #[test]
    fn sweep_varies_one_axis() {
        let mut engine = ServeEngine::new(tiny_config());
        let dims = ExperimentConfig::default().space().dims();
        let req = format!(
            "{{\"schema\":\"dynawave-serve\",\"v\":1,\"kind\":\"sweep\",\
             \"benchmark\":\"gcc\",\"metric\":\"cpi\",\"base\":{},\
             \"axis\":0,\"values\":[2,4,8]}}",
            point_json(dims, 2.0)
        );
        let obj = parse_resp(&engine.handle_line(&req));
        assert_eq!(obj["kind"].as_str(), Some("ok"));
        let results = obj["results"].as_array().unwrap();
        assert_eq!(results.len(), 3);
        let values: Vec<f64> = results
            .iter()
            .map(|r| r.as_object().unwrap()["value"].as_f64().unwrap())
            .collect();
        assert_eq!(values, vec![2.0, 4.0, 8.0]);
        // An out-of-space axis is a typed error.
        let req = req.replacen("\"axis\":0", "\"axis\":99", 1);
        let obj = parse_resp(&engine.handle_line(&req));
        assert_eq!(obj["error"].as_str(), Some("bad-field"));
    }

    #[test]
    fn identical_engines_produce_identical_transcripts() {
        let inputs: Vec<String> = vec![
            predict_request("a", 2),
            "garbage".to_string(),
            predict_request("b", 1),
            "{\"schema\":\"dynawave-serve\",\"v\":1,\"kind\":\"nope\",\
             \"benchmark\":\"gcc\"}"
                .to_string(),
        ];
        let run = || {
            let mut engine = ServeEngine::new(tiny_config());
            inputs
                .iter()
                .map(|l| engine.handle_line(l))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chaos_solver_faults_degrade_but_never_kill() {
        use dynawave_numeric::fault::{FaultKind, FaultPlan};
        let plan = FaultPlan::new(0x5E12)
            .rate(0.6)
            .targeting(&FaultSite::SOLVER_SITES)
            .kinds(&[FaultKind::Singular, FaultKind::NonFinite]);
        let run = || {
            fault::with_plan(plan.clone(), || {
                let mut engine = ServeEngine::new(tiny_config());
                (0..3)
                    .map(|i| engine.handle_line(&predict_request(&format!("c{i}"), 2)))
                    .collect::<Vec<_>>()
            })
        };
        let (a, ra) = run();
        let (b, rb) = run();
        assert_eq!(a, b, "chaos transcripts must be deterministic");
        assert_eq!(ra.fired, rb.fired);
        assert!(ra.fired > 0, "plan must actually inject");
        for line in &a {
            let obj = parse_resp(line);
            // Every response is well-formed ok/partial (degraded rungs
            // are fine; the ladder absorbs the faults).
            let kind = obj["kind"].as_str().unwrap();
            assert!(kind == "ok" || kind == "partial", "{line}");
            assert!(obj["rung"].as_str().is_some());
        }
        // At least one response reports a degraded rung under rate 0.6.
        let degraded = a
            .iter()
            .any(|l| parse_resp(l)["rung"].as_str() != Some("primary"));
        assert!(degraded, "60% fault rate must visibly degrade: {a:?}");
    }

    #[test]
    fn journal_fault_disables_journaling_but_serving_continues() {
        use dynawave_numeric::fault::{FaultKind, FaultPlan};
        let dir = std::env::temp_dir().join("dynawave_serve_jfault_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("serve.journal");
        let cfg = tiny_config();
        let plan = FaultPlan::new(3)
            .rate(1.0)
            .targeting(&[FaultSite::JournalAppend])
            .kinds(&[FaultKind::EarlyStop]);
        let ((), report) = fault::with_plan(plan, || {
            let mut journal = ServeJournal::create(&path, &cfg).unwrap();
            let mut engine = ServeEngine::new(cfg.clone());
            let r1 = engine.handle_line("bad request 1");
            journal.append(&r1);
            assert!(journal.is_broken(), "rate-1.0 fault must break append");
            let r2 = engine.handle_line("bad request 2");
            journal.append(&r2); // no-op, no second consult
            assert!(r2.contains("\"seq\":2"), "serving must continue");
        });
        assert_eq!(report.fired, 1, "broken journal stops consulting");
        // Journal is a clean prefix: header only, no torn bytes.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, cfg.journal_header());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_rejects_foreign_journals() {
        let dir = std::env::temp_dir().join("dynawave_serve_replay_guard");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("guard.journal");
        std::fs::write(&path, "not a journal\n").unwrap();
        assert!(matches!(
            replay(tiny_config(), "", &path),
            Err(ReplayError::BadMagic)
        ));
        // Wrong fingerprint: a different config's header.
        let other = ServeConfig {
            default_deadline: 1,
            ..tiny_config()
        };
        std::fs::write(&path, other.journal_header()).unwrap();
        assert!(matches!(
            replay(tiny_config(), "", &path),
            Err(ReplayError::Fingerprint { .. })
        ));
        // More journaled responses than requests.
        let mut text = tiny_config().journal_header();
        text.push_str("{\"fake\":1}\n");
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            replay(tiny_config(), "", &path),
            Err(ReplayError::ExcessResponses { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn error_display_and_codes_are_stable() {
        let cases: Vec<ServeError> = vec![
            ServeError::BadJson("x".into()),
            ServeError::NotAnObject,
            ServeError::UnknownSchema,
            ServeError::UnsupportedVersion("2".into()),
            ServeError::MissingField("kind"),
            ServeError::BadField {
                field: "k",
                expected: "a positive integer",
            },
            ServeError::UnknownKind("zap".into()),
            ServeError::UnknownBenchmark("quake3".into()),
            ServeError::UnknownMetric("mips".into()),
            ServeError::BadArity {
                expected: 9,
                found: 2,
            },
            ServeError::NonFiniteInput,
            ServeError::EmptyBatch,
            ServeError::TooLarge {
                found: 10,
                limit: 5,
            },
            ServeError::DeadlineExceeded {
                budget: 1,
                needed: 2,
            },
            ServeError::Overloaded { retry_after: 3 },
            ServeError::TrainFailed("boom".into()),
        ];
        for e in &cases {
            assert!(!e.to_string().is_empty());
            assert!(e.code().chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
        // Codes are unique.
        let mut codes: Vec<&str> = cases.iter().map(ServeError::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), cases.len());
    }

    fn stats_request(id: &str) -> String {
        format!(
            "{{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"{id}\",\
             \"kind\":\"stats\"}}"
        )
    }

    #[test]
    fn stats_probe_is_side_effect_free_and_counts_everything() {
        let mut engine = ServeEngine::new(tiny_config());
        engine.handle_line(&predict_request("a", 2));
        engine.handle_line("garbage");
        engine.handle_line(&predict_request("b", 3));
        let tick_before = engine.tick();
        let load_before = engine.load;
        let resp = engine.handle_line(&stats_request("s1"));
        assert_eq!(engine.tick(), tick_before, "stats must cost zero ticks");
        let obj = parse_resp(&resp);
        assert_eq!(obj["kind"].as_str(), Some("stats"));
        assert_eq!(obj["id"].as_str(), Some("s1"));
        assert_eq!(obj["seq"].as_u64(), Some(4));
        assert!(!obj.contains_key("rung"), "stats is not model-backed");
        assert!(!obj.contains_key("results"));
        let stats = obj["stats"].as_object().unwrap();
        assert_eq!(stats["v"].as_u64(), Some(1));
        let requests = stats["requests"].as_object().unwrap();
        assert_eq!(requests["predict"].as_u64(), Some(2));
        assert_eq!(requests["stats"].as_u64(), Some(1), "probe counts itself");
        assert_eq!(requests["invalid"].as_u64(), Some(1));
        let outcomes = stats["outcomes"].as_object().unwrap();
        assert_eq!(outcomes["ok"].as_u64(), Some(2));
        assert_eq!(outcomes["error"].as_u64(), Some(1));
        assert_eq!(
            outcomes["stats"].as_u64(),
            Some(1),
            "includes this response"
        );
        // sum(requests)+invalid == sum(outcomes) == seq for every snapshot.
        let req_total: u64 = requests.values().map(|v| v.as_u64().unwrap()).sum();
        let out_total: u64 = outcomes
            .iter()
            .filter(|(k, _)| k.as_str() != "internal")
            .map(|(_, v)| v.as_u64().unwrap())
            .sum();
        assert_eq!(req_total, 4);
        assert_eq!(out_total, 4);
        // Latency: both predict requests trained or predicted under the
        // histogram's top bound, and errors tally as zero-tick.
        let latency = stats["latency"].as_object().unwrap();
        let predict = latency["predict"].as_object().unwrap();
        let counts: u64 = predict["counts"]
            .as_array()
            .unwrap()
            .iter()
            .map(|c| c.as_u64().unwrap())
            .sum();
        assert_eq!(counts, 2);
        assert!(!latency.contains_key("stats"), "stats has no histogram");
        // Model traffic: one miss (train), one hit on the second predict.
        let models = stats["models"].as_object().unwrap();
        assert_eq!(models["misses"].as_u64(), Some(1));
        assert_eq!(models["hits"].as_u64(), Some(1));
        assert_eq!(models["trained"].as_u64(), Some(1));
        // Deadline ledger: both predicts granted the default budget.
        let deadline = stats["deadline"].as_object().unwrap();
        assert_eq!(deadline["granted"].as_u64(), Some(2 * 4096));
        assert_eq!(deadline["used"].as_u64(), Some(engine.tick()));
        // Load/journal echo engine state. The probe itself drained the
        // bucket on entry, like every request.
        let load = stats["load"].as_object().unwrap();
        assert_eq!(load["level"].as_u64(), Some(load_before.saturating_sub(32)));
        assert_eq!(load["capacity"].as_u64(), Some(1 << 14));
        assert_eq!(stats["journal"].as_str(), Some("none"));
        // The line passes the shared stream validator.
        let summary = dynawave_obs::validate_stream(&resp);
        assert!(summary.is_clean(), "{:?}", summary.errors);
        assert_eq!(summary.kinds.get("serve:stats"), Some(&1));
    }

    #[test]
    fn stats_snapshot_reflects_journal_state_and_rungs() {
        use dynawave_numeric::fault::{FaultKind, FaultPlan};
        let mut engine = ServeEngine::new(tiny_config());
        engine.note_journal_attached();
        let obj = parse_resp(&engine.handle_line(&stats_request("j1")));
        assert_eq!(
            obj["stats"].as_object().unwrap()["journal"].as_str(),
            Some("active")
        );
        engine.note_journal_broken();
        let obj = parse_resp(&engine.handle_line(&stats_request("j2")));
        assert_eq!(
            obj["stats"].as_object().unwrap()["journal"].as_str(),
            Some("broken")
        );
        // Solver chaos shows up in the rung counters.
        let plan = FaultPlan::new(0x5E12)
            .rate(0.6)
            .targeting(&FaultSite::SOLVER_SITES)
            .kinds(&[FaultKind::Singular, FaultKind::NonFinite]);
        let (line, report) = fault::with_plan(plan, || {
            let mut engine = ServeEngine::new(tiny_config());
            engine.handle_line(&predict_request("c", 2));
            engine.handle_line(&stats_request("s"))
        });
        assert!(report.fired > 0);
        let obj = parse_resp(&line);
        let rungs = obj["stats"].as_object().unwrap()["rungs"]
            .as_object()
            .unwrap();
        let total: u64 = rungs.values().map(|v| v.as_u64().unwrap()).sum();
        assert_eq!(total, 1, "one model-backed response");
        assert_eq!(
            rungs["primary"].as_u64(),
            Some(0),
            "60% fault rate must degrade the one response: {rungs:?}"
        );
    }

    #[test]
    fn stats_snapshots_are_deterministic_across_identical_sessions() {
        let run = || {
            let mut engine = ServeEngine::new(tiny_config());
            engine.handle_line(&predict_request("a", 2));
            engine.handle_line("junk");
            engine.handle_line(&stats_request("s"))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fingerprint_is_sensitive_to_serving_knobs() {
        let base = tiny_config().fingerprint();
        assert_eq!(base, tiny_config().fingerprint());
        let mut other = tiny_config();
        other.train_cost += 1;
        assert_ne!(base, other.fingerprint());
        let mut other = tiny_config();
        other.config.seed ^= 1;
        assert_ne!(base, other.fingerprint());
        let mut other = tiny_config();
        other.models_dir = Some(PathBuf::from("/tmp/models"));
        assert_ne!(base, other.fingerprint());
    }

    #[test]
    fn parked_training_sets_drain_as_their_models_arrive() {
        let cfg = tiny_config();
        let exp = &cfg.config;
        let dir = std::env::temp_dir().join("dynawave_serve_parked_test");
        std::fs::create_dir_all(&dir).unwrap();
        let power = crate::dataset::collect_traces(
            Benchmark::Gcc,
            &exp.train_design(),
            Metric::Power,
            &exp.sim_options(),
        );
        let (model, _) =
            WaveletNeuralPredictor::train_resilient(&power, &exp.predictor, &exp.recovery).unwrap();
        std::fs::write(dir.join("gcc_power.dynawave"), persist::to_string(&model)).unwrap();
        let mut engine = ServeEngine::new(ServeConfig {
            models_dir: Some(dir),
            ..cfg
        });
        let parked = |e: &ServeEngine| e.parked.keys().map(|k| k.1).collect::<Vec<_>>();

        // A CPI miss parks the other two domain sets.
        engine.ensure_model(Benchmark::Gcc, Metric::Cpi).unwrap();
        assert_eq!(parked(&engine), [Metric::Power, Metric::Avf]);
        // A snapshot fills power and drops its parked set.
        engine.ensure_model(Benchmark::Gcc, Metric::Power).unwrap();
        assert_eq!(engine.stats.models_loaded, 1);
        assert_eq!(parked(&engine), [Metric::Avf]);
        // AVF trains from its parked set; nothing stays behind.
        engine.ensure_model(Benchmark::Gcc, Metric::Avf).unwrap();
        assert_eq!(engine.stats.models_trained, 2);
        assert!(engine.parked.is_empty());
        // A metric outside the domains parks only what has no model yet.
        engine.ensure_model(Benchmark::Gcc, Metric::IqAvf).unwrap();
        assert!(engine.parked.is_empty());
        engine.ensure_model(Benchmark::Mcf, Metric::IqAvf).unwrap();
        assert_eq!(engine.parked.len(), 3);
    }
}
