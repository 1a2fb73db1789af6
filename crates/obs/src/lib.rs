//! Deterministic tracing, metrics, and profiling for the dynawave pipeline.
//!
//! The pipeline (trace generation → interval simulation → DWT →
//! per-coefficient RBF training → reconstruction → campaign aggregation)
//! is instrumented with spans, counters, gauges, and histograms. All of
//! it flows through a thread-local [`Recorder`] that is *off by default*:
//! when no recorder is installed, every instrumentation call is a cheap
//! early-return, so library behaviour and report bytes are unchanged.
//!
//! Determinism is the design center. The default time source is
//! [`TickClock`] — a monotonic counter, not wall time — so two identical
//! seeded runs emit byte-identical event streams (see
//! `tests/determinism.rs` at the workspace root). Wall-clock timing lives
//! on the other side of the harness boundary, in `dynawave-bench`.
//!
//! Modules:
//!
//! * [`event`] — the line model: [`Event`] and [`BenchRecord`], each
//!   with its one encoder and its one decoder, which holds the line
//!   type's field rules.
//! * [`validate`] — stream validation on top of those decoders:
//!   `seq`/`tick` order, per-kind and per-stage tallies, and the serve
//!   response lines only the validator reads.
//! * [`analyze`] — the readers ([`parse_events`], [`BenchSnapshot`]),
//!   the bench ratchet, and the one stream aggregator,
//!   [`StreamAnalysis`], behind `obs_report` and the "Pipeline profile"
//!   report section.
//! * [`metrics`], [`clock`], [`json`] and [`schema`] — the recorder's
//!   instruments, time sources, JSON parser and canonical vocabulary.
//!
//! ```
//! use dynawave_obs as obs;
//!
//! obs::install(obs::Recorder::with_tick_clock());
//! {
//!     let _span = obs::span("sim.run_trace");
//!     obs::counter_add("sim.intervals_retired", 128);
//! }
//! let events = obs::drain().unwrap();
//! let text = obs::encode_lines(&events);
//! assert!(obs::validate_stream(&text).is_clean());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analyze;
pub mod clock;
pub mod event;
pub mod json;
pub mod metrics;
pub mod schema;
pub mod validate;

pub use analyze::{
    parse_events, BenchComparison, BenchDelta, BenchSnapshot, CompareOptions, DeltaFlag,
    SloOutcome, SloSpec, SpanStats, StreamAnalysis, UnitLatency, HEARTBEAT_MARKER,
    SERVE_DEGRADED_MARKER, SERVE_OVERLOADED_MARKER,
};
pub use clock::{Clock, TickClock};
pub use event::{
    bench_json_line, bench_json_line_with_unit, encode_lines, BenchRecord, Event, EventKind,
    BENCH_SCHEMA_VERSION, BENCH_UNIT_NS, SCHEMA_NAME, SCHEMA_VERSION,
};
pub use metrics::{Histogram, MetricSet};
pub use validate::{validate_stream, SchemaValidator, ValidationSummary};

use std::cell::RefCell;
use std::collections::BTreeMap;

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Collects events and metrics for one traced run.
///
/// A recorder does nothing until [`install`]ed into the thread-local
/// slot; instrumented code then feeds it through the free functions
/// ([`span`], [`counter_add`], ...). [`drain`] (or [`take`] +
/// [`Recorder::finish`]) returns the ordered event stream, with final
/// metric snapshots appended in sorted name order.
pub struct Recorder {
    clock: Box<dyn Clock>,
    events: Vec<Event>,
    metrics: MetricSet,
    seq: u64,
    depth: u64,
    /// Last emission tick per marker name, for [`Recorder::marker_latency`]
    /// deltas. Deliberately *not* carried through [`Recorder::absorb_workers`]:
    /// latencies are a per-worker-stream notion.
    marker_ticks: BTreeMap<String, u64>,
    /// Flight-recorder capacity: when set, only the last `n` events are
    /// retained (oldest overwritten in place). Metrics still accumulate
    /// normally — their memory is bounded by instrument-name count, not
    /// event count.
    ring: Option<usize>,
    /// Index of the chronologically oldest event while the ring is full.
    ring_start: usize,
    /// Events overwritten by ring wrap-around since installation.
    dropped: u64,
}

impl Recorder {
    /// A recorder on the deterministic [`TickClock`] — the right choice
    /// everywhere except wall-time benchmarking.
    pub fn with_tick_clock() -> Self {
        Recorder::with_clock(Box::new(TickClock::new()))
    }

    /// A recorder on a caller-supplied clock (e.g. the bench harness's
    /// wall clock).
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        Recorder {
            clock,
            events: Vec::new(),
            metrics: MetricSet::new(),
            seq: 0,
            depth: 0,
            marker_ticks: BTreeMap::new(),
            ring: None,
            ring_start: 0,
            dropped: 0,
        }
    }

    /// A flight recorder: a tick-clock recorder that retains only the
    /// last `capacity` events, overwriting the oldest in place. Dumping
    /// it ([`Recorder::finish`] / [`drain`]) yields the surviving window
    /// in chronological order with its *original* `seq`/`tick` numbers —
    /// still a valid obs stream (`seq` strictly increasing, `tick`
    /// non-decreasing), just one that starts mid-flight. Metric
    /// snapshots are appended as usual and are never evicted.
    pub fn flight_recorder(capacity: usize) -> Self {
        let mut rec = Recorder::with_tick_clock();
        rec.ring = Some(capacity.max(1));
        rec
    }

    /// Events lost to ring wrap-around so far (always 0 outside
    /// flight-recorder mode).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Restores chronological event order after ring wrap-around and
    /// leaves ring mode, so subsequent pushes (metric snapshots, a final
    /// dump marker) append normally.
    fn unwrap_ring(&mut self) {
        if self.ring.take().is_some() {
            self.events.rotate_left(self.ring_start);
            self.ring_start = 0;
        }
    }

    /// Emits a marker with `detail` and records the tick delta since the
    /// previous marker of the same `name` (or since tick 0 for the first)
    /// into the fixed-bound histogram `hist`.
    ///
    /// This is how campaign executors publish per-unit latency: the delta
    /// between consecutive heartbeats counts the recorder activity one
    /// work unit generated, which on the deterministic [`TickClock`] is
    /// identical for every worker split of the same unit set.
    pub fn marker_latency(&mut self, name: &str, detail: &str, hist: &str, bounds: &[f64]) {
        let e = self.push(EventKind::Marker, name);
        e.detail = Some(detail.to_string());
        let tick = e.tick;
        let last = self
            .marker_ticks
            .insert(name.to_string(), tick)
            .unwrap_or(0);
        self.metrics
            .histogram_observe(hist, bounds, tick.saturating_sub(last) as f64);
    }

    fn push(&mut self, kind: EventKind, name: &str) -> &mut Event {
        let tick = self.clock.now();
        let seq = self.seq;
        self.seq += 1;
        let event = Event::new(seq, tick, kind, name);
        match self.ring {
            Some(capacity) if self.events.len() >= capacity => {
                // Ring full: overwrite the oldest slot in place.
                let idx = self.ring_start;
                self.ring_start = (self.ring_start + 1) % capacity;
                self.dropped += 1;
                self.events[idx] = event;
                &mut self.events[idx]
            }
            _ => {
                self.events.push(event);
                // Just pushed, so the vector is non-empty.
                let idx = self.events.len() - 1;
                &mut self.events[idx]
            }
        }
    }

    fn span_enter(&mut self, name: &str) -> (u64, u64) {
        let depth = self.depth;
        self.depth += 1;
        let e = self.push(EventKind::SpanEnter, name);
        e.depth = Some(depth);
        (depth, e.tick)
    }

    fn span_exit(&mut self, name: &str, depth: u64, enter_tick: u64) {
        self.depth = self.depth.saturating_sub(1);
        let e = self.push(EventKind::SpanExit, name);
        e.depth = Some(depth);
        let exit_tick = e.tick;
        e.ticks = Some(exit_tick.saturating_sub(enter_tick));
    }

    /// Number of events recorded so far (metric snapshots not included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.metrics.is_empty()
    }

    /// Merges worker recorders into this one, deterministically.
    ///
    /// Parallel executors give every worker thread its own recorder; this
    /// is the merge sink. Each worker's event stream is split into
    /// *segments*: runs of events ending at a `boundary` marker (one per
    /// completed work unit, the marker's `detail` naming the unit). All
    /// segments are then stably sorted by `(order(detail), worker index)`
    /// and appended here with fresh `seq`/`tick` numbering, so the merged
    /// stream is byte-identical for any worker count as long as the
    /// segment set is — the canonical unit order, not the racy thread
    /// schedule, decides placement. Events after a worker's last boundary
    /// marker (an aborted unit's partial span, say) sort after every
    /// complete segment, in worker order.
    ///
    /// Renumbering keeps the schema validator green: `seq` stays strictly
    /// increasing and `tick` non-decreasing (each appended event takes the
    /// next tick from this recorder's clock). Span enter/exit pairs must
    /// not cross a boundary marker, otherwise their `ticks` deltas are
    /// recomputed from the merged clock. Worker metrics fold in through
    /// [`MetricSet::merge`] — counters sum, histograms with identical
    /// bounds sum, gauges take the value from the highest-ordered segment
    /// owner's set (sets merge in worker order).
    pub fn absorb_workers<F>(&mut self, workers: Vec<Recorder>, boundary: &str, order: F)
    where
        F: Fn(&str) -> u64,
    {
        let mut segments: Vec<(u64, usize, Vec<Event>)> = Vec::new();
        for (worker, recorder) in workers.into_iter().enumerate() {
            let Recorder {
                events, metrics, ..
            } = recorder;
            self.metrics.merge(&metrics);
            let mut current: Vec<Event> = Vec::new();
            for event in events {
                let boundary_key = if event.kind == EventKind::Marker && event.name == boundary {
                    event.detail.as_deref().map(&order)
                } else {
                    None
                };
                current.push(event);
                if let Some(key) = boundary_key {
                    segments.push((key, worker, std::mem::take(&mut current)));
                }
            }
            if !current.is_empty() {
                segments.push((u64::MAX, worker, current));
            }
        }
        segments.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        for (_, _, segment) in segments {
            let mut enter_ticks: Vec<u64> = Vec::new();
            for mut event in segment {
                event.seq = self.seq;
                self.seq += 1;
                event.tick = self.clock.now();
                match event.kind {
                    EventKind::SpanEnter => enter_ticks.push(event.tick),
                    EventKind::SpanExit => {
                        // Recompute the delta on the merged clock so exit
                        // ticks stay consistent with their (renumbered)
                        // enters. Unmatched exits keep the worker's delta.
                        if let Some(enter) = enter_ticks.pop() {
                            event.ticks = Some(event.tick.saturating_sub(enter));
                        }
                    }
                    _ => {}
                }
                self.events.push(event);
            }
        }
    }

    /// Consumes the recorder, appending one snapshot event per metric
    /// (counters, then gauges, then histograms, each in sorted name
    /// order) and returning the full ordered stream.
    pub fn finish(mut self) -> Vec<Event> {
        self.unwrap_ring();
        let metrics = std::mem::take(&mut self.metrics);
        for (name, count) in metrics.counters() {
            let name = name.to_string();
            let e = self.push(EventKind::Counter, &name);
            e.count = Some(count);
        }
        for (name, value) in metrics.gauges() {
            let name = name.to_string();
            let e = self.push(EventKind::Gauge, &name);
            e.value = Some(value);
        }
        for (name, hist) in metrics.histograms() {
            let name = name.to_string();
            let bounds = hist.bounds().to_vec();
            let counts = hist.counts().to_vec();
            let e = self.push(EventKind::Histogram, &name);
            e.bounds = Some(bounds);
            e.counts = Some(counts);
        }
        self.events
    }
}

/// Installs `recorder` as the thread's active recorder, returning the
/// previous one (if any) so callers can restore it.
pub fn install(recorder: Recorder) -> Option<Recorder> {
    RECORDER.with(|slot| slot.borrow_mut().replace(recorder))
}

/// Removes and returns the thread's active recorder without flushing
/// metric snapshots. Most callers want [`drain`] instead.
pub fn take() -> Option<Recorder> {
    RECORDER.with(|slot| slot.borrow_mut().take())
}

/// Removes the active recorder and returns its finished event stream
/// (metric snapshots appended). `None` when no recorder was installed.
pub fn drain() -> Option<Vec<Event>> {
    take().map(Recorder::finish)
}

/// True when a recorder is installed on this thread.
pub fn is_enabled() -> bool {
    RECORDER.with(|slot| slot.borrow().is_some())
}

fn with_recorder(f: impl FnOnce(&mut Recorder)) {
    RECORDER.with(|slot| {
        // borrow_mut cannot re-enter: instrumentation helpers never call
        // user code while holding the borrow.
        if let Some(rec) = slot.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// An RAII span: records a `span_enter` on creation and the matching
/// `span_exit` (with tick delta) when dropped. A no-op when tracing is
/// disabled.
#[must_use = "a span guard records its exit when dropped"]
pub struct SpanGuard {
    name: &'static str,
    state: Option<(u64, u64)>,
}

impl SpanGuard {
    fn disabled() -> Self {
        SpanGuard {
            name: "",
            state: None,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((depth, enter_tick)) = self.state.take() {
            with_recorder(|rec| rec.span_exit(self.name, depth, enter_tick));
        }
    }
}

/// Opens a span named `name` (dotted `stage.detail` form). Hold the
/// returned guard for the duration of the work.
pub fn span(name: &'static str) -> SpanGuard {
    let mut guard = SpanGuard::disabled();
    with_recorder(|rec| {
        guard.name = name;
        guard.state = Some(rec.span_enter(name));
    });
    guard
}

/// Adds `delta` to the named counter.
pub fn counter_add(name: &str, delta: u64) {
    with_recorder(|rec| rec.metrics.counter_add(name, delta));
}

/// Sets the named gauge (non-finite values are dropped).
pub fn gauge_set(name: &str, value: f64) {
    with_recorder(|rec| rec.metrics.gauge_set(name, value));
}

/// Records `value` into the named fixed-bound histogram.
pub fn histogram_observe(name: &str, bounds: &[f64], value: f64) {
    with_recorder(|rec| rec.metrics.histogram_observe(name, bounds, value));
}

/// Emits a point event.
pub fn marker(name: &str) {
    with_recorder(|rec| {
        rec.push(EventKind::Marker, name);
    });
}

/// Emits a point event with free-form detail text.
pub fn marker_with_detail(name: &str, detail: &str) {
    with_recorder(|rec| {
        let e = rec.push(EventKind::Marker, name);
        e.detail = Some(detail.to_string());
    });
}

/// Emits a marker with detail and records the tick delta since the
/// previous same-named marker into the `hist` histogram. See
/// [`Recorder::marker_latency`].
pub fn marker_latency(name: &str, detail: &str, hist: &str, bounds: &[f64]) {
    with_recorder(|rec| rec.marker_latency(name, detail, hist, bounds));
}

/// Merges worker recorders into this thread's active recorder via
/// [`Recorder::absorb_workers`]. A no-op (the workers are dropped) when no
/// recorder is installed — matching every other free function here.
pub fn absorb_workers<F>(workers: Vec<Recorder>, boundary: &str, order: F)
where
    F: Fn(&str) -> u64,
{
    with_recorder(|rec| rec.absorb_workers(workers, boundary, order));
}

/// Opens a span scoped to the rest of the enclosing block:
/// `span!("sim.run_trace");` is shorthand for binding [`span`]'s guard
/// to a local.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _dynawave_obs_span_guard = $crate::span($name);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_line_validates_under_obs_schema() {
        let line = bench_json_line("wavelet/wavedec_haar/128", 1234.0, 1200.0, 1300.0, 512, 128);
        assert!(line.contains("\"schema\":\"dynawave-obs\""), "{line}");
        assert!(line.contains("\"schema_version\":2"), "{line}");
        assert!(line.contains("\"median_ns\":1234"), "{line}");
        assert!(!line.contains("\"unit\""), "ns unit stays implicit: {line}");
        let summary = validate_stream(&line);
        assert!(summary.is_clean(), "{:?}", summary.errors);
        assert_eq!(summary.kinds.get("bench"), Some(&1));
        let snap = BenchSnapshot::parse(&line).unwrap();
        let record = snap.get("wavelet/wavedec_haar/128").unwrap();
        assert_eq!(record.unit, BENCH_UNIT_NS);
        assert_eq!(record.schema_version, 2);
    }

    #[test]
    fn bench_json_line_with_unit_names_derived_measurements() {
        let line = bench_json_line_with_unit(
            "campaign/full_space/speedup_x1000",
            "ratio_x1000",
            3841.0,
            3700.0,
            3900.0,
            1,
            0,
        );
        assert!(line.contains("\"unit\":\"ratio_x1000\""), "{line}");
        let summary = validate_stream(&line);
        assert!(summary.is_clean(), "{:?}", summary.errors);
        let snap = BenchSnapshot::parse(&line).unwrap();
        let record = snap.get("campaign/full_space/speedup_x1000").unwrap();
        assert_eq!(record.unit, "ratio_x1000");
    }

    /// Serializes tests that touch the thread-local recorder slot.
    /// `cargo test` may run them on the same thread pool, so each test
    /// must leave the slot empty.
    fn with_clean_slot(f: impl FnOnce()) {
        let prior = take();
        f();
        let _ = take();
        if let Some(prior) = prior {
            install(prior);
        }
    }

    #[test]
    fn disabled_instrumentation_is_a_no_op() {
        with_clean_slot(|| {
            assert!(!is_enabled());
            {
                let _g = span("sim.run_trace");
                counter_add("sim.intervals_retired", 1);
                gauge_set("wavelet.energy", 0.5);
                marker("campaign.heartbeat");
            }
            assert!(drain().is_none());
        });
    }

    #[test]
    fn spans_nest_and_measure_tick_deltas() {
        with_clean_slot(|| {
            install(Recorder::with_tick_clock());
            {
                let _outer = span("predictor.train");
                let _inner = span("wavelet.wavedec");
            }
            let events = drain().unwrap();
            assert_eq!(events.len(), 4);
            assert_eq!(events[0].kind, EventKind::SpanEnter);
            assert_eq!(events[0].depth, Some(0));
            assert_eq!(events[1].depth, Some(1));
            // Inner span exits first (reverse drop order).
            assert_eq!(events[2].name, "wavelet.wavedec");
            assert_eq!(events[2].ticks, Some(1));
            assert_eq!(events[3].name, "predictor.train");
            assert_eq!(events[3].ticks, Some(3));
            let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, vec![0, 1, 2, 3]);
        });
    }

    #[test]
    fn metrics_flush_as_sorted_snapshots() {
        with_clean_slot(|| {
            install(Recorder::with_tick_clock());
            counter_add("b.two", 2);
            counter_add("a.one", 1);
            gauge_set("g.x", 1.25);
            histogram_observe("h.y", &[10.0], 3.0);
            let events = drain().unwrap();
            let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
            assert_eq!(names, vec!["a.one", "b.two", "g.x", "h.y"]);
            assert_eq!(events[3].counts, Some(vec![1, 0]));
        });
    }

    #[test]
    fn two_identical_runs_encode_identically() {
        with_clean_slot(|| {
            let run = || {
                install(Recorder::with_tick_clock());
                {
                    let _g = span("sim.run_trace");
                    counter_add("sim.intervals_retired", 64);
                    marker_with_detail("campaign.resumed_from", "unit 3");
                }
                encode_lines(&drain().unwrap())
            };
            let a = run();
            let b = run();
            assert_eq!(a, b);
            assert!(validate_stream(&a).is_clean());
        });
    }

    #[test]
    fn span_macro_scopes_to_block_end() {
        with_clean_slot(|| {
            install(Recorder::with_tick_clock());
            {
                span!("neural.rbf_fit");
                marker("neural.mid");
            }
            let events = drain().unwrap();
            assert_eq!(events[0].kind, EventKind::SpanEnter);
            assert_eq!(events[1].name, "neural.mid");
            assert_eq!(events[2].kind, EventKind::SpanExit, "exit after marker");
        });
    }

    #[test]
    fn absorb_workers_orders_segments_canonically_and_renumbers() {
        with_clean_slot(|| {
            // Two workers complete interleaved units; the merge must land
            // them in canonical unit order regardless of which worker ran
            // them, with strictly increasing seq and valid span deltas.
            let make_worker = |units: &[&str]| {
                let mut rec = Recorder::with_tick_clock();
                for unit in units {
                    let tick = rec.clock.now();
                    let seq = rec.seq;
                    rec.seq += 1;
                    rec.events
                        .push(Event::new(seq, tick, EventKind::SpanEnter, "sim.run_trace"));
                    rec.events.last_mut().unwrap().depth = Some(0);
                    let tick = rec.clock.now();
                    let seq = rec.seq;
                    rec.seq += 1;
                    rec.events
                        .push(Event::new(seq, tick, EventKind::SpanExit, "sim.run_trace"));
                    rec.events.last_mut().unwrap().depth = Some(0);
                    rec.events.last_mut().unwrap().ticks = Some(1);
                    let tick = rec.clock.now();
                    let seq = rec.seq;
                    rec.seq += 1;
                    rec.events
                        .push(Event::new(seq, tick, EventKind::Marker, "unit.done"));
                    rec.events.last_mut().unwrap().detail = Some(unit.to_string());
                    rec.metrics.counter_add("units", 1);
                }
                rec
            };
            let worker_a = make_worker(&["1", "3"]);
            let worker_b = make_worker(&["0", "2"]);
            install(Recorder::with_tick_clock());
            marker("before");
            absorb_workers(vec![worker_a, worker_b], "unit.done", |d| {
                d.parse::<u64>().unwrap_or(u64::MAX)
            });
            let events = drain().unwrap();
            let details: Vec<&str> = events
                .iter()
                .filter(|e| e.name == "unit.done")
                .filter_map(|e| e.detail.as_deref())
                .collect();
            assert_eq!(details, vec!["0", "1", "2", "3"]);
            let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, (0..events.len() as u64).collect::<Vec<_>>());
            let stream = encode_lines(&events);
            assert!(validate_stream(&stream).is_clean());
            // Worker counters summed into the main metric snapshot.
            let units = events.iter().find(|e| e.name == "units").unwrap();
            assert_eq!(units.count, Some(4));
        });
    }

    #[test]
    fn absorb_workers_merge_is_identical_for_any_worker_split() {
        with_clean_slot(|| {
            // The same four units split across 1 vs 2 workers must encode
            // to identical bytes after the merge.
            let run_split = |splits: &[&[&str]]| {
                let workers: Vec<Recorder> = splits
                    .iter()
                    .map(|units| {
                        let mut rec = Recorder::with_tick_clock();
                        for unit in *units {
                            let tick = rec.clock.now();
                            let seq = rec.seq;
                            rec.seq += 1;
                            rec.events
                                .push(Event::new(seq, tick, EventKind::Marker, "unit.done"));
                            rec.events.last_mut().unwrap().detail = Some(unit.to_string());
                        }
                        rec
                    })
                    .collect();
                install(Recorder::with_tick_clock());
                absorb_workers(workers, "unit.done", |d| {
                    d.parse::<u64>().unwrap_or(u64::MAX)
                });
                encode_lines(&drain().unwrap())
            };
            let one = run_split(&[&["0", "1", "2", "3"]]);
            let two = run_split(&[&["1", "3"], &["0", "2"]]);
            assert_eq!(one, two);
        });
    }

    #[test]
    fn marker_latency_observes_tick_deltas() {
        with_clean_slot(|| {
            install(Recorder::with_tick_clock());
            let beat = |detail: &str| {
                marker_latency(
                    "campaign.heartbeat",
                    detail,
                    "campaign.unit_latency",
                    &[2.0, 4.0],
                );
            };
            beat("u0"); // tick 1, delta 1 from tick 0
            marker("campaign.other"); // tick 2: unrelated markers don't reset
            beat("u1"); // tick 3, delta 2
            let events = drain().unwrap();
            let markers: Vec<&str> = events
                .iter()
                .filter(|e| e.name == "campaign.heartbeat")
                .filter_map(|e| e.detail.as_deref())
                .collect();
            assert_eq!(markers, vec!["u0", "u1"]);
            let hist = events
                .iter()
                .find(|e| e.name == "campaign.unit_latency")
                .unwrap();
            assert_eq!(hist.bounds, Some(vec![2.0, 4.0]));
            assert_eq!(hist.counts, Some(vec![2, 0, 0]), "deltas 1 and 2");
        });
    }

    #[test]
    fn flight_recorder_keeps_last_n_events_in_order() {
        with_clean_slot(|| {
            install(Recorder::flight_recorder(3));
            for i in 0..7 {
                marker_with_detail("serve.request", &format!("r{i}"));
                counter_add("serve.responses.ok", 1);
            }
            let rec = take().unwrap();
            assert_eq!(rec.dropped(), 4);
            let events = rec.finish();
            // Last 3 markers survive, chronological, original seq/tick,
            // then the (never-evicted) counter snapshot.
            let details: Vec<&str> = events
                .iter()
                .filter(|e| e.kind == EventKind::Marker)
                .filter_map(|e| e.detail.as_deref())
                .collect();
            assert_eq!(details, vec!["r4", "r5", "r6"]);
            assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
            assert!(events.windows(2).all(|w| w[0].tick <= w[1].tick));
            let counter = events.iter().find(|e| e.kind == EventKind::Counter);
            assert_eq!(counter.unwrap().count, Some(7), "metrics never evicted");
            let stream = encode_lines(&events);
            assert!(validate_stream(&stream).is_clean());
        });
    }

    #[test]
    fn flight_recorder_under_capacity_behaves_like_plain_recorder() {
        with_clean_slot(|| {
            install(Recorder::flight_recorder(64));
            {
                let _g = span("serve.request");
                marker("serve.parse");
            }
            let rec = take().unwrap();
            assert_eq!(rec.dropped(), 0);
            let events = rec.finish();
            assert_eq!(events.len(), 3);
            assert_eq!(events[0].seq, 0);
        });
    }

    #[test]
    fn install_returns_previous_recorder() {
        with_clean_slot(|| {
            install(Recorder::with_tick_clock());
            marker("a.one");
            let prev = install(Recorder::with_tick_clock());
            let events = prev.unwrap().finish();
            assert_eq!(events.len(), 1);
            let _ = take();
        });
    }
}
