//! The analysis half of dynawave-obs: bench-snapshot diffing and event
//! stream attribution.
//!
//! The rest of the crate *emits* — deterministic spans, metrics, and the
//! versioned JSON-lines schema. This module consumes those streams,
//! reading lines back through the decoders the validator uses:
//!
//! * [`BenchSnapshot`] / [`BenchComparison`] diff two `BENCH_*.json`
//!   files (obs `"kind":"bench"` lines) into a perf-trajectory report
//!   with **noise-aware ratchet flags**: a delta only counts when it
//!   exceeds both a relative threshold *and* the baseline's min/max
//!   noise band. The `compare_bench` binary is the CLI front end and
//!   `ci.sh --perf` the soft gate.
//! * [`StreamAnalysis`] reads a recorded event stream back in
//!   ([`parse_events`]) and attributes time per stage and per span —
//!   self time vs. inclusive time from span enter/exit deltas — plus
//!   per-campaign-unit latencies from heartbeat markers, top-K slowest
//!   units, and counter/gauge/histogram rollups. The `obs_report`
//!   binary renders it, and `dynawave-core` renders its per-stage rows
//!   as a report's "Pipeline profile" section.
//!
//! Every renderer here emits markdown with a fixed section and field
//! order, sorted (`BTreeMap`) iteration, and shortest round-trip float
//! formatting — output is byte-identical across runs and worker thread
//! counts, which is what lets CI `cmp` two reports instead of eyeballing
//! them.

use crate::event::{BenchRecord, Event, EventKind, ObsLine, BENCH_UNIT_NS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Event stream re-parsing
// ---------------------------------------------------------------------

/// Parses a JSON-lines obs stream back into [`Event`]s.
///
/// Every non-empty line goes through its type's decoder, so this refuses
/// exactly the lines [`crate::validate`] refuses; bench lines
/// (measurements, not recorder state) are then skipped. Stream order
/// (`seq`/`tick`) is not re-checked; that is the validator's job.
///
/// # Errors
///
/// The validator's reason for the first bad line, prefixed `line N:`.
pub fn parse_events(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for line in decode_lines(text) {
        if let (_, ObsLine::Event(event)) = line? {
            events.push(event);
        }
    }
    Ok(events)
}

/// Decodes every non-empty line of `text` with its 1-based line number.
fn decode_lines(text: &str) -> impl Iterator<Item = Result<(usize, ObsLine), String>> + '_ {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            ObsLine::parse(line)
                .map(|decoded| (i + 1, decoded))
                .map_err(|e| format!("line {}: {e}", i + 1))
        })
}

// ---------------------------------------------------------------------
// Bench snapshots and the perf-trajectory ratchet
// ---------------------------------------------------------------------

/// A parsed `BENCH_*.json` file: bench name → record, sorted.
#[derive(Debug, Clone, Default)]
pub struct BenchSnapshot {
    records: BTreeMap<String, BenchRecord>,
}

impl BenchSnapshot {
    /// Parses a snapshot from obs-schema JSON lines.
    ///
    /// Every non-empty line goes through its type's decoder, so this
    /// refuses exactly the lines [`crate::validate`] refuses; event lines
    /// are then skipped (a mixed stream is fine). Each benchmark may
    /// appear only once.
    ///
    /// # Errors
    ///
    /// The validator's reason for the first bad line, or the duplicate,
    /// prefixed `line N:`.
    pub fn parse(text: &str) -> Result<BenchSnapshot, String> {
        let mut records = BTreeMap::new();
        for line in decode_lines(text) {
            if let (line_no, ObsLine::Bench(record)) = line? {
                if records.contains_key(&record.name) {
                    return Err(format!("line {line_no}: duplicate bench '{}'", record.name));
                }
                records.insert(record.name.clone(), record);
            }
        }
        Ok(BenchSnapshot { records })
    }

    /// The record for `name`, if present.
    pub fn get(&self, name: &str) -> Option<&BenchRecord> {
        self.records.get(name)
    }

    /// All records in sorted name order.
    pub fn records(&self) -> impl Iterator<Item = &BenchRecord> {
        self.records.values()
    }

    /// Number of benchmarks in the snapshot.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the snapshot holds no benchmarks.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// How one benchmark's delta classified under the ratchet rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaFlag {
    /// Slower, beyond both the threshold and the noise band (ns only).
    Regression,
    /// Faster, beyond both the threshold and the noise band (ns only).
    Improvement,
    /// A non-ns measurement moved beyond both gates; direction carries
    /// no better/worse meaning for derived units, so it is only *noted*.
    Changed,
    /// Inside the threshold or inside the baseline's noise band.
    Ok,
}

impl DeltaFlag {
    /// Fixed-width label used in the markdown table.
    pub fn label(self) -> &'static str {
        match self {
            DeltaFlag::Regression => "REGRESSION",
            DeltaFlag::Improvement => "improvement",
            DeltaFlag::Changed => "changed",
            DeltaFlag::Ok => "ok",
        }
    }
}

/// Tunables for [`BenchComparison::compare`].
#[derive(Debug, Clone, Copy)]
pub struct CompareOptions {
    /// Relative threshold a median delta must exceed to count
    /// (`0.10` = ±10 %).
    pub threshold: f64,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions { threshold: 0.10 }
    }
}

/// One benchmark's baseline-vs-current comparison row.
#[derive(Debug, Clone)]
pub struct BenchDelta {
    /// Benchmark name.
    pub name: String,
    /// Shared measurement unit of both records.
    pub unit: String,
    /// Baseline median.
    pub base_median: f64,
    /// Current median.
    pub new_median: f64,
    /// Relative delta `(new - base) / base`; `None` when the baseline
    /// median is zero and the current one is not (unbounded).
    pub rel_delta: Option<f64>,
    /// Ratchet classification.
    pub flag: DeltaFlag,
}

/// The full diff of two bench snapshots.
#[derive(Debug, Clone)]
pub struct BenchComparison {
    /// Rows for benchmarks present in both snapshots with matching
    /// units, in sorted name order.
    pub rows: Vec<BenchDelta>,
    /// Benchmarks only in the current snapshot, sorted.
    pub added: Vec<String>,
    /// Benchmarks only in the baseline, sorted.
    pub removed: Vec<String>,
    /// Benchmarks present in both but measured in different units
    /// (`(name, base unit, new unit)`), sorted — never compared.
    pub unit_mismatches: Vec<(String, String, String)>,
    /// The relative threshold the rows were classified under.
    pub threshold: f64,
}

impl BenchComparison {
    /// Diffs `current` against `base` under the noise-aware ratchet
    /// rule: a delta is flagged only when it exceeds `opts.threshold`
    /// relative to the baseline median *and* the current median falls
    /// outside the baseline's `[min, max]` noise band. Direction is
    /// meaningful only for `ns` rows; other units flag as
    /// [`DeltaFlag::Changed`].
    pub fn compare(base: &BenchSnapshot, current: &BenchSnapshot, opts: &CompareOptions) -> Self {
        let mut rows = Vec::new();
        let mut added = Vec::new();
        let mut removed = Vec::new();
        let mut unit_mismatches = Vec::new();
        for record in base.records() {
            match current.get(&record.name) {
                None => removed.push(record.name.clone()),
                Some(new) if new.unit != record.unit => {
                    unit_mismatches.push((
                        record.name.clone(),
                        record.unit.clone(),
                        new.unit.clone(),
                    ));
                }
                Some(new) => rows.push(classify_delta(record, new, opts.threshold)),
            }
        }
        for record in current.records() {
            if base.get(&record.name).is_none() {
                added.push(record.name.clone());
            }
        }
        BenchComparison {
            rows,
            added,
            removed,
            unit_mismatches,
            threshold: opts.threshold,
        }
    }

    /// Rows flagged as regressions.
    pub fn regressions(&self) -> impl Iterator<Item = &BenchDelta> {
        self.rows.iter().filter(|r| r.flag == DeltaFlag::Regression)
    }

    /// Rows flagged as improvements.
    pub fn improvements(&self) -> impl Iterator<Item = &BenchDelta> {
        self.rows
            .iter()
            .filter(|r| r.flag == DeltaFlag::Improvement)
    }

    /// Renders the deterministic markdown report: fixed section order,
    /// sorted rows, fixed number formatting. `base_label` / `new_label`
    /// name the two snapshots (typically their file names).
    pub fn render_markdown(&self, base_label: &str, new_label: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Perf trajectory: {base_label} → {new_label}\n");
        let _ = writeln!(
            out,
            "Ratchet rule: a delta counts only when it exceeds the \
             ±{:.1}% relative threshold AND the current median falls \
             outside the baseline's [min, max] noise band.\n",
            self.threshold * 100.0
        );
        if self.rows.is_empty() {
            let _ = writeln!(out, "No common benchmarks to compare.\n");
        } else {
            let _ = writeln!(
                out,
                "| bench | unit | base median | new median | delta | flag |\n\
                 |---|---|---|---|---|---|"
            );
            for row in &self.rows {
                let delta = match row.rel_delta {
                    Some(rel) => format!("{:+.2}%", rel * 100.0),
                    None => "n/a".to_string(),
                };
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {} |",
                    row.name,
                    row.unit,
                    fmt_num(row.base_median),
                    fmt_num(row.new_median),
                    delta,
                    row.flag.label()
                );
            }
            let flagged = |f: DeltaFlag| self.rows.iter().filter(|r| r.flag == f).count();
            let _ = writeln!(
                out,
                "\n{} regression(s), {} improvement(s), {} changed, \
                 {} within noise/threshold.\n",
                flagged(DeltaFlag::Regression),
                flagged(DeltaFlag::Improvement),
                flagged(DeltaFlag::Changed),
                flagged(DeltaFlag::Ok)
            );
        }
        if !self.added.is_empty() {
            let _ = writeln!(out, "Added in {new_label}:\n");
            for name in &self.added {
                let _ = writeln!(out, "- `{name}`");
            }
            out.push('\n');
        }
        if !self.removed.is_empty() {
            let _ = writeln!(out, "Removed since {base_label}:\n");
            for name in &self.removed {
                let _ = writeln!(out, "- `{name}`");
            }
            out.push('\n');
        }
        if !self.unit_mismatches.is_empty() {
            let _ = writeln!(out, "Unit mismatch (not compared):\n");
            for (name, base_unit, new_unit) in &self.unit_mismatches {
                let _ = writeln!(out, "- `{name}` (base {base_unit}, new {new_unit})");
            }
            out.push('\n');
        }
        out
    }
}

fn classify_delta(base: &BenchRecord, new: &BenchRecord, threshold: f64) -> BenchDelta {
    let diff = new.median - base.median;
    // dynalint:allow(D003) -- exact-zero guard: relative delta is undefined for a zero baseline
    let base_is_zero = base.median == 0.0;
    // dynalint:allow(D003) -- exact-zero guard: zero diff over a zero baseline is exactly 0%
    let diff_is_zero = diff == 0.0;
    let rel_delta = if !base_is_zero {
        Some(diff / base.median)
    } else if diff_is_zero {
        Some(0.0)
    } else {
        None
    };
    let exceeds_threshold = match rel_delta {
        Some(rel) => rel.abs() > threshold,
        // Zero baseline, nonzero current: any delta is unbounded.
        None => true,
    };
    let outside_band = new.median > base.band_hi() || new.median < base.band_lo();
    let flag = if exceeds_threshold && outside_band {
        if base.unit == BENCH_UNIT_NS {
            if diff > 0.0 {
                DeltaFlag::Regression
            } else {
                DeltaFlag::Improvement
            }
        } else {
            DeltaFlag::Changed
        }
    } else {
        DeltaFlag::Ok
    };
    BenchDelta {
        name: base.name.clone(),
        unit: base.unit.clone(),
        base_median: base.median,
        new_median: new.median,
        rel_delta,
        flag,
    }
}

/// Formats a finite float the way the event encoder does: shortest
/// round-trip form, so renders are byte-stable.
fn fmt_num(v: f64) -> String {
    let mut out = String::new();
    crate::event::push_json_number(&mut out, v);
    out
}

// ---------------------------------------------------------------------
// Event stream attribution (obs_report)
// ---------------------------------------------------------------------

/// Aggregated activity for one span name or one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed spans (span-exit events).
    pub count: u64,
    /// Total ticks between enter and exit, children included.
    pub inclusive_ticks: u64,
    /// Total ticks minus time attributed to child spans.
    pub self_ticks: u64,
    /// Marker events (per stage; always 0 per span name).
    pub markers: u64,
}

/// One campaign unit's heartbeat latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitLatency {
    /// The unit key from the heartbeat marker's `detail` (empty when
    /// the marker carried none).
    pub unit: String,
    /// Ticks since the previous heartbeat (the stream's first tick for
    /// the first heartbeat).
    pub ticks: u64,
}

/// Everything [`StreamAnalysis::render_markdown`] reports, derived from
/// one pass over an event stream.
#[derive(Debug, Clone, Default)]
pub struct StreamAnalysis {
    /// Per-span-name timing attribution, sorted by name.
    pub spans: BTreeMap<String, SpanStats>,
    /// Per-stage attribution (first dotted name segment), with a row
    /// for every stage any event names — span enters and histograms
    /// included. This is what the "Pipeline profile" report renders.
    pub stages: BTreeMap<String, SpanStats>,
    /// Campaign-unit latencies in stream order.
    pub unit_latencies: Vec<UnitLatency>,
    /// Final counter values.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Final histogram snapshots: name → (bounds, counts).
    pub histograms: BTreeMap<String, (Vec<f64>, Vec<u64>)>,
    /// Total events analyzed.
    pub events: u64,
    /// Total marker events.
    pub markers: u64,
    /// Span exits whose name did not match the innermost open span;
    /// their self time falls back to their inclusive time.
    pub unmatched_exits: u64,
    /// Serve degradation timeline: `(tick, detail)` per
    /// [`SERVE_DEGRADED_MARKER`], in stream order.
    pub serve_degraded: Vec<(u64, String)>,
    /// Serve backpressure timeline: `(tick, detail)` per
    /// [`SERVE_OVERLOADED_MARKER`], in stream order.
    pub serve_overloaded: Vec<(u64, String)>,
}

/// Marker name campaign executors emit once per completed work unit.
pub const HEARTBEAT_MARKER: &str = "campaign.heartbeat";

/// Marker the serve engine emits when a model trained degraded (any
/// recovery rung above primary).
pub const SERVE_DEGRADED_MARKER: &str = "serve.degraded";

/// Marker the serve engine emits when admission sheds a request.
pub const SERVE_OVERLOADED_MARKER: &str = "serve.overloaded";

// ---------------------------------------------------------------------
// Serve SLOs
// ---------------------------------------------------------------------

/// One parsed `--slo` assertion: "this request kind's latency
/// percentile must not exceed this many ticks".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloSpec {
    /// Serve request kind the assertion targets (`predict`, `pareto`,
    /// `topk` or `sweep`).
    pub kind: String,
    /// Percentile in `1..=99` (50 = median, 99 = tail).
    pub percentile: u8,
    /// Maximum acceptable latency, in ticks.
    pub limit: u64,
}

impl SloSpec {
    /// Parses `kind:pNN<=LIMIT`, e.g. `predict:p99<=64`.
    ///
    /// The kind must be a serve request kind with a latency histogram
    /// (`stats` has none — it is always zero-tick by contract).
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed component.
    pub fn parse(spec: &str) -> Result<SloSpec, String> {
        let (kind, rest) = spec
            .split_once(':')
            .ok_or_else(|| format!("slo '{spec}': expected kind:pNN<=LIMIT"))?;
        if crate::schema::serve_latency_histogram(kind).is_none() {
            return Err(format!(
                "slo '{spec}': '{kind}' is not a serve request kind with a latency histogram"
            ));
        }
        let (pct_raw, limit_raw) = rest
            .split_once("<=")
            .ok_or_else(|| format!("slo '{spec}': expected pNN<=LIMIT after ':'"))?;
        let pct = pct_raw
            .strip_prefix('p')
            .and_then(|d| d.parse::<u8>().ok())
            .filter(|p| (1..=99).contains(p))
            .ok_or_else(|| format!("slo '{spec}': percentile must be p1..p99"))?;
        let limit = limit_raw
            .trim_end_matches(" ticks")
            .parse::<u64>()
            .map_err(|_| format!("slo '{spec}': limit must be an integer tick count"))?;
        Ok(SloSpec {
            kind: kind.to_string(),
            percentile: pct,
            limit,
        })
    }

    /// The histogram this spec reads (`serve.latency.<kind>`), or `None`
    /// for a kind without one — a spec [`SloSpec::parse`] would refuse.
    pub fn histogram(&self) -> Option<&'static str> {
        crate::schema::serve_latency_histogram(&self.kind)
    }
}

/// The verdict of one [`SloSpec`] against one stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloOutcome {
    /// Percentile landed in a bucket whose upper bound meets the limit.
    Pass(f64),
    /// Percentile bucket's upper bound exceeds the limit.
    Fail(f64),
    /// Percentile landed in the overflow bucket — beyond every bound,
    /// so beyond any finite limit.
    Overflow,
    /// The stream carries no samples (or no histogram) for the kind;
    /// asserting an SLO on absent traffic is reported as a failure, not
    /// silently ignored.
    NoData,
}

impl SloOutcome {
    /// True only for [`SloOutcome::Pass`].
    pub fn passed(self) -> bool {
        matches!(self, SloOutcome::Pass(_))
    }
}

impl StreamAnalysis {
    /// Analyzes a recorded event stream.
    ///
    /// Self time is computed with an explicit span stack: each exit's
    /// inclusive ticks are charged to the span and subtracted from its
    /// parent's self time. Heartbeat latencies are deltas between
    /// consecutive [`HEARTBEAT_MARKER`] ticks — in a merged parallel
    /// stream those ticks are renumbered in canonical unit order, so
    /// the derived latencies are identical for any worker count.
    pub fn from_events(events: &[Event]) -> Self {
        let mut analysis = StreamAnalysis::default();
        // (span name, ticks attributed to completed children so far)
        let mut stack: Vec<(String, u64)> = Vec::new();
        let mut last_heartbeat = events.first().map(|e| e.tick).unwrap_or(0);
        for event in events {
            analysis.events += 1;
            let stage = analysis
                .stages
                .entry(event.stage().to_string())
                .or_default();
            match event.kind {
                EventKind::SpanEnter => stack.push((event.name.clone(), 0)),
                EventKind::SpanExit => {
                    let inclusive = event.ticks.unwrap_or(0);
                    let matched = stack
                        .last()
                        .map(|(name, _)| *name == event.name)
                        .unwrap_or(false);
                    let child_ticks = if matched {
                        let (_, children) = stack.pop().unwrap_or_default();
                        if let Some((_, parent_children)) = stack.last_mut() {
                            *parent_children += inclusive;
                        }
                        children
                    } else {
                        analysis.unmatched_exits += 1;
                        0
                    };
                    let self_ticks = inclusive.saturating_sub(child_ticks);
                    for stats in [analysis.spans.entry(event.name.clone()).or_default(), stage] {
                        stats.count += 1;
                        stats.inclusive_ticks += inclusive;
                        stats.self_ticks += self_ticks;
                    }
                }
                EventKind::Marker => {
                    analysis.markers += 1;
                    stage.markers += 1;
                    if event.name == HEARTBEAT_MARKER {
                        analysis.unit_latencies.push(UnitLatency {
                            unit: event.detail.clone().unwrap_or_default(),
                            ticks: event.tick.saturating_sub(last_heartbeat),
                        });
                        last_heartbeat = event.tick;
                    } else if event.name == SERVE_DEGRADED_MARKER {
                        analysis
                            .serve_degraded
                            .push((event.tick, event.detail.clone().unwrap_or_default()));
                    } else if event.name == SERVE_OVERLOADED_MARKER {
                        analysis
                            .serve_overloaded
                            .push((event.tick, event.detail.clone().unwrap_or_default()));
                    }
                }
                EventKind::Counter => {
                    if let Some(count) = event.count {
                        analysis.counters.insert(event.name.clone(), count);
                    }
                }
                EventKind::Gauge => {
                    if let Some(value) = event.value {
                        analysis.gauges.insert(event.name.clone(), value);
                    }
                }
                EventKind::Histogram => {
                    if let (Some(bounds), Some(counts)) = (&event.bounds, &event.counts) {
                        analysis
                            .histograms
                            .insert(event.name.clone(), (bounds.clone(), counts.clone()));
                    }
                }
            }
        }
        analysis
    }

    /// The `k` slowest units, ordered by descending latency with ties
    /// broken by unit key — a total, deterministic order.
    pub fn slowest_units(&self, k: usize) -> Vec<&UnitLatency> {
        let mut sorted: Vec<&UnitLatency> = self.unit_latencies.iter().collect();
        sorted.sort_by(|a, b| b.ticks.cmp(&a.ticks).then_with(|| a.unit.cmp(&b.unit)));
        sorted.truncate(k);
        sorted
    }

    /// `(min, median, max)` of the unit latencies, `None` when there
    /// are no heartbeats. The median is the upper median, matching the
    /// bench harness.
    pub fn latency_summary(&self) -> Option<(u64, u64, u64)> {
        if self.unit_latencies.is_empty() {
            return None;
        }
        let mut ticks: Vec<u64> = self.unit_latencies.iter().map(|u| u.ticks).collect();
        ticks.sort_unstable();
        Some((ticks[0], ticks[ticks.len() / 2], ticks[ticks.len() - 1]))
    }

    /// The `pct`-th percentile of histogram `name` as the upper bound
    /// of the bucket the percentile rank lands in (histograms are
    /// pre-bucketed, so bucket resolution is all the stream retains).
    ///
    /// Returns `None` when the histogram is absent or empty and
    /// `Some(None)` when the rank lands in the overflow bucket.
    pub fn histogram_percentile(&self, name: &str, pct: u8) -> Option<Option<f64>> {
        let (bounds, counts) = self.histograms.get(name)?;
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        // Upper-rounded rank: p50 of 3 samples is the 2nd, p99 of
        // anything under 100 samples is the last.
        let rank = (total * u64::from(pct)).div_ceil(100).max(1);
        let mut cumulative = 0;
        for (i, count) in counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                return Some(bounds.get(i).copied());
            }
        }
        Some(None)
    }

    /// Evaluates one SLO assertion against this stream.
    pub fn check_slo(&self, spec: &SloSpec) -> SloOutcome {
        let percentile = |name| self.histogram_percentile(name, spec.percentile);
        match spec.histogram().and_then(percentile) {
            None => SloOutcome::NoData,
            Some(None) => SloOutcome::Overflow,
            Some(Some(bound)) => {
                if bound <= spec.limit as f64 {
                    SloOutcome::Pass(bound)
                } else {
                    SloOutcome::Fail(bound)
                }
            }
        }
    }

    /// Renders one SLO verdict as a deterministic single line, plus
    /// whether it passed — the `obs_report --slo` output format.
    pub fn render_slo(&self, spec: &SloSpec) -> (String, bool) {
        let label = format!("slo {}:p{}<={}", spec.kind, spec.percentile, spec.limit);
        let pct = spec.percentile;
        match self.check_slo(spec) {
            SloOutcome::Pass(bound) => (
                format!("{label}: PASS (p{pct} <= {} ticks)", fmt_num(bound)),
                true,
            ),
            SloOutcome::Fail(bound) => (
                format!("{label}: FAIL (p{pct} <= {} ticks)", fmt_num(bound)),
                false,
            ),
            SloOutcome::Overflow => (format!("{label}: FAIL (p{pct} in overflow bucket)"), false),
            SloOutcome::NoData => (
                format!("{label}: FAIL (no '{}' samples in stream)", spec.kind),
                false,
            ),
        }
    }

    /// True when the stream carries any serve-layer telemetry (spans,
    /// latency histograms or degradation/backpressure markers).
    pub fn has_serve_data(&self) -> bool {
        !self.serve_degraded.is_empty()
            || !self.serve_overloaded.is_empty()
            || self.spans.keys().any(|n| n.starts_with("serve."))
            || self
                .histograms
                .keys()
                .any(|n| n.starts_with("serve.latency."))
    }

    /// Renders the analysis as deterministic markdown. `top_k` bounds
    /// the slowest-units table.
    pub fn render_markdown(&self, top_k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Obs stream report\n");
        if self.events == 0 {
            let _ = writeln!(out, "No events in stream.");
            return out;
        }
        let completed: u64 = self.spans.values().map(|s| s.count).sum();
        let _ = writeln!(
            out,
            "{} event(s): {} completed span(s), {} marker(s), \
             {} counter(s), {} gauge(s), {} histogram(s), \
             {} unmatched exit(s).\n",
            self.events,
            completed,
            self.markers,
            self.counters.len(),
            self.gauges.len(),
            self.histograms.len(),
            self.unmatched_exits
        );
        let _ = writeln!(
            out,
            "## Per-stage time attribution\n\n\
             Ticks count recorder activity on the deterministic tick \
             clock, not wall time. Inclusive sums span enter→exit deltas \
             per stage (matching the \"Pipeline profile\" `ticks` \
             column); self subtracts time spent in child spans.\n"
        );
        let _ = writeln!(
            out,
            "| stage | spans | inclusive ticks | self ticks |\n|---|---|---|---|"
        );
        // A stage with no completed span has no time to attribute.
        for (name, s) in self.stages.iter().filter(|(_, s)| s.count > 0) {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} |",
                name, s.count, s.inclusive_ticks, s.self_ticks
            );
        }
        let _ = writeln!(
            out,
            "\n## Per-span time attribution\n\n\
             | span | count | inclusive ticks | self ticks |\n|---|---|---|---|"
        );
        for (name, s) in &self.spans {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} |",
                name, s.count, s.inclusive_ticks, s.self_ticks
            );
        }
        let _ = writeln!(out, "\n## Campaign unit latency\n");
        match self.latency_summary() {
            None => {
                let _ = writeln!(out, "No campaign heartbeats in stream.\n");
            }
            Some((min, median, max)) => {
                let _ = writeln!(
                    out,
                    "{} unit(s); ticks between consecutive heartbeats: \
                     min {min}, median {median}, max {max}.\n",
                    self.unit_latencies.len()
                );
                let slowest = self.slowest_units(top_k);
                let _ = writeln!(
                    out,
                    "Top {} slowest unit(s):\n\n| unit | ticks |\n|---|---|",
                    slowest.len()
                );
                for u in slowest {
                    let _ = writeln!(out, "| {} | {} |", u.unit, u.ticks);
                }
                out.push('\n');
            }
        }
        if self.has_serve_data() {
            self.render_serve_section(&mut out);
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "## Histograms\n");
            for (name, (bounds, counts)) in &self.histograms {
                let _ = writeln!(out, "`{name}`:\n\n| bucket | count |\n|---|---|");
                for (i, count) in counts.iter().enumerate() {
                    match bounds.get(i) {
                        Some(bound) => {
                            let _ = writeln!(out, "| <= {} | {} |", fmt_num(*bound), count);
                        }
                        None => {
                            let _ = writeln!(out, "| overflow | {count} |");
                        }
                    }
                }
                out.push('\n');
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "## Counter rollup\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "- `{name}` = {v}");
            }
            out.push('\n');
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "## Gauge rollup\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "- `{name}` = {}", fmt_num(*v));
            }
            out.push('\n');
        }
        out
    }

    /// The "Serve SLO attribution" report section: per-kind latency
    /// quantiles, per-stage self time inside the request pipeline, and
    /// the degradation / backpressure timelines.
    fn render_serve_section(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "## Serve SLO attribution\n\n\
             Latency quantiles are bucket upper bounds from the \
             `serve.latency.*` tick histograms (ticks, not wall time).\n"
        );
        let _ = writeln!(out, "| kind | requests | p50 | p99 |\n|---|---|---|---|");
        for kind in ["predict", "pareto", "topk", "sweep"] {
            let name = match crate::schema::serve_latency_histogram(kind) {
                Some(n) => n,
                None => continue,
            };
            let requests: u64 = self
                .histograms
                .get(name)
                .map(|(_, counts)| counts.iter().sum())
                .unwrap_or(0);
            let quantile = |pct: u8| match self.histogram_percentile(name, pct) {
                None => "n/a".to_string(),
                Some(None) => "overflow".to_string(),
                Some(Some(bound)) => format!("<= {}", fmt_num(bound)),
            };
            let _ = writeln!(
                out,
                "| {kind} | {requests} | {} | {} |",
                quantile(50),
                quantile(99)
            );
        }
        let pipeline: Vec<(&String, &SpanStats)> = self
            .spans
            .iter()
            .filter(|(name, _)| name.starts_with("serve."))
            .collect();
        if !pipeline.is_empty() {
            let _ = writeln!(
                out,
                "\nPer-stage pipeline self time:\n\n\
                 | span | count | inclusive ticks | self ticks |\n|---|---|---|---|"
            );
            for (name, s) in pipeline {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} |",
                    name, s.count, s.inclusive_ticks, s.self_ticks
                );
            }
        }
        let _ = writeln!(out, "\nDegradation timeline:\n");
        if self.serve_degraded.is_empty() {
            let _ = writeln!(out, "No degraded model trainings.");
        } else {
            let _ = writeln!(out, "| tick | detail |\n|---|---|");
            for (tick, detail) in &self.serve_degraded {
                let _ = writeln!(out, "| {tick} | {detail} |");
            }
        }
        let _ = writeln!(out, "\nBackpressure events:\n");
        if self.serve_overloaded.is_empty() {
            let _ = writeln!(out, "No requests shed by admission.");
        } else {
            let _ = writeln!(out, "| tick | detail |\n|---|---|");
            for (tick, detail) in &self.serve_overloaded {
                let _ = writeln!(out, "| {tick} | {detail} |");
            }
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::encode_lines;

    fn bench_line(name: &str, median: f64, min: f64, max: f64) -> String {
        format!(
            "{{\"schema\":\"dynawave-obs\",\"v\":1,\"schema_version\":1,\
             \"kind\":\"bench\",\"bench\":\"{name}\",\"median_ns\":{median},\
             \"min_ns\":{min},\"max_ns\":{max},\"iters\":10,\"throughput_elems\":1}}"
        )
    }

    #[test]
    fn snapshot_parses_and_sorts() {
        let text = format!(
            "{}\n{}\n",
            bench_line("b/two", 200.0, 190.0, 210.0),
            bench_line("a/one", 100.0, 90.0, 110.0)
        );
        let snap = BenchSnapshot::parse(&text).unwrap();
        assert_eq!(snap.len(), 2);
        let names: Vec<&str> = snap.records().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["a/one", "b/two"]);
        assert_eq!(snap.get("a/one").unwrap().unit, "ns");
    }

    #[test]
    fn snapshot_rejects_duplicates_and_non_finite() {
        let dup = format!(
            "{}\n{}\n",
            bench_line("a", 1.0, 1.0, 1.0),
            bench_line("a", 2.0, 2.0, 2.0)
        );
        assert!(BenchSnapshot::parse(&dup)
            .unwrap_err()
            .contains("duplicate"));
        // 1e999 overflows f64 to infinity during JSON parsing.
        let inf = "{\"schema\":\"dynawave-obs\",\"v\":1,\"kind\":\"bench\",\
                   \"bench\":\"x\",\"median_ns\":1e999}";
        assert!(BenchSnapshot::parse(inf)
            .unwrap_err()
            .contains("non-finite"));
    }

    #[test]
    fn snapshot_accepts_v2_units_and_rejects_v1_units() {
        let v2 = "{\"schema\":\"dynawave-obs\",\"v\":1,\"schema_version\":2,\
                  \"kind\":\"bench\",\"bench\":\"speedup\",\"median_ns\":1148,\
                  \"unit\":\"ratio_x1000\"}";
        let snap = BenchSnapshot::parse(v2).unwrap();
        assert_eq!(snap.get("speedup").unwrap().unit, "ratio_x1000");
        let v1 = "{\"schema\":\"dynawave-obs\",\"v\":1,\"schema_version\":1,\
                  \"kind\":\"bench\",\"bench\":\"speedup\",\"median_ns\":1148,\
                  \"unit\":\"ratio_x1000\"}";
        assert!(BenchSnapshot::parse(v1)
            .unwrap_err()
            .contains("schema_version >= 2"));
    }

    #[test]
    fn noise_band_gates_threshold_crossers() {
        // +20% but still inside the baseline's wide noise band: ok.
        let base = BenchSnapshot::parse(&bench_line("a", 100.0, 50.0, 150.0)).unwrap();
        let new = BenchSnapshot::parse(&bench_line("a", 120.0, 110.0, 130.0)).unwrap();
        let cmp = BenchComparison::compare(&base, &new, &CompareOptions::default());
        assert_eq!(cmp.rows[0].flag, DeltaFlag::Ok);
        // +20% outside a tight band: regression.
        let base = BenchSnapshot::parse(&bench_line("a", 100.0, 95.0, 105.0)).unwrap();
        let cmp = BenchComparison::compare(&base, &new, &CompareOptions::default());
        assert_eq!(cmp.rows[0].flag, DeltaFlag::Regression);
        assert_eq!(cmp.regressions().count(), 1);
        // -40% outside the band: improvement.
        let faster = BenchSnapshot::parse(&bench_line("a", 60.0, 55.0, 65.0)).unwrap();
        let cmp = BenchComparison::compare(&base, &faster, &CompareOptions::default());
        assert_eq!(cmp.rows[0].flag, DeltaFlag::Improvement);
        assert_eq!(cmp.improvements().count(), 1);
        // Outside the band but under the threshold: ok.
        let slight = BenchSnapshot::parse(&bench_line("a", 107.0, 106.0, 108.0)).unwrap();
        let cmp = BenchComparison::compare(&base, &slight, &CompareOptions::default());
        assert_eq!(cmp.rows[0].flag, DeltaFlag::Ok);
    }

    #[test]
    fn zero_median_baseline_is_guarded() {
        let base = BenchSnapshot::parse(&bench_line("z", 0.0, 0.0, 0.0)).unwrap();
        let same = BenchSnapshot::parse(&bench_line("z", 0.0, 0.0, 0.0)).unwrap();
        let cmp = BenchComparison::compare(&base, &same, &CompareOptions::default());
        assert_eq!(cmp.rows[0].rel_delta, Some(0.0));
        assert_eq!(cmp.rows[0].flag, DeltaFlag::Ok);
        let grew = BenchSnapshot::parse(&bench_line("z", 5.0, 5.0, 5.0)).unwrap();
        let cmp = BenchComparison::compare(&base, &grew, &CompareOptions::default());
        assert_eq!(cmp.rows[0].rel_delta, None);
        assert_eq!(cmp.rows[0].flag, DeltaFlag::Regression);
        let text = cmp.render_markdown("base", "new");
        assert!(text.contains("| n/a |"), "{text}");
    }

    #[test]
    fn added_removed_and_empty_baseline() {
        let base = BenchSnapshot::parse("").unwrap();
        assert!(base.is_empty());
        let new = BenchSnapshot::parse(&bench_line("fresh", 1.0, 1.0, 1.0)).unwrap();
        let cmp = BenchComparison::compare(&base, &new, &CompareOptions::default());
        assert!(cmp.rows.is_empty());
        assert_eq!(cmp.added, vec!["fresh"]);
        assert!(cmp.removed.is_empty());
        let text = cmp.render_markdown("base", "new");
        assert!(text.contains("No common benchmarks"), "{text}");
        assert!(text.contains("- `fresh`"), "{text}");
        // And the reverse direction reports removal.
        let cmp = BenchComparison::compare(&new, &base, &CompareOptions::default());
        assert_eq!(cmp.removed, vec!["fresh"]);
    }

    #[test]
    fn unit_mismatch_is_never_compared() {
        let base = BenchSnapshot::parse(&bench_line("m", 100.0, 90.0, 110.0)).unwrap();
        let v2 = "{\"schema\":\"dynawave-obs\",\"v\":1,\"schema_version\":2,\
                  \"kind\":\"bench\",\"bench\":\"m\",\"median_ns\":100,\
                  \"unit\":\"count\"}";
        let new = BenchSnapshot::parse(v2).unwrap();
        let cmp = BenchComparison::compare(&base, &new, &CompareOptions::default());
        assert!(cmp.rows.is_empty());
        assert_eq!(
            cmp.unit_mismatches,
            vec![("m".to_string(), "ns".to_string(), "count".to_string())]
        );
    }

    #[test]
    fn non_ns_units_flag_changed_not_regression() {
        let line = |median: f64| {
            format!(
                "{{\"schema\":\"dynawave-obs\",\"v\":1,\"schema_version\":2,\
                 \"kind\":\"bench\",\"bench\":\"speedup\",\"median_ns\":{median},\
                 \"min_ns\":{median},\"max_ns\":{median},\"unit\":\"ratio_x1000\"}}"
            )
        };
        let base = BenchSnapshot::parse(&line(1000.0)).unwrap();
        let new = BenchSnapshot::parse(&line(3800.0)).unwrap();
        let cmp = BenchComparison::compare(&base, &new, &CompareOptions::default());
        assert_eq!(cmp.rows[0].flag, DeltaFlag::Changed);
        assert_eq!(cmp.regressions().count(), 0);
    }

    #[test]
    fn render_is_byte_stable() {
        let base = BenchSnapshot::parse(&bench_line("a", 100.0, 95.0, 105.0)).unwrap();
        let new = BenchSnapshot::parse(&bench_line("a", 130.0, 125.0, 135.0)).unwrap();
        let cmp = BenchComparison::compare(&base, &new, &CompareOptions::default());
        assert_eq!(cmp.render_markdown("x", "y"), cmp.render_markdown("x", "y"));
    }

    #[test]
    fn self_time_subtracts_children() {
        // outer [ inner ] with outer inclusive 3, inner inclusive 1.
        let mut outer_enter = Event::new(0, 1, EventKind::SpanEnter, "predictor.train");
        outer_enter.depth = Some(0);
        let mut inner_enter = Event::new(1, 2, EventKind::SpanEnter, "wavelet.wavedec");
        inner_enter.depth = Some(1);
        let mut inner_exit = Event::new(2, 3, EventKind::SpanExit, "wavelet.wavedec");
        inner_exit.depth = Some(1);
        inner_exit.ticks = Some(1);
        let mut outer_exit = Event::new(3, 4, EventKind::SpanExit, "predictor.train");
        outer_exit.depth = Some(0);
        outer_exit.ticks = Some(3);
        let analysis =
            StreamAnalysis::from_events(&[outer_enter, inner_enter, inner_exit, outer_exit]);
        let outer = &analysis.spans["predictor.train"];
        assert_eq!(outer.inclusive_ticks, 3);
        assert_eq!(outer.self_ticks, 2, "inner's 1 tick subtracted");
        let inner = &analysis.spans["wavelet.wavedec"];
        assert_eq!(inner.inclusive_ticks, 1);
        assert_eq!(inner.self_ticks, 1);
        assert_eq!(analysis.unmatched_exits, 0);
        // Stage view: different stages, so both appear.
        assert_eq!(analysis.stages["predictor"].inclusive_ticks, 3);
        assert_eq!(analysis.stages["wavelet"].self_ticks, 1);
    }

    #[test]
    fn aggregates_by_stage() {
        let mut exit = Event::new(1, 2, EventKind::SpanExit, "sim.run_trace");
        exit.depth = Some(0);
        exit.ticks = Some(7);
        let mut counter = Event::new(2, 3, EventKind::Counter, "sim.intervals_retired");
        counter.count = Some(64);
        let mut gauge = Event::new(3, 4, EventKind::Gauge, "wavelet.coeff_energy_retained");
        gauge.value = Some(0.5);
        let marker = Event::new(4, 5, EventKind::Marker, "campaign.heartbeat");
        let analysis = StreamAnalysis::from_events(&[exit, counter, gauge, marker]);

        // Every event names a stage, whatever its kind.
        let stages: Vec<&str> = analysis.stages.keys().map(String::as_str).collect();
        assert_eq!(stages, vec!["campaign", "sim", "wavelet"]);
        let sim = &analysis.stages["sim"];
        assert_eq!((sim.count, sim.inclusive_ticks, sim.markers), (1, 7, 0));
        assert_eq!(analysis.stages["campaign"].markers, 1);
        assert_eq!(analysis.stages["wavelet"], SpanStats::default());
        assert_eq!(analysis.counters.get("sim.intervals_retired"), Some(&64));
    }

    #[test]
    fn heartbeat_latencies_and_top_k() {
        let mut events = Vec::new();
        let mk = |seq: u64, tick: u64, unit: &str| {
            let mut e = Event::new(seq, tick, EventKind::Marker, HEARTBEAT_MARKER);
            e.detail = Some(unit.to_string());
            e
        };
        events.push(Event::new(0, 1, EventKind::Marker, "campaign.resumed_from"));
        events.push(mk(1, 4, "gcc/cpi/train/0"));
        events.push(mk(2, 7, "gcc/cpi/train/1"));
        events.push(mk(3, 15, "gcc/cpi/test/0"));
        let analysis = StreamAnalysis::from_events(&events);
        let ticks: Vec<u64> = analysis.unit_latencies.iter().map(|u| u.ticks).collect();
        assert_eq!(ticks, vec![3, 3, 8], "first delta from stream start");
        assert_eq!(analysis.latency_summary(), Some((3, 3, 8)));
        let top = analysis.slowest_units(2);
        assert_eq!(top[0].unit, "gcc/cpi/test/0");
        assert_eq!(top[0].ticks, 8);
        // Tie between the two 3-tick units breaks by unit key.
        assert_eq!(top[1].unit, "gcc/cpi/train/0");
    }

    #[test]
    fn parse_events_roundtrips_encoder_output() {
        let mut enter = Event::new(0, 1, EventKind::SpanEnter, "sim.run_trace");
        enter.depth = Some(0);
        let mut exit = Event::new(1, 2, EventKind::SpanExit, "sim.run_trace");
        exit.depth = Some(0);
        exit.ticks = Some(1);
        let mut counter = Event::new(2, 3, EventKind::Counter, "sim.intervals_retired");
        counter.count = Some(64);
        let mut gauge = Event::new(3, 4, EventKind::Gauge, "wavelet.energy");
        gauge.value = Some(0.97);
        let mut hist = Event::new(4, 5, EventKind::Histogram, "campaign.unit_latency");
        hist.bounds = Some(vec![2.0, 4.0]);
        hist.counts = Some(vec![0, 3, 1]);
        let mut marker = Event::new(5, 6, EventKind::Marker, HEARTBEAT_MARKER);
        marker.detail = Some("gcc/cpi/train/0".to_string());
        let original = vec![enter, exit, counter, gauge, hist, marker];
        let text = encode_lines(&original);
        let parsed = parse_events(&text).unwrap();
        assert_eq!(parsed, original);
        // Bench lines in the same stream are skipped, not errors.
        let mixed = format!("{text}{}\n", bench_line("b", 1.0, 1.0, 1.0));
        assert_eq!(parse_events(&mixed).unwrap(), original);
        assert!(parse_events("not json").is_err());
    }

    #[test]
    fn unmatched_exit_falls_back_to_inclusive() {
        let mut exit = Event::new(0, 1, EventKind::SpanExit, "sim.run_trace");
        exit.depth = Some(0);
        exit.ticks = Some(5);
        let analysis = StreamAnalysis::from_events(&[exit]);
        assert_eq!(analysis.unmatched_exits, 1);
        assert_eq!(analysis.spans["sim.run_trace"].self_ticks, 5);
        assert_eq!(analysis.stages["sim"].inclusive_ticks, 5);
    }

    #[test]
    fn empty_stream_renders_note() {
        let analysis = StreamAnalysis::from_events(&[]);
        let text = analysis.render_markdown(5);
        assert!(text.contains("No events in stream."));
        assert!(
            !text.contains("Serve SLO"),
            "no serve section without serve data"
        );
    }

    #[test]
    fn slo_spec_parses_and_rejects() {
        let spec = SloSpec::parse("predict:p99<=64").unwrap();
        assert_eq!(spec.kind, "predict");
        assert_eq!(spec.percentile, 99);
        assert_eq!(spec.limit, 64);
        assert_eq!(spec.histogram(), Some("serve.latency.predict"));
        assert_eq!(SloSpec::parse("sweep:p50<=16 ticks").unwrap().limit, 16);
        assert!(
            SloSpec::parse("stats:p99<=1").is_err(),
            "stats has no histogram"
        );
        assert!(SloSpec::parse("predict:p0<=1").is_err());
        assert!(SloSpec::parse("predict:p100<=1").is_err());
        assert!(SloSpec::parse("predict p99<=1").is_err());
        assert!(SloSpec::parse("predict:p99<=lots").is_err());
    }

    fn serve_latency_events() -> Vec<Event> {
        // 10 predict samples: 9 land in the <=16 bucket, 1 in <=256.
        let mut hist = Event::new(0, 1, EventKind::Histogram, "serve.latency.predict");
        hist.bounds = Some(vec![1.0, 4.0, 16.0, 64.0, 256.0]);
        hist.counts = Some(vec![0, 0, 9, 0, 1, 0]);
        let mut degraded = Event::new(1, 2, EventKind::Marker, SERVE_DEGRADED_MARKER);
        degraded.detail = Some("id=a rung=linear-fallback".to_string());
        let mut shed = Event::new(2, 3, EventKind::Marker, SERVE_OVERLOADED_MARKER);
        shed.detail = Some("id=b load=900".to_string());
        vec![hist, degraded, shed]
    }

    #[test]
    fn slo_percentiles_use_bucket_upper_bounds() {
        let analysis = StreamAnalysis::from_events(&serve_latency_events());
        assert_eq!(
            analysis.histogram_percentile("serve.latency.predict", 50),
            Some(Some(16.0))
        );
        assert_eq!(
            analysis.histogram_percentile("serve.latency.predict", 99),
            Some(Some(256.0)),
            "p99 of 10 samples is the last sample"
        );
        assert_eq!(
            analysis.histogram_percentile("serve.latency.topk", 50),
            None
        );
        let pass = SloSpec::parse("predict:p50<=16").unwrap();
        assert_eq!(analysis.check_slo(&pass), SloOutcome::Pass(16.0));
        assert!(analysis.check_slo(&pass).passed());
        let fail = SloSpec::parse("predict:p99<=64").unwrap();
        assert_eq!(analysis.check_slo(&fail), SloOutcome::Fail(256.0));
        let nodata = SloSpec::parse("topk:p50<=16").unwrap();
        assert_eq!(analysis.check_slo(&nodata), SloOutcome::NoData);
        let (line, ok) = analysis.render_slo(&pass);
        assert_eq!(line, "slo predict:p50<=16: PASS (p50 <= 16 ticks)");
        assert!(ok);
        let (line, ok) = analysis.render_slo(&nodata);
        assert_eq!(line, "slo topk:p50<=16: FAIL (no 'topk' samples in stream)");
        assert!(!ok);
    }

    #[test]
    fn slo_overflow_bucket_always_fails() {
        let mut hist = Event::new(0, 1, EventKind::Histogram, "serve.latency.sweep");
        hist.bounds = Some(vec![1.0, 4.0]);
        hist.counts = Some(vec![0, 0, 3]);
        let analysis = StreamAnalysis::from_events(&[hist]);
        assert_eq!(
            analysis.histogram_percentile("serve.latency.sweep", 50),
            Some(None)
        );
        let spec = SloSpec::parse("sweep:p50<=1000000").unwrap();
        assert_eq!(analysis.check_slo(&spec), SloOutcome::Overflow);
        let (line, ok) = analysis.render_slo(&spec);
        assert!(line.ends_with("FAIL (p50 in overflow bucket)"), "{line}");
        assert!(!ok);
    }

    #[test]
    fn slo_on_a_kind_without_a_histogram_has_no_data() {
        // Built by hand, not parsed: `stats` has no latency histogram, so
        // no other kind's samples may stand in for it.
        let spec = SloSpec {
            kind: "stats".to_string(),
            percentile: 50,
            limit: 16,
        };
        let analysis = StreamAnalysis::from_events(&serve_latency_events());
        assert_eq!(analysis.check_slo(&spec), SloOutcome::NoData);
        let (line, ok) = analysis.render_slo(&spec);
        assert_eq!(
            line,
            "slo stats:p50<=16: FAIL (no 'stats' samples in stream)"
        );
        assert!(!ok);
    }

    #[test]
    fn serve_section_renders_quantiles_and_timelines() {
        let analysis = StreamAnalysis::from_events(&serve_latency_events());
        assert!(analysis.has_serve_data());
        let text = analysis.render_markdown(5);
        assert!(text.contains("## Serve SLO attribution"), "{text}");
        assert!(text.contains("| predict | 10 | <= 16 | <= 256 |"), "{text}");
        assert!(text.contains("| pareto | 0 | n/a | n/a |"), "{text}");
        assert!(text.contains("| 2 | id=a rung=linear-fallback |"), "{text}");
        assert!(text.contains("| 3 | id=b load=900 |"), "{text}");
        assert_eq!(text, analysis.render_markdown(5), "byte-stable");
    }
}
