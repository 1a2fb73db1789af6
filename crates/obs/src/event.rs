//! The versioned line model of the obs schema: its JSON-lines encoders
//! and their inverse decoders.
//!
//! Every record the recorder emits is one [`Event`], serialized as one
//! JSON object per line; every measurement the bench harness emits is
//! one [`BenchRecord`] on the same schema. The schema is versioned:
//! every line carries `"schema":"dynawave-obs"` and `"v":1` so
//! downstream tooling can reject streams it does not understand.
//!
//! Each line type has exactly one decoder ([`Event::from_json`],
//! [`BenchRecord::from_json`]) holding its field rules. The validator
//! ([`crate::validate`]) and both stream readers ([`crate::parse_events`],
//! [`crate::BenchSnapshot::parse`]) call them, so all three accept and
//! refuse the same lines.

use crate::json::{self, require_finite, require_u64, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag present on every emitted line.
pub const SCHEMA_NAME: &str = "dynawave-obs";

/// Current schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// Current version of the `"kind":"bench"` line schema (the
/// `schema_version` field carried by bench lines, independent of the
/// event-stream `v`). Version 2 adds the optional `unit` field so
/// derived measurements (ratios, counts) no longer masquerade as
/// nanoseconds; version-1 lines (no `unit`) remain valid forever —
/// committed `BENCH_*.json` baselines must never bit-rot.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// The default measurement unit of a bench line: wall nanoseconds.
pub const BENCH_UNIT_NS: &str = "ns";

/// What kind of record an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span was entered (`depth` = nesting level at entry).
    SpanEnter,
    /// A span was exited (`ticks` = clock delta between enter and exit).
    SpanExit,
    /// A counter snapshot (`count` = final value).
    Counter,
    /// A gauge snapshot (`value` = last value set).
    Gauge,
    /// A fixed-bound histogram snapshot (`bounds` + `counts`).
    Histogram,
    /// A point event with free-form detail (heartbeats, resume markers).
    Marker,
}

impl EventKind {
    /// Stable lowercase name used in the JSON `kind` field.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SpanEnter => "span_enter",
            EventKind::SpanExit => "span_exit",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Histogram => "hist",
            EventKind::Marker => "marker",
        }
    }

    /// Inverse of [`EventKind::name`].
    pub fn parse(name: &str) -> Option<EventKind> {
        match name {
            "span_enter" => Some(EventKind::SpanEnter),
            "span_exit" => Some(EventKind::SpanExit),
            "counter" => Some(EventKind::Counter),
            "gauge" => Some(EventKind::Gauge),
            "hist" => Some(EventKind::Histogram),
            "marker" => Some(EventKind::Marker),
            _ => None,
        }
    }
}

/// One observability record.
///
/// Only the fields relevant to the event's [`EventKind`] are populated;
/// the JSON encoding omits absent fields entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonically increasing sequence number within one recorder.
    pub seq: u64,
    /// Clock timestamp (ticks for the default [`crate::TickClock`]).
    pub tick: u64,
    /// Record kind.
    pub kind: EventKind,
    /// Span, metric or marker name (dotted: `stage.detail`).
    pub name: String,
    /// Span nesting depth (span events only).
    pub depth: Option<u64>,
    /// Clock delta between span enter and exit (span-exit only).
    pub ticks: Option<u64>,
    /// Counter value (counter snapshots only).
    pub count: Option<u64>,
    /// Gauge value (gauge snapshots only; always finite).
    pub value: Option<f64>,
    /// Histogram bucket upper bounds (histogram snapshots only).
    pub bounds: Option<Vec<f64>>,
    /// Histogram bucket counts, one longer than `bounds` (the final
    /// bucket is the overflow bucket).
    pub counts: Option<Vec<u64>>,
    /// Free-form detail text (markers only).
    pub detail: Option<String>,
}

impl Event {
    /// A bare event of `kind` with every optional field absent.
    pub fn new(seq: u64, tick: u64, kind: EventKind, name: impl Into<String>) -> Self {
        Event {
            seq,
            tick,
            kind,
            name: name.into(),
            depth: None,
            ticks: None,
            count: None,
            value: None,
            bounds: None,
            counts: None,
            detail: None,
        }
    }

    /// The pipeline stage this event belongs to: the dotted name's first
    /// segment (`"sim.run_trace"` → `"sim"`).
    pub fn stage(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    /// Encodes the event as one JSON line (no trailing newline).
    ///
    /// Field order is fixed, floats use Rust's shortest round-trip
    /// formatting, and strings are escaped per RFC 8259 — so identical
    /// events always encode to identical bytes.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"schema\":\"{SCHEMA_NAME}\",\"v\":{SCHEMA_VERSION},\"seq\":{},\"tick\":{},\"kind\":\"{}\",\"name\":",
            self.seq,
            self.tick,
            self.kind.name()
        );
        push_json_string(&mut out, &self.name);
        if let Some(depth) = self.depth {
            let _ = write!(out, ",\"depth\":{depth}");
        }
        if let Some(ticks) = self.ticks {
            let _ = write!(out, ",\"ticks\":{ticks}");
        }
        if let Some(count) = self.count {
            let _ = write!(out, ",\"count\":{count}");
        }
        if let Some(value) = self.value {
            out.push_str(",\"value\":");
            push_json_number(&mut out, value);
        }
        if let Some(bounds) = &self.bounds {
            out.push_str(",\"bounds\":[");
            for (i, b) in bounds.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_number(&mut out, *b);
            }
            out.push(']');
        }
        if let Some(counts) = &self.counts {
            out.push_str(",\"counts\":[");
            for (i, c) in counts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push(']');
        }
        if let Some(detail) = &self.detail {
            out.push_str(",\"detail\":");
            push_json_string(&mut out, detail);
        }
        out.push('}');
        out
    }

    /// Decodes one parsed line: the inverse of [`Event::to_json_line`].
    ///
    /// Holds every field rule of the event schema: the `schema`/`v`
    /// header, a known `kind`, integer `seq` and `tick`, a non-empty
    /// `name`, and what each kind carries — `depth` on spans, `ticks` on
    /// exits, `count` on counters, a finite `value` on gauges, finite
    /// `bounds` with integer `counts` one longer (the overflow bucket) on
    /// histograms, and a string `detail` when a marker has one. Fields a
    /// kind does not carry are ignored. Stream order (`seq`, `tick`) is
    /// the validator's concern, not the decoder's.
    ///
    /// # Errors
    ///
    /// The first rule the line breaks, as `obs_validate` reports it.
    pub fn from_json(obj: &BTreeMap<String, Value>) -> Result<Event, String> {
        check_header(obj)?;
        let kind = obj
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("missing 'kind' field")?;
        let kind = EventKind::parse(kind).ok_or_else(|| format!("unknown kind '{kind}'"))?;
        let seq = require_u64(obj, "seq")?;
        let tick = require_u64(obj, "tick")?;
        let name = obj
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing 'name' field")?;
        if name.is_empty() {
            return Err("empty 'name'".to_string());
        }
        let mut event = Event::new(seq, tick, kind, name);
        match kind {
            EventKind::SpanEnter => event.depth = Some(require_u64(obj, "depth")?),
            EventKind::SpanExit => {
                event.depth = Some(require_u64(obj, "depth")?);
                event.ticks = Some(require_u64(obj, "ticks")?);
            }
            EventKind::Counter => event.count = Some(require_u64(obj, "count")?),
            EventKind::Gauge => event.value = Some(require_finite(obj, "value")?),
            EventKind::Histogram => {
                let array = |field: &str| {
                    obj.get(field)
                        .and_then(Value::as_array)
                        .ok_or_else(|| format!("missing '{field}' array"))
                };
                let bounds = array("bounds")?
                    .iter()
                    .map(|b| match b.as_f64() {
                        Some(v) if v.is_finite() => Ok(v),
                        Some(_) => Err("non-finite histogram bound"),
                        None => Err("non-numeric histogram bound"),
                    })
                    .collect::<Result<Vec<f64>, _>>()?;
                let counts = array("counts")?
                    .iter()
                    .map(|c| c.as_u64().ok_or("non-integer histogram count"))
                    .collect::<Result<Vec<u64>, _>>()?;
                if counts.len() != bounds.len() + 1 {
                    return Err(format!(
                        "counts length {} != bounds length {} + 1",
                        counts.len(),
                        bounds.len()
                    ));
                }
                event.bounds = Some(bounds);
                event.counts = Some(counts);
            }
            EventKind::Marker => {
                if let Some(detail) = obj.get("detail") {
                    let detail = detail.as_str().ok_or("non-string 'detail'")?;
                    event.detail = Some(detail.to_string());
                }
            }
        }
        Ok(event)
    }
}

/// The `kind` of a bench line.
const BENCH_KIND: &str = "bench";

/// One bench-harness measurement: a `"kind":"bench"` line, as committed
/// in `BENCH_*.json` snapshots. Bench lines carry measurements, not
/// recorder state, so they have no `seq`/`tick`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name (`stage/op/scale`).
    pub name: String,
    /// Measurement unit; `"ns"` unless a v2 line says otherwise.
    pub unit: String,
    /// Median of the timed batches.
    pub median: f64,
    /// Fastest batch — lower edge of the noise band.
    pub min: f64,
    /// Slowest batch — upper edge of the noise band.
    pub max: f64,
    /// Iterations per timed batch (0 when the line omitted it).
    pub iters: u64,
    /// Elements processed per iteration (0 when the line omitted it).
    pub throughput_elems: u64,
    /// The bench-line schema version the record was read from.
    pub schema_version: u64,
}

impl BenchRecord {
    /// Lower edge of the noise band (min widened to include the median).
    pub fn band_lo(&self) -> f64 {
        self.min.min(self.median)
    }

    /// Upper edge of the noise band (max widened to include the median).
    pub fn band_hi(&self) -> f64 {
        self.max.max(self.median)
    }

    /// Encodes the record as one bench line (no trailing newline). The
    /// default `"ns"` unit is left implicit, as version-1 lines require.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(
            out,
            "{{\"schema\":\"{SCHEMA_NAME}\",\"v\":{SCHEMA_VERSION},\"schema_version\":{},\
             \"kind\":\"{BENCH_KIND}\",\"bench\":",
            self.schema_version
        );
        push_json_string(&mut out, &self.name);
        if self.unit != BENCH_UNIT_NS {
            out.push_str(",\"unit\":");
            push_json_string(&mut out, &self.unit);
        }
        for (field, v) in [
            ("median_ns", self.median),
            ("min_ns", self.min),
            ("max_ns", self.max),
        ] {
            let _ = write!(out, ",\"{field}\":");
            push_json_number(&mut out, v);
        }
        let _ = write!(
            out,
            ",\"iters\":{},\"throughput_elems\":{}}}",
            self.iters, self.throughput_elems
        );
        out
    }

    /// Decodes one parsed bench line: the inverse of
    /// [`BenchRecord::to_json_line`].
    ///
    /// Holds every field rule of the bench line: the `schema`/`v` header,
    /// a non-empty `bench` name, a finite `median_ns`, finite `min_ns` and
    /// `max_ns` when present (each defaults to the median), integer
    /// `iters` and `throughput_elems` when present, and the bench schema
    /// version — 1 when absent, at most [`BENCH_SCHEMA_VERSION`], and at
    /// least 2 for a line that names its `unit`. Version-1 lines stay
    /// valid forever: committed baselines must never bit-rot.
    ///
    /// # Errors
    ///
    /// The first rule the line breaks, as `obs_validate` reports it.
    pub fn from_json(obj: &BTreeMap<String, Value>) -> Result<BenchRecord, String> {
        check_header(obj)?;
        if obj.get("kind").and_then(Value::as_str) != Some(BENCH_KIND) {
            return Err("not a 'bench' line".to_string());
        }
        let name = obj
            .get("bench")
            .and_then(Value::as_str)
            .ok_or("bench line missing 'bench' name")?;
        if name.is_empty() {
            return Err("empty 'bench' name".to_string());
        }
        let median = require_finite(obj, "median_ns")?;
        let min = optional(obj, "min_ns", require_finite)?.unwrap_or(median);
        let max = optional(obj, "max_ns", require_finite)?.unwrap_or(median);
        let schema_version = match obj.get("schema_version") {
            Some(v) => v.as_u64().ok_or("non-integer bench 'schema_version'")?,
            None => 1,
        };
        if schema_version == 0 || schema_version > BENCH_SCHEMA_VERSION {
            return Err(format!("unsupported bench schema_version {schema_version}"));
        }
        let unit = match obj.get("unit") {
            None => BENCH_UNIT_NS,
            Some(_) if schema_version < 2 => {
                return Err("'unit' field requires bench schema_version >= 2".to_string());
            }
            Some(unit) => match unit.as_str() {
                Some("") => return Err("empty bench 'unit'".to_string()),
                Some(unit) => unit,
                None => return Err("non-string bench 'unit'".to_string()),
            },
        };
        Ok(BenchRecord {
            name: name.to_string(),
            unit: unit.to_string(),
            median,
            min,
            max,
            iters: optional(obj, "iters", require_u64)?.unwrap_or(0),
            throughput_elems: optional(obj, "throughput_elems", require_u64)?.unwrap_or(0),
            schema_version,
        })
    }
}

/// Formats one wall-nanosecond benchmark measurement as a bench line at
/// the current bench schema version. The validator accepts these lines,
/// so bench output and event streams share one toolchain, and
/// `compare_bench` diffs whole files of them.
pub fn bench_json_line(
    bench: &str,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
    iters: u64,
    throughput_elems: u64,
) -> String {
    bench_json_line_with_unit(
        bench,
        BENCH_UNIT_NS,
        median_ns,
        min_ns,
        max_ns,
        iters,
        throughput_elems,
    )
}

/// [`bench_json_line`] for derived measurements: `unit` names what the
/// numbers mean (`"ratio_x1000"`, `"count"`, ...; see
/// [`crate::schema::BENCH_UNITS`]) so they no longer masquerade as
/// nanoseconds.
pub fn bench_json_line_with_unit(
    bench: &str,
    unit: &str,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
    iters: u64,
    throughput_elems: u64,
) -> String {
    BenchRecord {
        name: bench.to_string(),
        unit: unit.to_string(),
        median: median_ns,
        min: min_ns,
        max: max_ns,
        iters,
        throughput_elems,
        schema_version: BENCH_SCHEMA_VERSION,
    }
    .to_json_line()
}

/// One decoded `dynawave-obs` line.
#[derive(Debug)]
pub(crate) enum ObsLine {
    /// A recorder event.
    Event(Event),
    /// A bench measurement.
    Bench(BenchRecord),
}

impl ObsLine {
    /// Decodes one line of text with the decoder its `kind` names.
    pub(crate) fn parse(line: &str) -> Result<ObsLine, String> {
        ObsLine::from_json(&json::parse_object(line)?)
    }

    /// Decodes one parsed line with the decoder its `kind` names.
    pub(crate) fn from_json(obj: &BTreeMap<String, Value>) -> Result<ObsLine, String> {
        if obj.get("kind").and_then(Value::as_str) == Some(BENCH_KIND) {
            BenchRecord::from_json(obj).map(ObsLine::Bench)
        } else {
            Event::from_json(obj).map(ObsLine::Event)
        }
    }

    /// The line's `kind` field.
    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            ObsLine::Event(e) => e.kind.name(),
            ObsLine::Bench(_) => BENCH_KIND,
        }
    }
}

/// Optional `field` of `obj`: absent is `None`, present must `decode`.
fn optional<T>(
    obj: &BTreeMap<String, Value>,
    field: &str,
    decode: fn(&BTreeMap<String, Value>, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    obj.contains_key(field)
        .then(|| decode(obj, field))
        .transpose()
}

/// Checks the `schema`/`v` header every `dynawave-obs` line carries.
fn check_header(obj: &BTreeMap<String, Value>) -> Result<(), String> {
    match obj.get("schema").and_then(Value::as_str) {
        Some(SCHEMA_NAME) => {}
        Some(other) => return Err(format!("unknown schema '{other}'")),
        None => return Err("missing 'schema' field".to_string()),
    }
    match obj.get("v").and_then(Value::as_u64) {
        Some(SCHEMA_VERSION) => Ok(()),
        Some(other) => Err(format!("unsupported schema version {other}")),
        None => Err("missing or non-integer 'v' field".to_string()),
    }
}

/// Appends `s` as a JSON string literal (quotes + escapes).
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite `f64` as a JSON number (shortest round-trip form).
/// Non-finite values are not representable in JSON; they encode as `0`
/// and must be filtered out before reaching the encoder (the recorder's
/// gauge/histogram entry points drop them).
pub fn push_json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

/// Encodes a batch of events as newline-terminated JSON lines.
pub fn encode_lines(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip() {
        for kind in [
            EventKind::SpanEnter,
            EventKind::SpanExit,
            EventKind::Counter,
            EventKind::Gauge,
            EventKind::Histogram,
            EventKind::Marker,
        ] {
            assert_eq!(EventKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(EventKind::parse("nope"), None);
    }

    #[test]
    fn span_enter_line_shape() {
        let mut e = Event::new(0, 1, EventKind::SpanEnter, "sim.run_trace");
        e.depth = Some(0);
        assert_eq!(
            e.to_json_line(),
            "{\"schema\":\"dynawave-obs\",\"v\":1,\"seq\":0,\"tick\":1,\
             \"kind\":\"span_enter\",\"name\":\"sim.run_trace\",\"depth\":0}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn numbers_are_shortest_roundtrip_and_finite() {
        let mut out = String::new();
        push_json_number(&mut out, 0.1);
        out.push(' ');
        push_json_number(&mut out, 3.0);
        out.push(' ');
        push_json_number(&mut out, f64::NAN);
        assert_eq!(out, "0.1 3 0");
    }

    #[test]
    fn stage_is_first_dotted_segment() {
        let e = Event::new(0, 0, EventKind::Counter, "wavelet.coeff_energy_retained");
        assert_eq!(e.stage(), "wavelet");
        let e = Event::new(0, 0, EventKind::Counter, "plain");
        assert_eq!(e.stage(), "plain");
    }

    #[test]
    fn committed_bench_snapshots_reencode_to_the_same_bytes() {
        let derived = bench_json_line_with_unit(
            "campaign/full_space/speedup_x1000",
            "ratio_x1000",
            3841.0,
            3700.0,
            3900.0,
            1,
            4,
        );
        for text in [
            include_str!("../../../BENCH_10.json"),
            include_str!("../../../BENCH_seed.json"),
            &derived,
        ] {
            for line in text.lines() {
                let Ok(ObsLine::Bench(record)) = ObsLine::parse(line) else {
                    panic!("not a bench line: {line}");
                };
                assert_eq!(record.to_json_line(), line);
            }
        }
    }

    #[test]
    fn encode_lines_is_newline_terminated() {
        let e = Event::new(0, 1, EventKind::Marker, "campaign.heartbeat");
        let text = encode_lines(&[e.clone(), e]);
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }
}
