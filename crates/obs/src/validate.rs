//! Stateful schema validation for obs JSON-lines streams.
//!
//! Every `dynawave-obs` line goes through its type's one decoder
//! ([`crate::Event::from_json`], [`crate::BenchRecord::from_json`]),
//! which owns the header, kind-specific required fields and finite
//! numbers. On top of that the validator checks what only a whole
//! stream has: strictly increasing `seq` and non-decreasing `tick`.
//! Bench lines carry measurements instead of recorder state and have no
//! `seq`/`tick`. `dynawave-serve` response lines, which only this
//! validator reads, keep their own check here.

use crate::event::ObsLine;
use crate::json::{self, require_u64, Value};
use crate::schema::{
    SERVE_RESPONSE_KINDS, SERVE_SCHEMA, SERVE_SCHEMA_VERSION, SERVE_STATS_VERSION,
};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Aggregate result of validating a stream.
#[derive(Debug, Clone, Default)]
pub struct ValidationSummary {
    /// Lines that parsed and passed every schema check.
    pub valid: u64,
    /// Lines that failed (each with its 1-based line number and reason).
    pub errors: Vec<(u64, String)>,
    /// Distinct pipeline stages of valid lines (first dotted segment of
    /// `name`).
    pub stages: BTreeSet<String>,
    /// Count of valid lines per kind (`"bench"` and `"serve:<kind>"`
    /// included).
    pub kinds: BTreeMap<String, u64>,
    /// Count of valid event lines per pipeline stage (bench lines have
    /// no stage and are excluded). Feeds `obs_validate --stats`.
    pub stage_counts: BTreeMap<String, u64>,
}

impl ValidationSummary {
    /// True when every line validated.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// The stages in `required` that never appeared in the stream.
    pub fn missing_stages(&self, required: &[&str]) -> Vec<String> {
        required
            .iter()
            .filter(|s| !self.stages.contains(**s))
            .map(|s| s.to_string())
            .collect()
    }
}

/// One schema's ordering track: `seq` strictly increases and `tick`
/// never goes backwards.
#[derive(Debug, Default)]
struct Track {
    last_seq: Option<u64>,
    last_tick: Option<u64>,
}

impl Track {
    /// Admits the next line's `seq`/`tick`; `label` prefixes the error.
    fn advance(&mut self, label: &str, seq: u64, tick: u64) -> Result<(), String> {
        if let Some(last) = self.last_seq {
            if seq <= last {
                return Err(format!("{label}seq {seq} not greater than previous {last}"));
            }
        }
        self.last_seq = Some(seq);
        if let Some(last) = self.last_tick {
            if tick < last {
                return Err(format!(
                    "{label}tick {tick} went backwards (previous {last})"
                ));
            }
        }
        self.last_tick = Some(tick);
        Ok(())
    }
}

/// Line-by-line validator with cross-line state.
///
/// Two schemas are understood: `dynawave-obs` event/bench lines and
/// `dynawave-serve` response lines (a traced serve session interleaves
/// both on one stream). Each schema keeps its *own* `seq`/`tick` track —
/// the serve engine and the obs recorder number independently.
#[derive(Debug, Default)]
pub struct SchemaValidator {
    line_no: u64,
    obs: Track,
    serve: Track,
    summary: ValidationSummary,
}

impl SchemaValidator {
    /// A fresh validator with no stream state.
    pub fn new() -> Self {
        SchemaValidator::default()
    }

    /// Validates one line (without its trailing newline). Empty lines are
    /// ignored. Returns `Err(reason)` for an invalid line; the error is
    /// also recorded in the summary.
    pub fn check_line(&mut self, line: &str) -> Result<(), String> {
        self.line_no += 1;
        if line.trim().is_empty() {
            return Ok(());
        }
        match self.check_inner(line) {
            Ok(()) => {
                self.summary.valid += 1;
                Ok(())
            }
            Err(reason) => {
                self.summary.errors.push((self.line_no, reason.clone()));
                Err(reason)
            }
        }
    }

    /// Validates a torn final line — one that lost its trailing newline
    /// to a crash mid-write. A line that happens to be complete and
    /// valid is counted normally; an invalid one is *ignored* rather
    /// than recorded as a stream error (the same torn-tail rule the
    /// campaign and serve journals apply on resume), and the reason is
    /// returned so callers can surface a warning.
    pub fn check_torn_tail(&mut self, line: &str) -> Result<(), String> {
        if line.trim().is_empty() {
            self.line_no += 1;
            return Ok(());
        }
        match self.check_inner(line) {
            Ok(()) => {
                self.line_no += 1;
                self.summary.valid += 1;
                Ok(())
            }
            Err(reason) => Err(reason),
        }
    }

    /// Consumes the validator and returns the stream summary.
    pub fn finish(self) -> ValidationSummary {
        self.summary
    }

    fn check_inner(&mut self, line: &str) -> Result<(), String> {
        let obj = json::parse_object(line)?;
        if obj.get("schema").and_then(Value::as_str) == Some(SERVE_SCHEMA) {
            return self.check_serve(&obj);
        }
        let decoded = ObsLine::from_json(&obj)?;
        let stage = match &decoded {
            ObsLine::Event(e) => {
                self.obs.advance("", e.seq, e.tick)?;
                Some(e.stage())
            }
            ObsLine::Bench(_) => None,
        };
        self.tally(decoded.kind_name().to_string(), stage);
        Ok(())
    }

    /// Validates a `dynawave-serve` response line: the fixed head
    /// (`v`/`seq`/`tick`/`id`/`kind`), the canonical response-kind
    /// vocabulary, and — for `kind:"stats"` — the versioned snapshot
    /// payload. Serve lines tally under the `serve` stage and a
    /// `serve:<kind>` key in the kind counts.
    fn check_serve(&mut self, obj: &BTreeMap<String, Value>) -> Result<(), String> {
        match obj.get("v").and_then(Value::as_u64) {
            Some(SERVE_SCHEMA_VERSION) => {}
            Some(other) => return Err(format!("unsupported serve schema version {other}")),
            None => return Err("missing or non-integer 'v' field".to_string()),
        }
        let kind = obj
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("missing 'kind' field")?;
        if !SERVE_RESPONSE_KINDS.contains(&kind) {
            return Err(format!("unknown serve response kind '{kind}'"));
        }
        let seq = require_u64(obj, "seq")?;
        let tick = require_u64(obj, "tick")?;
        match obj.get("id") {
            Some(Value::String(_)) | Some(Value::Null) => {}
            Some(_) => return Err("serve 'id' must be a string or null".to_string()),
            None => return Err("missing serve 'id' field".to_string()),
        }
        if kind == "stats" {
            check_serve_stats(obj)?;
        }
        self.serve.advance("serve ", seq, tick)?;
        self.tally(format!("serve:{kind}"), Some("serve"));
        Ok(())
    }

    /// Counts one valid line under its kind and, for stream lines, its
    /// stage.
    fn tally(&mut self, kind: String, stage: Option<&str>) {
        *self.summary.kinds.entry(kind).or_insert(0) += 1;
        if let Some(stage) = stage {
            self.summary.stages.insert(stage.to_string());
            *self
                .summary
                .stage_counts
                .entry(stage.to_string())
                .or_insert(0) += 1;
        }
    }
}

/// Validates the `stats` snapshot payload of a serve `stats` response:
/// version, the fixed set of counter sections, per-kind latency
/// histograms (counts one longer than bounds), and the journal status
/// enum. Section *presence and shape* is the contract; individual
/// counter names inside each section may grow without a version bump.
fn check_serve_stats(obj: &BTreeMap<String, Value>) -> Result<(), String> {
    let stats = obj
        .get("stats")
        .and_then(Value::as_object)
        .ok_or("stats response missing 'stats' object")?;
    match stats.get("v").and_then(Value::as_u64) {
        Some(SERVE_STATS_VERSION) => {}
        Some(other) => return Err(format!("unsupported stats snapshot version {other}")),
        None => return Err("stats snapshot missing integer 'v'".to_string()),
    }
    for section in [
        "requests", "outcomes", "deadline", "rungs", "models", "load",
    ] {
        let sec = stats
            .get(section)
            .and_then(Value::as_object)
            .ok_or_else(|| format!("stats snapshot missing '{section}' object"))?;
        for (name, value) in sec {
            value
                .as_u64()
                .ok_or_else(|| format!("non-integer stats field '{section}.{name}'"))?;
        }
    }
    let latency = stats
        .get("latency")
        .and_then(Value::as_object)
        .ok_or("stats snapshot missing 'latency' object")?;
    for (kind, hist) in latency {
        let hist = hist
            .as_object()
            .ok_or_else(|| format!("stats latency '{kind}' is not an object"))?;
        let bounds = hist
            .get("bounds")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("stats latency '{kind}' missing 'bounds'"))?;
        for b in bounds {
            b.as_u64()
                .ok_or_else(|| format!("non-integer bound in stats latency '{kind}'"))?;
        }
        let counts = hist
            .get("counts")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("stats latency '{kind}' missing 'counts'"))?;
        if counts.len() != bounds.len() + 1 {
            return Err(format!(
                "stats latency '{kind}' counts length {} != bounds length {} + 1",
                counts.len(),
                bounds.len()
            ));
        }
        for c in counts {
            c.as_u64()
                .ok_or_else(|| format!("non-integer count in stats latency '{kind}'"))?;
        }
    }
    match stats.get("journal").and_then(Value::as_str) {
        Some("none") | Some("active") | Some("broken") => Ok(()),
        Some(other) => Err(format!("unknown stats journal status '{other}'")),
        None => Err("stats snapshot missing 'journal' status".to_string()),
    }
}

/// Validates a whole multi-line stream in one call.
pub fn validate_stream(text: &str) -> ValidationSummary {
    let mut v = SchemaValidator::new();
    for line in text.lines() {
        let _ = v.check_line(line);
    }
    v.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{encode_lines, Event, EventKind};

    fn ev(seq: u64, tick: u64, kind: EventKind, name: &str) -> Event {
        Event::new(seq, tick, kind, name)
    }

    #[test]
    fn recorder_output_validates_clean() {
        let mut enter = ev(0, 1, EventKind::SpanEnter, "sim.run_trace");
        enter.depth = Some(0);
        let mut exit = ev(1, 2, EventKind::SpanExit, "sim.run_trace");
        exit.depth = Some(0);
        exit.ticks = Some(1);
        let mut counter = ev(2, 3, EventKind::Counter, "sim.intervals_retired");
        counter.count = Some(8);
        let mut gauge = ev(3, 4, EventKind::Gauge, "wavelet.coeff_energy_retained");
        gauge.value = Some(0.97);
        let mut hist = ev(4, 5, EventKind::Histogram, "neural.nmse");
        hist.bounds = Some(vec![1.0, 5.0]);
        hist.counts = Some(vec![2, 1, 0]);
        let marker = ev(5, 6, EventKind::Marker, "campaign.heartbeat");
        let text = encode_lines(&[enter, exit, counter, gauge, hist, marker]);
        let summary = validate_stream(&text);
        assert!(summary.is_clean(), "{:?}", summary.errors);
        assert_eq!(summary.valid, 6);
        assert!(summary.stages.contains("sim"));
        assert!(summary.stages.contains("campaign"));
        assert!(summary.missing_stages(&["sim", "neural"]).is_empty());
        assert_eq!(summary.missing_stages(&["predictor"]), vec!["predictor"]);
    }

    #[test]
    fn torn_tail_is_warned_not_counted() {
        let complete = "{\"schema\":\"dynawave-obs\",\"v\":1,\"seq\":1,\"tick\":1,\
                        \"kind\":\"marker\",\"name\":\"serve.heartbeat\"}";
        // A torn tail that is broken JSON: ignored, not an error.
        let mut v = SchemaValidator::new();
        assert!(v.check_line(complete).is_ok());
        let torn = &complete[..complete.len() / 2];
        assert!(v.check_torn_tail(torn).is_err());
        let summary = v.finish();
        assert!(summary.is_clean(), "{:?}", summary.errors);
        assert_eq!(summary.valid, 1);
        // A torn tail that happens to be a complete line: counted.
        let mut v = SchemaValidator::new();
        assert!(v.check_torn_tail(complete).is_ok());
        let summary = v.finish();
        assert!(summary.is_clean());
        assert_eq!(summary.valid, 1);
        assert!(summary.stages.contains("serve"));
    }

    #[test]
    fn bench_lines_are_accepted_without_seq() {
        let line = "{\"schema\":\"dynawave-obs\",\"v\":1,\"kind\":\"bench\",\
                    \"bench\":\"dwt_1024\",\"median_ns\":1234.5}";
        let summary = validate_stream(line);
        assert!(summary.is_clean(), "{:?}", summary.errors);
        assert_eq!(summary.kinds.get("bench"), Some(&1));
    }

    #[test]
    fn bench_v2_units_validate_and_misversioned_units_reject() {
        let v2 = "{\"schema\":\"dynawave-obs\",\"v\":1,\"schema_version\":2,\
                  \"kind\":\"bench\",\"bench\":\"campaign/speedup\",\
                  \"median_ns\":3800,\"unit\":\"ratio_x1000\"}";
        assert!(validate_stream(v2).is_clean());
        // `unit` on a v1 line is a schema violation, not a silent extra.
        let v1_unit = "{\"schema\":\"dynawave-obs\",\"v\":1,\"schema_version\":1,\
                       \"kind\":\"bench\",\"bench\":\"x\",\"median_ns\":1,\
                       \"unit\":\"count\"}";
        let summary = validate_stream(v1_unit);
        assert!(summary.errors[0].1.contains("schema_version >= 2"));
        // Future versions are rejected until the validator learns them.
        let v3 = "{\"schema\":\"dynawave-obs\",\"v\":1,\"schema_version\":3,\
                  \"kind\":\"bench\",\"bench\":\"x\",\"median_ns\":1}";
        assert!(!validate_stream(v3).is_clean());
        // Non-finite noise bounds are rejected when present.
        let inf = "{\"schema\":\"dynawave-obs\",\"v\":1,\"kind\":\"bench\",\
                   \"bench\":\"x\",\"median_ns\":1,\"min_ns\":1e999}";
        assert!(validate_stream(inf).errors[0].1.contains("min_ns"));
    }

    #[test]
    fn stage_counts_tally_valid_event_lines_only() {
        let text = "{\"schema\":\"dynawave-obs\",\"v\":1,\"seq\":0,\"tick\":1,\
                    \"kind\":\"marker\",\"name\":\"sim.start\"}\n\
                    {\"schema\":\"dynawave-obs\",\"v\":1,\"seq\":1,\"tick\":2,\
                    \"kind\":\"counter\",\"name\":\"sim.intervals_retired\"}\n\
                    {\"schema\":\"dynawave-obs\",\"v\":1,\"seq\":2,\"tick\":3,\
                    \"kind\":\"marker\",\"name\":\"campaign.heartbeat\"}";
        let summary = validate_stream(text);
        // The counter line is invalid (no 'count'), so sim tallies 1.
        assert_eq!(summary.stage_counts.get("sim"), Some(&1));
        assert_eq!(summary.stage_counts.get("campaign"), Some(&1));
        assert_eq!(summary.errors.len(), 1);
    }

    #[test]
    fn rejects_bad_header_and_fields() {
        for (line, why) in [
            ("not json", "parse"),
            ("{\"v\":1,\"kind\":\"marker\"}", "missing schema"),
            (
                "{\"schema\":\"other\",\"v\":1,\"kind\":\"marker\"}",
                "wrong schema",
            ),
            (
                "{\"schema\":\"dynawave-obs\",\"v\":2,\"kind\":\"marker\"}",
                "wrong version",
            ),
            (
                "{\"schema\":\"dynawave-obs\",\"v\":1,\"seq\":0,\"tick\":0,\
                 \"kind\":\"counter\",\"name\":\"x\"}",
                "counter without count",
            ),
            (
                "{\"schema\":\"dynawave-obs\",\"v\":1,\"seq\":0,\"tick\":0,\
                 \"kind\":\"hist\",\"name\":\"x\",\"bounds\":[1],\"counts\":[1]}",
                "short counts",
            ),
            (
                "{\"schema\":\"dynawave-obs\",\"v\":1,\"seq\":0,\"tick\":0,\
                 \"kind\":\"marker\",\"name\":\"x\",\"detail\":7}",
                "non-string detail",
            ),
            (
                "{\"schema\":\"dynawave-obs\",\"v\":1,\"kind\":\"bench\",\
                 \"bench\":\"x\",\"median_ns\":1,\"iters\":1.5}",
                "fractional iters",
            ),
        ] {
            let summary = validate_stream(line);
            assert!(!summary.is_clean(), "should reject: {why}");
        }
    }

    #[test]
    fn seq_must_strictly_increase_and_tick_not_regress() {
        let good = "{\"schema\":\"dynawave-obs\",\"v\":1,\"seq\":0,\"tick\":5,\
                    \"kind\":\"marker\",\"name\":\"a.b\"}\n\
                    {\"schema\":\"dynawave-obs\",\"v\":1,\"seq\":0,\"tick\":5,\
                    \"kind\":\"marker\",\"name\":\"a.b\"}";
        let summary = validate_stream(good);
        assert_eq!(summary.valid, 1);
        assert_eq!(summary.errors.len(), 1);
        assert!(summary.errors[0].1.contains("seq"));

        let regress = "{\"schema\":\"dynawave-obs\",\"v\":1,\"seq\":0,\"tick\":5,\
                       \"kind\":\"marker\",\"name\":\"a.b\"}\n\
                       {\"schema\":\"dynawave-obs\",\"v\":1,\"seq\":1,\"tick\":4,\
                       \"kind\":\"marker\",\"name\":\"a.b\"}";
        let summary = validate_stream(regress);
        assert!(summary.errors[0].1.contains("tick"));
    }

    #[test]
    fn serve_response_lines_validate_on_their_own_track() {
        // Obs seq restarts below serve seq: the two tracks are
        // independent, so this stream is clean.
        let text = "{\"schema\":\"dynawave-serve\",\"v\":1,\"seq\":5,\"tick\":9,\
                    \"id\":\"a\",\"kind\":\"ok\",\"rung\":\"primary\",\"results\":[]}\n\
                    {\"schema\":\"dynawave-obs\",\"v\":1,\"seq\":0,\"tick\":1,\
                    \"kind\":\"marker\",\"name\":\"serve.parse\"}\n\
                    {\"schema\":\"dynawave-serve\",\"v\":1,\"seq\":6,\"tick\":9,\
                    \"id\":null,\"kind\":\"error\",\"code\":\"bad-request\"}";
        let summary = validate_stream(text);
        assert!(summary.is_clean(), "{:?}", summary.errors);
        assert_eq!(summary.kinds.get("serve:ok"), Some(&1));
        assert_eq!(summary.kinds.get("serve:error"), Some(&1));
        assert_eq!(summary.stage_counts.get("serve"), Some(&3));
        assert!(summary.stages.contains("serve"));
    }

    #[test]
    fn serve_lines_reject_bad_head_and_kinds() {
        for (line, why) in [
            (
                "{\"schema\":\"dynawave-serve\",\"v\":2,\"seq\":0,\"tick\":0,\
                 \"id\":\"a\",\"kind\":\"ok\"}",
                "wrong serve version",
            ),
            (
                "{\"schema\":\"dynawave-serve\",\"v\":1,\"seq\":0,\"tick\":0,\
                 \"id\":\"a\",\"kind\":\"predict\"}",
                "request kind on a response stream",
            ),
            (
                "{\"schema\":\"dynawave-serve\",\"v\":1,\"tick\":0,\
                 \"id\":\"a\",\"kind\":\"ok\"}",
                "missing seq",
            ),
            (
                "{\"schema\":\"dynawave-serve\",\"v\":1,\"seq\":0,\"tick\":0,\
                 \"id\":7,\"kind\":\"ok\"}",
                "non-string id",
            ),
        ] {
            assert!(!validate_stream(line).is_clean(), "should reject: {why}");
        }
        // Serve seq must strictly increase on the serve track.
        let dup = "{\"schema\":\"dynawave-serve\",\"v\":1,\"seq\":1,\"tick\":0,\
                   \"id\":\"a\",\"kind\":\"ok\"}\n\
                   {\"schema\":\"dynawave-serve\",\"v\":1,\"seq\":1,\"tick\":0,\
                   \"id\":\"b\",\"kind\":\"ok\"}";
        let summary = validate_stream(dup);
        assert_eq!(summary.errors.len(), 1);
        assert!(summary.errors[0].1.contains("serve seq"));
    }

    #[test]
    fn stats_snapshot_lines_validate_payload_shape() {
        let good = "{\"schema\":\"dynawave-serve\",\"v\":1,\"seq\":3,\"tick\":7,\
            \"id\":\"s\",\"kind\":\"stats\",\"stats\":{\"v\":1,\
            \"requests\":{\"predict\":2,\"stats\":1,\"invalid\":0},\
            \"outcomes\":{\"ok\":2,\"stats\":1},\
            \"latency\":{\"predict\":{\"bounds\":[1,4],\"counts\":[0,2,0]}},\
            \"deadline\":{\"granted\":8192,\"used\":34,\"refused\":0},\
            \"rungs\":{\"primary\":2},\
            \"models\":{\"hits\":1,\"misses\":1},\
            \"load\":{\"level\":0,\"capacity\":16384},\
            \"journal\":\"none\"}}";
        let summary = validate_stream(good);
        assert!(summary.is_clean(), "{:?}", summary.errors);
        assert_eq!(summary.kinds.get("serve:stats"), Some(&1));

        for (mutation, why) in [
            (
                good.replace("\"v\":1,\"requests\"", "\"v\":9,\"requests\""),
                "bad stats version",
            ),
            (
                good.replace("\"journal\":\"none\"", "\"journal\":\"maybe\""),
                "bad journal status",
            ),
            (
                good.replace("\"counts\":[0,2,0]", "\"counts\":[0,2]"),
                "short counts",
            ),
            (
                good.replace(",\"rungs\":{\"primary\":2}", ""),
                "missing section",
            ),
            (
                good.replace("\"predict\":2", "\"predict\":2.5"),
                "non-integer counter",
            ),
        ] {
            assert!(
                !validate_stream(&mutation).is_clean(),
                "should reject: {why}"
            );
        }
    }

    #[test]
    fn empty_lines_are_ignored() {
        let summary = validate_stream("\n\n");
        assert!(summary.is_clean());
        assert_eq!(summary.valid, 0);
    }
}
