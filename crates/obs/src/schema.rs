//! Canonical schema vocabulary for every dynawave byte stream.
//!
//! The workspace speaks three kinds of line-oriented text: the obs event
//! stream (`{"schema":"dynawave-obs",...}`), bench JSON lines (same
//! schema, `kind:"bench"`, versioned units) and the campaign journal
//! (`dynawave-campaign v1` magic). Emitters and parsers used to repeat
//! these strings as scattered literals — a typo in one producer silently
//! diverged the fleet. This module is the single source of truth;
//! dynalint rule D013 cross-checks every string literal in the workspace
//! against it, so drift is a lint failure, not a runtime mystery.

pub use crate::event::{BENCH_SCHEMA_VERSION, BENCH_UNIT_NS, SCHEMA_NAME, SCHEMA_VERSION};

/// Magic tag on the first line of every campaign journal — one file per
/// campaign, whatever its worker count. The version suffix is part of
/// the fingerprint: bumping it invalidates resume against old journals.
pub const CAMPAIGN_JOURNAL: &str = "dynawave-campaign v1";

/// Magic tag on the first line of every persisted predictor model.
pub const MODEL_MAGIC: &str = "dynawave-model v1";

/// Schema tag carried by every request and response line of the DSE
/// prediction daemon (`dynawave-core`'s `serve` module).
pub const SERVE_SCHEMA: &str = "dynawave-serve";

/// Current version of the serve request/response line schema (the `v`
/// field next to [`SERVE_SCHEMA`]).
pub const SERVE_SCHEMA_VERSION: u64 = 1;

/// Magic tag on the first line of every serve response journal. Like the
/// campaign journal, the version suffix is part of the crash-safety
/// contract: bumping it invalidates replay against old journals.
pub const SERVE_JOURNAL: &str = "dynawave-serve v1";

/// Every canonical `dynawave-*` schema tag. A string literal that looks
/// like a schema tag (`dynawave-<word>`, optionally ` v<digits>`) but is
/// not in this list is a D013 finding.
pub const SCHEMA_TAGS: [&str; 5] = [
    SCHEMA_NAME,
    CAMPAIGN_JOURNAL,
    MODEL_MAGIC,
    SERVE_SCHEMA,
    SERVE_JOURNAL,
];

/// Every request `kind` the serve protocol accepts. `stats` is the
/// side-effect-free introspection kind: it consumes no work ticks and
/// answers with a versioned counter/histogram snapshot.
pub const SERVE_REQUEST_KINDS: [&str; 5] = ["predict", "pareto", "topk", "sweep", "stats"];

/// Every response `kind` the serve protocol emits. D013 checks `"kind"`
/// values embedded in `dynawave-serve` JSON templates against the union
/// of this list and [`SERVE_REQUEST_KINDS`]. A `stats` request is
/// answered with a `stats` response (it cannot be `partial`).
pub const SERVE_RESPONSE_KINDS: [&str; 5] = ["ok", "partial", "error", "overloaded", "stats"];

/// True when `kind` is a canonical serve request or response kind.
pub fn is_serve_kind(kind: &str) -> bool {
    SERVE_REQUEST_KINDS.contains(&kind) || SERVE_RESPONSE_KINDS.contains(&kind)
}

/// Version of the `stats` snapshot object embedded in a `stats`
/// response (its `stats_v` field). Bump when snapshot fields change.
pub const SERVE_STATS_VERSION: u64 = 1;

/// Every obs instrument name (span, counter, gauge, histogram or marker)
/// the serve layer may emit. D013 checks any `serve.`-prefixed literal
/// passed to an obs emitter against this list, so an instrument rename
/// that skips this vocabulary is a lint failure.
pub const SERVE_METRICS: [&str; 31] = [
    // Request-scoped spans, in pipeline order.
    "serve.request",
    "serve.parse",
    "serve.admission",
    "serve.model_resolve",
    "serve.model_acquire",
    "serve.solve",
    "serve.journal_append",
    "serve.replay",
    // Outcome counters.
    "serve.responses.ok",
    "serve.responses.partial",
    "serve.responses.error",
    "serve.responses.overloaded",
    "serve.responses.stats",
    "serve.responses.deadline_exceeded",
    "serve.responses.degraded",
    "serve.models.loaded",
    "serve.models.trained",
    "serve.models.failed",
    "serve.journal.broken",
    "serve.replay.responses",
    // Gauges.
    "serve.load",
    // Markers.
    "serve.request_id",
    "serve.model_load_failed",
    "serve.journal_disabled",
    "serve.degraded",
    "serve.overloaded",
    "serve.flight_recorder",
    // Per-kind tick-latency histograms (see [`serve_latency_histogram`]).
    "serve.latency.predict",
    "serve.latency.pareto",
    "serve.latency.topk",
    "serve.latency.sweep",
];

/// True when `name` is a canonical serve instrument name.
pub fn is_serve_metric(name: &str) -> bool {
    SERVE_METRICS.contains(&name)
}

/// Obs histogram name for the tick latency of a serve request `kind`,
/// or `None` for kinds without a latency histogram (`stats` is
/// side-effect free and always zero-tick, so it has none). Returning
/// `'static` literals keeps every emitted name inside [`SERVE_METRICS`]
/// and therefore D013-checkable.
pub fn serve_latency_histogram(kind: &str) -> Option<&'static str> {
    match kind {
        "predict" => Some("serve.latency.predict"),
        "pareto" => Some("serve.latency.pareto"),
        "topk" => Some("serve.latency.topk"),
        "sweep" => Some("serve.latency.sweep"),
        _ => None,
    }
}

/// Bucket upper bounds (in ticks) for serve latency histograms — both
/// the obs-side [`serve_latency_histogram`] instruments and the
/// engine-internal histograms snapshotted by the `stats` kind use the
/// same bounds, so the two views are directly comparable. Powers of four
/// from 1 tick to 64Ki ticks; anything above lands in the implicit
/// overflow bucket.
pub const SERVE_LATENCY_BOUNDS: [u64; 9] = [1, 4, 16, 64, 256, 1024, 4096, 16384, 65536];

/// Unit for derived dimensionless ratios, scaled by 1000 to stay
/// integral-friendly (bench schema v2).
pub const BENCH_UNIT_RATIO_X1000: &str = "ratio_x1000";

/// Unit for plain counts (bench schema v2).
pub const BENCH_UNIT_COUNT: &str = "count";

/// Every canonical bench `unit` value. v1 lines carry no unit and are
/// implicitly [`BENCH_UNIT_NS`].
pub const BENCH_UNITS: [&str; 3] = [BENCH_UNIT_NS, BENCH_UNIT_RATIO_X1000, BENCH_UNIT_COUNT];

/// Canonical pipeline stages: the segment before the first `.` in every
/// instrument name (`sim.run_trace`, `campaign.heartbeat`, ...). The obs
/// analyzer groups by these; `obs_validate --require-stages` and D013
/// both key off the same list.
pub const STAGES: [&str; 9] = [
    "sim",
    "wavelet",
    "neural",
    "predictor",
    "experiment",
    "campaign",
    "bench",
    "lint",
    "serve",
];

/// True when `name` starts with a canonical stage prefix followed by a
/// `.` separator (instrument names are always `stage.rest`).
pub fn has_canonical_stage(name: &str) -> bool {
    match name.split_once('.') {
        Some((stage, rest)) => !rest.is_empty() && STAGES.contains(&stage),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_include_event_schema() {
        assert!(SCHEMA_TAGS.contains(&SCHEMA_NAME));
        assert!(SCHEMA_TAGS.contains(&CAMPAIGN_JOURNAL));
        assert!(SCHEMA_TAGS.contains(&SERVE_SCHEMA));
        assert!(SCHEMA_TAGS.contains(&SERVE_JOURNAL));
    }

    #[test]
    fn serve_kinds_are_canonical() {
        for k in SERVE_REQUEST_KINDS.iter().chain(&SERVE_RESPONSE_KINDS) {
            assert!(is_serve_kind(k), "{k}");
        }
        assert!(!is_serve_kind("okk"));
        assert!(STAGES.contains(&"serve"));
        assert!(has_canonical_stage("serve.request"));
    }

    #[test]
    fn serve_metrics_are_stage_prefixed_and_sorted_sections() {
        for name in SERVE_METRICS {
            assert!(has_canonical_stage(name), "{name}");
            assert!(is_serve_metric(name), "{name}");
        }
        assert!(!is_serve_metric("serve.latency.stats"));
        for kind in ["predict", "pareto", "topk", "sweep"] {
            let hist = serve_latency_histogram(kind).unwrap();
            assert!(is_serve_metric(hist), "{hist}");
        }
        assert!(serve_latency_histogram("stats").is_none());
        assert!(serve_latency_histogram("ok").is_none());
        assert!(SERVE_LATENCY_BOUNDS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn units_include_ns() {
        assert!(BENCH_UNITS.contains(&BENCH_UNIT_NS));
    }

    #[test]
    fn stage_prefix_check() {
        assert!(has_canonical_stage("sim.run_trace"));
        assert!(has_canonical_stage("campaign.heartbeat"));
        assert!(!has_canonical_stage("simulator.run"));
        assert!(!has_canonical_stage("sim."));
        assert!(!has_canonical_stage("nodot"));
    }
}
