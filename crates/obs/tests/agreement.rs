//! The validator and the two stream readers share one decoder per line
//! type, so they must agree on every line: `obs_validate` accepts an
//! event line exactly when `parse_events` (behind `obs_report`) does,
//! and a bench line exactly when `BenchSnapshot::parse` (behind
//! `compare_bench`) does.
//!
//! The table starts from well-formed lines — the encoder's output for
//! every event kind plus a v1 and a v2 bench line — and mutates each:
//! every field dropped in turn, histogram counts off by one, `1e999`
//! (which overflows to infinity) in every float field, a foreign schema
//! tag and a wrong `v`.

use dynawave_obs::{parse_events, validate_stream, BenchSnapshot, Event, EventKind};

/// Splits a one-line JSON object into its top-level `(key, raw value)`
/// pairs, keeping each value's text exactly as written.
fn fields(line: &str) -> Vec<(String, String)> {
    let body = &line[1..line.len() - 1];
    let mut parts = Vec::new();
    let (mut depth, mut in_string, mut escaped, mut start) = (0, false, false, 0);
    for (i, c) in body.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' | '{' => depth += 1,
            ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts
        .into_iter()
        .map(|part| {
            let (key, value) = part.split_once(':').expect("key:value");
            (key.trim_matches('"').to_string(), value.to_string())
        })
        .collect()
}

fn join(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// `line` with field `key` set to the raw JSON `value`.
fn with(line: &str, key: &str, value: &str) -> String {
    let mut fields = fields(line);
    for (k, v) in &mut fields {
        if k == key {
            *v = value.to_string();
        }
    }
    join(&fields)
}

fn event_lines() -> Vec<String> {
    let mut enter = Event::new(0, 1, EventKind::SpanEnter, "sim.run_trace");
    enter.depth = Some(0);
    let mut exit = Event::new(1, 2, EventKind::SpanExit, "sim.run_trace");
    exit.depth = Some(0);
    exit.ticks = Some(1);
    let mut counter = Event::new(2, 3, EventKind::Counter, "sim.intervals_retired");
    counter.count = Some(64);
    let mut gauge = Event::new(3, 4, EventKind::Gauge, "wavelet.coeff_energy_retained");
    gauge.value = Some(0.5);
    let mut hist = Event::new(4, 5, EventKind::Histogram, "serve.latency.predict");
    hist.bounds = Some(vec![1.0, 4.5]);
    hist.counts = Some(vec![1, 2, 3]);
    let mut marker = Event::new(5, 6, EventKind::Marker, "campaign.heartbeat");
    marker.detail = Some("gcc/cpi/train/0".to_string());
    [enter, exit, counter, gauge, hist, marker]
        .iter()
        .map(Event::to_json_line)
        .collect()
}

fn bench_lines() -> Vec<String> {
    vec![
        "{\"schema\":\"dynawave-obs\",\"v\":1,\"schema_version\":1,\"kind\":\"bench\",\
         \"bench\":\"wavelet/wavedec_haar/128\",\"median_ns\":861,\"min_ns\":682,\
         \"max_ns\":1137,\"iters\":23765,\"throughput_elems\":128}"
            .to_string(),
        "{\"schema\":\"dynawave-obs\",\"v\":1,\"schema_version\":2,\"kind\":\"bench\",\
         \"bench\":\"campaign/full_space/speedup_x1000\",\"unit\":\"ratio_x1000\",\
         \"median_ns\":3841,\"min_ns\":3700,\"max_ns\":3900,\"iters\":1,\"throughput_elems\":4}"
            .to_string(),
    ]
}

/// The base line followed by its mutations.
fn mutations(line: &str) -> Vec<String> {
    let base = fields(line);
    let mut out = vec![line.to_string()];
    for i in 0..base.len() {
        let mut dropped = base.clone();
        dropped.remove(i);
        out.push(join(&dropped));
    }
    out.push(with(line, "schema", "\"dynawave-other\""));
    out.push(with(line, "v", "2"));
    for (key, value) in &base {
        match key.as_str() {
            "value" | "median_ns" | "min_ns" | "max_ns" => out.push(with(line, key, "1e999")),
            "bounds" => out.push(with(line, key, &value.replacen("1", "1e999", 1))),
            "counts" => {
                out.push(with(line, key, &value.replacen("[1,", "[", 1)));
                out.push(with(line, key, &value.replacen("[", "[0,", 1)));
            }
            _ => {}
        }
    }
    out
}

#[test]
fn validator_and_readers_agree_on_every_line() {
    let mut refused = 0;
    let mut total = 0;
    for (lines, is_bench) in [(event_lines(), false), (bench_lines(), true)] {
        for base in lines {
            assert!(
                validate_stream(&base).is_clean(),
                "base line invalid: {base}"
            );
            for line in mutations(&base) {
                let clean = validate_stream(&line).is_clean();
                let read = if is_bench {
                    BenchSnapshot::parse(&line).map(|_| ())
                } else {
                    parse_events(&line).map(|_| ())
                };
                assert_eq!(
                    clean,
                    read.is_ok(),
                    "validator {} but reader {:?}: {line}",
                    if clean { "accepts" } else { "refuses" },
                    read
                );
                total += 1;
                refused += u32::from(!clean);
            }
        }
    }
    // The table must exercise both verdicts.
    assert!(
        refused > 30 && refused < total,
        "{refused} of {total} refused"
    );
}
