//! `serve`: one client in a closed loop (one request in flight) against
//! the release `serve` binary over stdin/stdout, journal on, with flags
//! that admit the whole mix. The seeded mix per round: large `predict`
//! batches with and without `trace`, many single-point `predict`s,
//! `sweep`, `topk` and `pareto` over two benchmarks, `stats` probes and
//! malformed lines with known error codes. Each session starts with
//! held-out probes: `predict` with `trace` at the model's test design,
//! scored against simulated traces for the NMSE metrics.
//!
//! Model evaluation (predictor, `waverec`) dominates the big batches; the
//! protocol and the journal append dominate the small ones. Set-up is the
//! daemon's spawn plus its lazy model training, triggered by warm-up
//! requests.

use crate::layers::{self, LayeredModel, Stopwatch, Tracer};
use crate::{derive, median, peak_rss_mb, quantile, Args, Outcome};
use dynawave_core::experiment::ExperimentConfig;
use dynawave_core::serve::{ServeConfig, ServeEngine, ServeJournal};
use dynawave_core::{collect_domain_traces, persist, Metric, TraceSet};
use dynawave_numeric::rng::Rng;
use dynawave_numeric::stats::nmse_percent;
use dynawave_obs::json::{self, Value};
use dynawave_obs::schema::{SERVE_SCHEMA, SERVE_SCHEMA_VERSION};
use dynawave_sampling::{random, DesignPoint, Split};
use dynawave_workloads::Benchmark;
use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

const BENCHMARKS: [Benchmark; 2] = [Benchmark::Gcc, Benchmark::Mcf];

/// Training points per lazily trained model, instructions per sample, and
/// held-out points per (benchmark, metric) probe.
const TRAIN: usize = 64;
const INTERVAL: u64 = 64;
const HELD_OUT: usize = 16;

/// Set-up (spawn plus lazy training) is repeated for a steadier median.
const SETUP_REPEATS: usize = 5;

/// Rounds of the mix in a traced run: fixed, so its counts repeat.
const TRACED_ROUNDS: usize = 100;

/// A valid request answered slower than this counts as failed.
const LATENCY_LIMIT_S: f64 = 0.25;

/// Admission settings under which the whole mix is admitted: no deadline
/// refusal, no partial answer, no backpressure.
const DEADLINE: u64 = 1_000_000_000;
const CAPACITY: u64 = 1_000_000_000_000;

/// The response a request must get.
#[derive(Clone, Copy, PartialEq)]
enum Expect {
    Ok,
    Stats,
    Error(&'static str),
}

struct Request {
    line: String,
    /// Request kind, or `invalid` for malformed lines.
    kind: &'static str,
    expect: Expect,
    /// For `predict` with `trace`: benchmark index, metric and points, so
    /// the returned traces can be checked.
    traced: Option<(usize, Metric, Vec<DesignPoint>)>,
}

/// The session's requests: warm-up (part of set-up), the held-out probes,
/// one round of the mix (repeated), and a closing `stats` probe.
struct Mix {
    warmup: Vec<Request>,
    probes: Vec<Request>,
    round: Vec<Request>,
    last: Request,
}

fn config(args: &Args) -> ExperimentConfig {
    let (train, held_out, samples, interval) = if args.smoke {
        (16, 4, 32, 16)
    } else {
        (TRAIN, HELD_OUT, 128, INTERVAL)
    };
    ExperimentConfig {
        train_points: train,
        test_points: held_out,
        samples,
        interval_instructions: interval,
        seed: derive(args.seed, "serve/model"),
        ..ExperimentConfig::default()
    }
}

fn serve_config(cfg: &ExperimentConfig, models_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        config: cfg.clone(),
        default_deadline: DEADLINE,
        queue_capacity: CAPACITY,
        drain_per_request: CAPACITY,
        models_dir,
        ..ServeConfig::default()
    }
}

fn vector(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", v.join(","))
}

fn points_json(points: &[DesignPoint]) -> String {
    let v: Vec<String> = points.iter().map(|p| vector(p.values())).collect();
    format!("[{}]", v.join(","))
}

fn head(id: &str, kind: &str) -> String {
    format!("{{\"schema\":\"{SERVE_SCHEMA}\",\"v\":{SERVE_SCHEMA_VERSION},\"id\":\"{id}\",\"kind\":\"{kind}\"")
}

fn predict(id: &str, bi: usize, metric: Metric, points: Vec<DesignPoint>, trace: bool) -> Request {
    let line = format!(
        "{},\"benchmark\":\"{}\",\"metric\":\"{}\",\"points\":{},\"trace\":{trace}}}",
        head(id, "predict"),
        BENCHMARKS[bi].name(),
        metric.name(),
        points_json(&points)
    );
    Request {
        line,
        kind: "predict",
        expect: Expect::Ok,
        traced: trace.then_some((bi, metric, points)),
    }
}

fn request(line: String, kind: &'static str, expect: Expect) -> Request {
    Request {
        line,
        kind,
        expect,
        traced: None,
    }
}

fn build_mix(args: &Args, cfg: &ExperimentConfig) -> Mix {
    let mut rng = Rng::new(derive(args.seed, "serve/mix"));
    let space = cfg.space();
    let draw = |rng: &mut Rng, n: usize| random::sample(&space, n, Split::Test, rng.next_u64());
    let metric = |rng: &mut Rng| Metric::DOMAINS[rng.range_usize(0, 3)];
    let bench = |rng: &mut Rng| rng.range_usize(0, BENCHMARKS.len());

    // A two-point pareto per benchmark touches all three of its models.
    let warmup = (0..BENCHMARKS.len())
        .map(|bi| {
            let line = format!(
                "{},\"benchmark\":\"{}\",\"points\":{}}}",
                head(&format!("w{bi}"), "pareto"),
                BENCHMARKS[bi].name(),
                points_json(&draw(&mut rng, 2))
            );
            request(line, "pareto", Expect::Ok)
        })
        .collect();
    let held_out = cfg.test_design();
    let mut probes = Vec::new();
    for bi in 0..BENCHMARKS.len() {
        for m in Metric::DOMAINS {
            probes.push(predict(
                &format!("h{bi}{}", m.name()),
                bi,
                m,
                held_out.clone(),
                true,
            ));
        }
    }

    let mut round = Vec::new();
    for i in 0..6 {
        let (b, m) = (bench(&mut rng), metric(&mut rng));
        round.push(predict(&format!("b{i}"), b, m, draw(&mut rng, 32), false));
    }
    for i in 0..2 {
        let (b, m) = (bench(&mut rng), metric(&mut rng));
        round.push(predict(&format!("t{i}"), b, m, draw(&mut rng, 16), true));
    }
    for i in 0..60 {
        let (b, m) = (bench(&mut rng), metric(&mut rng));
        round.push(predict(&format!("s{i}"), b, m, draw(&mut rng, 1), false));
    }
    for i in 0..6 {
        let b = bench(&mut rng);
        let m = metric(&mut rng);
        let axis = rng.range_usize(0, space.dims());
        let values: Vec<f64> = draw(&mut rng, 12)
            .iter()
            .map(|p| p.values()[axis])
            .collect();
        let base = draw(&mut rng, 1);
        let line = format!(
            "{},\"benchmark\":\"{}\",\"metric\":\"{}\",\"base\":{},\"axis\":{axis},\"values\":{}}}",
            head(&format!("v{i}"), "sweep"),
            BENCHMARKS[b].name(),
            m.name(),
            vector(base[0].values()),
            vector(&values)
        );
        round.push(request(line, "sweep", Expect::Ok));
    }
    for i in 0..4 {
        let b = bench(&mut rng);
        let line = format!(
            "{},\"benchmark\":\"{}\",\"k\":5,\"power_budget\":1000000,\"points\":{}}}",
            head(&format!("k{i}"), "topk"),
            BENCHMARKS[b].name(),
            points_json(&draw(&mut rng, 32))
        );
        round.push(request(line, "topk", Expect::Ok));
        let b = bench(&mut rng);
        let line = format!(
            "{},\"benchmark\":\"{}\",\"points\":{}}}",
            head(&format!("p{i}"), "pareto"),
            BENCHMARKS[b].name(),
            points_json(&draw(&mut rng, 32))
        );
        round.push(request(line, "pareto", Expect::Ok));
    }
    for i in 0..2 {
        round.push(request(
            format!("{}}}", head(&format!("q{i}"), "stats")),
            "stats",
            Expect::Stats,
        ));
    }
    let short = vector(&[1.0, 2.0, 3.0]);
    let invalid = [
        ("{\"schema\":".to_string(), "bad-json"),
        ("[1,2,3]".to_string(), "not-an-object"),
        (
            format!("{},\"metric\":\"cpi\"}}", head("m0", "predict")),
            "missing-field",
        ),
        (
            format!(
                "{},\"benchmark\":\"gcc\",\"metric\":\"cpi\",\"points\":[{short}]}}",
                head("m1", "predict")
            ),
            "bad-arity",
        ),
        (
            format!(
                "{},\"benchmark\":\"nonesuch\",\"metric\":\"cpi\",\"points\":[{short}]}}",
                head("m2", "predict")
            ),
            "unknown-benchmark",
        ),
    ];
    for (line, code) in invalid {
        round.push(request(line, "invalid", Expect::Error(code)));
    }
    rng.shuffle(&mut round);
    let last = request(
        format!("{}}}", head("last", "stats")),
        "stats",
        Expect::Stats,
    );
    Mix {
        warmup,
        probes,
        round,
        last,
    }
}

/// Raw value of the first `"key":` in a response line (head fields come
/// first, so this reads `seq`, `kind`, `rung` and `error` cheaply).
fn field<'a>(response: &'a str, key: &str) -> Option<&'a str> {
    let at = response.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &response[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

/// Checks one response against its request; returns a failure message.
fn verdict(req: &Request, response: &str, seq: u64, secs: f64) -> Option<String> {
    if field(response, "seq") != Some(&seq.to_string()) {
        return Some(format!(
            "response {seq} carries seq {:?}",
            field(response, "seq")
        ));
    }
    let kind = field(response, "kind");
    let ok = match req.expect {
        Expect::Ok => kind == Some("ok") && secs <= LATENCY_LIMIT_S,
        Expect::Stats => kind == Some("stats"),
        Expect::Error(code) => kind == Some("error") && field(response, "error") == Some(code),
    };
    (!ok).then(|| format!("request {seq} ({}) got {:?} in {secs:.4} s", req.kind, kind))
}

/// The traces of a `predict` response with `trace`.
fn response_traces(response: &str) -> Option<Vec<Vec<f64>>> {
    let value = json::parse(response).ok()?;
    let results = value.as_object()?.get("results")?.as_array()?;
    results
        .iter()
        .map(|r| {
            let trace = r.as_object()?.get("trace")?.as_array()?;
            trace.iter().map(Value::as_f64).collect()
        })
        .collect()
}

/// A numeric field of the `stats` snapshot, e.g. `["models", "misses"]`.
fn stat(response: &str, path: &[&str]) -> f64 {
    let Ok(value) = json::parse(response) else {
        return 0.0;
    };
    let mut v = value.as_object().and_then(|o| o.get("stats"));
    for key in path {
        v = v.and_then(Value::as_object).and_then(|o| o.get(*key));
    }
    v.and_then(Value::as_f64).unwrap_or(0.0)
}

fn fnv(hash: u64, line: &str) -> u64 {
    line.bytes().chain([b'\n']).fold(hash, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// A running `serve` daemon and the client's side of its pipes.
struct Daemon {
    child: Child,
    stdin: Option<BufWriter<ChildStdin>>,
    stdout: BufReader<ChildStdout>,
    journal: PathBuf,
    seq: u64,
    /// Hash and count of every response line read, to check the journal.
    hash: u64,
    lines: u64,
}

impl Daemon {
    fn spawn(bin: &Path, cfg: &ExperimentConfig, journal: PathBuf) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("--journal")
            .arg(&journal)
            .args(["--deadline", &DEADLINE.to_string()])
            .args(["--capacity", &CAPACITY.to_string()])
            .args(["--drain", &CAPACITY.to_string()])
            .env("DYNAWAVE_TRAIN", cfg.train_points.to_string())
            .env("DYNAWAVE_TEST", cfg.test_points.to_string())
            .env("DYNAWAVE_SAMPLES", cfg.samples.to_string())
            .env("DYNAWAVE_INTERVAL", cfg.interval_instructions.to_string())
            .env("DYNAWAVE_SEED", cfg.seed.to_string())
            .env_remove("DYNAWAVE_TRACE")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        // dynalint:allow(D012) -- the daemon runs as its own process, as users run it
        let spawned = cmd.spawn();
        let mut child = spawned.map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon pipes unavailable".to_string());
        };
        Ok(Daemon {
            child,
            stdin: Some(BufWriter::new(stdin)),
            stdout: BufReader::new(stdout),
            journal,
            seq: 0,
            hash: FNV_BASIS,
            lines: 0,
        })
    }

    /// Sends one request and waits for its response: (response, seconds).
    fn call(&mut self, line: &str) -> Result<(String, f64), String> {
        let stdin = self.stdin.as_mut().ok_or("daemon stdin closed")?;
        let sw = Stopwatch::start();
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write to daemon: {e}"))?;
        let mut response = String::new();
        let n = self
            .stdout
            .read_line(&mut response)
            .map_err(|e| format!("read from daemon: {e}"))?;
        let secs = sw.secs();
        if n == 0 {
            return Err("daemon closed its stdout".to_string());
        }
        response.truncate(response.trim_end_matches('\n').len());
        self.seq += 1;
        self.hash = fnv(self.hash, &response);
        self.lines += 1;
        Ok((response, secs))
    }

    /// Peak resident set of the daemon, read before it exits.
    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Closes stdin, waits for exit, and checks that the journal holds
    /// exactly the response lines read from stdout. Returns its size.
    fn close(mut self, out: &mut Outcome) -> Result<u64, String> {
        drop(self.stdin.take());
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        out.check(status.success() && rest.is_empty(), || {
            format!("daemon exit {status}, {} unread bytes", rest.len())
        });
        let text = std::fs::read_to_string(&self.journal).map_err(|e| e.to_string())?;
        let body: Vec<&str> = text.lines().skip(2).collect();
        let hash = body.iter().fold(FNV_BASIS, |h, l| fnv(h, l));
        out.check(body.len() as u64 == self.lines && hash == self.hash, || {
            format!(
                "journal holds {} response lines, stdout {}; contents differ: {}",
                body.len(),
                self.lines,
                hash != self.hash
            )
        });
        Ok(text.len() as u64)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached with the child still running on an error path.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Simulated traces at the held-out points, per benchmark and domain.
fn truth(cfg: &ExperimentConfig) -> Vec<[TraceSet; 3]> {
    let held_out = cfg.test_design();
    BENCHMARKS
        .iter()
        .map(|&b| collect_domain_traces(b, &held_out, &cfg.sim_options()))
        .collect()
}

fn probe_nmse(req: &Request, response: &str, truth: &[[TraceSet; 3]]) -> Vec<f64> {
    let (Some((bi, m, _)), Some(traces)) = (&req.traced, response_traces(response)) else {
        return Vec::new();
    };
    let Some(mi) = Metric::DOMAINS.iter().position(|d| d == m) else {
        return Vec::new();
    };
    truth[*bi][mi]
        .traces
        .iter()
        .zip(&traces)
        .map(|(actual, predicted)| nmse_percent(actual, predicted))
        .collect()
}

fn serve_bin(args: &Args) -> Result<&Path, String> {
    args.serve_bin
        .as_deref()
        .ok_or_else(|| "--serve-bin is required".to_string())
}

/// Tallies failed requests as one check message.
#[derive(Default)]
struct Failures {
    count: usize,
    first: Option<String>,
}

impl Failures {
    fn note(&mut self, failure: Option<String>) {
        if let Some(f) = failure {
            self.count += 1;
            self.first.get_or_insert(f);
        }
    }

    fn report(self, out: &mut Outcome) {
        let Failures { count, first } = self;
        out.check(count == 0, || {
            format!("{count} failed request(s), first: {first:?}")
        });
    }
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let cfg = config(args);
    let mix = build_mix(args, &cfg);
    let truth = truth(&cfg);
    if args.trace {
        return traced(args, work, &cfg, &mix, &truth);
    }
    let bin = serve_bin(args)?;
    let mut out = Outcome::default();
    let mut failures = Failures::default();

    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut daemon = None;
    for r in 0..SETUP_REPEATS {
        let sw = Stopwatch::start();
        let mut d = Daemon::spawn(bin, &cfg, work.join(format!("serve{r}.journal")))?;
        let mut answered = Vec::new();
        for req in &mix.warmup {
            answered.push(d.call(&req.line)?);
        }
        setup.push(sw.secs());
        for (i, (req, (response, _))) in mix.warmup.iter().zip(&answered).enumerate() {
            failures.note(verdict(req, response, i as u64 + 1, 0.0));
        }
        if r + 1 < SETUP_REPEATS {
            d.close(&mut out)?;
        } else {
            daemon = Some(d);
        }
    }
    let mut d = daemon.ok_or("no daemon")?;

    let mut latency = Vec::new();
    let mut nmse = Vec::new();
    let clock = Stopwatch::start();
    let mut send =
        |d: &mut Daemon, req: &Request, latency: &mut Vec<f64>| -> Result<String, String> {
            let (response, secs) = d.call(&req.line)?;
            failures.note(verdict(req, &response, d.seq, secs));
            latency.push(secs);
            Ok(response)
        };
    for req in &mix.probes {
        let response = send(&mut d, req, &mut latency)?;
        nmse.extend(probe_nmse(req, &response, &truth));
    }
    let mut rates = Vec::new();
    let mut round_latency = Vec::new();
    while rates.is_empty() || clock.secs() < args.seconds {
        let sw = Stopwatch::start();
        let start = latency.len();
        for req in &mix.round {
            send(&mut d, req, &mut latency)?;
        }
        rates.push(mix.round.len() as f64 / sw.secs());
        round_latency.push(median(&latency[start..]) * 1e3);
    }
    send(&mut d, &mix.last, &mut latency)?;
    let peak = d.peak_rss_mb();
    d.close(&mut out)?;
    failures.report(&mut out);
    out.check(nmse.len() == BENCHMARKS.len() * 3 * cfg.test_points, || {
        format!("{} held-out NMSE values", nmse.len())
    });
    out.check(nmse.iter().all(|v| v.is_finite()), || {
        "non-finite NMSE".to_string()
    });

    out.attempted = latency.len() as u64;
    crate::put_timings(&mut out, &setup, &rates, &round_latency);
    out.put("peak_rss_mb", peak, "MiB");
    eprintln!(
        "serve: {} requests, p50 {:.4} ms, p99 {:.4} ms",
        latency.len(),
        median(&latency) * 1e3,
        quantile(&latency, 0.99) * 1e3
    );
    Ok(out)
}

fn traced(
    args: &Args,
    work: &Path,
    cfg: &ExperimentConfig,
    mix: &Mix,
    truth: &[[TraceSet; 3]],
) -> Result<Outcome, String> {
    let bin = serve_bin(args)?;
    let mut out = Outcome::default();
    let mut failures = Failures::default();
    let session: Vec<&Request> = mix
        .probes
        .iter()
        .chain((0..TRACED_ROUNDS).flat_map(|_| mix.round.iter()))
        .chain([&mix.last])
        .collect();

    // Untraced twin: the daemon serving the same session.
    let sw = Stopwatch::start();
    let mut d = Daemon::spawn(bin, cfg, work.join("reference.journal"))?;
    let mut reference = Vec::new();
    for (i, req) in mix.warmup.iter().chain(session.iter().copied()).enumerate() {
        let (response, secs) = d.call(&req.line)?;
        // Warm-up requests train models; the latency limit is for the session.
        let limited = if i < mix.warmup.len() { 0.0 } else { secs };
        failures.note(verdict(req, &response, d.seq, limited));
        reference.push((response, secs));
    }
    let journal_bytes = d.close(&mut out)?;
    let untraced_wall = sw.secs();
    let rtt: Vec<f64> = reference[mix.warmup.len()..].iter().map(|r| r.1).collect();
    let nmse: Vec<f64> = mix
        .probes
        .iter()
        .zip(&reference[mix.warmup.len()..])
        .flat_map(|(req, (response, _))| probe_nmse(req, response, truth))
        .collect();

    // Traced: models trained through the layer calls, persisted, and
    // served in process by the same engine the daemon runs.
    let mut t = Tracer::new();
    let opts = cfg.sim_options();
    let design = t.call("sampling", "designs", |_| cfg.train_design());
    let models_dir = work.join("models");
    std::fs::create_dir_all(&models_dir).map_err(|e| e.to_string())?;
    let mut models: BTreeMap<(usize, usize), LayeredModel> = BTreeMap::new();
    for (bi, &b) in BENCHMARKS.iter().enumerate() {
        for (mi, m) in Metric::DOMAINS.into_iter().enumerate() {
            let mut traces = Vec::with_capacity(design.len());
            for point in &design {
                let (config, run) = layers::simulate(&mut t, b, point, &opts);
                traces.push(layers::metric_trace(&mut t, m, &config, &run));
            }
            let set = TraceSet {
                benchmark: b,
                metric: m,
                points: design.clone(),
                traces,
            };
            let model = layers::train(&mut t, &set, &cfg.predictor)?;
            let path = models_dir.join(format!("{}_{}.dynawave", b.name(), m.name()));
            t.call("serve", "persist", |_| {
                let text = persist::to_string(&model.to_predictor()?);
                std::fs::write(&path, text).map_err(|e| e.to_string())
            })?;
            models.insert((bi, mi), model);
        }
    }
    let serve_cfg = serve_config(cfg, Some(models_dir));
    let mut engine = ServeEngine::new(serve_cfg.clone());
    let mut journal = ServeJournal::create(&work.join("traced.journal"), &serve_cfg)
        .map_err(|e| e.to_string())?;
    engine.note_journal_attached();
    let mut handle = Vec::with_capacity(session.len());
    let mut stats = String::new();
    let all = mix
        .warmup
        .iter()
        .map(|r| (r, "warmup"))
        .chain(session.iter().map(|r| (*r, r.kind)));
    for ((req, span), (expected, _)) in all.zip(&reference) {
        let (response, secs) = t.call("serve", span, |_| {
            let sw = Stopwatch::start();
            let r = engine.handle_line(&req.line);
            (r, sw.secs())
        });
        t.call("serve", "journal_append", |_| journal.append(&response));
        if req.expect != Expect::Stats {
            out.check(response == *expected, || {
                format!(
                    "in-process response differs from the daemon's for {}",
                    req.kind
                )
            });
        }
        if let (Some((bi, m, points)), Some(traces)) = (&req.traced, response_traces(&response)) {
            let mi = Metric::DOMAINS.iter().position(|d| d == m).unwrap_or(0);
            if let Some(model) = models.get(&(*bi, mi)) {
                let same = points
                    .iter()
                    .zip(&traces)
                    .all(|(p, served)| layers::predict(&mut t, model, p) == *served);
                out.check(same, || "served traces differ from the model's".to_string());
            }
        }
        if span != "warmup" {
            handle.push(secs);
        }
        stats = response;
    }
    failures.report(&mut out);

    let transport: Vec<f64> = rtt.iter().zip(&handle).map(|(r, h)| r - h).collect();
    let model_backed: Vec<&String> = reference
        .iter()
        .map(|r| &r.0)
        .filter(|r| field(r, "kind") == Some("ok"))
        .collect();
    let degraded = model_backed
        .iter()
        .filter(|r| field(r, "rung") != Some("primary"))
        .count();
    layers::layer_metrics(&t, untraced_wall, &mut out.metrics);
    out.put("predictor.nmse_median_pct", median(&nmse), "%");
    out.put("predictor.nmse_p90_pct", quantile(&nmse, 0.9), "%");
    for kind in ["predict", "sweep", "topk", "pareto", "stats", "invalid"] {
        let us = median(&t.durations("serve", kind)) * 1e6;
        out.metrics
            .insert(format!("serve.handle_us.{kind}"), (us, "us"));
    }
    let points = BENCHMARKS.len() * cfg.train_points;
    out.put("sim.runs", t.count("sim.runs"), "count");
    out.put(
        "sim.runs_per_point",
        t.count("sim.runs") / points as f64,
        "ratio",
    );
    out.put("predictor.degraded_coeffs", degraded as f64, "count");
    out.put(
        "predictor.degraded_frac",
        degraded as f64 / model_backed.len().max(1) as f64,
        "ratio",
    );
    out.put(
        "serve.journal_append_us",
        median(&t.durations("serve", "journal_append")) * 1e6,
        "us",
    );
    out.put("serve.transport_us", median(&transport) * 1e6, "us");
    out.put("serve.latency_p99_ms", quantile(&rtt, 0.99) * 1e3, "ms");
    out.put("serve.ticks", engine.tick() as f64, "count");
    out.put(
        "serve.model_cache_misses",
        stat(&stats, &["models", "misses"]),
        "count",
    );
    out.put(
        "serve.overloaded",
        stat(&stats, &["outcomes", "overloaded"]),
        "count",
    );
    out.put(
        "serve.partial",
        stat(&stats, &["outcomes", "partial"]),
        "count",
    );
    out.put("serve.journal_bytes", journal_bytes as f64, "bytes");
    out.attempted = (2 * reference.len()) as u64;
    eprint!("{}", layers::report("serve", &t, &out.metrics));
    crate::write_spans(args, &t);
    Ok(out)
}
