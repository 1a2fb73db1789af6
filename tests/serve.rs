//! Integration tests for the `dynawave-serve` daemon: crash-safe replay,
//! chaos determinism, fuzzed request handling, deadline budgets,
//! backpressure and one training simulation per benchmark — the
//! acceptance gates of the serving layer.

use dynawave_core::experiment::ExperimentConfig;
use dynawave_core::serve::{replay, ReplayError, ServeConfig, ServeEngine, ServeJournal};
use dynawave_core::{collect_traces, persist, Metric, WaveletNeuralPredictor};
use dynawave_numeric::fault::{self, FaultKind, FaultPlan, FaultSite};
use dynawave_obs::{json, EventKind};
use dynawave_sampling::DesignPoint;
use dynawave_testkit::{check, gen};
use dynawave_workloads::Benchmark;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Small-but-real serving configuration: fast training, cheap ticks.
fn tiny_config() -> ServeConfig {
    ServeConfig {
        config: ExperimentConfig {
            train_points: 12,
            test_points: 2,
            samples: 16,
            interval_instructions: 300,
            seed: 11,
            ..ExperimentConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn dims() -> usize {
    ExperimentConfig::default().space().dims()
}

fn point_json(base: f64) -> String {
    let knobs: Vec<String> = (0..dims())
        .map(|i| format!("{}", base + i as f64))
        .collect();
    format!("[{}]", knobs.join(","))
}

fn predict_request(id: &str, points: usize) -> String {
    let pts: Vec<String> = (0..points).map(|i| point_json(2.0 + i as f64)).collect();
    format!(
        "{{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"{id}\",\
         \"kind\":\"predict\",\"benchmark\":\"gcc\",\"metric\":\"cpi\",\
         \"points\":[{}]}}",
        pts.join(",")
    )
}

fn stats_request(id: &str) -> String {
    format!("{{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"{id}\",\"kind\":\"stats\"}}")
}

/// A request mix that exercises every endpoint plus the error paths,
/// cheap enough to train at most one (benchmark, metric) pair. Ends
/// with a `stats` probe so every transcript-equality test also pins
/// the snapshot bytes.
fn session_requests() -> Vec<String> {
    vec![
        predict_request("a", 2),
        "this is not json".to_string(),
        format!(
            "{{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"s\",\
             \"kind\":\"sweep\",\"benchmark\":\"gcc\",\"metric\":\"cpi\",\
             \"base\":{},\"axis\":1,\"values\":[2,4]}}",
            point_json(2.0)
        ),
        "{\"schema\":\"dynawave-serve\",\"v\":1,\"kind\":\"predict\",\
         \"benchmark\":\"nope\"}"
            .to_string(),
        predict_request("b", 1),
        stats_request("st"),
    ]
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dynawave_serve_it");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn kill_and_replay_reproduces_byte_identical_journal() {
    let cfg = tiny_config();
    let requests = session_requests();
    let request_log: String = requests.iter().map(|r| format!("{r}\n")).collect();

    // Uninterrupted run: the reference transcript. The engine is told
    // about its journal (as the daemon does) so the final stats
    // snapshot reports the same journal status replay will.
    let reference = {
        let path = tmp_path("ref.journal");
        let mut journal = ServeJournal::create(&path, &cfg).expect("create journal");
        let mut engine = ServeEngine::new(cfg.clone());
        engine.note_journal_attached();
        for r in &requests {
            let resp = engine.handle_line(r);
            journal.append(&resp);
        }
        std::fs::read_to_string(&path).expect("read reference journal")
    };
    assert!(reference.ends_with('\n'));
    assert_eq!(reference.lines().count(), 2 + requests.len());

    // Crash simulation: keep the header, two complete responses, and a
    // torn half of the third — exactly what a kill mid-write leaves.
    let crashed = tmp_path("crashed.journal");
    let keep: String = reference
        .lines()
        .take(4)
        .map(|l| format!("{l}\n"))
        .collect();
    let torn = reference.lines().nth(4).expect("a fifth line");
    let torn_bytes = &torn[..torn.len() / 2];
    std::fs::write(&crashed, format!("{keep}{torn_bytes}")).expect("write crashed journal");

    let outcome = replay(cfg.clone(), &request_log, &crashed).expect("replay succeeds");
    assert_eq!(outcome.responses.len(), requests.len());
    assert_eq!(outcome.verified, 2, "two complete responses survived");
    assert!(outcome.torn_tail, "the torn tail must be detected");
    let rebuilt = std::fs::read_to_string(&crashed).expect("read rebuilt journal");
    assert_eq!(
        rebuilt, reference,
        "replay must reproduce the journal byte-for-byte"
    );

    // A missing journal is regenerated from scratch.
    let fresh = tmp_path("fresh.journal");
    let _ = std::fs::remove_file(&fresh);
    let outcome = replay(cfg.clone(), &request_log, &fresh).expect("replay from nothing");
    assert_eq!(outcome.verified, 0);
    assert_eq!(
        std::fs::read_to_string(&fresh).expect("read regenerated journal"),
        reference
    );

    // A tampered journal line is divergence, not silent repair.
    let tampered = tmp_path("tampered.journal");
    std::fs::write(
        &tampered,
        reference.replacen("\"id\":\"a\"", "\"id\":\"z\"", 1),
    )
    .expect("write tampered journal");
    match replay(cfg, &request_log, &tampered) {
        Err(ReplayError::Divergence { response }) => assert_eq!(response, 1),
        other => panic!("tampering must be caught, got {other:?}"),
    }
}

#[test]
fn failed_replay_rewrite_leaves_the_journal_untouched() {
    let cfg = tiny_config();
    let request_log: String = session_requests()
        .iter()
        .map(|r| format!("{r}\n"))
        .collect();
    let path = tmp_path("blocked.journal");
    let torn = format!("{}{{\"torn", cfg.journal_header());
    std::fs::write(&path, &torn).expect("write torn journal");
    // A directory at the rewrite's temp path makes the rewrite fail.
    let blocker = tmp_path("blocked.journal.tmp");
    std::fs::create_dir_all(&blocker).expect("create blocker");
    match replay(cfg.clone(), &request_log, &path) {
        Err(ReplayError::Io(_)) => {}
        other => panic!("a failed rewrite must surface as Io, got {other:?}"),
    }
    assert_eq!(
        std::fs::read_to_string(&path).expect("read journal"),
        torn,
        "a failed replay must leave the old bytes"
    );
    std::fs::remove_dir(&blocker).expect("remove blocker");
    let outcome = replay(cfg, &request_log, &path).expect("replay succeeds");
    assert!(outcome.torn_tail);
    assert!(!blocker.exists(), "the rewrite leaves no temp file behind");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn chaos_solver_faults_keep_transcripts_deterministic() {
    let plan = FaultPlan::new(0xC4A0)
        .rate(0.5)
        .targeting(&FaultSite::SOLVER_SITES)
        .kinds(&[FaultKind::Singular, FaultKind::NonFinite]);
    let run = || {
        fault::with_plan(plan.clone(), || {
            let mut engine = ServeEngine::new(tiny_config());
            session_requests()
                .iter()
                .map(|r| engine.handle_line(r))
                .collect::<Vec<_>>()
        })
    };
    let (a, ra) = run();
    let (b, rb) = run();
    assert_eq!(a, b, "same plan, same requests => same bytes");
    assert_eq!(ra.fired, rb.fired, "fault schedule must be deterministic");
    // Every model-backed response still carries its recovery rung.
    for line in &a {
        let obj = json::parse(line)
            .expect("valid JSON")
            .as_object()
            .cloned()
            .unwrap();
        let kind = obj["kind"].as_str().unwrap().to_string();
        if kind == "ok" || kind == "partial" {
            assert!(obj["rung"].as_str().is_some(), "rung missing: {line}");
        }
    }
}

#[test]
fn fuzzed_requests_always_get_exactly_one_wellformed_response() {
    // One long-lived engine (models_dir None, tiny scale): the 10k-case
    // corpus below hammers it with byte soup, unicode soup, and seeded
    // mutations of a valid request. The contract under test: every input
    // yields exactly one newline-free, parseable response line carrying
    // schema/v/seq/kind — no panic, no silent drop, monotonic seq.
    let mut engine = ServeEngine::new(tiny_config());
    let mut expected_seq = 0u64;
    let mut property = |input: &String| -> Result<(), String> {
        let resp = engine.handle_line(input);
        expected_seq += 1;
        if resp.contains('\n') {
            return Err(format!("response spans lines: {resp:?}"));
        }
        let obj = json::parse(&resp)
            .map_err(|e| format!("unparseable response {resp:?}: {e}"))?
            .as_object()
            .cloned()
            .ok_or_else(|| format!("response is not an object: {resp:?}"))?;
        if obj.get("schema").and_then(|v| v.as_str()) != Some("dynawave-serve") {
            return Err(format!("bad schema in {resp:?}"));
        }
        if obj.get("v").and_then(|v| v.as_u64()) != Some(1) {
            return Err(format!("bad version in {resp:?}"));
        }
        if obj.get("seq").and_then(|v| v.as_u64()) != Some(expected_seq) {
            return Err(format!("seq skew at {expected_seq} in {resp:?}"));
        }
        match obj.get("kind").and_then(|v| v.as_str()) {
            Some("ok" | "partial" | "error" | "overloaded" | "stats") => Ok(()),
            other => Err(format!("bad kind {other:?} in {resp:?}")),
        }
    };

    check("serve: ascii soup")
        .cases(4000)
        .seed(0x5E12_F001)
        .run(gen::ascii_soup(0, 200), &mut property);
    check("serve: utf8 soup")
        .cases(2000)
        .seed(0x5E12_F002)
        .run(gen::utf8_soup(0, 200), &mut property);
    let valid = predict_request("fuzz", 1);
    check("serve: mutated valid requests")
        .cases(4000)
        .seed(0x5E12_F003)
        .run(gen::mutate(&valid), &mut property);
    // The introspection kind gets the same treatment: mutations of a
    // stats probe must never panic the engine or skip a response.
    let valid_stats = stats_request("fuzz");
    check("serve: mutated stats requests")
        .cases(2000)
        .seed(0x5E12_F004)
        .run(gen::mutate(&valid_stats), &mut property);
}

#[test]
fn deadline_budgets_split_batches_and_refuse_starvation() {
    let cfg = ServeConfig {
        train_cost: 64,
        ..tiny_config()
    };
    let mut engine = ServeEngine::new(cfg);
    // 64 (train) + 3 covers 3 of 5 points.
    let req = predict_request("d", 5).replacen("\"kind\"", "\"deadline\":67,\"kind\"", 1);
    let obj = json::parse(&engine.handle_line(&req))
        .unwrap()
        .as_object()
        .cloned()
        .unwrap();
    assert_eq!(obj["kind"].as_str(), Some("partial"));
    assert_eq!(obj["completed"].as_u64(), Some(3));
    assert_eq!(obj["total"].as_u64(), Some(5));
    // Pareto is all-or-nothing: cpi is cached from above, so the request
    // needs 2 trains (128 ticks) + 3 metrics x 4 points = 140 ticks; a
    // budget of 139 is a typed refusal, not a wrong frontier.
    let pts: Vec<String> = (0..4).map(|i| point_json(2.0 + i as f64)).collect();
    let req = format!(
        "{{\"schema\":\"dynawave-serve\",\"v\":1,\"deadline\":139,\
         \"kind\":\"pareto\",\"benchmark\":\"gcc\",\"points\":[{}]}}",
        pts.join(",")
    );
    let obj = json::parse(&engine.handle_line(&req))
        .unwrap()
        .as_object()
        .cloned()
        .unwrap();
    assert_eq!(obj["kind"].as_str(), Some("error"));
    assert_eq!(obj["error"].as_str(), Some("deadline-exceeded"));
}

#[test]
fn backpressure_sheds_load_with_retry_hints() {
    let cfg = ServeConfig {
        queue_capacity: 100,
        drain_per_request: 10,
        train_cost: 40,
        ..tiny_config()
    };
    let mut engine = ServeEngine::new(cfg);
    let mut kinds = Vec::new();
    for _ in 0..8 {
        let obj = json::parse(&engine.handle_line(&predict_request("q", 30)))
            .unwrap()
            .as_object()
            .cloned()
            .unwrap();
        let kind = obj["kind"].as_str().unwrap().to_string();
        if kind == "overloaded" {
            assert!(obj["retry_after"].as_u64().unwrap() >= 1);
        }
        kinds.push(kind);
    }
    assert!(kinds.contains(&"overloaded".to_string()), "{kinds:?}");
    assert!(kinds.contains(&"ok".to_string()), "{kinds:?}");
    // Shed requests cost nothing, so the bucket drains and service
    // resumes: the transcript must not end in an overloaded run only.
    let last_ok = kinds.iter().rposition(|k| k == "ok");
    let first_over = kinds.iter().position(|k| k == "overloaded");
    assert!(
        last_ok > first_over,
        "service must recover after shedding: {kinds:?}"
    );
}

/// Parses one response line into its top-level object.
fn parse_object(line: &str) -> BTreeMap<String, json::Value> {
    json::parse(line)
        .expect("valid JSON")
        .as_object()
        .cloned()
        .expect("a JSON object")
}

/// `field` of the object `value`, as an object.
fn object_field<'a>(
    value: &'a BTreeMap<String, json::Value>,
    field: &str,
) -> &'a BTreeMap<String, json::Value> {
    value[field].as_object().expect("an object field")
}

#[test]
fn max_deadlines_saturate_the_stats_budget_sums() {
    let mut engine = ServeEngine::new(tiny_config());
    let max = predict_request("x", 1).replacen(
        "\"kind\"",
        &format!("\"deadline\":{},\"kind\"", u64::MAX),
        1,
    );
    let responses = [
        engine.handle_line(&max),
        engine.handle_line(&max),
        engine.handle_line(&stats_request("s")),
    ];
    assert_ok(&responses[..2]);
    let snapshot = parse_object(&responses[2]);
    assert_eq!(snapshot["kind"].as_str(), Some("stats"));
    let deadline = object_field(object_field(&snapshot, "stats"), "deadline");
    assert_eq!(deadline["granted"].as_u64(), Some(u64::MAX));
    assert_eq!(deadline["used"].as_u64(), Some(engine.tick()));
}

/// The `stats` snapshot field that each `serve.responses.*` and
/// `serve.models.*` obs counter tallies, as (section, field); the
/// degraded counter tallies every rung but `primary`.
const COUNTER_FIELDS: [(&str, &str, &str); 9] = [
    ("serve.responses.ok", "outcomes", "ok"),
    ("serve.responses.partial", "outcomes", "partial"),
    ("serve.responses.error", "outcomes", "error"),
    ("serve.responses.overloaded", "outcomes", "overloaded"),
    ("serve.responses.stats", "outcomes", "stats"),
    ("serve.responses.deadline_exceeded", "deadline", "refused"),
    ("serve.models.loaded", "models", "loaded"),
    ("serve.models.trained", "models", "trained"),
    ("serve.models.failed", "models", "failed"),
];

#[test]
fn obs_counters_equal_the_final_stats_snapshot() {
    let cfg = ServeConfig {
        queue_capacity: 200,
        drain_per_request: 10,
        train_cost: 64,
        ..tiny_config()
    };
    let pareto = pareto_request("p", "gcc");
    let session = [
        predict_request("a", 2),
        // Budget for 3 of 5 cached predictions: partial.
        predict_request("b", 5).replacen("\"kind\"", "\"deadline\":3,\"kind\"", 1),
        "not json".to_string(),
        // Two trains cannot fit 5 ticks: a deadline refusal.
        pareto.replacen("\"kind\"", "\"deadline\":5,\"kind\"", 1),
        pareto,
        // 60 items on a bucket holding 163 of 200: overloaded.
        predict_request("c", 60),
        stats_request("s"),
    ];
    let plans = [
        None,
        Some(
            FaultPlan::new(0xC4A0)
                .rate(0.5)
                .targeting(&FaultSite::SOLVER_SITES)
                .kinds(&[FaultKind::Singular, FaultKind::NonFinite]),
        ),
    ];
    for plan in plans {
        let mut engine = ServeEngine::new(cfg.clone());
        let mut serve = || {
            let prior = dynawave_obs::take();
            dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
            let responses: Vec<String> = session.iter().map(|r| engine.handle_line(r)).collect();
            let events = dynawave_obs::drain().expect("recorder was installed");
            if let Some(prior) = prior {
                dynawave_obs::install(prior);
            }
            (responses, events)
        };
        let ((responses, events), chaos) = match plan.clone() {
            None => (serve(), false),
            Some(plan) => (fault::with_plan(plan, serve).0, true),
        };
        let kinds: Vec<String> = responses
            .iter()
            .map(|r| parse_object(r)["kind"].as_str().unwrap_or("").to_string())
            .collect();
        for kind in ["ok", "partial", "error", "overloaded", "stats"] {
            assert!(kinds.iter().any(|k| k == kind), "no {kind}: {kinds:?}");
        }
        let snapshot = parse_object(responses.last().expect("a stats response"));
        let stats = object_field(&snapshot, "stats");
        let counter = |name: &str| {
            events
                .iter()
                .find(|e| e.kind == EventKind::Counter && e.name == name)
                .map_or(0, |e| e.count.expect("counter value"))
        };
        for (name, section, field) in COUNTER_FIELDS {
            let tally = object_field(stats, section)[field].as_u64();
            assert_eq!(Some(counter(name)), tally, "{name} (chaos {chaos})");
        }
        let rungs = object_field(stats, "rungs");
        let degraded: u64 = rungs
            .iter()
            .filter(|(rung, _)| rung.as_str() != "primary")
            .map(|(_, n)| n.as_u64().expect("a count"))
            .sum();
        assert_eq!(
            counter("serve.responses.degraded"),
            degraded,
            "chaos {chaos}"
        );
        assert_eq!(object_field(stats, "deadline")["refused"].as_u64(), Some(1));
        // Every counter of the two families has a snapshot field.
        for e in events.iter().filter(|e| e.kind == EventKind::Counter) {
            let family =
                e.name.starts_with("serve.responses.") || e.name.starts_with("serve.models.");
            let known = e.name == "serve.responses.degraded"
                || COUNTER_FIELDS.iter().any(|(name, ..)| *name == e.name);
            assert!(!family || known, "{} has no stats field", e.name);
        }
    }
}

// ---------------------------------------------------------------------
// Model cache: one simulation of the training design per benchmark.
// ---------------------------------------------------------------------

/// Runs `f` under a tick recorder and counts the simulator runs it made
/// (`sim.run_trace` span enters).
fn counting_sim_runs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let prior = dynawave_obs::take();
    dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
    let out = f();
    let events = dynawave_obs::drain().expect("recorder was installed");
    if let Some(prior) = prior {
        dynawave_obs::install(prior);
    }
    let runs = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnter && e.name == "sim.run_trace")
        .count();
    (out, runs)
}

/// A request of `kind` on `benchmark`; `fields` carries the rest of the
/// body, each field preceded by a comma.
fn request(id: &str, kind: &str, benchmark: &str, fields: &str) -> String {
    format!(
        "{{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"{id}\",\
         \"kind\":\"{kind}\",\"benchmark\":\"{benchmark}\"{fields}}}"
    )
}

fn pareto_request(id: &str, benchmark: &str) -> String {
    let points = format!(",\"points\":[{},{}]", point_json(2.0), point_json(3.0));
    request(id, "pareto", benchmark, &points)
}

fn assert_ok(responses: &[String]) {
    for r in responses {
        assert!(r.contains("\"kind\":\"ok\""), "{r}");
    }
}

#[test]
fn one_simulation_per_training_point_serves_every_metric() {
    let cfg = tiny_config();
    let points = cfg.config.train_points;

    // One pareto trains gcc's CPI, power and AVF models from one pass.
    let mut engine = ServeEngine::new(cfg.clone());
    let (resp, runs) = counting_sim_runs(|| engine.handle_line(&pareto_request("p", "gcc")));
    assert_ok(&[resp]);
    assert_eq!(runs, points, "simulator runs for one pareto");

    // Separate single-metric misses share the same pass.
    let mut engine = ServeEngine::new(cfg.clone());
    let sweep = format!(
        ",\"metric\":\"avf\",\"base\":{},\"axis\":1,\"values\":[2,4]",
        point_json(2.0)
    );
    let separate = [
        request(
            "c",
            "predict",
            "gcc",
            &format!(",\"metric\":\"cpi\",\"points\":[{}]", point_json(2.0)),
        ),
        request(
            "w",
            "predict",
            "gcc",
            &format!(",\"metric\":\"power\",\"points\":[{}]", point_json(2.0)),
        ),
        request("s", "sweep", "gcc", &sweep),
    ];
    let (resps, runs) = counting_sim_runs(|| {
        separate
            .iter()
            .map(|r| engine.handle_line(r))
            .collect::<Vec<_>>()
    });
    assert_ok(&resps);
    assert_eq!(
        runs, points,
        "simulator runs for predict cpi, predict power, sweep avf"
    );

    // A second benchmark pays for its own design once; cached models
    // pay nothing.
    let (resp, runs) = counting_sim_runs(|| engine.handle_line(&pareto_request("m", "mcf")));
    assert_ok(&[resp]);
    assert_eq!(runs, points, "simulator runs for a second benchmark");
    let (resp, runs) = counting_sim_runs(|| engine.handle_line(&pareto_request("g", "gcc")));
    assert_ok(&[resp]);
    assert_eq!(runs, 0, "simulator runs with every model cached");
}

/// The model a per-metric oracle trains: `collect_traces` on the
/// training design, then `train_resilient`.
fn oracle_model(cfg: &ExperimentConfig, metric: Metric) -> WaveletNeuralPredictor {
    let set = collect_traces(
        Benchmark::Gcc,
        &cfg.train_design(),
        metric,
        &cfg.sim_options(),
    );
    WaveletNeuralPredictor::train_resilient(&set, &cfg.predictor, &cfg.recovery)
        .expect("oracle trains")
        .0
}

#[test]
fn served_traces_equal_a_per_metric_oracle_bit_for_bit() {
    let cfg = tiny_config();
    let knobs: Vec<Vec<f64>> = [2.0, 5.0]
        .iter()
        .map(|&base| (0..dims()).map(|i| base + i as f64).collect())
        .collect();
    let mut engine = ServeEngine::new(cfg.clone());
    for metric in Metric::DOMAINS {
        let fields = format!(
            ",\"metric\":\"{metric}\",\"trace\":true,\"points\":[{},{}]",
            point_json(2.0),
            point_json(5.0)
        );
        let resp = engine.handle_line(&request("t", "predict", "gcc", &fields));
        let obj = json::parse(&resp).expect("valid JSON");
        let results = obj.as_object().expect("object")["results"]
            .as_array()
            .expect("results array");
        let model = oracle_model(&cfg.config, metric);
        assert_eq!(results.len(), knobs.len(), "{resp}");
        for (result, values) in results.iter().zip(&knobs) {
            let served: Vec<u64> = result.as_object().expect("result object")["trace"]
                .as_array()
                .expect("trace array")
                .iter()
                .map(|v| v.as_f64().expect("number").to_bits())
                .collect();
            let want: Vec<u64> = model
                .predict(&DesignPoint::new(values.clone()))
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(served, want, "{metric} trace at {values:?}");
        }
    }
}

#[test]
fn cpi_snapshot_loads_and_power_and_avf_train_from_one_simulation() {
    let cfg = tiny_config();
    let dir = tmp_path("cpi-snapshot");
    std::fs::create_dir_all(&dir).expect("snapshot dir");
    let _ = std::fs::remove_file(dir.join("gcc_power.dynawave"));
    let _ = std::fs::remove_file(dir.join("gcc_avf.dynawave"));
    std::fs::write(
        dir.join("gcc_cpi.dynawave"),
        persist::to_string(&oracle_model(&cfg.config, Metric::Cpi)),
    )
    .expect("write snapshot");
    let mut engine = ServeEngine::new(ServeConfig {
        models_dir: Some(dir),
        ..cfg.clone()
    });
    let (resp, runs) = counting_sim_runs(|| engine.handle_line(&pareto_request("p", "gcc")));
    assert_ok(&[resp.clone()]);
    assert_eq!(
        runs, cfg.config.train_points,
        "one simulation of the design"
    );
    let stats = engine.handle_line(&stats_request("st"));
    assert!(
        stats.contains("\"misses\":3,\"loaded\":1,\"trained\":2,\"failed\":0"),
        "{stats}"
    );
    // The snapshot holds the model training would have built, so the
    // answer is the one a snapshot-less engine gives.
    let mut fresh = ServeEngine::new(cfg);
    assert_eq!(resp, fresh.handle_line(&pareto_request("p", "gcc")));
}

// ---------------------------------------------------------------------
// Daemon binary: the same guarantees end-to-end over stdin/stdout.
// ---------------------------------------------------------------------

fn serve_cmd() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve"));
    // Tiny deterministic scale so lazy training stays fast.
    cmd.env("DYNAWAVE_TRAIN", "12")
        .env("DYNAWAVE_TEST", "2")
        .env("DYNAWAVE_SAMPLES", "16")
        .env("DYNAWAVE_INTERVAL", "300")
        .env_remove("DYNAWAVE_TRACE");
    cmd
}

fn run_daemon(args: &[&str], stdin_text: &str) -> (String, String, i32) {
    let mut child = serve_cmd()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(stdin_text.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("wait for serve");
    (
        String::from_utf8(out.stdout).expect("stdout utf8"),
        String::from_utf8(out.stderr).expect("stderr utf8"),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn daemon_live_then_replay_round_trip() {
    let request_log: String = session_requests()
        .iter()
        .map(|r| format!("{r}\n"))
        .collect();
    let journal = tmp_path("daemon.journal");
    let journal_arg = journal.to_str().expect("utf8 path");

    let (stdout, stderr, code) = run_daemon(&["--journal", journal_arg], &request_log);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(stdout.lines().count(), session_requests().len());
    let reference = std::fs::read_to_string(&journal).expect("journal exists");

    // Crash: drop the final journal line plus a few torn bytes.
    let torn_at = reference.len() - 20;
    std::fs::write(&journal, &reference[..torn_at]).expect("tear journal");

    let log_path = tmp_path("daemon.requests");
    std::fs::write(&log_path, &request_log).expect("write request log");
    let (replay_out, stderr, code) = run_daemon(
        &[
            "--journal",
            journal_arg,
            "--replay",
            log_path.to_str().expect("utf8 path"),
        ],
        "",
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(replay_out, stdout, "replay stdout must match the live run");
    assert_eq!(
        std::fs::read_to_string(&journal).expect("rebuilt journal"),
        reference,
        "replay must rebuild the journal byte-for-byte"
    );
}

#[test]
fn daemon_journal_chaos_degrades_durability_not_service() {
    let request_log: String = session_requests()
        .iter()
        .map(|r| format!("{r}\n"))
        .collect();
    let journal = tmp_path("chaos.journal");
    let (stdout, stderr, code) = run_daemon(
        &[
            "--journal",
            journal.to_str().expect("utf8 path"),
            "--chaos-seed",
            "3",
            "--chaos-rate",
            "1.0",
            "--chaos-journal",
        ],
        &request_log,
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    // Every request is still answered on stdout...
    assert_eq!(stdout.lines().count(), session_requests().len());
    // ...but the journal froze at the header when the first append died.
    let text = std::fs::read_to_string(&journal).expect("journal exists");
    assert_eq!(text.lines().count(), 2, "header only: {text:?}");
    assert!(stderr.contains("journal disabled by fault"), "{stderr}");
}

#[test]
fn daemon_solver_chaos_is_deterministic_across_runs() {
    let request_log: String = session_requests()
        .iter()
        .map(|r| format!("{r}\n"))
        .collect();
    let args = ["--chaos-seed", "77", "--chaos-rate", "0.6"];
    let (a, _, code_a) = run_daemon(&args, &request_log);
    let (b, _, code_b) = run_daemon(&args, &request_log);
    assert_eq!(code_a, 0);
    assert_eq!(code_b, 0);
    assert_eq!(a, b, "chaos transcripts must be byte-identical");
}

// ---------------------------------------------------------------------
// Telemetry: stats snapshots, SLO verdicts and the flight recorder.
// ---------------------------------------------------------------------

fn run_daemon_env(args: &[&str], envs: &[(&str, &str)], stdin_text: &str) -> (String, String, i32) {
    let mut cmd = serve_cmd();
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(stdin_text.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("wait for serve");
    (
        String::from_utf8(out.stdout).expect("stdout utf8"),
        String::from_utf8(out.stderr).expect("stderr utf8"),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn daemon_stats_snapshot_is_byte_identical_across_thread_counts() {
    let request_log: String = session_requests()
        .iter()
        .map(|r| format!("{r}\n"))
        .collect();
    let (t1, stderr, code) = run_daemon_env(&[], &[("DYNAWAVE_THREADS", "1")], &request_log);
    assert_eq!(code, 0, "stderr: {stderr}");
    let (t4, stderr, code) = run_daemon_env(&[], &[("DYNAWAVE_THREADS", "4")], &request_log);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(
        t1, t4,
        "stats snapshots must not depend on DYNAWAVE_THREADS"
    );
    let stats_line = t1
        .lines()
        .find(|l| l.contains("\"kind\":\"stats\""))
        .expect("a stats response");
    // The snapshot accounts for every request, itself included.
    assert!(stats_line.contains("\"invalid\":1"), "{stats_line}");
    assert!(stats_line.contains("\"stats\":1"), "{stats_line}");
}

#[test]
fn daemon_stats_and_slo_verdicts_match_between_live_and_replay() {
    let request_log: String = session_requests()
        .iter()
        .map(|r| format!("{r}\n"))
        .collect();
    let journal = tmp_path("stats.journal");
    let journal_arg = journal.to_str().expect("utf8 path");
    let _ = std::fs::remove_file(&journal);
    let (live, stderr, code) = run_daemon(&["--journal", journal_arg], &request_log);
    assert_eq!(code, 0, "stderr: {stderr}");
    let log_path = tmp_path("stats.requests");
    std::fs::write(&log_path, &request_log).expect("write request log");
    let (replayed, stderr, code) = run_daemon(
        &[
            "--journal",
            journal_arg,
            "--replay",
            log_path.to_str().expect("utf8 path"),
        ],
        "",
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(replayed, live, "replay transcript must match live bytes");
    let stats_line = live
        .lines()
        .find(|l| l.contains("\"kind\":\"stats\""))
        .expect("a stats response");
    assert!(
        stats_line.contains("\"journal\":\"active\""),
        "both runs see an attached journal: {stats_line}"
    );

    // SLO verdicts are derived from the traced stream; tracing the same
    // session under different worker counts must yield the same verdict
    // line (the soft CI gate's determinism contract).
    let verdict = |threads: &str| {
        let (_, trace, code) = run_daemon_env(
            &[],
            &[("DYNAWAVE_TRACE", "1"), ("DYNAWAVE_THREADS", threads)],
            &request_log,
        );
        assert_eq!(code, 0);
        let events = dynawave_obs::parse_events(&trace).expect("parseable trace");
        let analysis = dynawave_obs::StreamAnalysis::from_events(&events);
        let spec = dynawave_obs::SloSpec::parse("predict:p99<=65536").expect("spec");
        analysis.render_slo(&spec)
    };
    let (line_t1, pass_t1) = verdict("1");
    let (line_t4, pass_t4) = verdict("4");
    assert_eq!(line_t1, line_t4, "SLO verdict must not depend on threads");
    assert!(pass_t1 && pass_t4, "{line_t1}");
}

#[test]
fn daemon_flight_recorder_dumps_valid_stream_on_internal_error() {
    // Chaos at rate 1.0 with strict recovery turns the first training
    // fault into a train-failed internal error; the armed flight
    // recorder must dump its ring exactly once, as a valid obs stream.
    let request_log: String = session_requests()
        .iter()
        .map(|r| format!("{r}\n"))
        .collect();
    let (stdout, dump, code) = run_daemon(
        &[
            "--flight-recorder",
            "48",
            "--strict-recovery",
            "--chaos-seed",
            "7",
            "--chaos-rate",
            "1.0",
        ],
        &request_log,
    );
    assert_eq!(code, 0, "dump: {dump}");
    let stats_line = stdout
        .lines()
        .find(|l| l.contains("\"kind\":\"stats\""))
        .expect("a stats response");
    assert!(stats_line.contains("\"internal\":"), "{stats_line}");
    assert!(
        !stats_line.contains("\"internal\":0"),
        "chaos must surface internal errors: {stats_line}"
    );
    assert_eq!(
        dump.matches("serve.flight_recorder").count(),
        1,
        "exactly one dump marker: {dump}"
    );
    assert!(dump.contains("reason=internal-error"), "{dump}");
    let summary = dynawave_obs::validate_stream(&dump);
    assert!(
        summary.is_clean(),
        "flight dump must be schema-valid: {:?}",
        summary.errors
    );
    assert!(summary.stages.contains("serve"), "{:?}", summary.stages);

    // Without an internal error the one dump happens at shutdown.
    let (_, dump, code) = run_daemon(&["--flight-recorder", "8"], &request_log);
    assert_eq!(code, 0);
    assert_eq!(dump.matches("serve.flight_recorder").count(), 1, "{dump}");
    assert!(dump.contains("reason=shutdown"), "{dump}");
    assert!(
        dump.contains("dropped="),
        "dump must report ring evictions: {dump}"
    );
    assert!(dynawave_obs::validate_stream(&dump).is_clean());
}
