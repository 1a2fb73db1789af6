//! `dynawave-serve`: the kill-safe DSE prediction daemon.
//!
//! Speaks the versioned `dynawave-serve` JSON-lines protocol on
//! stdin/stdout (one request line in, exactly one response line out; see
//! `dynawave_core::serve` and DESIGN.md §13). Responses are journaled to
//! a fingerprinted append-only log so a killed daemon can be replayed to
//! a byte-identical transcript:
//!
//! ```text
//! printf '%s\n' "$REQUESTS" | serve --journal serve.journal
//! serve --journal serve.journal --replay requests.jsonl   # after a crash
//! ```
//!
//! Chaos switches (`--chaos-seed`/`--chaos-rate`) inject seeded solver
//! faults into the model-acquisition path to exercise the recovery
//! ladder; `--chaos-journal` instead targets the journal append path to
//! exercise degraded durability. The two target sets are disjoint on
//! purpose: replay does not consult the journal fault site, so mixing
//! them in one plan would shift the shared fault-RNG stream between live
//! and replay runs. `--chaos-rate` and `--chaos-journal` without
//! `--chaos-seed` are refused at start-up.
//!
//! Model scale comes from the usual `DYNAWAVE_TRAIN` / `DYNAWAVE_TEST` /
//! `DYNAWAVE_SAMPLES` / `DYNAWAVE_INTERVAL` / `DYNAWAVE_SEED` env knobs;
//! `DYNAWAVE_TRACE=1` records an obs trace and emits it as JSON lines on
//! stderr at exit (stdout stays pure protocol).
//!
//! `--flight-recorder N` arms a bounded in-memory ring of the last N obs
//! events (no full tracing needed): on the first `internal`-class error —
//! or at shutdown, whichever comes first — the ring is dumped to stderr
//! as a valid obs stream, so a crashed daemon leaves a post-mortem
//! without the cost of always-on tracing. `--strict-recovery` disables
//! the recovery ladder (first training fault becomes a `train-failed`
//! internal error) — chiefly a chaos-testing aid for that dump path.

use dynawave_core::experiment::ExperimentConfig;
use dynawave_core::serve::{replay, ServeConfig, ServeEngine, ServeJournal};
use dynawave_core::RecoveryPolicy;
use dynawave_numeric::fault::{FaultKind, FaultPlan, FaultSite};
use std::io::BufRead as _;
use std::path::PathBuf;

struct Cli {
    serve: ServeConfig,
    journal: Option<PathBuf>,
    replay_log: Option<PathBuf>,
    chaos_seed: Option<u64>,
    chaos_rate: Option<f64>,
    chaos_journal: bool,
    flight_recorder: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve [--journal PATH] [--models DIR] [--deadline N] \
         [--capacity N] [--drain N] [--train-cost N] [--max-bytes N] \
         [--chaos-seed S] [--chaos-rate R] [--chaos-journal] \
         [--flight-recorder N] [--strict-recovery] \
         [--replay REQUEST_LOG]\n\
         Reads dynawave-serve v1 JSON-lines requests on stdin and writes \
         one response line per request on stdout.\n\
         --replay re-runs REQUEST_LOG against the journal at --journal, \
         verifies the surviving prefix byte-for-byte, and rewrites the \
         journal to the full transcript.\n\
         --flight-recorder keeps the last N obs events in memory and \
         dumps them to stderr on the first internal error or at shutdown."
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let config = match ExperimentConfig::from_env() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(2);
        }
    };
    let mut cli = Cli {
        serve: ServeConfig {
            config,
            ..ServeConfig::default()
        },
        journal: None,
        replay_log: None,
        chaos_seed: None,
        chaos_rate: None,
        chaos_journal: false,
        flight_recorder: None,
    };
    // dynalint:allow(D004) -- CLI arguments are the daemon's intended input
    let mut argv = std::env::args().skip(1);
    let value = |argv: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        match argv.next() {
            Some(v) => v,
            None => {
                eprintln!("serve: {flag} needs a value");
                std::process::exit(2);
            }
        }
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--journal" => cli.journal = Some(PathBuf::from(value(&mut argv, "--journal"))),
            "--models" => cli.serve.models_dir = Some(PathBuf::from(value(&mut argv, "--models"))),
            "--replay" => cli.replay_log = Some(PathBuf::from(value(&mut argv, "--replay"))),
            "--deadline" => cli.serve.default_deadline = parse_u64(&value(&mut argv, "--deadline")),
            "--capacity" => cli.serve.queue_capacity = parse_u64(&value(&mut argv, "--capacity")),
            "--drain" => cli.serve.drain_per_request = parse_u64(&value(&mut argv, "--drain")),
            "--train-cost" => cli.serve.train_cost = parse_u64(&value(&mut argv, "--train-cost")),
            "--max-bytes" => {
                cli.serve.max_request_bytes = parse_u64(&value(&mut argv, "--max-bytes")) as usize
            }
            "--chaos-seed" => cli.chaos_seed = Some(parse_u64(&value(&mut argv, "--chaos-seed"))),
            "--chaos-rate" => {
                let raw = value(&mut argv, "--chaos-rate");
                match raw.parse::<f64>() {
                    Ok(r) if r.is_finite() && (0.0..=1.0).contains(&r) => cli.chaos_rate = Some(r),
                    _ => {
                        eprintln!("serve: --chaos-rate must be a probability, got '{raw}'");
                        std::process::exit(2);
                    }
                }
            }
            "--chaos-journal" => cli.chaos_journal = true,
            "--flight-recorder" => {
                cli.flight_recorder =
                    Some(parse_u64(&value(&mut argv, "--flight-recorder")) as usize)
            }
            "--strict-recovery" => cli.serve.config.recovery = RecoveryPolicy::strict(),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("serve: unknown argument '{other}'");
                usage();
            }
        }
    }
    if cli.chaos_seed.is_none() && (cli.chaos_rate.is_some() || cli.chaos_journal) {
        let flag = if cli.chaos_journal {
            "--chaos-journal"
        } else {
            "--chaos-rate"
        };
        eprintln!("serve: {flag} needs --chaos-seed");
        std::process::exit(2);
    }
    cli
}

fn parse_u64(raw: &str) -> u64 {
    match raw.parse::<u64>() {
        Ok(v) if v > 0 => v,
        _ => {
            eprintln!("serve: expected a positive integer, got '{raw}'");
            std::process::exit(2);
        }
    }
}

fn chaos_plan(cli: &Cli) -> Option<FaultPlan> {
    let seed = cli.chaos_seed?;
    let rate = cli.chaos_rate.unwrap_or(0.05);
    let plan = if cli.chaos_journal {
        FaultPlan::new(seed)
            .rate(rate)
            .targeting(&[FaultSite::JournalAppend])
            .kinds(&[FaultKind::EarlyStop])
    } else {
        FaultPlan::new(seed)
            .rate(rate)
            .targeting(&FaultSite::SOLVER_SITES)
            .kinds(&[FaultKind::Singular, FaultKind::NonFinite])
    };
    Some(plan)
}

/// Dump the armed flight-recorder ring to stderr as an obs stream.
///
/// Stamps a `serve.flight_recorder` marker (with the dump reason and the
/// number of events the ring overwrote) before draining, so the dump is
/// self-describing. No-op when no recorder is installed; draining
/// uninstalls it, which is what makes "dump exactly once" cheap to
/// guarantee — a second call finds nothing.
fn dump_flight(reason: &str) {
    let dropped = match dynawave_obs::take() {
        Some(recorder) => {
            let dropped = recorder.dropped();
            dynawave_obs::install(recorder);
            dropped
        }
        None => return,
    };
    dynawave_obs::marker_with_detail(
        "serve.flight_recorder",
        &format!("reason={reason} dropped={dropped}"),
    );
    if let Some(events) = dynawave_obs::drain() {
        eprint!("{}", dynawave_obs::encode_lines(&events));
    }
}

/// Live mode: stdin requests -> stdout responses (+ journal).
///
/// `quiet` suppresses the human summary on stderr — set when tracing or
/// flight-recording, so the stderr channel stays a pure obs JSON-lines
/// stream. `flight` arms the first-internal-error dump check.
fn run_live(cli: &Cli, quiet: bool, flight: bool) -> i32 {
    let mut journal = match &cli.journal {
        None => None,
        Some(path) => match ServeJournal::create(path, &cli.serve) {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("serve: cannot create journal {}: {e}", path.display());
                return 2;
            }
        },
    };
    let mut engine = ServeEngine::new(cli.serve.clone());
    if journal.is_some() {
        engine.note_journal_attached();
    }
    let mut journal_broken_noted = false;
    let mut flight_dumped = false;
    let stdin = std::io::stdin();
    use std::io::Write as _;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("serve: stdin read failed: {e}");
                return 1;
            }
        };
        let response = engine.handle_line(&line);
        if let Some(j) = journal.as_mut() {
            j.append(&response);
            if j.is_broken() && !journal_broken_noted {
                engine.note_journal_broken();
                journal_broken_noted = true;
            }
        }
        if flight && !flight_dumped && engine.stats().internal_errors() > 0 {
            dump_flight("internal-error");
            flight_dumped = true;
        }
        if writeln!(out, "{response}").is_err() {
            // Reader went away; nothing left to serve.
            return 0;
        }
    }
    if flight && !flight_dumped {
        dump_flight("shutdown");
    }
    if !quiet {
        eprintln!(
            "serve: {} response(s), {} tick(s){}",
            engine.responses(),
            engine.tick(),
            match &journal {
                Some(j) if j.is_broken() => ", journal disabled by fault",
                _ => "",
            }
        );
    }
    0
}

/// Replay mode: re-run the request log, verify the journal prefix,
/// rewrite the full transcript, and print every response to stdout.
fn run_replay(cli: &Cli, log_path: &PathBuf, quiet: bool) -> i32 {
    let Some(journal_path) = &cli.journal else {
        eprintln!("serve: --replay needs --journal");
        return 2;
    };
    let request_log = match std::fs::read_to_string(log_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("serve: cannot read request log {}: {e}", log_path.display());
            return 2;
        }
    };
    match replay(cli.serve.clone(), &request_log, journal_path) {
        Ok(outcome) => {
            use std::io::Write as _;
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            for r in &outcome.responses {
                if writeln!(out, "{r}").is_err() {
                    return 0;
                }
            }
            if !quiet {
                eprintln!(
                    "serve: replayed {} response(s), verified {} journaled line(s){}",
                    outcome.responses.len(),
                    outcome.verified,
                    if outcome.torn_tail {
                        ", dropped a torn tail"
                    } else {
                        ""
                    }
                );
            }
            0
        }
        Err(e) => {
            eprintln!("serve: replay failed: {e}");
            1
        }
    }
}

fn main() {
    let cli = parse_cli();
    // dynalint:allow(D004) -- opt-in tracing is part of the documented CLI
    let tracing = std::env::var("DYNAWAVE_TRACE").map(|v| v == "1") == Ok(true);
    // Full tracing supersedes the flight recorder: the complete stream
    // already contains everything the ring would keep.
    let flight = !tracing && cli.flight_recorder.is_some();
    if tracing {
        dynawave_obs::install(dynawave_obs::Recorder::with_tick_clock());
    } else if let Some(capacity) = cli.flight_recorder {
        dynawave_obs::install(dynawave_obs::Recorder::flight_recorder(capacity));
    }
    let quiet = tracing || flight;
    let body = || match &cli.replay_log {
        Some(log) => run_replay(&cli, log, quiet),
        None => run_live(&cli, quiet, flight),
    };
    let code = match chaos_plan(&cli) {
        Some(plan) => {
            let (code, report) = dynawave_numeric::fault::with_plan(plan, body);
            if !quiet {
                eprintln!(
                    "serve: chaos plan fired {} of {} armed fault(s)",
                    report.fired, report.armed
                );
            }
            code
        }
        None => body(),
    };
    if tracing {
        if let Some(events) = dynawave_obs::drain() {
            eprint!("{}", dynawave_obs::encode_lines(&events));
        }
    } else if flight {
        // Replay mode (or an early live-mode exit) never reached the
        // in-loop dump; run_live's own shutdown dump already drained the
        // recorder, making this a no-op there.
        dump_flight("shutdown");
    }
    std::process::exit(code);
}
