//! A guided tour of the `dynawave-serve` protocol, in-process.
//!
//! Drives a [`ServeEngine`] through one serving session — prediction,
//! Pareto frontier, a deliberately malformed request, a starved deadline
//! — then demonstrates kill-safe replay: the journal is torn mid-line
//! (a simulated `kill -9`) and rebuilt byte-for-byte from the request
//! log.
//!
//! ```text
//! cargo run --release --example serve_session
//! ```
//!
//! Scale knobs: the usual `DYNAWAVE_TRAIN` / `DYNAWAVE_SAMPLES` /
//! `DYNAWAVE_INTERVAL` environment overrides.

use dynawave_core::experiment::ExperimentConfig;
use dynawave_core::serve::{replay, ServeConfig, ServeEngine, ServeJournal};

fn main() {
    let config = match ExperimentConfig::from_env() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve_session: {e}");
            std::process::exit(2);
        }
    };
    // Demo-sized defaults when the env does not say otherwise.
    let config = ExperimentConfig {
        train_points: config.train_points.min(24),
        samples: config.samples.min(32),
        interval_instructions: config.interval_instructions.min(600),
        ..config
    };
    let serve_config = ServeConfig {
        config,
        train_cost: 64,
        ..ServeConfig::default()
    };
    let dims = serve_config.config.space().dims();
    let point = |base: f64| -> String {
        let knobs: Vec<String> = (0..dims).map(|i| format!("{}", base + i as f64)).collect();
        format!("[{}]", knobs.join(","))
    };

    let requests = vec![
        // Batched dynamics prediction.
        format!(
            "{{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"q1\",\
             \"kind\":\"predict\",\"benchmark\":\"gcc\",\"metric\":\"cpi\",\
             \"points\":[{},{}]}}",
            point(2.0),
            point(3.5)
        ),
        // Pareto frontier over CPI / power / AVF.
        format!(
            "{{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"q2\",\
             \"kind\":\"pareto\",\"benchmark\":\"gcc\",\
             \"points\":[{},{},{}]}}",
            point(1.5),
            point(2.5),
            point(4.0)
        ),
        // A malformed request: the daemon answers, it never dies.
        "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"q3\",\
         \"kind\":\"predict\",\"benchmark\":\"doom\"}"
            .to_string(),
        // A starved deadline: typed refusal before any work happens.
        format!(
            "{{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"q4\",\
             \"deadline\":3,\"kind\":\"predict\",\"benchmark\":\"mcf\",\
             \"metric\":\"power\",\"points\":[{}]}}",
            point(2.0)
        ),
    ];

    let dir = std::env::temp_dir().join("dynawave_serve_session");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("serve_session: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let journal_path = dir.join("session.journal");

    println!("== live session ==");
    let mut journal = match ServeJournal::create(&journal_path, &serve_config) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("serve_session: cannot create journal: {e}");
            std::process::exit(1);
        }
    };
    let mut engine = ServeEngine::new(serve_config.clone());
    for request in &requests {
        let response = engine.handle_line(request);
        journal.append(&response);
        let shown: String = response.chars().take(96).collect();
        println!("<- {shown}...");
    }
    println!(
        "   {} responses, {} work ticks consumed",
        engine.responses(),
        engine.tick()
    );

    // Simulate a kill -9 mid-write: chop the journal inside its final
    // response line.
    let intact = match std::fs::read_to_string(&journal_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("serve_session: cannot read journal: {e}");
            std::process::exit(1);
        }
    };
    let torn_len = intact.len() - 17;
    if std::fs::write(&journal_path, &intact[..torn_len]).is_err() {
        eprintln!("serve_session: cannot tear journal");
        std::process::exit(1);
    }
    println!("\n== crash ==");
    println!("   journal torn from {} to {torn_len} bytes", intact.len());

    // Replay the request log: the surviving prefix is verified
    // byte-for-byte and the journal is rebuilt in full.
    println!("\n== replay ==");
    let request_log: String = requests.iter().map(|r| format!("{r}\n")).collect();
    match replay(serve_config, &request_log, &journal_path) {
        Ok(outcome) => {
            let rebuilt = std::fs::read_to_string(&journal_path).unwrap_or_default();
            println!(
                "   replayed {} responses, verified {} surviving lines{}",
                outcome.responses.len(),
                outcome.verified,
                if outcome.torn_tail {
                    ", torn tail dropped"
                } else {
                    ""
                }
            );
            println!(
                "   journal rebuilt byte-identical: {}",
                if rebuilt == intact { "yes" } else { "NO" }
            );
            if rebuilt != intact {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("serve_session: replay failed: {e}");
            std::process::exit(1);
        }
    }
}
