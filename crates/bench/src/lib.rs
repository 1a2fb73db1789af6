//! Shared plumbing for the experiment harness binaries.
//!
//! Every figure/table of the paper has a binary under `src/bin/` that
//! regenerates its rows or series (see `DESIGN.md` for the index). The
//! helpers here keep their output format consistent: a banner describing
//! the experiment scale, fixed-width tables, and ASCII sparklines for
//! trace comparisons.
//!
//! Scale is controlled by `DYNAWAVE_TRAIN`, `DYNAWAVE_TEST`,
//! `DYNAWAVE_SAMPLES`, `DYNAWAVE_INTERVAL` and `DYNAWAVE_SEED`
//! (see [`ExperimentConfig::from_env`]); defaults are the paper's
//! 200-train / 50-test / 128-sample methodology.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use dynawave_core::experiment::ExperimentConfig;
use std::time::Instant;

/// A wall-clock [`dynawave_obs::Clock`] in nanoseconds since creation.
///
/// Lives here — behind the harness boundary, where `std::time` is allowed
/// (lint rules D004/D007) — rather than in `crates/obs`, whose default
/// [`dynawave_obs::TickClock`] keeps library tracing deterministic. Use it
/// to stamp obs events with real time when benchmarking:
///
/// ```
/// use dynawave_bench::WallClock;
/// dynawave_obs::install(dynawave_obs::Recorder::with_clock(Box::new(WallClock::new())));
/// ```
#[derive(Debug, Clone)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock whose zero point is now.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl dynawave_obs::Clock for WallClock {
    fn now(&mut self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Prints the standard experiment banner and returns the env-derived
/// configuration plus a start instant for the closing footer.
///
/// # Panics
///
/// Exits with the parse error if a `DYNAWAVE_*` variable is set but
/// unparseable — a typo'd scale knob must not silently run at a
/// different scale.
pub fn start(figure: &str, description: &str) -> (ExperimentConfig, Instant) {
    let cfg = match ExperimentConfig::from_env() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!("================================================================");
    println!("dynawave reproduction :: {figure}");
    println!("{description}");
    println!(
        "scale: {} train / {} test / {} samples x {} instr (seed {})",
        cfg.train_points, cfg.test_points, cfg.samples, cfg.interval_instructions, cfg.seed
    );
    println!("================================================================");
    (cfg, Instant::now())
}

/// Prints the closing footer, and the elapsed wall-clock time to stderr:
/// stdout stays the same bytes on every run of the same figure.
pub fn finish(started: Instant) {
    println!("----------------------------------------------------------------");
    eprintln!("done in {:.1}s", started.elapsed().as_secs_f64());
}

/// Prints a fixed-width table: a header row then data rows, all columns
/// padded to the widest cell.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let cols = header.len();
    // Measure in chars, not bytes: sparkline cells are multibyte UTF-8.
    let width_of = |s: &str| s.chars().count();
    let mut widths: Vec<usize> = header.iter().map(|h| width_of(h)).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(width_of(cell));
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:>w$}", w = w));
        }
        out
    };
    println!(
        "{}",
        line(header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

/// Renders a trace as an ASCII sparkline (8 levels) so simulated and
/// predicted dynamics can be compared visually in a terminal.
pub fn sparkline(trace: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if trace.is_empty() {
        return String::new();
    }
    let lo = trace.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = trace.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    trace
        .iter()
        .map(|v| {
            let idx = (((v - lo) / span) * 7.0).round() as usize;
            LEVELS[idx.min(7)]
        })
        .collect()
}

/// Formats a float with `digits` decimal places.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Down-samples a trace to at most `n` points (for wide sparklines).
pub fn downsample(trace: &[f64], n: usize) -> Vec<f64> {
    if trace.len() <= n || n == 0 {
        return trace.to_vec();
    }
    let chunk = trace.len().div_ceil(n);
    trace
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        use dynawave_obs::Clock;
        let mut c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn sparkline_constant_trace() {
        let s = sparkline(&[2.0, 2.0, 2.0]);
        assert_eq!(s.chars().count(), 3);
    }

    #[test]
    fn downsample_caps_length() {
        let t: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let d = downsample(&t, 10);
        assert!(d.len() <= 10);
        // Order preserved and means increasing.
        assert!(d.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(downsample(&t, 0), t);
    }

    #[test]
    fn fmt_digits() {
        assert_eq!(fmt(1.23456, 2), "1.23");
    }
}
