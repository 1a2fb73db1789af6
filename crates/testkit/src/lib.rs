//! Minimal property-testing harness for the `dynawave` workspace.
//!
//! A self-contained, zero-dependency replacement for the subset of
//! `proptest` the workspace used: seeded pseudo-random case generation
//! (driven by [`dynawave_numeric::rng::Rng`]), a configurable case count,
//! greedy input shrinking by halving/truncation, and failure reports that
//! print the exact seed needed to replay the offending case.
//!
//! # Writing a property
//!
//! A property is a closure from a generated input to `Result<(), String>`;
//! `Err` (or a panic) fails the case. Inputs come from a generator closure
//! over [`Rng`], either hand-rolled or composed from [`gen`]:
//!
//! ```
//! use dynawave_testkit::{check, gen, ensure};
//!
//! check("reverse twice is identity")
//!     .cases(64)
//!     .run(gen::vec_f64(-1e3, 1e3, 1, 32), |v| {
//!         let mut twice = v.clone();
//!         twice.reverse();
//!         twice.reverse();
//!         ensure!(&twice == v, "reversal not involutive: {twice:?}");
//!         Ok(())
//!     });
//! ```
//!
//! # Reproducing a failure
//!
//! On failure the harness panics with the case's seed and the shrunken
//! input. Re-run just that case with [`Checker::replay`]:
//!
//! ```
//! use dynawave_testkit::{check, gen};
//!
//! // Replays one case; the seed would come from a failure report.
//! check("example").replay(0xDEAD_BEEF, gen::f64_in(0.0, 1.0), |x| {
//!     if (0.0..1.0).contains(x) { Ok(()) } else { Err(format!("{x} out of range")) }
//! });
//! ```
//!
//! The base seed and case count can also be overridden globally through the
//! `DYNAWAVE_TESTKIT_SEED` / `DYNAWAVE_TESTKIT_CASES` environment
//! variables, so CI can widen coverage without touching test code.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use dynawave_numeric::rng::Rng;
use dynawave_numeric::rng::{derive_seed, splitmix64};

pub mod gen;
mod shrink;

pub use shrink::Shrink;

/// Outcome of a single property case: `Err` carries the failure message.
pub type CaseResult = Result<(), String>;

/// Default number of cases per property (matches proptest's historic
/// default closely enough for equivalent coverage).
pub const DEFAULT_CASES: u32 = 64;

/// Default base seed; stable so CI runs are reproducible by default.
pub const DEFAULT_SEED: u64 = 0x00D1_7A0A_7E57_5EED;

/// Cap on shrink iterations after a failure.
const MAX_SHRINK_STEPS: u32 = 512;

/// Fails the current case with a formatted message unless `cond` holds.
///
/// ```
/// use dynawave_testkit::{check, ensure, gen};
/// check("abs is non-negative").run(gen::f64_in(-5.0, 5.0), |x| {
///     ensure!(x.abs() >= 0.0, "|{x}| < 0");
///     Ok(())
/// });
/// ```
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err(format!($($fmt)+));
        }
    };
}

/// Starts a property check with the given label.
///
/// The label both names the property in failure reports and perturbs the
/// case seeds (via [`derive_seed`]), so different properties explore
/// different corners of the input space under the same base seed.
///
/// ```
/// use dynawave_testkit::{check, gen};
/// check("squares are non-negative")
///     .cases(128)
///     .run(gen::f64_in(-10.0, 10.0), |x| {
///         if x * x >= 0.0 { Ok(()) } else { Err("negative square".into()) }
///     });
/// ```
pub fn check(label: &str) -> Checker {
    Checker::new(label)
}

/// A configured property-check run. Build with [`check`].
#[derive(Debug, Clone)]
pub struct Checker {
    label: String,
    cases: u32,
    seed: u64,
}

impl Checker {
    /// As [`check`].
    pub fn new(label: &str) -> Self {
        let cases = std::env::var("DYNAWAVE_TESTKIT_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_CASES);
        let seed = std::env::var("DYNAWAVE_TESTKIT_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_SEED);
        Checker {
            label: label.to_string(),
            cases,
            seed,
        }
    }

    /// Sets the number of generated cases (default [`DEFAULT_CASES`]).
    pub fn cases(mut self, cases: u32) -> Self {
        self.cases = cases.max(1);
        self
    }

    /// Sets the base seed (default [`DEFAULT_SEED`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates and runs every case; panics with a reproducible report on
    /// the first failure.
    ///
    /// Each case `i` draws its input from `Rng::new(case_seed(i))`, where
    /// the case seed mixes the base seed, the label and `i` — so a report
    /// can name the one seed that reproduces the failure regardless of how
    /// many cases ran before it.
    ///
    /// # Panics
    ///
    /// Panics if any case fails (after shrinking), with a report carrying
    /// the property label, case index, replay seed, and the shrunken
    /// failing input.
    pub fn run<T, G, P>(&self, mut generator: G, mut property: P)
    where
        T: Clone + std::fmt::Debug + Shrink,
        G: FnMut(&mut Rng) -> T,
        P: FnMut(&T) -> CaseResult,
    {
        let base = derive_seed(self.seed, &self.label);
        for case in 0..self.cases {
            let case_seed = splitmix64(base ^ u64::from(case));
            let mut rng = Rng::new(case_seed);
            let input = generator(&mut rng);
            if let Err(message) = property(&input) {
                let (shrunk, message) = self.shrink_failure(input, message, &mut property);
                panic!(
                    "property '{label}' failed\n  case:        {case}/{total}\n  replay seed: {case_seed:#018x}  (Checker::replay)\n  input:       {shrunk:?}\n  error:       {message}",
                    label = self.label,
                    total = self.cases,
                );
            }
        }
    }

    /// Runs exactly one case from an explicit `case_seed` (as printed in a
    /// failure report). Panics with the failure message if the property
    /// still fails; useful as a permanent named regression test.
    pub fn replay<T, G, P>(&self, case_seed: u64, mut generator: G, mut property: P)
    where
        T: std::fmt::Debug,
        G: FnMut(&mut Rng) -> T,
        P: FnMut(&T) -> CaseResult,
    {
        let mut rng = Rng::new(case_seed);
        let input = generator(&mut rng);
        if let Err(message) = property(&input) {
            panic!(
                "property '{label}' failed on replay\n  replay seed: {case_seed:#018x}\n  input:       {input:?}\n  error:       {message}",
                label = self.label,
            );
        }
    }

    /// Greedily shrinks a failing input: repeatedly takes the first
    /// [`Shrink::shrink`] candidate that still fails, until no candidate
    /// fails or [`MAX_SHRINK_STEPS`] run out. Returns the smallest failure
    /// found and its error message.
    fn shrink_failure<T, P>(
        &self,
        mut failing: T,
        mut message: String,
        property: &mut P,
    ) -> (T, String)
    where
        T: Clone + std::fmt::Debug + Shrink,
        P: FnMut(&T) -> CaseResult,
    {
        for _ in 0..MAX_SHRINK_STEPS {
            let mut shrunk = false;
            for candidate in failing.shrink() {
                if let Err(err) = property(&candidate) {
                    failing = candidate;
                    message = err;
                    shrunk = true;
                    break;
                }
            }
            if !shrunk {
                break;
            }
        }
        (failing, message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        check("count").cases(10).run(gen::u64_in(0, 100), |_| {
            count += 1;
            Ok(())
        });
        assert_eq!(count, 10);
    }

    #[test]
    fn failing_property_panics_with_report() {
        let result = std::panic::catch_unwind(|| {
            check("always fails")
                .cases(5)
                .run(gen::u64_in(0, 100), |_| Err("nope".into()));
        });
        let panic = result.unwrap_err();
        let text = panic.downcast_ref::<String>().expect("string panic");
        assert!(text.contains("always fails"), "{text}");
        assert!(text.contains("replay seed"), "{text}");
        assert!(text.contains("nope"), "{text}");
    }

    #[test]
    fn shrinking_reaches_a_minimal_vector() {
        // Property "no element >= 500" fails; shrinking should cut the
        // witness down to a single offending element.
        let result = std::panic::catch_unwind(|| {
            check("small elements")
                .cases(50)
                .run(gen::vec_f64(0.0, 1000.0, 1, 64), |v| {
                    if v.iter().all(|&x| x < 500.0) {
                        Ok(())
                    } else {
                        Err("element >= 500".into())
                    }
                });
        });
        let panic = result.unwrap_err();
        let text = panic.downcast_ref::<String>().expect("string panic");
        // The shrunken input prints as a single-element vector.
        let input_line = text.lines().find(|l| l.contains("input:")).unwrap();
        let commas = input_line.matches(',').count();
        assert_eq!(commas, 0, "not fully shrunk: {input_line}");
    }

    #[test]
    fn same_seed_generates_identical_cases() {
        let collect = |seed: u64| {
            let mut cases = Vec::new();
            check("determinism")
                .seed(seed)
                .cases(8)
                .run(gen::vec_f64(-1.0, 1.0, 4, 8), |v| {
                    cases.push(v.clone());
                    Ok(())
                });
            cases
        };
        assert_eq!(collect(1), collect(1));
        assert_ne!(collect(1), collect(2));
    }

    #[test]
    fn replay_reproduces_the_reported_case() {
        // Capture the generated input for an arbitrary seed, then check
        // replay draws the identical input.
        let seed = 0x1234;
        let mut first = None;
        check("replay").replay(seed, gen::vec_f64(0.0, 1.0, 1, 16), |v| {
            first = Some(v.clone());
            Ok(())
        });
        check("replay").replay(seed, gen::vec_f64(0.0, 1.0, 1, 16), |v| {
            assert_eq!(Some(v), first.as_ref().map(|x| x));
            Ok(())
        });
    }
}
