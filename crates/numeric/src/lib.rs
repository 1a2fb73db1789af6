//! Dense linear algebra, descriptive statistics and deterministic RNG
//! helpers shared across the `dynawave` workspace.
//!
//! This crate provides the small amount of numerical machinery the
//! wavelet-neural-network models of [Cho, Zhang & Li, MICRO 2007] need:
//!
//! * [`Matrix`] — a dense, row-major, `f64` matrix with the usual
//!   arithmetic, plus [`Matrix::cholesky`] and [`Matrix::lu`]
//!   factorizations used for ridge-regularized least squares
//!   ([`solve::ridge_regression`]).
//! * [`stats`] — quantiles, five-number boxplot summaries
//!   ([`stats::BoxplotSummary`]), normalized mean-square error and other
//!   error metrics reported in the paper's evaluation.
//! * [`rng`] — seed-derivation utilities so every component of the
//!   workspace is reproducible from a single experiment seed.
//! * [`fault`] — deterministic fault injection: a seeded [`fault::FaultPlan`]
//!   forces `Singular`/`NaN`/early-termination failures at chosen solver
//!   sites so recovery paths are exercised by tests instead of trusted on
//!   faith. Inert unless a plan is explicitly installed.
//!
//! # Examples
//!
//! ```
//! use dynawave_numeric::{Matrix, solve};
//!
//! // Fit y = 2 x with a tiny ridge penalty.
//! let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
//! let y = [2.0, 4.0, 6.0];
//! let w = solve::ridge_regression(&x, &y, 1e-9).expect("well-conditioned");
//! assert!((w[0] - 2.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod fault;
mod matrix;
pub mod rng;
pub mod solve;
pub mod stats;

pub use error::NumericError;
pub use matrix::Matrix;
