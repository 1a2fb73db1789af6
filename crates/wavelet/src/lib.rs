//! Discrete wavelet transforms for workload dynamics.
//!
//! The MICRO 2007 paper decomposes a sampled workload-dynamics trace (CPI,
//! power or AVF over time) into wavelet coefficients, predicts a small set
//! of *important* coefficients with neural networks, and reconstructs the
//! predicted trace with the inverse transform. This crate provides exactly
//! that machinery:
//!
//! * [`Wavelet`] — the mother-wavelet filter pairs (Haar as in the paper's
//!   §2.1 primer, plus Daubechies-4 for ablation studies).
//! * [`dwt`] / [`idwt`] — single-level analysis/synthesis.
//! * [`wavedec`] / [`waverec`] — full multi-level decomposition to a flat
//!   coefficient vector ordered `[approximation, detail L, detail L-1, ...,
//!   detail 1]`, i.e. overall average first, then details in order of
//!   increasing resolution, matching Figure 2 of the paper.
//! * [`select`] — magnitude- and order-based coefficient selection
//!   (the paper's two schemes) and rank maps (Figure 7).
//!
//! # Examples
//!
//! Reproducing the paper's Figure 2 Haar example:
//!
//! ```
//! use dynawave_wavelet::{wavedec, Wavelet};
//!
//! let data = [3.0, 4.0, 20.0, 25.0, 15.0, 5.0, 20.0, 3.0];
//! let coeffs = wavedec(&data, Wavelet::Haar).unwrap();
//! // Overall approximation 11.875, then details at coarse-to-fine scales.
//! assert!((coeffs.as_slice()[0] - 11.875).abs() < 1e-12);
//! assert!((coeffs.as_slice()[1] - 1.125).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod coeffs;
mod error;
pub mod select;
mod transform;

pub use coeffs::Decomposition;
pub use error::WaveletError;
pub use transform::{dwt, idwt, wavedec, waverec, Wavelet};
