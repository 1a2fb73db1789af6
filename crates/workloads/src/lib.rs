//! Synthetic SPEC CPU 2000 workload models and instruction-trace
//! generation.
//!
//! The MICRO 2007 paper drives its design-space exploration with twelve
//! SPEC CPU 2000 benchmarks (*bzip2, crafty, eon, gap, gcc, mcf, parser,
//! perlbmk, swim, twolf, vortex, vpr*), each simulated for one SimPoint
//! interval. The binaries and reference inputs are not redistributable, so
//! this crate substitutes **statistical workload models**: each benchmark
//! is a deterministic generator of instruction records whose
//!
//! * instruction mix ([`InstructionMix`]),
//! * inter-instruction dependency distances,
//! * branch-site behaviour ([`BranchModel`]),
//! * memory reuse/working-set structure ([`MemoryModel`]), and
//! * instruction-fetch (code) footprint
//!
//! are modulated over the execution interval by per-benchmark **phase
//! signals** ([`PhaseSignal`]). The signals give every benchmark a
//! distinct, time-varying personality (bursty gcc, periodic swim,
//! memory-plateaued mcf, ...), which is the property the paper's
//! wavelet-domain models exist to capture.
//!
//! Crucially, the generated stream depends only on `(benchmark, seed,
//! instruction index)` — never on the machine configuration — so every
//! simulated design point executes *the same code base*, exactly as in
//! trace-driven simulation of a fixed SimPoint interval. Different
//! configurations then manifest different dynamics purely through timing,
//! which is the paper's premise.
//!
//! # Examples
//!
//! ```
//! use dynawave_workloads::{Benchmark, TraceGenerator};
//!
//! let mut gen = TraceGenerator::new(Benchmark::Gcc, 1 << 16, 42);
//! let first: Vec<_> = gen.by_ref().take(1000).collect();
//! assert_eq!(first.len(), 1000);
//! // Regenerating with the same seed reproduces the stream bit-for-bit.
//! let again: Vec<_> = TraceGenerator::new(Benchmark::Gcc, 1 << 16, 42)
//!     .take(1000)
//!     .collect();
//! assert_eq!(first, again);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod benchmark;
mod instruction;
mod model;
mod phase;
mod trace;

pub use benchmark::Benchmark;
pub use instruction::{Instruction, OpClass};
pub use model::{
    BenchmarkProfile, BranchModel, DynamicsSignals, InstructionMix, MemoryModel, ProfileBuilder,
};
pub use phase::{Component, PhaseSignal};
pub use trace::TraceGenerator;
