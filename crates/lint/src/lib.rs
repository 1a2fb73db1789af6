//! `dynawave-lint` ("dynalint") — hermetic in-tree static analysis.
//!
//! PR 1 made the workspace hermetic and bit-reproducible *by
//! construction*; this crate makes those properties hold *by
//! enforcement*. It is an in-tree linter with a hand-rolled Rust lexer
//! (so rules never fire inside string literals, comments or doc
//! examples), a recursive-descent [`parser`] producing a lightweight
//! syntax [`tree`], and a workspace-wide [`callgraph`]. The token rules:
//!
//! * **D001** — `.unwrap()` / `.expect()` in non-test library code.
//! * **D002** — `panic!` / `todo!` / `unimplemented!` outside tests/bins.
//! * **D003** — float `==` / `!=` comparisons (literal heuristic).
//! * **D004** — nondeterminism sources (`std::time`, `thread::sleep`,
//!   `std::env`, `HashMap`/`HashSet` randomized iteration) outside the
//!   `bench`/`testkit` harness crates.
//! * **D005** — non-`path` dependencies in any `Cargo.toml`.
//! * **D006** — `unsafe` anywhere, tests included.
//! * **D007** — `Instant::now()` / `SystemTime` anywhere, tests included,
//!   outside the harness crates and the `dynawave-obs` clock impls: wall
//!   time goes through the `dynawave_obs::Clock` trait.
//!
//! And the structural rules, which run on the parse tree and call graph:
//!
//! * **D010** — public library fns that *transitively* reach a panic
//!   site, reported with the witness call path; plus public fns that
//!   index their own parameters without an assert contract.
//! * **D011** — float determinism: `partial_cmp` comparators and float
//!   reductions over unordered hash iteration.
//! * **D012** — concurrency containment: threads, locks, atomics,
//!   channels and `static mut` only in the campaign executor.
//! * **D013** — schema-literal drift from the canonical vocabulary in
//!   `dynawave_obs::schema`.
//!
//! `dynawave-lint --explain D010` prints any rule's rationale and fix
//! pattern; `--json` emits findings as `dynawave-obs` marker events.
//!
//! Individual lines opt out with an audited suppression:
//!
//! ```text
//! let x = v.last().expect("…"); // dynalint:allow(D001) -- checked non-empty above
//! ```
//!
//! A reason after `--` is mandatory; a suppression without one is itself
//! a finding (D000). Pre-existing violations live in `lint-baseline.toml`
//! at the workspace root, which only ever ratchets down: new findings
//! fail, fixed ones are reported as stale baseline entries.
//!
//! Run it via `cargo run -p dynawave-lint --release` (wired into `ci.sh`)
//! or use [`walk::lint_workspace`] programmatically.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod tree;
pub mod walk;

pub use baseline::{Baseline, BaselineReport};
pub use rules::{
    classify, lint_manifest, lint_rust_source, lint_sources, FileKind, Finding, RuleId, SourceFile,
};
