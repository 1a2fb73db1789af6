//! The dynalint rule engine: file classification, `#[cfg(test)]` region
//! tracking, inline suppressions, the token rules D001–D007 and the
//! structural rules D010–D013 (which run on the parse tree and call
//! graph from [`crate::parser`] / [`crate::callgraph`]).
//!
//! | Rule | Fires on | Why |
//! |------|----------|-----|
//! | D001 | `.unwrap()` / `.expect(…)` in non-test library code | library panics abort whole experiment runs |
//! | D002 | `panic!` / `todo!` / `unimplemented!` outside tests and bins | same; use the crate error types |
//! | D003 | `==` / `!=` against a float literal | bit-level float equality is almost never intended |
//! | D004 | `std::time`, `thread::sleep`, `thread::available_parallelism`, `thread::current`, `std::env`, `Instant`, `SystemTime`, `HashMap`, `HashSet`, `ThreadId` outside the harness crates | wall-clock, environment, machine capacity, thread identity and randomized hash iteration break bit-reproducibility |
//! | D005 | non-`path` dependencies in any `Cargo.toml` | the workspace is hermetic by policy |
//! | D006 | `unsafe` anywhere | `#![forbid(unsafe_code)]` is workspace policy |
//! | D007 | `Instant::now()` / `SystemTime` anywhere — tests included — outside the harness crates and the obs clock impls | wall-clock reads belong behind `dynawave_obs::Clock`, so even test timing is deterministic |
//! | D010 | public library fns that transitively reach a panic site through the call graph, or that index their own parameters without an assert contract | a panic N calls below the public surface still aborts a campaign |
//! | D011 | float comparators built on `partial_cmp`, and float reductions over unordered map/set iteration | NaN and hash order make results run-dependent; use `total_cmp` and sorted iteration |
//! | D012 | thread spawns, sync primitives, atomics and `static mut` outside the containment module | concurrency is quarantined to the campaign executor |
//! | D013 | schema-ish string literals, bench units and instrument names that are not in the canonical `dynawave_obs::schema` vocabulary | a typo'd tag or stage silently forks the byte-stream fleet |
//! | D000 | malformed `dynalint:allow` suppressions | suppressions must name rules and carry a reason |

use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};
use crate::parser::parse_file;
use crate::tree::{Expr, File, Item, ItemKind};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Malformed or reason-less `dynalint:allow` comment.
    D000,
    /// `unwrap()` / `expect()` in non-test library code.
    D001,
    /// `panic!` / `todo!` / `unimplemented!` outside tests and bins.
    D002,
    /// Float `==` / `!=` comparison.
    D003,
    /// Nondeterminism source outside the harness crates.
    D004,
    /// External (non-path) dependency in a manifest.
    D005,
    /// `unsafe` block or function.
    D006,
    /// Direct wall-clock read outside the sanctioned clock impls.
    D007,
    /// Public fn transitively reaches a panic site (call-graph rule).
    D010,
    /// Run-dependent float ordering (`partial_cmp` comparators,
    /// reductions over unordered iteration).
    D011,
    /// Concurrency primitive outside the containment module.
    D012,
    /// String literal drifts from the canonical schema vocabulary.
    D013,
}

impl RuleId {
    /// All real rules, in order (excludes the D000 meta-rule).
    pub const ALL: [RuleId; 11] = [
        RuleId::D001,
        RuleId::D002,
        RuleId::D003,
        RuleId::D004,
        RuleId::D005,
        RuleId::D006,
        RuleId::D007,
        RuleId::D010,
        RuleId::D011,
        RuleId::D012,
        RuleId::D013,
    ];

    /// Parses `"D001"` → [`RuleId::D001`]; `None` for unknown names.
    pub fn parse(s: &str) -> Option<RuleId> {
        match s {
            "D000" => Some(RuleId::D000),
            "D001" => Some(RuleId::D001),
            "D002" => Some(RuleId::D002),
            "D003" => Some(RuleId::D003),
            "D004" => Some(RuleId::D004),
            "D005" => Some(RuleId::D005),
            "D006" => Some(RuleId::D006),
            "D007" => Some(RuleId::D007),
            "D010" => Some(RuleId::D010),
            "D011" => Some(RuleId::D011),
            "D012" => Some(RuleId::D012),
            "D013" => Some(RuleId::D013),
            _ => None,
        }
    }

    /// Stable display name (`"D001"`).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::D000 => "D000",
            RuleId::D001 => "D001",
            RuleId::D002 => "D002",
            RuleId::D003 => "D003",
            RuleId::D004 => "D004",
            RuleId::D005 => "D005",
            RuleId::D006 => "D006",
            RuleId::D007 => "D007",
            RuleId::D010 => "D010",
            RuleId::D011 => "D011",
            RuleId::D012 => "D012",
            RuleId::D013 => "D013",
        }
    }

    /// One-line description of what the rule fires on (for `--explain`).
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D000 => "malformed or reason-less `dynalint:allow` suppression",
            RuleId::D001 => "`.unwrap()` / `.expect(...)` in non-test library code",
            RuleId::D002 => "`panic!` / `todo!` / `unimplemented!` outside tests and bins",
            RuleId::D003 => "`==` / `!=` comparison against a float literal",
            RuleId::D004 => "nondeterminism source (wall clock, env, hasher) outside the harness",
            RuleId::D005 => "non-`path` dependency in a Cargo.toml",
            RuleId::D006 => "`unsafe` anywhere in the workspace",
            RuleId::D007 => "direct wall-clock read outside the sanctioned clock impls",
            RuleId::D010 => "public library fn that can transitively reach a panic",
            RuleId::D011 => "run-dependent float ordering (partial_cmp, unordered reduction)",
            RuleId::D012 => "concurrency primitive outside the containment module",
            RuleId::D013 => "string literal drifting from the canonical schema vocabulary",
        }
    }

    /// Why the rule exists (for `--explain`).
    pub fn rationale(self) -> &'static str {
        match self {
            RuleId::D000 => {
                "a suppression that names no rule or gives no reason defeats the audit \
                 trail the mechanism exists for"
            }
            RuleId::D001 => {
                "a panicking Option/Result accessor aborts the whole experiment campaign; \
                 library code must surface failures through the crate error types"
            }
            RuleId::D002 => {
                "panic-family macros in library code abort campaigns the same way an \
                 unwrap does, just more deliberately"
            }
            RuleId::D003 => {
                "bit-exact float equality is almost never the intended predicate and \
                 silently diverges across optimization levels"
            }
            RuleId::D004 => {
                "wall clocks, environment reads, machine capacity probes and randomized \
                 hash iteration all make two runs of the same seed differ"
            }
            RuleId::D005 => {
                "the workspace builds offline and hermetically; every dependency must be \
                 a path dependency inside the repo"
            }
            RuleId::D006 => "`#![forbid(unsafe_code)]` is workspace policy, tests included",
            RuleId::D007 => {
                "all timing flows through `dynawave_obs::Clock` so test and bench time \
                 is injectable and deterministic"
            }
            RuleId::D010 => {
                "a panic N calls below the public surface still aborts the campaign; the \
                 call graph is searched so the abort can't hide behind a helper. Fires \
                 only for transitive reach (depth-0 sites are D001/D002's business) and \
                 for public fns that index their own parameters without an assert \
                 contract"
            }
            RuleId::D011 => {
                "`partial_cmp` comparators return None on NaN, so sorts become \
                 input-order-dependent; reductions over HashMap/HashSet iteration \
                 accumulate floats in hasher order, which differs between runs"
            }
            RuleId::D012 => {
                "determinism is enforced by quarantine: threads, locks, channels, \
                 atomics and `static mut` live only in the campaign executor \
                 (crates/core/src/campaign.rs), where their merge order is proven \
                 deterministic"
            }
            RuleId::D013 => {
                "every byte stream the workspace speaks is named in \
                 `dynawave_obs::schema`; a typo'd tag, unit or stage prefix silently \
                 forks producers from consumers"
            }
        }
    }

    /// The idiomatic fix (for `--explain`).
    pub fn fix_pattern(self) -> &'static str {
        match self {
            RuleId::D000 => "write `// dynalint:allow(D001) -- why this is sound`",
            RuleId::D001 => "return the crate's error type (`ok_or`, `?`, `unwrap_or_else`)",
            RuleId::D002 => "return an error; keep `assert!` for documented contracts",
            RuleId::D003 => "compare with an epsilon, or order with `total_cmp`",
            RuleId::D004 => "inject via config/clock traits; use BTreeMap/BTreeSet",
            RuleId::D005 => "vendor the code as a workspace crate and use `path = ...`",
            RuleId::D006 => "rewrite safely; there is no sanctioned unsafe in this repo",
            RuleId::D007 => "take a `&dyn dynawave_obs::Clock` (e.g. `dynawave_bench::WallClock`)",
            RuleId::D010 => {
                "make the helper fallible and propagate, or discharge the site with an \
                 audited `dynalint:allow(D010) -- reason`; for parameter indexing, use \
                 `.get()` or assert the bound first"
            }
            RuleId::D011 => "sort with `total_cmp`; iterate sorted keys before reducing",
            RuleId::D012 => {
                "route the parallelism through the campaign executor \
                 (`dynawave_core::campaign`), the one containment module"
            }
            RuleId::D013 => {
                "use the constants in `dynawave_obs::schema` (SCHEMA_TAGS, BENCH_UNITS) \
                 and name instruments `<stage>.<rest>` with a canonical stage"
            }
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding, pointing at a `file:line:col` span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// How a file participates in the workspace, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source under `crates/*/src` (not `src/bin`).
    Lib,
    /// Binary source (`src/bin/**`, `src/main.rs`).
    Bin,
    /// Test, bench or example source (`tests/**`, `benches/**`,
    /// `examples/**`).
    Test,
    /// Source in a harness crate (`crates/bench`, `crates/testkit`),
    /// exempt from the determinism and panic-freedom rules.
    Harness,
}

/// Classifies a workspace-relative path (with `/` separators).
pub fn classify(path: &str) -> FileKind {
    let in_harness = path.starts_with("crates/bench/") || path.starts_with("crates/testkit/");
    if path.contains("/tests/")
        || path.contains("/benches/")
        || path.starts_with("tests/")
        || path.starts_with("benches/")
        || path.starts_with("examples/")
        || path.contains("/examples/")
    {
        return FileKind::Test;
    }
    if in_harness {
        return FileKind::Harness;
    }
    if path.contains("/src/bin/") || path.ends_with("/src/main.rs") {
        return FileKind::Bin;
    }
    FileKind::Lib
}

/// Per-line suppression state parsed from `dynalint:allow` comments.
struct Suppressions {
    /// line → rules allowed on that line.
    allowed: BTreeMap<usize, Vec<RuleId>>,
    /// Malformed suppressions become D000 findings.
    errors: Vec<(usize, String)>,
}

/// Parses `// dynalint:allow(D001, D004) -- reason` comments.
///
/// A suppression applies to its own line; a comment that owns its line
/// (nothing but the comment on it) applies to the next line instead. A
/// missing rule list or missing `-- reason` is itself a finding (D000):
/// silent, unexplained suppressions defeat the point of the tool.
fn parse_suppressions(comments: &[Comment]) -> Suppressions {
    let mut sup = Suppressions {
        allowed: BTreeMap::new(),
        errors: Vec::new(),
    };
    for c in comments {
        // Doc comments mention the marker in prose (like this crate's own
        // documentation); only plain comments carry directives.
        if c.text.starts_with("///") || c.text.starts_with("//!") {
            continue;
        }
        let Some(at) = c.text.find("dynalint:allow") else {
            continue;
        };
        let rest = &c.text[at + "dynalint:allow".len()..];
        let Some(open) = rest.find('(') else {
            sup.errors
                .push((c.line, "dynalint:allow without a rule list".to_string()));
            continue;
        };
        let Some(close) = rest.find(')') else {
            sup.errors
                .push((c.line, "dynalint:allow with unclosed rule list".to_string()));
            continue;
        };
        let mut rules = Vec::new();
        let mut bad = false;
        for part in rest[open + 1..close].split(',') {
            match RuleId::parse(part.trim()) {
                Some(r) => rules.push(r),
                None => {
                    sup.errors.push((
                        c.line,
                        format!("unknown rule {:?} in dynalint:allow", part.trim()),
                    ));
                    bad = true;
                }
            }
        }
        let after = &rest[close + 1..];
        let reason = after
            .split_once("--")
            .map(|(_, r)| r.trim())
            .unwrap_or_default();
        if reason.is_empty() {
            sup.errors.push((
                c.line,
                "dynalint:allow needs a reason: `-- why this is sound`".to_string(),
            ));
            bad = true;
        }
        if bad || rules.is_empty() {
            continue;
        }
        let target = if c.owns_line { c.line + 1 } else { c.line };
        sup.allowed.entry(target).or_default().extend(rules);
    }
    sup
}

/// Line ranges covered by `#[test]` / `#[cfg(test)]` items.
///
/// Token-level heuristic: after a test attribute, the annotated item
/// extends to the first `;` before any brace, or to the matching `}` of
/// the first `{`. Good enough for inline `mod tests { … }` and
/// `#[test] fn …` items, which is how the workspace writes tests.
fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text != "#" || tokens.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        // Collect the attribute tokens up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut attr: Vec<&str> = Vec::new();
        while j < tokens.len() && depth > 0 {
            match tokens[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                t => attr.push(t),
            }
            j += 1;
        }
        let is_test_attr = attr.first() == Some(&"test")
            || (attr.first() == Some(&"cfg") && attr.contains(&"test"));
        if !is_test_attr {
            i = j;
            continue;
        }
        let start_line = tokens[i].line;
        // Skip any further attributes on the same item.
        let mut k = j;
        while k < tokens.len()
            && tokens[k].text == "#"
            && tokens.get(k + 1).map(|t| t.text.as_str()) == Some("[")
        {
            let mut depth = 1usize;
            k += 2;
            while k < tokens.len() && depth > 0 {
                match tokens[k].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                k += 1;
            }
        }
        // Find the item extent.
        let mut brace_depth = 0usize;
        let mut end_line = start_line;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "{" => brace_depth += 1,
                "}" => {
                    brace_depth -= 1;
                    if brace_depth == 0 {
                        end_line = tokens[k].line;
                        k += 1;
                        break;
                    }
                }
                ";" if brace_depth == 0 => {
                    end_line = tokens[k].line;
                    k += 1;
                    break;
                }
                _ => {}
            }
            end_line = tokens[k].line;
            k += 1;
        }
        regions.push((start_line, end_line));
        i = k;
    }
    regions
}

fn in_regions(regions: &[(usize, usize)], line: usize) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

/// One parsed source file: the unit both the token rules and the
/// structural rules operate on. Parse once, lint many ways — the
/// workspace walker builds one `SourceFile` per file and hands the whole
/// set to [`lint_sources`] so the call graph can span crate boundaries.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Role derived from the path (see [`classify`]).
    pub kind: FileKind,
    /// Token stream and comments.
    pub lexed: Lexed,
    /// Structural parse tree.
    pub tree: File,
    test_lines: Vec<(usize, usize)>,
    sup: Suppressions,
}

impl SourceFile {
    /// Lexes and parses `src`. Never fails: unparseable regions degrade
    /// to `Other` nodes, and the token rules still see every token.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let tree = parse_file(&lexed);
        let test_lines = test_regions(&lexed.tokens);
        let sup = parse_suppressions(&lexed.comments);
        SourceFile {
            path: path.to_string(),
            kind: classify(path),
            lexed,
            tree,
            test_lines,
            sup,
        }
    }

    /// True when `rule` is suppressed on `line` by a well-formed
    /// `dynalint:allow`.
    pub fn is_allowed(&self, line: usize, rule: RuleId) -> bool {
        self.sup
            .allowed
            .get(&line)
            .is_some_and(|rules| rules.contains(&rule))
    }

    /// True when `line` falls inside a `#[test]` / `#[cfg(test)]` item.
    pub fn in_test_region(&self, line: usize) -> bool {
        in_regions(&self.test_lines, line)
    }
}

/// Nondeterministic two-segment paths (`std::time`, `thread::sleep`, …).
/// `thread::available_parallelism` and `thread::current` are
/// machine/schedule-dependent: worker counts must flow through the
/// documented config entry points (where the allow is explicit) and
/// nothing may branch on thread identity.
const NONDET_PATHS: [(&str, &str); 8] = [
    ("std", "time"),
    ("thread", "sleep"),
    ("thread", "available_parallelism"),
    ("thread", "current"),
    ("env", "var"),
    ("env", "vars"),
    ("env", "var_os"),
    ("env", "args"),
];

/// Nondeterministic bare identifiers. `HashMap` / `HashSet` use a
/// randomized hasher, so their iteration order differs between runs;
/// `ThreadId` values depend on spawn order and recycling.
const NONDET_IDENTS: [&str; 5] = ["Instant", "SystemTime", "HashMap", "HashSet", "ThreadId"];

/// Lints one Rust source file: token rules, structural rules and the
/// single-file slice of D010. `path` must be workspace-relative with `/`
/// separators; it determines which rules apply (see [`classify`]). For
/// cross-file panic-reachability, use [`lint_sources`].
pub fn lint_rust_source(path: &str, src: &str) -> Vec<Finding> {
    let sf = SourceFile::parse(path, src);
    let mut findings = token_findings(&sf);
    findings.extend(structural_findings(&sf));
    findings.extend(crate::callgraph::panic_reachability(std::slice::from_ref(
        &sf,
    )));
    apply_suppressions(findings, &sf.sup, &sf.path)
}

/// Lints a whole set of parsed files, running the call-graph rule D010
/// across all of them so reachability crosses file and crate boundaries.
/// Findings come back sorted by `(file, line, col, rule)`.
pub fn lint_sources(files: &[SourceFile]) -> Vec<Finding> {
    let mut all = Vec::new();
    for sf in files {
        let mut findings = token_findings(sf);
        findings.extend(structural_findings(sf));
        all.extend(apply_suppressions(findings, &sf.sup, &sf.path));
    }
    for f in crate::callgraph::panic_reachability(files) {
        let allowed = files
            .iter()
            .find(|s| s.path == f.file)
            .is_some_and(|s| s.is_allowed(f.line, RuleId::D010));
        if !allowed {
            all.push(f);
        }
    }
    all.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    all
}

/// The token-level rules D001–D007 over one file. Findings are not yet
/// suppression-filtered.
fn token_findings(sf: &SourceFile) -> Vec<Finding> {
    let path = sf.path.as_str();
    let kind = sf.kind;
    let tokens = &sf.lexed.tokens;
    let regions = &sf.test_lines;
    let mut findings = Vec::new();
    let mut push = |rule: RuleId, tok: &Token, message: String| {
        findings.push(Finding {
            rule,
            file: path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
        });
    };

    let panic_free_scope = kind == FileKind::Lib;
    let deterministic_scope = matches!(kind, FileKind::Lib | FileKind::Bin);
    // D007 scope is broader than FileKind: benches and tests under the
    // harness crates classify as Test, so exempt by path prefix, plus the
    // obs clock implementations — the one sanctioned home for wall time.
    let wall_clock_scope = !(path.starts_with("crates/bench/")
        || path.starts_with("crates/testkit/")
        || path == "crates/obs/src/clock.rs");

    for (i, tok) in tokens.iter().enumerate() {
        let prev = i.checked_sub(1).and_then(|p| tokens.get(p));
        let next = tokens.get(i + 1);
        let in_test = in_regions(regions, tok.line);

        // D006: unsafe anywhere, tests included.
        if tok.kind == TokenKind::Ident && tok.text == "unsafe" {
            push(
                RuleId::D006,
                tok,
                "`unsafe` is forbidden workspace-wide".to_string(),
            );
        }

        // D007: direct wall-clock reads anywhere — tests and examples
        // included. `Instant::now()` call sites and any `SystemTime`
        // mention; timing belongs behind `dynawave_obs::Clock`.
        if wall_clock_scope && tok.kind == TokenKind::Ident {
            let instant_now = tok.text == "Instant"
                && next.is_some_and(|n| n.text == "::")
                && tokens.get(i + 2).is_some_and(|t| t.text == "now");
            if instant_now {
                push(
                    RuleId::D007,
                    tok,
                    "`Instant::now()` outside the clock impls; \
                     use a `dynawave_obs::Clock` (e.g. `dynawave_bench::WallClock`)"
                        .to_string(),
                );
            } else if tok.text == "SystemTime" {
                push(
                    RuleId::D007,
                    tok,
                    "`SystemTime` outside the clock impls; \
                     use a `dynawave_obs::Clock` (e.g. `dynawave_bench::WallClock`)"
                        .to_string(),
                );
            }
        }
        if in_test {
            continue;
        }

        // D001: .unwrap() / .expect( in library code.
        if panic_free_scope
            && tok.kind == TokenKind::Ident
            && (tok.text == "unwrap" || tok.text == "expect")
            && prev.is_some_and(|p| p.text == ".")
            && next.is_some_and(|n| n.text == "(")
        {
            push(
                RuleId::D001,
                tok,
                format!(
                    "`.{}()` in library code; return the crate's error type instead",
                    tok.text
                ),
            );
        }

        // D002: panic-family macros in library code.
        if panic_free_scope
            && tok.kind == TokenKind::Ident
            && matches!(tok.text.as_str(), "panic" | "todo" | "unimplemented")
            && next.is_some_and(|n| n.text == "!")
        {
            push(
                RuleId::D002,
                tok,
                format!("`{}!` in library code; return an error instead", tok.text),
            );
        }

        // D003: ==/!= with a float literal on either side.
        if panic_free_scope && tok.kind == TokenKind::Op && (tok.text == "==" || tok.text == "!=") {
            let float_neighbor = prev.is_some_and(|p| p.kind == TokenKind::Float)
                || next.is_some_and(|n| n.kind == TokenKind::Float);
            if float_neighbor {
                push(
                    RuleId::D003,
                    tok,
                    format!(
                        "float `{}` comparison; use an epsilon or `total_cmp`",
                        tok.text
                    ),
                );
            }
        }

        // D004: nondeterminism sources outside the harness crates.
        if deterministic_scope && tok.kind == TokenKind::Ident {
            if NONDET_IDENTS.contains(&tok.text.as_str()) {
                push(
                    RuleId::D004,
                    tok,
                    format!(
                        "`{}` is a nondeterminism source (wall clock / randomized hasher)",
                        tok.text
                    ),
                );
            }
            if next.is_some_and(|n| n.text == "::") {
                if let Some(seg2) = tokens.get(i + 2) {
                    for (a, b) in NONDET_PATHS {
                        if tok.text == a && seg2.text == b {
                            push(
                                RuleId::D004,
                                tok,
                                format!("`{}::{}` is a nondeterminism source", a, b),
                            );
                        }
                    }
                }
            }
        }
    }

    findings
}

/// Drops findings covered by a `dynalint:allow` on their line and appends
/// D000 findings for malformed suppressions.
fn apply_suppressions(findings: Vec<Finding>, sup: &Suppressions, path: &str) -> Vec<Finding> {
    let mut kept: Vec<Finding> = findings
        .into_iter()
        .filter(|f| {
            !sup.allowed
                .get(&f.line)
                .is_some_and(|rules| rules.contains(&f.rule))
        })
        .collect();
    for (line, msg) in &sup.errors {
        kept.push(Finding {
            rule: RuleId::D000,
            file: path.to_string(),
            line: *line,
            col: 1,
            message: msg.clone(),
        });
    }
    kept.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    kept
}

/// The tree-based rules D011–D013 over one file. Findings are not yet
/// suppression-filtered.
fn structural_findings(sf: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    d011_float_determinism(sf, &mut findings);
    d012_concurrency_containment(sf, &mut findings);
    d013_schema_drift(sf, &mut findings);
    findings
}

/// Comparator-taking methods whose closure must not use `partial_cmp`.
const D011_SINKS: [&str; 5] = [
    "sort_by",
    "sort_unstable_by",
    "binary_search_by",
    "max_by",
    "min_by",
];

/// D011: float determinism. Two shapes: a comparator passed to a sort/
/// search/extremum method that calls `partial_cmp` (NaN makes the order
/// partial), and a `sum`/`product`/`fold` chained off unordered
/// HashMap/HashSet iteration (hasher order differs between runs).
fn d011_float_determinism(sf: &SourceFile, findings: &mut Vec<Finding>) {
    if !matches!(sf.kind, FileKind::Lib | FileKind::Bin) {
        return;
    }
    for fr in sf.tree.functions() {
        if sf.in_test_region(fr.func.span.line) {
            continue;
        }
        let Some(body) = &fr.func.body else { continue };
        // Pass 1: which let-bindings are unordered collections?
        let mut unordered: Vec<String> = Vec::new();
        for e in body {
            e.walk(&mut |e| {
                if let Expr::Let {
                    name: Some(n),
                    ty,
                    init,
                    ..
                } = e
                {
                    let ty_unordered = ty.iter().any(|t| t == "HashMap" || t == "HashSet");
                    let init_unordered = init.as_deref().is_some_and(|i| {
                        let mut hit = false;
                        i.walk(&mut |c| {
                            if let Expr::Path { segs, .. } = c {
                                hit |= segs.iter().any(|s| s == "HashMap" || s == "HashSet");
                            }
                        });
                        hit
                    });
                    if ty_unordered || init_unordered {
                        unordered.push(n.clone());
                    }
                }
            });
        }
        // Pass 2: the sinks.
        for e in body {
            e.walk(&mut |e| {
                if let Expr::MethodCall {
                    name, args, span, ..
                } = e
                {
                    if D011_SINKS.contains(&name.as_str()) && args_use_partial_cmp(args) {
                        findings.push(Finding {
                            rule: RuleId::D011,
                            file: sf.path.clone(),
                            line: span.line,
                            col: span.col,
                            message: format!(
                                "`{name}` comparator uses `partial_cmp`; NaN makes the \
                                 order run-dependent — use `total_cmp`"
                            ),
                        });
                    }
                }
                if let Expr::MethodCall {
                    name, recv, span, ..
                } = e
                {
                    if matches!(name.as_str(), "sum" | "product" | "fold")
                        && chain_root_is_unordered(recv, &unordered)
                    {
                        findings.push(Finding {
                            rule: RuleId::D011,
                            file: sf.path.clone(),
                            line: span.line,
                            col: span.col,
                            message: format!(
                                "`{name}` reduces over unordered hash iteration; float \
                                 accumulation order differs between runs — iterate \
                                 sorted keys (or a BTree collection) instead"
                            ),
                        });
                    }
                }
            });
        }
    }
}

/// True when any argument expression mentions `partial_cmp`.
fn args_use_partial_cmp(args: &[Expr]) -> bool {
    let mut hit = false;
    for a in args {
        a.walk(&mut |e| match e {
            Expr::MethodCall { name, .. } if name == "partial_cmp" => hit = true,
            Expr::Path { segs, .. } if segs.iter().any(|s| s == "partial_cmp") => hit = true,
            _ => {}
        });
    }
    hit
}

/// Descends a receiver chain; true when it passes through an iteration
/// adaptor (`values`/`keys`/`iter`/...) and bottoms out at a binding
/// known to be a HashMap/HashSet.
fn chain_root_is_unordered(recv: &Expr, unordered: &[String]) -> bool {
    let mut cur = recv;
    let mut saw_iter = false;
    loop {
        match cur {
            Expr::MethodCall { recv, name, .. } => {
                if matches!(
                    name.as_str(),
                    "values" | "keys" | "iter" | "into_iter" | "drain" | "values_mut" | "map"
                ) {
                    saw_iter |= name != "map";
                }
                cur = recv;
            }
            Expr::Field { recv, .. } => cur = recv,
            Expr::Unary { expr, .. } => cur = expr,
            Expr::Path { segs, .. } => {
                return saw_iter
                    && segs
                        .first()
                        .is_some_and(|s| unordered.iter().any(|u| u == s));
            }
            _ => return false,
        }
    }
}

/// The one module allowed to hold threads, locks and shared mutable
/// state. Everything else is single-threaded by policy so campaign
/// results merge deterministically.
const D012_APPROVED: [&str; 1] = ["crates/core/src/campaign.rs"];

/// Sync-primitive type names that signal shared-state concurrency.
const D012_SYNC_SEGS: [&str; 7] = [
    "Mutex", "RwLock", "Condvar", "Barrier", "mpsc", "OnceLock", "LazyLock",
];

fn is_conc_seg(seg: &str) -> bool {
    D012_SYNC_SEGS.contains(&seg) || seg.starts_with("Atomic")
}

/// True for paths that reach into `std::thread`'s spawning surface.
/// `thread::available_parallelism` / `thread::current` are deliberately
/// not here — they are D004's (determinism) business, not containment's.
fn is_thread_spawn_path(segs: &[String]) -> bool {
    segs.iter().any(|s| s == "thread")
        && (segs.iter().any(|s| s == "Builder")
            || segs
                .last()
                .is_some_and(|s| matches!(s.as_str(), "spawn" | "scope" | "park")))
}

/// D012: concurrency containment. Thread spawns, sync primitives,
/// atomics, channels and `static mut` may appear only in the campaign
/// executor; anywhere else they undermine the workspace's deterministic
/// single-threaded execution model.
fn d012_concurrency_containment(sf: &SourceFile, findings: &mut Vec<Finding>) {
    if sf.kind == FileKind::Test || D012_APPROVED.contains(&sf.path.as_str()) {
        return;
    }
    let mut push = |line: usize, col: usize, what: String| {
        if !in_regions(&sf.test_lines, line) {
            findings.push(Finding {
                rule: RuleId::D012,
                file: sf.path.clone(),
                line,
                col,
                message: format!(
                    "{what} outside the concurrency-containment module (campaign \
                     executor)"
                ),
            });
        }
    };
    // Items: `use` paths and `static mut`.
    walk_items(&sf.tree.items, &mut |item: &Item| match &item.kind {
        ItemKind::Use(u) => {
            for path in &u.paths {
                if path.iter().any(|s| is_conc_seg(s)) || path.iter().any(|s| s == "thread") {
                    push(
                        item.span.line,
                        item.span.col,
                        format!("`use {}`", path.join("::")),
                    );
                }
            }
        }
        ItemKind::StaticMut { name } => {
            push(
                item.span.line,
                item.span.col,
                format!("`static mut {name}` (shared mutable state)"),
            );
        }
        _ => {}
    });
    // Expressions: qualified paths and `.spawn(...)` method calls.
    sf.tree.walk_exprs(&mut |e| match e {
        Expr::Path { segs, span } => {
            if segs.iter().any(|s| is_conc_seg(s)) {
                push(span.line, span.col, format!("`{}`", segs.join("::")));
            } else if is_thread_spawn_path(segs) {
                push(span.line, span.col, format!("`{}`", segs.join("::")));
            }
        }
        Expr::MethodCall { name, span, .. } if name == "spawn" => {
            push(span.line, span.col, "`.spawn(...)`".to_string());
        }
        _ => {}
    });
}

/// Recursive item walk (through impls and inline modules).
fn walk_items(items: &[Item], f: &mut impl FnMut(&Item)) {
    for item in items {
        f(item);
        match &item.kind {
            ItemKind::Impl(imp) => walk_items(&imp.items, f),
            ItemKind::Mod(m) => walk_items(&m.items, f),
            _ => {}
        }
    }
}

/// Obs emitter fns whose first argument is an instrument name that must
/// carry a canonical `<stage>.` prefix.
const D013_EMITTERS: [&str; 7] = [
    "span",
    "counter_add",
    "gauge_set",
    "histogram_observe",
    "marker",
    "marker_with_detail",
    "marker_latency",
];

/// D013: schema-literal drift. Checks string literals against the
/// canonical vocabulary exported by `dynawave_obs::schema`: whole-literal
/// schema tags, `"schema":"..."` values embedded in JSON templates, bench
/// units passed to `bench_json_line_with_unit`, and instrument-name
/// arguments of the obs emitters.
fn d013_schema_drift(sf: &SourceFile, findings: &mut Vec<Finding>) {
    if sf.kind == FileKind::Test {
        return;
    }
    let mut push = |line: usize, col: usize, message: String| {
        findings.push(Finding {
            rule: RuleId::D013,
            file: sf.path.clone(),
            line,
            col,
            message,
        });
    };
    // Token scan: literals anywhere (consts included — the tree does not
    // model const initializers).
    for tok in &sf.lexed.tokens {
        if tok.kind != TokenKind::Str || in_regions(&sf.test_lines, tok.line) {
            continue;
        }
        let Some(content) = str_content(&tok.text) else {
            continue;
        };
        if looks_like_schema_tag(content) && !dynawave_obs::schema::SCHEMA_TAGS.contains(&content) {
            push(
                tok.line,
                tok.col,
                format!(
                    "string literal {content:?} looks like a schema tag but is not in \
                     `dynawave_obs::schema::SCHEMA_TAGS`"
                ),
            );
        }
        if let Some(value) = embedded_schema_value(content) {
            if !value.contains('{') && !dynawave_obs::schema::SCHEMA_TAGS.contains(&value) {
                push(
                    tok.line,
                    tok.col,
                    format!(
                        "embedded schema tag {value:?} is not in \
                         `dynawave_obs::schema::SCHEMA_TAGS`"
                    ),
                );
            }
            // Serve-protocol templates: the embedded `"kind"` value must
            // come from the canonical request/response vocabulary.
            if value == dynawave_obs::schema::SERVE_SCHEMA {
                if let Some(kind) = embedded_kind_value(content) {
                    if !kind.contains('{') && !dynawave_obs::schema::is_serve_kind(kind) {
                        push(
                            tok.line,
                            tok.col,
                            format!(
                                "embedded serve kind {kind:?} is not a canonical \
                                 `dynawave-serve` request/response kind (see \
                                 `dynawave_obs::schema::SERVE_REQUEST_KINDS` / \
                                 `SERVE_RESPONSE_KINDS`)"
                            ),
                        );
                    }
                }
            }
        }
    }
    // Tree scan: argument positions of the schema-speaking call surface.
    sf.tree.walk_exprs(&mut |e| {
        let (name, args, span) = match e {
            Expr::Call { callee, args, span } => match callee.as_ref() {
                Expr::Path { segs, .. } => match segs.last() {
                    Some(n) => (n.as_str(), args, span),
                    None => return,
                },
                _ => return,
            },
            Expr::MethodCall {
                name, args, span, ..
            } => (name.as_str(), args, span),
            _ => return,
        };
        if in_regions(&sf.test_lines, span.line) {
            return;
        }
        if name == "bench_json_line_with_unit" {
            if let Some(unit) = lit_str_arg(args, 1) {
                if !dynawave_obs::schema::BENCH_UNITS.contains(&unit) {
                    push(
                        span.line,
                        span.col,
                        format!(
                            "bench unit {unit:?} is not in `dynawave_obs::schema::BENCH_UNITS`"
                        ),
                    );
                }
            }
        }
        if D013_EMITTERS.contains(&name) {
            let mut check = |idx: usize| {
                if let Some(instr) = lit_str_arg(args, idx) {
                    if !dynawave_obs::schema::has_canonical_stage(instr) {
                        push(
                            span.line,
                            span.col,
                            format!(
                                "instrument name {instr:?} has no canonical `<stage>.` \
                                 prefix (see `dynawave_obs::schema::STAGES`)"
                            ),
                        );
                    } else if instr.starts_with("serve.")
                        && !dynawave_obs::schema::is_serve_metric(instr)
                    {
                        // The serve stage's instruments are a closed
                        // vocabulary: the stats snapshot, the validator
                        // and the SLO analyzer all key off these exact
                        // names, so an uncatalogued one is drift.
                        push(
                            span.line,
                            span.col,
                            format!(
                                "serve instrument {instr:?} is not in \
                                 `dynawave_obs::schema::SERVE_METRICS`"
                            ),
                        );
                    }
                }
            };
            check(0);
            if name == "marker_latency" {
                // The histogram name (arg 2) is an instrument too.
                check(2);
            }
        }
    });
}

/// The `idx`-th argument when it is a plain string literal.
fn lit_str_arg(args: &[Expr], idx: usize) -> Option<&str> {
    match args.get(idx) {
        Some(Expr::Lit {
            kind: TokenKind::Str,
            text,
            ..
        }) => str_content(text),
        _ => None,
    }
}

/// The inner text of a string-literal token (`"x"` / `r"x"` / `r#"x"#`),
/// or `None` for anything unquotable.
fn str_content(text: &str) -> Option<&str> {
    let stripped = text.strip_prefix('r').unwrap_or(text);
    let stripped = stripped.trim_matches('#');
    stripped.strip_prefix('"')?.strip_suffix('"')
}

/// True for literals shaped like a dynawave schema tag:
/// `dynawave-<word>` with an optional ` v<digits>` suffix, where `<word>`
/// is non-empty `[a-z0-9_-]+`.
fn looks_like_schema_tag(s: &str) -> bool {
    let Some(rest) = s.strip_prefix("dynawave-") else {
        return false;
    };
    let (base, version) = match rest.split_once(" v") {
        Some((b, v)) => (b, Some(v)),
        None => (rest, None),
    };
    if base.is_empty()
        || !base
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
    {
        return false;
    }
    match version {
        Some(v) => !v.is_empty() && v.chars().all(|c| c.is_ascii_digit()),
        None => true,
    }
}

/// Extracts the value of a `"schema":"<value>"` pair embedded in a JSON
/// template literal (handles both raw and `\"`-escaped quoting).
fn embedded_schema_value(content: &str) -> Option<&str> {
    embedded_json_value(content, &["schema\\\":\\\"", "schema\":\""])
}

/// The `"kind":"<value>"` payload embedded in a JSON template literal.
fn embedded_kind_value(content: &str) -> Option<&str> {
    embedded_json_value(content, &["kind\\\":\\\"", "kind\":\""])
}

fn embedded_json_value<'a>(content: &'a str, markers: &[&str]) -> Option<&'a str> {
    for marker in markers {
        if let Some(at) = content.find(marker) {
            let rest = &content[at + marker.len()..];
            let end = rest.find("\\\"").or_else(|| rest.find('"'))?;
            return rest.get(..end);
        }
    }
    None
}

/// Lints a `Cargo.toml`. Every entry in a dependency section must be a
/// `path` dependency (hermetic workspace policy); `workspace = true` is
/// accepted because `[workspace.dependencies]` itself is checked.
pub fn lint_manifest(path: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut in_dep_section = false;
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.starts_with('[') {
            let section = line.trim_matches(|c| c == '[' || c == ']');
            in_dep_section = section == "dependencies"
                || section == "dev-dependencies"
                || section == "build-dependencies"
                || section == "workspace.dependencies"
                || (section.starts_with("target.") && section.ends_with("dependencies"));
            continue;
        }
        if !in_dep_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        let hermetic =
            value.contains("path") && value.contains('=') || value.contains("workspace = true");
        if !hermetic {
            findings.push(Finding {
                rule: RuleId::D005,
                file: path.to_string(),
                line: line_no,
                col: raw.len() - raw.trim_start().len() + 1,
                message: format!(
                    "dependency `{key}` is not a path dependency; the workspace is hermetic"
                ),
            });
        }
        if value.contains("git") && value.contains('=') && value.contains("//") {
            findings.push(Finding {
                rule: RuleId::D005,
                file: path.to_string(),
                line: line_no,
                col: 1,
                message: format!("dependency `{key}` pulls from git; the workspace is hermetic"),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/demo/src/lib.rs";

    fn rules_fired(path: &str, src: &str) -> Vec<RuleId> {
        lint_rust_source(path, src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn d001_fires_in_lib_only() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(rules_fired(LIB, src), [RuleId::D001]);
        assert!(rules_fired("crates/demo/src/bin/tool.rs", src).is_empty());
        assert!(rules_fired("crates/demo/tests/it.rs", src).is_empty());
        assert!(rules_fired("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn d001_skips_cfg_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f(x: Option<u8>) { x.unwrap(); }\n}";
        assert!(rules_fired(LIB, src).is_empty());
    }

    #[test]
    fn d002_fires_on_panic_family() {
        assert_eq!(
            rules_fired(LIB, "fn f() { panic!(\"boom\") }"),
            [RuleId::D002]
        );
        assert_eq!(rules_fired(LIB, "fn f() { todo!() }"), [RuleId::D002]);
        // assert! is allowed: documented contract checks are fine.
        assert!(rules_fired(LIB, "fn f(x: u8) { assert!(x > 0); }").is_empty());
    }

    #[test]
    fn d003_fires_on_float_literal_compare() {
        assert_eq!(
            rules_fired(LIB, "fn f(x: f64) -> bool { x == 0.0 }"),
            [RuleId::D003]
        );
        assert_eq!(
            rules_fired(LIB, "fn f(x: f64) -> bool { 1e-3 != x }"),
            [RuleId::D003]
        );
        assert!(rules_fired(LIB, "fn f(x: u8) -> bool { x == 0 }").is_empty());
    }

    #[test]
    fn d004_fires_on_nondeterminism() {
        assert_eq!(
            rules_fired(LIB, "use std::time::Instant;"),
            [RuleId::D004, RuleId::D004] // std::time and Instant
        );
        assert_eq!(
            rules_fired(LIB, "fn f() { let m = HashMap::new(); m.len(); }"),
            [RuleId::D004]
        );
        assert!(rules_fired("crates/testkit/src/lib.rs", "use std::time::Instant;").is_empty());
    }

    #[test]
    fn d006_fires_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f() { unsafe { } }\n}";
        assert_eq!(rules_fired(LIB, src), [RuleId::D006]);
    }

    #[test]
    fn d007_fires_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f() { let _ = Instant::now(); }\n}";
        assert_eq!(rules_fired(LIB, src), [RuleId::D007]);
        // A test file path is no shelter either.
        assert_eq!(
            rules_fired(
                "crates/demo/tests/it.rs",
                "fn f() -> SystemTime { SystemTime::now() }"
            ),
            [RuleId::D007, RuleId::D007]
        );
    }

    #[test]
    fn d007_exempts_clock_homes_and_bare_instant() {
        let src = "fn f() { let _ = Instant::now(); }";
        assert!(rules_fired("crates/bench/benches/microbench.rs", src).is_empty());
        assert!(rules_fired("crates/testkit/src/lib.rs", src).is_empty());
        assert!(rules_fired("crates/obs/src/clock.rs", src)
            .iter()
            .all(|&r| r != RuleId::D007));
        // `Instant` without `::now` is D004's business, not D007's.
        assert_eq!(
            rules_fired(LIB, "fn f(t: Instant) -> Instant { t }"),
            [RuleId::D004, RuleId::D004]
        );
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // dynalint:allow(D001) -- demo";
        assert!(rules_fired(LIB, src).is_empty());
    }

    #[test]
    fn suppression_on_own_line_covers_next_line() {
        let src = "// dynalint:allow(D001) -- demo\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(rules_fired(LIB, src).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_d000() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // dynalint:allow(D001)";
        let fired = rules_fired(LIB, src);
        assert!(fired.contains(&RuleId::D000));
        assert!(fired.contains(&RuleId::D001));
    }

    #[test]
    fn rules_never_fire_in_strings_or_comments() {
        let src = "pub fn f() -> &'static str { \"x.unwrap() panic! unsafe\" } // .unwrap()";
        assert!(rules_fired(LIB, src).is_empty());
    }

    #[test]
    fn d011_partial_cmp_comparator_fires() {
        let src = "pub fn order(v: &mut Vec<f64>) {\n\
                   v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));\n\
                   }";
        let fired = rules_fired(LIB, src);
        assert!(fired.contains(&RuleId::D011), "{fired:?}");
        let clean = "pub fn order(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }";
        assert!(!rules_fired(LIB, clean).contains(&RuleId::D011));
    }

    #[test]
    fn d011_unordered_reduction_fires() {
        let src = "fn total(n: usize) -> f64 {\n\
                   let m: HashMap<u32, f64> = HashMap::new(); // dynalint:allow(D004) -- demo\n\
                   m.values().sum()\n\
                   }";
        assert!(rules_fired(LIB, src).contains(&RuleId::D011));
        let btree = "fn total(n: usize) -> f64 {\n\
                     let m: BTreeMap<u32, f64> = BTreeMap::new();\n\
                     m.values().sum()\n\
                     }";
        assert!(rules_fired(LIB, btree).is_empty());
    }

    #[test]
    fn d012_thread_and_sync_fire_outside_containment() {
        let spawn = "fn go() { std::thread::spawn(|| {}); }";
        assert!(rules_fired(LIB, spawn).contains(&RuleId::D012));
        let mutex = "use std::sync::Mutex;\nfn go(m: &Mutex<u8>) { let _ = Mutex::new(0u8); }";
        let fired = rules_fired(LIB, mutex);
        assert!(fired.contains(&RuleId::D012), "{fired:?}");
        let smut = "static mut COUNTER: u64 = 0;";
        assert!(rules_fired(LIB, smut).contains(&RuleId::D012));
    }

    #[test]
    fn d012_containment_modules_and_d004_probes_are_exempt() {
        let spawn = "fn go() { std::thread::spawn(|| {}); }";
        assert!(rules_fired("crates/core/src/campaign.rs", spawn).is_empty());
        // The campaign executor is the only containment module.
        for outside in ["crates/testkit/src/stress.rs", "crates/obs/src/lib.rs"] {
            assert!(
                rules_fired(outside, spawn).contains(&RuleId::D012),
                "{outside}"
            );
        }
        // Capacity probes are D004's business, not containment's.
        let probe = "fn go() { let _ = std::thread::available_parallelism(); }";
        assert!(!rules_fired("crates/bench/src/bin/par.rs", probe).contains(&RuleId::D012));
    }

    #[test]
    fn d013_schema_tag_drift_fires() {
        let bad = "const MAGIC: &str = \"dynawave-campain v1\";";
        assert!(rules_fired(LIB, bad).contains(&RuleId::D013));
        let good = "const MAGIC: &str = \"dynawave-campaign v1\";";
        assert!(rules_fired(LIB, good).is_empty());
        // Not tag-shaped at all: no finding.
        let prose = "const MSG: &str = \"dynawave-lint: clean\";";
        assert!(rules_fired(LIB, prose).is_empty());
    }

    #[test]
    fn d013_embedded_tag_and_unit_fire() {
        let embedded = r#"fn line() -> &'static str { "{\"schema\":\"dynawave-os\",\"v\":1}" }"#;
        assert!(rules_fired(LIB, embedded).contains(&RuleId::D013));
        let unit = "fn go() { let _ = bench_json_line_with_unit(\"b\", \"furlongs\", \
                    1.0, 1.0, 1.0, 1, 1); }";
        assert!(rules_fired(LIB, unit).contains(&RuleId::D013));
    }

    #[test]
    fn d013_instrument_stage_prefix_checked() {
        let bad = "fn go() { let _s = dynawave_obs::span(\"simulator.run\"); }";
        assert!(rules_fired(LIB, bad).contains(&RuleId::D013));
        let good = "fn go() { let _s = dynawave_obs::span(\"sim.run_trace\"); }";
        assert!(rules_fired(LIB, good).is_empty());
        // Non-literal names are out of D013's reach by design.
        let dynamic = "fn go(n: &str) { let _s = dynawave_obs::span(n); }";
        assert!(rules_fired(LIB, dynamic).is_empty());
    }

    #[test]
    fn lint_sources_links_reachability_across_files() {
        let api = SourceFile::parse(
            "crates/a/src/lib.rs",
            "pub fn api(v: &[f64]) -> f64 { helper(v) }",
        );
        let helper = SourceFile::parse(
            "crates/b/src/lib.rs",
            "pub fn helper(v: &[f64]) -> f64 { *v.first().unwrap() }",
        );
        let findings = lint_sources(&[api, helper]);
        let rules: Vec<RuleId> = findings.iter().map(|f| f.rule).collect();
        // helper's own unwrap is D001; api reaching it across crates is D010.
        assert!(rules.contains(&RuleId::D001), "{findings:?}");
        assert!(rules.contains(&RuleId::D010), "{findings:?}");
    }

    #[test]
    fn explain_covers_every_rule() {
        for rule in RuleId::ALL {
            assert!(!rule.summary().is_empty());
            assert!(!rule.rationale().is_empty());
            assert!(!rule.fix_pattern().is_empty());
        }
    }

    #[test]
    fn manifest_path_deps_are_clean() {
        let src = "[dependencies]\nfoo = { path = \"../foo\" }\nbar = { workspace = true }\n";
        assert!(lint_manifest("crates/demo/Cargo.toml", src).is_empty());
    }

    #[test]
    fn manifest_registry_dep_fires() {
        let src = "[dependencies]\nserde = \"1.0\"\n";
        let f = lint_manifest("crates/demo/Cargo.toml", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::D005);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn manifest_non_dep_sections_ignored() {
        let src = "[package]\nname = \"demo\"\nversion = \"0.1.0\"\n\n[[test]]\npath = \"t.rs\"\n";
        assert!(lint_manifest("crates/demo/Cargo.toml", src).is_empty());
    }
}
