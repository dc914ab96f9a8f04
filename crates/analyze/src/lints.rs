//! The lint catalog and the per-file scan.
//!
//! | ID   | Invariant |
//! |------|-----------|
//! | D001 | No wall-clock reads (`Instant`, `SystemTime`, `UNIX_EPOCH`) outside `crates/bench` — experiment outputs must be a pure function of the source tree. |
//! | D002 | No `HashMap`/`HashSet` in non-test code — hash iteration order leaks into reports; use `BTreeMap`/`BTreeSet` or sort before emission. |
//! | D003 | No RNG construction outside `rkvc_tensor::det`/`rng`: no external RNG crates anywhere, and no `SeededRng::new`/`splitmix64` in non-test code outside `crates/tensor/src` (call `rkvc_tensor::seeded_rng`). |
//! | D004 | No ad-hoc threading outside `crates/tensor/src/par.rs` and `#[cfg(test)]` regions — neither `std::thread`/`thread::spawn`/`scope`/`Builder` expressions nor `use std::thread…` imports (any tree shape, aliased or not) — all concurrency goes through the deterministic `rkvc_tensor::par` pool so results stay bit-identical at any `RKVC_THREADS`. |
//! | D005 | No non-`SeqCst` atomic orderings (`Relaxed`, `Acquire`, `Release`, `AcqRel`) outside the deterministic-concurrency boundary (`crates/tensor/src/par.rs`, `crates/tensor/src/check.rs`) — relaxed memory games stay inside the audited pool. |
//! | D006 | No order-dependent float accumulation (`sum::<f32>()`, `sum::<f64>()`, `fold` with a float seed) in non-test code outside the sequential-kernel allowlist (`crates/tensor/src/ops.rs`, `crates/tensor/src/matrix.rs`) and `crates/bench` — route reductions through `rkvc_tensor::par::par_reduce`'s fixed tree or the audited `seq_sum_*` helpers, or justify the fixed sequential order. |
//! | E001 | No `unwrap()`/`expect()`/`panic!` in non-test library code of `rkvc-tensor`, `rkvc-kvcache`, `rkvc-serving`, `rkvc-gpu` and `rkvc-model` — the kernels and JSON layer, the serving stack, the cost model it calls and the decoder that generates through the caches must degrade via `Result`, not abort. |
//! | U001 | `unsafe` regions (blocks, fns, impls, traits) only in the audited allowlist (`crates/tensor/src/par.rs`, and `crates/tensor/src/gemm.rs` for its one CPU-feature-guarded call into the AVX2 kernel instantiation), and each one must carry an adjacent `// rkvc-safety: reason` justification; the full audit inventory is emitted into `results/analyze.json`. |
//! | U002 | No `static mut`, no `transmute`/`transmute_copy`, no raw-pointer casts (`as *const` / `as *mut`) outside the unsafe allowlist. |
//! | C001 | No dead `pub` exports: a module-level `pub` item never referenced outside its defining crate (per the workspace use-graph, doc examples included) must be demoted, removed, or justified. Cross-file — reported by [`crate::usegraph`], not the per-file scan. |
//! | H001 | Every manifest dependency resolves inside the workspace (see [`crate::hermetic`]). |
//! | A001 | An `rkvc-allow` suppression must name a known lint and carry a reason; a malformed one is itself a violation and suppresses nothing. |
//!
//! A violation is suppressed by `// rkvc-allow(LINT_ID): reason` on the
//! same line, or on a standalone comment line above: a standalone
//! directive covers the next line that is not itself a pure comment
//! line, so stacked directives and explanatory comments chain through
//! to the code they annotate.
//!
//! `unsafe` justifications use a parallel convention:
//! `// rkvc-safety: reason` trailing the `unsafe` keyword's line or in
//! the contiguous comment block directly above it.

use crate::lexer::{lex, test_mask, Tok};
use crate::parse::{self, ParsedFile};
use std::collections::BTreeSet;

/// All catalog lint ids, in report order.
pub(crate) const LINT_IDS: [&str; 12] = [
    "D001", "D002", "D003", "D004", "D005", "D006", "E001", "U001", "U002", "C001", "H001",
    "A001",
];

/// The only files allowed to contain `unsafe` regions (U001) — each one
/// still requires an adjacent `rkvc-safety` justification — and the
/// U002 escape-hatch constructs.
pub(crate) const UNSAFE_ALLOWLIST: [&str; 2] =
    ["crates/tensor/src/par.rs", "crates/tensor/src/gemm.rs"];

/// The deterministic-concurrency boundary: the only files allowed to use
/// non-`SeqCst` atomic orderings (D005).
pub(crate) const ATOMIC_ALLOWLIST: [&str; 2] =
    ["crates/tensor/src/par.rs", "crates/tensor/src/check.rs"];

/// Sequential kernels whose left-to-right float accumulation order *is*
/// the reference semantics (D006 allowlist): the `par_*` kernels must
/// reproduce these bit-for-bit, so their sequential order is load-bearing
/// and audited here rather than suppressed site by site.
pub(crate) const FLOAT_SEQ_ALLOWLIST: [&str; 2] =
    ["crates/tensor/src/ops.rs", "crates/tensor/src/matrix.rs"];

/// One reported finding.
#[derive(Debug, Clone, PartialEq, Eq)]
// rkvc-allow(C001): element type of scan_source/dead_exports results; consumers read findings via field access
pub struct Violation {
    /// Lint id (`D001`, …).
    pub lint: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What was found.
    pub message: String,
    /// The trimmed source line.
    pub excerpt: String,
    /// Whether a valid `rkvc-allow` covers it.
    pub suppressed: bool,
    /// The suppression's reason, when suppressed.
    pub reason: Option<String>,
}

impl Violation {
    /// `file:line: [lint] message` — the human diagnostic header.
    pub fn header(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

/// A parsed `rkvc-allow(ID): reason` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
// rkvc-allow(C001): field type of FileAnalysis::suppressions; consumers read directives via field access
pub struct Suppression {
    /// The lint it targets.
    pub lint: String,
    /// The justification after the colon.
    pub reason: String,
    /// Line the comment sits on.
    pub line: u32,
    /// Line it covers: its own line for a trailing directive; for a
    /// standalone directive, the next line that is not purely comments
    /// (so stacked directives chain through to the code below).
    pub covers: u32,
}

/// One `unsafe` region in the audit inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
// rkvc-allow(C001): field type of FileAnalysis::unsafe_audit; consumers read audit rows via field access
pub struct UnsafeAudit {
    /// Region kind label (`block`, `fn`, `impl`, `trait`, `extern`).
    pub kind: &'static str,
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// The adjacent `rkvc-safety` justification, when present.
    pub justification: Option<String>,
    /// Whether the region sits in test-only code.
    pub in_test: bool,
}

/// Everything the per-file scan recovers: diagnostics plus the facts the
/// cross-file passes (use-graph, metrics, inventories) aggregate.
#[derive(Debug, Clone)]
// rkvc-allow(C001): return type of analyze_source; consumers bind analyses without naming the type
pub struct FileAnalysis {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Source lines in the file.
    pub loc: u32,
    /// Per-file findings (everything except cross-file C001).
    pub violations: Vec<Violation>,
    /// Valid `rkvc-allow` directives declared in the file.
    pub suppressions: Vec<Suppression>,
    /// Item-level parse (symbol table rows, use declarations).
    pub parsed: ParsedFile,
    /// Every identifier occurring in code (the use-graph edge set).
    pub idents: BTreeSet<String>,
    /// Identifier-shaped words in doc comments — doc examples compile as
    /// external consumers, so they keep exports alive.
    pub doc_idents: BTreeSet<String>,
    /// The `unsafe` audit inventory for this file.
    pub unsafe_audit: Vec<UnsafeAudit>,
}

/// Outcome of parsing one line comment for a suppression.
enum AllowParse {
    /// No `rkvc-allow` marker present.
    None,
    /// Well-formed suppression.
    Ok { lint: String, reason: String },
    /// Marker present but malformed (A001), with a description.
    Bad(String),
}

/// Parses `rkvc-allow(LINT_ID): reason` out of a line comment's text.
///
/// The directive must *lead* the comment (`// rkvc-allow(...)`), so prose
/// and doc examples that merely mention the syntax never parse as
/// suppressions.
fn parse_allow(text: &str) -> AllowParse {
    let lead = text.trim_start();
    if !lead.starts_with("rkvc-allow") {
        return AllowParse::None;
    }
    let rest = &lead["rkvc-allow".len()..];
    let Some(rest) = rest.strip_prefix('(') else {
        return AllowParse::Bad("missing '(LINT_ID)' after rkvc-allow".to_owned());
    };
    let Some(close) = rest.find(')') else {
        return AllowParse::Bad("unclosed '(' in rkvc-allow".to_owned());
    };
    let lint = rest[..close].trim().to_owned();
    if !LINT_IDS.contains(&lint.as_str()) {
        return AllowParse::Bad(format!("unknown lint id '{lint}' in rkvc-allow"));
    }
    let tail = &rest[close + 1..];
    let Some(reason) = tail.trim_start().strip_prefix(':') else {
        return AllowParse::Bad("missing ': reason' after rkvc-allow(ID)".to_owned());
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return AllowParse::Bad("empty reason in rkvc-allow — every suppression must say why".to_owned());
    }
    AllowParse::Ok {
        lint,
        reason: reason.to_owned(),
    }
}

/// Parses `rkvc-safety: reason` out of a line comment's text. Like
/// `rkvc-allow`, the marker must lead the comment.
fn parse_safety(text: &str) -> Option<String> {
    let lead = text.trim_start();
    let rest = lead.strip_prefix("rkvc-safety")?;
    let reason = rest.trim_start().strip_prefix(':')?.trim();
    if reason.is_empty() {
        None
    } else {
        Some(reason.to_owned())
    }
}

/// Which lint scopes a file falls into, derived from its workspace path.
#[derive(Debug, Clone, Copy)]
struct FileScope {
    /// `crates/bench/**` — the only place wall-clock reads are allowed.
    bench: bool,
    /// `crates/tensor/src/**`, `crates/kvcache/src/**`,
    /// `crates/serving/src/**`, `crates/gpu/src/**` or
    /// `crates/model/src/**` — E001 applies.
    panic_free: bool,
    /// `crates/tensor/src/**` — home of the RNG substrate (D003 exempt).
    tensor: bool,
    /// `crates/tensor/src/par.rs` — the one module allowed to touch
    /// `std::thread` (D004 exempt).
    par_home: bool,
    /// On the U001/U002 unsafe allowlist.
    unsafe_home: bool,
    /// On the D005 relaxed-atomics allowlist.
    atomics_home: bool,
    /// On the D006 sequential-float-kernel allowlist.
    seq_kernel: bool,
    /// Workspace `tests/**` — entirely test code.
    test_file: bool,
}

fn scope_of(path: &str) -> FileScope {
    FileScope {
        bench: path.starts_with("crates/bench/"),
        panic_free: path.starts_with("crates/tensor/src/")
            || path.starts_with("crates/kvcache/src/")
            || path.starts_with("crates/serving/src/")
            || path.starts_with("crates/gpu/src/")
            || path.starts_with("crates/model/src/"),
        tensor: path.starts_with("crates/tensor/src/"),
        par_home: path == "crates/tensor/src/par.rs",
        unsafe_home: UNSAFE_ALLOWLIST.contains(&path),
        atomics_home: ATOMIC_ALLOWLIST.contains(&path),
        seq_kernel: FLOAT_SEQ_ALLOWLIST.contains(&path),
        test_file: path.starts_with("tests/"),
    }
}

/// The workspace crate a scanned path belongs to, for per-crate metrics
/// and the cross-crate use-graph: `crates/<name>/…` → `<name>`, the root
/// facade `src/**` → `facade`, workspace `tests/**` and `examples/**`
/// are their own consumer pseudo-crates.
pub fn crate_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return name.to_owned();
        }
    }
    if path.starts_with("src/") || path == "src" {
        return "facade".to_owned();
    }
    if path.starts_with("tests/") {
        return "tests".to_owned();
    }
    if path.starts_with("examples/") {
        return "examples".to_owned();
    }
    "workspace".to_owned()
}

/// External RNG entry points that bypass the deterministic substrate.
const RNG_BYPASS_IDENTS: [&str; 8] = [
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "StdRng",
    "SmallRng",
    "from_entropy",
    "getrandom",
    "RandomState",
];

/// Wall-clock identifiers.
const CLOCK_IDENTS: [&str; 3] = ["Instant", "SystemTime", "UNIX_EPOCH"];

/// Non-`SeqCst` memory orderings (D005).
const RELAXED_ORDERINGS: [&str; 4] = ["Relaxed", "Acquire", "Release", "AcqRel"];

/// Whether a numeric literal's raw text has float shape (`0.5`, `1f32`,
/// `2.0f64`), for the D006 `fold`-seed check.
fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
        return false;
    }
    text.contains('.') || text.ends_with("f32") || text.ends_with("f64")
}

/// Identifier-shaped words in a doc comment's text.
fn doc_words(text: &str, out: &mut BTreeSet<String>) {
    for word in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
        if word
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        {
            out.insert(word.to_owned());
        }
    }
}

/// Scans one Rust source file. `path` must be workspace-relative with `/`
/// separators; `src` is the file contents. Returns only the violations;
/// [`analyze_source`] exposes the full per-file facts.
pub fn scan_source(path: &str, src: &str) -> Vec<Violation> {
    analyze_source(path, src).violations
}

/// The full per-file analysis: violations, suppressions, symbol-table
/// rows, the use-graph edge set, and the unsafe audit inventory.
pub fn analyze_source(path: &str, src: &str) -> FileAnalysis {
    let lines: Vec<&str> = src.lines().collect();
    let loc = lines.len() as u32;
    let excerpt = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_owned())
            .unwrap_or_default()
    };
    let scope = scope_of(path);
    let mut analysis = FileAnalysis {
        path: path.to_owned(),
        loc,
        violations: Vec::new(),
        suppressions: Vec::new(),
        parsed: ParsedFile::default(),
        idents: BTreeSet::new(),
        doc_idents: BTreeSet::new(),
        unsafe_audit: Vec::new(),
    };

    let tokens = match lex(src) {
        Ok(t) => t,
        Err(e) => {
            analysis.violations.push(Violation {
                lint: "A001",
                file: path.to_owned(),
                line: e.line,
                message: format!("file does not lex: {e}"),
                excerpt: excerpt(e.line),
                suppressed: false,
                reason: None,
            });
            return analysis;
        }
    };
    let in_test = test_mask(&tokens);
    analysis.parsed = parse::parse(&tokens, &in_test);
    let in_use = analysis.parsed.use_mask(tokens.len());

    // Line classification: a "comment line" carries tokens but only line
    // comments — suppressions chain past these, and `rkvc-safety`
    // justification blocks are delimited by them.
    let mut comment_lines: BTreeSet<u32> = BTreeSet::new();
    let mut code_lines: BTreeSet<u32> = BTreeSet::new();
    let mut safety_by_line: Vec<(u32, String)> = Vec::new();
    for t in &tokens {
        match &t.tok {
            Tok::LineComment(text) => {
                comment_lines.insert(t.line);
                if let Some(reason) = parse_safety(text) {
                    safety_by_line.push((t.line, reason));
                }
                if text.starts_with('/') || text.starts_with('!') {
                    doc_words(text, &mut analysis.doc_idents);
                }
            }
            Tok::Ident(id) => {
                code_lines.insert(t.line);
                analysis.idents.insert(id.clone());
            }
            _ => {
                code_lines.insert(t.line);
            }
        }
    }
    let comment_only = |line: u32| comment_lines.contains(&line) && !code_lines.contains(&line);

    // Pass 1: collect suppressions (and flag malformed ones).
    let mut raw = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let Tok::LineComment(text) = &t.tok else { continue };
        match parse_allow(text) {
            AllowParse::None => {}
            AllowParse::Bad(msg) => raw.push(Violation {
                lint: "A001",
                file: path.to_owned(),
                line: t.line,
                message: msg,
                excerpt: excerpt(t.line),
                suppressed: false,
                reason: None,
            }),
            AllowParse::Ok { lint, reason } => {
                // A trailing comment covers its own line; a standalone
                // comment covers the next non-comment line, chaining past
                // stacked directives and explanatory comment lines.
                let standalone = !tokens[..i]
                    .iter()
                    .rev()
                    .take_while(|p| p.line == t.line)
                    .any(|p| !matches!(p.tok, Tok::LineComment(_)));
                let covers = if standalone {
                    let mut l = t.line + 1;
                    while comment_only(l) {
                        l += 1;
                    }
                    l
                } else {
                    t.line
                };
                analysis.suppressions.push(Suppression {
                    covers,
                    lint,
                    reason,
                    line: t.line,
                });
            }
        }
    }

    // Pass 2: token-pattern lints.
    let ident_at = |i: usize| -> Option<&str> {
        match tokens.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct_at =
        |i: usize, c: char| -> bool { tokens.get(i).map(|t| &t.tok) == Some(&Tok::Punct(c)) };

    for i in 0..tokens.len() {
        let Some(id) = ident_at(i) else { continue };
        let line = tokens[i].line;
        let mut push = |lint: &'static str, message: String| {
            raw.push(Violation {
                lint,
                file: path.to_owned(),
                line,
                message,
                excerpt: excerpt(line),
                suppressed: false,
                reason: None,
            });
        };

        // D001 — wall-clock reads outside the bench harness.
        if !scope.bench && CLOCK_IDENTS.contains(&id) {
            push(
                "D001",
                format!("wall-clock type `{id}` outside crates/bench breaks run-to-run determinism"),
            );
            continue;
        }

        // D002 — unordered containers in non-test code.
        if !scope.test_file
            && !in_test[i]
            && (id == "HashMap" || id == "HashSet")
        {
            push(
                "D002",
                format!("`{id}` iteration order is nondeterministic; use BTreeMap/BTreeSet or sort before emission"),
            );
            continue;
        }

        // D003 — RNG bypasses.
        if RNG_BYPASS_IDENTS.contains(&id) {
            push(
                "D003",
                format!("`{id}` bypasses the deterministic rkvc_tensor::det RNG substrate"),
            );
            continue;
        }
        if !scope.tensor && !scope.test_file && !in_test[i] {
            let seeded_new = id == "SeededRng"
                && punct_at(i + 1, ':')
                && punct_at(i + 2, ':')
                && ident_at(i + 3) == Some("new");
            if seeded_new || id == "splitmix64" {
                push(
                    "D003",
                    "construct RNGs via rkvc_tensor::seeded_rng so every stream is seed-auditable"
                        .to_owned(),
                );
                continue;
            }
        }

        // D004 — ad-hoc threading outside the deterministic pool. Anchored
        // on the `thread` ident so `std::thread`, `thread::spawn`, and
        // `std::thread::spawn(..)` each report exactly once. Imports are
        // handled below on the parsed use declarations, so tokens inside
        // `use` spans are skipped here.
        if !scope.par_home && !scope.test_file && !in_test[i] && !in_use[i] && id == "thread" {
            let std_prefixed = i >= 3
                && punct_at(i - 1, ':')
                && punct_at(i - 2, ':')
                && ident_at(i - 3) == Some("std");
            let pool_entry = punct_at(i + 1, ':')
                && punct_at(i + 2, ':')
                && matches!(ident_at(i + 3), Some("spawn" | "scope" | "Builder"));
            if std_prefixed || pool_entry {
                push(
                    "D004",
                    "ad-hoc `std::thread` use outside rkvc_tensor::par; route concurrency through the deterministic pool"
                        .to_owned(),
                );
                continue;
            }
        }

        // D005 — non-SeqCst atomic orderings outside the deterministic-
        // concurrency boundary.
        if !scope.atomics_home
            && RELAXED_ORDERINGS.contains(&id)
            && i >= 3
            && punct_at(i - 1, ':')
            && punct_at(i - 2, ':')
            && ident_at(i - 3) == Some("Ordering")
        {
            push(
                "D005",
                format!(
                    "non-SeqCst atomic ordering `{id}` outside the deterministic-concurrency \
                     boundary (crates/tensor/src/par.rs, check.rs)"
                ),
            );
            continue;
        }

        // D006 — order-dependent float accumulation outside the
        // sequential-kernel allowlist.
        if !scope.seq_kernel && !scope.bench && !scope.test_file && !in_test[i] {
            let float_sum = id == "sum"
                && punct_at(i + 1, ':')
                && punct_at(i + 2, ':')
                && punct_at(i + 3, '<')
                && matches!(ident_at(i + 4), Some("f32" | "f64"))
                && punct_at(i + 5, '>');
            let float_fold = id == "fold" && punct_at(i + 1, '(') && {
                let lit = match tokens.get(i + 2).map(|t| &t.tok) {
                    Some(Tok::NumLit(text)) => Some(text),
                    Some(Tok::Punct('-')) => match tokens.get(i + 3).map(|t| &t.tok) {
                        Some(Tok::NumLit(text)) => Some(text),
                        _ => None,
                    },
                    _ => None,
                };
                lit.is_some_and(|t| is_float_literal(t))
            };
            if float_sum || float_fold {
                push(
                    "D006",
                    format!(
                        "order-dependent float accumulation (`{id}`); route through \
                         rkvc_tensor::par::par_reduce's fixed tree or the audited seq_sum_* \
                         helpers, or justify the fixed sequential order"
                    ),
                );
                continue;
            }
        }

        // E001 — panicking calls in the panic-free crates.
        if scope.panic_free && !in_test[i] {
            let call = punct_at(i + 1, '(');
            let bang = punct_at(i + 1, '!');
            let hit = match id {
                "unwrap" | "expect" if call => true,
                "panic" if bang => true,
                _ => false,
            };
            if hit {
                push(
                    "E001",
                    format!("`{id}` in non-test library code of a panic-free crate; propagate a typed error instead"),
                );
                continue;
            }
        }

        // U002 — unsafe escape hatches outside the allowlist.
        if !scope.unsafe_home {
            if id == "static" && ident_at(i + 1) == Some("mut") {
                push(
                    "U002",
                    "`static mut` outside the unsafe allowlist; use atomics or interior mutability"
                        .to_owned(),
                );
                continue;
            }
            if id == "transmute" || id == "transmute_copy" {
                push(
                    "U002",
                    format!("`{id}` outside the unsafe allowlist ({})", UNSAFE_ALLOWLIST.join(", ")),
                );
                continue;
            }
            if id == "as" && punct_at(i + 1, '*') && matches!(ident_at(i + 2), Some("const" | "mut"))
            {
                push(
                    "U002",
                    format!(
                        "raw-pointer cast outside the unsafe allowlist ({})",
                        UNSAFE_ALLOWLIST.join(", ")
                    ),
                );
                continue;
            }
        }
    }

    // Pass 2b: D004 on the import form itself — any use tree touching
    // `std::thread`, however spelled (`use std::thread;`,
    // `use std::{thread as t, io};`, `use std::thread::spawn as go;`).
    if !scope.par_home && !scope.test_file {
        for u in &analysis.parsed.uses {
            if u.in_test {
                continue;
            }
            if u.paths
                .iter()
                .any(|p| p == "std::thread" || p.starts_with("std::thread::"))
            {
                raw.push(Violation {
                    lint: "D004",
                    file: path.to_owned(),
                    line: u.line,
                    message: "importing `std::thread` outside rkvc_tensor::par; route concurrency \
                              through the deterministic pool"
                        .to_owned(),
                    excerpt: excerpt(u.line),
                    suppressed: false,
                    reason: None,
                });
            }
        }
    }

    // Pass 2c: U001 — the unsafe audit. Every region is inventoried with
    // its justification; outside the allowlist the region itself is a
    // violation, inside it a missing `rkvc-safety` justification is.
    for region in &analysis.parsed.unsafes {
        let justification = {
            // Trailing on the unsafe line, or anywhere in the contiguous
            // comment block directly above it.
            let mut found = safety_by_line
                .iter()
                .find(|(l, _)| *l == region.line)
                .map(|(_, r)| r.clone());
            if found.is_none() {
                let mut l = region.line.saturating_sub(1);
                while l > 0 && comment_only(l) {
                    if let Some((_, r)) = safety_by_line.iter().find(|(sl, _)| *sl == l) {
                        found = Some(r.clone());
                        break;
                    }
                    l -= 1;
                }
            }
            found
        };
        if !scope.unsafe_home {
            raw.push(Violation {
                lint: "U001",
                file: path.to_owned(),
                line: region.line,
                message: format!(
                    "`unsafe` {} outside the audited allowlist ({})",
                    region.kind.label(),
                    UNSAFE_ALLOWLIST.join(", ")
                ),
                excerpt: excerpt(region.line),
                suppressed: false,
                reason: None,
            });
        } else if justification.is_none() {
            raw.push(Violation {
                lint: "U001",
                file: path.to_owned(),
                line: region.line,
                message: format!(
                    "`unsafe` {} lacks an adjacent `// rkvc-safety: reason` justification",
                    region.kind.label()
                ),
                excerpt: excerpt(region.line),
                suppressed: false,
                reason: None,
            });
        }
        analysis.unsafe_audit.push(UnsafeAudit {
            kind: region.kind.label(),
            line: region.line,
            justification,
            in_test: region.in_test,
        });
    }

    // Pass 3: apply suppressions.
    apply_suppressions(&mut raw, &analysis.suppressions);
    analysis.violations = raw;
    analysis
}

/// Marks violations covered by a matching valid suppression. A001 is
/// never suppressable.
pub(crate) fn apply_suppressions(violations: &mut [Violation], suppressions: &[Suppression]) {
    for v in violations.iter_mut() {
        if v.lint == "A001" {
            continue;
        }
        if let Some(s) = suppressions
            .iter()
            .find(|s| s.lint == v.lint && s.covers == v.line)
        {
            v.suppressed = true;
            v.reason = Some(s.reason.clone());
        }
    }
}
