//! `rkvc-analyze` — the workspace's standing static-analysis gate.
//!
//! The repository's claim to reproducing *Rethinking KV Cache
//! Compression* rests on results being a pure function of the source
//! tree. The hermetic build (PR 1) removed external crates; this tool
//! keeps the tree that way *and* mechanically enforces the determinism,
//! safety, and hygiene invariants the golden `results/` files depend on:
//!
//! - [`lints`] — the catalog (D001 wall-clock, D002 unordered maps, D003
//!   RNG bypass, D004 ad-hoc threading, D005 relaxed atomics, D006
//!   order-dependent float accumulation, E001 panics in serving-path
//!   crates, U001/U002 `unsafe` audit, A001 malformed suppressions) and
//!   the per-file scanner.
//! - [`lexer`] — the hand-written Rust lexer behind it: nested block
//!   comments, raw strings, char-vs-lifetime disambiguation, and
//!   `#[cfg(test)]` / `mod tests` region tracking.
//! - [`parse`] — the total, never-panicking item-level parser on top of
//!   the lexer: modules, fns, impls, `use` trees, visibility, `unsafe`
//!   regions.
//! - [`usegraph`] — C001, cross-crate dead-`pub`-export detection over
//!   the workspace symbol table joined from every file's parse.
//! - [`hermetic`] — H001, the manifest-level dependency-closure check
//!   (the portable re-implementation of gate 1's `cargo tree | awk`).
//! - [`report`] — `file:line` diagnostics plus the machine-readable
//!   report written to `results/analyze.json`: per-crate metrics, the
//!   `unsafe` audit inventory, and the full suppression inventory with
//!   reasons.
//!
//! The per-file scan fans out over the deterministic
//! [`rkvc_tensor::par`] pool; because files map to placement-ordered
//! slots, the report is byte-identical at any `RKVC_THREADS` (gate 0
//! diffs width 1 against width 4 to prove it).
//!
//! The binary (`cargo run -p rkvc-analyze`) runs as **gate 0** of
//! `./scripts/check_hermetic.sh` and exits non-zero on any unsuppressed
//! violation. Violations are suppressed only by
//! `// rkvc-allow(LINT_ID): reason` with a written reason; `unsafe`
//! regions are justified with `// rkvc-safety: reason`.

pub mod hermetic;
pub mod lexer;
pub mod lints;
pub mod parse;
pub mod report;
pub mod usegraph;

use lints::FileAnalysis;
use report::Report;
use rkvc_tensor::par;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The source roots the scanner walks, relative to the workspace root.
/// `crates/*/src` is expanded by [`scan_workspace`].
pub(crate) const EXTRA_ROOTS: [&str; 3] = ["src", "tests", "examples"];

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// reports. Missing directories contribute nothing.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Every Rust file the lints cover: `crates/*/src/**`, `src/**`,
/// `tests/**`, `examples/**` — sorted, workspace-relative.
pub(crate) fn source_files(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut crates: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        crates.sort();
        for c in crates {
            dirs.push(c.join("src"));
        }
    }
    dirs.extend(EXTRA_ROOTS.iter().map(|r| root.join(r)));
    let mut files = Vec::new();
    for d in dirs {
        collect_rs(&d, &mut files);
    }
    files
}

/// Per-crate integration tests (`crates/*/tests/**`) and the repo
/// benchmark (`benchmark/src/**`, `benchmark/tests/**`). These are
/// *consumers* for the C001 use-graph — each is a separate cargo crate
/// linking against the built libraries — but not lint targets: tests may
/// contain planted fixtures, and `benchmark/` is its own workspace whose
/// whole job is reading the wall clock.
fn reference_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut crates: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        crates.sort();
        for c in crates {
            collect_rs(&c.join("tests"), &mut files);
        }
    }
    collect_rs(&root.join("benchmark/src"), &mut files);
    collect_rs(&root.join("benchmark/tests"), &mut files);
    files
}

/// Bare identifiers in a source text, lexer-backed when the file lexes
/// and a conservative word split otherwise.
fn idents_of(src: &str) -> BTreeSet<String> {
    if let Ok(tokens) = lexer::lex(src) {
        return tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                lexer::Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect();
    }
    src.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_'))
        .map(str::to_owned)
        .collect()
}

/// Runs every lint over the workspace at `root`.
///
/// The per-file pass fans out over the deterministic
/// [`rkvc_tensor::par`] pool; files land in placement-ordered slots, so
/// the assembled report is byte-identical at any `RKVC_THREADS`.
///
/// # Errors
///
/// Returns a message if a source file or manifest cannot be read.
pub fn scan_workspace(root: &Path) -> Result<Report, String> {
    let files = source_files(root);
    // I/O stays sequential (and fallible); the pure analysis fans out.
    let mut inputs: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in &files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        inputs.push((rel, text));
    }
    // Lexing + parsing + linting one file is far past the dispatch
    // threshold; treat each as ~200k ops so small workspaces still
    // engage the pool deterministically.
    let grain = par::grain_for(inputs.len(), 200_000);
    let analyses: Vec<FileAnalysis> =
        par::par_map(&inputs, grain, |(rel, text)| lints::analyze_source(rel, text));

    // Cross-file pass: the C001 use-graph, with per-crate `tests/`
    // directories and `benchmark/` joined in as reference-only consumers.
    let mut reference_idents: Vec<(String, BTreeSet<String>)> = Vec::new();
    for path in reference_files(root) {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        reference_idents.push((lints::crate_of(&rel), idents_of(&text)));
    }
    let excerpts: BTreeMap<String, String> =
        inputs.iter().map(|(rel, text)| (rel.clone(), text.clone())).collect();
    let mut violations: Vec<lints::Violation> =
        analyses.iter().flat_map(|a| a.violations.clone()).collect();
    violations.extend(usegraph::dead_exports(&analyses, &reference_idents, &excerpts));

    let manifests = hermetic::load_manifests(root)?;
    violations.extend(hermetic::check_manifests(&manifests));
    Ok(Report::new(manifests.len(), &analyses, violations))
}
