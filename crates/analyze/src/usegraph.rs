//! C001 — the workspace use-graph and the dead-`pub`-export lint.
//!
//! The per-file scan ([`crate::lints`]) records, for every file, the
//! module-level items it defines (with visibility) and the set of
//! identifiers occurring in its code and doc comments. This module joins
//! those facts across files: a `pub` item defined in some crate's
//! library source is **dead** when no file *outside* that crate — other
//! crates' sources, integration tests, examples, the root facade, or any
//! doc example anywhere — mentions its name.
//!
//! Matching is by bare identifier presence, deliberately permissive: any
//! occurrence of the name anywhere outside the defining crate keeps the
//! export alive, so renames and re-exports never produce false
//! positives. What survives that filter really is unreachable from every
//! external consumer in the tree.
//!
//! Suppressions are file-local as for every other lint: a
//! `// rkvc-allow(C001): reason` adjacent to the definition covers it.

use crate::lints::{self, FileAnalysis, Suppression, Violation};
use crate::parse::{ItemKind, Visibility};
use std::collections::{BTreeMap, BTreeSet};

/// Identifier sets visible from one consumer location, keyed by crate.
#[derive(Debug, Default)]
struct CrateRefs {
    /// Idents appearing in code, per crate name (from [`lints::crate_of`]).
    code: BTreeMap<String, BTreeSet<String>>,
    /// Idents appearing in doc comments anywhere — doc examples compile
    /// as external consumers, so these keep exports alive globally.
    docs: BTreeSet<String>,
}

/// Finds dead `pub` exports across the workspace.
///
/// `analyses` are the lint-scanned source files; `reference_idents` is
/// the identifier corpus from files that are consumers but not lint
/// targets (per-crate `tests/` directories and `benchmark/`), each
/// tagged with the crate it exercises. Returned violations already have
/// the defining file's suppressions applied and carry excerpts from
/// `excerpts` (path → source text).
pub fn dead_exports(
    analyses: &[FileAnalysis],
    reference_idents: &[(String, BTreeSet<String>)],
    excerpts: &BTreeMap<String, String>,
) -> Vec<Violation> {
    let mut refs = CrateRefs::default();
    for a in analyses {
        // A crate's bin targets are distinct cargo crates that consume
        // the library's pub API via `rkvc_<name>::…` paths, so they are
        // external consumers for C001 purposes.
        let krate = if a.path.ends_with("/main.rs") || a.path.contains("/bin/") {
            format!("{}-bin", lints::crate_of(&a.path))
        } else {
            lints::crate_of(&a.path)
        };
        refs.code.entry(krate).or_default().extend(a.idents.iter().cloned());
        refs.docs.extend(a.doc_idents.iter().cloned());
    }
    for (krate, idents) in reference_idents {
        // A crate's own `tests/` directory is an external consumer of its
        // pub API (it links against the built library), so its idents go
        // into the shared `tests` pseudo-crate rather than the crate
        // itself — `crates/<k>/tests` keeping `<k>`'s exports alive is
        // exactly the point.
        let _ = krate;
        refs.code.entry("tests".to_owned()).or_default().extend(idents.iter().cloned());
    }

    let alive = |def_crate: &str, name: &str| -> bool {
        if refs.docs.contains(name) {
            return true;
        }
        refs.code
            .iter()
            .any(|(krate, idents)| krate != def_crate && idents.contains(name))
    };

    let mut out = Vec::new();
    for a in analyses {
        // Only library sources define an export surface; binaries and
        // test/example code are consumers.
        if !a.path.starts_with("crates/") || !a.path.contains("/src/") {
            continue;
        }
        if a.path.ends_with("/main.rs") || a.path.contains("/bin/") {
            continue;
        }
        let def_crate = lints::crate_of(&a.path);
        let lines: Vec<&str> = excerpts
            .get(&a.path)
            .map(|s| s.lines().collect())
            .unwrap_or_default();
        let mut file_hits = Vec::new();
        for item in &a.parsed.items {
            if item.vis != Visibility::Pub || item.in_test {
                continue;
            }
            // Modules are namespaces, not leaf exports; macro_rules
            // visibility is attribute-driven and outside the parser's
            // scope.
            if matches!(item.kind, ItemKind::Mod | ItemKind::Macro) {
                continue;
            }
            if alive(&def_crate, &item.name) {
                continue;
            }
            file_hits.push(Violation {
                lint: "C001",
                file: a.path.clone(),
                line: item.line,
                message: format!(
                    "dead `pub` export: {} `{}` is never referenced outside crate `{}` \
                     (sources, tests, examples, or doc examples); demote to pub(crate), \
                     remove, or justify",
                    item.kind.label(),
                    item.name,
                    def_crate
                ),
                excerpt: lines
                    .get(item.line as usize - 1)
                    .map(|l| l.trim().to_owned())
                    .unwrap_or_default(),
                suppressed: false,
                reason: None,
            });
        }
        let sups: Vec<Suppression> = a.suppressions.clone();
        lints::apply_suppressions(&mut file_hits, &sups);
        out.extend(file_hits);
    }
    out
}
