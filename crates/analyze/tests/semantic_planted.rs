//! Planted tests for the semantic layer: the `rkvc-safety` justification
//! convention inside the unsafe allowlist, the unsafe audit inventory,
//! and the C001 cross-crate dead-export lint over the use-graph.

use rkvc_analyze::lints::{analyze_source, crate_of};
use rkvc_analyze::usegraph::dead_exports;
use std::collections::{BTreeMap, BTreeSet};

const AT_HOME: &str = "crates/tensor/src/par.rs";

#[test]
fn unsafe_at_home_requires_an_adjacent_justification() {
    let src = concat!(
        "pub fn a(x: &[u8]) -> u8 {\n",               // 1
        "    // rkvc-safety: bounds checked by caller\n", // 2
        "    let v = unsafe { *x.as_ptr() };\n",      // 3: justified (block above)
        "    let w = unsafe { *x.as_ptr() }; // rkvc-safety: trailing form\n", // 4: justified
        "    let z = unsafe { *x.as_ptr() };\n",      // 5: NOT justified
        "    v + w + z\n",
        "}\n",
    );
    let a = analyze_source(AT_HOME, src);
    let u001: Vec<u32> = a
        .violations
        .iter()
        .filter(|v| v.lint == "U001")
        .map(|v| v.line)
        .collect();
    assert_eq!(u001, vec![5], "only the unjustified region may report");
    // All three regions land in the audit inventory, justified or not.
    let audit: Vec<(u32, Option<&str>)> = a
        .unsafe_audit
        .iter()
        .map(|u| (u.line, u.justification.as_deref()))
        .collect();
    assert_eq!(
        audit,
        vec![
            (3, Some("bounds checked by caller")),
            (4, Some("trailing form")),
            (5, None),
        ]
    );
}

#[test]
fn justification_chains_through_a_contiguous_comment_block() {
    let src = concat!(
        "pub fn a(x: &[u8]) -> u8 {\n",
        "    // rkvc-safety: reason sits two comment lines up\n",
        "    // and the explanation continues here\n",
        "    unsafe { *x.as_ptr() }\n",
        "}\n",
    );
    let a = analyze_source(AT_HOME, src);
    assert!(a.violations.iter().all(|v| v.lint != "U001"));
    assert_eq!(
        a.unsafe_audit[0].justification.as_deref(),
        Some("reason sits two comment lines up")
    );
    // A blank line breaks the chain: the justification no longer counts.
    let gapped = src.replace("up\n    //", "up\n\n    //");
    let b = analyze_source(AT_HOME, &gapped);
    assert!(b.violations.iter().any(|v| v.lint == "U001"));
}

#[test]
fn unsafe_outside_the_allowlist_reports_even_when_justified() {
    let src = concat!(
        "pub fn a(x: &[u8]) -> u8 {\n",
        "    // rkvc-safety: a justification does not move the allowlist\n",
        "    unsafe { *x.as_ptr() }\n",
        "}\n",
    );
    let a = analyze_source("crates/kvcache/src/cache.rs", src);
    assert!(
        a.violations
            .iter()
            .any(|v| v.lint == "U001" && v.line == 3 && v.message.contains("allowlist")),
        "got {:?}",
        a.violations.iter().map(|v| v.header()).collect::<Vec<_>>()
    );
}

/// Runs the use-graph over a tiny synthetic workspace: a defining crate
/// with one consumed and one dead export, plus a consumer crate.
fn synthetic_dead_exports(defs: &str, consumer: &str) -> Vec<(String, u32, bool)> {
    let def_path = "crates/kvcache/src/planted_api.rs";
    let use_path = "crates/serving/src/planted_use.rs";
    let analyses = vec![
        analyze_source(def_path, defs),
        analyze_source(use_path, consumer),
    ];
    let excerpts: BTreeMap<String, String> = vec![
        (def_path.to_owned(), defs.to_owned()),
        (use_path.to_owned(), consumer.to_owned()),
    ]
    .into_iter()
    .collect();
    dead_exports(&analyses, &[], &excerpts)
        .into_iter()
        .map(|v| (v.file, v.line, v.suppressed))
        .collect()
}

#[test]
fn c001_reports_the_dead_export_at_its_exact_line() {
    let defs = concat!(
        "pub fn planted_alive_xyz() -> u32 { 1 }\n", // 1: consumed below
        "pub fn planted_dead_xyz() -> u32 { 2 }\n",  // 2: dead
        "fn planted_private_xyz() -> u32 { 3 }\n",   // 3: private — out of scope
        "#[cfg(test)]\n",                            // 4
        "mod tests {\n",                             // 5
        "    pub fn planted_testonly_xyz() {}\n",    // 6: test-only — out of scope
        "}\n",
    );
    let consumer = "fn consume() -> u32 { rkvc_kvcache::planted_alive_xyz() }\n";
    let got = synthetic_dead_exports(defs, consumer);
    assert_eq!(
        got,
        vec![("crates/kvcache/src/planted_api.rs".to_owned(), 2, false)]
    );
}

#[test]
fn c001_respects_an_adjacent_suppression() {
    let defs = concat!(
        "// rkvc-allow(C001): kept for downstream users outside this workspace\n",
        "pub fn planted_dead_xyz() -> u32 { 2 }\n",
    );
    let got = synthetic_dead_exports(defs, "fn consume() {}\n");
    assert_eq!(
        got,
        vec![("crates/kvcache/src/planted_api.rs".to_owned(), 2, true)]
    );
}

#[test]
fn c001_keep_alive_channels() {
    // Doc-comment mentions anywhere keep an export alive (doc examples
    // compile as external consumers), and so do per-crate integration
    // tests fed in as the reference corpus.
    let defs = concat!(
        "pub fn planted_doc_kept_xyz() {}\n",
        "pub fn planted_test_kept_xyz() {}\n",
        "pub fn planted_dead_xyz() {}\n",
    );
    let consumer = "//! See `planted_doc_kept_xyz` for the slow path.\nfn consume() {}\n";
    let def_path = "crates/kvcache/src/planted_api.rs";
    let use_path = "crates/serving/src/planted_use.rs";
    let analyses = vec![
        analyze_source(def_path, defs),
        analyze_source(use_path, consumer),
    ];
    let excerpts: BTreeMap<String, String> =
        vec![(def_path.to_owned(), defs.to_owned())].into_iter().collect();
    let corpus_idents: BTreeSet<String> =
        vec!["planted_test_kept_xyz".to_owned()].into_iter().collect();
    let reference = vec![(crate_of("crates/kvcache/tests/api.rs"), corpus_idents)];
    let dead: Vec<u32> = dead_exports(&analyses, &reference, &excerpts)
        .into_iter()
        .map(|v| v.line)
        .collect();
    assert_eq!(dead, vec![3], "only the genuinely dead export reports");
}

#[test]
fn bin_targets_are_external_consumers_of_their_library() {
    // A crate's main.rs consumes the library's pub API as a separate
    // cargo crate, so an export referenced only there is *not* dead.
    let def_path = "crates/kvcache/src/planted_api.rs";
    let bin_path = "crates/kvcache/src/main.rs";
    let defs = "pub fn planted_bin_kept_xyz() {}\n";
    let bin = "fn main() { rkvc_kvcache::planted_bin_kept_xyz(); }\n";
    let analyses = vec![analyze_source(def_path, defs), analyze_source(bin_path, bin)];
    let excerpts: BTreeMap<String, String> =
        vec![(def_path.to_owned(), defs.to_owned())].into_iter().collect();
    assert!(dead_exports(&analyses, &[], &excerpts).is_empty());
}

/// C001 findings (export names) of `scan_workspace` over a one-crate
/// workspace on disk whose library exports `planted_kept_xyz` and
/// `planted_dead_xyz`, plus one outside file at `consumer_path` calling
/// the former — the reference corpus is chosen by directory, so only a
/// real tree exercises it.
fn c001_with_outside_consumer(tag: &str, consumer_path: &str) -> Vec<String> {
    let root = std::env::temp_dir().join(format!("rkvc-analyze-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let write = |rel: &str, text: &str| {
        let path = root.join(rel);
        let dir = path.parent().expect("rel has a parent");
        std::fs::create_dir_all(dir).expect("temp dir is writable");
        std::fs::write(path, text).expect("temp dir is writable");
    };
    write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    write("crates/kvcache/Cargo.toml", "[package]\nname = \"rkvc-kvcache\"\n");
    write(
        "crates/kvcache/src/lib.rs",
        "pub fn planted_kept_xyz() {}\npub fn planted_dead_xyz() {}\n",
    );
    write(consumer_path, "fn main() { rkvc_kvcache::planted_kept_xyz(); }\n");
    let report = rkvc_analyze::scan_workspace(&root).expect("planted workspace scans");
    let _ = std::fs::remove_dir_all(&root);
    report
        .violations
        .iter()
        .filter(|v| v.lint == "C001")
        .map(|v| v.excerpt.clone())
        .collect()
}

#[test]
fn benchmark_sources_keep_an_export_alive() {
    // `benchmark/` is its own workspace, outside `crates/`, and the real
    // consumer of several probes; the corpus must see it.
    let dead = c001_with_outside_consumer("benchmark", "benchmark/src/probes.rs");
    assert_eq!(dead, vec!["pub fn planted_dead_xyz() {}"]);
}

#[test]
fn a_crates_benches_directory_is_not_a_consumer() {
    // No crate has a `benches/` directory any more; one that reappears
    // must not silently keep exports alive.
    let dead = c001_with_outside_consumer("benches", "crates/kvcache/benches/old.rs");
    assert_eq!(
        dead,
        vec!["pub fn planted_kept_xyz() {}", "pub fn planted_dead_xyz() {}"]
    );
}
