//! Golden test: the planted fixture must produce exactly one violation
//! per lint id, each at its exact `file:line`.

use rkvc_analyze::hermetic::{check_manifests, Manifest};
use rkvc_analyze::lints::scan_source;

const FIXTURE: &str = include_str!("fixtures/planted.rs");

/// The fixture path used for scanning: inside `crates/serving/src`, where
/// every source lint (D001/D002/D003/D004/E001) is in scope.
const AS_SERVING: &str = "crates/serving/src/planted.rs";

#[test]
fn planted_fixture_reports_every_lint_at_exact_lines() {
    let vs = scan_source(AS_SERVING, FIXTURE);
    let mut got: Vec<(u32, &str, bool)> =
        vs.iter().map(|v| (v.line, v.lint, v.suppressed)).collect();
    got.sort();
    assert_eq!(
        got,
        vec![
            (6, "D002", false),  // use ... HashMap
            (7, "D001", false),  // use ... Instant
            (10, "D001", false), // Instant::now()
            (11, "D002", false), // HashMap (type annotation)
            (11, "D002", false), // HashMap::new()
            (12, "D003", false), // thread_rng()
            (13, "E001", false), // .unwrap()
            (14, "A001", false), // rkvc-allow(FAKE)
            (16, "E001", true),  // .expect(..) under a valid suppression
            (17, "D004", false), // std::thread::scope(..)
            (18, "D004", false), // std::thread::Builder::new().spawn(..) — the pool's own idiom
            (24, "D004", false), // use std::{thread as ..} — the aliased import form
            (26, "U001", false), // pub unsafe fn outside the allowlist
            (27, "U002", false), // static mut
            (28, "U002", false), // as *const raw-pointer cast
            (29, "U001", false), // unsafe block
            (30, "D005", false), // Ordering::Relaxed
            (31, "U001", false), // unsafe block ..
            (31, "U002", false), // .. wrapping a transmute
            (36, "D006", false), // sum::<f32>()
            (37, "D006", false), // fold with a float seed
            (40, "D002", true),  // HashMap under the first stacked directive
            (40, "E001", true),  // unwrap under the second stacked directive
            (54, "U001", false), // unsafe call into a #[target_feature] fn outside the allowlist
        ]
    );
}

#[test]
fn stacked_standalone_suppressions_chain_to_the_code_line() {
    // Two standalone directives above one code line: the first one's
    // cover must chain past the second (a comment-only line) instead of
    // dying on it — the regression this PR's satellite fixes.
    let vs = scan_source(AS_SERVING, FIXTURE);
    let at_40: Vec<_> = vs.iter().filter(|v| v.line == 40).collect();
    assert_eq!(at_40.len(), 2, "both planted hits on line 40 must report");
    assert!(
        at_40.iter().all(|v| v.suppressed),
        "both stacked directives must cover line 40, got {:?}",
        at_40.iter().map(|v| (&v.lint, v.suppressed)).collect::<Vec<_>>()
    );
    assert_eq!(
        at_40
            .iter()
            .find(|v| v.lint == "D002")
            .and_then(|v| v.reason.as_deref()),
        Some("stacked directive one — fixture for chained covers")
    );
}

#[test]
fn par_home_is_exempt_from_d004_but_nothing_else() {
    let vs = scan_source("crates/tensor/src/par.rs", FIXTURE);
    assert!(
        vs.iter().all(|v| v.lint != "D004"),
        "the pool module may use std::thread"
    );
    // Clock reads stay banned even in the pool module, and so do
    // panicking calls: `rkvc-tensor` is inside E001.
    assert!(vs.iter().any(|v| v.lint == "D001"));
    assert!(vs
        .iter()
        .any(|v| v.line == 13 && v.lint == "E001" && !v.suppressed));
}

/// The real persistent-pool source, scanned as shipped: its
/// `std::thread` internals (`Builder::new().spawn` for lazy workers,
/// `available_parallelism`) are exempt at their home path but D004
/// violations anywhere else — and the job-handoff path must stay wall-clock-free, so the
/// home scan comes back completely clean (D001 included).
const PAR_SOURCE: &str = include_str!("../../tensor/src/par.rs");

#[test]
fn persistent_pool_source_is_clean_at_home_and_caught_elsewhere() {
    let home = scan_source("crates/tensor/src/par.rs", PAR_SOURCE);
    assert!(
        home.is_empty(),
        "pool source must scan clean in its home module, got {:?}",
        home.iter().map(|v| v.header()).collect::<Vec<_>>()
    );
    let moved = scan_source("crates/core/src/par.rs", PAR_SOURCE);
    let d004 = moved.iter().filter(|v| v.lint == "D004").count();
    assert!(
        d004 >= 2,
        "the pool's spawn sites must all trip D004 outside the home module, got {d004}"
    );
    // Outside its home the pool trips exactly the concurrency-boundary
    // lints: ad-hoc threading (D004), its unsafe regions (U001), the
    // transmute/raw-pointer machinery (U002), and its relaxed atomics
    // (D005). Anything else (a clock read, a hash map) would be a real
    // hygiene regression.
    assert!(
        moved
            .iter()
            .all(|v| matches!(v.lint, "D004" | "U001" | "U002" | "D005")),
        "unexpected lint outside the boundary set: {:?}",
        moved.iter().map(|v| v.header()).collect::<Vec<_>>()
    );
    for lint in ["U001", "U002", "D005"] {
        assert!(
            moved.iter().any(|v| v.lint == lint),
            "the pool's {lint} sites must all trip outside the home module"
        );
    }
}

#[test]
fn diagnostics_carry_exact_file_line_headers() {
    let vs = scan_source(AS_SERVING, FIXTURE);
    let d003 = vs.iter().find(|v| v.lint == "D003").expect("D003 planted");
    assert!(
        d003.header().starts_with("crates/serving/src/planted.rs:12: [D003]"),
        "got {:?}",
        d003.header()
    );
    assert_eq!(d003.excerpt, "let mut rng = thread_rng();");
    let suppressed = vs.iter().find(|v| v.suppressed).expect("one suppressed");
    assert_eq!(
        suppressed.reason.as_deref(),
        Some("fixture demonstrating a valid standalone suppression")
    );
}

#[test]
fn bench_scope_permits_wall_clock_but_not_hash_maps() {
    let vs = scan_source("crates/bench/src/planted.rs", FIXTURE);
    assert!(vs.iter().all(|v| v.lint != "D001"), "bench may read clocks");
    assert!(vs.iter().any(|v| v.lint == "D002"), "D002 still applies");
    assert!(vs.iter().any(|v| v.lint == "D004"), "benches must use the pool too");
    // E001 only covers tensor/kvcache/serving/gpu/model.
    assert!(vs.iter().all(|v| v.lint != "E001"));
}

#[test]
fn workspace_test_files_are_exempt_from_library_hygiene() {
    let vs = scan_source("tests/planted.rs", FIXTURE);
    assert!(vs
        .iter()
        .all(|v| v.lint != "D002" && v.lint != "E001" && v.lint != "D004"));
    // Clock reads and RNG bypasses stay banned even in tests.
    assert!(vs.iter().any(|v| v.lint == "D001"));
    assert!(vs.iter().any(|v| v.lint == "D003"));
    // Malformed suppressions are reported everywhere.
    assert!(vs.iter().any(|v| v.lint == "A001"));
}

#[test]
fn serving_engine_files_are_in_e001_scope() {
    // The engine refactor split `crates/serving/src` into new modules;
    // E001 (no `unwrap`/`expect`/`panic!` in serving library code) must
    // cover every one of them, not just the legacy file names — and the
    // `rkvc-gpu` cost model the engine calls on every step, the
    // `rkvc-model` decoder that generates through the caches, and the
    // `rkvc-tensor` kernels and JSON layer under all of them.
    for path in [
        "crates/serving/src/engine.rs",
        "crates/serving/src/scheduler.rs",
        "crates/serving/src/clock.rs",
        "crates/serving/src/metrics.rs",
        "crates/serving/src/blocks.rs",
        "crates/serving/src/tier.rs",
        "crates/serving/src/slo.rs",
        "crates/serving/src/request.rs",
        "crates/serving/src/fleet.rs",
        "crates/serving/src/shard.rs",
        "crates/serving/src/scaling.rs",
        "crates/gpu/src/attention.rs",
        "crates/gpu/src/memory.rs",
        "crates/model/src/model.rs",
        "crates/model/src/weights.rs",
        "crates/tensor/src/json.rs",
        "crates/tensor/src/gemm.rs",
        "crates/tensor/src/matrix.rs",
    ] {
        let vs = scan_source(path, FIXTURE);
        assert!(
            vs.iter().any(|v| v.line == 13 && v.lint == "E001" && !v.suppressed),
            "{path}: the planted unwrap must trip E001"
        );
        assert!(
            vs.iter().any(|v| v.line == 6 && v.lint == "D002" && !v.suppressed),
            "{path}: the planted HashMap import must trip D002"
        );
    }
}

#[test]
fn session_workload_keeps_d002_but_not_e001() {
    // The session sampler lives in `crates/workload/src`, outside the
    // panic-free boundary: `.expect()` on distribution constructors is
    // idiomatic there, but the HashMap ban still applies in full.
    let vs = scan_source("crates/workload/src/session.rs", FIXTURE);
    assert!(
        vs.iter().all(|v| v.lint != "E001"),
        "workload sources may unwrap/expect"
    );
    assert!(
        vs.iter().any(|v| v.line == 6 && v.lint == "D002" && !v.suppressed),
        "the planted HashMap import must trip D002 in session.rs"
    );
    assert!(
        vs.iter().any(|v| v.line == 11 && v.lint == "D002" && !v.suppressed),
        "the planted HashMap annotation must trip D002 in session.rs"
    );
}

#[test]
fn planted_manifest_reports_h001_at_exact_lines() {
    let root = Manifest {
        path: "Cargo.toml".to_owned(),
        text: concat!(
            "[package]\n",                                       // 1
            "name = \"planted\"\n",                              // 2
            "\n",                                                // 3
            "[dependencies]\n",                                  // 4
            "planted-helper = { path = \"../helper\" }\n",       // 5: ok
            "serde = \"1.0\"\n",                                 // 6: registry pin
            "rand = { git = \"https://example.invalid/r\" }\n",  // 7: git source
            "mystery = { version = \"1\" }\n",                   // 8: no path
        )
        .to_owned(),
    };
    let helper = Manifest {
        path: "crates/helper/Cargo.toml".to_owned(),
        text: "[package]\nname = \"planted-helper\"\n".to_owned(),
    };
    let vs = check_manifests(&[root, helper]);
    assert!(vs.iter().all(|v| v.lint == "H001"));
    let mut lines: Vec<u32> = vs.iter().map(|v| v.line).collect();
    lines.sort_unstable();
    // Each bad dependency trips both the membership check and its source
    // check; the hermetic line 5 trips neither.
    assert_eq!(lines, vec![6, 6, 7, 7, 8, 8]);
    assert!(vs
        .iter()
        .any(|v| v.line == 6 && v.message.contains("registry version")));
    assert!(vs.iter().any(|v| v.line == 7 && v.message.contains("'git'")));
    assert!(vs
        .iter()
        .any(|v| v.line == 8 && v.message.contains("lacks 'path'")));
    assert!(vs
        .iter()
        .all(|v| v.file == "Cargo.toml"), "helper manifest is clean");
}
