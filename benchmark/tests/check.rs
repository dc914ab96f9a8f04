//! Drives the real binary: the `--check` smoke mode and the command line's
//! failure paths. Runs from the repo root, as `run.sh` does.

use std::process::{Command, Output};

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rkvc-benchmark"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("benchmark binary runs")
}

/// Every workload at one tiny pass plus one traced run: every name declared
/// in `BENCHMARK.json` is printed exactly once with its unit, and the
/// default-seed digests match the committed goldens.
#[test]
fn check_mode_finds_no_problems() {
    let out = benchmark(&["--check"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("check: 0 problems"),
        "stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_wrong_golden_digest_fails_the_run_and_counts_the_operations() {
    // Seed 0xBAD has no golden file, so plant one with a wrong digest for
    // the first unit and none for the rest.
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/sim_sessions-0xbad.txt");
    std::fs::write(golden, "fcfs-blind 0000000000000001\n").expect("plant golden");
    let out = benchmark(&[
        "--workload",
        "sim_sessions",
        "--seed",
        "0xBAD",
        "--check",
        "--trace",
        "0",
    ]);
    std::fs::remove_file(golden).expect("remove planted golden");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    let line = stdout.lines().last().expect("result line");
    assert!(
        line.starts_with("{\"correct\": false, \"attempted\": "),
        "{line}"
    );
    assert!(!line.contains("\"failed\": 0,"), "{line}");
    assert!(
        stdout.contains("problem unit fcfs-blind: digest"),
        "{stdout}"
    );
}

#[test]
fn bad_arguments_exit_with_usage_and_no_result_line() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "-1"],
        &["--frobnicate"],
        &["compare", "only-one.json"],
    ] {
        let out = benchmark(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
