//! The `repro` binary's command-line contract: what `--list` prints, how
//! bad arguments and failed writes exit, and that the JSON it saves is
//! `save_json` of `run_by_id` — the file gate 5 of
//! `scripts/check_hermetic.sh` diffs against `results/`.

use rkvc_core::experiments::{experiment_ids, run_by_id, RunOptions};
use rkvc_core::report::save_json;
use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A fresh directory per test (tests run on parallel threads).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rkvc-repro-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

#[test]
fn list_prints_exactly_the_registry_in_order() {
    let out = repro().arg("--list").output().expect("repro runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("ids are ASCII");
    assert_eq!(stdout.lines().collect::<Vec<_>>(), experiment_ids());
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = repro()
        .args(["--exp", "nope"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn a_failed_write_is_a_failed_run() {
    let dir = scratch_dir("unwritable");
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"a regular file, not a directory").expect("temp dir is writable");
    let out = repro()
        .args(["--exp", "fig2", "--scale", "quick", "--out"])
        .arg(blocker.join("out"))
        .output()
        .expect("repro runs");
    assert!(
        !out.status.success(),
        "repro reported success without writing fig2.json"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saved_json_is_save_json_of_run_by_id() {
    let dir = scratch_dir("saved");
    let (cli, lib) = (dir.join("cli"), dir.join("lib"));
    let out = repro()
        .args(["--exp", "fig2", "--scale", "quick", "--out"])
        .arg(&cli)
        .output()
        .expect("repro runs");
    assert!(out.status.success());
    let result = run_by_id("fig2", &RunOptions::quick()).expect("fig2 is a known experiment");
    save_json(&lib, "fig2", &result).expect("temp dir is writable");
    let read = |d: &PathBuf| std::fs::read(d.join("fig2.json")).expect("fig2.json was written");
    assert_eq!(read(&cli), read(&lib));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rerun_leaves_unchanged_json_untouched_and_rewrites_a_stale_one() {
    let dir = scratch_dir("rerun");
    let run = || {
        let out = repro()
            .args(["--exp", "fig2", "--scale", "quick", "--out"])
            .arg(&dir)
            .output()
            .expect("repro runs");
        assert!(out.status.success());
    };
    let path = dir.join("fig2.json");
    run();
    let fresh = std::fs::read(&path).expect("fig2.json was written");
    let mtime = || {
        std::fs::metadata(&path)
            .and_then(|m| m.modified())
            .expect("fig2.json has an mtime")
    };
    let past = mtime() - std::time::Duration::from_secs(86_400);
    std::fs::File::options()
        .write(true)
        .open(&path)
        .and_then(|f| f.set_modified(past))
        .expect("fig2.json mtime is settable");
    run();
    assert_eq!(std::fs::read(&path).expect("fig2.json is readable"), fresh);
    assert_eq!(mtime(), past, "unchanged fig2.json was rewritten");

    let mut stale = fresh.clone();
    stale.truncate(stale.len() / 2);
    std::fs::write(&path, &stale).expect("temp dir is writable");
    run();
    assert_eq!(
        std::fs::read(&path).expect("fig2.json is readable"),
        fresh,
        "stale fig2.json survived"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
