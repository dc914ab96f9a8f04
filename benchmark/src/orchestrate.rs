//! The full benchmark: every workload in a process of its own, one after
//! the other, results gathered into `benchmark/out/result.json`.
//!
//! A fresh process per workload keeps `peak_rss_mb`, the lazily spawned
//! worker pool and allocator state from leaking between workloads. Load is
//! one closed-loop client: the callers of this code are batch pipelines
//! that wait for each reply.

use std::collections::BTreeMap;
use std::process::Command;

use rkvc_tensor::json::JsonValue;

use crate::harness::{calib_spin_ms, environment};
use crate::spec::{Spec, SpecMetric};
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;

/// Where the combined result goes, relative to the repo root.
pub const RESULT_PATH: &str = "benchmark/out/result.json";

/// What the full benchmark runs.
pub struct Plan {
    /// Seed handed to every workload.
    pub seed: u64,
    /// Host seconds of timed passes per untraced run.
    pub seconds: f64,
    /// Also make a traced run of each workload.
    pub trace: bool,
    /// Full sets to run; more than one reports run-to-run spread.
    pub sets: usize,
}

/// One child run, parsed back from its result line.
struct ChildRun {
    workload: &'static str,
    trace: bool,
    set: usize,
    result: JsonValue,
}

impl ChildRun {
    fn ok(&self) -> bool {
        self.result.get("correct").and_then(JsonValue::as_bool) == Some(true)
            && self.result.get("failed").and_then(JsonValue::as_i64) == Some(0)
    }

    fn metrics(&self) -> &[(String, JsonValue)] {
        self.result
            .get("metrics")
            .and_then(JsonValue::as_object)
            .unwrap_or(&[])
    }
}

/// Runs this executable on one workload, echoing its report, and parses
/// the result line. The child has ended by the time this returns.
fn child(
    workload: &'static str,
    extra: &[String],
    trace: bool,
    set: usize,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(extra)
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            output.status
        ));
    }
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    let result = JsonValue::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    Ok(ChildRun {
        workload,
        trace,
        set,
        result,
    })
}

fn result_file(plan: &Plan, runs: &[ChildRun], calib_ms: f64) -> JsonValue {
    let mut fields: Vec<(&str, JsonValue)> = environment()
        .into_iter()
        .map(|(k, v)| (k, JsonValue::Str(v)))
        .collect();
    fields.push(("seed", JsonValue::Str(format!("{:#x}", plan.seed))));
    fields.push(("seconds", JsonValue::Float(plan.seconds)));
    fields.push(("harness.calib_ms", JsonValue::Float(calib_ms)));
    let runs = runs
        .iter()
        .map(|r| {
            let mut run = vec![
                ("workload".to_owned(), JsonValue::Str(r.workload.to_owned())),
                ("trace".to_owned(), JsonValue::Int(i64::from(r.trace))),
                ("set".to_owned(), JsonValue::Int(r.set as i64)),
            ];
            run.extend(r.result.as_object().unwrap_or(&[]).iter().cloned());
            JsonValue::Object(run)
        })
        .collect();
    fields.push(("runs", JsonValue::Array(runs)));
    JsonValue::object(fields)
}

/// Observed spread of each end-to-end metric over the sets, next to its
/// bound.
fn spread_report(spec: &Spec, runs: &[ChildRun]) -> String {
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for r in runs.iter().filter(|r| !r.trace) {
        for (name, m) in r.metrics() {
            if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                values
                    .entry((r.workload, name.as_str()))
                    .or_default()
                    .push(v);
            }
        }
    }
    let mut out = String::new();
    for ((workload, name), v) in &values {
        let bound = spec
            .end_to_end
            .iter()
            .find(|m| m.name == *name)
            .and_then(|m| m.bound);
        if let (Some(s), Some(bound)) = (spread(v), bound) {
            let flag = if s > bound { "  EXCEEDS BOUND" } else { "" };
            out.push_str(&format!(
                "spread {workload} {name}: median {:.6}, IQR/median {s:.4} over {} sets, bound {bound}{flag}\n",
                median(v),
                v.len()
            ));
        }
    }
    out
}

/// Runs the plan. Returns whether every run's outputs were correct.
///
/// # Errors
///
/// Returns a message when a child cannot be run or the result file cannot
/// be written.
pub fn run(plan: &Plan) -> Result<bool, String> {
    let spec = Spec::load()?;
    let calib_ms = median(&(0..5).map(|_| calib_spin_ms()).collect::<Vec<_>>());
    let extra = [
        "--seed".to_owned(),
        plan.seed.to_string(),
        "--seconds".to_owned(),
        plan.seconds.to_string(),
    ];
    let mut runs = Vec::new();
    for set in 0..plan.sets {
        for w in &WORKLOADS {
            runs.push(child(w.name, &extra, false, set)?);
            if plan.trace {
                runs.push(child(w.name, &extra, true, set)?);
            }
        }
    }
    let doc = result_file(plan, &runs, calib_ms);
    std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(RESULT_PATH, doc.to_pretty_string()))
        .map_err(|e| format!("cannot write {RESULT_PATH}: {e}"))?;
    println!("wrote {RESULT_PATH}");
    print!("{}", spread_report(&spec, &runs));
    Ok(runs.iter().all(ChildRun::ok))
}

/// Names printed more or less than exactly once with the declared unit.
fn name_problems(run: &ChildRun, declared: &[SpecMetric]) -> Vec<String> {
    let printed = run.metrics();
    let mut problems = Vec::new();
    for d in declared {
        let units: Vec<_> = printed
            .iter()
            .filter(|(name, _)| *name == d.name)
            .map(|(_, m)| m.get("unit").and_then(JsonValue::as_str))
            .collect();
        if units != [Some(d.unit.as_str())] {
            problems.push(format!(
                "{} trace {}: {} printed {} times with units {units:?}, declared once as {}",
                run.workload,
                u8::from(run.trace),
                d.name,
                units.len(),
                d.unit
            ));
        }
    }
    for (name, _) in printed {
        if !declared.iter().any(|d| d.name == *name) {
            problems.push(format!(
                "{}: {name} is printed but not declared",
                run.workload
            ));
        }
    }
    problems
}

/// `--check`: every workload at one tiny pass, plus one traced run, asserting
/// that every name `BENCHMARK.json` declares is printed exactly once with
/// its unit and that the default-seed digests match. Returns the problems.
///
/// # Errors
///
/// Returns a message when a child cannot be run.
pub fn check(seed: u64) -> Result<Vec<String>, String> {
    let spec = Spec::load()?;
    let extra = ["--check".to_owned(), "--seed".to_owned(), seed.to_string()];
    let mut problems = Vec::new();
    let declared: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
    let coded: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if declared != coded {
        problems.push(format!(
            "BENCHMARK.json workloads {declared:?} differ from {coded:?}"
        ));
    }
    for w in &WORKLOADS {
        let run = child(w.name, &extra, false, 0)?;
        if !run.ok() {
            problems.push(format!(
                "{}: outputs incorrect (see its report above)",
                w.name
            ));
        }
        problems.extend(name_problems(&run, &spec.end_to_end));
    }
    let traced = child("gen_short", &extra, true, 0)?;
    if !traced.ok() {
        problems.push("gen_short traced: outputs incorrect (see its report above)".to_owned());
    }
    problems.extend(name_problems(&traced, &spec.per_layer));
    Ok(problems)
}
