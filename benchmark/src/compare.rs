//! `rkvc-benchmark compare A.json B.json`: did B regress against A?
//!
//! Both files are result files written by a full run (`run.sh`, ideally
//! with `--sets N`). Each end-to-end metric is judged per workload with the
//! bound and direction `BENCHMARK.json` fixes, never as a combined score.

use std::collections::BTreeMap;

use rkvc_tensor::json::JsonValue;

use crate::metrics::Better;
use crate::spec::Spec;
use crate::stats::{median, quartiles};

/// The judgement on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than A's own run-to-run spread.
    Improved,
    /// B's median is within the bound of A's.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Run-to-run spread exceeds the bound and the sets interleave, so the
    /// runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Inter-quartile range over median; zero for a single run.
fn spread(values: &[f64]) -> f64 {
    crate::stats::spread(values).unwrap_or(0.0)
}

/// Judges B's runs against A's.
///
/// Where either side's spread is wider than the bound the pair is
/// unresolved, unless every run of one side beats every run of the other.
/// Otherwise B regressed if its median is worse by more than the bound, and
/// improved if it is better by more than A's own spread.
///
/// # Panics
///
/// Panics if either side has no runs.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (med_a, med_b) = (median(a), median(b));
    let is_better = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let worse_by = match better {
        Better::Lower => (med_b - med_a) / med_a.abs(),
        Better::Higher => (med_a - med_b) / med_a.abs(),
    };
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| is_better(y, x)));
    let all_b_worse = b.iter().all(|&y| a.iter().all(|&x| is_better(x, y)));
    if spread(a).max(spread(b)) > bound {
        return if all_b_better {
            Verdict::Improved
        } else if all_b_worse && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > spread(a) && is_better(med_b, med_a) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `(workload, metric) -> values`, one per untraced run in the file.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Collects the end-to-end values of a result file.
///
/// # Errors
///
/// Describes what is missing from a malformed file.
pub fn load_runs(text: &str) -> Result<Runs, String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let mut out = Runs::new();
    for run in doc
        .get("runs")
        .and_then(JsonValue::as_array)
        .ok_or("result file without a 'runs' array")?
    {
        if run.get("trace").and_then(JsonValue::as_i64) != Some(0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("run without a workload")?;
        for (name, m) in run
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or("run without metrics")?
        {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{workload}/{name}: metric without a value"))?;
            out.entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

fn describe(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, _, q3]) => format!(
            "{:.6} [{:.6}, {:.6}] n={}",
            median(values),
            q1,
            q3,
            values.len()
        ),
        None => format!("{:.6} n=1", median(values)),
    }
}

/// Compares two sets of runs; returns the report and whether any pair
/// regressed.
pub fn compare(spec: &Spec, a: &Runs, b: &Runs) -> (String, bool) {
    let mut report = String::new();
    let mut regressed = false;
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (workload.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                report.push_str(&format!("{workload} {}: missing from one side\n", m.name));
                regressed = true;
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(va, vb, m.better, bound);
            regressed |= v == Verdict::Regressed;
            report.push_str(&format!(
                "{workload} {} ({}, {} is better, bound {bound}): A {} | B {} | B/A {:.4} of base {:.6} -> {}\n",
                m.name,
                m.unit,
                m.better.as_str(),
                describe(va),
                describe(vb),
                median(vb) / median(va),
                median(va),
                v.as_str(),
            ));
        }
    }
    (report, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    fn shifted(by: f64) -> Vec<f64> {
        A.iter().map(|v| v * by).collect()
    }

    #[test]
    fn verdicts_on_synthetic_pairs() {
        // Throughput up 20%, spread about 1%: improved.
        assert_eq!(
            verdict(&A, &shifted(1.2), Better::Higher, 0.1),
            Verdict::Improved
        );
        // The same move on a lower-is-better metric is a regression.
        assert_eq!(
            verdict(&A, &shifted(1.2), Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&A, &shifted(0.8), Better::Higher, 0.1),
            Verdict::Regressed
        );
        // 5% worse is inside a 10% bound.
        assert_eq!(
            verdict(&A, &shifted(0.95), Better::Higher, 0.1),
            Verdict::Unchanged
        );
        // Better by less than A's own spread claims nothing.
        assert_eq!(
            verdict(&A, &shifted(1.001), Better::Higher, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&A, &A, Better::Lower, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sets_separate() {
        let noisy = [80.0, 120.0, 100.0, 60.0, 140.0];
        let noisy_worse: Vec<f64> = noisy.iter().map(|v| v * 0.85).collect();
        assert_eq!(
            verdict(&noisy, &noisy_worse, Better::Higher, 0.1),
            Verdict::Unresolved
        );
        // Every run of B beats every run of A: resolved despite the noise.
        let far_better: Vec<f64> = noisy.iter().map(|v| v * 3.0).collect();
        assert_eq!(
            verdict(&noisy, &far_better, Better::Higher, 0.1),
            Verdict::Improved
        );
        let far_worse: Vec<f64> = noisy.iter().map(|v| v / 3.0).collect();
        assert_eq!(
            verdict(&noisy, &far_worse, Better::Higher, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn compare_reads_result_files_and_flags_regressions() {
        let spec = Spec::parse(
            r#"{"run_seconds": 1, "workloads": [{"name": "w", "why": "test"}],
                "end_to_end": [{"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .expect("spec");
        let file = |v: f64| {
            format!(
                r#"{{"runs": [
                    {{"workload": "w", "trace": 0, "metrics": {{"work_per_s": {{"value": {v}, "unit": "1/s"}}}}}},
                    {{"workload": "w", "trace": 1, "metrics": {{"x": {{"value": 1, "unit": "s"}}}}}}]}}"#
            )
        };
        let a = load_runs(&file(100.0)).expect("a");
        assert_eq!(a.len(), 1, "traced runs are not compared");
        let (report, regressed) = compare(&spec, &a, &load_runs(&file(80.0)).expect("b"));
        assert!(regressed, "{report}");
        assert!(report.contains("B/A 0.8000 of base 100.000000"), "{report}");
        let (report, regressed) = compare(&spec, &a, &load_runs(&file(97.0)).expect("b"));
        assert!(!regressed, "{report}");
        let (_, regressed) = compare(&spec, &a, &Runs::new());
        assert!(regressed, "a metric missing from one side cannot pass");
    }
}
