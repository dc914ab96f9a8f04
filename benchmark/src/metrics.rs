//! The metrics this benchmark reports: the code's side of `BENCHMARK.json`.
//!
//! `BENCHMARK.json` is what the outside world reads; a test keeps it equal
//! to these declarations, name for name and unit for unit.

use crate::workloads::{ALGOS, CLUSTER_CELLS, FLEET_CELLS, SESSION_CELLS};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parses the `BENCHMARK.json` spelling.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// A declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// A measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count, percentile or definition detail for the human report.
    pub note: String,
}

use Better::{Higher, Lower};

/// End-to-end metrics. Every workload reports every one of them, each with
/// its own unit of work (see the README's workload table).
pub fn end_to_end() -> Vec<Decl> {
    let d = |name: &str, unit, better, bound| Decl {
        name: name.to_owned(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        d("work_per_s", "1/s", Higher, 0.25),
        d("peak_rss_mb", "MB", Lower, 0.25),
        d("setup_s", "s", Lower, 0.25),
    ]
}

/// Per-layer metrics, reported by the traced run of every workload.
pub fn per_layer() -> Vec<Decl> {
    let mut out = Vec::new();
    let mut d = |name: String, unit, better| {
        out.push(Decl {
            name,
            unit,
            better,
            bound: None,
        })
    };
    let mut each = |prefix: &str, cells: &[&str], unit, better| {
        for c in cells {
            d(format!("{prefix}.{c}"), unit, better);
        }
    };

    each(
        "tensor.matmul_gflops",
        &["prefill", "decode"],
        "gflop/s",
        Higher,
    );
    each("tensor.matmul_t_gflops", &["logits"], "gflop/s", Higher);
    each("kvcache.build_us", &ALGOS, "us", Lower);
    each("kvcache.append_ns", &ALGOS, "ns", Lower);
    each("kvcache.finish_prefill_us", &ALGOS, "us", Lower);
    each("kvcache.attend_us", &ALGOS, "us", Lower);
    each("kvcache.retained_share", &ALGOS, "ratio", Higher);
    each("model.prefill_ms_p50", &ALGOS, "ms", Lower);
    each("model.decode_us_p50", &ALGOS, "us", Lower);
    each("model.decode_us_tail", &ALGOS, "us", Lower);
    each("model.kv_bytes_per_tok", &ALGOS, "B/tok", Lower);
    each("serving.cluster_us_per_req", &CLUSTER_CELLS, "us", Lower);
    each("serving.session_us_per_turn", &SESSION_CELLS, "us", Lower);
    each("serving.fleet_us_per_req", &FLEET_CELLS, "us", Lower);
    each(
        "serving.fleet_dedup_ratio",
        &["hash", "rr"],
        "ratio",
        Higher,
    );
    each(
        "serving.sim_ttft_p99_s",
        &["cluster", "session", "fleet"],
        "s",
        Lower,
    );

    for (name, unit, better) in [
        ("tensor.softmax_ns_per_elem", "ns", Lower),
        ("tensor.pool_dispatch_ns", "ns", Lower),
        ("tensor.json_mb_per_s", "MB/s", Higher),
        ("model.session_setup_us_p50", "us", Lower),
        ("model.sample_us_p50", "us", Lower),
        ("model.ttft_ms_p50", "ms", Lower),
        ("model.ttft_ms_tail", "ms", Lower),
        ("model.tbt_us_p50", "us", Lower),
        ("model.tbt_us_tail", "us", Lower),
        ("model.prefill_tok_per_s", "tok/s", Higher),
        ("model.decode_tok_per_s", "tok/s", Higher),
        ("gpu.decode_step_ns", "ns", Lower),
        ("gpu.prefill_ns", "ns", Lower),
        ("workload.sample_conversations_ms", "ms", Lower),
        ("workload.sample_sessions_ms", "ms", Lower),
        ("workload.sample_fleet_ms", "ms", Lower),
        ("core.cluster_workload_s", "s", Lower),
        ("core.throughput_fit_ms", "ms", Lower),
        ("core.throughput_predict_ns", "ns", Lower),
        ("core.length_fit_ms", "ms", Lower),
        ("core.length_predict_ns", "ns", Lower),
        ("serving.cluster_preemptions", "count", Lower),
        ("serving.session_dedup_ratio", "ratio", Higher),
        ("serving.session_goodput_tps", "tok/s", Higher),
        ("serving.fleet_epochs", "count", Lower),
        ("serving.fleet_peak_replicas", "count", Lower),
        ("harness.calib_ms", "ms", Lower),
        ("harness.calib_spread", "ratio", Lower),
        ("harness.trace_overhead", "ratio", Lower),
    ] {
        d(name.to_owned(), unit, better);
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<Decl> = end_to_end().into_iter().chain(per_layer()).collect();
        let names: std::collections::BTreeSet<&str> = all.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(per_layer().len() <= 128);
        for d in &all {
            assert!(d.name.len() <= 64, "{}", d.name);
            assert!(
                d.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{}",
                d.name
            );
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(d.unit.len() <= 16);
            assert!(
                d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
        }
        assert!(end_to_end()
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(end_to_end()
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    }
}
