//! The per-layer table: every declared per-layer metric, computed from the
//! traced run's spans and the exact values read off the outputs.

use std::collections::BTreeMap;

use crate::metrics::{per_layer, Metric};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::workloads::{Facts, ALGOS, CLUSTER_CELLS, FLEET_CELLS, SESSION_CELLS};

/// Host-time samples of the generation requests in a trace.
#[derive(Debug, Default, PartialEq)]
struct RequestTimes {
    /// Request start to the end of its first `model.sample`, ns.
    ttft_ns: Vec<f64>,
    /// Gaps between the ends of consecutive `model.sample` spans, ns.
    tbt_ns: Vec<f64>,
    /// Prompt tokens prefilled.
    prompt_tokens: u64,
    /// Tokens decoded.
    decoded_tokens: u64,
    /// Time after the first token, summed over requests, ns.
    decode_ns: f64,
}

/// Walks each `request` span's direct children in order.
fn request_times(tr: &Tracer) -> RequestTimes {
    let spans = tr.spans();
    let mut t = RequestTimes::default();
    let mut last_sample_end: Vec<Option<u64>> = vec![None; spans.len()];
    for s in spans {
        let Some(p) = s.parent.filter(|&p| spans[p].name == "request") else {
            continue;
        };
        match s.name {
            "model.prefill" => t.prompt_tokens += s.work,
            "model.decode" => t.decoded_tokens += s.work,
            "model.sample" => {
                match last_sample_end[p] {
                    None => {
                        t.ttft_ns
                            .push(tr.calibrated_ns(spans[p].start_ns, s.end_ns));
                        t.decode_ns += tr.calibrated_ns(s.end_ns, spans[p].end_ns);
                    }
                    Some(prev) => t.tbt_ns.push(tr.calibrated_ns(prev, s.end_ns)),
                }
                last_sample_end[p] = Some(s.end_ns);
            }
            _ => {}
        }
    }
    t
}

struct Table<'a> {
    tr: &'a Tracer,
    values: BTreeMap<String, (f64, String)>,
}

impl Table<'_> {
    fn put(&mut self, name: impl Into<String>, value: f64, note: String) {
        self.values.insert(name.into(), (value, note));
    }

    /// Median per-work duration of a span kind, scaled from nanoseconds.
    fn timing(&mut self, metric: String, span: &str, arg: &str, per_ns: f64) {
        let samples = self.tr.ns_per_work(span, Some(arg));
        if !samples.is_empty() {
            self.put(
                metric,
                median(&samples) * per_ns,
                format!("median of {} spans", samples.len()),
            );
        }
    }

    /// Median rate (work per nanosecond, scaled) of a span kind.
    fn rate(&mut self, metric: &str, span: &str, arg: &str, scale: f64) {
        let samples = self.tr.ns_per_work(span, Some(arg));
        if !samples.is_empty() {
            self.put(
                metric,
                scale / median(&samples),
                format!("median of {} spans", samples.len()),
            );
        }
    }

    /// Median and supported tail of pooled samples, scaled from nanoseconds.
    fn distribution(
        &mut self,
        p50: Option<String>,
        tail_name: Option<String>,
        ns: &[f64],
        per_ns: f64,
    ) {
        if ns.is_empty() {
            return;
        }
        if let Some(name) = p50 {
            self.put(name, median(ns) * per_ns, format!("n={}", ns.len()));
        }
        if let Some(name) = tail_name {
            let (p, v) = tail(ns);
            self.put(name, v * per_ns, format!("p{p} of n={}", ns.len()));
        }
    }
}

/// Computes the table. Every timing is calibrated time (see
/// [`Tracer::calibrated_ns`]).
///
/// # Errors
///
/// Names the declared metrics that nothing measured.
pub fn table(tr: &Tracer, facts: &Facts, trace_overhead: f64) -> Result<Vec<Metric>, String> {
    let mut t = Table {
        tr,
        values: BTreeMap::new(),
    };
    const US: f64 = 1e-3;
    const MS: f64 = 1e-6;

    // Work is flops, so work per nanosecond is GFLOP/s.
    t.rate(
        "tensor.matmul_gflops.prefill",
        "tensor.matmul",
        "prefill",
        1.0,
    );
    t.rate(
        "tensor.matmul_gflops.decode",
        "tensor.matmul",
        "decode",
        1.0,
    );
    t.rate(
        "tensor.matmul_t_gflops.logits",
        "tensor.matmul_t",
        "logits",
        1.0,
    );
    // Work is bytes; bytes per nanosecond is GB/s.
    t.rate("tensor.json_mb_per_s", "tensor.json", "", 1e3);
    t.timing(
        "tensor.softmax_ns_per_elem".into(),
        "tensor.softmax",
        "",
        1.0,
    );
    t.timing(
        "tensor.pool_dispatch_ns".into(),
        "tensor.pool_dispatch",
        "",
        1.0,
    );

    for algo in ALGOS {
        t.timing(
            format!("kvcache.build_us.{algo}"),
            "kvcache.build",
            algo,
            US,
        );
        t.timing(
            format!("kvcache.append_ns.{algo}"),
            "kvcache.append",
            algo,
            1.0,
        );
        t.timing(
            format!("kvcache.finish_prefill_us.{algo}"),
            "kvcache.finish_prefill",
            algo,
            US,
        );
        t.timing(
            format!("kvcache.attend_us.{algo}"),
            "kvcache.attend",
            algo,
            US,
        );
        let prefill: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == "model.prefill" && s.arg == algo)
            .map(|s| tr.span_ns(s))
            .collect();
        t.distribution(
            Some(format!("model.prefill_ms_p50.{algo}")),
            None,
            &prefill,
            MS,
        );
        let decode = tr.ns_per_work("model.decode", Some(algo));
        t.distribution(
            Some(format!("model.decode_us_p50.{algo}")),
            Some(format!("model.decode_us_tail.{algo}")),
            &decode,
            US,
        );
    }
    let setup = tr.ns_per_work("model.start_session", None);
    t.distribution(Some("model.session_setup_us_p50".into()), None, &setup, US);
    let sample = tr.ns_per_work("model.sample", None);
    t.distribution(Some("model.sample_us_p50".into()), None, &sample, US);
    let r = request_times(tr);
    t.distribution(
        Some("model.ttft_ms_p50".into()),
        Some("model.ttft_ms_tail".into()),
        &r.ttft_ns,
        MS,
    );
    t.distribution(
        Some("model.tbt_us_p50".into()),
        Some("model.tbt_us_tail".into()),
        &r.tbt_ns,
        US,
    );
    let ttft_total: f64 = r.ttft_ns.iter().sum();
    if ttft_total > 0.0 && r.decode_ns > 0.0 {
        let note = format!("{} requests", r.ttft_ns.len());
        t.put(
            "model.prefill_tok_per_s",
            r.prompt_tokens as f64 / ttft_total * 1e9,
            note.clone(),
        );
        t.put(
            "model.decode_tok_per_s",
            r.decoded_tokens as f64 / r.decode_ns * 1e9,
            note,
        );
    }

    t.timing("gpu.decode_step_ns".into(), "gpu.decode_step", "", 1.0);
    t.timing("gpu.prefill_ns".into(), "gpu.prefill", "", 1.0);
    t.timing(
        "workload.sample_conversations_ms".into(),
        "workload.sample_conversations",
        "",
        MS,
    );
    t.timing(
        "workload.sample_sessions_ms".into(),
        "workload.sample_sessions",
        "",
        MS,
    );
    t.timing(
        "workload.sample_fleet_ms".into(),
        "workload.sample_fleet",
        "",
        MS,
    );
    t.timing(
        "core.cluster_workload_s".into(),
        "core.cluster_workload",
        "",
        1e-9,
    );
    t.timing(
        "core.throughput_fit_ms".into(),
        "core.throughput_fit",
        "",
        MS,
    );
    t.timing(
        "core.throughput_predict_ns".into(),
        "core.throughput_predict",
        "",
        1.0,
    );
    t.timing("core.length_fit_ms".into(), "core.length_fit", "", MS);
    t.timing(
        "core.length_predict_ns".into(),
        "core.length_predict",
        "",
        1.0,
    );
    for cell in CLUSTER_CELLS {
        t.timing(
            format!("serving.cluster_us_per_req.{cell}"),
            "serving.cluster",
            cell,
            US,
        );
    }
    for cell in SESSION_CELLS {
        t.timing(
            format!("serving.session_us_per_turn.{cell}"),
            "serving.session",
            cell,
            US,
        );
    }
    for cell in FLEET_CELLS {
        t.timing(
            format!("serving.fleet_us_per_req.{cell}"),
            "serving.fleet",
            cell,
            US,
        );
    }

    for (name, value) in facts {
        t.put(name.clone(), *value, "exact".to_owned());
    }
    let calib_ms = tr.calib_ms();
    if !calib_ms.is_empty() {
        let note = format!("{} samples, each the fastest of 3 spins", calib_ms.len());
        t.put("harness.calib_ms", median(&calib_ms), note.clone());
        let spread = crate::stats::spread(&calib_ms).unwrap_or(0.0);
        t.put("harness.calib_spread", spread, note);
    }
    t.put(
        "harness.trace_overhead",
        trace_overhead,
        "traced / untraced median pass".to_owned(),
    );

    let mut missing = Vec::new();
    let metrics: Vec<Metric> = per_layer()
        .into_iter()
        .filter_map(|d| match t.values.remove(&d.name) {
            Some((value, note)) => Some(Metric {
                name: d.name,
                value,
                unit: d.unit,
                note,
            }),
            None => {
                missing.push(d.name);
                None
            }
        })
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "declared per-layer metrics nothing measured: {}",
            missing.join(", ")
        ));
    }
    if let Some(extra) = t.values.keys().next() {
        return Err(format!("measured but undeclared per-layer metric: {extra}"));
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, work: u64) -> Span {
        Span {
            name,
            arg: "fp16",
            id: 0,
            work,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn ttft_and_tbt_come_from_sample_ends() {
        let spans = vec![
            span("request", 100, 1000, None, 1),
            span("model.start_session", 100, 110, Some(0), 1),
            span("model.prefill", 110, 400, Some(0), 50),
            span("model.sample", 400, 420, Some(0), 1),
            span("model.decode", 420, 600, Some(0), 1),
            span("model.sample", 600, 610, Some(0), 1),
            span("model.decode", 610, 900, Some(0), 1),
            span("model.sample", 900, 1000, Some(0), 1),
            // A probe-side sample outside any request is not a token gap.
            span("model.sample", 2000, 2010, None, 1),
        ];
        let r = request_times(&Tracer::from_spans(spans));
        assert_eq!(r.ttft_ns, vec![320.0]);
        assert_eq!(r.tbt_ns, vec![190.0, 390.0]);
        assert_eq!((r.prompt_tokens, r.decoded_tokens), (50, 2));
        assert_eq!(r.decode_ns, 580.0);
    }

    #[test]
    fn table_reports_what_is_missing() {
        let err = table(&Tracer::off(), &Facts::new(), 1.0).expect_err("nothing was measured");
        assert!(err.contains("tensor.matmul_gflops.prefill"), "{err}");
        assert!(!err.contains("harness.trace_overhead"), "{err}");
    }
}
