//! Figure 5 (and appendix Figure 16): the CDF of per-request end-to-end
//! latency under each compression algorithm at batch size 1.
//!
//! E2E latency combines two effects the paper insists on separating from
//! throughput-only evaluation: per-token speed (the cost model) and the
//! compression-induced response-length shift (measured on TinyLM and
//! transferred to paper-scale requests as multipliers).

use rkvc_gpu::LlmSpec;
use rkvc_kvcache::CompressionConfig;
use rkvc_model::TinyLm;
use rkvc_serving::LatencySummary;
#[cfg(test)]
use rkvc_serving::{ServerSim, ServingConfig, ServingMetrics, SimRequest};
use rkvc_tensor::seeded_rng;
use rkvc_workload::{sample_conversations, ShareGptConfig};

use super::common::{a6000_lmdeploy, length_multipliers, paper_algos, tiny_llama, tiny_mistral};
use super::{ExperimentResult, RunOptions};
use crate::report::Table;

/// Runs the Figure 5 measurement for one TinyLM length model.
pub(crate) fn run_for_model(model: &TinyLm, llm: LlmSpec, id: &str, opts: &RunOptions) -> ExperimentResult {
    let n_requests = opts.pick(40, 1000);
    let n_tiny = opts.pick(16, 120);
    let dep = a6000_lmdeploy(llm);
    let requests = sample_conversations(&ShareGptConfig::paper_scale(n_requests, opts.seed), 64);
    let algos = paper_algos();

    let mut summary_table = Table::new(
        format!("Fig5 E2E latency (s), batch=1 ({id})"),
        &["algo", "mean", "p50", "p95", "p99"],
    );
    // CDF probe points anchored to the FP16 latency distribution so every
    // algorithm's curve is read at comparable abscissae.
    let mut probes: Vec<f64> = Vec::new();
    let mut cdf_table = Table::new(
        format!("Fig5 E2E latency CDF at FP16-quantile probe points ({id})"),
        &["algo", "P(<=fp16 p25)", "P(<=fp16 p50)", "P(<=fp16 p75)", "P(<=fp16 p95)"],
    );

    for (i, (label, cfg)) in algos.iter().enumerate() {
        // Length multipliers: FP16 keeps reference lengths; compression
        // algorithms get the measured TinyLM shift distribution (the
        // matching scaled config by suite position).
        let multipliers = if matches!(cfg, CompressionConfig::Fp16) {
            vec![1.0]
        } else {
            let scaled = &rkvc_workload::scaled_paper_suite()[i].config;
            length_multipliers(model, n_tiny, scaled, opts.seed ^ 0xF15)
        };
        let mut rng = seeded_rng(opts.seed ^ (i as u64) << 8);
        let latencies: Vec<f64> = requests
            .iter()
            .map(|r| {
                let m = multipliers[rng.gen_range(0..multipliers.len())];
                let resp = ((r.reference_response_len as f64 * m).round() as usize)
                    .clamp(1, 1024);
                dep.request_latency(cfg, 1, r.prompt_len.min(3500), resp)
            })
            .collect();
        let s = LatencySummary::new(latencies);
        if probes.is_empty() {
            // First algorithm in the suite is FP16: anchor the probes.
            probes = vec![
                s.percentile(25.0),
                s.p50(),
                s.percentile(75.0),
                s.p95(),
            ];
        }
        summary_table.push_row(vec![
            label.clone(),
            format!("{:.2}", s.mean()),
            format!("{:.2}", s.p50()),
            format!("{:.2}", s.p95()),
            format!("{:.2}", s.p99()),
        ]);
        let cdf = s.cdf(&probes);
        cdf_table.push_row(
            std::iter::once(label.clone())
                .chain(cdf.iter().map(|p| format!("{p:.3}")))
                .collect(),
        );
    }

    ExperimentResult {
        id: id.to_owned(),
        title: "CDF of end-to-end latency under compression".to_owned(),
        tables: vec![summary_table, cdf_table],
        notes: vec![
            "Shape target: compression's E2E gains are muted once length shifts are counted; \
             GEAR shows the worst tail latency (slowest per-token path + lengthened outputs)."
                .to_owned(),
        ],
    }
}

/// Serves the Figure 5 request stream (FP16 reference lengths) through one
/// engine server under the options' scheduler, summarizing per-request
/// serving metrics.
///
/// This is the serving-path companion to the closed-form tables in
/// [`run`]: there each request is priced in isolation at batch 1, while
/// here the same stream queues into a continuously-batched server where
/// admission order, block pressure, and preemption policy decide TTFT and
/// queue delay. `pool_tokens` pins the KV pool (`None` = the deployment's
/// HBM-derived pool).
#[cfg(test)]
pub(crate) fn served_metrics(opts: &RunOptions, pool_tokens: Option<usize>) -> ServingMetrics {
    let n_requests = opts.pick(40, 1000);
    let dep = a6000_lmdeploy(LlmSpec::llama2_7b());
    let conversations =
        sample_conversations(&ShareGptConfig::paper_scale(n_requests, opts.seed), 64);
    let cfg = ServingConfig {
        max_batch: 16,
        pool_tokens,
        scheduler: opts.scheduler,
        ..ServingConfig::default()
    };
    let mut server = ServerSim::with_config(0, dep, CompressionConfig::Fp16, cfg)
        .expect("fig5 serving config is valid");
    for c in &conversations {
        server.enqueue(SimRequest::new(
            c.id as u64,
            c.arrival_s,
            c.prompt_len.min(3500),
            c.reference_response_len.clamp(1, 1024),
        ));
    }
    ServingMetrics::from_completed(&server.run_to_completion())
}

/// Runs Figure 5 (LLaMA-family).
pub fn run(opts: &RunOptions) -> ExperimentResult {
    run_for_model(&tiny_llama(), LlmSpec::llama2_7b(), "fig5", opts)
}

/// Runs appendix Figure 16 (Mistral-family).
pub(crate) fn run_mistral(opts: &RunOptions) -> ExperimentResult {
    run_for_model(&tiny_mistral(), LlmSpec::mistral_7b(), "fig16", opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_stream_completes_under_every_scheduler() {
        let mut opts = RunOptions::quick();
        let fcfs = served_metrics(&opts, None);
        assert_eq!(fcfs.completed, opts.pick(40, 1000));
        assert_eq!(fcfs.preemptions, 0, "FCFS never preempts");
        assert!(fcfs.e2e.mean() >= fcfs.ttft.mean());
        for sched in rkvc_serving::SchedulerConfig::all() {
            opts.scheduler = sched;
            // Pool pinned low enough to queue but high enough that every
            // request (prompt <= 3500 + response <= 1024) still fits.
            let m = served_metrics(&opts, Some(8192));
            assert_eq!(m.completed, fcfs.completed, "{sched:?} dropped requests");
        }
    }
}
