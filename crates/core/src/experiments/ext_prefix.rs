//! Extension experiment: prefix sharing + KV tiering on a
//! shared-system-prompt workload.
//!
//! The paper's serving experiments treat the KV pool as a flat
//! per-sequence resource; this extension measures what the serving
//! framework's memory path adds on top of compression. Three block-manager
//! configurations serve the same assistant-style traffic (four 1024-token
//! system prompts, short private suffixes) through one pinned-pool server:
//!
//! * **flat** — the seed manager: every sequence pays for its full prefix.
//! * **shared** — content-hashed copy-on-write prefix sharing: each system
//!   prompt is resident once, later arrivals re-reference it and prefill
//!   only their private suffix.
//! * **shared+tiered** — sharing plus an L2 host-spill tier: preemption
//!   demotes private blocks over PCIe instead of discarding them, and
//!   re-admission refills at transfer cost instead of recompute cost.
//!
//! Reported per variant: completions, peak concurrent batch (the
//! *effective capacity* of the fixed pool), the pool's dedup ratio,
//! preemption count/rate, demoted/refilled block counts, and TTFT/E2E
//! latency summaries.

use rkvc_serving::{SchedulerConfig, ServerSim, ServingConfig, ServingMetrics, SimRequest};
use rkvc_workload::{sample_shared_prefix, PrefixRequest, SharedPrefixConfig};

use super::{ExperimentResult, RunOptions};
use crate::report::Table;

/// Pinned KV pool (tokens): 512 blocks of 16. The four 64-block system
/// prompts cover half the pool when stored once — a flat pool pays that
/// per sequence and fits only a handful of residents.
const POOL_TOKENS: usize = 8192;

/// Host spill tier (blocks) for the tiered variant.
const L2_BLOCKS: usize = 512;

/// Continuous-batching width. Twice what the flat pool can hold (~6
/// sequences of 64 prefix blocks + suffix), yet low enough that the
/// shared pool keeps decode-growth slack — so sharing shows up as
/// capacity, not as thrashing at the admission ceiling.
const MAX_BATCH: usize = 12;

/// One variant's outcome: latency summaries plus pool-level counters.
#[derive(Debug, Clone)]
pub(crate) struct PrefixOutcome {
    /// Completion-stream summaries.
    pub metrics: ServingMetrics,
    /// Peak concurrent running batch — effective capacity at this pool.
    pub peak_batch: usize,
    /// Logical-over-physical block registration ratio (1.0 = no sharing).
    pub dedup_ratio: f64,
    /// Blocks demoted to / refilled from the host tier.
    pub demoted_blocks: u64,
    /// Blocks refilled from the host tier.
    pub refilled_blocks: u64,
    /// Preemptions per completed request.
    pub preempt_rate: f64,
}

/// The experiment's workload at the run scale (deterministic per seed).
pub(crate) fn prefix_workload(opts: &RunOptions) -> Vec<PrefixRequest> {
    let n = opts.pick(48, 600);
    sample_shared_prefix(&SharedPrefixConfig::assistants(n, opts.seed ^ 0x11))
}

/// Serves the workload on one pinned-pool A6000 server with the given
/// block-manager configuration (preemptive scheduling throughout — the
/// regime where the tier matters). `tier` is the host spill tier's
/// capacity in blocks.
pub(crate) fn serve_prefix_workload(
    reqs: &[PrefixRequest],
    prefix_sharing: bool,
    tier: Option<usize>,
) -> PrefixOutcome {
    let cfg = ServingConfig {
        max_batch: MAX_BATCH,
        pool_tokens: Some(POOL_TOKENS),
        scheduler: SchedulerConfig::Preemptive,
        prefix_sharing,
        tier,
        ..ServingConfig::default()
    };
    let dep = super::common::a6000_lmdeploy(rkvc_gpu::LlmSpec::llama2_7b());
    let mut s = ServerSim::with_config(0, dep, rkvc_kvcache::CompressionConfig::Fp16, cfg)
        .expect("valid prefix-experiment config");
    for r in reqs {
        s.enqueue(
            SimRequest::new(
                r.id as u64,
                r.arrival_s,
                r.prompt_len(),
                r.response_len,
            )
            .with_shared_prefix(r.group, r.prefix_len),
        );
    }
    s.run_until_idle();
    let peak_batch = s.peak_batch();
    let stats = *s.block_stats();
    let metrics = ServingMetrics::from_completed(&s.into_completed());
    let preempt_rate = if metrics.completed == 0 {
        0.0
    } else {
        metrics.preemptions as f64 / metrics.completed as f64
    };
    PrefixOutcome {
        peak_batch,
        dedup_ratio: stats.dedup_ratio(),
        demoted_blocks: stats.demoted_blocks,
        refilled_blocks: stats.refilled_blocks,
        preempt_rate,
        metrics,
    }
}

/// The four variants, in baseline-first order: label, prefix sharing,
/// spill-tier capacity.
pub fn variants() -> Vec<(&'static str, bool, Option<usize>)> {
    vec![
        ("flat", false, None),
        ("flat+tiered", false, Some(L2_BLOCKS)),
        ("shared", true, None),
        ("shared+tiered", true, Some(L2_BLOCKS)),
    ]
}

/// Runs the prefix-sharing/tiering ablation.
pub fn run(opts: &RunOptions) -> ExperimentResult {
    let reqs = prefix_workload(opts);

    let mut capacity = Table::new(
        "Extension: prefix sharing + tiering on a shared-system-prompt workload",
        &[
            "Pool",
            "completed",
            "peak batch",
            "dedup ratio",
            "preempt",
            "preempt rate",
            "demoted",
            "refilled",
        ],
    );
    let mut latency = Table::new(
        "Latency by pool configuration",
        &[
            "Pool",
            "mean TTFT (s)",
            "p99 TTFT (s)",
            "mean E2E (s)",
            "p99 E2E (s)",
            "p99 queue (s)",
        ],
    );
    for (label, sharing, tier) in variants() {
        let o = serve_prefix_workload(&reqs, sharing, tier);
        let ttft = o.metrics.row(&o.metrics.ttft);
        let e2e = o.metrics.row(&o.metrics.e2e);
        capacity.push_row(vec![
            label.to_owned(),
            format!("{}", o.metrics.completed),
            format!("{}", o.peak_batch),
            format!("{:.3}", o.dedup_ratio),
            format!("{}", o.metrics.preemptions),
            format!("{:.3}", o.preempt_rate),
            format!("{}", o.demoted_blocks),
            format!("{}", o.refilled_blocks),
        ]);
        latency.push_row(vec![
            label.to_owned(),
            format!("{:.3}", ttft[0]),
            format!("{:.3}", ttft[3]),
            format!("{:.2}", e2e[0]),
            format!("{:.2}", e2e[3]),
            format!("{:.3}", o.metrics.queue_delay.p99()),
        ]);
    }

    ExperimentResult {
        id: "ext_prefix".to_owned(),
        title: "Prefix-shared, tiered KV pool vs flat pool (serving extension)".to_owned(),
        tables: vec![capacity, latency],
        notes: vec![
            format!(
                "Single A6000/LMDeploy llama2-7b FP16 server, preemptive scheduler, pool \
                 pinned to {POOL_TOKENS} tokens; tiered variant adds {L2_BLOCKS} host blocks \
                 over a 25 GB/s PCIe link."
            ),
            "Shape targets: sharing stores each system prompt once (dedup ratio > 1), \
             raising peak batch at the same pool and cutting preemptions; the tier converts \
             surviving preemptions from recompute-prefill to PCIe refills."
                .to_owned(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_is_bit_reproducible() {
        let a = format!("{}", run(&RunOptions::quick()));
        let b = format!("{}", run(&RunOptions::quick()));
        assert_eq!(a, b);
    }
}
