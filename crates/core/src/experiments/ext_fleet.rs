//! Extension experiment: fleet-scale serving — sharded dispatch, parallel
//! replicas, and telemetry-driven autoscaling.
//!
//! The paper's serving experiments stop at a handful of servers behind one
//! router; production KV-cache questions (how much does prefix dedup
//! survive load balancing? what does the daily peak cost in replicas?)
//! only show up at fleet scale. This extension serves 10⁴-request streams
//! (10⁵ at paper scale) through a 16-replica fleet and asks two questions:
//!
//! 1. **Sharding policy vs dedup.** Round-robin dispatch balances load
//!    perfectly but scatters every shared system prompt across all
//!    replicas — each one re-prefills and re-stores it. Jump consistent
//!    hashing on the prefix-group key keeps each prompt's traffic on one
//!    replica, preserving the single-server dedup ratio that `ext_prefix`
//!    measures.
//! 2. **Autoscaling on non-stationary load.** Diurnal and bursty arrival
//!    generators offer the same request count with very different peak
//!    rates; a queue/latency-threshold autoscaler trades replica-hours
//!    against p99 TTFT, and the per-epoch telemetry trace records the
//!    replica-count curve it drives.
//!
//! Replicas simulate in parallel between telemetry epochs (the fleet
//! layer's `rkvc_tensor::par` fan-out), and results are byte-identical at
//! any `RKVC_THREADS` — CI gate 4 diffs this experiment's JSON at widths
//! 1/3/4.

use rkvc_serving::{
    AutoscaleConfig, Fleet, FleetConfig, FleetOutcome, ServingConfig, ShardPolicy, SimRequest,
};
use rkvc_workload::{sample_fleet, ArrivalPattern, FleetWorkloadConfig};

use super::{ExperimentResult, RunOptions};
use crate::report::Table;

/// Fleet width for the fixed-size sweeps.
const REPLICAS: usize = 16;

/// Per-replica pinned KV pool (tokens), matching `ext_prefix`'s server.
const POOL_TOKENS: usize = 8192;

/// Per-replica continuous-batching width, matching `ext_prefix`.
const MAX_BATCH: usize = 12;

/// Telemetry-epoch width (simulated seconds): long enough to amortize the
/// merge barrier, short enough that the autoscaler sees each diurnal
/// swing many times.
const EPOCH_S: f64 = 5.0;

/// The three offered-load shapes swept against both sharding policies.
/// Rates are calibrated so a 16-replica fleet runs hot but serviceable at
/// the crest (each replica sustains roughly 4–5 req/s at these lengths).
pub fn load_patterns() -> Vec<(&'static str, ArrivalPattern)> {
    vec![
        (
            "uniform",
            ArrivalPattern::Uniform { rps: 48.0 },
        ),
        (
            "diurnal",
            ArrivalPattern::Diurnal {
                base_rps: 12.0,
                peak_rps: 72.0,
                period_s: 120.0,
            },
        ),
        (
            "bursty",
            ArrivalPattern::Bursty {
                base_rps: 16.0,
                burst_rps: 96.0,
                period_s: 60.0,
                burst_fraction: 0.25,
            },
        ),
    ]
}

/// The fleet workload for one pattern at the run scale (deterministic per
/// seed; the seed folds in the pattern index so each cell draws distinct
/// traffic with identical shape statistics).
pub fn fleet_workload(opts: &RunOptions, pattern: ArrivalPattern) -> Vec<SimRequest> {
    let n = opts.pick(10_000, 100_000);
    sample_fleet(&FleetWorkloadConfig::assistants(
        n,
        pattern,
        opts.seed ^ 0xF1EE7,
    ))
}

/// Per-replica serving configuration shared by every cell.
fn replica_config() -> ServingConfig {
    ServingConfig {
        max_batch: MAX_BATCH,
        pool_tokens: Some(POOL_TOKENS),
        prefix_sharing: true,
        ..ServingConfig::default()
    }
}

/// Serves a workload through a fleet of `replicas` under the given
/// sharding policy, optionally autoscaled.
pub fn serve_fleet(
    requests: Vec<SimRequest>,
    replicas: usize,
    sharding: ShardPolicy,
    autoscale: Option<AutoscaleConfig>,
) -> FleetOutcome {
    let cfg = FleetConfig {
        replicas,
        sharding,
        epoch_s: EPOCH_S,
        serving: replica_config(),
        autoscale,
    };
    let dep = super::common::a6000_lmdeploy(rkvc_gpu::LlmSpec::llama2_7b());
    let fleet = Fleet::new(dep, rkvc_kvcache::CompressionConfig::Fp16, cfg)
        .expect("valid fleet-experiment config");
    fleet.run(requests).expect("sorted fleet workload")
}

/// The single-server dedup reference: the same workload through one
/// server given the whole fleet's resources (pool and batch width x16),
/// so its dedup ratio is what sharding must preserve — every prefix group
/// is resident exactly once.
fn serve_single_reference(requests: Vec<SimRequest>) -> FleetOutcome {
    let cfg = FleetConfig {
        replicas: 1,
        sharding: ShardPolicy::ConsistentHash,
        epoch_s: EPOCH_S,
        serving: ServingConfig {
            max_batch: MAX_BATCH * REPLICAS,
            pool_tokens: Some(POOL_TOKENS * REPLICAS),
            prefix_sharing: true,
            ..ServingConfig::default()
        },
        autoscale: None,
    };
    let dep = super::common::a6000_lmdeploy(rkvc_gpu::LlmSpec::llama2_7b());
    let fleet = Fleet::new(dep, rkvc_kvcache::CompressionConfig::Fp16, cfg)
        .expect("valid single-reference config");
    fleet.run(requests).expect("sorted fleet workload")
}

/// The autoscaler used in the autoscaling sweep.
pub(crate) fn autoscale_config() -> AutoscaleConfig {
    AutoscaleConfig {
        min_replicas: 4,
        max_replicas: 24,
        queue_high: 4.0,
        queue_low: 0.5,
        p99_ttft_high_s: 8.0,
        cooldown_epochs: 1,
        step: 4,
    }
}

fn outcome_row(label: &str, policy: &str, o: &FleetOutcome) -> Vec<String> {
    vec![
        label.to_owned(),
        policy.to_owned(),
        format!("{}", o.completed.len()),
        format!("{}", o.dropped),
        format!("{:.2}", o.metrics.ttft.p99()),
        format!("{:.2}", o.metrics.queue_delay.p99()),
        format!("{:.1}", o.slo.goodput_tps),
        format!("{:.1}", o.slo.throughput_tps),
        format!("{:.3}", o.dedup_ratio),
    ]
}

/// Runs the fleet sweep.
pub fn run(opts: &RunOptions) -> ExperimentResult {
    // 1. Offered load x sharding policy at a fixed 16-replica fleet.
    let mut sweep = Table::new(
        "Extension: offered load x sharding policy (16 replicas, no autoscaling)",
        &[
            "load",
            "sharding",
            "completed",
            "dropped",
            "p99 TTFT (s)",
            "p99 queue (s)",
            "goodput (tok/s)",
            "throughput (tok/s)",
            "dedup",
        ],
    );
    let mut hash_dedup_uniform = 1.0f64;
    let mut rr_dedup_uniform = 1.0f64;
    for (label, pattern) in load_patterns() {
        let reqs = fleet_workload(opts, pattern);
        for policy in ShardPolicy::all() {
            let o = serve_fleet(reqs.clone(), REPLICAS, policy, None);
            if label == "uniform" {
                match policy {
                    ShardPolicy::ConsistentHash => hash_dedup_uniform = o.dedup_ratio,
                    ShardPolicy::RoundRobin => rr_dedup_uniform = o.dedup_ratio,
                }
            }
            sweep.push_row(outcome_row(label, policy.label(), &o));
        }
    }

    // 2. Dedup preservation: the same uniform workload through one
    // server with the fleet's pooled resources.
    let single = serve_single_reference(fleet_workload(
        opts,
        load_patterns()[0].1,
    ));
    let mut dedup = Table::new(
        "Prefix-dedup preservation vs a single pooled server (uniform load)",
        &["serving", "dedup", "fraction of single-server dedup"],
    );
    let frac = |d: f64| {
        if single.dedup_ratio > 0.0 {
            d / single.dedup_ratio
        } else {
            0.0
        }
    };
    dedup.push_row(vec![
        "single server (pool x16, batch x16)".to_owned(),
        format!("{:.3}", single.dedup_ratio),
        "1.000".to_owned(),
    ]);
    dedup.push_row(vec![
        format!("{REPLICAS} replicas, consistent_hash"),
        format!("{hash_dedup_uniform:.3}"),
        format!("{:.3}", frac(hash_dedup_uniform)),
    ]);
    dedup.push_row(vec![
        format!("{REPLICAS} replicas, round_robin"),
        format!("{rr_dedup_uniform:.3}"),
        format!("{:.3}", frac(rr_dedup_uniform)),
    ]);

    // 3. Autoscaling on the non-stationary patterns (consistent hashing;
    // jump hashing keeps remaps ~1/(n+1) per replica change).
    let mut scaling = Table::new(
        "Autoscaling on non-stationary load (consistent hashing, 4..24 replicas)",
        &[
            "load",
            "completed",
            "p99 TTFT (s)",
            "goodput (tok/s)",
            "peak replicas",
            "final active",
            "mean active",
            "epochs",
        ],
    );
    let mut trace = Table::new(
        "Replica-count trace under the diurnal pattern (every 4th epoch)",
        &["epoch", "time (s)", "active", "draining", "queued", "epoch p99 TTFT (s)"],
    );
    for (label, pattern) in load_patterns().into_iter().skip(1) {
        let reqs = fleet_workload(opts, pattern);
        let o = serve_fleet(reqs, 8, ShardPolicy::ConsistentHash, Some(autoscale_config()));
        let mean_active = if o.telemetry.is_empty() {
            0.0
        } else {
            rkvc_tensor::seq_sum_f64(o.telemetry.iter().map(|t| t.active_replicas as f64))
                / o.telemetry.len() as f64
        };
        scaling.push_row(vec![
            label.to_owned(),
            format!("{}", o.completed.len()),
            format!("{:.2}", o.metrics.ttft.p99()),
            format!("{:.1}", o.slo.goodput_tps),
            format!("{}", o.peak_replicas),
            format!("{}", o.final_active),
            format!("{mean_active:.1}"),
            format!("{}", o.epochs),
        ]);
        if label == "diurnal" {
            for t in o.telemetry.iter().step_by(4) {
                trace.push_row(vec![
                    format!("{}", t.epoch),
                    format!("{:.0}", t.time_s),
                    format!("{}", t.active_replicas),
                    format!("{}", t.draining_replicas),
                    format!("{}", t.queued),
                    format!("{:.2}", t.epoch_p99_ttft_s),
                ]);
            }
        }
    }

    ExperimentResult {
        id: "ext_fleet".to_owned(),
        title: "Fleet-scale serving: sharded dispatch, parallel replicas, autoscaling"
            .to_owned(),
        tables: vec![sweep, dedup, scaling, trace],
        notes: vec![
            format!(
                "{REPLICAS} A6000/LMDeploy llama2-7b FP16 replicas, per-replica pool \
                 {POOL_TOKENS} tokens / batch {MAX_BATCH}, prefix sharing on, {EPOCH_S}s \
                 telemetry epochs; 16 shared system prompts of 256 tokens."
            ),
            format!(
                "Dedup preservation: consistent hashing keeps {:.1}% of the single-server \
                 dedup ratio; round-robin keeps {:.1}% (every replica re-stores every \
                 popular prefix).",
                100.0 * frac(hash_dedup_uniform),
                100.0 * frac(rr_dedup_uniform)
            ),
            "Shape targets: consistent-hash dedup within 10% of the single-server \
             reference; round-robin substantially below it; the autoscaler's replica \
             trace tracks the diurnal crest and drains toward the floor in the trough."
                .to_owned(),
            "Replicas advance in parallel between epochs (rkvc_tensor::par); output is \
             byte-identical at any RKVC_THREADS (gate 4 diffs widths 1/3/4)."
                .to_owned(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(pattern: ArrivalPattern, n: usize) -> Vec<SimRequest> {
        sample_fleet(&FleetWorkloadConfig::assistants(n, pattern, 0x5EED ^ 0xF1EE7))
    }

    #[test]
    fn consistent_hash_preserves_dedup_round_robin_loses_it() {
        let reqs = small(ArrivalPattern::Uniform { rps: 48.0 }, 2_000);
        let single = serve_single_reference(reqs.clone());
        let hash = serve_fleet(reqs.clone(), REPLICAS, ShardPolicy::ConsistentHash, None);
        let rr = serve_fleet(reqs, REPLICAS, ShardPolicy::RoundRobin, None);
        assert!(
            hash.dedup_ratio >= 0.9 * single.dedup_ratio,
            "hash dedup {} must stay within 10% of single-server {}",
            hash.dedup_ratio,
            single.dedup_ratio
        );
        assert!(
            rr.dedup_ratio < 0.75 * single.dedup_ratio,
            "round-robin dedup {} should lose most of single-server {}",
            rr.dedup_ratio,
            single.dedup_ratio
        );
    }

    #[test]
    fn fleet_serves_the_whole_stream_under_every_policy() {
        let reqs = small(
            ArrivalPattern::Diurnal {
                base_rps: 12.0,
                peak_rps: 72.0,
                period_s: 120.0,
            },
            2_000,
        );
        for policy in ShardPolicy::all() {
            let o = serve_fleet(reqs.clone(), REPLICAS, policy, None);
            assert_eq!(
                o.completed.len(),
                reqs.len(),
                "{} dropped requests",
                policy.label()
            );
            assert_eq!(o.dropped, 0);
            assert!(o.slo.goodput_tps <= o.slo.throughput_tps + 1e-12);
        }
    }

    #[test]
    fn autoscaler_tracks_the_diurnal_swing() {
        let reqs = small(
            ArrivalPattern::Diurnal {
                base_rps: 12.0,
                peak_rps: 72.0,
                period_s: 120.0,
            },
            4_000,
        );
        let o = serve_fleet(reqs, 8, ShardPolicy::ConsistentHash, Some(autoscale_config()));
        assert!(
            o.peak_replicas > 8,
            "crest should scale past the initial 8 (peak {})",
            o.peak_replicas
        );
        let min_active = o
            .telemetry
            .iter()
            .map(|t| t.active_replicas)
            .min()
            .unwrap_or(0);
        assert!(
            min_active < 8,
            "trough should drain below the initial 8 (min {min_active})"
        );
        assert_eq!(o.dropped, 0);
    }

    #[test]
    fn run_is_bit_identical_across_thread_counts() {
        // The full quick run at widths 1/3/4 is gate 4's job; here a
        // trimmed fleet cell locks the same property into `cargo test`.
        let render = || {
            let reqs = small(ArrivalPattern::Uniform { rps: 48.0 }, 1_500);
            let o = serve_fleet(reqs, REPLICAS, ShardPolicy::ConsistentHash, Some(autoscale_config()));
            let telemetry: Vec<String> = o
                .telemetry
                .iter()
                .map(|t| format!("{t:?}"))
                .collect();
            format!(
                "{:?}|{}|{}|{}",
                o.metrics,
                o.dedup_ratio,
                o.peak_replicas,
                telemetry.join(";")
            )
        };
        rkvc_tensor::par::set_threads(Some(1));
        let w1 = render();
        rkvc_tensor::par::set_threads(Some(3));
        let w3 = render();
        rkvc_tensor::par::set_threads(Some(4));
        let w4 = render();
        rkvc_tensor::par::set_threads(None);
        assert_eq!(w1, w3);
        assert_eq!(w1, w4);
    }
}
