//! Extension experiment: scheduler policy ablation on the serving engine.
//!
//! The paper's serving experiments (§5.4) hold the scheduler fixed at FCFS
//! continuous batching and vary routing. This extension varies the
//! *scheduler* on the Table 8 cluster workload: FCFS, shortest-predicted-
//! first (consuming the same length predictions the router is fitted on),
//! and a preemptive policy that evicts-and-recomputes the youngest sequence
//! when the block pool runs dry (vLLM's recompute-mode preemption, priced
//! through the roofline model). The KV pool is pinned below the HBM-derived
//! size so block pressure — the regime where compression matters at all —
//! actually materializes at quick scale.

use rkvc_serving::{Cluster, RoutingPolicy, SchedulerConfig, ServingConfig, ServingMetrics};

use super::workloads::{cluster_workload, ClusterWorkload};
use super::{ExperimentResult, RunOptions};
use crate::report::Table;

/// Pinned per-server KV pool (tokens). Large enough that the longest
/// Table 8 request (a 3500-token prompt plus its response) still fits on
/// its own; small enough that co-batched sequences overcommit it during
/// decode. Note the eviction servers feel far less pressure than the FP16
/// server: H2O pins only its budget worth of blocks per sequence.
const POOL_TOKENS: usize = 3584;

/// Serves the Table 8 H2O-column workload under `sched`, routing with the
/// paper's combined policy, and summarizes the completion stream.
pub fn serve_workload(w: &ClusterWorkload, sched: SchedulerConfig) -> ServingMetrics {
    let cfg = ServingConfig {
        max_batch: 16,
        pool_tokens: Some(POOL_TOKENS),
        scheduler: sched,
        ..ServingConfig::default()
    };
    let done = Cluster::new(w.servers(cfg), RoutingPolicy::Both)
        .expect("four servers")
        .run(w.requests.clone(), &w.router)
        .expect("table8 arrivals are sorted");
    ServingMetrics::from_completed(&done)
}

/// Runs the scheduler ablation.
pub fn run(opts: &RunOptions) -> ExperimentResult {
    let w = cluster_workload(opts);

    let mut summary = Table::new(
        "Extension: scheduler ablation on the Table 8 workload (pinned pool)",
        &[
            "Scheduler",
            "completed",
            "preempt",
            "mean E2E (s)",
            "p99 E2E (s)",
            "mean TTFT (s)",
            "p99 TTFT (s)",
        ],
    );
    let mut delays = Table::new(
        "Queue delay and inter-token latency by scheduler",
        &[
            "Scheduler",
            "mean queue (s)",
            "p50 queue (s)",
            "p95 queue (s)",
            "p99 queue (s)",
            "mean TBT (s)",
            "p99 TBT (s)",
        ],
    );
    for sched in SchedulerConfig::all() {
        let m = serve_workload(&w, sched);
        let e2e = m.row(&m.e2e);
        let ttft = m.row(&m.ttft);
        let q = m.row(&m.queue_delay);
        let tbt = m.row(&m.tbt);
        summary.push_row(vec![
            sched.label().to_owned(),
            format!("{}", m.completed),
            format!("{}", m.preemptions),
            format!("{:.2}", e2e[0]),
            format!("{:.2}", e2e[3]),
            format!("{:.2}", ttft[0]),
            format!("{:.2}", ttft[3]),
        ]);
        delays.push_row(vec![
            sched.label().to_owned(),
            format!("{:.3}", q[0]),
            format!("{:.3}", q[1]),
            format!("{:.3}", q[2]),
            format!("{:.3}", q[3]),
            format!("{:.4}", tbt[0]),
            format!("{:.4}", tbt[3]),
        ]);
    }

    ExperimentResult {
        id: "ext_scheduler".to_owned(),
        title: "Scheduler policies under block pressure (serving engine ablation)".to_owned(),
        tables: vec![summary, delays],
        notes: vec![
            format!(
                "Four-server Table 8 H2O cluster, combined routing, pool pinned to \
                 {POOL_TOKENS} tokens/server."
            ),
            "Shape targets: SPF reorders the queue so short requests see lower mean TTFT; \
             the preemptive policy admits eagerly (preemptions > 0 under pressure) and \
             trades recompute time for queue delay."
                .to_owned(),
        ],
    }
}
