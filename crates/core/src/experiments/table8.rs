//! Table 8: average end-to-end latency of the predictor-driven request
//! router (§5.4).
//!
//! Topology per the paper: four A6000 GPUs serving LLaMA-7B with LMDeploy.
//! *Baseline* runs the same configuration on all four GPUs with
//! memory-based load balancing; the three predictor policies run one FP16
//! GPU plus three compression GPUs and route per prediction.
//!
//! The workload builders (conversation stream, length-shift synthesis, the
//! fitted router) live in [`super::workloads`] so scheduler ablations and
//! `benchmark/`'s `sim_cluster` workload can replay the same stream.

use rkvc_gpu::LlmSpec;
use rkvc_kvcache::CompressionConfig;
use rkvc_serving::{Cluster, OraclePredictor, RoutingPolicy, ServingConfig};

use super::common::{a6000_lmdeploy, tiny_llama};
use super::workloads::{build_requests, column_workload, columns, server, table8_conversations};
use super::{ExperimentResult, RunOptions};

const MAX_BATCH: usize = 16;

/// Serving config for Table 8 servers: the seed batch width plus the
/// caller's scheduler selection. With the default FCFS scheduler this is
/// identical to the pre-engine simulator.
fn serving_config(opts: &RunOptions) -> ServingConfig {
    ServingConfig {
        scheduler: opts.scheduler,
        ..ServingConfig::with_max_batch(MAX_BATCH)
    }
}

fn mean_e2e(done: &[rkvc_serving::CompletedRequest]) -> f64 {
    rkvc_tensor::seq_sum_f64(done.iter().map(|c| c.e2e_s)) / done.len().max(1) as f64
}

/// Runs Table 8.
pub fn run(opts: &RunOptions) -> ExperimentResult {
    let dep = a6000_lmdeploy(LlmSpec::llama2_7b());
    let model = tiny_llama();
    let conversations = table8_conversations(opts);

    let mut t = crate::report::Table::new(
        "Table 8: average E2E latency (s) of routing policies",
        &["Policy", "FP16", "KIVI", "GEAR", "H2O", "Stream"],
    );

    // FP16 column: only the baseline row is defined (the predictor rows mix
    // FP16 with a compression algorithm).
    let fp16_requests = build_requests(&conversations, &[1.0], None, opts.seed);
    let fp16_baseline = {
        let servers = (0..4)
            .map(|i| server(i, &dep, CompressionConfig::Fp16, serving_config(opts)))
            .collect();
        let done = Cluster::new(servers, RoutingPolicy::LoadBalance)
            .expect("four servers")
            .run(fp16_requests, &OraclePredictor)
            .expect("arrivals sorted by construction");
        mean_e2e(&done)
    };

    let mut rows: Vec<Vec<String>> = RoutingPolicy::all()
        .iter()
        .map(|p| {
            vec![
                p.label().to_owned(),
                if matches!(p, RoutingPolicy::LoadBalance) {
                    format!("{fp16_baseline:.1}")
                } else {
                    "-".to_owned()
                },
            ]
        })
        .collect();

    for col in 0..columns().len() {
        let w = column_workload(opts, col, &conversations, &model);

        for (row, policy) in RoutingPolicy::all().into_iter().enumerate() {
            let servers = if matches!(policy, RoutingPolicy::LoadBalance) {
                // Baseline: all four GPUs run the compression algorithm.
                (0..4)
                    .map(|i| server(i, &dep, w.paper_cfg, serving_config(opts)))
                    .collect()
            } else {
                w.servers(serving_config(opts))
            };
            // Baseline's all-compressed cluster sees compressed lengths on
            // every server.
            let mut reqs = w.requests.clone();
            if matches!(policy, RoutingPolicy::LoadBalance) {
                for r in &mut reqs {
                    let comp = r.response_len_on(1);
                    r.response_len_by_server = vec![comp; 4];
                }
            }
            let done = Cluster::new(servers, policy)
                .expect("four servers")
                .run(reqs, &w.router)
                .expect("arrivals sorted by construction");
            rows[row].push(format!("{:.1}", mean_e2e(&done)));
        }
    }

    for row in rows {
        t.push_row(row);
    }

    ExperimentResult {
        id: "table8".to_owned(),
        title: "Average end-to-end latency of routing methods".to_owned(),
        tables: vec![t],
        notes: vec![
            "Shape targets: w/Throughput beats Baseline; w/Length alone can hurt; w/Both is \
             best (paper: 1.45-1.80x over Baseline)."
                .to_owned(),
        ],
    }
}
