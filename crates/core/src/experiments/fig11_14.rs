//! Appendix Figures 11-14: tensor-parallelism analysis for LLaMA-7B,
//! LLaMA-13B, Mistral-7B, and LLaMA-70B — quantization- and sparsity-based
//! methods under TP in {1, 2, 4} for both stages.

use rkvc_gpu::LlmSpec;

use super::common::{a6000_lmdeploy, fmt_thr, paper_algos};
use super::{ExperimentResult, RunOptions};
use crate::report::Table;

/// Runs the TP sweep for one model.
fn tp_table(llm: LlmSpec, batch: usize, prefill_len: usize, decode_kv: usize) -> Table {
    let algos = paper_algos();
    let headers: Vec<&str> = ["stage", "TP"]
        .into_iter()
        .chain(algos.iter().map(|(l, _)| l.as_str()))
        .collect();
    let mut t = Table::new(
        format!(
            "TP analysis ({}), batch={batch}, prefill={prefill_len}, kv={decode_kv}",
            llm.name
        ),
        &headers,
    );
    for decode in [false, true] {
        for tp in [1usize, 2, 4] {
            let mut dep = a6000_lmdeploy(llm.clone());
            dep.tensor_parallel = tp;
            let mut row = vec![
                if decode { "Decode" } else { "Prefill" }.to_owned(),
                tp.to_string(),
            ];
            for (_, cfg) in &algos {
                let thr = if decode {
                    dep.decode_throughput(cfg, batch, decode_kv)
                } else {
                    dep.prefill_throughput(cfg, batch, prefill_len)
                };
                row.push(fmt_thr(thr));
            }
            t.push_row(row);
        }
    }
    t
}

/// Runs Figures 11-14.
pub fn run(_opts: &RunOptions) -> ExperimentResult {
    let tables = vec![
        tp_table(LlmSpec::llama2_7b(), 8, 2048, 4096),
        tp_table(LlmSpec::llama2_13b(), 8, 2048, 4096),
        tp_table(LlmSpec::mistral_7b(), 8, 2048, 4096),
        tp_table(LlmSpec::llama2_70b(), 8, 2048, 4096),
    ];
    ExperimentResult {
        id: "fig11_14".to_owned(),
        title: "Tensor-parallelism analysis across models and algorithms".to_owned(),
        tables,
        notes: vec![
            "Shape targets: TP helps prefill clearly for all methods; decode gains at small \
             batch are modest; compression's relative advantage narrows as TP rises."
                .to_owned(),
        ],
    }
}
