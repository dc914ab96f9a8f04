//! Table 3: relative prefill/decode speedup of each compression algorithm
//! vs the FP16 baseline across tensor-parallelism degrees.

use rkvc_gpu::LlmSpec;
use rkvc_kvcache::CompressionConfig;

use super::common::{a6000_lmdeploy, paper_algos};
use super::{ExperimentResult, RunOptions};
use crate::report::{fmt_ratio, Table};

/// The Table 3 operating point: batch 4; prompt 2048 for prefill, KV 4096
/// for decode.
pub(crate) const BATCH: usize = 4;
/// Prefill prompt length.
pub(crate) const PREFILL_LEN: usize = 2048;
/// Decode KV length.
pub(crate) const DECODE_KV: usize = 4096;

/// Runs Table 3 for a model spec (re-used by the appendix TP figures).
pub(crate) fn run_for_model(llm: LlmSpec, id: &str) -> ExperimentResult {
    let algos = paper_algos();
    let headers: Vec<&str> = ["stage", "TP", "FP16 (tok/s)"]
        .into_iter()
        .chain(algos.iter().skip(1).map(|(l, _)| l.as_str()))
        .collect();
    let mut t = Table::new(
        format!("Table 3: relative speedup vs FP16 across TP ({})", llm.name),
        &headers,
    );

    for decode in [false, true] {
        for tp in [1usize, 2, 4] {
            let mut dep = a6000_lmdeploy(llm.clone());
            dep.tensor_parallel = tp;
            let base = if decode {
                dep.decode_throughput(&CompressionConfig::Fp16, BATCH, DECODE_KV)
            } else {
                dep.prefill_throughput(&CompressionConfig::Fp16, BATCH, PREFILL_LEN)
            };
            let mut row = vec![
                if decode { "Decode" } else { "Prefill" }.to_owned(),
                tp.to_string(),
                format!("{base:.2}"),
            ];
            for (_, cfg) in algos.iter().skip(1) {
                let thr = if decode {
                    dep.decode_throughput(cfg, BATCH, DECODE_KV)
                } else {
                    dep.prefill_throughput(cfg, BATCH, PREFILL_LEN)
                };
                row.push(fmt_ratio(thr / base));
            }
            t.push_row(row);
        }
    }

    ExperimentResult {
        id: id.to_owned(),
        title: "Relative speedup brought by compression in prefill and decoding across TP"
            .to_owned(),
        tables: vec![t],
        notes: vec![
            "Paper targets (7B): prefill K-4 ~1.06x / G-4 ~0.86x / H2O ~0.58x / Stream ~0.95x \
             at TP1; decode H2O and Stream ~1.34x at TP1; all speedups shrink as TP grows."
                .to_owned(),
        ],
    }
}

/// Runs Table 3 (LLaMA-7B).
pub fn run(_opts: &RunOptions) -> ExperimentResult {
    run_for_model(LlmSpec::llama2_7b(), "table3")
}
