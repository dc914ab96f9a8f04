//! Figure 2: throughput analysis of LLaMA-70B on H800 GPUs (TP=4).

use rkvc_gpu::{DeploymentSpec, EngineKind, GpuSpec, LlmSpec};

use super::common::{fmt_thr, paper_algos};
use super::{ExperimentResult, RunOptions};
use crate::report::Table;

/// Runs Figure 2.
pub fn run(_opts: &RunOptions) -> ExperimentResult {
    let dep = DeploymentSpec {
        gpu: GpuSpec::h800(),
        llm: LlmSpec::llama2_70b(),
        engine: EngineKind::LmDeploy,
        tensor_parallel: 4,
    };
    let algos = paper_algos();
    let headers: Vec<&str> = std::iter::once("len")
        .chain(algos.iter().map(|(l, _)| l.as_str()))
        .collect();

    let mut prefill = Table::new("Fig2 prefill throughput (tok/s), 70B/H800/TP4, batch=4", &headers);
    let mut decode = Table::new("Fig2 decode throughput (tok/s), 70B/H800/TP4, batch=8", &headers);
    for &len in &[1024usize, 2048, 4096, 8192] {
        let mut prow = vec![len.to_string()];
        let mut drow = vec![len.to_string()];
        for (_, cfg) in &algos {
            prow.push(fmt_thr(dep.prefill_throughput(cfg, 4, len)));
            drow.push(fmt_thr(dep.decode_throughput(cfg, 8, len)));
        }
        prefill.push_row(prow);
        decode.push_row(drow);
    }

    ExperimentResult {
        id: "fig2".to_owned(),
        title: "Throughput analysis of LLaMA-70B on H800 GPUs".to_owned(),
        tables: vec![prefill, decode],
        notes: vec![
            "H800's higher bandwidth plus TP=4 shrink compression speedups relative to the \
             A6000 runs (Observation 2)."
                .to_owned(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_kvcache::CompressionConfig;

    #[test]
    fn compression_speedup_smaller_than_on_a6000() {
        let h800 = DeploymentSpec {
            gpu: GpuSpec::h800(),
            llm: LlmSpec::llama2_70b(),
            engine: EngineKind::LmDeploy,
            tensor_parallel: 4,
        };
        let a6000 = super::super::common::a6000_lmdeploy(LlmSpec::llama2_7b());
        let stream = CompressionConfig::streaming(64, 448);
        let s_h800 = h800.decode_throughput(&stream, 8, 4096)
            / h800.decode_throughput(&CompressionConfig::Fp16, 8, 4096);
        let s_a6000 = a6000.decode_throughput(&stream, 8, 4096)
            / a6000.decode_throughput(&CompressionConfig::Fp16, 8, 4096);
        assert!(s_h800 < s_a6000, "h800 {s_h800} vs a6000 {s_a6000}");
    }
}
