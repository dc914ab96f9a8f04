//! Appendix Figure 10: throughput analysis of LLaMA-13B on one A6000,
//! including KIVI's out-of-memory region.

use rkvc_gpu::LlmSpec;

use super::{fig1, ExperimentResult, RunOptions};

/// Runs Figure 10 (the Figure 1 sweeps on LLaMA-13B).
pub fn run(_opts: &RunOptions) -> ExperimentResult {
    let mut result = fig1::run_for_model(
        LlmSpec::llama2_13b(),
        "fig10",
        "Throughput analysis of LLaMA-13B (single A6000)",
    );
    result.notes.push(
        "Paper note: KIVI-4 on LLaMA-13B hits OOM on a single A6000 at long KV — the decode \
         tables mark those cells."
            .to_owned(),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_gpu::{decode_memory_bytes, fits_in_memory, EngineKind, GpuSpec};
    use rkvc_kvcache::CompressionConfig;

    #[test]
    fn kivi_13b_ooms_on_single_a6000() {
        let llm = LlmSpec::llama2_13b();
        let gpu = GpuSpec::a6000();
        let br = decode_memory_bytes(
            &llm,
            EngineKind::LmDeploy,
            &CompressionConfig::kivi(4),
            8,
            8192,
            1,
            8192,
        );
        assert!(!fits_in_memory(&gpu, &br), "{:?}", br.total());
    }
}
