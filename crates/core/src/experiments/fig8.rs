//! Appendix Figure 8: throughput analysis of Mistral-7B (GQA) on A6000.

use rkvc_gpu::LlmSpec;

use super::{fig1, ExperimentResult, RunOptions};

/// Runs Figure 8 (the Figure 1 sweeps on Mistral-7B).
pub fn run(_opts: &RunOptions) -> ExperimentResult {
    fig1::run_for_model(
        LlmSpec::mistral_7b(),
        "fig8",
        "Throughput analysis of Mistral-7B (A6000)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_kvcache::CompressionConfig;

    #[test]
    fn gqa_narrows_the_sparsity_gain() {
        // Mistral's GQA already shrinks KV traffic 4x, so sparsity's decode
        // speedup is smaller than on LLaMA-7B.
        let a = super::super::common::a6000_lmdeploy(LlmSpec::llama2_7b());
        let m = super::super::common::a6000_lmdeploy(LlmSpec::mistral_7b());
        let stream = CompressionConfig::streaming(64, 448);
        let s_llama = a.decode_throughput(&stream, 8, 4096)
            / a.decode_throughput(&CompressionConfig::Fp16, 8, 4096);
        let s_mistral = m.decode_throughput(&stream, 8, 4096)
            / m.decode_throughput(&CompressionConfig::Fp16, 8, 4096);
        assert!(
            s_mistral < s_llama,
            "mistral speedup {s_mistral} vs llama {s_llama}"
        );
    }
}
