//! Device-memory accounting and OOM detection.
//!
//! Reproduces the paper's memory findings: the FP16 KV cache dominating
//! capacity (§1's 512 GB example), TRL's preallocate-to-max policy wasting
//! capacity vs PagedAttention, and quantized-cache implementations running
//! out of memory at long KV despite smaller steady-state storage
//! (Figure 1(l), Figure 10) because of transient dequantization workspace.

use rkvc_kvcache::CompressionConfig;

use crate::{EngineKind, GpuSpec, LlmSpec};

/// Per-GPU memory breakdown for a decode configuration (bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
// rkvc-allow(C001): return type of decode_memory_bytes; consumers bind breakdowns without naming the type
pub struct MemoryBreakdown {
    /// Model weights (FP16, sharded by TP).
    pub weights: u64,
    /// Steady-state KV cache in the policy's storage format.
    pub kv_cache: u64,
    /// Transient workspace (dequantization buffers, score matrices).
    pub workspace: u64,
    /// Activations and framework overhead.
    pub activations: u64,
}

impl MemoryBreakdown {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.weights + self.kv_cache + self.workspace + self.activations
    }
}

/// Steady-state KV bytes per token (per layer aggregated, per GPU) under a
/// policy. For eviction policies this is the FP16 cost of a *retained*
/// token; the retained count is capped elsewhere.
pub fn kv_bytes_per_token(llm: &LlmSpec, algo: &CompressionConfig, tp: usize) -> f64 {
    let fp16 = llm.kv_bytes_per_token_fp16() as f64 / tp as f64;
    match *algo {
        CompressionConfig::Fp16
        | CompressionConfig::H2O(_)
        | CompressionConfig::Streaming(_)
        | CompressionConfig::SnapKv(_)
        | CompressionConfig::Tova(_)
        | CompressionConfig::PyramidKv(_) => fp16,
        CompressionConfig::Quest(p) => fp16 * (1.0 + 2.0 / p.page_size as f64),
        CompressionConfig::Think(p) => fp16 * (1.0 + p.keep_ratio as f64) / 2.0,
        CompressionConfig::Kivi(p) => {
            // Packed codes + per-group constants; the residual window is
            // accounted by the caller via its FP16 token count.
            fp16 * (p.bits as f64 / 16.0) + fp16 / p.group_size as f64
        }
        CompressionConfig::Gear(p) => {
            let codes = fp16 * (p.bits as f64 / 16.0);
            let outliers = fp16 * p.outlier_ratio as f64 * 3.0; // value + index
            let lowrank = fp16 * p.rank_ratio as f64 * 2.0;
            codes + outliers + lowrank + fp16 / p.buffer as f64
        }
    }
}

/// Number of logical tokens a policy actually retains at KV length `kv_len`
/// (per sequence), split into `(fp16_tokens, compressed_tokens)`.
fn retained_tokens(algo: &CompressionConfig, kv_len: usize) -> (usize, usize) {
    match *algo {
        CompressionConfig::Kivi(p) => {
            let res = p.residual.min(kv_len);
            (res, kv_len - res)
        }
        CompressionConfig::Gear(p) => {
            let res = p.buffer.min(kv_len);
            (res, kv_len - res)
        }
        _ => (algo.retained_cap().map_or(kv_len, |cap| cap.min(kv_len)), 0),
    }
}

/// Per-GPU memory needed to decode at `kv_len` with batch `batch`.
///
/// Non-paged engines (TRL) preallocate each sequence's KV to `reserve_len`
/// regardless of its current length; paged engines allocate on demand.
pub fn decode_memory_bytes(
    llm: &LlmSpec,
    engine: EngineKind,
    algo: &CompressionConfig,
    batch: usize,
    kv_len: usize,
    tp: usize,
    reserve_len: usize,
) -> MemoryBreakdown {
    let fp16_per_tok = llm.kv_bytes_per_token_fp16() as f64 / tp as f64;
    let quant_per_tok = kv_bytes_per_token(llm, algo, tp);

    let alloc_len = if engine.paged_kv() {
        kv_len
    } else {
        kv_len.max(reserve_len)
    };
    let (fp16_tokens, quant_tokens) = retained_tokens(algo, alloc_len);
    let kv_cache = (batch as f64
        * (fp16_tokens as f64 * fp16_per_tok + quant_tokens as f64 * quant_per_tok))
        as u64;

    // Transient workspace:
    // - quantized caches materialize FP16 key tiles for the attention GEMM
    //   (the implementation-maturity issue behind the paper's OOMs);
    // - naive attention materializes the decode score matrix (small);
    // - GEAR additionally holds the reconstructed error matrix.
    let workspace = match *algo {
        CompressionConfig::Kivi(_) => (batch as f64 * kv_len as f64 * fp16_per_tok * 0.8) as u64,
        CompressionConfig::Gear(_) => (batch as f64 * kv_len as f64 * fp16_per_tok) as u64,
        _ => 0,
    } + if engine.materializes_scores() {
        (batch * llm.n_heads * kv_len * 2 / tp) as u64
    } else {
        0
    };

    // Decode activations: a few vectors of d_model per sequence, plus
    // framework constant (CUDA context, fragmentation slack).
    let activations = (batch * llm.d_model * 2 * 16 / tp) as u64 + (1u64 << 30);

    MemoryBreakdown {
        weights: llm.weight_bytes() / tp as u64,
        kv_cache,
        workspace,
        activations,
    }
}

/// Whether the breakdown fits in the GPU's device memory.
pub fn fits_in_memory(gpu: &GpuSpec, breakdown: &MemoryBreakdown) -> bool {
    breakdown.total() <= gpu.hbm_bytes()
}

rkvc_tensor::json_struct!(MemoryBreakdown {
    weights,
    kv_cache,
    workspace,
    activations,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_example_512gb() {
        // §1: LLaMA-70B FP16, batch 512, prompt 2048 -> ~130 GB weights +
        // ~512 GB KV. (70B GQA KV/token = 2*80*1024*2 = 320 KiB.)
        let llm = LlmSpec::llama2_70b();
        let kv_total =
            llm.kv_bytes_per_token_fp16() as f64 * 512.0 * 2048.0 / (1024f64.powi(3));
        assert!(
            (250.0..700.0).contains(&kv_total),
            "70B KV for 512x2048 = {kv_total} GiB"
        );
        let weights = llm.weight_bytes() as f64 / 1024f64.powi(3);
        assert!((120.0..145.0).contains(&weights), "weights {weights} GiB");
    }

    #[test]
    fn fp16_7b_fits_at_moderate_kv_on_a6000() {
        let gpu = GpuSpec::a6000();
        let llm = LlmSpec::llama2_7b();
        let br = decode_memory_bytes(
            &llm,
            EngineKind::LmDeploy,
            &CompressionConfig::Fp16,
            8,
            4096,
            1,
            4096,
        );
        assert!(fits_in_memory(&gpu, &br), "{br:?}");
    }

    #[test]
    fn kivi_ooms_before_fp16_at_long_kv() {
        // Figure 1(l): quantized caches OOM at kv 8192 where FP16 still
        // (barely) fits, because of transient dequantization workspace.
        let gpu = GpuSpec::a6000();
        let llm = LlmSpec::llama2_7b();
        let fp16 = decode_memory_bytes(
            &llm,
            EngineKind::LmDeploy,
            &CompressionConfig::Fp16,
            8,
            8192,
            1,
            8192,
        );
        let kivi = decode_memory_bytes(
            &llm,
            EngineKind::LmDeploy,
            &CompressionConfig::kivi(4),
            8,
            8192,
            1,
            8192,
        );
        assert!(fits_in_memory(&gpu, &fp16), "fp16 {:?}", fp16.total());
        assert!(!fits_in_memory(&gpu, &kivi), "kivi {:?}", kivi.total());
    }

    #[test]
    fn an_overflowing_eviction_budget_retains_the_whole_kv() {
        // `budget + obs_window` overflows `usize`: the stored-token cap
        // saturates, so the policy is charged the full KV like FP16 — not
        // a panic (debug) or a wrapped zero-token cache (release).
        let llm = LlmSpec::llama2_7b();
        let huge = CompressionConfig::SnapKv(rkvc_kvcache::SnapKvParams {
            budget: usize::MAX,
            obs_window: 1,
            kernel: 1,
        });
        let mem = |algo: &CompressionConfig| {
            decode_memory_bytes(&llm, EngineKind::LmDeploy, algo, 8, 4096, 1, 4096).kv_cache
        };
        assert_eq!(mem(&huge), mem(&CompressionConfig::Fp16));
        assert!(mem(&CompressionConfig::snapkv(448)) < mem(&huge));
    }

    #[test]
    fn kivi_steady_state_kv_is_smaller_than_fp16() {
        let llm = LlmSpec::llama2_7b();
        let fp16 = kv_bytes_per_token(&llm, &CompressionConfig::Fp16, 1);
        let kivi4 = kv_bytes_per_token(&llm, &CompressionConfig::kivi(4), 1);
        let kivi2 = kv_bytes_per_token(&llm, &CompressionConfig::kivi(2), 1);
        assert!(kivi4 < 0.4 * fp16);
        assert!(kivi2 < kivi4);
    }

    #[test]
    fn sparsity_caps_kv_memory() {
        let llm = LlmSpec::llama2_7b();
        let long = decode_memory_bytes(
            &llm,
            EngineKind::LmDeploy,
            &CompressionConfig::streaming(64, 448),
            8,
            16384,
            1,
            16384,
        );
        let short = decode_memory_bytes(
            &llm,
            EngineKind::LmDeploy,
            &CompressionConfig::streaming(64, 448),
            8,
            512,
            1,
            512,
        );
        assert_eq!(long.kv_cache, short.kv_cache);
    }

    #[test]
    fn trl_prealloc_wastes_memory_vs_paged() {
        let llm = LlmSpec::llama2_7b();
        let trl = decode_memory_bytes(
            &llm,
            EngineKind::TrlEager,
            &CompressionConfig::Fp16,
            8,
            512,
            1,
            8192,
        );
        let lmd = decode_memory_bytes(
            &llm,
            EngineKind::LmDeploy,
            &CompressionConfig::Fp16,
            8,
            512,
            1,
            8192,
        );
        assert!(trl.kv_cache > 10 * lmd.kv_cache);
    }

    #[test]
    fn tp_shards_weights_and_kv() {
        let llm = LlmSpec::llama2_7b();
        let t1 = decode_memory_bytes(
            &llm,
            EngineKind::LmDeploy,
            &CompressionConfig::Fp16,
            4,
            4096,
            1,
            4096,
        );
        let t4 = decode_memory_bytes(
            &llm,
            EngineKind::LmDeploy,
            &CompressionConfig::Fp16,
            4,
            4096,
            4,
            4096,
        );
        assert_eq!(t4.weights, t1.weights / 4);
        assert!((t4.kv_cache as f64 - t1.kv_cache as f64 / 4.0).abs() < 1e3);
    }

    #[test]
    fn llama13b_kivi_ooms_on_single_a6000() {
        // Figure 10 caption: KIVI-4 on LLaMA-13B OOMs on one A6000.
        let gpu = GpuSpec::a6000();
        let llm = LlmSpec::llama2_13b();
        let br = decode_memory_bytes(
            &llm,
            EngineKind::LmDeploy,
            &CompressionConfig::kivi(4),
            8,
            8192,
            1,
            8192,
        );
        assert!(!fits_in_memory(&gpu, &br));
    }
}
