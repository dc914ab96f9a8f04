//! Per-algorithm attention-layer cost model.
//!
//! Every term below encodes a mechanism §3 of the paper describes in prose:
//!
//! * **Naive multi-pass attention** (TRL eager) materializes the score
//!   matrix in HBM and re-reads it for softmax and the value product.
//! * **Eviction policies** (H2O) need attention scores, which one-pass
//!   FlashAttention does not expose — costing extra score passes and
//!   non-fused kernels, plus top-k/compaction work and (under tensor
//!   parallelism) score synchronization collectives.
//! * **Quantized caches** (KIVI/GEAR) read fewer bytes but pay
//!   dequantization ALU work at poor utilization (irregular layouts) and a
//!   dual-path kernel for the full-precision residual window.
//! * **GEAR** additionally reconstructs the low-rank error term and
//!   scatters sparse outliers every step.

use rkvc_kvcache::CompressionConfig;

use crate::{EngineKind, GpuSpec, LlmSpec};

/// Bytes per FP16 element.
const FP16: f64 = 2.0;
/// Utilization of dequantization ALU work relative to dense GEMM peak
/// (irregular group layouts keep tensor cores idle).
const DEQUANT_EFFICIENCY: f64 = 0.15;
/// Bandwidth fraction achieved by irregular (gather/scatter) traffic.
const IRREGULAR_BW: f64 = 0.45;
/// HBM passes over the score matrix in naive attention
/// (write scores, read+write softmax, read for the value product).
const NAIVE_SCORE_PASSES: f64 = 4.0;
/// HBM passes over the score matrix for H2O's importance accumulation
/// (a full non-fused score pipeline, the accumulation reduction, and the
/// top-k selection's re-reads).
const H2O_SCORE_PASSES: f64 = 9.0;
/// Non-fused traffic multiplier H2O's decode attention pays for breaking
/// the fused FA/PA kernel.
const H2O_UNFUSED_TRAFFIC: f64 = 1.6;
/// Power-iteration rounds GEAR runs for its low-rank factors.
const GEAR_ITERS: f64 = 6.0;

/// Evaluation environment shared by the attention cost functions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AttentionEnv<'a> {
    /// Target GPU.
    pub gpu: &'a GpuSpec,
    /// Model dimensions.
    pub llm: &'a LlmSpec,
    /// Serving engine (kernel structure).
    pub engine: EngineKind,
    /// Tensor-parallel degree (heads are sharded).
    pub tp: usize,
}

impl AttentionEnv<'_> {
    fn heads_per_gpu(&self) -> f64 {
        self.llm.n_heads as f64 / self.tp as f64
    }

    fn kv_dim_per_gpu(&self) -> f64 {
        self.llm.kv_dim() as f64 / self.tp as f64
    }
}

/// Effective stored bytes per token per layer per GPU for a policy, counting
/// packed codes plus FP16 quantization constants.
fn quant_bytes_per_token(env: &AttentionEnv<'_>, bits: u8, group: usize) -> f64 {
    let kvd = env.kv_dim_per_gpu();
    // K + V codes.
    let codes = 2.0 * kvd * bits as f64 / 8.0;
    // Per-group constants (scale + zero at FP16): keys amortize over the
    // token group, values pay one constant set per token per head.
    let constants = kvd * 4.0 / group as f64 + 4.0;
    codes + constants
}

/// Decode-stage attention time for one transformer layer (seconds).
///
/// `kv_len` is the logical KV length (tokens generated so far + prompt);
/// eviction policies cap the *effective* length at their budget.
pub(crate) fn attention_decode_time(
    env: &AttentionEnv<'_>,
    algo: &CompressionConfig,
    batch: usize,
    kv_len: usize,
) -> f64 {
    let b = batch as f64;
    let kvd = env.kv_dim_per_gpu();
    let heads = env.heads_per_gpu();
    let hd = env.llm.head_dim() as f64;
    let bw = env.gpu.effective_bandwidth();
    let paged = env.engine.paged_traffic_factor();

    // Baseline cost of attending over `n` FP16 tokens. Eager frameworks
    // additionally re-materialize the whole cache per step (`torch.cat`).
    let base = |n: f64| -> f64 {
        let kv_traffic =
            b * n * kvd * 2.0 * FP16 * (paged + env.engine.kv_update_passes());
        let score_traffic = if env.engine.materializes_scores() {
            b * heads * n * FP16 * NAIVE_SCORE_PASSES
        } else {
            0.0
        };
        let flops = b * 2.0 * n * heads * hd * 2.0;
        env.gpu.roofline(kv_traffic + score_traffic, flops)
    };

    // Tokens an evicting policy still stores, hence attends over. Called
    // inside its arms, where the variant is known and the lookup folds away.
    let stored = || algo.retained_cap().map_or(kv_len, |cap| cap.min(kv_len)) as f64;

    match *algo {
        CompressionConfig::Fp16 => base(kv_len as f64),
        CompressionConfig::Kivi(p) => {
            let residual = (p.residual.min(kv_len)) as f64;
            let quant = (kv_len as f64 - residual).max(0.0);
            // Residual window: dense FP16 path.
            let t_res = base(residual);
            // Quantized path: smaller reads, dequant ALU work, irregular
            // access.
            let q_traffic = b * quant * quant_bytes_per_token(env, p.bits, p.group_size) * paged;
            let q_flops = b * 2.0 * quant * heads * hd * 2.0;
            let dequant_flops = b * quant * kvd * 2.0 * 2.0;
            let t_quant = env.gpu.roofline(q_traffic / IRREGULAR_BW, q_flops)
                + dequant_flops / (env.gpu.effective_flops() * DEQUANT_EFFICIENCY);
            // Dual tensor-type kernels: one extra launch.
            t_res + t_quant + env.engine.extra_kernel_overhead_s()
        }
        CompressionConfig::Gear(p) => {
            let residual = (p.buffer.min(kv_len)) as f64;
            let quant = (kv_len as f64 - residual).max(0.0);
            let t_res = base(residual);
            let q_traffic = b * quant * quant_bytes_per_token(env, p.bits, p.buffer) * paged;
            let q_flops = b * 2.0 * quant * heads * hd * 2.0;
            let dequant_flops = b * quant * kvd * 2.0 * 2.0;
            // Low-rank reconstruction U·V over the quantized span (K and V):
            // a dense GEMM, so it runs at full tensor-core efficiency —
            // GEAR's decode penalty is the *extra work*, not irregularity.
            let rank = (p.rank_ratio as f64 * kvd).max(1.0);
            let lowrank_flops = b * 2.0 * quant * rank * kvd * 2.0;
            // Sparse outlier scatter at irregular bandwidth.
            let outlier_traffic = b * quant * kvd * 2.0 * p.outlier_ratio as f64 * 6.0;
            let t_quant = env.gpu.roofline(q_traffic / IRREGULAR_BW, q_flops)
                + dequant_flops / (env.gpu.effective_flops() * DEQUANT_EFFICIENCY)
                + lowrank_flops / env.gpu.effective_flops()
                + outlier_traffic / (bw * IRREGULAR_BW);
            t_res + t_quant + 2.0 * env.engine.extra_kernel_overhead_s()
        }
        CompressionConfig::H2O(_) => {
            let n_eff = stored();
            // Attention over the retained window, but unfused (the fused
            // FA/PA kernel cannot return scores).
            let kv_traffic = b * n_eff * kvd * 2.0 * FP16 * paged * H2O_UNFUSED_TRAFFIC;
            let flops = b * 2.0 * n_eff * heads * hd * 2.0;
            let mut t = env.gpu.roofline(kv_traffic, flops);
            // Score accumulation: read+update+write per retained token.
            let score_traffic = b * heads * n_eff * 4.0 * 2.0;
            t += score_traffic / (bw * IRREGULAR_BW);
            // Top-k + slot compaction kernels.
            t += 2.0 * env.engine.extra_kernel_overhead_s();
            // Under tensor parallelism the accumulated scores must agree
            // across shards before eviction: two small collectives.
            if env.tp > 1 {
                t += 2.0 * env.gpu.collective_latency_s
                    + b * heads * n_eff * 4.0 * (env.tp as f64 - 1.0)
                        / (env.gpu.interconnect_gbs * 1e9);
            }
            t
        }
        CompressionConfig::Streaming(_) => {
            // Structured drop: ring-buffer bookkeeping only.
            base(stored()) + 0.5 * env.engine.extra_kernel_overhead_s()
        }
        CompressionConfig::SnapKv(_) | CompressionConfig::PyramidKv(_) => base(stored()),
        CompressionConfig::Tova(_) => {
            // Attention over the budget window; like H2O, the per-query
            // weights must leave the fused kernel for the argmin eviction.
            let n_eff = stored();
            let kv_traffic = b * n_eff * kvd * 2.0 * FP16 * paged * H2O_UNFUSED_TRAFFIC;
            let flops = b * 2.0 * n_eff * heads * hd * 2.0;
            env.gpu.roofline(kv_traffic, flops)
                + b * heads * n_eff * 4.0 / (bw * IRREGULAR_BW)
                + env.engine.extra_kernel_overhead_s()
        }
        CompressionConfig::Think(p) => {
            // Keys read at the kept-channel width; values full width.
            let keep = p.keep_ratio as f64;
            let kv_traffic = b * kv_len as f64 * kvd * (1.0 + keep) * FP16
                * (paged + env.engine.kv_update_passes());
            let flops = b * 2.0 * kv_len as f64 * heads * hd * (1.0 + keep);
            env.gpu.roofline(kv_traffic, flops) + 0.5 * env.engine.extra_kernel_overhead_s()
        }
        CompressionConfig::Quest(p) => {
            // Read the page summaries, select, then attend over the
            // selected pages plus the in-flight page.
            let pages = kv_len as f64 / p.page_size as f64;
            let summary_traffic = b * pages * kvd * 2.0 * FP16;
            let selection_flops = b * pages * kvd * 2.0 * 2.0;
            let n_eff = (p.budget().min(kv_len)) as f64 + p.page_size as f64;
            base(n_eff)
                + summary_traffic / bw
                + selection_flops / (env.gpu.effective_flops() * DEQUANT_EFFICIENCY)
                + env.engine.extra_kernel_overhead_s()
        }
    }
}

/// Prefill-stage attention time for one transformer layer (seconds).
pub(crate) fn attention_prefill_time(
    env: &AttentionEnv<'_>,
    algo: &CompressionConfig,
    batch: usize,
    prompt_len: usize,
) -> f64 {
    let b = batch as f64;
    let l = prompt_len as f64;
    let kvd = env.kv_dim_per_gpu();
    let heads = env.heads_per_gpu();
    let hd = env.llm.head_dim() as f64;
    let bw = env.gpu.effective_bandwidth();

    // One-pass (Flash) causal attention: KV write + streaming reads;
    // compute dominates at long prompts.
    let kv_bytes = b * l * kvd * 2.0 * FP16;
    let qkv_traffic = b * l * (heads * hd + 2.0 * kvd) * FP16 + kv_bytes;
    let flops = b * 2.0 * l * l * heads * hd * 2.0 / 2.0; // Causal half.
    let score_traffic = if env.engine.materializes_scores() {
        b * heads * l * l * FP16 * NAIVE_SCORE_PASSES / 2.0
    } else {
        0.0
    };
    let base = env.gpu.roofline(qkv_traffic + score_traffic, flops);
    // Prompt tokens an evicting policy keeps, i.e. the window it compacts.
    // Called inside its arms, where the variant is known and the lookup
    // folds away.
    let retained = || algo.retained_cap().map_or(l, |cap| (cap as f64).min(l));

    match *algo {
        CompressionConfig::Fp16 => base,
        CompressionConfig::Kivi(p) => {
            // Prompt KV beyond the residual window is written quantized:
            // less write traffic, small quantization ALU cost.
            let quant_tokens = (l - p.residual as f64).max(0.0);
            let saved = b * quant_tokens
                * (kvd * 2.0 * FP16 - quant_bytes_per_token(env, p.bits, p.group_size));
            let quant_flops = b * quant_tokens * kvd * 2.0 * 2.0;
            (base - saved / bw).max(0.0)
                + quant_flops / (env.gpu.effective_flops() * DEQUANT_EFFICIENCY)
                + env.engine.extra_kernel_overhead_s()
        }
        CompressionConfig::Gear(p) => {
            // Error correction over the prompt KV: re-read + re-write the
            // cache, power-iteration low-rank fit, outlier top-k pass.
            let rank = (p.rank_ratio as f64 * kvd).max(1.0);
            let correction_traffic = 4.0 * kv_bytes;
            let lowrank_flops = GEAR_ITERS * 4.0 * b * l * kvd * rank;
            let quant_flops = b * l * kvd * 2.0 * 2.0;
            base + correction_traffic / (bw * IRREGULAR_BW)
                + (lowrank_flops + quant_flops)
                    / (env.gpu.effective_flops() * DEQUANT_EFFICIENCY)
                + 3.0 * env.engine.extra_kernel_overhead_s()
        }
        CompressionConfig::H2O(_) => {
            // Importance needs the full score matrix: a second, non-fused
            // score pipeline over l x l at irregular bandwidth, plus the
            // accumulation reduction.
            let h2o_scores = b * heads * l * l * FP16 * H2O_SCORE_PASSES / 2.0;
            let rescore_flops = b * 2.0 * l * l * heads * hd / 2.0;
            base + h2o_scores / (bw * IRREGULAR_BW)
                + rescore_flops / env.gpu.effective_flops()
                + 2.0 * env.engine.extra_kernel_overhead_s()
        }
        CompressionConfig::Streaming(_) => {
            // Chunked eviction during prefill: compact the retained window
            // once (read + write), cheap and structured.
            let compaction = 2.0 * b * retained() * kvd * 2.0 * FP16;
            base + compaction / bw + kv_bytes / (bw * 2.0)
                + env.engine.extra_kernel_overhead_s()
        }
        CompressionConfig::SnapKv(p) => {
            // Observation-window scoring (obs x l scores), pooling/top-k,
            // and one compaction of the prompt KV.
            let obs_scores = b * heads * p.obs_window as f64 * l * FP16 * 3.0;
            let compaction = 2.0 * b * retained() * kvd * 2.0 * FP16;
            base + (obs_scores + compaction) / (bw * IRREGULAR_BW)
                + 2.0 * env.engine.extra_kernel_overhead_s()
        }
        CompressionConfig::Tova(_) => {
            // Per-row argmin eviction during prefill needs the row scores
            // (one extra pass) and a compaction of the retained window.
            let scores = b * heads * l * l * FP16 * 2.0 / 2.0;
            let compaction = 2.0 * b * retained() * kvd * 2.0 * FP16;
            base + (scores + compaction) / (bw * IRREGULAR_BW)
                + env.engine.extra_kernel_overhead_s()
        }
        CompressionConfig::Think(p) => {
            // Channel scoring (one pass over the keys) plus a compaction
            // rewrite at the kept width.
            let score_pass = b * l * kvd * FP16;
            let compaction = b * l * kvd * (1.0 + p.keep_ratio as f64) * FP16;
            base + (score_pass + compaction) / bw + env.engine.extra_kernel_overhead_s()
        }
        CompressionConfig::PyramidKv(p) => {
            // SnapKV-style per-layer selection: observation scores + one
            // compaction at the mean budget.
            let obs_scores = b * heads * p.obs_window as f64 * l * FP16 * 3.0;
            let compaction = 2.0 * b * retained() * kvd * 2.0 * FP16;
            base + (obs_scores + compaction) / (bw * IRREGULAR_BW)
                + 2.0 * env.engine.extra_kernel_overhead_s()
        }
        CompressionConfig::Quest(p) => {
            // Full attention plus building the per-page min/max summaries
            // (one streaming pass over the keys).
            let summary_build = b * l * kvd * FP16 * 2.0;
            let _ = p;
            base + summary_build / bw + env.engine.extra_kernel_overhead_s()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env<'a>(gpu: &'a GpuSpec, llm: &'a LlmSpec, engine: EngineKind) -> AttentionEnv<'a> {
        AttentionEnv {
            gpu,
            llm,
            engine,
            tp: 1,
        }
    }

    #[test]
    fn naive_attention_is_slower_than_flash() {
        let gpu = GpuSpec::a6000();
        let llm = LlmSpec::llama2_7b();
        let naive = attention_prefill_time(
            &env(&gpu, &llm, EngineKind::TrlEager),
            &CompressionConfig::Fp16,
            1,
            2048,
        );
        let flash = attention_prefill_time(
            &env(&gpu, &llm, EngineKind::TrlFlash),
            &CompressionConfig::Fp16,
            1,
            2048,
        );
        assert!(naive > 1.5 * flash, "naive {naive} vs flash {flash}");
    }

    #[test]
    fn sparsity_caps_decode_cost() {
        let gpu = GpuSpec::a6000();
        let llm = LlmSpec::llama2_7b();
        let e = env(&gpu, &llm, EngineKind::LmDeploy);
        let fp16 = attention_decode_time(&e, &CompressionConfig::Fp16, 8, 8192);
        let stream = attention_decode_time(&e, &CompressionConfig::streaming(64, 448), 8, 8192);
        assert!(stream < 0.3 * fp16, "stream {stream} vs fp16 {fp16}");
        // And the stream cost saturates once over budget.
        let stream_16k = attention_decode_time(&e, &CompressionConfig::streaming(64, 448), 8, 16384);
        assert!((stream_16k - stream).abs() / stream < 0.05);
    }

    #[test]
    fn h2o_prefill_pays_score_materialization() {
        let gpu = GpuSpec::a6000();
        let llm = LlmSpec::llama2_7b();
        let e = env(&gpu, &llm, EngineKind::LmDeploy);
        let fp16 = attention_prefill_time(&e, &CompressionConfig::Fp16, 1, 4096);
        let h2o = attention_prefill_time(&e, &CompressionConfig::h2o(64, 448), 1, 4096);
        let stream = attention_prefill_time(&e, &CompressionConfig::streaming(64, 448), 1, 4096);
        assert!(h2o > 1.5 * fp16, "h2o {h2o} vs fp16 {fp16}");
        assert!(stream < 1.2 * fp16, "stream {stream} vs fp16 {fp16}");
        assert!(h2o > stream);
    }

    #[test]
    fn kivi_decode_saves_traffic_at_long_kv() {
        let gpu = GpuSpec::a6000();
        let llm = LlmSpec::llama2_7b();
        let e = env(&gpu, &llm, EngineKind::LmDeploy);
        let fp16 = attention_decode_time(&e, &CompressionConfig::Fp16, 8, 8192);
        let kivi = attention_decode_time(&e, &CompressionConfig::kivi(4), 8, 8192);
        assert!(kivi < fp16, "kivi {kivi} vs fp16 {fp16}");
        // But at short KV the dual-path overhead makes it slower.
        let fp16_short = attention_decode_time(&e, &CompressionConfig::Fp16, 1, 256);
        let kivi_short = attention_decode_time(&e, &CompressionConfig::kivi(4), 1, 256);
        assert!(kivi_short > fp16_short);
    }

    #[test]
    fn gear_is_more_expensive_than_kivi() {
        let gpu = GpuSpec::a6000();
        let llm = LlmSpec::llama2_7b();
        let e = env(&gpu, &llm, EngineKind::LmDeploy);
        for (b, n) in [(1usize, 2048usize), (8, 4096)] {
            let kivi = attention_decode_time(&e, &CompressionConfig::kivi(4), b, n);
            let gear = attention_decode_time(&e, &CompressionConfig::gear(4), b, n);
            assert!(gear > kivi, "b={b} n={n}: gear {gear} vs kivi {kivi}");
        }
        let kivi_p = attention_prefill_time(&e, &CompressionConfig::kivi(4), 1, 2048);
        let gear_p = attention_prefill_time(&e, &CompressionConfig::gear(4), 1, 2048);
        assert!(gear_p > kivi_p);
    }

    #[test]
    fn tensor_parallelism_shards_attention() {
        let gpu = GpuSpec::a6000();
        let llm = LlmSpec::llama2_7b();
        let e1 = AttentionEnv { gpu: &gpu, llm: &llm, engine: EngineKind::LmDeploy, tp: 1 };
        let e4 = AttentionEnv { gpu: &gpu, llm: &llm, engine: EngineKind::LmDeploy, tp: 4 };
        let t1 = attention_decode_time(&e1, &CompressionConfig::Fp16, 8, 4096);
        let t4 = attention_decode_time(&e4, &CompressionConfig::Fp16, 8, 4096);
        assert!(t4 < t1 / 2.0, "tp4 {t4} vs tp1 {t1}");
    }

    #[test]
    fn quest_decode_is_cheaper_than_fp16_at_long_kv() {
        // Quest attends ~budget tokens plus summaries; at long KV that's a
        // large traffic saving even though memory is not reduced.
        let gpu = GpuSpec::a6000();
        let llm = LlmSpec::llama2_7b();
        let e = env(&gpu, &llm, EngineKind::LmDeploy);
        let fp16 = attention_decode_time(&e, &CompressionConfig::Fp16, 8, 16384);
        let quest = attention_decode_time(&e, &CompressionConfig::quest(16, 32), 8, 16384);
        assert!(quest < 0.5 * fp16, "quest {quest} vs fp16 {fp16}");
        // But at short KV the summary/selection overhead makes it slower.
        let fp16_s = attention_decode_time(&e, &CompressionConfig::Fp16, 1, 256);
        let quest_s = attention_decode_time(&e, &CompressionConfig::quest(16, 32), 1, 256);
        assert!(quest_s > fp16_s);
    }

    #[test]
    fn tova_sits_between_streaming_and_h2o() {
        // TOVA needs scores (like H2O) but no accumulation state; its decode
        // cost lands between StreamingLLM's structured drop and H2O.
        let gpu = GpuSpec::a6000();
        let llm = LlmSpec::llama2_7b();
        let e = env(&gpu, &llm, EngineKind::LmDeploy);
        let stream = attention_decode_time(&e, &CompressionConfig::streaming(64, 448), 8, 8192);
        let tova = attention_decode_time(&e, &CompressionConfig::tova(512), 8, 8192);
        let h2o = attention_decode_time(&e, &CompressionConfig::h2o(64, 448), 8, 8192);
        assert!(stream < tova, "stream {stream} vs tova {tova}");
        assert!(tova <= h2o * 1.05, "tova {tova} vs h2o {h2o}");
    }

    #[test]
    fn costs_scale_with_batch_and_length() {
        let gpu = GpuSpec::a6000();
        let llm = LlmSpec::llama2_7b();
        let e = env(&gpu, &llm, EngineKind::LmDeploy);
        let t_small = attention_decode_time(&e, &CompressionConfig::Fp16, 1, 1024);
        let t_batch = attention_decode_time(&e, &CompressionConfig::Fp16, 16, 1024);
        let t_long = attention_decode_time(&e, &CompressionConfig::Fp16, 1, 16384);
        assert!(t_batch > 4.0 * t_small);
        assert!(t_long > 4.0 * t_small);
    }
}
