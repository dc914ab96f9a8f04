//! Whole-model step costs and throughput.

use rkvc_kvcache::CompressionConfig;

use crate::{attention_decode_time, attention_prefill_time, AttentionEnv, EngineKind, GpuSpec, LlmSpec};

/// A deployment: GPU + model + engine + tensor-parallel degree.
///
/// All cost methods return per-GPU-synchronized wall-clock estimates; under
/// tensor parallelism all GPUs finish a step together.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentSpec {
    /// Target GPU model.
    pub gpu: GpuSpec,
    /// Served LLM.
    pub llm: LlmSpec,
    /// Serving engine.
    pub engine: EngineKind,
    /// Tensor-parallel degree (1, 2, 4, ...).
    pub tensor_parallel: usize,
}

/// Cost breakdown of one stage execution (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
// rkvc-allow(C001): return type of DeploymentSpec::decode_step/prefill/recompute; consumers bind stage times without naming the type
pub struct StageTime {
    /// GEMM/linear-layer time (weights traffic + matmul compute).
    pub linear_s: f64,
    /// Attention time across all layers (incl. compression overheads).
    pub attention_s: f64,
    /// Fixed kernel-launch / framework overheads.
    pub overhead_s: f64,
    /// Tensor-parallel all-reduce time.
    pub comm_s: f64,
}

impl StageTime {
    /// Total stage time.
    pub fn total(&self) -> f64 {
        self.linear_s + self.attention_s + self.overhead_s + self.comm_s
    }
}

impl DeploymentSpec {
    fn env(&self) -> AttentionEnv<'_> {
        AttentionEnv {
            gpu: &self.gpu,
            llm: &self.llm,
            engine: self.engine,
            tp: self.tensor_parallel,
        }
    }

    /// All-reduce time for `bytes` of activations per layer boundary
    /// (two collectives per transformer layer: attention out + MLP out).
    fn comm_time(&self, bytes_per_collective: f64) -> f64 {
        if self.tensor_parallel <= 1 {
            return 0.0;
        }
        let tp = self.tensor_parallel as f64;
        // Ring all-reduce moves 2(tp-1)/tp of the data over the link.
        let volume = bytes_per_collective * 2.0 * (tp - 1.0) / tp;
        let per_collective =
            volume / (self.gpu.interconnect_gbs * 1e9) + self.gpu.collective_latency_s;
        2.0 * self.llm.n_layers as f64 * per_collective
    }

    /// Linear-layer (non-attention) time for processing `tokens` positions
    /// in one step.
    ///
    /// Sharding shrinks each GPU's GEMMs; small per-GPU matrices achieve a
    /// lower fraction of peak bandwidth, so the memory-bound (decode) term
    /// carries a mild TP penalty — the reason small-batch decode scales
    /// sublinearly with TP while prefill scales well.
    fn linear_time(&self, tokens: f64) -> f64 {
        let tp = self.tensor_parallel as f64;
        let shard_efficiency = 1.0 / (1.0 + 0.15 * (tp - 1.0));
        let weight_bytes = self.llm.weight_bytes() as f64 / tp;
        let flops = 2.0 * self.llm.param_count() as f64 * tokens / tp;
        let mem_t = weight_bytes / (self.gpu.effective_bandwidth() * shard_efficiency);
        let compute_t = flops / self.gpu.effective_flops();
        mem_t.max(compute_t)
    }

    /// Detailed cost of one decode step.
    pub fn decode_step(
        &self,
        algo: &CompressionConfig,
        batch: usize,
        kv_len: usize,
    ) -> StageTime {
        let env = self.env();
        let attention_s = self.llm.n_layers as f64
            * attention_decode_time(&env, algo, batch, kv_len);
        let overhead_s = self.llm.n_layers as f64 * self.engine.per_layer_overhead_s()
            + self.engine.per_step_overhead_s();
        let comm_bytes = batch as f64 * self.llm.d_model as f64 * 2.0;
        StageTime {
            linear_s: self.linear_time(batch as f64),
            attention_s,
            overhead_s,
            comm_s: self.comm_time(comm_bytes),
        }
    }

    /// Detailed cost of a prefill over `prompt_len` tokens.
    pub fn prefill(
        &self,
        algo: &CompressionConfig,
        batch: usize,
        prompt_len: usize,
    ) -> StageTime {
        let env = self.env();
        let attention_s = self.llm.n_layers as f64
            * attention_prefill_time(&env, algo, batch, prompt_len);
        let overhead_s = self.llm.n_layers as f64 * self.engine.per_layer_overhead_s()
            + self.engine.per_step_overhead_s();
        let comm_bytes = (batch * prompt_len) as f64 * self.llm.d_model as f64 * 2.0;
        StageTime {
            linear_s: self.linear_time((batch * prompt_len) as f64),
            attention_s,
            overhead_s,
            comm_s: self.comm_time(comm_bytes),
        }
    }

    /// Cost of recomputing a preempted sequence's KV cache before it
    /// resumes decoding: the serving engine's evict-and-recompute
    /// preemption (vLLM's recompute mode) re-runs a full prefill over the
    /// sequence's entire context (prompt + tokens generated so far), so
    /// the roofline charge is exactly [`prefill`](Self::prefill) at that
    /// context length. Kept as a named operation so preemption costing has
    /// one auditable definition.
    pub fn recompute(
        &self,
        algo: &CompressionConfig,
        batch: usize,
        context_len: usize,
    ) -> StageTime {
        self.prefill(algo, batch, context_len)
    }

    /// Time to move `tokens` of KV cache across a host link (GPU↔CPU spill
    /// or refill): a fixed DMA-setup latency plus the KV bytes under the
    /// active compression policy at `link_gbs` GB/s. Zero tokens cost
    /// nothing (no transfer is issued). Compression shrinks bytes/token,
    /// so compressed caches also spill and refill faster — the same
    /// interaction the roofline prices for compute.
    pub fn kv_transfer_time(
        &self,
        algo: &CompressionConfig,
        tokens: usize,
        link_gbs: f64,
        latency_s: f64,
    ) -> f64 {
        if tokens == 0 {
            return 0.0;
        }
        let per_token = crate::kv_bytes_per_token(&self.llm, algo, self.tensor_parallel);
        latency_s + per_token * tokens as f64 / (link_gbs.max(1e-9) * 1e9)
    }

    /// Decode throughput in tokens/second at a fixed KV length.
    pub fn decode_throughput(
        &self,
        algo: &CompressionConfig,
        batch: usize,
        kv_len: usize,
    ) -> f64 {
        batch as f64 / self.decode_step(algo, batch, kv_len).total()
    }

    /// Prefill throughput in prompt tokens/second.
    pub fn prefill_throughput(
        &self,
        algo: &CompressionConfig,
        batch: usize,
        prompt_len: usize,
    ) -> f64 {
        (batch * prompt_len) as f64 / self.prefill(algo, batch, prompt_len).total()
    }

    /// Attention-layer-only execution time (Figure 3's quantity), seconds.
    pub fn attention_layer_time(
        &self,
        algo: &CompressionConfig,
        batch: usize,
        len: usize,
        decode: bool,
    ) -> f64 {
        let env = self.env();
        if decode {
            attention_decode_time(&env, algo, batch, len)
        } else {
            attention_prefill_time(&env, algo, batch, len)
        }
    }

    /// Time to serve one whole request: prefill + `new_tokens` decode steps
    /// with a growing KV (integrated analytically at step granularity).
    pub fn request_latency(
        &self,
        algo: &CompressionConfig,
        batch: usize,
        prompt_len: usize,
        new_tokens: usize,
    ) -> f64 {
        let mut t = self.prefill(algo, batch, prompt_len).total();
        // Sample the decode cost every few steps — KV grows linearly and the
        // cost model is smooth, so midpoint sampling is accurate and fast.
        let stride = 8usize;
        let mut produced = 0usize;
        while produced < new_tokens {
            let chunk = stride.min(new_tokens - produced);
            let kv = prompt_len + produced + chunk / 2;
            t += self.decode_step(algo, batch, kv).total() * chunk as f64;
            produced += chunk;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lmd_7b() -> DeploymentSpec {
        DeploymentSpec {
            gpu: GpuSpec::a6000(),
            llm: LlmSpec::llama2_7b(),
            engine: EngineKind::LmDeploy,
            tensor_parallel: 1,
        }
    }

    #[test]
    fn fp16_prefill_throughput_near_paper_table3() {
        // Paper Table 3: 6610 tokens/s prefill at TP=1 on A6000.
        let dep = lmd_7b();
        let thr = dep.prefill_throughput(&CompressionConfig::Fp16, 4, 2048);
        assert!(
            (4000.0..11000.0).contains(&thr),
            "prefill throughput {thr} out of calibration band"
        );
    }

    #[test]
    fn recompute_charges_a_full_context_prefill() {
        let dep = lmd_7b();
        let algo = CompressionConfig::Fp16;
        let recompute = dep.recompute(&algo, 1, 768).total();
        let prefill = dep.prefill(&algo, 1, 768).total();
        assert_eq!(recompute.to_bits(), prefill.to_bits());
        // Longer contexts cost more to recompute.
        assert!(dep.recompute(&algo, 1, 1536).total() > recompute);
    }

    #[test]
    fn fp16_decode_throughput_near_paper_table3() {
        // Paper Table 3: ~130 tokens/s decode at TP=1.
        let dep = lmd_7b();
        let thr = dep.decode_throughput(&CompressionConfig::Fp16, 4, 4096);
        assert!(
            (60.0..260.0).contains(&thr),
            "decode throughput {thr} out of calibration band"
        );
    }

    #[test]
    fn engines_rank_trl_below_trlfa_below_lmd() {
        // Paper Figure 1 (a-b).
        let mut dep = lmd_7b();
        let mut last = 0.0;
        for engine in EngineKind::all() {
            dep.engine = engine;
            let thr = dep.decode_throughput(&CompressionConfig::Fp16, 8, 2048);
            assert!(thr > last, "{engine} should beat the previous engine");
            last = thr;
        }
    }

    #[test]
    fn tp_improves_throughput_sublinearly() {
        // Paper Table 3: TP2 ~1.5x, TP4 flattens.
        let mut dep = lmd_7b();
        let t1 = dep.decode_throughput(&CompressionConfig::Fp16, 4, 4096);
        dep.tensor_parallel = 2;
        let t2 = dep.decode_throughput(&CompressionConfig::Fp16, 4, 4096);
        dep.tensor_parallel = 4;
        let t4 = dep.decode_throughput(&CompressionConfig::Fp16, 4, 4096);
        assert!(t2 > t1 && t4 > t2);
        assert!(t2 < 2.0 * t1, "TP scaling must be sublinear");
        assert!(t4 < 4.0 * t1);
    }

    #[test]
    fn tp_shrinks_compression_speedup() {
        // Paper Observation 2: TP weakens the benefit of compression.
        let mut dep = lmd_7b();
        let speedup_at = |dep: &DeploymentSpec| {
            dep.decode_throughput(&CompressionConfig::streaming(64, 448), 4, 4096)
                / dep.decode_throughput(&CompressionConfig::Fp16, 4, 4096)
        };
        let s1 = speedup_at(&dep);
        dep.tensor_parallel = 4;
        let s4 = speedup_at(&dep);
        assert!(s1 > 1.0, "compression should help at TP1 ({s1})");
        assert!(s4 < s1, "TP4 speedup {s4} should be below TP1 {s1}");
    }

    #[test]
    fn h2o_hurts_prefill_throughput() {
        // Paper Table 3 prefill: H2O ~0.5-0.6x.
        let dep = lmd_7b();
        let fp16 = dep.prefill_throughput(&CompressionConfig::Fp16, 4, 2048);
        let h2o = dep.prefill_throughput(&CompressionConfig::h2o(64, 448), 4, 2048);
        let ratio = h2o / fp16;
        assert!((0.35..0.85).contains(&ratio), "H2O prefill ratio {ratio}");
    }

    #[test]
    fn kivi_prefill_is_near_baseline() {
        let dep = lmd_7b();
        let fp16 = dep.prefill_throughput(&CompressionConfig::Fp16, 4, 2048);
        let kivi = dep.prefill_throughput(&CompressionConfig::kivi(4), 4, 2048);
        let ratio = kivi / fp16;
        assert!((0.9..1.2).contains(&ratio), "KIVI prefill ratio {ratio}");
    }

    #[test]
    fn sparsity_decode_speedup_grows_with_kv() {
        let dep = lmd_7b();
        let speedup = |kv: usize| {
            dep.decode_throughput(&CompressionConfig::streaming(64, 448), 8, kv)
                / dep.decode_throughput(&CompressionConfig::Fp16, 8, kv)
        };
        assert!(speedup(8192) > speedup(1024));
        assert!(speedup(8192) > 1.2);
    }

    #[test]
    fn kv_transfer_prices_bytes_over_the_link() {
        let dep = lmd_7b();
        let algo = CompressionConfig::Fp16;
        assert_eq!(dep.kv_transfer_time(&algo, 0, 25.0, 50e-6), 0.0);
        let t1k = dep.kv_transfer_time(&algo, 1024, 25.0, 50e-6);
        let expected =
            50e-6 + crate::kv_bytes_per_token(&dep.llm, &algo, 1) * 1024.0 / (25.0 * 1e9);
        assert!((t1k - expected).abs() < 1e-15, "{t1k} vs {expected}");
        // Twice the tokens, roughly twice the time (latency amortizes).
        let t2k = dep.kv_transfer_time(&algo, 2048, 25.0, 50e-6);
        assert!(t2k > 1.9 * t1k && t2k < 2.0 * t1k);
        // A compressed cache transfers faster than FP16.
        let kivi = dep.kv_transfer_time(&CompressionConfig::kivi(4), 2048, 25.0, 50e-6);
        assert!(kivi < t2k);
        // Refilling a 1k-token llama2-7b context is far cheaper than
        // recomputing it — the reason spilling pays.
        assert!(t1k < dep.recompute(&algo, 1, 1024).total());
    }

    #[test]
    fn request_latency_grows_with_output_length() {
        let dep = lmd_7b();
        let short = dep.request_latency(&CompressionConfig::Fp16, 1, 512, 64);
        let long = dep.request_latency(&CompressionConfig::Fp16, 1, 512, 512);
        assert!(long > 2.0 * short);
    }

    #[test]
    fn stage_time_breakdown_sums() {
        let dep = lmd_7b();
        let st = dep.decode_step(&CompressionConfig::Fp16, 4, 2048);
        let total = st.linear_s + st.attention_s + st.overhead_s + st.comm_s;
        assert!((st.total() - total).abs() < 1e-12);
        assert!(st.linear_s > 0.0 && st.attention_s > 0.0 && st.overhead_s > 0.0);
        assert_eq!(st.comm_s, 0.0); // TP=1.
    }
}
