//! The throughput predictor (§5.1, Table 6).
//!
//! Profiles the attention operator offline per (algorithm, stage), shares
//! the non-attention operator profile across algorithms (they are
//! identical), and predicts stage throughput at arbitrary (batch, length)
//! by interpolation.

use rkvc_gpu::DeploymentSpec;
use rkvc_kvcache::CompressionConfig;

use crate::profiler::{ProfileGrid, ProfileTable};

/// A fitted throughput predictor for one deployment and one compression
/// algorithm.
#[derive(Debug, Clone)]
pub struct ThroughputPredictor {
    dep: DeploymentSpec,
    algo: CompressionConfig,
    prefill_attention: ProfileTable,
    decode_attention: ProfileTable,
    /// Shared (non-attention) operator profile, fitted once from the FP16
    /// deployment: decode is weights-traffic bound (slope per batch item),
    /// prefill is compute bound (slope per prompt token).
    decode_fixed_s: f64,
    decode_per_seq_s: f64,
    prefill_fixed_s: f64,
    prefill_per_token_s: f64,
}

impl ThroughputPredictor {
    /// Profiles the deployment and builds the predictor. `jitter_std`
    /// models measurement noise during profiling.
    pub fn fit(
        dep: &DeploymentSpec,
        algo: &CompressionConfig,
        grid: ProfileGrid,
        jitter_std: f64,
        seed: u64,
    ) -> Self {
        let prefill_attention =
            ProfileTable::profile(dep, algo, false, grid.clone(), jitter_std, seed);
        let decode_attention =
            ProfileTable::profile(dep, algo, true, grid, jitter_std, seed.wrapping_add(1));

        // Profile the shared operators once from the FP16 deployment at two
        // operating points per stage (attention excluded), fitting an
        // affine model per stage.
        let fp16 = CompressionConfig::Fp16;
        let decode_probe = |b: usize| {
            let st = dep.decode_step(&fp16, b, 128);
            st.linear_s + st.overhead_s + st.comm_s
        };
        let d1 = decode_probe(1);
        let d16 = decode_probe(16);
        let decode_per_seq_s = ((d16 - d1) / 15.0).max(0.0);
        let decode_fixed_s = (d1 - decode_per_seq_s).max(0.0);

        let prefill_probe = |tokens: usize| {
            let st = dep.prefill(&fp16, 1, tokens);
            st.linear_s + st.overhead_s + st.comm_s
        };
        let p512 = prefill_probe(512);
        let p2048 = prefill_probe(2048);
        let prefill_per_token_s = ((p2048 - p512) / 1536.0).max(0.0);
        let prefill_fixed_s = (p512 - 512.0 * prefill_per_token_s).max(0.0);

        ThroughputPredictor {
            dep: dep.clone(),
            algo: *algo,
            prefill_attention,
            decode_attention,
            decode_fixed_s,
            decode_per_seq_s,
            prefill_fixed_s,
            prefill_per_token_s,
        }
    }

    /// The algorithm this predictor covers.
    pub fn algo(&self) -> &CompressionConfig {
        &self.algo
    }

    /// Predicted decode-step time (seconds) at the given batch and KV
    /// length.
    pub fn predict_decode_step(&self, batch: usize, kv_len: usize) -> f64 {
        let attn = self.dep.llm.n_layers as f64
            * self.decode_attention.interpolate(batch as f64, kv_len as f64);
        self.decode_fixed_s + self.decode_per_seq_s * batch as f64 + attn
    }

    /// Predicted decode throughput (tokens/s).
    pub fn predict_decode_throughput(&self, batch: usize, kv_len: usize) -> f64 {
        batch as f64 / self.predict_decode_step(batch, kv_len)
    }

    /// Predicted prefill time (seconds).
    pub fn predict_prefill(&self, batch: usize, prompt_len: usize) -> f64 {
        let attn = self.dep.llm.n_layers as f64
            * self
                .prefill_attention
                .interpolate(batch as f64, prompt_len as f64);
        self.prefill_fixed_s + self.prefill_per_token_s * (batch * prompt_len) as f64 + attn
    }

    /// Paper accuracy metric `(1 - |pred - gt| / gt) * 100%`, averaged over
    /// an off-grid evaluation sweep against the (possibly noisy) ground
    /// truth provided by `ground_truth(batch, kv_len, decode) -> seconds`.
    pub fn accuracy_against<F>(&self, mut ground_truth: F) -> f64
    where
        F: FnMut(usize, usize, bool) -> f64,
    {
        let eval_batches = [1usize, 3, 6, 12, 24];
        let eval_lens = [192usize, 384, 768, 1536, 3072, 6144];
        let mut acc = 0.0;
        let mut n = 0.0;
        for &b in &eval_batches {
            for &l in &eval_lens {
                for decode in [true, false] {
                    let pred = if decode {
                        self.predict_decode_step(b, l)
                    } else {
                        self.predict_prefill(b, l)
                    };
                    let gt = ground_truth(b, l, decode);
                    if gt > 0.0 {
                        acc += (1.0 - (pred - gt).abs() / gt).max(0.0);
                        n += 1.0;
                    }
                }
            }
        }
        if n > 0.0 {
            acc / n
        } else {
            0.0
        }
    }

    /// Accuracy against the deployment's own cost model perturbed by
    /// log-normal measurement noise with sigma `noise_std` (the "measured
    /// hardware" stand-in).
    pub fn accuracy_with_noise(&self, noise_std: f64, seed: u64) -> f64 {
        let mut rng = rkvc_tensor::seeded_rng(seed);
        let dep = self.dep.clone();
        let algo = self.algo;
        self.accuracy_against(move |b, l, decode| {
            let t = if decode {
                dep.decode_step(&algo, b, l).total()
            } else {
                dep.prefill(&algo, b, l).total()
            };
            let z: f64 =
                rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
            t * (noise_std * z * 0.577).exp()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_gpu::{EngineKind, GpuSpec, LlmSpec};

    fn dep() -> DeploymentSpec {
        DeploymentSpec {
            gpu: GpuSpec::a6000(),
            llm: LlmSpec::llama2_7b(),
            engine: EngineKind::LmDeploy,
            tensor_parallel: 1,
        }
    }

    #[test]
    fn clean_profile_predicts_accurately() {
        let d = dep();
        for algo in CompressionConfig::paper_suite() {
            let p = ThroughputPredictor::fit(&d, &algo, ProfileGrid::standard(), 0.0, 1);
            let acc = p.accuracy_with_noise(0.0, 2);
            assert!(acc > 0.85, "{algo}: accuracy {acc}");
        }
    }

    #[test]
    fn noisy_profile_still_above_85_percent() {
        // Table 6 reports 85.8-88.5% across algorithms.
        let d = dep();
        let p = ThroughputPredictor::fit(
            &d,
            &CompressionConfig::Fp16,
            ProfileGrid::standard(),
            0.05,
            3,
        );
        let acc = p.accuracy_with_noise(0.05, 4);
        assert!(acc > 0.85, "accuracy {acc}");
        assert!(acc < 1.0);
    }

    #[test]
    fn predicted_throughput_tracks_cost_model() {
        let d = dep();
        let p = ThroughputPredictor::fit(&d, &CompressionConfig::Fp16, ProfileGrid::standard(), 0.0, 5);
        let pred = p.predict_decode_throughput(8, 4096);
        let truth = d.decode_throughput(&CompressionConfig::Fp16, 8, 4096);
        assert!((pred - truth).abs() / truth < 0.15, "pred {pred} truth {truth}");
    }

    #[test]
    fn predictor_preserves_algorithm_ordering() {
        // The predictor must still answer "which algo decodes faster here".
        let d = dep();
        let fp16 = ThroughputPredictor::fit(&d, &CompressionConfig::Fp16, ProfileGrid::standard(), 0.02, 6);
        let stream = ThroughputPredictor::fit(
            &d,
            &CompressionConfig::streaming(64, 448),
            ProfileGrid::standard(),
            0.02,
            7,
        );
        assert!(
            stream.predict_decode_throughput(8, 8192) > fp16.predict_decode_throughput(8, 8192)
        );
    }
}
