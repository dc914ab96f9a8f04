//! Shared fixtures for the experiment modules, and the one sample loop of
//! the ShareGPT-length experiments.
//!
//! How an experiment turns requests × policy into outputs — the loop, the
//! token cap, the per-request seed rule and the pool fan-out — is decided
//! here, in `generate_each`, for Tables 4/5/6/8/9/10 and Figures 4/5/15.
//! The LongBench-score experiments go through
//! [`crate::negative::evaluate_suite`] the same way.

use rkvc_gpu::{DeploymentSpec, EngineKind, GpuSpec, LlmSpec};
use rkvc_kvcache::CompressionConfig;
use rkvc_model::{GenerateParams, GenerationOutput, ModelConfig, TinyLm};
use rkvc_tensor::par;
use rkvc_workload::{sample_conversations, ConversationRequest, ShareGptConfig};

/// The paper's primary deployment: LLaMA-7B on one A6000 under LMDeploy.
pub(crate) fn a6000_lmdeploy(llm: LlmSpec) -> DeploymentSpec {
    DeploymentSpec {
        gpu: GpuSpec::a6000(),
        llm,
        engine: EngineKind::LmDeploy,
        tensor_parallel: 1,
    }
}

/// The paper-scale algorithm suite for the analytical (GPU cost model)
/// experiments: K-4, G-4, H2O-512, Stream-512 with the paper's
/// hyper-parameters.
pub fn paper_algos() -> Vec<(String, CompressionConfig)> {
    vec![
        ("FP16".to_owned(), CompressionConfig::Fp16),
        ("KIVI-4".to_owned(), CompressionConfig::kivi(4)),
        ("GEAR-4".to_owned(), CompressionConfig::gear(4)),
        ("H2O-512".to_owned(), CompressionConfig::h2o(64, 448)),
        ("Stream-512".to_owned(), CompressionConfig::streaming(64, 448)),
    ]
}

/// Shared TinyLM instance (LLaMA-family stand-in, MHA).
pub(crate) fn tiny_llama() -> TinyLm {
    TinyLm::new(ModelConfig::induction_mha())
}

/// Shared TinyLM instance (Mistral-family stand-in, GQA).
pub(crate) fn tiny_mistral() -> TinyLm {
    TinyLm::new(ModelConfig::induction_gqa())
}

/// Estimated scalar work per TinyLM generation (tens of tokens through
/// the full stack of per-layer matmuls) — far above
/// [`par::DISPATCH_MIN_OPS`], so `grain_for` fans one request per chunk.
const GENERATION_EST_OPS: usize = 1 << 20;

/// The one ShareGPT-length sample loop: generates every request under one
/// compression policy, outputs in request order.
///
/// Requests are independent sessions and `seed_of` maps a request id to
/// its sampler seed, so they fan across the deterministic worker pool and
/// the result is the same at any `RKVC_THREADS`. `seed_of` is a parameter
/// because the experiments derive that seed differently (`seed + id`,
/// `seed ^ id`, `seed ^ salt ^ id`) and the committed results pin each.
pub(crate) fn generate_each(
    model: &TinyLm,
    requests: &[ConversationRequest],
    algo: &CompressionConfig,
    temperature: f32,
    seed_of: impl Fn(u64) -> u64 + Sync,
) -> Vec<GenerationOutput> {
    let grain = par::grain_for(requests.len(), GENERATION_EST_OPS);
    par::par_map(requests, grain, |r| {
        let params = GenerateParams {
            // The paper caps generation at 1024; scale to TinyLM.
            max_new_tokens: (r.reference_response_len * 3).max(24).min(96),
            temperature,
            seed: seed_of(r.id as u64),
        };
        model.generate(&r.prompt, algo, &params)
    })
}

/// Response lengths of [`generate_each`], floored at one token so length
/// ratios stay finite.
pub(crate) fn response_lengths(
    model: &TinyLm,
    requests: &[ConversationRequest],
    algo: &CompressionConfig,
    temperature: f32,
    seed_of: impl Fn(u64) -> u64 + Sync,
) -> Vec<usize> {
    generate_each(model, requests, algo, temperature, seed_of)
        .iter()
        .map(|out| out.response_len().max(1))
        .collect()
}

/// Length multipliers (`measured / reference`) an algorithm induces,
/// measured on a tiny-scale workload. Used to transfer TinyLM length shifts
/// onto paper-scale requests.
pub(crate) fn length_multipliers(
    model: &TinyLm,
    n: usize,
    algo: &CompressionConfig,
    seed: u64,
) -> Vec<f64> {
    let reqs = sample_conversations(&ShareGptConfig::tiny_scale(n, seed), 64);
    response_lengths(model, &reqs, algo, 1.0, |id| seed.wrapping_add(id))
        .into_iter()
        .zip(&reqs)
        .map(|(m, r)| m as f64 / r.reference_response_len.max(1) as f64)
        .collect()
}

/// Per-head KV bytes `cfg` holds once a `prompt_len`-token prompt is
/// prefilled (uniform attention, so score-driven policies evict by
/// position).
pub(crate) fn steady_state_bytes(
    head_dim: usize,
    cfg: &CompressionConfig,
    prompt_len: usize,
) -> usize {
    let mut cache = cfg.build(head_dim);
    let row = vec![0.1; head_dim];
    for pos in 0..prompt_len {
        cache.append(&row, &row, pos);
        let n = cache.len();
        cache.observe_attention(&vec![1.0 / n as f32; n]);
    }
    cache.finish_prefill();
    cache.memory_bytes()
}

/// Formats a throughput as the figures do.
pub(crate) fn fmt_thr(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

/// Formats milliseconds.
pub(crate) fn fmt_ms(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serial loop every ShareGPT-length experiment used to carry,
    /// kept as the oracle: `generate_each` must return the same outputs in
    /// the same order, whatever the pool does with the requests.
    #[test]
    fn generate_each_equals_the_serial_loop() {
        let model = tiny_llama();
        let seed = 0x5EED;
        let requests = sample_conversations(&ShareGptConfig::tiny_scale(10, seed), 64);
        for algo in [CompressionConfig::Fp16, rkvc_workload::scaled_streaming(64)] {
            let serial: Vec<GenerationOutput> = requests
                .iter()
                .map(|r| {
                    let params = GenerateParams {
                        max_new_tokens: (r.reference_response_len * 3).max(24).min(96),
                        temperature: 1.0,
                        seed: seed ^ 3 ^ r.id as u64,
                    };
                    model.generate(&r.prompt, &algo, &params)
                })
                .collect();
            let driven = generate_each(&model, &requests, &algo, 1.0, |id| seed ^ 3 ^ id);
            assert_eq!(driven.len(), serial.len());
            for (d, s) in driven.iter().zip(&serial) {
                assert_eq!(d.tokens, s.tokens, "{algo}");
                assert_eq!(d.stopped_by_eos, s.stopped_by_eos, "{algo}");
            }
            let lens = response_lengths(&model, &requests, &algo, 1.0, |id| seed ^ 3 ^ id);
            let expected: Vec<usize> = serial.iter().map(|o| o.response_len().max(1)).collect();
            assert_eq!(lens, expected, "{algo}");
        }
    }
}
