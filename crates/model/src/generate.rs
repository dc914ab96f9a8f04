//! End-to-end generation with EOS handling.

use rkvc_kvcache::{CacheStats, CompressionConfig};

use crate::vocab::{self, TokenId};
use crate::{Sampler, TinyLm};

/// Generation hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerateParams {
    /// Maximum new tokens to emit (the paper caps ShareGPT runs at 1024).
    pub max_new_tokens: usize,
    /// Sampling temperature (0 = greedy).
    pub temperature: f32,
    /// Sampler seed.
    pub seed: u64,
}

impl GenerateParams {
    /// Greedy decoding up to `max_new_tokens`.
    pub fn greedy(max_new_tokens: usize) -> Self {
        GenerateParams {
            max_new_tokens,
            temperature: 0.0,
            seed: 0,
        }
    }

    /// Temperature sampling.
    pub fn sampled(max_new_tokens: usize, temperature: f32, seed: u64) -> Self {
        GenerateParams {
            max_new_tokens,
            temperature,
            seed,
        }
    }
}

/// The outcome of a generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationOutput {
    /// Emitted tokens, excluding the terminating EOS symbol.
    pub tokens: Vec<TokenId>,
    /// Whether generation stopped on EOS (vs. hitting the token cap).
    pub stopped_by_eos: bool,
    /// Prompt length that was ingested.
    pub prompt_len: usize,
    /// Aggregated KV-cache statistics at the end of generation.
    pub cache_stats: CacheStats,
}

impl GenerationOutput {
    /// Response length in tokens (excluding EOS).
    pub fn response_len(&self) -> usize {
        self.tokens.len()
    }
}

impl TinyLm {
    /// Generates a completion for `prompt` under the given KV-cache
    /// compression policy.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or contains out-of-vocabulary ids.
    ///
    /// # Examples
    ///
    /// ```
    /// use rkvc_kvcache::CompressionConfig;
    /// use rkvc_model::{GenerateParams, ModelConfig, TinyLm, vocab};
    ///
    /// let model = TinyLm::new(ModelConfig::induction_mha());
    /// let a = vocab::CONTENT_START;
    /// let prompt = vec![vocab::BOS, a, a + 1, vocab::EOS_SYM, a];
    /// let out = model.generate(&prompt, &CompressionConfig::Fp16, &GenerateParams::greedy(4));
    /// assert_eq!(out.tokens, vec![a + 1]);
    /// assert!(out.stopped_by_eos);
    /// ```
    pub fn generate(
        &self,
        prompt: &[TokenId],
        compression: &CompressionConfig,
        params: &GenerateParams,
    ) -> GenerationOutput {
        let mut session = self.start_session(compression);
        let mut sampler = Sampler::new(params.temperature, params.seed);
        let mut logits = session.prefill(prompt);
        let mut tokens = Vec::new();
        let mut stopped_by_eos = false;
        for _ in 0..params.max_new_tokens {
            let t = sampler.sample(&logits);
            if t == vocab::EOS_SYM {
                stopped_by_eos = true;
                break;
            }
            tokens.push(t);
            logits = session.decode(t);
        }
        GenerationOutput {
            tokens,
            stopped_by_eos,
            prompt_len: prompt.len(),
            cache_stats: session.cache_stats(),
        }
    }
}

rkvc_tensor::json_struct!(GenerateParams {
    max_new_tokens,
    temperature,
    seed,
});
rkvc_tensor::json_struct!(GenerationOutput {
    tokens,
    stopped_by_eos,
    prompt_len,
    cache_stats,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;

    fn copy_prompt(seq: &[TokenId]) -> Vec<TokenId> {
        let mut p = vec![vocab::BOS];
        p.extend_from_slice(seq);
        p.push(vocab::EOS_SYM);
        p.push(seq[0]);
        p
    }

    #[test]
    fn greedy_copy_terminates_with_eos() {
        let model = TinyLm::new(ModelConfig::induction_mha());
        let seq: Vec<TokenId> = (0..6).map(|i| vocab::CONTENT_START + 3 * i).collect();
        let out = model.generate(
            &copy_prompt(&seq),
            &CompressionConfig::Fp16,
            &GenerateParams::greedy(32),
        );
        assert_eq!(out.tokens, seq[1..].to_vec());
        assert!(out.stopped_by_eos);
        assert_eq!(out.prompt_len, seq.len() + 3);
    }

    #[test]
    fn cap_limits_generation_length() {
        let model = TinyLm::new(ModelConfig::induction_mha());
        // Endless pattern: "a b a b ... a" with no EOS demonstration loops
        // forever; the cap must stop it.
        let a = vocab::CONTENT_START;
        let b = a + 1;
        let prompt = vec![vocab::BOS, a, b, a, b, a];
        let out = model.generate(
            &prompt,
            &CompressionConfig::Fp16,
            &GenerateParams::greedy(10),
        );
        assert_eq!(out.response_len(), 10);
        assert!(!out.stopped_by_eos);
    }

    #[test]
    fn sampled_generation_is_deterministic_per_seed() {
        let model = TinyLm::new(ModelConfig::induction_mha());
        let seq: Vec<TokenId> = (0..4).map(|i| vocab::CONTENT_START + i).collect();
        let p = copy_prompt(&seq);
        let params = GenerateParams::sampled(16, 1.0, 42);
        let a = model.generate(&p, &CompressionConfig::Fp16, &params);
        let b = model.generate(&p, &CompressionConfig::Fp16, &params);
        assert_eq!(a.tokens, b.tokens);
    }

    #[test]
    fn compression_with_tight_budget_changes_output() {
        let model = TinyLm::new(ModelConfig::induction_mha());
        let seq: Vec<TokenId> = (0..10).map(|i| vocab::CONTENT_START + 2 * i).collect();
        let p = copy_prompt(&seq);
        let full = model.generate(&p, &CompressionConfig::Fp16, &GenerateParams::greedy(24));
        let squeezed = model.generate(
            &p,
            &CompressionConfig::streaming(1, 4),
            &GenerateParams::greedy(24),
        );
        assert_ne!(
            full.tokens, squeezed.tokens,
            "a 5-token budget cannot preserve a 10-token copy"
        );
    }

    #[test]
    fn output_reports_cache_stats() {
        let model = TinyLm::new(ModelConfig::induction_mha());
        let seq: Vec<TokenId> = (0..4).map(|i| vocab::CONTENT_START + i).collect();
        let out = model.generate(
            &copy_prompt(&seq),
            &CompressionConfig::streaming(2, 4),
            &GenerateParams::greedy(8),
        );
        assert!(out.cache_stats.tokens_seen > 0);
        assert!(out.cache_stats.tokens_evicted > 0);
    }
}
