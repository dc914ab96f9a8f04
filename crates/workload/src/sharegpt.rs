//! ShareGPT-like conversation workload.
//!
//! The real ShareGPT sample gives the paper three things: a prompt-length
//! marginal, a response-length marginal, and arrival timing. We reproduce
//! all three with seeded log-normal/Poisson samplers, and additionally build
//! a TinyLM prompt per request whose FP16 greedy completion is *known* (the
//! continuation of an embedded pattern), so compression-induced length and
//! quality shifts are measured on real generations rather than assumed.

use rkvc_tensor::det::{Exp, LogNormal};
use rkvc_model::vocab::{self, TokenId};
use rkvc_tensor::{seeded_rng, SeededRng};

/// Configuration for the conversation sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShareGptConfig {
    /// Number of requests to draw.
    pub n_requests: usize,
    /// RNG seed.
    pub seed: u64,
    /// Log-normal `mu` of the prompt length (in tokens).
    pub prompt_log_mean: f64,
    /// Log-normal `sigma` of the prompt length.
    pub prompt_log_std: f64,
    /// Log-normal `mu` of the reference response length.
    pub response_log_mean: f64,
    /// Log-normal `sigma` of the reference response length.
    pub response_log_std: f64,
    /// Prompt length clamp (min, max).
    pub prompt_clamp: (usize, usize),
    /// Response length clamp (min, max).
    pub response_clamp: (usize, usize),
    /// Mean request arrival rate (requests/second) for the Poisson process.
    pub arrival_rps: f64,
}

impl ShareGptConfig {
    /// Statistics matched to the paper's ShareGPT sample (prompt median
    /// ~450 tokens, response median ~200, heavy right tails).
    pub fn paper_scale(n_requests: usize, seed: u64) -> Self {
        ShareGptConfig {
            n_requests,
            seed,
            prompt_log_mean: 6.1, // median ~450
            prompt_log_std: 0.9,
            response_log_mean: 5.3, // median ~200
            response_log_std: 0.85,
            prompt_clamp: (16, 3500),
            response_clamp: (8, 1024),
            arrival_rps: 10.0,
        }
    }

    /// Statistics scaled to TinyLM context windows (prompt median ~80,
    /// response median ~12) for generation-driven experiments.
    pub fn tiny_scale(n_requests: usize, seed: u64) -> Self {
        ShareGptConfig {
            n_requests,
            seed,
            prompt_log_mean: 4.38, // median ~80
            prompt_log_std: 0.45,
            response_log_mean: 2.5, // median ~12
            response_log_std: 0.5,
            prompt_clamp: (24, 240),
            response_clamp: (3, 36),
            arrival_rps: 10.0,
        }
    }
}

/// One conversation request.
#[derive(Debug, Clone, PartialEq)]
pub struct ConversationRequest {
    /// Sequential request id.
    pub id: usize,
    /// Arrival time (seconds from epoch start, Poisson process).
    pub arrival_s: f64,
    /// Prompt length in tokens (for analytical throughput models).
    pub prompt_len: usize,
    /// Reference (FP16) response length in tokens.
    pub reference_response_len: usize,
    /// TinyLM prompt whose FP16 greedy completion is `reference_response`.
    pub prompt: Vec<TokenId>,
    /// The pattern continuation an uncompressed greedy decode produces.
    pub reference_response: Vec<TokenId>,
}

/// Builds a TinyLM prompt of roughly `prompt_len` tokens that embeds a
/// response pattern of `resp_len + 1` distinct symbols at a random context
/// depth and ends poised to reproduce it:
///
/// ```text
/// <bos> [filler] <sep> [pattern] <eos> [filler] pattern[0]
/// ```
///
/// The pattern sits in the *middle* of the context, not at its end — so
/// reproducing it requires genuine long-range retrieval over the KV cache.
/// Cache eviction that drops the mid-context span breaks the retrieval and
/// generation wanders (typically lengthening the response), which is the
/// mechanism behind the paper's length-shift observation.
fn build_prompt(
    prompt_len: usize,
    resp_len: usize,
    vocab_size: usize,
    rng: &mut SeededRng,
) -> (Vec<TokenId>, Vec<TokenId>) {
    let content = vocab::content_count(vocab_size);
    // Distinct pattern symbols (a random rotation of the content range so
    // requests differ).
    let offset = rng.gen_range(0..content);
    let pattern: Vec<TokenId> = (0..resp_len + 1)
        .map(|i| vocab::CONTENT_START + (offset + i * 3) % content)
        .collect();

    let overhead = pattern.len() + 4; // bos + sep + pattern + eos + trigger
    let filler_len = prompt_len.saturating_sub(overhead);
    // Pattern depth: 25-85% into the filler. Deep enough that a fraction of
    // requests put the span beyond typical eviction windows (matching the
    // ~20-25% of ShareGPT samples the paper finds severely lengthened),
    // shallow enough that most survive.
    let before = (filler_len as f64 * rng.gen_range(0.25..0.85)) as usize;

    let mut filler = |prompt: &mut Vec<TokenId>, n: usize| {
        for _ in 0..n {
            // Filler avoids the pattern symbols to keep retrieval
            // unambiguous.
            let mut s = vocab::CONTENT_START + rng.gen_range(0..content);
            while pattern.contains(&s) {
                s = vocab::CONTENT_START + rng.gen_range(0..content);
            }
            prompt.push(s);
        }
    };

    let mut prompt = Vec::with_capacity(prompt_len);
    prompt.push(vocab::BOS);
    filler(&mut prompt, before);
    prompt.push(vocab::SEP);
    prompt.extend(&pattern);
    prompt.push(vocab::EOS_SYM);
    filler(&mut prompt, filler_len - before);
    prompt.push(pattern[0]);

    (prompt, pattern[1..].to_vec())
}

/// Draws the conversation workload.
///
/// # Examples
///
/// ```
/// use rkvc_workload::{sample_conversations, ShareGptConfig};
///
/// let reqs = sample_conversations(&ShareGptConfig::tiny_scale(10, 7), 64);
/// assert_eq!(reqs.len(), 10);
/// assert!(reqs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
/// ```
pub fn sample_conversations(
    cfg: &ShareGptConfig,
    vocab_size: usize,
) -> Vec<ConversationRequest> {
    let mut rng = seeded_rng(cfg.seed);
    let mut prompt_dist = LogNormal::new(cfg.prompt_log_mean, cfg.prompt_log_std)
        .expect("valid log-normal parameters");
    let mut resp_dist = LogNormal::new(cfg.response_log_mean, cfg.response_log_std)
        .expect("valid log-normal parameters");
    let mut interarrival = Exp::new(cfg.arrival_rps).expect("positive rate");

    let mut t = 0.0f64;
    (0..cfg.n_requests)
        .map(|id| {
            t += interarrival.sample(&mut rng);
            let prompt_len = (prompt_dist.sample(&mut rng) as usize)
                .clamp(cfg.prompt_clamp.0, cfg.prompt_clamp.1);
            let resp_len = (resp_dist.sample(&mut rng) as usize)
                .clamp(cfg.response_clamp.0, cfg.response_clamp.1);
            // Pattern symbols are drawn with stride 3 over the content
            // range, so patterns longer than a third of it would collide.
            let resp_len = resp_len.min(vocab::content_count(vocab_size) / 3 - 1);
            let (prompt, reference_response) =
                build_prompt(prompt_len, resp_len, vocab_size, &mut rng);
            ConversationRequest {
                id,
                arrival_s: t,
                prompt_len: prompt.len(),
                reference_response_len: reference_response.len(),
                prompt,
                reference_response,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_kvcache::CompressionConfig;
    use rkvc_model::{GenerateParams, ModelConfig, TinyLm};

    #[test]
    fn deterministic_per_seed() {
        let a = sample_conversations(&ShareGptConfig::tiny_scale(5, 3), 64);
        let b = sample_conversations(&ShareGptConfig::tiny_scale(5, 3), 64);
        assert_eq!(a, b);
    }

    #[test]
    fn lengths_respect_clamps() {
        let cfg = ShareGptConfig::tiny_scale(50, 1);
        for r in sample_conversations(&cfg, 64) {
            assert!(r.prompt.len() <= cfg.prompt_clamp.1 + 2);
            assert!(r.reference_response_len >= cfg.response_clamp.0.min(19));
        }
    }

    #[test]
    fn arrivals_are_increasing() {
        let reqs = sample_conversations(&ShareGptConfig::paper_scale(100, 9), 64);
        assert!(reqs.windows(2).all(|w| w[0].arrival_s < w[1].arrival_s));
        // Mean interarrival near 1/rps.
        let total = reqs.last().unwrap().arrival_s;
        let mean = total / 100.0;
        assert!((0.05..0.2).contains(&mean), "mean interarrival {mean}");
    }

    #[test]
    fn paper_scale_lengths_have_heavy_tails() {
        let reqs = sample_conversations(&ShareGptConfig::paper_scale(500, 11), 64);
        let mut lens: Vec<usize> = reqs.iter().map(|r| r.prompt_len).collect();
        lens.sort_unstable();
        let median = lens[250];
        let p95 = lens[475];
        assert!((100..600).contains(&median), "median {median}");
        assert!(p95 > 2 * median, "p95 {p95} vs median {median}");
    }

    #[test]
    fn fp16_greedy_reproduces_reference() {
        // The embedded pattern is exactly what uncompressed TinyLM decodes.
        let model = TinyLm::new(ModelConfig::induction_mha());
        let reqs = sample_conversations(&ShareGptConfig::tiny_scale(6, 21), 64);
        let mut exact = 0;
        for r in &reqs {
            let out = model.generate(
                &r.prompt,
                &CompressionConfig::Fp16,
                &GenerateParams::greedy(r.reference_response_len + 8),
            );
            if out.tokens == r.reference_response {
                exact += 1;
            }
        }
        assert!(exact >= 5, "only {exact}/6 references reproduced");
    }
}
