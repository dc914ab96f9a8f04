//! TinyLM generation workloads: `gen_long` and `gen_short`.
//!
//! Both drive the same public surface — `TinyLm::start_session`,
//! `Session::prefill`/`decode`, `Sampler::sample` — over the same five
//! compression policies, but from opposite ends: `gen_long` attends over a
//! 1024-token context for a fixed 256 steps (attend and the prefill matmul
//! dominate), `gen_short` serves many short conversations to EOS (cache
//! construction, append/flush and dispatch dominate).

use rkvc_kvcache::CompressionConfig;
use rkvc_model::vocab::{self, TokenId};
use rkvc_model::{ModelConfig, Sampler, TinyLm};
use rkvc_workload::{sample_conversations, ShareGptConfig};

use super::{Facts, UnitResult, Workload};
use crate::digest::Fnv1a;
use crate::trace::Tracer;

/// Metric-name labels of the five policies, in unit order.
pub const ALGOS: [&str; 5] = ["fp16", "kivi4", "gear4", "h2o", "stream"];

/// The five policies [`ALGOS`] names, in the same order.
pub fn policies() -> [CompressionConfig; 5] {
    [
        CompressionConfig::Fp16,
        CompressionConfig::kivi(4),
        CompressionConfig::gear(4),
        CompressionConfig::h2o(64, 448),
        CompressionConfig::streaming(4, 508),
    ]
}

/// Conversations per `gen_short` pass (x5 policies = 160 requests, about a
/// second on the sizing host, so a run holds a dozen passes).
pub(super) const SHORT_CONVERSATIONS: usize = 32;
/// Response cap of `gen_short`; responses stop on EOS well before it.
const SHORT_MAX_NEW: usize = 48;
/// Prompt length of `gen_long`.
const LONG_PROMPT_TOKENS: usize = 1024;
/// Teacher-forced decode steps of `gen_long`: fixed work whatever is sampled.
const LONG_DECODE_STEPS: usize = 256;

/// A generation workload over seeded prompts.
pub struct Gen {
    model: TinyLm,
    /// KV caches per session: layers x KV heads.
    caches: usize,
    prompts: Vec<Vec<TokenId>>,
    long: bool,
    seed: u64,
    /// KV bytes per token of the latest request under each policy.
    kv_bytes_per_tok: [f64; 5],
}

impl Gen {
    /// `gen_long`: one seeded 1024-token prompt under each policy.
    pub fn long(seed: u64) -> Self {
        let cfg = ShareGptConfig {
            prompt_clamp: (LONG_PROMPT_TOKENS, LONG_PROMPT_TOKENS),
            ..ShareGptConfig::tiny_scale(1, seed)
        };
        Gen::new(cfg, true, seed)
    }

    /// `gen_short`: `n` tiny-scale ShareGPT conversations under each policy.
    pub fn short(seed: u64, n: usize) -> Self {
        Gen::new(ShareGptConfig::tiny_scale(n, seed), false, seed)
    }

    fn new(cfg: ShareGptConfig, long: bool, seed: u64) -> Self {
        let model_cfg = ModelConfig::induction_mha();
        let model = TinyLm::new(model_cfg);
        let prompts = sample_conversations(&cfg, model_cfg.vocab_size)
            .into_iter()
            .map(|c| c.prompt)
            .collect();
        Gen {
            model,
            caches: model_cfg.n_layers * model_cfg.n_kv_heads,
            prompts,
            long,
            seed,
            kv_bytes_per_tok: [0.0; 5],
        }
    }
}

impl Workload for Gen {
    fn units(&self) -> Vec<String> {
        (0..self.prompts.len())
            .flat_map(|p| ALGOS.iter().map(move |a| format!("{p}/{a}")))
            .collect()
    }

    fn run_unit(&mut self, unit: usize, tr: &mut Tracer) -> UnitResult {
        let (p, a) = (unit / ALGOS.len(), unit % ALGOS.len());
        let (prompt, algo, policy) = (&self.prompts[p], ALGOS[a], policies()[a]);
        let id = unit as u64;
        let mut digest = Fnv1a::default();

        let request = tr.begin("request", algo, id, 1);
        let s = tr.begin("model.start_session", algo, id, 1);
        let mut session = self.model.start_session(&policy);
        tr.end(s);
        let mut sampler = if self.long {
            Sampler::greedy()
        } else {
            Sampler::new(1.0, self.seed ^ p as u64)
        };
        let s = tr.begin("model.prefill", algo, id, prompt.len() as u64);
        let mut logits = session.prefill(prompt);
        tr.end(s);

        let mut decoded = 0usize;
        loop {
            // Between tokens the request can be interrupted for a
            // calibration sample; inside a layer call it cannot.
            tr.calibrate(false);
            let s = tr.begin("model.sample", algo, id, 1);
            let token = sampler.sample(&logits);
            tr.end(s);
            digest.u64(token as u64);
            let feed = if self.long {
                if decoded == LONG_DECODE_STEPS {
                    break;
                }
                // Replay the prompt's own tokens: in-vocabulary, seeded,
                // and independent of what a policy makes the model say.
                prompt[1 + decoded % (prompt.len() - 1)]
            } else {
                if token == vocab::EOS_SYM || decoded == SHORT_MAX_NEW {
                    break;
                }
                token
            };
            let s = tr.begin("model.decode", algo, id, 1);
            logits = session.decode(feed);
            tr.end(s);
            decoded += 1;
        }
        tr.end(request);

        assert_eq!(
            session.position(),
            prompt.len() + decoded,
            "session position must equal prompt + decoded tokens"
        );
        assert_eq!(
            session.cache_stats().tokens_seen,
            session.position() * self.caches,
            "every head's cache must have seen every token"
        );
        self.kv_bytes_per_tok[a] = session.kv_memory_bytes() as f64 / session.position() as f64;
        UnitResult {
            ops: 1,
            work: session.position() as u64,
            digest: digest.finish(),
        }
    }

    fn check_units(&self) -> Vec<usize> {
        if self.long {
            vec![0]
        } else {
            (0..ALGOS.len()).collect()
        }
    }

    fn facts(&self) -> Facts {
        ALGOS
            .iter()
            .zip(self.kv_bytes_per_tok)
            .filter(|(_, bytes)| *bytes > 0.0)
            .map(|(algo, bytes)| (format!("model.kv_bytes_per_tok.{algo}"), bytes))
            .collect()
    }
}
