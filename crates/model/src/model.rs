//! TinyLM forward pass and generation sessions.

use rkvc_kvcache::{AttendBatch, AttendScratch, CacheStats, CompressionConfig, KvCache};
use rkvc_tensor::silu;

use crate::vocab::TokenId;
use crate::config::ModelConfig;
use crate::posenc::PositionEncoder;
use crate::weights::ModelWeights;

/// The TinyLM transformer.
///
/// See the crate documentation for the architecture and the rationale of the
/// constructed induction head. `TinyLm` is immutable and cheap to share;
/// per-request state lives in [`Session`].
#[derive(Debug, Clone)]
pub struct TinyLm {
    cfg: ModelConfig,
    weights: ModelWeights,
    posenc: PositionEncoder,
}

impl TinyLm {
    /// Builds a model from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` violates structural invariants
    /// (see [`ModelConfig::validate`]).
    pub fn new(cfg: ModelConfig) -> Self {
        cfg.validate();
        let weights = ModelWeights::build(&cfg);
        let posenc = PositionEncoder::new(cfg.pos_dim);
        TinyLm {
            cfg,
            weights,
            posenc,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }


    /// Opens a generation session whose per-head KV caches use the given
    /// compression policy.
    pub fn start_session(&self, compression: &CompressionConfig) -> Session<'_> {
        let caches = (0..self.cfg.n_layers)
            .map(|layer| {
                (0..self.cfg.n_kv_heads)
                    .map(|_| {
                        compression.build_for_layer(
                            self.cfg.head_dim(),
                            layer,
                            self.cfg.n_layers,
                        )
                    })
                    .collect()
            })
            .collect();
        Session {
            model: self,
            caches,
            pos: 0,
            prev_token: crate::vocab::BOS,
            scratch: Scratch {
                attend: (0..self.cfg.n_kv_heads).map(|_| AttendScratch::default()).collect(),
                ..Scratch::default()
            },
        }
    }
}

/// Estimated scalar operations one KV-head unit spends attending one
/// query over one cached position: a multiply-add for the score dot plus
/// a multiply-add for the value accumulation. Feeds
/// [`rkvc_tensor::par::grain_for`], which turns it into the
/// thread-count-invariant inline/dispatch decision for the attention
/// fan-out.
const ATTN_OPS_PER_CACHED_ELEM: usize = 4;

/// One KV head's share of a layer's attention: its cache, its attention
/// scratch and its stripe of the output.
struct KvUnit<'a> {
    kvh: usize,
    cache: &'a mut dyn KvCache,
    attend: &'a mut AttendScratch,
    out: &'a mut [f32],
}

/// Per-session activation buffers, row-major with one row per token of
/// the current pass, grown on demand and reused by the passes after it:
/// decode steps allocate no activation once the first has run. Prompt-sized
/// buffers live only while [`Session::prefill`] runs.
#[derive(Debug, Default)]
struct Scratch {
    /// The residual stream.
    x: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    /// Attention outputs as [`KvCache::extend_attend`] writes them: one
    /// `n x (group * head_dim)` stripe per KV head.
    stripes: Vec<f32>,
    /// The stripes' live rows gathered token-major: `wo`'s input.
    attn: Vec<f32>,
    proj: Vec<f32>,
    /// The MLP's gate projection, then its hidden activation in place.
    gate: Vec<f32>,
    up: Vec<f32>,
    /// Attention working memory, one per KV head (the units of a layer
    /// run concurrently), reused across layers and passes.
    attend: Vec<AttendScratch>,
}

/// A generation session: the mutable KV caches and stream position for one
/// request.
///
/// Created by [`TinyLm::start_session`]. Feed the prompt with
/// [`Session::prefill`], then sample and feed tokens one at a time with
/// [`Session::decode`].
#[derive(Debug)]
pub struct Session<'m> {
    model: &'m TinyLm,
    /// `caches[layer][kv_head]`.
    caches: Vec<Vec<Box<dyn KvCache>>>,
    pos: usize,
    prev_token: TokenId,
    scratch: Scratch,
}

impl Session<'_> {
    /// The one transformer pass: runs `tokens` through the model, updating
    /// all caches, and returns the logits after the last of them. Decode
    /// is its one-token case and prefill its whole-prompt case.
    ///
    /// Each layer projects every row at once through the packed product,
    /// then each KV head consumes its tokens strictly in order in one
    /// [`KvCache::extend_attend`] call, the heads fanned across
    /// [`rkvc_tensor::par`]: units touch disjoint caches, disjoint scratch
    /// and disjoint output stripes. Each cache sees the call sequence of a
    /// token-at-a-time loop, and a row's product does not depend on the
    /// rows batched with it, so logits and every cache state are
    /// bit-identical to `n` one-token passes at any thread count — the
    /// property `batched_prefill_matches_per_token_oracle` pins down.
    ///
    /// Only what generation can observe is computed. A layer hands the
    /// next one its rows `live_from..n`: all of them below the last layer,
    /// whose K/V projections read every row, and row `n - 1` alone out of
    /// the last layer, because `lm_head` reads nothing else. K, V and Q
    /// are projected and handed to the caches for every token in every
    /// layer — a cache must see every append, and a score-driven policy
    /// every query — with [`AttendBatch::read_from`] set to `live_from`,
    /// so the cache decides which dead queries it can skip; the attention
    /// gather, `wo`, both residual adds and the MLP run on the live rows
    /// only.
    ///
    /// # Panics
    ///
    /// Panics if a token is outside the vocabulary.
    fn extend(&mut self, tokens: &[TokenId]) -> Vec<f32> {
        let cfg = &self.model.cfg;
        let w = &self.model.weights;
        let d = cfg.d_model();
        let hd = cfg.head_dim();
        let gs = cfg.group_size();
        let width = gs * hd;
        let scale = 1.0 / (hd as f32).sqrt();
        let n = tokens.len();
        let pos0 = self.pos;
        let s = &mut self.scratch;

        // Embed every position: current code (A) + previous code (B) +
        // position (P), one row per token.
        s.x.clear();
        s.x.resize(n * d, 0.0);
        let mut prev = self.prev_token;
        for (t, (&tok, row)) in tokens.iter().zip(s.x.chunks_exact_mut(d)).enumerate() {
            assert!(tok < cfg.vocab_size, "token {tok} out of vocabulary");
            row[cfg.seg_a()..][..cfg.code_dim].copy_from_slice(w.codes.row(tok));
            row[cfg.seg_b()..][..cfg.code_dim].copy_from_slice(w.codes.row(prev));
            for (i, v) in self.model.posenc.encode(pos0 + t).into_iter().enumerate() {
                row[cfg.seg_p() + i] = v;
            }
            prev = tok;
        }

        for (l, lw) in w.layers.iter().enumerate() {
            let live_from = if l + 1 == w.layers.len() { n - 1 } else { 0 };

            lw.wq.mul_rows_into(&s.x, &mut s.q);
            lw.wk.mul_rows_into(&s.x, &mut s.k);
            lw.wv.mul_rows_into(&s.x, &mut s.v);

            // One unit per KV head, consuming the tokens in order into its
            // own zeroed stripe. The grain estimate counts the queries
            // whose outputs are read, so a unit left with one live query
            // is not dispatched as if it attended `n`.
            s.stripes.clear();
            s.stripes.resize(cfg.n_kv_heads * n * width, 0.0);
            let (q, k, v) = (&s.q, &s.k, &s.v);
            let (q_stride, kv_stride) = (lw.wq.cols(), lw.wk.cols());
            let mut units: Vec<KvUnit<'_>> = self.caches[l]
                .iter_mut()
                .zip(s.attend.iter_mut())
                .zip(s.stripes.chunks_mut(n * width))
                .enumerate()
                .map(|(kvh, ((cache, attend), out))| KvUnit {
                    kvh,
                    cache: cache.as_mut(),
                    attend,
                    out,
                })
                .collect();
            let grain = rkvc_tensor::par::grain_for(
                units.len(),
                ATTN_OPS_PER_CACHED_ELEM * (n - live_from) * (pos0 + n) * width,
            );
            rkvc_tensor::par::par_chunks_mut(&mut units, grain, |_, chunk| {
                for unit in chunk.iter_mut() {
                    let batch = AttendBatch {
                        head_dim: hd,
                        n_tokens: n,
                        pos0,
                        scale,
                        group: gs,
                        keys: &k[unit.kvh * hd..],
                        values: &v[unit.kvh * hd..],
                        kv_stride,
                        queries: &q[unit.kvh * width..],
                        q_stride,
                        read_from: live_from,
                    };
                    unit.cache.extend_attend(&batch, unit.attend, unit.out);
                }
            });
            drop(units);
            let attn_width = cfg.n_kv_heads * width;
            s.attn.resize((n - live_from) * attn_width, 0.0);
            for (kvh, stripe) in s.stripes.chunks_exact(n * width).enumerate() {
                for (row, t) in s.attn.chunks_exact_mut(attn_width).zip(live_from..) {
                    row[kvh * width..][..width].copy_from_slice(&stripe[t * width..][..width]);
                }
            }

            // Residual add of the attention output, then the SwiGLU MLP
            // with its residual, on the live rows.
            let x = &mut s.x[live_from * d..];
            lw.wo.mul_rows_into(&s.attn, &mut s.proj);
            for (xi, p) in x.iter_mut().zip(&s.proj) {
                *xi += p;
            }
            lw.w_gate.mul_rows_into(x, &mut s.gate);
            lw.w_up.mul_rows_into(x, &mut s.up);
            for (g, &u) in s.gate.iter_mut().zip(&s.up) {
                *g = silu(*g) * u;
            }
            lw.w_down.mul_rows_into(&s.gate, &mut s.proj);
            for (xi, p) in x.iter_mut().zip(&s.proj) {
                *xi += p;
            }
        }

        // Only the final position's logits are observable.
        let mut logits = Vec::new();
        w.lm_head.mul_rows_into(&s.x[(n - 1) * d..], &mut logits);
        self.prev_token = prev;
        self.pos += n;
        logits
    }

    /// Signals the end of a prompt to every cache (SnapKV compresses here).
    fn finish_prefill(&mut self) {
        for cache in self.caches.iter_mut().flatten() {
            cache.finish_prefill();
        }
    }

    /// Ingests a whole prompt as one batched pass, returning the logits
    /// after its last token and signalling `finish_prefill` to every
    /// cache. Bit-identical to [`Session::prefill_per_token`].
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or contains an out-of-vocabulary token.
    pub fn prefill(&mut self, prompt: &[TokenId]) -> Vec<f32> {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        let logits = self.extend(prompt);
        self.finish_prefill();
        // The prompt's activations are spent: hand them back rather than
        // hold them beside the caches for the rest of the session.
        let attend = std::mem::take(&mut self.scratch.attend);
        self.scratch = Scratch { attend, ..Scratch::default() };
        logits
    }

    /// Reference prompt path: one one-token pass per prompt token, as the
    /// seed's token-at-a-time loop ran it. Retained as the oracle for the
    /// batched [`Session::prefill`].
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or contains an out-of-vocabulary token.
    pub fn prefill_per_token(&mut self, prompt: &[TokenId]) -> Vec<f32> {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        let mut logits = Vec::new();
        for &t in prompt {
            logits = self.extend(&[t]);
        }
        self.finish_prefill();
        logits
    }

    /// Runs one token through the model as a one-token pass, updating all
    /// caches, and returns the next-token logits.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub fn decode(&mut self, token: TokenId) -> Vec<f32> {
        self.extend(&[token])
    }

    /// Current sequence position (tokens processed so far).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Total KV memory across all layers and heads, in the caches' native
    /// storage format.
    pub fn kv_memory_bytes(&self) -> usize {
        self.caches
            .iter()
            .flatten()
            .map(|c| c.memory_bytes())
            .sum()
    }

    /// Sequence positions currently retained by one head's cache — useful
    /// for inspecting what an eviction policy kept.
    ///
    /// # Panics
    ///
    /// Panics if `layer` or `kv_head` is out of range.
    pub fn retained_positions(&self, layer: usize, kv_head: usize) -> Vec<usize> {
        self.caches[layer][kv_head].view().positions
    }

    /// Aggregated cache statistics (element-wise sums over heads; the error
    /// field is averaged).
    pub fn cache_stats(&self) -> CacheStats {
        let mut agg = CacheStats::default();
        let mut n = 0u32;
        for c in self.caches.iter().flatten() {
            let s = c.stats();
            agg.tokens_seen += s.tokens_seen;
            agg.tokens_retained += s.tokens_retained;
            agg.tokens_evicted += s.tokens_evicted;
            agg.memory_bytes += s.memory_bytes;
            agg.resident_bytes += s.resident_bytes;
            agg.fp16_baseline_bytes += s.fp16_baseline_bytes;
            agg.mean_quant_error += s.mean_quant_error;
            n += 1;
        }
        if n > 0 {
            agg.mean_quant_error /= n as f32;
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab;
    use rkvc_tensor::argmax;

    fn pattern_prompt(a: TokenId) -> Vec<TokenId> {
        // "<bos> a b c <eos-sym> a" — induction should continue with b.
        vec![vocab::BOS, a, a + 1, a + 2, vocab::EOS_SYM, a]
    }

    #[test]
    fn induction_head_retrieves_successor_fp16() {
        let model = TinyLm::new(ModelConfig::induction_mha());
        let a = vocab::CONTENT_START + 5;
        let mut s = model.start_session(&CompressionConfig::Fp16);
        let logits = s.prefill(&pattern_prompt(a));
        assert_eq!(argmax(&logits), a + 1, "should predict the successor of a");
    }

    #[test]
    fn gqa_variant_also_retrieves() {
        let model = TinyLm::new(ModelConfig::induction_gqa());
        let a = vocab::CONTENT_START + 9;
        let mut s = model.start_session(&CompressionConfig::Fp16);
        let logits = s.prefill(&pattern_prompt(a));
        assert_eq!(argmax(&logits), a + 1);
    }

    #[test]
    fn copies_long_pattern_greedily() {
        let model = TinyLm::new(ModelConfig::induction_mha());
        let base = vocab::CONTENT_START;
        let seq: Vec<TokenId> = (0..8).map(|i| base + 2 * i).collect();
        let mut prompt = vec![vocab::BOS];
        prompt.extend(&seq);
        prompt.push(vocab::EOS_SYM);
        prompt.push(seq[0]);
        let mut s = model.start_session(&CompressionConfig::Fp16);
        let mut logits = s.prefill(&prompt);
        for &want in &seq[1..] {
            let got = argmax(&logits);
            assert_eq!(got, want);
            logits = s.decode(got);
        }
        // After the pattern, the model should emit the stop symbol.
        assert_eq!(argmax(&logits), vocab::EOS_SYM);
    }

    #[test]
    fn position_advances_and_memory_grows() {
        let model = TinyLm::new(ModelConfig::induction_mha());
        let mut s = model.start_session(&CompressionConfig::Fp16);
        s.prefill(&[vocab::BOS, vocab::CONTENT_START]);
        assert_eq!(s.position(), 2);
        let m1 = s.kv_memory_bytes();
        s.decode(vocab::CONTENT_START + 1);
        assert!(s.kv_memory_bytes() > m1);
    }

    #[test]
    fn eviction_policy_bounds_session_memory() {
        let model = TinyLm::new(ModelConfig::induction_mha());
        let mut s = model.start_session(&CompressionConfig::streaming(4, 12));
        let prompt: Vec<TokenId> = (0..60).map(|i| vocab::CONTENT_START + (i % 20)).collect();
        s.prefill(&prompt);
        let stats = s.cache_stats();
        assert_eq!(stats.tokens_seen, 60 * 2 * 2); // 2 layers x 2 kv heads.
        assert!(stats.tokens_retained < stats.tokens_seen);
        assert!(stats.tokens_evicted > 0);
    }

    #[test]
    fn streaming_eviction_breaks_long_range_retrieval() {
        // The "a b" pair sits at the start; with sinks too small to cover it
        // and a short recent window, StreamingLLM evicts it and the
        // induction retrieval fails — the mechanism behind the paper's
        // long-context negative samples.
        let model = TinyLm::new(ModelConfig::induction_mha());
        let a = vocab::CONTENT_START + 7;
        let b = vocab::CONTENT_START + 11;
        let mut prompt = vec![vocab::BOS, a, b];
        // Filler of unrelated symbols.
        for i in 0..48 {
            prompt.push(vocab::CONTENT_START + 20 + (i % 10));
        }
        prompt.push(a);

        let mut full = model.start_session(&CompressionConfig::Fp16);
        let got_full = argmax(&full.prefill(&prompt));
        assert_eq!(got_full, b, "FP16 must retrieve across the filler");

        let mut evicting = model.start_session(&CompressionConfig::streaming(1, 8));
        let got_evict = argmax(&evicting.prefill(&prompt));
        assert_ne!(got_evict, b, "eviction should have destroyed the pair");
    }

    #[test]
    fn quantization_preserves_retrieval_at_4_bits() {
        let model = TinyLm::new(ModelConfig::induction_mha());
        let a = vocab::CONTENT_START + 3;
        let mut prompt = vec![vocab::BOS, a, a + 1];
        for i in 0..40 {
            prompt.push(vocab::CONTENT_START + 30 + (i % 8));
        }
        prompt.push(a);
        let cfg = CompressionConfig::Kivi(rkvc_kvcache::KiviParams {
            bits: 4,
            group_size: 8,
            residual: 8,
        });
        let mut s = model.start_session(&cfg);
        let logits = s.prefill(&prompt);
        assert_eq!(argmax(&logits), a + 1, "KIVI-4 should retain retrieval");
    }

    /// The batched prefill must be bit-identical to the seed's
    /// token-at-a-time loop — logits, retained positions, and cache
    /// statistics — for every compression policy and at every thread
    /// count, because each per-head cache's `extend_attend` over the
    /// whole prompt equals its own per-token append/attend sequence. The
    /// prompt spans several query blocks and flush periods of each
    /// blocked policy (FP16 blocks of 16, KIVI flushing every 8, GEAR
    /// every 8, StreamingLLM blocked until its window fills), and the
    /// policies on the default loop (H2O, TOVA, SnapKV, PyramidKV, Quest,
    /// ThinK) evict, select or observe throughout — in the last layer
    /// too, where the model reads one query's output and they must still
    /// see all of them. The four-layer model checks that only the last
    /// layer is trimmed; the one-token prompt and follow-up are the case
    /// where the trimmed layer's only live row is also its first.
    #[test]
    fn batched_prefill_matches_per_token_oracle() {
        let policies = [
            CompressionConfig::Fp16,
            CompressionConfig::streaming(2, 10),
            CompressionConfig::Kivi(rkvc_kvcache::KiviParams {
                bits: 4,
                group_size: 8,
                residual: 8,
            }),
            CompressionConfig::Gear(rkvc_kvcache::GearParams {
                buffer: 8,
                outlier_ratio: 0.05,
                rank_ratio: 0.1,
                ..Default::default()
            }),
            CompressionConfig::h2o(4, 12),
            CompressionConfig::SnapKv(rkvc_kvcache::SnapKvParams {
                budget: 12,
                obs_window: 4,
            }),
            CompressionConfig::tova(14),
            CompressionConfig::quest(4, 3),
            CompressionConfig::think(0.5),
            CompressionConfig::PyramidKv(rkvc_kvcache::PyramidKvParams {
                first_layer_budget: 20,
                last_layer_budget: 8,
                obs_window: 4,
            }),
        ];
        let long_prompt: Vec<TokenId> = {
            let mut p = vec![vocab::BOS];
            p.extend((0..70).map(|i| vocab::CONTENT_START + (i % 16)));
            p
        };
        // A follow-up turn prefilled onto the non-empty caches, as
        // multi-turn serving does.
        let long_follow_up: Vec<TokenId> =
            (0..21).map(|i| vocab::CONTENT_START + (i * 5 % 16)).collect();
        let turns = [
            (&long_prompt[..], &long_follow_up[..]),
            (&long_prompt[..1], &long_follow_up[..1]),
        ];
        for model_cfg in [
            ModelConfig::induction_mha(),
            ModelConfig::induction_gqa(),
            ModelConfig::induction_mha_deep(),
        ] {
            let model = TinyLm::new(model_cfg);
            for (cfg, (prompt, follow_up)) in
                policies.iter().flat_map(|cfg| turns.iter().map(move |turn| (cfg, *turn)))
            {
                let heads = || {
                    (0..model_cfg.n_layers)
                        .flat_map(|layer| (0..model_cfg.n_kv_heads).map(move |kvh| (layer, kvh)))
                };
                let mut per_token = model.start_session(cfg);
                let oracle_first = per_token.prefill_per_token(prompt);
                let oracle = per_token.prefill_per_token(follow_up);
                let oracle_stats = per_token.cache_stats();
                let oracle_retained: Vec<Vec<usize>> =
                    heads().map(|(layer, kvh)| per_token.retained_positions(layer, kvh)).collect();
                // One more token: decode reads the rows themselves, not
                // only which positions were kept.
                let next = vocab::CONTENT_START + 3;
                let oracle_next = per_token.decode(next);
                for threads in [1usize, 2, 4] {
                    rkvc_tensor::par::set_threads(Some(threads));
                    let what = format!(
                        "{cfg:?}, {} layers, {}+{} tokens, {threads} threads",
                        model_cfg.n_layers,
                        prompt.len(),
                        follow_up.len()
                    );
                    let mut batched = model.start_session(cfg);
                    let first = batched.prefill(prompt);
                    let logits = batched.prefill(follow_up);
                    assert_eq!(batched.position() + 1, per_token.position());
                    assert_eq!(batched.cache_stats(), oracle_stats, "{what}");
                    let retained: Vec<Vec<usize>> =
                        heads().map(|(layer, kvh)| batched.retained_positions(layer, kvh)).collect();
                    assert_eq!(retained, oracle_retained, "{what}");
                    let after = batched.decode(next);
                    for (got, want) in
                        [(&first, &oracle_first), (&logits, &oracle), (&after, &oracle_next)]
                    {
                        assert_eq!(got.len(), want.len());
                        for (a, b) in got.iter().zip(want) {
                            assert_eq!(a.to_bits(), b.to_bits(), "logits diverged for {what}");
                        }
                    }
                }
                rkvc_tensor::par::set_threads(None);
            }
        }
    }

    /// Decode after a batched prefill continues from the identical cache
    /// state: the full greedy continuation matches the per-token path.
    #[test]
    fn decode_after_batched_prefill_matches_oracle() {
        let model = TinyLm::new(ModelConfig::induction_gqa());
        let a = vocab::CONTENT_START + 2;
        let prompt = pattern_prompt(a);
        let mut s1 = model.start_session(&CompressionConfig::Fp16);
        let mut s2 = model.start_session(&CompressionConfig::Fp16);
        let mut l1 = s1.prefill(&prompt);
        let mut l2 = s2.prefill_per_token(&prompt);
        for _ in 0..6 {
            let t1 = argmax(&l1);
            let t2 = argmax(&l2);
            assert_eq!(t1, t2);
            l1 = s1.decode(t1);
            l2 = s2.decode(t2);
            for (x, y) in l1.iter().zip(&l2) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn rejects_out_of_vocab_token() {
        let model = TinyLm::new(ModelConfig::induction_mha());
        let mut s = model.start_session(&CompressionConfig::Fp16);
        s.decode(10_000);
    }

    #[test]
    #[should_panic(expected = "prompt must not be empty")]
    fn rejects_empty_prompt() {
        let model = TinyLm::new(ModelConfig::induction_mha());
        let mut s = model.start_session(&CompressionConfig::Fp16);
        s.prefill(&[]);
    }
}

#[cfg(test)]
mod depth_tests {
    use super::*;
    use crate::vocab;
    use rkvc_tensor::argmax;

    #[test]
    fn four_layer_model_still_retrieves() {
        let model = TinyLm::new(ModelConfig::induction_mha_deep());
        let a = vocab::CONTENT_START + 4;
        let mut prompt = vec![vocab::BOS, a, a + 1, a + 2, vocab::EOS_SYM];
        for i in 0..30 {
            prompt.push(vocab::CONTENT_START + 20 + (i % 12));
        }
        prompt.push(a);
        let mut s = model.start_session(&CompressionConfig::Fp16);
        let logits = s.prefill(&prompt);
        assert_eq!(argmax(&logits), a + 1, "deep model retrieval");
    }

    #[test]
    fn deep_model_has_per_layer_caches() {
        let model = TinyLm::new(ModelConfig::induction_mha_deep());
        let mut s = model.start_session(&CompressionConfig::streaming(2, 6));
        s.prefill(&[vocab::BOS, vocab::CONTENT_START, vocab::CONTENT_START + 1]);
        for layer in 0..4 {
            assert_eq!(s.retained_positions(layer, 0).len(), 3);
        }
    }
}
