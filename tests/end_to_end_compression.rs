//! End-to-end integration: TinyLM generation through every real cache
//! implementation, checking the paper's accuracy/length mechanisms emerge.

use rethink_kv_compression::kvcache::{CompressionConfig, GearParams, KiviParams};
use rethink_kv_compression::model::{vocab, GenerateParams, ModelConfig, TinyLm};
use rethink_kv_compression::tensor::{argmax, par};
use rethink_kv_compression::workload::{
    sample_conversations, scaled_paper_suite, semantic_score, ShareGptConfig,
};

fn needle_prompt(filler: usize) -> (Vec<usize>, usize) {
    let (k, v) = (vocab::CONTENT_START + 3, vocab::CONTENT_START + 17);
    let mut p = vec![vocab::BOS, k, v, vocab::EOS_SYM];
    for i in 0..filler {
        p.push(vocab::CONTENT_START + 25 + (i % 16));
    }
    p.push(k);
    (p, v)
}

#[test]
fn every_policy_generates_without_panicking() {
    let model = TinyLm::new(ModelConfig::induction_mha());
    let (prompt, _) = needle_prompt(60);
    for algo in scaled_paper_suite() {
        let out = model.generate(&prompt, &algo.config, &GenerateParams::greedy(8));
        assert!(out.prompt_len == prompt.len(), "{}", algo.label);
        assert!(out.cache_stats.tokens_seen > 0, "{}", algo.label);
    }
}

#[test]
fn fp16_and_mild_quantization_retrieve_the_needle() {
    let model = TinyLm::new(ModelConfig::induction_mha());
    let (prompt, v) = needle_prompt(80);
    for algo in [
        CompressionConfig::Fp16,
        rethink_kv_compression::workload::scaled_kivi(4),
        rethink_kv_compression::workload::scaled_gear(4),
    ] {
        let out = model.generate(&prompt, &algo, &GenerateParams::greedy(4));
        assert_eq!(out.tokens.first(), Some(&v), "{algo:?}");
    }
}

#[test]
fn tight_streaming_budget_loses_the_needle() {
    let model = TinyLm::new(ModelConfig::induction_mha());
    let (prompt, v) = needle_prompt(80);
    let out = model.generate(
        &prompt,
        &CompressionConfig::streaming(2, 14),
        &GenerateParams::greedy(4),
    );
    assert_ne!(out.tokens.first(), Some(&v));
}

#[test]
fn h2o_beats_streaming_on_heavily_attended_needles() {
    // A fact restated several times mid-context becomes a *heavy hitter*:
    // every restatement pours attention onto the earlier value positions,
    // so H2O's accumulated-score policy retains them. StreamingLLM's
    // fixed sink+recent window evicts the mid-context span regardless.
    let model = TinyLm::new(ModelConfig::induction_mha());
    let mut h2o_hits = 0;
    let mut stream_hits = 0;
    let trials = 6usize;
    for trial in 0..trials {
        let (k, v) = (
            vocab::CONTENT_START + trial,
            vocab::CONTENT_START + 10 + trial,
        );
        let filler = |p: &mut Vec<usize>, n: usize, salt: usize| {
            for i in 0..n {
                p.push(vocab::CONTENT_START + 20 + (i * 7 + salt) % 32);
            }
        };
        let mut prompt = vec![vocab::BOS];
        for rep in 0..6 {
            filler(&mut prompt, 8, trial + rep * 5);
            prompt.extend([k, v]);
        }
        filler(&mut prompt, 28, trial + 50);
        prompt.push(k);

        let h2o = model.generate(
            &prompt,
            &rethink_kv_compression::workload::scaled_h2o(32),
            &GenerateParams::greedy(4),
        );
        let stream = model.generate(
            &prompt,
            &rethink_kv_compression::workload::scaled_streaming(32),
            &GenerateParams::greedy(4),
        );
        h2o_hits += usize::from(h2o.tokens.first() == Some(&v));
        stream_hits += usize::from(stream.tokens.first() == Some(&v));
    }
    assert!(
        h2o_hits > stream_hits,
        "h2o {h2o_hits}/{trials} vs stream {stream_hits}/{trials}"
    );
}

#[test]
fn compression_shifts_length_distribution_toward_longer() {
    let model = TinyLm::new(ModelConfig::induction_mha());
    let requests = sample_conversations(&ShareGptConfig::tiny_scale(16, 77), 64);
    let mut longer = 0usize;
    let mut shorter = 0usize;
    for r in &requests {
        let params = |seed| GenerateParams {
            max_new_tokens: (r.reference_response_len * 3).max(24).min(96),
            temperature: 1.0,
            seed,
        };
        let base = model
            .generate(&r.prompt, &CompressionConfig::Fp16, &params(1))
            .response_len();
        let comp = model
            .generate(
                &r.prompt,
                &rethink_kv_compression::workload::scaled_streaming(32),
                &params(1),
            )
            .response_len();
        if comp > base {
            longer += 1;
        }
        if comp < base {
            shorter += 1;
        }
    }
    assert!(
        longer > shorter,
        "compression should lengthen responses: {longer} longer vs {shorter} shorter"
    );
}

#[test]
fn semantic_score_degrades_gracefully_not_catastrophically_for_quantizers() {
    let model = TinyLm::new(ModelConfig::induction_mha());
    let requests = sample_conversations(&ShareGptConfig::tiny_scale(8, 33), 64);
    let mut kivi_total = 0.0;
    for r in &requests {
        let out = model.generate(
            &r.prompt,
            &rethink_kv_compression::workload::scaled_kivi(4),
            &GenerateParams::greedy(r.reference_response_len + 8),
        );
        kivi_total += semantic_score(&out.tokens, &r.reference_response);
    }
    let avg = kivi_total / requests.len() as f64;
    assert!(avg > 60.0, "KIVI-4 semantic score too low: {avg}");
}

#[test]
fn gqa_model_exhibits_the_same_mechanisms() {
    let model = TinyLm::new(ModelConfig::induction_gqa());
    let (prompt, v) = needle_prompt(60);
    let full = model.generate(&prompt, &CompressionConfig::Fp16, &GenerateParams::greedy(4));
    assert_eq!(full.tokens.first(), Some(&v));
    let squeezed = model.generate(
        &prompt,
        &CompressionConfig::streaming(1, 7),
        &GenerateParams::greedy(4),
    );
    assert_ne!(squeezed.tokens.first(), Some(&v));
}

#[test]
fn memory_accounting_is_consistent_across_the_stack() {
    let model = TinyLm::new(ModelConfig::induction_mha());
    let (prompt, _) = needle_prompt(100);
    for algo in scaled_paper_suite() {
        let mut session = model.start_session(&algo.config);
        session.prefill(&prompt);
        let stats = session.cache_stats();
        assert_eq!(stats.memory_bytes, session.kv_memory_bytes(), "{}", algo.label);
        if matches!(algo.config, CompressionConfig::Fp16) {
            assert_eq!(stats.memory_bytes, stats.fp16_baseline_bytes);
        } else {
            assert!(
                stats.memory_bytes < stats.fp16_baseline_bytes,
                "{} should compress",
                algo.label
            );
        }
    }
}

/// Every `CompressionConfig` variant at a budget that covers a
/// `prompt`-token prompt plus its generation, `total` tokens in all: the
/// retention rules keep every row (H2O / StreamingLLM / TOVA at budget
/// `>= total`, SnapKV / PyramidKV keeping the whole prompt at every
/// layer), Quest selects every page, KIVI and GEAR never flush their
/// full-precision window, and ThinK keeps every channel.
fn covering_budgets(prompt: usize, total: usize) -> [CompressionConfig; 10] {
    [
        CompressionConfig::Fp16,
        CompressionConfig::Kivi(KiviParams { bits: 2, group_size: 8, residual: total }),
        CompressionConfig::Gear(GearParams { bits: 2, buffer: total, ..GearParams::default() }),
        CompressionConfig::h2o(4, total),
        CompressionConfig::streaming(4, total),
        CompressionConfig::snapkv(prompt),
        CompressionConfig::tova(total),
        CompressionConfig::think(1.0),
        CompressionConfig::pyramid_kv(prompt, prompt),
        CompressionConfig::quest(4, total.div_ceil(4)),
    ]
}

/// `prefill` then `steps` greedy `decode`s: the logits after the prompt
/// and after every generated token.
fn greedy_logits(
    model: &TinyLm,
    cfg: &CompressionConfig,
    prompt: &[usize],
    steps: usize,
) -> Vec<Vec<f32>> {
    let mut session = model.start_session(cfg);
    let mut logits = vec![session.prefill(prompt)];
    for _ in 0..steps {
        let next = argmax(logits.last().expect("prefill logits"));
        logits.push(session.decode(next));
    }
    logits
}

rethink_kv_compression::tensor::det_cases! {
    /// The covering-budget oracle: a policy whose budget covers the whole
    /// sequence must generate exactly what FP16 does — the same greedy
    /// tokens and bit-identical logits at every step, through prefill and
    /// decode alike — on MHA and GQA, at any pool width.
    fn covering_budgets_generate_exactly_what_fp16_does(rng, cases = 4) {
        let prompt_len = rng.gen_range(1usize..40);
        let steps = rng.gen_range(1usize..16);
        for model_cfg in [ModelConfig::induction_mha(), ModelConfig::induction_gqa()] {
            let model = TinyLm::new(model_cfg);
            let mut prompt = vec![vocab::BOS];
            let content = vocab::CONTENT_START..model_cfg.vocab_size;
            prompt.extend((1..prompt_len).map(|_| rng.gen_range(content.clone())));
            for threads in [1usize, 3] {
                par::set_threads(Some(threads));
                let fp16 = greedy_logits(&model, &CompressionConfig::Fp16, &prompt, steps);
                for cfg in covering_budgets(prompt_len, prompt_len + steps) {
                    let got = greedy_logits(&model, &cfg, &prompt, steps);
                    for (step, (g, f)) in got.iter().zip(&fp16).enumerate() {
                        let what = format!(
                            "{cfg:?}, {} kv heads, {threads} threads, step {step}",
                            model_cfg.n_kv_heads
                        );
                        assert_eq!(argmax(g), argmax(f), "token diverged: {what}");
                        let same_bits = g.iter().zip(f).all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(same_bits, "logits diverged: {what}");
                    }
                }
            }
        }
        par::set_threads(None);
    }
}
