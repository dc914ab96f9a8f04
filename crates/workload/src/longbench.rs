//! LongBench-like long-context task suite.
//!
//! Six task types mirror LongBench's categories. Every sample is a TinyLM
//! prompt plus a [`Scorer`]; correctness requires retrieving specific
//! key→value associations from deep context, which is exactly what KV-cache
//! compression endangers (paper §4.4: summarization and QA suffer most).
//!
//! Construction idiom: facts are stored as `key value <eos>` triples, so an
//! uncompressed model queried with `key` emits `value` and stops. Task types
//! differ in where the queried fact sits (depth), how much distractor
//! context surrounds it, and how much must be reproduced — the knobs that
//! differentiate their fragility under compression.

use rkvc_tensor::det::Shuffle;
use rkvc_model::vocab::{self, TokenId};
use rkvc_tensor::{seeded_rng, SeededRng};

use crate::semantic::token_f1;

/// LongBench task categories (paper Figure 7 / Table 7 granularity).
///
/// `Ord` follows declaration order so `BTreeMap<TaskType, _>` breakdowns
/// iterate in this fixed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskType {
    /// Single-document question answering.
    SingleDocQA,
    /// Multi-document question answering (cross-document retrieval).
    MultiDocQA,
    /// Summarization (reproduce the salient repeated motif).
    Summarization,
    /// Few-shot learning (recall a demonstrated mapping).
    FewShot,
    /// Code completion (finish a previously seen idiom).
    Code,
    /// Synthetic retrieval (passkey-style needle lookup).
    Synthetic,
}

impl TaskType {
    /// All six task types.
    pub fn all() -> [TaskType; 6] {
        [
            TaskType::SingleDocQA,
            TaskType::MultiDocQA,
            TaskType::Summarization,
            TaskType::FewShot,
            TaskType::Code,
            TaskType::Synthetic,
        ]
    }

    /// Paper-style display label.
    pub fn label(&self) -> &'static str {
        match self {
            TaskType::SingleDocQA => "single-doc-qa",
            TaskType::MultiDocQA => "multi-doc-qa",
            TaskType::Summarization => "summarization",
            TaskType::FewShot => "few-shot",
            TaskType::Code => "code",
            TaskType::Synthetic => "synthetic",
        }
    }

    /// Coarse grouping used by Table 7 (Summarization / QA / Code).
    pub fn table7_group(&self) -> &'static str {
        match self {
            TaskType::Summarization => "Summarization",
            TaskType::SingleDocQA | TaskType::MultiDocQA | TaskType::Synthetic => {
                "Question Answering"
            }
            TaskType::Code | TaskType::FewShot => "Code",
        }
    }
}

impl std::fmt::Display for TaskType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How a response is scored, on a 0–100 scale.
#[derive(Debug, Clone, PartialEq)]
pub enum Scorer {
    /// Full credit iff the response starts with exactly these tokens.
    ExactPrefix(Vec<TokenId>),
    /// Graded credit: fraction of the expected answer reproduced as a
    /// prefix (multi-token answers earn partial credit, which is what makes
    /// the paper's threshold sweep graded rather than all-or-nothing).
    PrefixFraction(Vec<TokenId>),
    /// Token-overlap F1 against a reference (summarization-style).
    TokenF1(Vec<TokenId>),
}

impl Scorer {
    /// Scores a generated response.
    pub fn score(&self, response: &[TokenId]) -> f64 {
        match self {
            Scorer::ExactPrefix(expect) => {
                if response.len() >= expect.len() && &response[..expect.len()] == &expect[..] {
                    100.0
                } else {
                    0.0
                }
            }
            Scorer::PrefixFraction(expect) => {
                let matched = expect
                    .iter()
                    .zip(response)
                    .take_while(|(a, b)| a == b)
                    .count();
                100.0 * matched as f64 / expect.len().max(1) as f64
            }
            Scorer::TokenF1(reference) => token_f1(response, reference) * 100.0,
        }
    }

    /// The reference tokens the scorer compares against.
    pub fn reference(&self) -> &[TokenId] {
        match self {
            Scorer::ExactPrefix(e) => e,
            Scorer::PrefixFraction(e) => e,
            Scorer::TokenF1(r) => r,
        }
    }
}

/// One evaluation sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSample {
    /// Stable sample id.
    pub id: usize,
    /// Task category.
    pub task: TaskType,
    /// TinyLM prompt.
    pub prompt: Vec<TokenId>,
    /// Scoring rule.
    pub scorer: Scorer,
    /// Generation cap appropriate for the task.
    pub max_new_tokens: usize,
}

/// Suite configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LongBenchConfig {
    /// Samples per task type.
    pub samples_per_task: usize,
    /// Approximate prompt length in tokens.
    pub context_len: usize,
    /// Vocabulary size of the target model.
    pub vocab_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LongBenchConfig {
    fn default() -> Self {
        LongBenchConfig {
            samples_per_task: 20,
            context_len: 192,
            vocab_size: vocab::DEFAULT_VOCAB,
            seed: 0x10b6,
        }
    }
}

/// Symbol pool helper: distinct content symbols.
struct Pool {
    symbols: Vec<TokenId>,
    next: usize,
}

impl Pool {
    fn new(vocab_size: usize, rng: &mut SeededRng) -> Self {
        let mut symbols: Vec<TokenId> = (vocab::CONTENT_START..vocab_size).collect();
        symbols.shuffle(rng);
        Pool { symbols, next: 0 }
    }

    fn take(&mut self) -> TokenId {
        let s = self.symbols[self.next % self.symbols.len()];
        self.next += 1;
        s
    }

    /// A symbol *not* among the distinct leading allocations (reusable
    /// distractor).
    fn distractor(&self, rng: &mut SeededRng) -> TokenId {
        let tail = &self.symbols[self.symbols.len() / 2..];
        tail[rng.gen_range(0..tail.len())]
    }
}

/// Emits `n` distractor tokens that avoid `avoid`.
fn fill(prompt: &mut Vec<TokenId>, n: usize, pool: &Pool, avoid: &[TokenId], rng: &mut SeededRng) {
    for _ in 0..n {
        let mut s = pool.distractor(rng);
        let mut guard = 0;
        while avoid.contains(&s) && guard < 64 {
            s = pool.distractor(rng);
            guard += 1;
        }
        prompt.push(s);
    }
}

/// Generates the full suite: `samples_per_task` samples of each task type.
///
/// # Examples
///
/// ```
/// use rkvc_workload::LongBenchConfig;
///
/// let suite = rkvc_workload::longbench::generate_suite(&LongBenchConfig::default());
/// assert_eq!(suite.len(), 6 * 20);
/// ```
pub fn generate_suite(cfg: &LongBenchConfig) -> Vec<TaskSample> {
    let mut rng = seeded_rng(cfg.seed);
    let mut out = Vec::new();
    let mut id = 0;
    for task in TaskType::all() {
        for _ in 0..cfg.samples_per_task {
            out.push(generate_sample(id, task, cfg, &mut rng));
            id += 1;
        }
    }
    out
}

/// Generates one sample of the given task type.
pub fn generate_sample(
    id: usize,
    task: TaskType,
    cfg: &LongBenchConfig,
    rng: &mut SeededRng,
) -> TaskSample {
    let mut pool = Pool::new(cfg.vocab_size, rng);
    let l = cfg.context_len;
    let mut prompt = vec![vocab::BOS];

    match task {
        TaskType::SingleDocQA => {
            // One document of key->value facts (two-token answers so credit
            // is graded); query a fact from the middle of the document.
            let n_facts = 5;
            let facts: Vec<(TokenId, [TokenId; 2])> = (0..n_facts)
                .map(|_| (pool.take(), [pool.take(), pool.take()]))
                .collect();
            let (qk, qv) = facts[n_facts / 2];
            let mut avoid = vec![qk];
            avoid.extend(qv);
            let pad = l.saturating_sub(n_facts * 4 + 4) / (n_facts + 1);
            for &(k, v) in &facts {
                fill(&mut prompt, pad, &pool, &avoid, rng);
                prompt.extend([k, v[0], v[1], vocab::EOS_SYM]);
            }
            fill(&mut prompt, pad, &pool, &avoid, rng);
            prompt.extend([vocab::QUERY, qk]);
            TaskSample {
                id,
                task,
                prompt,
                scorer: Scorer::PrefixFraction(qv.to_vec()),
                max_new_tokens: 5,
            }
        }
        TaskType::MultiDocQA => {
            // Three documents separated by SEP; the queried fact lives in
            // the first document (longest-range retrieval).
            let facts: Vec<(TokenId, [TokenId; 2])> = (0..6)
                .map(|_| (pool.take(), [pool.take(), pool.take()]))
                .collect();
            let (qk, qv) = facts[0];
            let mut avoid = vec![qk];
            avoid.extend(qv);
            let per_doc = l / 3;
            for doc in 0..3 {
                for &(k, v) in &facts[doc * 2..doc * 2 + 2] {
                    fill(
                        &mut prompt,
                        per_doc.saturating_sub(10) / 2,
                        &pool,
                        &avoid,
                        rng,
                    );
                    prompt.extend([k, v[0], v[1], vocab::EOS_SYM]);
                }
                prompt.push(vocab::SEP);
            }
            prompt.extend([vocab::QUERY, qk]);
            TaskSample {
                id,
                task,
                prompt,
                scorer: Scorer::PrefixFraction(qv.to_vec()),
                max_new_tokens: 5,
            }
        }
        TaskType::Summarization => {
            // A salient motif repeated three times in the *front half* of
            // the context, with a long distractor tail before the summary
            // is requested — context-dependent exactly where eviction
            // windows cannot reach. Token-F1 scoring grades partial
            // retrieval.
            let motif: Vec<TokenId> = (0..6).map(|_| pool.take()).collect();
            let front = l / 2;
            let gap = front.saturating_sub(3 * (motif.len() + 1)) / 3;
            for _ in 0..3 {
                fill(&mut prompt, gap, &pool, &motif, rng);
                prompt.extend(&motif);
                prompt.push(vocab::EOS_SYM);
            }
            fill(&mut prompt, l - front, &pool, &motif, rng);
            prompt.push(motif[0]);
            TaskSample {
                id,
                task,
                prompt,
                scorer: Scorer::TokenF1(motif[1..].to_vec()),
                max_new_tokens: motif.len() + 6,
            }
        }
        TaskType::FewShot => {
            // Demonstrations of query->label pairs; the final query repeats
            // a *late* demonstration, so few-shot stays relatively robust
            // to recency-keeping eviction (matching LongBench's few-shot
            // resilience).
            let n_demo = 6;
            let pairs: Vec<(TokenId, TokenId)> =
                (0..n_demo).map(|_| (pool.take(), pool.take())).collect();
            let (qk, qv) = pairs[n_demo - 2];
            let pad = l.saturating_sub(n_demo * 4 + 4) / (n_demo + 1);
            for &(x, y) in &pairs {
                fill(&mut prompt, pad, &pool, &[qk, qv], rng);
                prompt.extend([vocab::QUERY, x, y, vocab::EOS_SYM]);
            }
            prompt.extend([vocab::QUERY, qk]);
            TaskSample {
                id,
                task,
                prompt,
                scorer: Scorer::ExactPrefix(vec![qv]),
                max_new_tokens: 4,
            }
        }
        TaskType::Code => {
            // An idiom (function body) defined once, then partially
            // restated near the end; complete the remainder. The defining
            // occurrence sits in the most recent third, making code the
            // most compression-tolerant task (paper Table 7).
            let idiom: Vec<TokenId> = (0..6).map(|_| pool.take()).collect();
            let head = 2 * l / 3;
            fill(&mut prompt, head, &pool, &idiom, rng);
            prompt.extend(&idiom);
            prompt.push(vocab::EOS_SYM);
            fill(&mut prompt, l / 6, &pool, &idiom, rng);
            // Restate the first half of the idiom.
            prompt.extend(&idiom[..3]);
            TaskSample {
                id,
                task,
                prompt,
                scorer: Scorer::PrefixFraction(idiom[3..].to_vec()),
                max_new_tokens: 6,
            }
        }
        TaskType::Synthetic => {
            // Passkey retrieval: a single three-token needle at a random
            // depth in pure noise.
            let nk = pool.take();
            let nv = [pool.take(), pool.take(), pool.take()];
            let mut avoid = vec![nk];
            avoid.extend(nv);
            let depth = rng.gen_range(0.1..0.7);
            let before = (l as f64 * depth) as usize;
            fill(&mut prompt, before, &pool, &avoid, rng);
            prompt.extend([nk, nv[0], nv[1], nv[2], vocab::EOS_SYM]);
            fill(&mut prompt, l.saturating_sub(before + 7), &pool, &avoid, rng);
            prompt.extend([vocab::QUERY, nk]);
            TaskSample {
                id,
                task,
                prompt,
                scorer: Scorer::PrefixFraction(nv.to_vec()),
                max_new_tokens: 6,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_kvcache::CompressionConfig;
    use rkvc_model::{GenerateParams, ModelConfig, TinyLm};

    #[test]
    fn suite_has_all_task_types() {
        let suite = generate_suite(&LongBenchConfig {
            samples_per_task: 3,
            ..Default::default()
        });
        assert_eq!(suite.len(), 18);
        for task in TaskType::all() {
            assert_eq!(suite.iter().filter(|s| s.task == task).count(), 3);
        }
    }

    #[test]
    fn prompts_are_near_context_len() {
        let cfg = LongBenchConfig {
            samples_per_task: 2,
            context_len: 150,
            ..Default::default()
        };
        for s in generate_suite(&cfg) {
            assert!(
                s.prompt.len() >= 100 && s.prompt.len() <= 200,
                "{}: len {}",
                s.task,
                s.prompt.len()
            );
        }
    }

    #[test]
    fn scorers_reward_correct_answers() {
        let exact = Scorer::ExactPrefix(vec![10, 11]);
        assert_eq!(exact.score(&[10, 11]), 100.0);
        assert_eq!(exact.score(&[10, 11, 12]), 100.0);
        assert_eq!(exact.score(&[10]), 0.0);
        assert_eq!(exact.score(&[11, 10]), 0.0);
        let f1 = Scorer::TokenF1(vec![5, 6, 7, 8]);
        assert_eq!(f1.score(&[5, 6, 7, 8]), 100.0);
        assert!(f1.score(&[5, 6]) > 30.0);
        assert_eq!(f1.score(&[]), 0.0);
    }

    #[test]
    fn fp16_model_solves_most_tasks() {
        // The suite must be solvable at FP16 — otherwise negative-sample
        // analysis is meaningless.
        let model = TinyLm::new(ModelConfig::induction_mha());
        let cfg = LongBenchConfig {
            samples_per_task: 2,
            context_len: 96,
            seed: 5,
            ..Default::default()
        };
        let suite = generate_suite(&cfg);
        let mut total = 0.0;
        for s in &suite {
            let out = model.generate(
                &s.prompt,
                &CompressionConfig::Fp16,
                &GenerateParams::greedy(s.max_new_tokens),
            );
            total += s.scorer.score(&out.tokens);
        }
        let avg = total / suite.len() as f64;
        assert!(avg > 75.0, "FP16 average score too low: {avg}");
    }

    #[test]
    fn tight_eviction_degrades_qa_tasks() {
        let model = TinyLm::new(ModelConfig::induction_mha());
        let cfg = LongBenchConfig {
            samples_per_task: 4,
            context_len: 120,
            seed: 6,
            ..Default::default()
        };
        let suite = generate_suite(&cfg);
        let qa: Vec<_> = suite
            .iter()
            .filter(|s| matches!(s.task, TaskType::MultiDocQA | TaskType::Synthetic))
            .collect();
        let score = |algo: &CompressionConfig| -> f64 {
            qa.iter()
                .map(|s| {
                    let out =
                        model.generate(&s.prompt, algo, &GenerateParams::greedy(s.max_new_tokens));
                    s.scorer.score(&out.tokens)
                })
                .sum::<f64>()
                / qa.len() as f64
        };
        let fp16 = score(&CompressionConfig::Fp16);
        let stream = score(&CompressionConfig::streaming(2, 14));
        assert!(
            stream < fp16,
            "tight streaming ({stream}) should degrade QA vs FP16 ({fp16})"
        );
    }

    #[test]
    fn table7_groups_cover_all_tasks() {
        for t in TaskType::all() {
            assert!(["Summarization", "Question Answering", "Code"]
                .contains(&t.table7_group()));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = LongBenchConfig::default();
        assert_eq!(generate_suite(&cfg), generate_suite(&cfg));
    }
}
