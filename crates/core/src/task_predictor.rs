//! Task-type prediction (§5.3's recommended mitigation).
//!
//! The paper's remedy for compression's task-type fragility: *"adopt a
//! lightweight model to predict the task types of input requests"*, then
//! apply task-specific compression. This module implements the lightweight
//! classifier as one-vs-rest ridge scorers over prompt-structure features,
//! and the task-aware policy selector built on top of it.

use rkvc_kvcache::CompressionConfig;
use rkvc_model::vocab::{self, TokenId};
use rkvc_tensor::Matrix;
use rkvc_workload::TaskType;

use crate::linreg::RidgeRegression;

/// Prompt-structure features for task classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TaskFeatures {
    /// Prompt length in tokens.
    pub prompt_len: f32,
    /// EOS (fact/demonstration terminator) count.
    pub eos_count: f32,
    /// SEP (document separator) count.
    pub sep_count: f32,
    /// QUERY marker count.
    pub query_count: f32,
    /// Distinct-token fraction.
    pub distinct_frac: f32,
    /// Whether the prompt ends with `QUERY <token>` (a question stub).
    pub ends_with_query: f32,
    /// Mean spacing between EOS markers (fact density).
    pub eos_spacing: f32,
}

impl TaskFeatures {
    /// Extracts features from a prompt.
    pub fn extract(prompt: &[TokenId]) -> Self {
        let n = prompt.len().max(1);
        let eos_count = prompt.iter().filter(|&&t| t == vocab::EOS_SYM).count();
        let mut seen = std::collections::BTreeSet::new();
        for &t in prompt {
            seen.insert(t);
        }
        let ends_with_query = if prompt.len() >= 2 && prompt[prompt.len() - 2] == vocab::QUERY {
            1.0
        } else {
            0.0
        };
        TaskFeatures {
            prompt_len: prompt.len() as f32,
            eos_count: eos_count as f32,
            sep_count: prompt.iter().filter(|&&t| t == vocab::SEP).count() as f32,
            query_count: prompt.iter().filter(|&&t| t == vocab::QUERY).count() as f32,
            distinct_frac: seen.len() as f32 / n as f32,
            ends_with_query,
            eos_spacing: if eos_count > 0 {
                prompt.len() as f32 / eos_count as f32
            } else {
                prompt.len() as f32
            },
        }
    }

    /// Flattens to the classification feature vector.
    pub fn to_vec(self) -> Vec<f32> {
        vec![
            self.prompt_len,
            self.eos_count,
            self.sep_count,
            self.query_count,
            self.distinct_frac,
            self.ends_with_query,
            self.eos_spacing,
        ]
    }

    /// Feature dimensionality.
    pub const DIM: usize = 7;
}

/// One-vs-rest task-type classifier.
#[derive(Debug, Clone)]
pub struct TaskPredictor {
    scorers: Vec<(TaskType, RidgeRegression)>,
}

impl TaskPredictor {
    /// Fits the classifier on labelled prompts.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(data: &[(Vec<TokenId>, TaskType)]) -> Self {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let n = data.len();
        let mut x = Matrix::zeros(n, TaskFeatures::DIM);
        for (r, (prompt, _)) in data.iter().enumerate() {
            x.row_mut(r)
                .copy_from_slice(&TaskFeatures::extract(prompt).to_vec());
        }
        let scorers = TaskType::all()
            .into_iter()
            .map(|task| {
                let y: Vec<f32> = data
                    .iter()
                    .map(|(_, t)| if *t == task { 1.0 } else { 0.0 })
                    .collect();
                (task, RidgeRegression::fit(&x, &y, 1.0))
            })
            .collect();
        TaskPredictor { scorers }
    }

    /// Predicts the task type of a prompt (highest one-vs-rest score).
    pub fn predict(&self, prompt: &[TokenId]) -> TaskType {
        let f = TaskFeatures::extract(prompt).to_vec();
        self.scorers
            .iter()
            .max_by(|(_, a), (_, b)| {
                a.predict(&f)
                    .partial_cmp(&b.predict(&f))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(t, _)| *t)
            .expect("at least one scorer")
    }

    /// Classification accuracy over a labelled set.
    pub fn accuracy(&self, data: &[(Vec<TokenId>, TaskType)]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let hits = data
            .iter()
            .filter(|(p, t)| self.predict(p) == *t)
            .count();
        hits as f64 / data.len() as f64
    }
}

/// The task-aware compression selector (§5.3): compression-fragile task
/// types (QA, summarization, synthetic retrieval) go to the query-aware
/// policy that loses no information; tolerant types (code, few-shot) use
/// the memory-saving eviction policy.
pub fn task_aware_policy(
    task: TaskType,
    safe: CompressionConfig,
    aggressive: CompressionConfig,
) -> CompressionConfig {
    match task {
        TaskType::SingleDocQA
        | TaskType::MultiDocQA
        | TaskType::Summarization
        | TaskType::Synthetic => safe,
        TaskType::Code | TaskType::FewShot => aggressive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_tensor::seeded_rng;
    use rkvc_workload::{generate_sample, LongBenchConfig};

    fn labelled(n_per_task: usize, seed: u64) -> Vec<(Vec<TokenId>, TaskType)> {
        let cfg = LongBenchConfig {
            samples_per_task: 1,
            context_len: 140,
            seed,
            ..Default::default()
        };
        let mut rng = seeded_rng(seed);
        let mut out = Vec::new();
        let mut id = 0;
        for _ in 0..n_per_task {
            for task in TaskType::all() {
                let s = generate_sample(id, task, &cfg, &mut rng);
                out.push((s.prompt, task));
                id += 1;
            }
        }
        out
    }

    #[test]
    fn classifier_separates_the_six_task_types() {
        let train = labelled(8, 1);
        let test = labelled(4, 2);
        let model = TaskPredictor::fit(&train);
        let acc = model.accuracy(&test);
        assert!(acc > 0.8, "task classification accuracy {acc}");
    }

    #[test]
    fn features_distinguish_structures() {
        let train = labelled(2, 3);
        let fewshot = train
            .iter()
            .find(|(_, t)| *t == TaskType::FewShot)
            .unwrap();
        let summ = train
            .iter()
            .find(|(_, t)| *t == TaskType::Summarization)
            .unwrap();
        let f_few = TaskFeatures::extract(&fewshot.0);
        let f_summ = TaskFeatures::extract(&summ.0);
        assert!(f_few.query_count > f_summ.query_count);
        assert_eq!(f_summ.query_count, 0.0);
    }

    #[test]
    fn policy_selector_routes_fragile_tasks_to_safe() {
        let safe = CompressionConfig::quest(8, 8);
        let aggressive = CompressionConfig::streaming(16, 48);
        assert_eq!(task_aware_policy(TaskType::MultiDocQA, safe, aggressive), safe);
        assert_eq!(task_aware_policy(TaskType::Code, safe, aggressive), aggressive);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_panics() {
        TaskPredictor::fit(&[]);
    }
}
