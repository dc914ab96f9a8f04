//! The response-length predictor (§5.2, Tables 6 and 10).
//!
//! The paper trains a BERT-style classifier to predict the ratio between
//! response length and prompt length for a given compression algorithm, and
//! reports accuracy `(1 - |L_pred - L_gt| / L_gt) * 100%`. We reproduce the
//! tool with ridge regression over prompt-structure features — the features
//! a sequence encoder would latch onto (prompt length, demonstration
//! delimiters, tail shape) made explicit.

use rkvc_model::vocab::{self, TokenId};
use rkvc_tensor::Matrix;

use crate::linreg::RidgeRegression;

/// Features extracted from a prompt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LengthFeatures {
    /// Prompt length in tokens.
    pub prompt_len: f32,
    /// Number of EOS (demonstration-terminator) symbols.
    pub eos_count: f32,
    /// Tokens between the last two EOS symbols (the demonstrated answer
    /// span — the strongest length signal).
    pub last_span: f32,
    /// Tokens after the last EOS symbol (the query stub).
    pub tail_len: f32,
    /// Number of SEP symbols (document structure).
    pub sep_count: f32,
    /// Number of QUERY markers.
    pub query_count: f32,
    /// Distinct-token fraction (repetitiveness).
    pub distinct_frac: f32,
    /// Tokens between the last SEP and the first EOS after it (the span of
    /// the marked section — for conversation prompts, the demonstrated
    /// answer).
    pub sep_to_eos_span: f32,
}

impl LengthFeatures {
    /// Extracts features from a prompt.
    pub fn extract(prompt: &[TokenId]) -> Self {
        let n = prompt.len().max(1);
        let eos_positions: Vec<usize> = prompt
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == vocab::EOS_SYM)
            .map(|(i, _)| i)
            .collect();
        let last_span = match eos_positions.len() {
            0 => 0.0,
            1 => eos_positions[0] as f32,
            k => (eos_positions[k - 1] - eos_positions[k - 2]) as f32,
        };
        let tail_len = match eos_positions.last() {
            Some(&p) => (prompt.len() - 1 - p) as f32,
            None => prompt.len() as f32,
        };
        let mut seen = std::collections::BTreeSet::new();
        for &t in prompt {
            seen.insert(t);
        }
        let sep_to_eos_span = prompt
            .iter()
            .rposition(|&t| t == vocab::SEP)
            .map(|sep| {
                prompt[sep..]
                    .iter()
                    .position(|&t| t == vocab::EOS_SYM)
                    .map(|d| d as f32 - 1.0)
                    .unwrap_or((prompt.len() - 1 - sep) as f32)
            })
            .unwrap_or(0.0);
        LengthFeatures {
            prompt_len: prompt.len() as f32,
            eos_count: eos_positions.len() as f32,
            last_span,
            tail_len,
            sep_count: prompt.iter().filter(|&&t| t == vocab::SEP).count() as f32,
            query_count: prompt.iter().filter(|&&t| t == vocab::QUERY).count() as f32,
            distinct_frac: seen.len() as f32 / n as f32,
            sep_to_eos_span,
        }
    }

    /// Hinge-spline knots (tokens) over `tail_len`. The knots span both
    /// TinyLM-scale (32-128) and production-scale (256-512) context
    /// windows, so threshold effects around any eviction budget are
    /// expressible.
    pub const TAIL_KNOTS: [f32; 5] = [32.0, 64.0, 128.0, 256.0, 512.0];

    /// Flattens to the regression feature vector. Beyond the raw features,
    /// a hinge-spline basis over `tail_len` (and its interaction with the
    /// answer span) lets the linear model express threshold effects — e.g.
    /// "a query far from its supporting span overflows a recent-window
    /// cache and the response degenerates" — without leaking any
    /// algorithm's parameters.
    pub fn to_vec(self) -> Vec<f32> {
        let mut v = vec![
            self.prompt_len,
            self.eos_count,
            self.last_span,
            self.tail_len,
            self.sep_count,
            self.query_count,
            self.distinct_frac,
            self.sep_to_eos_span,
        ];
        for knot in Self::TAIL_KNOTS {
            v.push((self.tail_len - knot).max(0.0));
        }
        // Second-order interactions: when the answer span is far from the
        // query (large tail), the response length scales with the span it
        // fails to reproduce.
        for knot in Self::TAIL_KNOTS {
            v.push(self.sep_to_eos_span * (self.tail_len - knot).max(0.0) / knot);
        }
        v
    }

    /// Feature dimensionality.
    pub const DIM: usize = 18;
}

/// A training/evaluation dataset: prompts paired with measured response
/// lengths under one compression algorithm.
#[derive(Debug, Clone, Default)]
pub struct LengthDataset {
    features: Vec<Vec<f32>>,
    lengths: Vec<f32>,
}

impl LengthDataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one (prompt, measured response length) pair.
    pub fn push(&mut self, prompt: &[TokenId], response_len: usize) {
        self.features
            .push(LengthFeatures::extract(prompt).to_vec());
        self.lengths.push(response_len as f32);
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.lengths.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.lengths.is_empty()
    }

    /// Splits into (train, test) at the given fraction.
    pub fn split(&self, train_frac: f64) -> (LengthDataset, LengthDataset) {
        let k = ((self.len() as f64) * train_frac) as usize;
        (
            LengthDataset {
                features: self.features[..k].to_vec(),
                lengths: self.lengths[..k].to_vec(),
            },
            LengthDataset {
                features: self.features[k..].to_vec(),
                lengths: self.lengths[k..].to_vec(),
            },
        )
    }
}

/// A fitted length predictor for one compression algorithm.
#[derive(Debug, Clone)]
pub struct LengthPredictor {
    model: RidgeRegression,
}

impl LengthPredictor {
    /// Fits the predictor on a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn fit(data: &LengthDataset) -> Self {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let n = data.len();
        let mut x = Matrix::zeros(n, LengthFeatures::DIM);
        for (r, f) in data.features.iter().enumerate() {
            x.row_mut(r).copy_from_slice(f);
        }
        let model = RidgeRegression::fit(&x, &data.lengths, 1.0);
        LengthPredictor { model }
    }

    /// Predicts the response length for a prompt (clamped to >= 1).
    pub fn predict(&self, prompt: &[TokenId]) -> f64 {
        self.model
            .predict(&LengthFeatures::extract(prompt).to_vec())
            .max(1.0) as f64
    }

    /// Paper accuracy metric `(1 - |L_pred - L_gt| / L_gt)`, clamped at 0,
    /// averaged over a dataset.
    pub fn accuracy(&self, data: &LengthDataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        for (f, &gt) in data.features.iter().zip(&data.lengths) {
            let pred = self.model.predict(f).max(1.0);
            if gt > 0.0 {
                acc += (1.0 - ((pred - gt).abs() / gt) as f64).max(0.0);
            }
        }
        acc / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_prompt(span: usize, tail: usize) -> Vec<TokenId> {
        // Two demonstrations with answer span `span`, then a tail stub.
        let mut p = vec![vocab::BOS];
        for _ in 0..2 {
            for i in 0..span {
                p.push(vocab::CONTENT_START + i);
            }
            p.push(vocab::EOS_SYM);
        }
        for i in 0..tail {
            p.push(vocab::CONTENT_START + 20 + i);
        }
        p
    }

    #[test]
    fn features_capture_structure() {
        let p = synthetic_prompt(5, 2);
        let f = LengthFeatures::extract(&p);
        assert_eq!(f.eos_count, 2.0);
        assert_eq!(f.last_span, 6.0); // 5 content + previous EOS offset.
        assert_eq!(f.tail_len, 2.0);
        assert_eq!(f.prompt_len as usize, p.len());
    }

    #[test]
    fn predictor_learns_span_to_length_mapping() {
        // Ground truth: response length == answer span (the copy task).
        let mut data = LengthDataset::new();
        for span in 2..30 {
            for tail in 1..4 {
                data.push(&synthetic_prompt(span, tail), span);
            }
        }
        let (train, test) = data.split(0.8);
        let model = LengthPredictor::fit(&train);
        let acc = model.accuracy(&test);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn predict_is_at_least_one() {
        let mut data = LengthDataset::new();
        data.push(&[vocab::BOS, vocab::CONTENT_START], 1);
        data.push(&[vocab::BOS, vocab::CONTENT_START + 1], 1);
        let model = LengthPredictor::fit(&data);
        assert!(model.predict(&[vocab::BOS]) >= 1.0);
    }

    #[test]
    fn empty_prompt_features_are_finite() {
        let f = LengthFeatures::extract(&[]);
        assert!(f.to_vec().iter().all(|v| v.is_finite()));
        assert_eq!(f.prompt_len, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn fitting_empty_dataset_panics() {
        LengthPredictor::fit(&LengthDataset::new());
    }
}
