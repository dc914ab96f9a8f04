//! TinyLM architecture configuration.

use crate::vocab;

/// Architecture and construction parameters for [`crate::TinyLm`].
///
/// Two presets mirror the paper's two model families:
/// [`ModelConfig::induction_mha`] (LLaMA-style multi-head attention, one KV
/// head per query head) and [`ModelConfig::induction_gqa`] (Mistral-style
/// grouped-query attention, query heads sharing KV heads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Vocabulary size (special ids + content symbols).
    pub vocab_size: usize,
    /// Dimension of the dense token codes; equals the attention head
    /// dimension so code vectors fit in one head.
    pub code_dim: usize,
    /// Sinusoidal position-segment width (even).
    pub pos_dim: usize,
    /// Number of transformer layers.
    pub n_layers: usize,
    /// Query heads per layer.
    pub n_heads: usize,
    /// KV heads per layer (`n_heads` for MHA, fewer for GQA).
    pub n_kv_heads: usize,
    /// MLP hidden width.
    pub mlp_hidden: usize,
    /// Layer index hosting the constructed induction head (head 0).
    pub induction_layer: usize,
    /// Induction query sharpness β (pre-softmax logit scale of a code
    /// match).
    pub beta: f32,
    /// LM-head gain γ on the prediction segment.
    pub gain: f32,
    /// Scale of the random "noise" weights filling out non-constructed
    /// heads and the MLPs.
    pub noise_scale: f32,
    /// Seed for token codes and noise weights.
    pub seed: u64,
}

impl ModelConfig {
    /// LLaMA-style preset: 2 layers, 2 query heads, 2 KV heads.
    pub fn induction_mha() -> Self {
        ModelConfig {
            vocab_size: vocab::DEFAULT_VOCAB,
            code_dim: 64,
            pos_dim: 16,
            n_layers: 2,
            n_heads: 2,
            n_kv_heads: 2,
            mlp_hidden: 64,
            induction_layer: 1,
            beta: 90.0,
            // Calibrated so greedy decoding is exact while temperature-1.0
            // sampling retains genuine entropy: the per-token probability of
            // following the retrieved continuation is ~0.994, so a ~12-token
            // response resamples cleanly ~93% of the time — responses are
            // predictable from prompts (Table 6's length predictor) yet
            // temperature genuinely perturbs lengths in both directions
            // (Table 5's control).
            gain: 10.0,
            noise_scale: 0.02,
            seed: 0xC0FFEE,
        }
    }

    /// Deeper LLaMA-style preset: four layers (three noise layers around
    /// the induction layer), exercising the mechanism's robustness to
    /// depth.
    pub fn induction_mha_deep() -> Self {
        ModelConfig {
            n_layers: 4,
            induction_layer: 2,
            seed: 0xDEE9,
            ..ModelConfig::induction_mha()
        }
    }

    /// Mistral-style GQA preset: 2 query heads sharing 1 KV head.
    pub fn induction_gqa() -> Self {
        ModelConfig {
            n_kv_heads: 1,
            seed: 0xBEEF,
            ..ModelConfig::induction_mha()
        }
    }

    /// Attention head dimension (equal to the code dimension).
    pub fn head_dim(&self) -> usize {
        self.code_dim
    }

    /// Residual-stream width: three code segments plus the position
    /// segment.
    pub fn d_model(&self) -> usize {
        3 * self.code_dim + self.pos_dim
    }

    /// Offset of segment A (current-token code) in the stream.
    pub fn seg_a(&self) -> usize {
        0
    }

    /// Offset of segment B (previous-token code).
    pub fn seg_b(&self) -> usize {
        self.code_dim
    }

    /// Offset of segment C (prediction accumulator).
    pub fn seg_c(&self) -> usize {
        2 * self.code_dim
    }

    /// Offset of the position segment.
    pub fn seg_p(&self) -> usize {
        3 * self.code_dim
    }

    /// Number of query heads sharing each KV head.
    pub fn group_size(&self) -> usize {
        self.n_heads / self.n_kv_heads
    }

    /// Maps a query head index to its KV head index.
    pub fn kv_head_of(&self, query_head: usize) -> usize {
        query_head / self.group_size()
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics (with a descriptive message) when heads don't divide evenly,
    /// `pos_dim` is odd, the induction layer is out of range, or a weight
    /// scale is not finite. Called by
    /// [`crate::TinyLm::new`].
    pub fn validate(&self) {
        assert!(self.n_heads >= 1 && self.n_kv_heads >= 1, "need at least one head");
        assert_eq!(
            self.n_heads % self.n_kv_heads,
            0,
            "n_heads must be a multiple of n_kv_heads"
        );
        assert_eq!(self.pos_dim % 2, 0, "pos_dim must be even");
        assert!(
            self.induction_layer < self.n_layers,
            "induction_layer out of range"
        );
        assert!(
            self.vocab_size > vocab::CONTENT_START,
            "vocab must include content symbols"
        );
        assert!(
            self.beta.is_finite() && self.gain.is_finite() && self.noise_scale.is_finite(),
            "beta, gain and noise_scale must be finite"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        ModelConfig::induction_mha().validate();
        ModelConfig::induction_gqa().validate();
    }

    #[test]
    fn segment_layout_is_contiguous() {
        let c = ModelConfig::induction_mha();
        assert_eq!(c.seg_a(), 0);
        assert_eq!(c.seg_b(), c.code_dim);
        assert_eq!(c.seg_c(), 2 * c.code_dim);
        assert_eq!(c.seg_p(), 3 * c.code_dim);
        assert_eq!(c.d_model(), 3 * c.code_dim + c.pos_dim);
    }

    #[test]
    fn gqa_maps_query_heads_to_shared_kv() {
        let c = ModelConfig::induction_gqa();
        assert_eq!(c.group_size(), 2);
        assert_eq!(c.kv_head_of(0), 0);
        assert_eq!(c.kv_head_of(1), 0);
    }

    #[test]
    fn mha_maps_one_to_one() {
        let c = ModelConfig::induction_mha();
        assert_eq!(c.kv_head_of(0), 0);
        assert_eq!(c.kv_head_of(1), 1);
    }

    #[test]
    #[should_panic(expected = "n_heads must be a multiple")]
    fn uneven_grouping_rejected() {
        let mut c = ModelConfig::induction_mha();
        c.n_heads = 3;
        c.n_kv_heads = 2;
        c.validate();
    }
}
