//! LLM architecture specifications (the real model dimensions, used
//! analytically).

/// Transformer dimensions of an LLM, carrying exactly the numbers the cost
/// model needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlmSpec {
    /// Model family label, e.g. `"LLaMA-2-7B"`.
    pub name: String,
    /// Transformer layer count.
    pub n_layers: usize,
    /// Hidden width.
    pub d_model: usize,
    /// Query heads.
    pub n_heads: usize,
    /// KV heads (fewer than `n_heads` under GQA).
    pub n_kv_heads: usize,
    /// MLP intermediate width.
    pub d_ff: usize,
    /// Vocabulary size.
    pub vocab: usize,
}

impl LlmSpec {
    /// LLaMA-2-7B (MHA).
    pub fn llama2_7b() -> Self {
        LlmSpec {
            name: "LLaMA-2-7B".to_owned(),
            n_layers: 32,
            d_model: 4096,
            n_heads: 32,
            n_kv_heads: 32,
            d_ff: 11008,
            vocab: 32000,
        }
    }

    /// LLaMA-2-13B (MHA).
    pub fn llama2_13b() -> Self {
        LlmSpec {
            name: "LLaMA-2-13B".to_owned(),
            n_layers: 40,
            d_model: 5120,
            n_heads: 40,
            n_kv_heads: 40,
            d_ff: 13824,
            vocab: 32000,
        }
    }

    /// LLaMA-2-70B (GQA, 8 KV heads).
    pub fn llama2_70b() -> Self {
        LlmSpec {
            name: "LLaMA-2-70B".to_owned(),
            n_layers: 80,
            d_model: 8192,
            n_heads: 64,
            n_kv_heads: 8,
            d_ff: 28672,
            vocab: 32000,
        }
    }

    /// Mistral-7B-v0.1 (GQA, 8 KV heads).
    pub fn mistral_7b() -> Self {
        LlmSpec {
            name: "Mistral-7B".to_owned(),
            n_layers: 32,
            d_model: 4096,
            n_heads: 32,
            n_kv_heads: 8,
            d_ff: 14336,
            vocab: 32000,
        }
    }

    /// Head dimension `d_model / n_heads`.
    pub fn head_dim(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// KV width `n_kv_heads * head_dim`.
    pub fn kv_dim(&self) -> usize {
        self.n_kv_heads * self.head_dim()
    }

    /// Approximate parameter count (embeddings + per-layer projections +
    /// LM head, gated MLP).
    pub fn param_count(&self) -> u64 {
        let d = self.d_model as u64;
        let attn = d * d // Wq
            + 2 * d * self.kv_dim() as u64 // Wk, Wv
            + d * d; // Wo
        let mlp = 3 * d * self.d_ff as u64; // gate, up, down
        let per_layer = attn + mlp + 2 * d; // + norms
        self.n_layers as u64 * per_layer + 2 * (self.vocab as u64 * d) // embed + head
    }

    /// Weight bytes at FP16.
    pub fn weight_bytes(&self) -> u64 {
        self.param_count() * 2
    }

    /// FP16 KV-cache bytes for one token across all layers.
    pub fn kv_bytes_per_token_fp16(&self) -> u64 {
        // K and V, each kv_dim wide, 2 bytes, per layer.
        (2 * self.n_layers * self.kv_dim() * 2) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama7b_param_count_is_about_7b() {
        let p = LlmSpec::llama2_7b().param_count();
        assert!((6.0e9..8.0e9).contains(&(p as f64)), "{p}");
    }

    #[test]
    fn llama70b_param_count_is_about_70b() {
        let p = LlmSpec::llama2_70b().param_count();
        assert!((65.0e9..75.0e9).contains(&(p as f64)), "{p}");
    }

    #[test]
    fn llama7b_kv_is_512_kib_per_token() {
        // 2 * 32 layers * 4096 * 2 bytes = 512 KiB (the paper's headline
        // example: 512 GB for batch 512 x 2048 tokens).
        assert_eq!(LlmSpec::llama2_7b().kv_bytes_per_token_fp16(), 512 * 1024);
    }

    #[test]
    fn gqa_models_have_smaller_kv() {
        assert!(
            LlmSpec::mistral_7b().kv_bytes_per_token_fp16()
                < LlmSpec::llama2_7b().kv_bytes_per_token_fp16()
        );
        assert_eq!(LlmSpec::llama2_70b().kv_dim(), 8 * 128);
    }

    #[test]
    fn head_dims_are_128() {
        for spec in [
            LlmSpec::llama2_7b(),
            LlmSpec::llama2_13b(),
            LlmSpec::llama2_70b(),
            LlmSpec::mistral_7b(),
        ] {
            assert_eq!(spec.head_dim(), 128, "{}", spec.name);
        }
    }
}
