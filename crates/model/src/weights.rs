//! Weight construction for TinyLM.
//!
//! The weights are *constructed*, not trained: one attention head is wired
//! as an induction head (see the crate docs) and everything else carries
//! small deterministic random weights so the full transformer code path is
//! exercised without disturbing the mechanism.

use rkvc_tensor::{seeded_rng, Matrix, PackedMatrix, SeededRng};

use crate::ModelConfig;

/// Per-layer projection weights, stored only in the packed-panel layout
/// the matmul kernel reads (they are immutable and only ever the
/// right-hand operand of a product).
#[derive(Debug, Clone)]
pub(crate) struct LayerWeights {
    /// Query projection, `d_model x (n_heads * head_dim)`.
    pub wq: PackedMatrix,
    /// Key projection, `d_model x (n_kv_heads * head_dim)`.
    pub wk: PackedMatrix,
    /// Value projection, `d_model x (n_kv_heads * head_dim)`.
    pub wv: PackedMatrix,
    /// Output projection, `(n_heads * head_dim) x d_model`.
    pub wo: PackedMatrix,
    /// MLP gate projection, `d_model x mlp_hidden`.
    pub w_gate: PackedMatrix,
    /// MLP up projection, `d_model x mlp_hidden`.
    pub w_up: PackedMatrix,
    /// MLP down projection, `mlp_hidden x d_model`.
    pub w_down: PackedMatrix,
}

/// Full model weights.
#[derive(Debug, Clone)]
pub(crate) struct ModelWeights {
    /// Dense unit token codes, `vocab_size x code_dim`.
    pub codes: Matrix,
    /// Transformer layers.
    pub layers: Vec<LayerWeights>,
    /// Language-model head, `d_model x vocab_size`, packed like the layers.
    pub lm_head: PackedMatrix,
}

fn noise_matrix(rows: usize, cols: usize, scale: f32, rng: &mut SeededRng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-scale..=scale))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Packs a constructed weight matrix for the kernel.
fn pack(m: &Matrix) -> PackedMatrix {
    // rkvc-allow(E001): ModelConfig::validate requires finite beta, gain and noise_scale, so every constructed weight is finite
    PackedMatrix::try_pack(m).expect("constructed weights are finite (ModelConfig::validate)")
}

/// Random unit codes: each token gets a dense direction on the unit sphere.
fn token_codes(vocab: usize, dim: usize, rng: &mut SeededRng) -> Matrix {
    let mut m = Matrix::zeros(vocab, dim);
    for t in 0..vocab {
        let mut norm = 0.0f32;
        let row: Vec<f32> = (0..dim)
            .map(|_| {
                // Box-Muller-free gaussian-ish sample: sum of uniforms.
                let v: f32 =
                    rkvc_tensor::seq_sum_f32((0..4).map(|_| rng.gen_range(-1.0f32..1.0))) / 2.0;
                norm += v * v;
                v
            })
            .collect();
        let norm = norm.sqrt().max(1e-6);
        for (c, v) in row.iter().enumerate() {
            m.set(t, c, v / norm);
        }
    }
    m
}

impl ModelWeights {
    /// Builds the constructed weights for `cfg`.
    pub fn build(cfg: &ModelConfig) -> Self {
        cfg.validate();
        let mut rng = seeded_rng(cfg.seed);
        let d = cfg.d_model();
        let hd = cfg.head_dim();
        let qw = cfg.n_heads * hd;
        let kvw = cfg.n_kv_heads * hd;

        let codes = token_codes(cfg.vocab_size, cfg.code_dim, &mut rng);

        let mut layers = Vec::with_capacity(cfg.n_layers);
        for l in 0..cfg.n_layers {
            let mut wq = noise_matrix(d, qw, cfg.noise_scale, &mut rng);
            let mut wk = noise_matrix(d, kvw, cfg.noise_scale, &mut rng);
            let mut wv = noise_matrix(d, kvw, cfg.noise_scale, &mut rng);
            let mut wo = noise_matrix(qw, d, cfg.noise_scale, &mut rng);

            if l == cfg.induction_layer {
                // Head 0 is the induction head; it reads/writes via KV head 0.
                // Its projection columns (0..head_dim) are exactly the
                // construction — zero everywhere except the diagonals below —
                // so the mechanism is exact at FP16:
                //   query  = β · current-token code   (segment A)
                //   key    =      previous-token code (segment B)
                //   value  =      current-token code  (segment A)
                //   output → prediction accumulator   (segment C)
                for r in 0..d {
                    for c in 0..hd {
                        wq.set(r, c, if r == cfg.seg_a() + c { cfg.beta } else { 0.0 });
                        wk.set(r, c, if r == cfg.seg_b() + c { 1.0 } else { 0.0 });
                        wv.set(r, c, if r == cfg.seg_a() + c { 1.0 } else { 0.0 });
                    }
                }
                for r in 0..hd {
                    for c in 0..d {
                        wo.set(r, c, if c == cfg.seg_c() + r { 1.0 } else { 0.0 });
                    }
                }
            }

            layers.push(LayerWeights {
                wq: pack(&wq),
                wk: pack(&wk),
                wv: pack(&wv),
                wo: pack(&wo),
                w_gate: pack(&noise_matrix(d, cfg.mlp_hidden, cfg.noise_scale, &mut rng)),
                w_up: pack(&noise_matrix(d, cfg.mlp_hidden, cfg.noise_scale, &mut rng)),
                w_down: pack(&noise_matrix(cfg.mlp_hidden, d, cfg.noise_scale, &mut rng)),
            });
        }

        // LM head: logits_t = γ · (segment C · code_t).
        let mut lm_head = Matrix::zeros(d, cfg.vocab_size);
        for t in 0..cfg.vocab_size {
            for i in 0..cfg.code_dim {
                lm_head.set(cfg.seg_c() + i, t, cfg.gain * codes.get(t, i));
            }
        }

        ModelWeights {
            lm_head: pack(&lm_head),
            codes,
            layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unit_norm() {
        let cfg = ModelConfig::induction_mha();
        let w = ModelWeights::build(&cfg);
        for t in 0..cfg.vocab_size {
            let n: f32 = w.codes.row(t).iter().map(|v| v * v).sum();
            assert!((n - 1.0).abs() < 1e-4, "token {t} norm {n}");
        }
    }

    #[test]
    fn codes_are_nearly_orthogonal() {
        let cfg = ModelConfig::induction_mha();
        let w = ModelWeights::build(&cfg);
        let mut max_cross = 0.0f32;
        for a in 0..cfg.vocab_size {
            for b in (a + 1)..cfg.vocab_size {
                let dot: f32 = w
                    .codes
                    .row(a)
                    .iter()
                    .zip(w.codes.row(b))
                    .map(|(x, y)| x * y)
                    .sum();
                max_cross = max_cross.max(dot.abs());
            }
        }
        assert!(max_cross < 0.65, "codes too correlated: {max_cross}");
    }

    #[test]
    fn induction_head_query_is_scaled_code_read() {
        let cfg = ModelConfig::induction_mha();
        let w = ModelWeights::build(&cfg);
        let lw = &w.layers[cfg.induction_layer];
        // Query diagonal carries beta; key diagonal carries 1.
        assert_eq!(lw.wq.get(cfg.seg_a(), 0), cfg.beta);
        assert_eq!(lw.wk.get(cfg.seg_b(), 0), 1.0);
        assert_eq!(lw.wv.get(cfg.seg_a(), 0), 1.0);
        assert_eq!(lw.wo.get(0, cfg.seg_c()), 1.0);
        // Off-construction entries of head 0 are exactly zero.
        assert_eq!(lw.wq.get(cfg.seg_b(), 0), 0.0);
        assert_eq!(lw.wk.get(cfg.seg_a(), 0), 0.0);
    }

    #[test]
    fn non_induction_layers_are_small_noise() {
        let cfg = ModelConfig::induction_mha();
        let w = ModelWeights::build(&cfg);
        let other = (cfg.induction_layer + 1) % cfg.n_layers;
        assert!(w.layers[other].wq.unpack().max_abs() <= cfg.noise_scale + 1e-6);
    }

    #[test]
    fn deterministic_across_builds() {
        let cfg = ModelConfig::induction_mha();
        let a = ModelWeights::build(&cfg);
        let b = ModelWeights::build(&cfg);
        assert_eq!(a.codes, b.codes);
        assert_eq!(a.layers[0].wq, b.layers[0].wq);
    }

    #[test]
    fn gqa_shapes_are_narrower() {
        let cfg = ModelConfig::induction_gqa();
        let w = ModelWeights::build(&cfg);
        let lw = &w.layers[0];
        assert_eq!(lw.wq.cols(), cfg.n_heads * cfg.head_dim());
        assert_eq!(lw.wk.cols(), cfg.n_kv_heads * cfg.head_dim());
        assert!(lw.wk.cols() < lw.wq.cols());
    }
}
