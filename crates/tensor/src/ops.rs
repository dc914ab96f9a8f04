//! Neural-network primitives used by TinyLM: softmax, RMSNorm, SiLU, RoPE,
//! and sampling helpers.

use crate::Matrix;

/// Numerically stable softmax over a single row, returning a new vector.
///
/// # Examples
///
/// ```
/// let p = rkvc_tensor::softmax_row(&[1.0, 1.0]);
/// assert!((p[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_row(logits: &[f32]) -> Vec<f32> {
    let mut out = logits.to_vec();
    softmax_slice(&mut out);
    out
}

/// Numerically stable softmax into a caller-owned buffer, so hot loops
/// (per-token attention) can reuse one allocation. `out` is cleared and
/// refilled; bits are identical to [`softmax_row`].
pub fn softmax_into(logits: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.extend_from_slice(logits);
    softmax_slice(out);
}

/// Numerically stable softmax of one row in place — the kernel behind
/// [`softmax_row`] and [`softmax_into`], for callers that already hold
/// the scores in the buffer the weights should end up in (the
/// query-blocked attention score matrix).
pub fn softmax_slice(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Applies a numerically stable softmax to every row of `m` in place.
// rkvc-allow(C001): reference kernel surface of the hermetic tensor crate, exercised by its unit tests
pub fn softmax_in_place(m: &mut Matrix) {
    for r in 0..m.rows() {
        softmax_slice(m.row_mut(r));
    }
}

/// RMSNorm: `x * gain / rms(x)` with epsilon `1e-5`.
///
/// # Panics
///
/// Panics if `x.len() != gain.len()`.
// rkvc-allow(C001): reference kernel surface of the hermetic tensor crate, exercised by its unit tests
pub fn rms_norm(x: &[f32], gain: &[f32]) -> Vec<f32> {
    assert_eq!(x.len(), gain.len(), "rms_norm length mismatch");
    let ms = x.iter().map(|v| v * v).sum::<f32>() / x.len().max(1) as f32;
    let inv = 1.0 / (ms + 1e-5).sqrt();
    x.iter().zip(gain).map(|(v, g)| v * inv * g).collect()
}

/// SiLU activation `x * sigmoid(x)` (the LLaMA MLP gate).
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Applies rotary position embedding to a head-dimension vector in place.
///
/// Pairs `(x[2i], x[2i+1])` are rotated by `pos * theta^(-2i/d)` with the
/// standard base `10000`. Odd trailing elements are left untouched.
// rkvc-allow(C001): reference kernel surface of the hermetic tensor crate, exercised by its unit tests
pub fn rope_rotate(x: &mut [f32], pos: usize, head_dim: usize) {
    let half = head_dim / 2;
    for i in 0..half {
        let freq = 1.0 / 10000f32.powf(2.0 * i as f32 / head_dim as f32);
        let angle = pos as f32 * freq;
        let (sin, cos) = angle.sin_cos();
        let a = x[2 * i];
        let b = x[2 * i + 1];
        x[2 * i] = a * cos - b * sin;
        x[2 * i + 1] = a * sin + b * cos;
    }
}

/// Left-to-right `f64` summation with a fixed accumulation order.
///
/// Float addition is not associative, so the order of a reduction is
/// part of its semantics. This helper (and [`seq_sum_f32`]) is the
/// audited home for sequential accumulation: bit-identical to
/// `iter.sum::<f64>()`, but centralized so the D006 lint can confine
/// order-dependent reductions to code that has declared its order.
/// Large reductions that may be parallelized belong in
/// [`crate::par::par_reduce`]'s fixed tree instead.
pub fn seq_sum_f64(it: impl Iterator<Item = f64>) -> f64 {
    it.fold(0.0, |acc, v| acc + v)
}

/// Left-to-right `f32` summation with a fixed accumulation order.
/// See [`seq_sum_f64`].
pub fn seq_sum_f32(it: impl Iterator<Item = f32>) -> f32 {
    it.fold(0.0, |acc, v| acc + v)
}

/// Index of the maximum element (first occurrence wins). Returns 0 for an
/// empty slice.
pub fn argmax(values: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Indices of the `k` largest elements, in descending value order (equal
/// values keep ascending index order).
pub fn top_k(values: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[b].partial_cmp(&values[a]).unwrap_or(std::cmp::Ordering::Equal));
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax_row(&[0.5, 1.5, -2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax_row(&[1.0, 2.0, 3.0]);
        let b = softmax_row(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_extreme_values() {
        let p = softmax_row(&[1e30, -1e30]);
        assert!((p[0] - 1.0).abs() < 1e-6);
        assert_eq!(p[1], 0.0);
    }

    #[test]
    fn softmax_matrix_rows_independent() {
        let mut m = Matrix::from_rows(&[&[0.0, 0.0], &[10.0, 0.0]]);
        softmax_in_place(&mut m);
        assert!((m.get(0, 0) - 0.5).abs() < 1e-6);
        assert!(m.get(1, 0) > 0.99);
    }

    #[test]
    fn rms_norm_unit_output_scale() {
        let x = vec![3.0, 4.0];
        let g = vec![1.0, 1.0];
        let y = rms_norm(&x, &g);
        // rms = sqrt((9+16)/2) = sqrt(12.5)
        let rms = 12.5f32.sqrt();
        assert!((y[0] - 3.0 / rms).abs() < 1e-4);
        assert!((y[1] - 4.0 / rms).abs() < 1e-4);
    }

    #[test]
    fn silu_known_values() {
        assert_eq!(silu(0.0), 0.0);
        assert!((silu(1.0) - 0.731_058_6).abs() < 1e-5);
        assert!(silu(-20.0).abs() < 1e-6);
    }

    #[test]
    fn rope_preserves_norm() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        let norm_before: f32 = x.iter().map(|v| v * v).sum();
        rope_rotate(&mut x, 7, 4);
        let norm_after: f32 = x.iter().map(|v| v * v).sum();
        assert!((norm_before - norm_after).abs() < 1e-4);
    }

    #[test]
    fn rope_position_zero_is_identity() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        let orig = x.clone();
        rope_rotate(&mut x, 0, 4);
        assert_eq!(x, orig);
    }

    #[test]
    fn rope_relative_rotation_is_consistent() {
        // Dot product of two RoPE'd vectors depends only on relative position.
        let base = vec![0.3, -0.7, 1.1, 0.2];
        let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>();
        let mut a5 = base.clone();
        let mut b8 = base.clone();
        rope_rotate(&mut a5, 5, 4);
        rope_rotate(&mut b8, 8, 4);
        let mut a10 = base.clone();
        let mut b13 = base.clone();
        rope_rotate(&mut a10, 10, 4);
        rope_rotate(&mut b13, 13, 4);
        assert!((dot(&a5, &b8) - dot(&a10, &b13)).abs() < 1e-4);
    }

    #[test]
    fn argmax_and_top_k() {
        let v = [0.1, 0.9, 0.3, 0.9];
        assert_eq!(argmax(&v), 1); // First occurrence wins.
        assert_eq!(top_k(&v, 2), vec![1, 3]);
        assert_eq!(top_k(&v, 10).len(), 4);
        assert_eq!(argmax(&[]), 0);
    }
}
