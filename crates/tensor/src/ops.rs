//! Neural-network primitives used by TinyLM: softmax, SiLU, sampling
//! helpers and the audited sequential sums.

/// Numerically stable softmax into a caller-owned buffer, so hot loops
/// (per-token attention) can reuse one allocation. `out` is cleared and
/// refilled.
///
/// # Examples
///
/// ```
/// let mut p = Vec::new();
/// rkvc_tensor::softmax_into(&[1.0, 1.0], &mut p);
/// assert!((p[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_into(logits: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.extend_from_slice(logits);
    softmax_slice(out);
}

/// Numerically stable softmax of one row in place — the kernel behind
/// [`softmax_into`], for callers that already hold the scores in the
/// buffer the weights should end up in (the query-blocked attention
/// score matrix, the sampler's temperature-scaled logits).
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

/// SiLU activation `x * sigmoid(x)` (the LLaMA MLP gate).
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
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

    fn softmax_row(logits: &[f32]) -> Vec<f32> {
        let mut out = logits.to_vec();
        softmax_slice(&mut out);
        out
    }

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
    fn silu_known_values() {
        assert_eq!(silu(0.0), 0.0);
        assert!((silu(1.0) - 0.731_058_6).abs() < 1e-5);
        assert!(silu(-20.0).abs() < 1e-6);
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
