//! Low-rank matrix approximation via orthogonal-iteration (block power
//! method).
//!
//! GEAR (Kang et al., 2024) approximates the KV quantization error with a
//! rank-`r` matrix. This module provides that factorization: given `M`, find
//! `U (m x r)` and `V (r x n)` with `U V ≈ M` minimizing Frobenius error for
//! the chosen rank (up to iteration convergence).

use crate::rng::xavier_matrix;
use crate::{seeded_rng, Matrix, TensorError};

/// A rank-`r` factorization `U * V` of a matrix.
#[derive(Debug, Clone, PartialEq)]
// rkvc-allow(C001): return type of low_rank_approximate; consumers bind it without naming the type
pub struct LowRankFactors {
    /// Left factor, `m x r`.
    pub u: Matrix,
    /// Right factor, `r x n`.
    pub v: Matrix,
}

impl LowRankFactors {
    /// Reconstructs the rank-`r` approximation `U * V`.
    pub fn reconstruct(&self) -> Matrix {
        self.u.matmul(&self.v)
    }
}

/// Computes a rank-`rank` approximation of `m` using orthogonal iteration.
///
/// Runs `iters` rounds of the block power method on `M Mᵀ` with Gram-Schmidt
/// re-orthogonalization; 4-8 iterations are plenty for the error-correction
/// use case.
///
/// The basis is held transposed (`Qᵀ`, one row per rank component) and
/// the three products — `Mᵀ Q`, `M (Mᵀ Q)` and `Qᵀ M` — run as loops
/// over flat scratch allocated once per call, each ordered so that the
/// independent outputs of one accumulation step sit innermost. Every
/// output element is still [`Matrix::matmul_naive`]'s fold: terms in
/// ascending `k` from `+0.0`, a zero left operand skipped. Where that
/// operand varies along the inner loop the skip is written as adding
/// `+0.0` instead of `a * b`, which is exact: a sum is `−0.0` only when
/// both addends are, so an accumulator that starts at `+0.0` never
/// holds `−0.0`, and `acc + +0.0 == acc` for every other value, NaN
/// included. (Adding `a * b` would not be: `0.0 * inf` is NaN. GEAR
/// zeroes the outliers it extracts, so zero operands are the common
/// case there.)
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if `rank == 0` or `rank` exceeds
/// `min(rows, cols)`.
///
/// # Examples
///
/// ```
/// use rkvc_tensor::{low_rank_approximate, Matrix};
/// // A rank-1 matrix is reconstructed exactly.
/// let m = Matrix::from_rows(&[&[2.0, 4.0], &[1.0, 2.0]]);
/// let f = low_rank_approximate(&m, 1, 8)?;
/// assert!(f.reconstruct().sub(&m).frobenius_norm() < 1e-3);
/// # Ok::<(), rkvc_tensor::TensorError>(())
/// ```
pub fn low_rank_approximate(
    m: &Matrix,
    rank: usize,
    iters: usize,
) -> Result<LowRankFactors, TensorError> {
    if rank == 0 {
        return Err(TensorError::InvalidArgument("rank must be >= 1"));
    }
    if rank > m.rows().min(m.cols()) {
        return Err(TensorError::InvalidArgument(
            "rank exceeds min(rows, cols)",
        ));
    }

    let (rows, cols) = m.shape();
    // Start from a random orthonormalized basis Q (m x rank), kept as Qᵀ.
    let mut rng = seeded_rng(0x9e3779b97f4a7c15);
    let mut qt = xavier_matrix(rows, rank, &mut rng).transposed();
    orthonormalize_rows(&mut qt);

    let mt = m.transposed();
    let mut zt = Matrix::zeros(rank, cols);
    for _ in 0..iters.max(1) {
        // Q <- orth(M Mᵀ Q): first zᵀ = (Mᵀ Q)ᵀ,
        // z[j][c] = Σ_i M[i][j] · Q[i][c] (the rows of M, ascending i),
        // then Qᵀ <- (M z)ᵀ, w[i][c] = Σ_j M[i][j] · z[j][c] (the rows of
        // Mᵀ, ascending j).
        for c in 0..rank {
            fold_rows(m.as_slice(), qt.row(c), zt.row_mut(c));
        }
        for c in 0..rank {
            fold_rows(mt.as_slice(), zt.row(c), qt.row_mut(c));
        }
        orthonormalize_rows(&mut qt);
    }

    // U = Q, V = Qᵀ M (projection onto the subspace spanned by Q):
    // v[c][j] = Σ_i Q[i][c] · M[i][j], ascending i; the left operand is
    // fixed along the inner loop, so its skip is a plain branch.
    let mut v = Matrix::zeros(rank, cols);
    for (c, v_row) in v.as_mut_slice().chunks_exact_mut(cols).enumerate() {
        for (&a, m_row) in qt.row(c).iter().zip(m.as_slice().chunks_exact(cols)) {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in v_row.iter_mut().zip(m_row) {
                *o += a * b;
            }
        }
    }
    Ok(LowRankFactors { u: qt.transposed(), v })
}

/// `out[k] = Σ_t a[t][k] · b[t]`, `t` ascending, where `a` holds one
/// `out.len()`-long row per `t`: each output is [`Matrix::matmul_naive`]'s
/// fold, and the outputs are independent, so they are folded in
/// register blocks of up to 16 that stream the rows once.
fn fold_rows(a: &[f32], b: &[f32], out: &mut [f32]) {
    let width = out.len();
    let mut k0 = 0;
    while k0 < width {
        k0 += match width - k0 {
            16.. => fold_block::<16>(a, b, k0, out),
            8.. => fold_block::<8>(a, b, k0, out),
            4.. => fold_block::<4>(a, b, k0, out),
            _ => fold_block::<1>(a, b, k0, out),
        };
    }
}

/// Outputs `k0..k0 + B` of [`fold_rows`], accumulated in a local array
/// from `+0.0`; returns `B`.
#[inline(always)]
fn fold_block<const B: usize>(a: &[f32], b: &[f32], k0: usize, out: &mut [f32]) -> usize {
    let mut acc = [0.0f32; B];
    for (row, &bt) in a.chunks_exact(out.len()).zip(b) {
        add_terms(&mut acc, &row[k0..k0 + B], bt);
    }
    out[k0..k0 + B].copy_from_slice(&acc);
    B
}

/// `acc[k] += a[k] * b` for every `k`: one step of
/// [`Matrix::matmul_naive`]'s fold for each of a row of independent
/// outputs, a zero `a[k]` skipped. The skip is written as adding `+0.0`
/// (exact; see [`low_rank_approximate`]), and only where it can matter:
/// with a finite `b` a zero `a[k]` makes the term `±0.0`, which leaves
/// the accumulator as it is, so the plain product is the same fold.
#[inline(always)]
fn add_terms(acc: &mut [f32], a: &[f32], b: f32) {
    if b.is_finite() {
        for (o, &x) in acc.iter_mut().zip(a) {
            *o += x * b;
        }
    } else {
        for (o, &x) in acc.iter_mut().zip(a) {
            *o += if x == 0.0 { 0.0 } else { x * b };
        }
    }
}

/// Gram-Schmidt orthonormalization of the rows of `qt` (the columns of
/// the basis `Q`) in place. Rows that collapse to (near) zero are
/// re-seeded with a unit basis vector.
fn orthonormalize_rows(qt: &mut Matrix) {
    let (count, len) = qt.shape();
    for c in 0..count {
        let (done, rest) = qt.as_mut_slice().split_at_mut(c * len);
        let q = &mut rest[..len];
        // Subtract projections onto previous rows.
        for p in done.chunks_exact(len) {
            let mut dot = 0.0;
            for (x, y) in q.iter().zip(p) {
                dot += x * y;
            }
            for (x, y) in q.iter_mut().zip(p) {
                *x -= dot * y;
            }
        }
        let mut norm = 0.0;
        for x in q.iter() {
            norm += x * x;
        }
        let norm = norm.sqrt();
        if norm > 1e-12 {
            for x in q.iter_mut() {
                *x /= norm;
            }
        } else {
            // Degenerate direction: fall back to a unit vector.
            for (r, x) in q.iter_mut().enumerate() {
                *x = if r == c % len.max(1) { 1.0 } else { 0.0 };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank_k_matrix(m: usize, n: usize, k: usize, seed: u64) -> Matrix {
        let mut rng = seeded_rng(seed);
        let a = xavier_matrix(m, k, &mut rng);
        let b = xavier_matrix(k, n, &mut rng);
        a.matmul(&b)
    }

    #[test]
    fn exact_recovery_of_low_rank_matrix() {
        let m = rank_k_matrix(12, 9, 2, 5);
        let f = low_rank_approximate(&m, 2, 12).unwrap();
        let err = f.reconstruct().sub(&m).frobenius_norm();
        assert!(err < 1e-3 * m.frobenius_norm().max(1.0), "err={err}");
    }

    #[test]
    fn higher_rank_reduces_error_monotonically() {
        let mut rng = seeded_rng(11);
        let m = xavier_matrix(16, 16, &mut rng);
        let mut last = f32::INFINITY;
        for rank in [1, 2, 4, 8] {
            let f = low_rank_approximate(&m, rank, 10).unwrap();
            let err = f.reconstruct().sub(&m).frobenius_norm();
            assert!(err <= last + 1e-4, "rank {rank}: {err} > {last}");
            last = err;
        }
    }

    #[test]
    fn full_rank_recovers_exactly() {
        let mut rng = seeded_rng(13);
        let m = xavier_matrix(6, 6, &mut rng);
        let f = low_rank_approximate(&m, 6, 30).unwrap();
        let err = f.reconstruct().sub(&m).frobenius_norm();
        assert!(err < 1e-3, "err={err}");
    }

    #[test]
    fn rejects_invalid_rank() {
        let m = Matrix::zeros(4, 4);
        assert!(low_rank_approximate(&m, 0, 4).is_err());
        assert!(low_rank_approximate(&m, 5, 4).is_err());
    }

    /// The column-wise Gram-Schmidt the iteration ran on `Q` itself.
    fn orthonormalize_columns(q: &mut Matrix) {
        let (rows, cols) = q.shape();
        for c in 0..cols {
            for prev in 0..c {
                let mut dot = 0.0;
                for r in 0..rows {
                    dot += q.get(r, c) * q.get(r, prev);
                }
                for r in 0..rows {
                    let v = q.get(r, c) - dot * q.get(r, prev);
                    q.set(r, c, v);
                }
            }
            let mut norm = 0.0;
            for r in 0..rows {
                norm += q.get(r, c) * q.get(r, c);
            }
            let norm = norm.sqrt();
            if norm > 1e-12 {
                for r in 0..rows {
                    q.set(r, c, q.get(r, c) / norm);
                }
            } else {
                for r in 0..rows {
                    q.set(r, c, if r == c % rows.max(1) { 1.0 } else { 0.0 });
                }
            }
        }
    }

    /// The same orthogonal iteration written with matrix products.
    fn low_rank_by_matmul(m: &Matrix, rank: usize, iters: usize) -> LowRankFactors {
        let mut rng = seeded_rng(0x9e3779b97f4a7c15);
        let mut q = xavier_matrix(m.rows(), rank, &mut rng);
        orthonormalize_columns(&mut q);
        let mt = m.transposed();
        for _ in 0..iters.max(1) {
            let z = mt.matmul_naive(&q);
            let mut w = m.matmul_naive(&z);
            orthonormalize_columns(&mut w);
            q = w;
        }
        let v = q.transposed().matmul_naive(m);
        LowRankFactors { u: q, v }
    }

    /// Bit equality, except that any NaN matches any NaN: which NaN an
    /// operation on two NaNs returns is the platform's choice, and the
    /// compiler may commute either side's operands.
    fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what}: element {i} diverged ({x:e} vs {y:e})"
            );
        }
    }

    crate::det_cases! {
        /// The slice loops are the matrix-product iteration bit for bit,
        /// `u` and `v`, on every shape GEAR factors and a few odd ones.
        /// Entries are planted `±0.0` (GEAR zeroes its outliers before
        /// factoring), and every fourth case also plants one `±inf` or
        /// NaN in a half-zeroed column: the infinity reaches `Mᵀ Q`, and
        /// the zero entries of `M` then meet it in `M (Mᵀ Q)`, so adding
        /// `a * b` for a skipped term would surface as NaN.
        fn slice_iteration_matches_the_matmul_iteration(rng, cases = 96) {
            let shapes = [(16, 64), (8, 64), (32, 64), (4, 4), (12, 9), (16, 70)];
            let (rows, cols) = shapes[rng.gen_range(0usize..shapes.len())];
            let rank = rng.gen_range(1usize..4);
            let iters = rng.gen_range(0usize..8);
            let non_finite = rng.gen_range(0u32..4) == 0;
            let mut m = xavier_matrix(rows, cols, rng);
            for v in m.as_mut_slice() {
                match rng.gen_range(0u32..16) {
                    0..=2 => *v = 0.0,
                    3 => *v = -0.0,
                    _ => {}
                }
            }
            if non_finite {
                let c = rng.gen_range(0..cols);
                for r in 0..rows {
                    if rng.gen_bool(0.5) {
                        m.set(r, c, 0.0);
                    }
                }
                let bad = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.gen_range(0usize..3)];
                m.set(rng.gen_range(0..rows), c, bad);
            }
            let got = low_rank_approximate(&m, rank, iters).unwrap();
            let want = low_rank_by_matmul(&m, rank, iters);
            let what = format!("{rows}x{cols} rank {rank} iters {iters}");
            assert_same_bits(&got.u, &want.u, &format!("{what} u"));
            assert_same_bits(&got.v, &want.v, &format!("{what} v"));
        }
    }
}
