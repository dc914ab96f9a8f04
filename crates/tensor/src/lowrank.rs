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

    /// Rank of the factorization.
    pub fn rank(&self) -> usize {
        self.u.cols()
    }

    /// Number of f32 values stored by the factors (storage cost proxy).
    pub fn stored_values(&self) -> usize {
        self.u.len() + self.v.len()
    }
}

/// Computes a rank-`rank` approximation of `m` using orthogonal iteration.
///
/// Runs `iters` rounds of the block power method on `M Mᵀ` with Gram-Schmidt
/// re-orthogonalization; 4-8 iterations are plenty for the error-correction
/// use case.
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

    // Start from a random orthonormalized basis Q (m x rank).
    let mut rng = seeded_rng(0x9e3779b97f4a7c15);
    let mut q = xavier_matrix(m.rows(), rank, &mut rng);
    orthonormalize_columns(&mut q);

    let mt = m.transposed();
    for _ in 0..iters.max(1) {
        // Q <- orth(M Mᵀ Q)
        let z = mt.matmul(&q); // n x r
        let mut w = m.matmul(&z); // m x r
        orthonormalize_columns(&mut w);
        q = w;
    }

    // U = Q, V = Qᵀ M  (projection onto the subspace spanned by Q).
    let v = q.transposed().matmul(m);
    Ok(LowRankFactors { u: q, v })
}

/// Gram-Schmidt orthonormalization of the columns of `q` in place. Columns
/// that collapse to (near) zero are re-seeded with a unit basis vector.
fn orthonormalize_columns(q: &mut Matrix) {
    let (rows, cols) = q.shape();
    for c in 0..cols {
        // Subtract projections onto previous columns.
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
            // Degenerate direction: fall back to a unit vector.
            for r in 0..rows {
                q.set(r, c, if r == c % rows.max(1) { 1.0 } else { 0.0 });
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

    #[test]
    fn factors_report_storage() {
        let m = rank_k_matrix(10, 8, 2, 7);
        let f = low_rank_approximate(&m, 2, 8).unwrap();
        assert_eq!(f.rank(), 2);
        assert_eq!(f.stored_values(), 10 * 2 + 2 * 8);
    }
}
