//! Deterministic random initialization helpers.
//!
//! All randomness in the workspace flows through seeded [`SeededRng`]
//! instances (the in-repo PCG64 generator from [`crate::det`]) so every
//! experiment is bit-reproducible and the build stays offline.

use crate::det;
use crate::Matrix;

/// The deterministic RNG used across the workspace.
pub type SeededRng = det::SeededRng;

/// Creates a deterministic RNG from a `u64` seed.
///
/// # Examples
///
/// ```
/// let mut a = rkvc_tensor::seeded_rng(7);
/// let mut b = rkvc_tensor::seeded_rng(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> SeededRng {
    SeededRng::new(seed)
}

/// Samples a `rows x cols` matrix with Xavier/Glorot-uniform entries:
/// `U(-sqrt(6/(rows+cols)), +sqrt(6/(rows+cols)))`.
///
/// The starting basis of the low-rank factorizer's orthogonal iteration.
pub(crate) fn xavier_matrix(rows: usize, cols: usize, rng: &mut SeededRng) -> Matrix {
    let bound = (6.0 / (rows + cols).max(1) as f32).sqrt();
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-bound..=bound))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_matrix() {
        let a = xavier_matrix(4, 5, &mut seeded_rng(42));
        let b = xavier_matrix(4, 5, &mut seeded_rng(42));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_matrix() {
        let a = xavier_matrix(4, 5, &mut seeded_rng(1));
        let b = xavier_matrix(4, 5, &mut seeded_rng(2));
        assert_ne!(a, b);
    }

    #[test]
    fn xavier_entries_within_bound() {
        let m = xavier_matrix(16, 16, &mut seeded_rng(3));
        let bound = (6.0 / 32.0f32).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= bound));
    }
}
