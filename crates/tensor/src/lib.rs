//! Dense f32 tensor math substrate for the `rethink-kv-compression` workspace.
//!
//! This crate provides the minimal linear-algebra toolkit the reproduction
//! needs: a row-major [`Matrix`] with GEMM/softmax/norm kernels (and
//! [`PackedMatrix`], the packed right-hand operand of the [`gemm`] kernel
//! that runs them at the host's vector width), IEEE-754
//! binary16 round-tripping (to faithfully simulate FP16 KV-cache storage),
//! and a power-iteration low-rank factorizer (used by the GEAR error
//! corrector).
//!
//! # Examples
//!
//! ```
//! use rkvc_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.get(1, 0), 3.0);
//! ```

pub mod check;
pub mod det;
pub mod gemm;
mod half;
pub mod json;
mod lowrank;
mod matrix;
mod ops;
pub mod par;
mod rng;

pub use gemm::{matmul_packed_baseline, PackedMatrix};
pub use half::{f16_bits_to_f32, f32_to_f16_bits, round_to_f16, round_slice_to_f16};
pub use lowrank::{low_rank_approximate, LowRankFactors};
pub use matrix::Matrix;
pub use ops::{
    argmax, rms_norm, rope_rotate, seq_sum_f32, seq_sum_f64, silu, softmax_in_place, softmax_into,
    softmax_row, softmax_slice, top_k,
};
pub use rng::{seeded_rng, SeededRng};

/// Error raised by tensor operations on shape mismatches or invalid
/// arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Left operand shape `(rows, cols)`.
        lhs: (usize, usize),
        /// Right operand shape `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// An argument was out of the valid domain (e.g. rank 0 low-rank
    /// factorization).
    InvalidArgument(&'static str),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{}, rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}
