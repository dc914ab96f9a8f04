//! Row-major dense f32 matrix.

use crate::gemm::{PackedMatrix, MR};

/// A row-major dense matrix of `f32` values.
///
/// This is the workhorse container for TinyLM weights, KV tensors, and the
/// quantizer/error-correction math. It intentionally stays small: the
/// reproduction only needs 2-D tensors (batch/sequence dimensions are
/// handled by the caller looping over matrices).
///
/// # Examples
///
/// ```
/// use rkvc_tensor::Matrix;
///
/// let m = Matrix::zeros(2, 3);
/// assert_eq!(m.shape(), (2, 3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from an owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Flat view of the underlying buffer (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view of the underlying buffer (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self * other`: `other` is packed on the fly and
    /// the product runs through [`Matrix::matmul_packed`] (see
    /// [`crate::gemm`]). With fewer rows than one register tile the pack
    /// cannot pay for itself, and a non-finite `other` cannot be packed
    /// at all; both go through [`Matrix::matmul_naive`] instead, so
    /// every route is bit-identical to it at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        if self.rows >= MR {
            if let Ok(packed) = PackedMatrix::try_pack(other) {
                return self.matmul_packed(&packed);
            }
        }
        self.matmul_naive(other)
    }

    /// Reference scalar matmul: the oracle of the packed kernel and the
    /// fallback of [`Matrix::matmul`]. The i-k-j loop streams each output
    /// row once per `k`, adding the terms of every element in ascending
    /// `k` and skipping those whose `self` entry is `±0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        if self.cols == 0 || other.cols == 0 {
            return out;
        }
        let a_rows = self.data.chunks_exact(self.cols);
        for (a_row, out_row) in a_rows.zip(out.data.chunks_exact_mut(other.cols)) {
            for (&a, b_row) in a_row.iter().zip(other.data.chunks_exact(other.cols)) {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix product with the transpose of `other`: `self * other^T`,
    /// one serial dot per output element, its terms added in ascending
    /// `k` from `0.0`. This avoids materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (j, o) in out.row_mut(i).iter_mut().enumerate() {
                let mut acc = 0.0;
                for (a, b) in a_row.iter().zip(other.row(j)) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        out
    }

    /// Returns the transpose.
    pub fn transposed(&self) -> Matrix {
        let (rows, cols) = self.shape();
        let mut out = Matrix::zeros(cols, rows);
        // 4×4 blocks: four rows are read together and written back as
        // four runs of four, which stay in registers; the ragged right
        // and bottom edges go one element at a time.
        let (r4, c4) = (rows - rows % 4, cols - cols % 4);
        for r0 in (0..r4).step_by(4) {
            for c0 in (0..c4).step_by(4) {
                let block: [&[f32]; 4] =
                    std::array::from_fn(|i| &self.data[(r0 + i) * cols + c0..][..4]);
                for j in 0..4 {
                    let run = &mut out.data[(c0 + j) * rows + r0..][..4];
                    for (o, row) in run.iter_mut().zip(block) {
                        *o = row[j];
                    }
                }
            }
        }
        for r in 0..rows {
            for c in if r < r4 { c4..cols } else { 0..cols } {
                out.data[c * rows + r] = self.data[r * cols + c];
            }
        }
        out
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        let data = self.data.iter().map(|v| v * s).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Appends a row to the bottom of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()` (unless the matrix is empty, in
    /// which case the row defines the width).
    pub fn push_row(&mut self, row: &[f32]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "push_row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Appends all rows of `other` in one bulk copy (the fast path KV
    /// views use instead of per-row [`Matrix::push_row`] calls).
    ///
    /// # Panics
    ///
    /// Panics if `other.cols() != self.cols()` (unless `self` is empty,
    /// in which case `other` defines the width).
    pub fn push_rows(&mut self, other: &Matrix) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = other.cols;
        }
        assert_eq!(other.cols, self.cols, "push_rows width mismatch");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Returns a new matrix containing the selected rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, self.cols);
        out.cols = self.cols;
        for &i in indices {
            assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
            out.push_row(self.row(i));
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute element, or 0.0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Mean of all elements, or 0.0 for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>9.4}", self.get(r, c))?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0]]);
        assert_eq!(a.matmul_transposed(&b), a.matmul(&b.transposed()));
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    fn select_rows_preserves_order() {
        let m = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let s = m.select_rows(&[3, 0, 2]);
        assert_eq!(s.col(0), vec![3.0, 0.0, 2.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transposed().transposed(), m);
    }

    /// Every element lands at its mirrored index, block interiors and
    /// ragged edges alike.
    #[test]
    fn transpose_moves_every_element() {
        let small = (0..10).flat_map(|r| (0..10).map(move |c| (r, c)));
        for (rows, cols) in small.chain([(16, 64), (33, 70)]) {
            let m = Matrix::from_vec(rows, cols, (0..rows * cols).map(|i| i as f32).collect());
            let t = m.transposed();
            assert_eq!(t.shape(), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(t.get(c, r), m.get(r, c), "{rows}x{cols} at ({r}, {c})");
                }
            }
        }
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn norms_and_stats() {
        let m = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
        assert_eq!(m.max_abs(), 4.0);
        assert!((m.mean() + 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
