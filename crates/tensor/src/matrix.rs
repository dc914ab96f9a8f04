//! Row-major dense f32 matrix.

use crate::gemm::PackedMatrix;
use crate::json::{self, FromJson, JsonError, JsonValue, ToJson};

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

impl ToJson for Matrix {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("rows", self.rows.to_json()),
            ("cols", self.cols.to_json()),
            ("data", self.data.to_json()),
        ])
    }
}

impl FromJson for Matrix {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let fields = v
            .as_object()
            .ok_or_else(|| JsonError::new("expected object for Matrix"))?;
        let rows: usize = json::field(fields, "rows")?;
        let cols: usize = json::field(fields, "cols")?;
        let data: Vec<f32> = json::field(fields, "data")?;
        if data.len() != rows * cols {
            return Err(JsonError::new(format!(
                "matrix buffer length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }
}

/// Output rows per parallel chunk in the blocked matmul kernels.
const MATMUL_ROW_BLOCK: usize = 8;

/// Register-tile height of the transposed microkernel — and of both
/// [`crate::gemm`] instantiations, so also the fewest rows for which
/// [`Matrix::matmul`] packs its right-hand operand.
const MR: usize = 4;

/// Register-tile width of the transposed microkernel: output columns per
/// accumulator block. `MR x NR = 32` f32 accumulators occupy eight
/// 4-wide vector registers on the baseline x86-64/SSE2 target (half the
/// register file), leaving room for the streamed `b` tile and the
/// broadcast `a` values; wider tiles spill, narrower ones leave the
/// vector units idle.
const NR: usize = 8;

/// Per multiply-add estimate that [`crate::par::grain_for`] sizes every
/// matmul fan-out from, so the inline/parallel decision is a pure
/// function of shape — never of wall-clock, which would break run-to-run
/// determinism. One multiply plus one add, with operand loads and the
/// accumulator spill amortized across the register tile of the packed
/// product ([`crate::PackedMatrix::mul_rows_into`], one row or many) and
/// of [`Matrix::matmul_transposed`]. The row-streaming kernel behind
/// [`Matrix::matmul_blocked`] retires MACs at essentially the same rate
/// (its j-inner loop vectorizes and streams), so it shares the constant.
pub(crate) const MICRO_OPS_PER_MAC: usize = 2;

/// Rows per parallel chunk for a matmul-shaped kernel: sized by
/// [`crate::par::grain_for`] from the per-row flop estimate, snapped up to
/// [`MATMUL_ROW_BLOCK`] so each chunk is whole register-tile stripes. Returns
/// `rows` (single chunk → inline) whenever the whole product is below the
/// dispatch threshold. Pure in the shape, so the inline/parallel decision
/// is thread-count-invariant.
pub(crate) fn matmul_rows_per_chunk(rows: usize, row_ops: usize) -> usize {
    let rpc = crate::par::grain_for(rows, row_ops);
    if rpc >= rows {
        rows
    } else {
        rpc.max(MATMUL_ROW_BLOCK).min(rows)
    }
}

/// Accumulates `a[i0.., :] * b` into `out_chunk` (a block of contiguous
/// output rows), one output row at a time: every output element adds its
/// terms in ascending-`k` order in place with the naive zero-skip —
/// exactly the i-k-j association of [`Matrix::matmul_naive`], non-finite
/// `b` entries included.
fn matmul_rows_into(a: &[f32], a_cols: usize, b: &[f32], cols: usize, i0: usize, out_chunk: &mut [f32]) {
    for (i, out_row) in out_chunk.chunks_exact_mut(cols).enumerate() {
        let a_row = &a[(i0 + i) * a_cols..(i0 + i + 1) * a_cols];
        for (&av, b_row) in a_row.iter().zip(b.chunks_exact(cols)) {
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Register-tiled inner kernel for [`Matrix::matmul_transposed`]: `MR`
/// rows of `a` against `NR` rows of `b` accumulate into a 16-register
/// tile, breaking the single-accumulator dependency chain of the serial
/// dot in [`Matrix::matmul_transposed_naive`] while keeping each output
/// element's fold order untouched (ascending `k` from `0.0`), so results
/// are bit-identical to the oracle.
fn matmul_transposed_rows_into_micro(
    a: &[f32],
    a_cols: usize,
    other: &Matrix,
    i0: usize,
    out_chunk: &mut [f32],
) {
    let b = other.as_slice();
    let b_rows = other.rows;
    let rows_here = out_chunk.len() / b_rows;
    let mut i = 0;
    while i + MR <= rows_here {
        let mut j = 0;
        while j + NR <= b_rows {
            let mut acc = [[0.0f32; NR]; MR];
            for k in 0..a_cols {
                let mut bv = [0.0f32; NR];
                for (c, v) in bv.iter_mut().enumerate() {
                    *v = b[(j + c) * a_cols + k];
                }
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = a[(i0 + i + r) * a_cols + k];
                    for (o, &bvc) in acc_row.iter_mut().zip(&bv) {
                        *o += av * bvc;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                out_chunk[(i + r) * b_rows + j..][..NR].copy_from_slice(acc_row);
            }
            j += NR;
        }
        // Column remainder: serial dots, identical fold order.
        for r in 0..MR {
            let a_row = &a[(i0 + i + r) * a_cols..(i0 + i + r + 1) * a_cols];
            for (c, o) in out_chunk[(i + r) * b_rows..(i + r + 1) * b_rows]
                .iter_mut()
                .enumerate()
                .skip(j)
            {
                let mut dot = 0.0f32;
                for (x, y) in a_row.iter().zip(other.row(c)) {
                    dot += x * y;
                }
                *o = dot;
            }
        }
        i += MR;
    }
    // Row remainder: serial dots.
    for r in i..rows_here {
        let a_row = &a[(i0 + r) * a_cols..(i0 + r + 1) * a_cols];
        for (c, o) in out_chunk[r * b_rows..(r + 1) * b_rows].iter_mut().enumerate() {
            let mut dot = 0.0f32;
            for (x, y) in a_row.iter().zip(other.row(c)) {
                dot += x * y;
            }
            *o = dot;
        }
    }
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

    /// Consumes the matrix, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Matrix product `self * other`: `other` is packed on the fly and
    /// the product runs through [`Matrix::matmul_packed`] (see
    /// [`crate::gemm`]). With fewer rows than one register tile the pack
    /// cannot pay for itself, and a non-finite `other` cannot be packed
    /// at all; both go through the row-streaming kernel of
    /// [`Matrix::matmul_blocked`] instead. Every route is bit-identical
    /// to [`Matrix::matmul_naive`] at every thread count.
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
        self.matmul_blocked(other)
    }

    /// Matrix product via the row-streaming kernel: pool-dispatched like
    /// [`Matrix::matmul_packed`], but re-touching the full output row
    /// once per `k` instead of holding an accumulator tile in registers.
    /// It is what [`Matrix::matmul`] runs for products too short to pack;
    /// bit-identical to [`Matrix::matmul_naive`] for any operands,
    /// non-finite ones included.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_blocked(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        if self.rows == 0 || self.cols == 0 || other.cols == 0 {
            return out;
        }
        let cols = other.cols;
        let grain = matmul_rows_per_chunk(self.rows, MICRO_OPS_PER_MAC * self.cols * cols) * cols;
        crate::par::par_chunks_mut(&mut out.data, grain, |chunk_idx, out_chunk| {
            let i0 = chunk_idx * (grain / cols);
            matmul_rows_into(&self.data, self.cols, &other.data, cols, i0, out_chunk);
        });
        out
    }

    /// Reference scalar matmul (i-k-j loop), retained as the test oracle
    /// for the blocked and packed kernels.
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
        // i-k-j loop order keeps the inner loop streaming over contiguous rows.
        for i in 0..self.rows {
            let out_row = i * other.cols;
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let b_row = k * other.cols;
                for j in 0..other.cols {
                    out.data[out_row + j] += a * other.data[b_row + j];
                }
            }
        }
        out
    }

    /// Matrix product with the transpose of `other`: `self * other^T`,
    /// via the register-tiled microkernel.
    ///
    /// This avoids materializing the transpose in attention score
    /// computation (`Q * K^T`). `MR x NR` output tiles accumulate 16
    /// independent dots at once — breaking the serial single-accumulator
    /// dependency chain of the naive dot — and rows fan across
    /// [`crate::par`] for large products. Each output element keeps the
    /// naive sequential fold order, so the result is bit-identical to
    /// [`Matrix::matmul_transposed_naive`].
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
        if self.rows == 0 || other.rows == 0 {
            return out;
        }
        let b_rows = other.rows;
        let grain = matmul_rows_per_chunk(self.rows, MICRO_OPS_PER_MAC * self.cols * b_rows) * b_rows;
        crate::par::par_chunks_mut(&mut out.data, grain, |chunk_idx, out_chunk| {
            let i0 = chunk_idx * (grain / b_rows);
            matmul_transposed_rows_into_micro(&self.data, self.cols, other, i0, out_chunk);
        });
        out
    }

    /// Reference scalar transpose-product, retained as the test oracle
    /// for the blocked/parallel [`Matrix::matmul_transposed`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transposed_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let mut acc = 0.0;
                for (a, b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out.data[i * other.rows + j] = acc;
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
