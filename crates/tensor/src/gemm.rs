//! Packed-panel GEMM: the right-hand operand laid out in 16-column
//! panels, and one branch-free register-tile kernel body instantiated at
//! the host's vector width. [`PackedMatrix`] owns a packed weight matrix;
//! [`Panels`] borrows panels someone else keeps (the KV cache's key
//! window, which stores `Kᵀ` this way so attention scores are a product).
//!
//! # Bit-identity
//!
//! Every output element starts at `+0.0` and adds its `a[i][k] * b[k][j]`
//! terms in ascending `k`, one IEEE multiply then one IEEE add per term,
//! never skipping one: the `seq_sum_f32` fold of its terms, whatever the
//! operands hold. Tiling only changes *which element* is advanced next,
//! never an element's own term order, and no FMA is enabled in either
//! instantiation, so the baseline tile and the AVX2 tile agree bit for
//! bit.
//!
//! [`Matrix::matmul_naive`] has the same i-k-j association but also
//! *skips* terms whose `a[i][k]` is `±0.0`; this kernel does not (the skip
//! is a data-dependent branch per `k` that keeps the loop off the vector
//! units). Against the naive loop, dropping it is legal because
//! [`PackedMatrix::try_pack`] admits finite entries only:
//! `±0.0 * b` is then `±0.0`, and an accumulator that starts at `+0.0`
//! can never hold `-0.0` under round-to-nearest (`x + y` is `-0.0` only
//! when both are, and an exact cancellation rounds to `+0.0`), so adding
//! `±0.0` to it is the identity. A packed product therefore equals the
//! naive oracle bit for bit too (`tests/packed_gemm.rs`).

use crate::matrix::{matmul_rows_per_chunk, Matrix, MICRO_OPS_PER_MAC};
use crate::TensorError;

/// Columns per packed panel: the widest tile any instantiation uses, so
/// one layout serves them all.
pub const PANEL: usize = 16;

/// The kernel signature both instantiations share.
type Kernel = fn(&[f32], Panels<'_>, &mut [f32]);

/// A matrix packed for use as the right-hand operand of a product:
/// `cols.div_ceil(16)` panels, each holding 16 adjacent columns for every
/// row (`rows x 16`, row-major), the last panel zero-padded. A kernel tile
/// streams one panel top to bottom with unit stride instead of striding
/// across a row-major matrix. All entries are finite (see the module
/// docs), so padding and real entries alike contribute exact zeros where
/// the naive loop would have skipped.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl PackedMatrix {
    /// Packs `m`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if any entry is NaN or
    /// infinite: the branch-free kernel multiplies every entry by every
    /// activation, zero or not, and `0 * inf` would surface a NaN the
    /// naive loop skips.
    pub fn try_pack(m: &Matrix) -> Result<Self, TensorError> {
        if !m.as_slice().iter().fold(true, |ok, v| ok & v.is_finite()) {
            return Err(TensorError::InvalidArgument(
                "packed matmul operand must be finite",
            ));
        }
        let (rows, cols) = m.shape();
        let mut data = vec![0.0f32; cols.div_ceil(PANEL) * rows * PANEL];
        if cols > 0 {
            for (r, row) in m.as_slice().chunks_exact(cols).enumerate() {
                for (p, chunk) in row.chunks(PANEL).enumerate() {
                    data[(p * rows + r) * PANEL..][..chunk.len()].copy_from_slice(chunk);
                }
            }
        }
        Ok(PackedMatrix { rows, cols, data })
    }

    /// Number of rows (the product's inner dimension).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the product's output width).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)` of the matrix that was packed.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "({r}, {c}) out of bounds");
        self.data[((c / PANEL) * self.rows + r) * PANEL + c % PANEL]
    }

    /// The row-major matrix that was packed.
    pub fn unpack(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, o) in out.row_mut(r).iter_mut().enumerate() {
                *o = self.get(r, c);
            }
        }
        out
    }

    /// Matrix product `a * self` for the row-major `a`, which holds
    /// `a.len() / self.rows()` rows, into a buffer the caller owns: `out`
    /// is resized to `rows x self.cols()` and every element overwritten,
    /// so a buffer reused across calls allocates only when it grows. One
    /// row (a decode step) and a whole prompt run the same kernel and the
    /// same fan-out as [`Matrix::matmul_packed`], and a row's result does
    /// not depend on the rows around it, so a decode step's row equals
    /// that row of a batched prefill product bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not a whole number of `self.rows()`-wide rows.
    pub fn mul_rows_into(&self, a: &[f32], out: &mut Vec<f32>) {
        let rows = a.len().checked_div(self.rows).unwrap_or(0);
        assert_eq!(
            a.len(),
            rows * self.rows,
            "left operand is not whole rows of width {}",
            self.rows
        );
        out.resize(rows * self.cols, 0.0);
        self.product_into(a, rows, out, rows_into);
    }

    /// `out = a * self` for the `rows` rows of `a` through `kernel`,
    /// fanning row blocks across [`crate::par`] when the product is large
    /// enough to amortize the pool. Row blocks only split *which elements
    /// a worker owns*; every element's accumulation order is fixed, so the
    /// split (and hence the parallel grain) cannot change bits.
    fn product_into(&self, a: &[f32], rows: usize, out: &mut [f32], kernel: Kernel) {
        let (k, cols) = (self.rows, self.cols);
        if rows == 0 || cols == 0 {
            return;
        }
        let panels = Panels::new(k, cols, &self.data);
        let rows_per_chunk = matmul_rows_per_chunk(rows, MICRO_OPS_PER_MAC * k * cols);
        crate::par::par_chunks_mut(out, rows_per_chunk * cols, |chunk_idx, out_chunk| {
            let a0 = chunk_idx * rows_per_chunk * k;
            kernel(&a[a0..a0 + out_chunk.len() / cols * k], panels, out_chunk);
        });
    }
}

/// A borrowed right-hand operand in [`PackedMatrix`]'s layout: a
/// `rows x cols` matrix as `cols.div_ceil(16)` panels of `rows x 16`
/// (row-major), column `c` at lane `c % 16` of panel `c / 16`. Whoever
/// owns the panels decides what the lanes past `cols` hold; the kernel
/// reads them but never stores their columns.
///
/// Nothing is checked for finiteness: every term is computed, so each
/// output is the unskipped ascending-`k` fold (see the module docs) even
/// for infinite or NaN entries.
#[derive(Debug, Clone, Copy)]
pub struct Panels<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> Panels<'a> {
    /// The `rows x cols` matrix whose panels start at `data[0]`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is shorter than `cols.div_ceil(16)` whole panels.
    pub fn new(rows: usize, cols: usize, data: &'a [f32]) -> Self {
        assert!(
            data.len() >= cols.div_ceil(PANEL) * rows * PANEL,
            "{} floats cannot hold the panels of a {rows}x{cols} matrix",
            data.len()
        );
        Panels { rows, cols, data }
    }

    /// `out = a * self` for the `out.len() / cols` row-major rows of `a`,
    /// on the calling thread through the instantiation the host supports:
    /// the kernel of [`Matrix::matmul_packed`] without its fan-out, for
    /// callers that already run inside a pool unit.
    ///
    /// # Panics
    ///
    /// Panics if `a` does not hold `out.len() / cols` rows of `rows`.
    pub fn mul_into(self, a: &[f32], out: &mut [f32]) {
        rows_into(a, self, out);
    }

    /// The packed columns from `col` to the end of its panel, from row 0
    /// down: row `k` of an `NT`-wide tile at `col` is `[k * PANEL..][..NT]`.
    #[inline(always)]
    fn tile(&self, col: usize) -> &'a [f32] {
        &self.data[(col / PANEL) * self.rows * PANEL + col % PANEL..]
            [..self.rows * PANEL - col % PANEL]
    }
}

/// `R` rows of `a` against `T` tiles of `NT` packed columns: `R x T x NT`
/// accumulators from `+0.0`, ascending `k`, no data-dependent branch.
#[inline(always)]
fn accumulate<const R: usize, const NT: usize, const T: usize>(
    a_rows: [&[f32]; R],
    b_tiles: [&[f32]; T],
    k: usize,
) -> [[[f32; NT]; T]; R] {
    let mut acc = [[[0.0f32; NT]; T]; R];
    for kk in 0..k {
        for (p, b_tile) in b_tiles.iter().enumerate() {
            let b = &b_tile[kk * PANEL..][..NT];
            for (r, a_row) in a_rows.iter().enumerate() {
                let av = a_row[kk];
                for (o, &bv) in acc[r][p].iter_mut().zip(b) {
                    *o += av * bv;
                }
            }
        }
    }
    acc
}

/// The one kernel body: `out = a * w` for the `out.len() / w.cols` rows
/// of `a`. Full stripes of `MR` rows run `MR x NT` accumulator tiles;
/// leftover rows (and the single row of a decode step) run `NP` tiles at
/// once so one row still keeps `NP * NT` independent accumulators in
/// flight. `NT` divides [`PANEL`]. See the module docs for why the result
/// equals the naive oracle's.
#[inline(always)]
fn rows_into_tiles<const MR: usize, const NT: usize, const NP: usize>(
    a: &[f32],
    w: Panels<'_>,
    out: &mut [f32],
) {
    let (k, n) = (w.rows, w.cols);
    if k == 0 || n == 0 {
        out.fill(0.0);
        return;
    }
    let rows = out.len() / n;
    assert_eq!(a.len(), rows * k, "left operand does not match output rows");
    let tiles = n.div_ceil(NT);
    let mut store = |i: usize, t: usize, acc: &[f32; NT]| {
        let width = NT.min(n - t * NT);
        out[i * n + t * NT..][..width].copy_from_slice(&acc[..width]);
    };
    let mut i = 0;
    while i + MR <= rows {
        let a_rows: [&[f32]; MR] = std::array::from_fn(|r| &a[(i + r) * k..][..k]);
        for t in 0..tiles {
            let acc = accumulate::<MR, NT, 1>(a_rows, [w.tile(t * NT)], k);
            for (r, acc_row) in acc.iter().enumerate() {
                store(i + r, t, &acc_row[0]);
            }
        }
        i += MR;
    }
    for i in i..rows {
        let a_row = [&a[i * k..][..k]];
        let mut t = 0;
        while t + NP <= tiles {
            let acc =
                accumulate::<1, NT, NP>(a_row, std::array::from_fn(|p| w.tile((t + p) * NT)), k);
            for (p, acc_tile) in acc[0].iter().enumerate() {
                store(i, t + p, acc_tile);
            }
            t += NP;
        }
        for t in t..tiles {
            let acc = accumulate::<1, NT, 1>(a_row, [w.tile(t * NT)], k);
            store(i, t, &acc[0][0]);
        }
    }
}

/// The baseline-ISA instantiation: 4x8 tiles fill eight 4-wide SSE2
/// registers, two tiles at once for a lone row. Also what every non-x86
/// target runs.
fn rows_into_baseline(a: &[f32], w: Panels<'_>, out: &mut [f32]) {
    rows_into_tiles::<4, 8, 2>(a, w, out);
}

/// The AVX2 instantiation: 4x16 tiles fill eight 8-wide registers, four
/// tiles at once for a lone row. Only `avx2` is enabled — not `fma` — so
/// each term is still a separate IEEE multiply and add.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn rows_into_avx2(a: &[f32], w: Panels<'_>, out: &mut [f32]) {
    rows_into_tiles::<4, 16, 4>(a, w, out);
}

/// `out = a * w` through the instantiation the host supports. The
/// platform is the selector: there is no flag, and both instantiations
/// produce the same bits.
fn rows_into(a: &[f32], w: Panels<'_>, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // rkvc-safety: the `is_x86_feature_detected!("avx2")` guard above is the callee's only requirement
        return unsafe { rows_into_avx2(a, w, out) };
    }
    rows_into_baseline(a, w, out);
}

impl Matrix {
    /// Matrix product `self * w` against a pre-packed right-hand operand:
    /// [`PackedMatrix::mul_rows_into`] into a fresh matrix. Bit-identical
    /// to [`Matrix::matmul_naive`] against the unpacked operand, at every
    /// thread count and on every ISA.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != w.rows()`.
    pub fn matmul_packed(&self, w: &PackedMatrix) -> Matrix {
        self.matmul_packed_with(w, rows_into)
    }

    /// [`Matrix::matmul_packed`] over a given kernel instantiation.
    fn matmul_packed_with(&self, w: &PackedMatrix, kernel: Kernel) -> Matrix {
        let (rows, k, cols) = (self.rows(), self.cols(), w.cols);
        assert_eq!(
            k, w.rows,
            "matmul shape mismatch: {rows}x{k} * {}x{cols}",
            w.rows
        );
        let mut out = Matrix::zeros(rows, cols);
        w.product_into(self.as_slice(), rows, out.as_mut_slice(), kernel);
        out
    }
}

/// [`Matrix::matmul_packed`] pinned to the baseline-ISA instantiation, so
/// tests on an AVX2 host can compare both against the naive oracle.
#[doc(hidden)]
pub fn matmul_packed_baseline(a: &Matrix, w: &PackedMatrix) -> Matrix {
    a.matmul_packed_with(w, rows_into_baseline)
}

/// [`Panels::mul_into`] pinned to the baseline-ISA instantiation, for the
/// same comparison.
#[doc(hidden)]
pub fn panels_mul_into_baseline(a: &[f32], w: Panels<'_>, out: &mut [f32]) {
    rows_into_baseline(a, w, out);
}
