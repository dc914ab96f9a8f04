//! Asymmetric uniform quantization with real bit packing.
//!
//! Implements Eqn. 3 of the paper:
//!
//! ```text
//! quantize:    X_q = round((X - l) / Δ),   Δ = (u - l) / (2^b - 1)
//! de-quantize: X̂  = X_q · Δ + l
//! ```
//!
//! Quantized codes are packed into `u8` words (8/4/2/1 values per byte for
//! 1/2/4/8-bit), and the per-group `(scale, zero)` constants are stored at
//! FP16 precision — matching what a production kernel would keep in memory.

use rkvc_tensor::{round_to_f16, Matrix};

use crate::CacheError;

/// Bit widths the packer supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SupportedBits {
    /// 1-bit (binary) quantization.
    B1,
    /// 2-bit quantization (KIVI-2 regime).
    B2,
    /// 4-bit quantization (KIVI-4 / GEAR-4 regime).
    B4,
    /// 8-bit quantization.
    B8,
}

impl SupportedBits {
    /// Constructs from a raw bit count.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnsupportedBits`] for anything other than
    /// 1, 2, 4, or 8.
    pub fn from_bits(bits: u8) -> Result<Self, CacheError> {
        match bits {
            1 => Ok(SupportedBits::B1),
            2 => Ok(SupportedBits::B2),
            4 => Ok(SupportedBits::B4),
            8 => Ok(SupportedBits::B8),
            other => Err(CacheError::UnsupportedBits(other)),
        }
    }

    /// Number of bits per value.
    pub fn bits(self) -> u8 {
        match self {
            SupportedBits::B1 => 1,
            SupportedBits::B2 => 2,
            SupportedBits::B4 => 4,
            SupportedBits::B8 => 8,
        }
    }

    /// Number of quantized values packed per byte.
    pub fn values_per_byte(self) -> usize {
        8 / self.bits() as usize
    }

    /// Largest representable code, `2^b - 1`.
    pub fn max_code(self) -> u32 {
        (1u32 << self.bits()) - 1
    }
}

/// A quantized group: packed codes plus FP16 scale/zero constants.
#[derive(Debug, Clone, PartialEq)]
// rkvc-allow(C001): return type of quantize_group; consumers bind groups without naming the type
pub struct QuantizedGroup {
    packed: Vec<u8>,
    scale: f32,
    zero: f32,
    len: usize,
    bits: SupportedBits,
}

impl QuantizedGroup {
    /// Number of values in the group.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit width used for the codes.
    pub fn bits(&self) -> SupportedBits {
        self.bits
    }

    /// Bytes this group occupies in a real deployment: packed codes plus two
    /// FP16 constants (scale and zero point).
    pub fn memory_bytes(&self) -> usize {
        self.packed.len() + 4
    }

    /// Reads the code at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn code(&self, i: usize) -> u32 {
        assert!(i < self.len, "code index out of bounds");
        let bits = self.bits.bits() as usize;
        let per = self.bits.values_per_byte();
        let byte = self.packed[i / per];
        let shift = (i % per) * bits;
        ((byte >> shift) as u32) & self.bits.max_code()
    }

    /// Dequantizes the single value at index `i`:
    /// `code(i) * scale + zero`, the exact f32 that
    /// [`dequantize_group`] writes at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn dequant(&self, i: usize) -> f32 {
        self.code(i) as f32 * self.scale + self.zero
    }

    /// The FP16-rounded scale constant shared by the group.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The FP16-rounded zero point shared by the group.
    pub fn zero(&self) -> f32 {
        self.zero
    }

    /// The packed code words, `values_per_byte()` codes per byte in
    /// little-endian bit order. Exposed so the fused-vs-oracle tests can
    /// check the compressed representation directly.
    pub fn packed(&self) -> &[u8] {
        &self.packed
    }

    /// Bytes this group actually occupies in the simulator process:
    /// packed codes plus two f32 constants. Compare
    /// [`QuantizedGroup::memory_bytes`], which models the deployment
    /// format (FP16 constants).
    pub fn resident_bytes(&self) -> usize {
        self.packed.len() + 2 * std::mem::size_of::<f32>()
    }
}

/// Builds the byte → code-values table for one bit width: entry `b`
/// holds the `PER` codes packed in byte `b`, LSB-first, each converted
/// with the exact `code as f32` cast the arithmetic decode performs.
/// Codes are small integers, which f32 represents exactly, so loading
/// from the table is bit-identical to shift-mask-convert — it just
/// replaces the per-element integer unpacking with one 8-byte load per
/// packed byte.
const fn code_value_table<const PER: usize>(nbits: u32) -> [[f32; PER]; 256] {
    let mask = (1u32 << nbits) - 1;
    let mut t = [[0.0f32; PER]; 256];
    let mut b = 0;
    while b < 256 {
        let mut word = b as u32;
        let mut i = 0;
        while i < PER {
            t[b][i] = (word & mask) as f32;
            word >>= nbits;
            i += 1;
        }
        b += 1;
    }
    t
}

/// Stores a decoded value, or with `ADD` adds the slot's previous content
/// to it — decoded value as the left operand, the element order of
/// `dequantize().add(correction)`.
#[inline(always)]
fn put<const ADD: bool>(slot: &mut f32, decoded: f32) {
    *slot = if ADD { decoded + *slot } else { decoded };
}

static CODE_VALUES_B1: [[f32; 8]; 256] = code_value_table::<8>(1);
static CODE_VALUES_B2: [[f32; 4]; 256] = code_value_table::<4>(2);
static CODE_VALUES_B4: [[f32; 2]; 256] = code_value_table::<2>(4);
static CODE_VALUES_B8: [[f32; 1]; 256] = code_value_table::<1>(8);

/// Quantization error statistics for a group (test-only diagnostic).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct QuantError {
    /// Mean absolute reconstruction error.
    pub mean_abs: f32,
    /// Maximum absolute reconstruction error.
    pub max_abs: f32,
}

/// Quantizes a slice of values as one group (shared scale/zero).
///
/// Degenerate groups (all values equal) get `scale = 0` and reconstruct
/// exactly.
///
/// # Examples
///
/// ```
/// use rkvc_kvcache::{quantize_group, dequantize_group, SupportedBits};
///
/// let values = [0.0, 0.5, 1.0, 1.5];
/// let g = quantize_group(&values, SupportedBits::B4);
/// let back = dequantize_group(&g);
/// for (a, b) in values.iter().zip(&back) {
///     assert!((a - b).abs() < 0.11);
/// }
/// ```
pub fn quantize_group(values: &[f32], bits: SupportedBits) -> QuantizedGroup {
    let mut packed = vec![0u8; values.len().div_ceil(bits.values_per_byte())];
    let (scale, zero) = pack_group(values, bits, &mut packed);
    QuantizedGroup {
        packed,
        scale,
        zero,
        len: values.len(),
        bits,
    }
}

/// The one per-group kernel: packs `values` into the zeroed `packed`
/// (`values_per_byte()` codes per byte, LSB-first) and returns the
/// group's FP16-rounded `(scale, zero)`. [`quantize_group`] feeds it a
/// slice; [`QuantizedMatrix::quantize`] feeds it each row, or each
/// column of the transpose, writing into its flat code buffer.
fn pack_group(values: &[f32], bits: SupportedBits, packed: &mut [u8]) -> (f32, f32) {
    let (lo, hi) = if values.is_empty() { (0.0, 0.0) } else { value_range(values) };
    let max_code = bits.max_code() as f32;
    let scale = if hi > lo { (hi - lo) / max_code } else { 0.0 };
    // Store constants at FP16 like a production kernel would.
    let scale = round_to_f16(scale);
    let zero = round_to_f16(lo);

    if scale > 0.0 {
        match bits {
            SupportedBits::B1 => pack_codes::<8>(values, zero, scale, packed),
            SupportedBits::B2 => pack_codes::<4>(values, zero, scale, packed),
            SupportedBits::B4 => pack_codes::<2>(values, zero, scale, packed),
            SupportedBits::B8 => pack_codes::<1>(values, zero, scale, packed),
        }
    }
    (scale, zero)
}

/// `(min, max)` of a non-empty slice: the values the folds
/// `lo = lo.min(v)` / `hi = hi.max(v)` from `±inf` return, NaN skipped.
///
/// Each step is written as a select that skips NaN —
/// `if v < lo { v } else { lo }` is one `minps` — and eight lanes fold
/// independently before folding together pairwise, which breaks the
/// serial dependency chains. Min and max do not depend on the order,
/// except for the sign of a zero extreme (`+0.0` and `−0.0` compare
/// equal). That sign never shows: `hi − lo` and `hi > lo` do not see
/// it, and a zero `lo` reaches the decode only as `code · scale + zero`,
/// where `code · scale` is never `−0.0`, and the codes only as
/// `(v − zero) / scale`, where a signed zero rounds to code 0 either way. The serial folds never fixed it either: for one slice a
/// release build of them returns a different sign than a debug build.
fn value_range(values: &[f32]) -> (f32, f32) {
    let mut lo = [f32::INFINITY; 8];
    let mut hi = [f32::NEG_INFINITY; 8];
    let mut chunks = values.chunks_exact(8);
    for chunk in chunks.by_ref() {
        fold_lanes(&mut lo, &mut hi, chunk);
    }
    fold_lanes(&mut lo, &mut hi, chunks.remainder());
    for width in [4, 2, 1] {
        for i in 0..width {
            lo[i] = lower(lo[i], lo[i + width]);
            hi[i] = higher(hi[i], hi[i + width]);
        }
    }
    (lo[0], hi[0])
}

/// One step of each lane's fold over `chunk` (up to one value a lane).
#[inline(always)]
fn fold_lanes(lo: &mut [f32; 8], hi: &mut [f32; 8], chunk: &[f32]) {
    for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(chunk) {
        *l = lower(*l, v);
        *h = higher(*h, v);
    }
}

/// `acc.min(v)` with NaN skipped.
#[inline(always)]
fn lower(acc: f32, v: f32) -> f32 {
    if v < acc {
        v
    } else {
        acc
    }
}

/// `acc.max(v)` with NaN skipped.
#[inline(always)]
fn higher(acc: f32, v: f32) -> f32 {
    if v > acc {
        v
    } else {
        acc
    }
}

/// Writes every byte of `packed` from `PER` codes of `values` each, the
/// last byte's unused slots zero. Each code is [`round_code`] of
/// `(v − zero) / scale`; the loop is integer and float arithmetic only,
/// so it vectorizes.
fn pack_codes<const PER: usize>(values: &[f32], zero: f32, scale: f32, packed: &mut [u8]) {
    let nbits = 8 / PER;
    let max_code = ((1u32 << nbits) - 1) as f32;
    let byte = |vals: &[f32]| {
        let mut b = 0u32;
        for (slot, &v) in vals.iter().enumerate() {
            b |= round_code((v - zero) / scale, max_code) << (slot * nbits);
        }
        b as u8
    };
    let mut chunks = values.chunks_exact(PER);
    for (out, vals) in packed.iter_mut().zip(chunks.by_ref()) {
        *out = byte(vals);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        packed[packed.len() - 1] = byte(rem);
    }
}

/// `t.round().clamp(0.0, max_code) as u32` without the libm call.
///
/// Clamp first (`max` turns NaN into 0), then round to the nearest
/// integer by adding 2^23 — below 2^23 an f32's ulp after the shift is
/// 1, so the sum lands on an integer (ties to even) whose value sits in
/// the low mantissa bits — and add one back at a tie that went down, so
/// ties round away from zero as `round` does. For an integer `max_code`
/// this agrees with the libm form everywhere: below zero both give 0,
/// above `max_code` both give `max_code`, NaN gives 0, and in between
/// both are round-half-away-from-zero (`c − nearest` is exact, since
/// both are below 2^8). The saturating `as u32` of a truncate-based form
/// would keep the loop from vectorizing; this one is plain arithmetic.
#[inline(always)]
fn round_code(t: f32, max_code: f32) -> u32 {
    const SHIFT: f32 = 8_388_608.0; // 2^23
    let c = t.max(0.0).min(max_code);
    let shifted = c + SHIFT;
    let nearest = shifted - SHIFT;
    (shifted.to_bits() - SHIFT.to_bits()) + u32::from(c - nearest >= 0.5)
}

/// Reconstructs the values of a quantized group.
pub fn dequantize_group(group: &QuantizedGroup) -> Vec<f32> {
    (0..group.len)
        .map(|i| group.code(i) as f32 * group.scale + group.zero)
        .collect()
}

/// Measures reconstruction error of a group against the original values.
///
/// # Panics
///
/// Panics if `original.len() != group.len()`.
#[cfg(test)]
pub(crate) fn measure_error(original: &[f32], group: &QuantizedGroup) -> QuantError {
    assert_eq!(original.len(), group.len(), "length mismatch");
    let recon = dequantize_group(group);
    let mut sum = 0.0f32;
    let mut max = 0.0f32;
    for (a, b) in original.iter().zip(&recon) {
        let e = (a - b).abs();
        sum += e;
        max = max.max(e);
    }
    QuantError {
        mean_abs: if original.is_empty() { 0.0 } else { sum / original.len() as f32 },
        max_abs: max,
    }
}

/// Layout of group boundaries for a quantized matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupLayout {
    /// One group per column chunk: channel `c`'s values across a token chunk
    /// share constants (KIVI key layout).
    PerChannel,
    /// One group per row: a token's values across channels share constants
    /// (KIVI value layout, GEAR layout).
    PerToken,
}

/// A matrix stored in quantized form with a chosen group layout.
///
/// Rows are tokens, columns are head channels. The groups live in two
/// flat arrays: `codes` holds every group's packed bytes back to back,
/// each group laid out exactly as [`quantize_group`] packs it, and
/// `consts` holds each group's `(scale, zero)`. The decode kernels walk
/// the groups by offset.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    codes: Vec<u8>,
    consts: Vec<(f32, f32)>,
    bits: SupportedBits,
    layout: GroupLayout,
    rows: usize,
    cols: usize,
}

impl QuantizedMatrix {
    /// Quantizes `m` with the given layout and bit width.
    ///
    /// `PerChannel` produces one group per column (constants shared along the
    /// token axis); `PerToken` produces one group per row. Each group is
    /// packed from a contiguous run — a row of `m`, or for a column a row
    /// of one transposed copy — into its slot of the flat code buffer, so
    /// the call allocates at most three buffers whatever the group count.
    pub fn quantize(m: &Matrix, layout: GroupLayout, bits: SupportedBits) -> Self {
        let (rows, cols) = m.shape();
        let transposed;
        let (groups, group_len, data) = match layout {
            GroupLayout::PerChannel => {
                transposed = m.transposed();
                (cols, rows, transposed.as_slice())
            }
            GroupLayout::PerToken => (rows, cols, m.as_slice()),
        };
        let group_bytes = group_len.div_ceil(bits.values_per_byte());
        let mut codes = vec![0u8; groups * group_bytes];
        let consts = (0..groups)
            .map(|g| {
                let values = &data[g * group_len..][..group_len];
                pack_group(values, bits, &mut codes[g * group_bytes..][..group_bytes])
            })
            .collect();
        QuantizedMatrix {
            codes,
            consts,
            bits,
            layout,
            rows,
            cols,
        }
    }

    /// Values per group: a column's rows or a row's columns.
    fn group_len(&self) -> usize {
        match self.layout {
            GroupLayout::PerChannel => self.rows,
            GroupLayout::PerToken => self.cols,
        }
    }

    /// Each group's packed bytes and `(scale, zero)`, in group order.
    /// (Groups of zero values have no bytes and yield nothing, which is
    /// all there is to decode of them.)
    fn groups(&self) -> impl Iterator<Item = (&[u8], (f32, f32))> {
        let group_bytes = self.group_len().div_ceil(self.bits.values_per_byte());
        self.codes.chunks_exact(group_bytes.max(1)).zip(self.consts.iter().copied())
    }

    /// Reconstructs the dense matrix, one element at a time with the
    /// shift-and-mask unpacking of [`QuantizedGroup::code`]: the oracle
    /// the table-driven decode kernels are checked against.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let nbits = self.bits.bits() as usize;
        let per = self.bits.values_per_byte();
        for (g, (packed, (scale, zero))) in self.groups().enumerate() {
            for i in 0..self.group_len() {
                let code = ((packed[i / per] >> ((i % per) * nbits)) as u32) & self.bits.max_code();
                let v = code as f32 * scale + zero;
                match self.layout {
                    GroupLayout::PerChannel => out.set(i, g, v),
                    GroupLayout::PerToken => out.set(g, i, v),
                }
            }
        }
        out
    }

    /// Bytes used by packed codes and constants: per group, the packed
    /// codes plus two FP16 constants.
    pub fn memory_bytes(&self) -> usize {
        self.codes.len() + 4 * self.consts.len()
    }

    /// Bytes actually held by the simulator process for this matrix:
    /// packed codes at their true size plus two f32 constants per group.
    pub fn resident_bytes(&self) -> usize {
        self.codes.len() + 2 * std::mem::size_of::<f32>() * self.consts.len()
    }

    /// The group layout.
    pub fn layout(&self) -> GroupLayout {
        self.layout
    }

    /// Number of rows (tokens).
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Fused score kernel of a `PerChannel` matrix: with `scores` zeroed
    /// by the caller, `scores[r] = dot(dequant(r, ..), q) * scale` for
    /// every row `r`, each packed code decoded in-register as the dots
    /// consume it.
    ///
    /// The accumulation runs column-major: column `c`'s group is walked
    /// once front to back, adding `dequant(r, c) * q[c]` into score slot
    /// `r`. Every slot still receives its terms in ascending-`c` order
    /// starting from `0.0` and is scaled only after its dot completes —
    /// exactly the fold of the naive loop over a materialized row — so
    /// the scores are bit-identical to
    /// `dot(self.dequantize().row(r), q) * scale` while each packed word
    /// streams sequentially instead of being re-indexed per row.
    ///
    /// # Panics
    ///
    /// Panics if the layout is not `PerChannel`, `q.len() != cols` or
    /// `scores.len() != rows`.
    pub fn fused_dots_into(&self, q: &[f32], scale: f32, scores: &mut [f32]) {
        assert_eq!(self.layout, GroupLayout::PerChannel, "fused_dots_into streams per-channel codes");
        assert_eq!(q.len(), self.cols, "fused_dots_into width mismatch");
        assert_eq!(scores.len(), self.rows, "fused_dots_into score count mismatch");
        match self.bits {
            SupportedBits::B1 => self.fused_dots_pc::<8>(&CODE_VALUES_B1, q, scores),
            SupportedBits::B2 => self.fused_dots_pc::<4>(&CODE_VALUES_B2, q, scores),
            SupportedBits::B4 => self.fused_dots_pc::<2>(&CODE_VALUES_B4, q, scores),
            SupportedBits::B8 => self.fused_dots_pc::<1>(&CODE_VALUES_B8, q, scores),
        }
        for s in scores {
            *s *= scale;
        }
    }

    /// Fused weighted-sum kernel of a `PerToken` matrix:
    /// `out[c] += w[r] * dequant(r, c)` for every row, ascending `r`,
    /// decoding codes in-register. Each output element accumulates
    /// exactly the terms, in exactly the order, of the naive weighted sum
    /// over the rows of `self.dequantize()`.
    ///
    /// # Panics
    ///
    /// Panics if the layout is not `PerToken`, `w.len() != rows` or
    /// `out.len() != cols`.
    pub fn fused_axpy_rows(&self, w: &[f32], out: &mut [f32]) {
        assert_eq!(self.layout, GroupLayout::PerToken, "fused_axpy_rows streams per-token codes");
        assert_eq!(w.len(), self.rows, "fused_axpy_rows weight count mismatch");
        assert_eq!(out.len(), self.cols, "fused_axpy_rows width mismatch");
        match self.bits {
            SupportedBits::B1 => self.fused_axpy_pt::<8>(&CODE_VALUES_B1, w, out),
            SupportedBits::B2 => self.fused_axpy_pt::<4>(&CODE_VALUES_B2, w, out),
            SupportedBits::B4 => self.fused_axpy_pt::<2>(&CODE_VALUES_B4, w, out),
            SupportedBits::B8 => self.fused_axpy_pt::<1>(&CODE_VALUES_B8, w, out),
        }
    }

    /// Adds the whole dequantized matrix into the leading rows of
    /// `scratch`: `scratch[r][c] = dequant(r, c) + scratch[r][c]`, the
    /// dequantized value as the left operand — exactly the element order
    /// of `dequantize().add(correction)`, which is what GEAR's
    /// reconstruction rebuilds. The decode is set up once for the whole
    /// matrix instead of once per row, which matters when rows are
    /// short: GEAR reconstructs `buffer`-row chunks of `head_dim` values.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` has fewer rows than `self` or a different
    /// column count.
    pub fn add_dequant_rows(&self, scratch: &mut Matrix) {
        self.decode_rows::<true>(scratch);
    }

    /// Writes the dequantized matrix into the leading rows of `tile` —
    /// element for element what [`QuantizedMatrix::dequantize`] returns,
    /// into caller-owned storage. The query-blocked attention path
    /// decodes each flushed chunk through this once per block of queries,
    /// and a flush decodes through it to measure its error.
    ///
    /// # Panics
    ///
    /// Panics if `tile` has fewer rows than `self` or a different column
    /// count.
    pub fn dequantize_rows_into(&self, tile: &mut Matrix) {
        self.decode_rows::<false>(tile);
    }

    /// Monomorphizes the whole-matrix decode on the bit width (one width
    /// for every group) so it runs without per-group dispatch.
    fn decode_rows<const ADD: bool>(&self, tile: &mut Matrix) {
        assert!(self.rows <= tile.rows(), "decode_rows row overflow");
        assert_eq!(tile.cols(), self.cols, "decode_rows width mismatch");
        match self.bits {
            SupportedBits::B1 => self.decode_rows_with::<8, ADD>(&CODE_VALUES_B1, tile),
            SupportedBits::B2 => self.decode_rows_with::<4, ADD>(&CODE_VALUES_B2, tile),
            SupportedBits::B4 => self.decode_rows_with::<2, ADD>(&CODE_VALUES_B4, tile),
            SupportedBits::B8 => self.decode_rows_with::<1, ADD>(&CODE_VALUES_B8, tile),
        }
    }

    /// Decodes every element as `code_value * scale + zero` through the
    /// code-values table and either stores it (`ADD = false`) or adds the
    /// slot's previous content to it (`ADD = true`, decoded value as the
    /// left operand). The table's trailing entries for a partial last
    /// byte fall off the end of the row (`PerToken`) or the group
    /// (`PerChannel`).
    fn decode_rows_with<const PER: usize, const ADD: bool>(
        &self,
        table: &[[f32; PER]; 256],
        tile: &mut Matrix,
    ) {
        match self.layout {
            GroupLayout::PerToken => {
                for (r, (packed, (scale, zero))) in self.groups().enumerate() {
                    // Whole bytes first (fixed-width, unrolled), then the
                    // partial last byte.
                    let mut chunks = tile.row_mut(r).chunks_exact_mut(PER);
                    for (o_chunk, &byte) in chunks.by_ref().zip(packed) {
                        for (o, &cf) in o_chunk.iter_mut().zip(&table[byte as usize]) {
                            put::<ADD>(o, cf * scale + zero);
                        }
                    }
                    let rem = chunks.into_remainder();
                    if !rem.is_empty() {
                        let byte = packed[packed.len() - 1];
                        for (o, &cf) in rem.iter_mut().zip(&table[byte as usize]) {
                            put::<ADD>(o, cf * scale + zero);
                        }
                    }
                }
            }
            GroupLayout::PerChannel => {
                let (rows, cols) = (self.rows, self.cols);
                let data = tile.as_mut_slice();
                for (c, (packed, (scale, zero))) in self.groups().enumerate() {
                    for (b, &byte) in packed.iter().enumerate() {
                        let r0 = b * PER;
                        let live = rows.saturating_sub(r0);
                        for (i, &cf) in table[byte as usize].iter().enumerate().take(live) {
                            put::<ADD>(&mut data[(r0 + i) * cols + c], cf * scale + zero);
                        }
                    }
                }
            }
        }
    }

    /// Body of [`QuantizedMatrix::fused_dots_into`],
    /// monomorphized per bit width with the matching code-values table.
    /// Column-major over `seg` (one score slot per row): each packed
    /// byte is decoded by one table load, and every slot still receives
    /// `(code_value * scale + zero) * qv` terms in ascending-column
    /// order.
    fn fused_dots_pc<const PER: usize>(
        &self,
        table: &[[f32; PER]; 256],
        q: &[f32],
        seg: &mut [f32],
    ) {
        for ((packed, (scale, zero)), &qv) in self.groups().zip(q) {
            let mut chunks = seg.chunks_exact_mut(PER);
            for (s_chunk, &byte) in chunks.by_ref().zip(packed) {
                let d = &table[byte as usize];
                for (s, &cf) in s_chunk.iter_mut().zip(d) {
                    *s += (cf * scale + zero) * qv;
                }
            }
            let rem = chunks.into_remainder();
            if !rem.is_empty() {
                let d = &table[packed[packed.len() - 1] as usize];
                for (s, &cf) in rem.iter_mut().zip(d) {
                    *s += (cf * scale + zero) * qv;
                }
            }
        }
    }

    /// Body of [`QuantizedMatrix::fused_axpy_rows`],
    /// monomorphized per bit width with the matching code-values table.
    /// Rows ascend, channels within a row ascend — the exact term order
    /// of the naive row-by-row weighted sum.
    fn fused_axpy_pt<const PER: usize>(
        &self,
        table: &[[f32; PER]; 256],
        w: &[f32],
        out: &mut [f32],
    ) {
        for ((packed, (scale, zero)), &wr) in self.groups().zip(w) {
            let mut chunks = out.chunks_exact_mut(PER);
            for (o_chunk, &byte) in chunks.by_ref().zip(packed) {
                let d = &table[byte as usize];
                for (o, &cf) in o_chunk.iter_mut().zip(d) {
                    *o += wr * (cf * scale + zero);
                }
            }
            let rem = chunks.into_remainder();
            if !rem.is_empty() {
                let d = &table[packed[packed.len() - 1] as usize];
                for (o, &cf) in rem.iter_mut().zip(d) {
                    *o += wr * (cf * scale + zero);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_tensor::{seeded_rng, SeededRng};

    const ALL_BITS: [SupportedBits; 4] =
        [SupportedBits::B1, SupportedBits::B2, SupportedBits::B4, SupportedBits::B8];

    /// The per-group quantizer as it was written before the flat layout:
    /// `f32::min` / `f32::max` folds and the libm `round`. Returns the
    /// packed bytes and `(scale, zero)`.
    fn quantize_group_by_round(values: &[f32], bits: SupportedBits) -> (Vec<u8>, f32, f32) {
        let lo = values.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let (lo, hi) = if values.is_empty() { (0.0, 0.0) } else { (lo, hi) };
        let max_code = bits.max_code() as f32;
        let scale = round_to_f16(if hi > lo { (hi - lo) / max_code } else { 0.0 });
        let zero = round_to_f16(lo);
        let (per, nbits) = (bits.values_per_byte(), bits.bits() as usize);
        let mut packed = vec![0u8; values.len().div_ceil(per)];
        for (i, &v) in values.iter().enumerate() {
            let code = if scale > 0.0 {
                (((v - zero) / scale).round()).clamp(0.0, max_code) as u32
            } else {
                0
            };
            packed[i / per] |= (code as u8) << ((i % per) * nbits);
        }
        (packed, scale, zero)
    }

    /// A value for the oracles: mostly uniform, with signed zeros,
    /// repeats, a narrow band (subnormal FP16 scales), infinities and NaN
    /// among them.
    fn hostile_value(rng: &mut SeededRng, repeat: f32) -> f32 {
        match rng.gen_range(0u32..40) {
            0..=3 => 0.0,
            4..=7 => -0.0,
            8..=11 => repeat,
            12 => f32::INFINITY,
            13 => f32::NEG_INFINITY,
            14 => f32::NAN,
            15..=19 => 1.0 + rng.gen_range(0.0f32..1e-6),
            _ => rng.gen_range(-2.0f32..2.0),
        }
    }

    rkvc_tensor::det_cases! {
        /// Each group of the flat matrix — its bytes at the group's
        /// offset and its `(scale, zero)` bits — is what `quantize_group`
        /// packs, and what the per-group quantizer with `f32::min`/`max`
        /// folds and libm `round` packs, for both layouts, every bit
        /// width and hostile values. The decode oracle reads the same
        /// elements.
        fn flat_groups_are_the_per_group_quantizer(rng, cases = 256) {
            let rows = rng.gen_range(0usize..20);
            let cols = rng.gen_range(1usize..70);
            let bits = ALL_BITS[rng.gen_range(0usize..4)];
            let layout = [GroupLayout::PerChannel, GroupLayout::PerToken][rng.gen_range(0usize..2)];
            let repeat = rng.gen_range(-1.0f32..1.0);
            let finite = rng.gen_bool(0.5);
            let data: Vec<f32> = (0..rows * cols)
                .map(|_| {
                    let v = hostile_value(rng, repeat);
                    if finite && !v.is_finite() { repeat } else { v }
                })
                .collect();
            let m = Matrix::from_vec(rows, cols, data);
            let qm = QuantizedMatrix::quantize(&m, layout, bits);
            let groups: Vec<Vec<f32>> = match layout {
                GroupLayout::PerChannel => (0..cols).map(|c| m.col(c)).collect(),
                GroupLayout::PerToken => (0..rows).map(|r| m.row(r).to_vec()).collect(),
            };
            assert_eq!(qm.consts.len(), groups.len());
            let group_bytes = qm.group_len().div_ceil(bits.values_per_byte());
            assert_eq!(qm.codes.len(), groups.len() * group_bytes);
            let dense = qm.dequantize();
            for (g, values) in groups.iter().enumerate() {
                let (packed, scale, zero) = quantize_group_by_round(values, bits);
                let one = quantize_group(values, bits);
                let (s, z) = qm.consts[g];
                assert_eq!(&qm.codes[g * group_bytes..][..group_bytes], one.packed(), "group {g}");
                assert_eq!((s.to_bits(), z.to_bits()), (one.scale().to_bits(), one.zero().to_bits()));
                // The libm quantizer packs the same codes with the same
                // constants, up to the sign of a zero `zero`, which
                // nothing reads (see `value_range`).
                assert_eq!(one.packed(), &packed[..], "group {g}");
                assert_eq!(s.to_bits(), scale.to_bits(), "group {g}");
                assert!(z.to_bits() == zero.to_bits() || (z == 0.0 && zero == 0.0), "group {g}");
                for (i, want) in dequantize_group(&one).into_iter().enumerate() {
                    let got = match layout {
                        GroupLayout::PerChannel => dense.get(i, g),
                        GroupLayout::PerToken => dense.get(g, i),
                    };
                    assert!(got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()));
                }
            }
            let per_group: Vec<_> = groups.iter().map(|v| quantize_group(v, bits)).collect();
            let sum = |f: fn(&QuantizedGroup) -> usize| per_group.iter().map(f).sum::<usize>();
            assert_eq!(qm.memory_bytes(), sum(QuantizedGroup::memory_bytes));
            assert_eq!(qm.resident_bytes(), sum(QuantizedGroup::resident_bytes));
        }

        /// The lane folds find the `f32::min` / `f32::max` folds' extremes
        /// on slices dense in signed zeros, bit for bit but for the sign
        /// of a zero extreme.
        fn lane_range_is_the_fold_range(rng, cases = 512) {
            let len = rng.gen_range(1usize..40);
            let repeat = rng.gen_range(-1.0f32..1.0);
            let values: Vec<f32> = (0..len)
                .map(|_| match rng.gen_range(0u32..4) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => rng.gen_range(0.0f32..1.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
                    _ => hostile_value(rng, repeat),
                })
                .collect();
            let lo = values.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let (min, max) = value_range(&values);
            let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0);
            assert!(same(min, lo) && same(max, hi), "{values:?}");
        }

        /// The shift-and-fix rounding is `round().clamp(0, max)` on ties
        /// at `.5`, values past `max_code`, negatives, `−0.0`, NaN, `±inf`
        /// and quotients by a subnormal scale.
        fn shifted_rounding_is_round_then_clamp(rng, cases = 64) {
            for bits in ALL_BITS {
                let max = bits.max_code() as f32;
                let whole = rng.gen_range(0u32..300) as f32;
                let subnormal_scale = f32::from_bits(rng.gen_range(1u32..0x0080_0000));
                let specials = [
                    whole + 0.5,
                    whole - 0.5,
                    whole + 0.49999997,
                    whole,
                    max + 0.5,
                    max + rng.gen_range(0.0f32..1e6),
                    -rng.gen_range(0.0f32..300.0),
                    -0.5,
                    -0.0,
                    0.0,
                    f32::NAN,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                    rng.gen_range(-1.0f32..1.0) / subnormal_scale,
                    f32::from_bits(rng.gen_range(1u32..0x0080_0000)) / subnormal_scale,
                    rng.gen_range(-2.0f32..300.0),
                ];
                for t in specials {
                    let want = t.round().clamp(0.0, max) as u32;
                    assert_eq!(round_code(t, max), want, "t = {t:e}, max = {max}");
                }
            }
        }
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let values: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        for bits in [SupportedBits::B2, SupportedBits::B4, SupportedBits::B8] {
            let g = quantize_group(&values, bits);
            let lo = values.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let step = (hi - lo) / bits.max_code() as f32;
            let err = measure_error(&values, &g);
            // Half a step plus FP16 slack on the constants.
            let bound = step * 0.5 + (hi.abs() + lo.abs()) * 2.0 * 2.0f32.powi(-11) + step * 0.05;
            assert!(err.max_abs <= bound, "bits={bits:?} err={err:?} bound={bound}");
        }
    }

    #[test]
    fn constant_group_reconstructs_exactly() {
        let values = vec![2.5f32; 17];
        let g = quantize_group(&values, SupportedBits::B2);
        let back = dequantize_group(&g);
        for v in back {
            assert_eq!(v, round_to_f16(2.5));
        }
    }

    #[test]
    fn empty_group_is_empty() {
        let g = quantize_group(&[], SupportedBits::B4);
        assert!(g.is_empty());
        assert!(dequantize_group(&g).is_empty());
    }

    #[test]
    fn one_bit_maps_to_extremes() {
        let values = [-1.0, -0.9, 0.9, 1.0];
        let g = quantize_group(&values, SupportedBits::B1);
        let back = dequantize_group(&g);
        assert!((back[0] - -1.0).abs() < 1e-2);
        assert!((back[3] - 1.0).abs() < 1e-2);
        // Codes are 0 or 1 only.
        for i in 0..4 {
            assert!(g.code(i) <= 1);
        }
    }

    #[test]
    fn packing_density_is_exact() {
        let values = vec![0.5f32; 16];
        assert_eq!(quantize_group(&values, SupportedBits::B1).memory_bytes(), 2 + 4);
        assert_eq!(quantize_group(&values, SupportedBits::B2).memory_bytes(), 4 + 4);
        assert_eq!(quantize_group(&values, SupportedBits::B4).memory_bytes(), 8 + 4);
        assert_eq!(quantize_group(&values, SupportedBits::B8).memory_bytes(), 16 + 4);
    }

    #[test]
    fn packing_handles_non_multiple_lengths() {
        let values: Vec<f32> = (0..13).map(|i| i as f32).collect();
        let g = quantize_group(&values, SupportedBits::B4);
        assert_eq!(g.len(), 13);
        assert_eq!(g.memory_bytes(), 7 + 4); // ceil(13/2) bytes
        let back = dequantize_group(&g);
        assert_eq!(back.len(), 13);
    }

    #[test]
    fn higher_bits_reduce_error() {
        let mut rng = seeded_rng(99);
        let values: Vec<f32> = (0..256).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let e2 = measure_error(&values, &quantize_group(&values, SupportedBits::B2));
        let e4 = measure_error(&values, &quantize_group(&values, SupportedBits::B4));
        let e8 = measure_error(&values, &quantize_group(&values, SupportedBits::B8));
        assert!(e4.mean_abs < e2.mean_abs);
        assert!(e8.mean_abs < e4.mean_abs);
    }

    #[test]
    fn per_channel_vs_per_token_layouts() {
        // Keys with strong per-channel structure: per-channel grouping wins.
        let mut m = Matrix::zeros(32, 4);
        for r in 0..32 {
            for c in 0..4 {
                // Channel c sits at a distinct offset (outlier channels, the
                // structure real keys exhibit); per-token groups must span
                // all offsets, per-channel groups only the small wiggle.
                m.set(r, c, 10.0 * c as f32 + 0.1 * (r as f32 * 0.2 + c as f32 * 1.7).sin());
            }
        }
        let pc = QuantizedMatrix::quantize(&m, GroupLayout::PerChannel, SupportedBits::B4);
        let pt = QuantizedMatrix::quantize(&m, GroupLayout::PerToken, SupportedBits::B4);
        let err_pc = pc.dequantize().sub(&m).frobenius_norm();
        let err_pt = pt.dequantize().sub(&m).frobenius_norm();
        assert!(
            err_pc < err_pt,
            "per-channel should beat per-token on channel-structured keys: {err_pc} vs {err_pt}"
        );
    }

    #[test]
    fn quantized_matrix_shape_preserved() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let q = QuantizedMatrix::quantize(&m, GroupLayout::PerToken, SupportedBits::B8);
        let d = q.dequantize();
        assert_eq!(d.shape(), (2, 3));
        assert!(d.sub(&m).max_abs() < 0.05);
    }

    #[test]
    fn unsupported_bits_rejected() {
        assert_eq!(SupportedBits::from_bits(3), Err(CacheError::UnsupportedBits(3)));
        assert_eq!(SupportedBits::from_bits(16), Err(CacheError::UnsupportedBits(16)));
        assert!(SupportedBits::from_bits(4).is_ok());
    }
}
