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
    let lo = values.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let (lo, hi) = if values.is_empty() { (0.0, 0.0) } else { (lo, hi) };

    let max_code = bits.max_code() as f32;
    let scale = if hi > lo { (hi - lo) / max_code } else { 0.0 };
    // Store constants at FP16 like a production kernel would.
    let scale = round_to_f16(scale);
    let zero = round_to_f16(lo);

    let per = bits.values_per_byte();
    let nbits = bits.bits() as usize;
    let mut packed = vec![0u8; values.len().div_ceil(per)];
    for (i, &v) in values.iter().enumerate() {
        let code = if scale > 0.0 {
            (((v - zero) / scale).round()).clamp(0.0, max_code) as u32
        } else {
            0
        };
        packed[i / per] |= (code as u8) << ((i % per) * nbits);
    }

    QuantizedGroup {
        packed,
        scale,
        zero,
        len: values.len(),
        bits,
    }
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
/// Rows are tokens, columns are head channels.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    groups: Vec<QuantizedGroup>,
    layout: GroupLayout,
    rows: usize,
    cols: usize,
}

impl QuantizedMatrix {
    /// Quantizes `m` with the given layout and bit width.
    ///
    /// `PerChannel` produces one group per column (constants shared along the
    /// token axis); `PerToken` produces one group per row.
    pub fn quantize(m: &Matrix, layout: GroupLayout, bits: SupportedBits) -> Self {
        let mut groups = Vec::new();
        match layout {
            GroupLayout::PerChannel => {
                for c in 0..m.cols() {
                    groups.push(quantize_group(&m.col(c), bits));
                }
            }
            GroupLayout::PerToken => {
                for r in 0..m.rows() {
                    groups.push(quantize_group(m.row(r), bits));
                }
            }
        }
        QuantizedMatrix {
            groups,
            layout,
            rows: m.rows(),
            cols: m.cols(),
        }
    }

    /// Reconstructs the dense matrix.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        match self.layout {
            GroupLayout::PerChannel => {
                for (c, g) in self.groups.iter().enumerate() {
                    for (r, v) in dequantize_group(g).into_iter().enumerate() {
                        out.set(r, c, v);
                    }
                }
            }
            GroupLayout::PerToken => {
                for (r, g) in self.groups.iter().enumerate() {
                    out.row_mut(r).copy_from_slice(&dequantize_group(g));
                }
            }
        }
        out
    }

    /// Bytes used by packed codes and constants.
    pub fn memory_bytes(&self) -> usize {
        self.groups.iter().map(QuantizedGroup::memory_bytes).sum()
    }

    /// Bytes actually held by the simulator process for this matrix:
    /// packed codes at their true size plus two f32 constants per group.
    pub fn resident_bytes(&self) -> usize {
        self.groups.iter().map(QuantizedGroup::resident_bytes).sum()
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
        if let Some(g0) = self.groups.first() {
            match g0.bits {
                SupportedBits::B1 => {
                    Self::fused_dots_pc::<8>(&self.groups, &CODE_VALUES_B1, q, scores)
                }
                SupportedBits::B2 => {
                    Self::fused_dots_pc::<4>(&self.groups, &CODE_VALUES_B2, q, scores)
                }
                SupportedBits::B4 => {
                    Self::fused_dots_pc::<2>(&self.groups, &CODE_VALUES_B4, q, scores)
                }
                SupportedBits::B8 => {
                    Self::fused_dots_pc::<1>(&self.groups, &CODE_VALUES_B8, q, scores)
                }
            }
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
        if let Some(g0) = self.groups.first() {
            match g0.bits {
                SupportedBits::B1 => {
                    Self::fused_axpy_pt::<8>(&self.groups, &CODE_VALUES_B1, w, out)
                }
                SupportedBits::B2 => {
                    Self::fused_axpy_pt::<4>(&self.groups, &CODE_VALUES_B2, w, out)
                }
                SupportedBits::B4 => {
                    Self::fused_axpy_pt::<2>(&self.groups, &CODE_VALUES_B4, w, out)
                }
                SupportedBits::B8 => {
                    Self::fused_axpy_pt::<1>(&self.groups, &CODE_VALUES_B8, w, out)
                }
            }
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
    /// decodes each flushed chunk through this once per block of queries.
    ///
    /// # Panics
    ///
    /// Panics if `tile` has fewer rows than `self` or a different column
    /// count.
    pub fn dequantize_rows_into(&self, tile: &mut Matrix) {
        self.decode_rows::<false>(tile);
    }

    /// Monomorphizes the whole-matrix decode on the bit width (uniform
    /// across groups by construction — `quantize` packs every group at
    /// one width) so it runs without per-group dispatch.
    fn decode_rows<const ADD: bool>(&self, tile: &mut Matrix) {
        assert!(self.rows <= tile.rows(), "decode_rows row overflow");
        assert_eq!(tile.cols(), self.cols, "decode_rows width mismatch");
        let Some(g0) = self.groups.first() else { return };
        match g0.bits {
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
                for (r, g) in self.groups.iter().enumerate() {
                    debug_assert_eq!(g.bits.values_per_byte(), PER, "mixed bit widths");
                    let (scale, zero) = (g.scale, g.zero);
                    // Whole bytes first (fixed-width, unrolled), then the
                    // partial last byte.
                    let mut chunks = tile.row_mut(r).chunks_exact_mut(PER);
                    for (o_chunk, &byte) in chunks.by_ref().zip(&g.packed) {
                        for (o, &cf) in o_chunk.iter_mut().zip(&table[byte as usize]) {
                            put::<ADD>(o, cf * scale + zero);
                        }
                    }
                    let rem = chunks.into_remainder();
                    if !rem.is_empty() {
                        let byte = g.packed[g.packed.len() - 1];
                        for (o, &cf) in rem.iter_mut().zip(&table[byte as usize]) {
                            put::<ADD>(o, cf * scale + zero);
                        }
                    }
                }
            }
            GroupLayout::PerChannel => {
                let cols = self.cols;
                let data = tile.as_mut_slice();
                for (c, g) in self.groups.iter().enumerate() {
                    debug_assert_eq!(g.bits.values_per_byte(), PER, "mixed bit widths");
                    let (scale, zero) = (g.scale, g.zero);
                    for (b, &byte) in g.packed.iter().enumerate() {
                        let r0 = b * PER;
                        let live = g.len.saturating_sub(r0);
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
        groups: &[QuantizedGroup],
        table: &[[f32; PER]; 256],
        q: &[f32],
        seg: &mut [f32],
    ) {
        for (g, &qv) in groups.iter().zip(q) {
            debug_assert_eq!(g.bits.values_per_byte(), PER, "mixed bit widths");
            let (scale, zero) = (g.scale, g.zero);
            let mut chunks = seg.chunks_exact_mut(PER);
            for (s_chunk, &byte) in chunks.by_ref().zip(&g.packed) {
                let d = &table[byte as usize];
                for (s, &cf) in s_chunk.iter_mut().zip(d) {
                    *s += (cf * scale + zero) * qv;
                }
            }
            let rem = chunks.into_remainder();
            if !rem.is_empty() {
                let d = &table[g.packed[g.packed.len() - 1] as usize];
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
        groups: &[QuantizedGroup],
        table: &[[f32; PER]; 256],
        w: &[f32],
        out: &mut [f32],
    ) {
        for (g, &wr) in groups.iter().zip(w) {
            debug_assert_eq!(g.bits.values_per_byte(), PER, "mixed bit widths");
            let (scale, zero) = (g.scale, g.zero);
            let mut chunks = out.chunks_exact_mut(PER);
            for (o_chunk, &byte) in chunks.by_ref().zip(&g.packed) {
                let d = &table[byte as usize];
                for (o, &cf) in o_chunk.iter_mut().zip(d) {
                    *o += wr * (cf * scale + zero);
                }
            }
            let rem = chunks.into_remainder();
            if !rem.is_empty() {
                let d = &table[g.packed[g.packed.len() - 1] as usize];
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
    use rkvc_tensor::seeded_rng;

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
