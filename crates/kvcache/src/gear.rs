//! GEAR: quantization with sparse-outlier and low-rank error correction
//! (Kang et al., 2024).
//!
//! GEAR quantizes the KV cache uniformly but *repairs* the quantization
//! error with two side structures: the top-`s`% largest-magnitude error
//! entries are stored exactly (the outliers), and the remaining error matrix
//! is approximated with a rank-`r` factorization. Reconstruction is
//! `dequant(Q) + U·V + sparse` — near-lossless at the cost of extra compute,
//! which is precisely the overhead the paper measures in Figure 3.

use rkvc_tensor::{low_rank_approximate, round_to_f16, softmax_into, Matrix};

use crate::cache::{axpy_rows, dots_into, extend_attend_blocked, push_f16_row, BlockRows};
use crate::quantizer::{GroupLayout, QuantizedMatrix, SupportedBits};
use crate::{AttendBatch, AttendScratch, CacheError, CacheStats, KvCache, KvView};

/// Hyper-parameters for [`GearCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GearParams {
    /// Quantization bit width (paper evaluates 4 and 2).
    pub bits: u8,
    /// Sparse outlier ratio `s` — fraction of error entries kept exact
    /// (paper default 2%).
    pub outlier_ratio: f32,
    /// Low-rank ratio `r` — rank as a fraction of `min(chunk, head_dim)`
    /// (paper default 2%, floored at rank 1).
    pub rank_ratio: f32,
    /// Recent tokens buffered in full precision before a chunk is
    /// quantized.
    pub buffer: usize,
}

impl Default for GearParams {
    fn default() -> Self {
        GearParams {
            bits: 4,
            outlier_ratio: 0.02,
            rank_ratio: 0.02,
            buffer: 16,
        }
    }
}

/// Exact-valued outlier entry of an error matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outlier {
    row: usize,
    col: usize,
    value: f32,
}

/// Flat indices of the `n` largest-magnitude entries of `error`, equal
/// magnitudes going to the lower index, in no particular order.
///
/// The order (`|error|` descending, then index ascending) is total, so
/// the set is unique: it is the first `n` of a stable descending sort by
/// magnitude, found by selection instead of by sorting all
/// `2 * buffer * head_dim` entries. Per-token quantization errors tie
/// often; the index tie-break is what keeps the pick reproducible.
fn largest_magnitude_cells(error: &[f32], n: usize) -> Vec<usize> {
    let mut cells: Vec<(usize, f32)> =
        error.iter().enumerate().map(|(i, &v)| (i, v.abs())).collect();
    if n < cells.len() {
        cells.select_nth_unstable_by(n, |a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        cells.truncate(n);
    }
    cells.into_iter().map(|(i, _)| i).collect()
}

/// One quantized-and-corrected tensor (K or V of a chunk).
#[derive(Debug, Clone)]
struct CorrectedTensor {
    quant: QuantizedMatrix,
    low_rank_u: Matrix,
    low_rank_v: Matrix,
    outliers: Vec<Outlier>,
}

impl CorrectedTensor {
    fn build(x: &Matrix, bits: SupportedBits, params: &GearParams) -> (Self, f32) {
        let quant = QuantizedMatrix::quantize(x, GroupLayout::PerToken, bits);
        let mut error = x.sub(&quant.dequantize());

        // Extract the top-s% |error| entries as exact outliers.
        let n_outliers = ((error.len() as f32 * params.outlier_ratio).round() as usize).max(1);
        let cols = error.cols();
        let picked = largest_magnitude_cells(error.as_slice(), n_outliers);
        let mut outliers = Vec::with_capacity(picked.len());
        for flat in picked {
            let row = flat / cols;
            let col = flat % cols;
            outliers.push(Outlier {
                row,
                col,
                value: round_to_f16(error.get(row, col)),
            });
            error.set(row, col, 0.0);
        }
        // Sort by (row, col) so the fused attention kernels can walk a
        // row's outliers with a cursor. Cells are unique (each picked
        // flat index is zeroed before the next pick), so reordering the
        // list cannot change any reconstruction.
        outliers.sort_by_key(|o| (o.row, o.col));

        // Low-rank approximation of the remaining error.
        let max_rank = error.rows().min(error.cols());
        let rank = ((max_rank as f32 * params.rank_ratio).round() as usize)
            .max(1)
            .min(max_rank);
        // rkvc-allow(E001): rank is clamped to [1, min(rows, cols)] above, so this cannot fail
        let factors = low_rank_approximate(&error, rank, 6).expect("rank validated");

        let residual_err = factors.reconstruct().sub(&error).frobenius_norm()
            / (error.len().max(1) as f32).sqrt();

        (
            CorrectedTensor {
                quant,
                low_rank_u: factors.u,
                low_rank_v: factors.v,
                outliers,
            },
            residual_err,
        )
    }

    fn reconstruct(&self) -> Matrix {
        let mut out = self
            .quant
            .dequantize()
            .add(&self.low_rank_u.matmul(&self.low_rank_v));
        for o in &self.outliers {
            let v = out.get(o.row, o.col) + o.value;
            out.set(o.row, o.col, v);
        }
        out
    }

    /// Reconstructs every row of this chunk into `scratch`, row `r` of
    /// the chunk landing in row `r` of the scratch tile, and returns the
    /// reconstructed rows as one dense run for the shared dot/axpy
    /// kernels. The tile is chunk-sized — `buffer × head_dim`, a fixed
    /// L1-resident block independent of context length — so decoding
    /// stays bounded while the kernels that follow read distinct rows.
    ///
    /// Three tile-wide passes, each preserving the term order of
    /// [`CorrectedTensor::reconstruct`] exactly: the low-rank product
    /// accumulates ascending-`k` over rows of `V` with the
    /// [`Matrix::matmul`] zero-skip on the `U` operand (replicating the
    /// skip is required for bit identity — adding a `0.0 * v` term can
    /// flip signed zeros); then every element becomes `dequant + uv`
    /// with the dequantized code as the left operand, as in
    /// `dequantize().add(..)`; then the outliers (sorted by
    /// `(row, col)`) add in, in list order. The tile equals
    /// `reconstruct()` bit for bit.
    fn fused_tile_into<'t>(&self, scratch: &'t mut Matrix) -> &'t [f32] {
        let rows = self.low_rank_u.rows();
        // k-outer keeps each element's terms ascending-k while binding
        // the V row once per rank component instead of once per row.
        // The k = 0 pass initializes each row in a single sweep: a row
        // whose leading U entry is nonzero is written as `0.0 + u·v` —
        // the accumulator fold [`Matrix::matmul`] performs on its first
        // unskipped term, signed zeros included — and a skipped row is
        // zero-filled, exactly the all-terms-skipped oracle value.
        for r in 0..rows {
            let uk = if self.low_rank_v.rows() > 0 { self.low_rank_u.row(r)[0] } else { 0.0 };
            if uk == 0.0 {
                scratch.row_mut(r).fill(0.0);
            } else {
                let vrow = self.low_rank_v.row(0);
                for (o, &v) in scratch.row_mut(r).iter_mut().zip(vrow) {
                    *o = 0.0 + uk * v;
                }
            }
        }
        for k in 1..self.low_rank_v.rows() {
            let vrow = self.low_rank_v.row(k);
            for r in 0..rows {
                let uk = self.low_rank_u.row(r)[k];
                if uk == 0.0 {
                    continue;
                }
                for (o, &v) in scratch.row_mut(r).iter_mut().zip(vrow) {
                    *o += uk * v;
                }
            }
        }
        self.quant.add_dequant_rows(scratch);
        for o in &self.outliers {
            let v = scratch.get(o.row, o.col) + o.value;
            scratch.set(o.row, o.col, v);
        }
        &scratch.as_slice()[..rows * scratch.cols()]
    }

    fn memory_bytes(&self) -> usize {
        // Quantized codes + FP16 low-rank factors + outliers (FP16 value +
        // u32 flat index).
        self.quant.memory_bytes()
            + (self.low_rank_u.len() + self.low_rank_v.len()) * 2
            + self.outliers.len() * 6
    }

    /// Bytes the simulator process actually holds: packed codes with f32
    /// constants, f32 low-rank factors, and the in-memory outlier
    /// structs.
    fn resident_bytes(&self) -> usize {
        self.quant.resident_bytes()
            + (self.low_rank_u.len() + self.low_rank_v.len()) * std::mem::size_of::<f32>()
            + self.outliers.len() * std::mem::size_of::<Outlier>()
    }
}

/// One chunk of tokens in corrected-quantized storage.
///
/// Chunks are immutable once flushed and hold *only* the compressed
/// representation (`Q`, the low-rank factors, and the sparse outliers):
/// the fused [`KvCache::attend`] override reconstructs
/// `dequant(Q) + U·V + sparse` element-by-element in-register as the
/// attention loops consume it. (An earlier revision memoized the full
/// reconstruction per chunk at flush time — a host-side decode cache
/// that doubled resident memory and defeated the compression being
/// simulated; the fused path made it unnecessary.)
#[derive(Debug, Clone)]
struct GearChunk {
    keys: CorrectedTensor,
    values: CorrectedTensor,
    positions: Vec<usize>,
}

/// The GEAR error-corrected quantizing cache.
///
/// # Examples
///
/// ```
/// use rkvc_kvcache::{GearCache, GearParams, KvCache};
///
/// let mut cache = GearCache::new(8, GearParams { buffer: 4, ..Default::default() })?;
/// for pos in 0..16 {
///     cache.append(&[0.1 * pos as f32; 8], &[1.0; 8], pos);
/// }
/// assert_eq!(cache.len(), 16);
/// # Ok::<(), rkvc_kvcache::CacheError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GearCache {
    head_dim: usize,
    params: GearParams,
    bits: SupportedBits,
    chunks: Vec<GearChunk>,
    buf_keys: Matrix,
    buf_values: Matrix,
    buf_positions: Vec<usize>,
    // Reconstruction tile (`buffer x head_dim`, allocated at the first
    // flush): attention rebuilds one chunk at a time here. Working
    // memory, not retained state.
    tile: Matrix,
    seen: usize,
    err_sum: f64,
    err_count: u64,
}

impl GearCache {
    /// Creates a GEAR cache for `head_dim`-dimensional heads.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] for unsupported bit widths, a zero buffer, or
    /// ratios outside `[0, 1]`.
    pub fn new(head_dim: usize, params: GearParams) -> Result<Self, CacheError> {
        let bits = SupportedBits::from_bits(params.bits)?;
        if params.buffer == 0 {
            return Err(CacheError::InvalidParameter("buffer must be >= 1"));
        }
        if !(0.0..=1.0).contains(&params.outlier_ratio) {
            return Err(CacheError::InvalidParameter("outlier_ratio must be in [0, 1]"));
        }
        if !(0.0..=1.0).contains(&params.rank_ratio) {
            return Err(CacheError::InvalidParameter("rank_ratio must be in [0, 1]"));
        }
        Ok(GearCache {
            head_dim,
            params,
            bits,
            chunks: Vec::new(),
            buf_keys: Matrix::zeros(0, head_dim),
            buf_values: Matrix::zeros(0, head_dim),
            buf_positions: Vec::new(),
            tile: Matrix::zeros(0, head_dim),
            seen: 0,
            err_sum: 0.0,
            err_count: 0,
        })
    }

    /// The configured hyper-parameters.
    pub fn params(&self) -> GearParams {
        self.params
    }

    /// Tokens in compressed chunks.
    pub fn compressed_len(&self) -> usize {
        self.chunks.iter().map(|c| c.positions.len()).sum()
    }

    /// Rebuilds the view by re-running every chunk's reconstruction with
    /// per-row `push_row` growth — the original decode path. Retained as
    /// the exact-equality oracle: the fused [`KvCache::attend`] kernels
    /// must be bitwise indistinguishable from running naive attention
    /// over this view.
    pub fn view_uncached(&self) -> KvView {
        let mut keys = Matrix::zeros(0, self.head_dim);
        let mut values = Matrix::zeros(0, self.head_dim);
        let mut positions = Vec::with_capacity(self.len());
        for chunk in &self.chunks {
            let dk = chunk.keys.reconstruct();
            let dv = chunk.values.reconstruct();
            for r in 0..dk.rows() {
                keys.push_row(dk.row(r));
                values.push_row(dv.row(r));
            }
            positions.extend_from_slice(&chunk.positions);
        }
        for r in 0..self.buf_keys.rows() {
            keys.push_row(self.buf_keys.row(r));
            values.push_row(self.buf_values.row(r));
        }
        positions.extend_from_slice(&self.buf_positions);
        KvView {
            keys,
            values,
            positions,
        }
    }

    fn maybe_flush(&mut self) {
        while self.buf_positions.len() >= 2 * self.params.buffer {
            let n = self.params.buffer;
            let key_chunk = self.buf_keys.drain_front_rows(n);
            let val_chunk = self.buf_values.drain_front_rows(n);
            let positions: Vec<usize> = self.buf_positions.drain(0..n).collect();

            let (ck, ek) = CorrectedTensor::build(&key_chunk, self.bits, &self.params);
            let (cv, ev) = CorrectedTensor::build(&val_chunk, self.bits, &self.params);
            self.err_sum += (ek + ev) as f64 * 0.5;
            self.err_count += 1;

            if self.chunks.is_empty() {
                self.tile = Matrix::zeros(n, self.head_dim);
            }
            self.chunks.push(GearChunk {
                keys: ck,
                values: cv,
                positions,
            });
        }
    }
}

impl BlockRows for GearCache {
    fn quiet_appends(&self) -> usize {
        // The buffer flushes on reaching `2 * buffer` rows.
        (2 * self.params.buffer - 1).saturating_sub(self.buf_positions.len())
    }

    fn key_runs(&mut self, f: &mut dyn FnMut(&[f32])) {
        for chunk in &self.chunks {
            f(chunk.keys.fused_tile_into(&mut self.tile));
        }
        f(self.buf_keys.as_slice());
    }

    fn value_runs(&mut self, f: &mut dyn FnMut(&[f32])) {
        for chunk in &self.chunks {
            f(chunk.values.fused_tile_into(&mut self.tile));
        }
        f(self.buf_values.as_slice());
    }
}

impl KvCache for GearCache {
    fn append(&mut self, key: &[f32], value: &[f32], pos: usize) {
        assert_eq!(key.len(), self.head_dim, "key dim mismatch");
        assert_eq!(value.len(), self.head_dim, "value dim mismatch");
        push_f16_row(&mut self.buf_keys, key);
        push_f16_row(&mut self.buf_values, value);
        self.buf_positions.push(pos);
        self.seen += 1;
        self.maybe_flush();
    }

    fn view(&self) -> KvView {
        // Off the decode hot path since the fused `attend` override:
        // only inspection, eviction baselines, and tests materialize a
        // full view now, so chunks reconstruct on demand into an
        // exact-size buffer. Bit-identical to `view_uncached` (same
        // per-element reconstruction, same row order).
        let hd = self.head_dim;
        let crows = self.compressed_len();
        let total = crows + self.buf_keys.rows();
        let mut positions = Vec::with_capacity(total);
        for chunk in &self.chunks {
            positions.extend_from_slice(&chunk.positions);
        }
        positions.extend_from_slice(&self.buf_positions);
        let mut keys = Matrix::zeros(total, hd);
        let mut values = Matrix::zeros(total, hd);
        let mut r0 = 0;
        for chunk in &self.chunks {
            let rk = chunk.keys.reconstruct();
            let rv = chunk.values.reconstruct();
            for r in 0..rk.rows() {
                keys.row_mut(r0 + r).copy_from_slice(rk.row(r));
                values.row_mut(r0 + r).copy_from_slice(rv.row(r));
            }
            r0 += rk.rows();
        }
        for r in 0..self.buf_keys.rows() {
            keys.row_mut(crows + r).copy_from_slice(self.buf_keys.row(r));
            values.row_mut(crows + r).copy_from_slice(self.buf_values.row(r));
        }
        KvView {
            keys,
            values,
            positions,
        }
    }

    fn attend(
        &mut self,
        query: &[f32],
        scale: f32,
        scores: &mut Vec<f32>,
        weights: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        assert_eq!(query.len(), self.head_dim, "query dim mismatch");
        assert_eq!(out.len(), self.head_dim, "output dim mismatch");
        // Fused score loop: each chunk is reconstructed (code decode +
        // low-rank term + outliers) into the chunk-sized tile —
        // `buffer × head_dim`, fixed and L1-resident — as the dots
        // consume it; nothing of token-dimension size is materialized.
        // Row order (flushed chunks in order, then the buffer) and each
        // dot's ascending-channel fold match the view path exactly.
        scores.clear();
        scores.resize(self.len(), 0.0);
        let mut r0 = 0;
        for chunk in &self.chunks {
            let n = chunk.positions.len();
            let rows = chunk.keys.fused_tile_into(&mut self.tile);
            dots_into(rows, query, scale, &mut scores[r0..r0 + n]);
            r0 += n;
        }
        dots_into(self.buf_keys.as_slice(), query, scale, &mut scores[r0..]);
        softmax_into(scores, weights);
        // Fused weighted sum: reconstruction feeds the output
        // accumulation directly, same term order as the view path.
        let mut r0 = 0;
        for chunk in &self.chunks {
            let n = chunk.positions.len();
            let rows = chunk.values.fused_tile_into(&mut self.tile);
            axpy_rows(rows, &weights[r0..r0 + n], out);
            r0 += n;
        }
        axpy_rows(self.buf_values.as_slice(), &weights[r0..], out);
        self.observe_attention(weights);
    }

    fn extend_attend(&mut self, batch: &AttendBatch<'_>, scratch: &mut AttendScratch, out: &mut [f32]) {
        extend_attend_blocked(self, batch, scratch, out);
    }

    fn len(&self) -> usize {
        self.compressed_len() + self.buf_positions.len()
    }

    fn seen(&self) -> usize {
        self.seen
    }

    fn memory_bytes(&self) -> usize {
        let chunks: usize = self
            .chunks
            .iter()
            .map(|c| c.keys.memory_bytes() + c.values.memory_bytes())
            .sum();
        chunks + 2 * self.buf_positions.len() * self.head_dim * 2
    }

    fn resident_bytes(&self) -> usize {
        // Exact in-process accounting: the compressed chunk structures
        // plus the f32-backed buffer window. The flush-time
        // reconstruction memos that used to add a full-precision copy of
        // every chunk are gone.
        let chunks: usize = self
            .chunks
            .iter()
            .map(|c| c.keys.resident_bytes() + c.values.resident_bytes())
            .sum();
        chunks + 2 * self.buf_positions.len() * self.head_dim * 4
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            tokens_seen: self.seen,
            tokens_retained: self.len(),
            tokens_evicted: 0,
            memory_bytes: self.memory_bytes(),
            resident_bytes: self.resident_bytes(),
            fp16_baseline_bytes: 2 * self.seen * self.head_dim * 2,
            mean_quant_error: if self.err_count == 0 {
                0.0
            } else {
                (self.err_sum / self.err_count as f64) as f32
            },
        }
    }
}

rkvc_tensor::json_struct!(GearParams {
    bits,
    outlier_ratio,
    rank_ratio,
    buffer,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KiviCache, KiviParams};
    use rkvc_tensor::{round_slice_to_f16, seeded_rng};

    fn fill(cache: &mut dyn KvCache, n: usize, dim: usize, seed: u64) {
        let mut rng = seeded_rng(seed);
        for pos in 0..n {
            let k: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            cache.append(&k, &v, pos);
        }
    }

    rkvc_tensor::det_cases! {
        /// The selection picks the set the stable descending sort by
        /// magnitude used to, on errors drawn from a few levels so that
        /// ties straddle the cut (per-token quantization at 4 bits leaves
        /// errors on a coarse grid, signed and often equal).
        fn outlier_pick_matches_the_stable_sort(rng, cases = 200) {
            let len = rng.gen_range(0usize..80);
            let levels = rng.gen_range(1usize..6);
            let error: Vec<f32> = (0..len)
                .map(|_| {
                    let magnitude = rng.gen_range(0usize..levels) as f32 * 0.125;
                    if rng.gen_bool(0.5) { -magnitude } else { magnitude }
                })
                .collect();
            let n = rng.gen_range(0usize..len + 3);

            let mut sorted: Vec<(usize, f32)> =
                error.iter().enumerate().map(|(i, &v)| (i, v.abs())).collect();
            sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            let mut want: Vec<usize> = sorted.iter().take(n).map(|&(i, _)| i).collect();
            want.sort_unstable();

            let mut got = largest_magnitude_cells(&error, n);
            got.sort_unstable();
            assert_eq!(got, want, "n = {n} of {error:?}");
        }
    }

    #[test]
    fn retains_every_token() {
        let mut c = GearCache::new(8, GearParams { buffer: 4, ..Default::default() }).unwrap();
        fill(&mut c, 40, 8, 1);
        assert_eq!(c.len(), 40);
        assert_eq!(c.view().positions, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn error_correction_beats_plain_quantization() {
        // Same bit width: GEAR reconstruction should be closer to the
        // original than a KIVI-style plain quantizer without correction.
        let dim = 16;
        let n = 64;
        let mut rng = seeded_rng(7);
        let tokens: Vec<(Vec<f32>, Vec<f32>)> = (0..n)
            .map(|_| {
                (
                    (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                    (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                )
            })
            .collect();

        let mut gear = GearCache::new(
            dim,
            GearParams { bits: 2, buffer: 8, outlier_ratio: 0.05, rank_ratio: 0.1 },
        )
        .unwrap();
        let mut plain = KiviCache::new(
            dim,
            KiviParams { bits: 2, group_size: 8, residual: 8 },
        )
        .unwrap();
        for (pos, (k, v)) in tokens.iter().enumerate() {
            gear.append(k, v, pos);
            plain.append(k, v, pos);
        }

        let mut truth = Matrix::zeros(0, dim);
        for (k, _) in &tokens {
            let mut kk = k.clone();
            round_slice_to_f16(&mut kk);
            truth.push_row(&kk);
        }
        let gear_err = gear.view().keys.sub(&truth).frobenius_norm();
        let plain_err = plain.view().keys.sub(&truth).frobenius_norm();
        assert!(
            gear_err < plain_err,
            "gear {gear_err} should beat plain {plain_err}"
        );
    }

    #[test]
    fn memory_larger_than_plain_quant_but_smaller_than_fp16() {
        let mut c = GearCache::new(16, GearParams { buffer: 8, ..Default::default() }).unwrap();
        fill(&mut c, 128, 16, 3);
        let stats = c.stats();
        assert!(stats.compression_ratio() > 1.5, "ratio {}", stats.compression_ratio());
        assert!(stats.memory_bytes < stats.fp16_baseline_bytes);
    }

    #[test]
    fn buffer_keeps_recent_tokens_exact() {
        let mut c = GearCache::new(2, GearParams { buffer: 4, ..Default::default() }).unwrap();
        fill(&mut c, 20, 2, 4);
        c.append(&[0.5, -0.5], &[0.25, 0.75], 20);
        let v = c.view();
        assert_eq!(v.keys.row(v.keys.rows() - 1), &[0.5, -0.5]);
    }

    /// Exact-size view assembly must be indistinguishable from the
    /// push_row-based oracle.
    #[test]
    fn view_matches_uncached_oracle() {
        let mut c = GearCache::new(8, GearParams { buffer: 4, ..Default::default() }).unwrap();
        fill(&mut c, 50, 8, 9);
        let fast = c.view();
        let slow = c.view_uncached();
        assert_eq!(fast.positions, slow.positions);
        assert_eq!(fast.keys, slow.keys);
        assert_eq!(fast.values, slow.values);
    }

    /// The in-register fused element path must reproduce every bit of
    /// the matrix-level reconstruction, outliers and low-rank included.
    #[test]
    fn fused_attend_matches_view_oracle() {
        let mut c = GearCache::new(
            8,
            GearParams { bits: 2, buffer: 4, outlier_ratio: 0.1, rank_ratio: 0.25 },
        )
        .unwrap();
        fill(&mut c, 50, 8, 12);
        let mut rng = seeded_rng(13);
        let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let scale = 0.35355339;

        let view = c.view_uncached();
        let mut oracle_scores = Vec::new();
        for r in 0..view.len() {
            let dot: f32 = view.keys.row(r).iter().zip(&q).map(|(a, b)| a * b).sum();
            oracle_scores.push(dot * scale);
        }
        let mut oracle_weights = Vec::new();
        softmax_into(&oracle_scores, &mut oracle_weights);
        let mut oracle_out = vec![0.0f32; 8];
        for (r, &w) in oracle_weights.iter().enumerate() {
            for (o, v) in oracle_out.iter_mut().zip(view.values.row(r)) {
                *o += w * v;
            }
        }

        let mut scores = Vec::new();
        let mut weights = Vec::new();
        let mut out = vec![0.0f32; 8];
        c.attend(&q, scale, &mut scores, &mut weights, &mut out);
        for (a, b) in out.iter().zip(&oracle_out) {
            assert_eq!(a.to_bits(), b.to_bits(), "fused attend diverged from oracle");
        }
    }

    /// Dropping the reconstruction memos keeps residency well below a
    /// full-precision copy of the stream.
    #[test]
    fn resident_bytes_reflect_compressed_storage() {
        let mut c = GearCache::new(8, GearParams { buffer: 4, ..Default::default() }).unwrap();
        fill(&mut c, 64, 8, 14);
        let stats = c.stats();
        assert_eq!(stats.resident_bytes, c.resident_bytes());
        let full_f32 = 2 * c.seen() * 8 * 4;
        assert!(
            stats.resident_bytes < full_f32,
            "resident {} vs full f32 {}",
            stats.resident_bytes,
            full_f32
        );
    }

    #[test]
    fn rejects_bad_params() {
        assert!(GearCache::new(4, GearParams { bits: 5, ..Default::default() }).is_err());
        assert!(GearCache::new(4, GearParams { buffer: 0, ..Default::default() }).is_err());
        assert!(GearCache::new(4, GearParams { outlier_ratio: 1.5, ..Default::default() }).is_err());
        assert!(GearCache::new(4, GearParams { rank_ratio: -0.1, ..Default::default() }).is_err());
    }
}
