//! The chunked quantized store and the codecs that run on it.
//!
//! The paper's quantization family never drops a token; it repacks the
//! old ones. KIVI and GEAR share the shape: the most recent tokens sit in
//! a full-precision (FP16-rounded) window, and once enough of them have
//! aged out the oldest are packed into an immutable compressed chunk. So
//! there is one store, [`ChunkedCache`], and the packing is a [`Codec`]
//! value, matched where the codecs differ: which parameters are valid,
//! how long a chunk and the window are, and how a flush packs a chunk and
//! accounts its error. The windowed design is exactly what the paper
//! flags as awkward for PagedAttention (two tensor types per page).

use rkvc_tensor::{low_rank_approximate, round_to_f16, softmax_into, Matrix};

use crate::cache::{axpy_rows, dots_into, extend_attend_blocked, BlockRows};
use crate::quantizer::{GroupLayout, QuantizedMatrix, SupportedBits};
use crate::window::{Queries, RowWindow};
use crate::{AttendBatch, AttendScratch, CacheError, CacheStats, KvCache, KvView};

/// Hyper-parameters of [`Codec::Kivi`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KiviParams {
    /// Quantization bit width (paper evaluates 2 and 4).
    pub bits: u8,
    /// Channel-group size `G`: tokens per quantized key group (paper: 32).
    pub group_size: usize,
    /// Residual window `R`: recent tokens kept in full precision
    /// (paper: 128).
    pub residual: usize,
}

impl Default for KiviParams {
    fn default() -> Self {
        KiviParams {
            bits: 4,
            group_size: 32,
            residual: 128,
        }
    }
}

/// Hyper-parameters of [`Codec::Gear`].
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

rkvc_tensor::json_struct!(KiviParams { bits, group_size, residual });
rkvc_tensor::json_struct!(GearParams {
    bits,
    outlier_ratio,
    rank_ratio,
    buffer,
});

/// How a [`ChunkedCache`] packs the tokens that age out of its window.
///
/// # Examples
///
/// ```
/// use rkvc_kvcache::{ChunkedCache, Codec, GearParams, KiviParams, KvCache};
///
/// let params = KiviParams { bits: 2, group_size: 4, residual: 8 };
/// let mut kivi = ChunkedCache::new(4, Codec::Kivi(params))?;
/// for pos in 0..32 {
///     kivi.append(&[pos as f32; 4], &[1.0; 4], pos);
/// }
/// // All 32 tokens retained (KIVI never evicts), but old ones are 2-bit.
/// assert_eq!(kivi.len(), 32);
/// assert!(kivi.stats().compression_ratio() > 1.2);
///
/// let params = GearParams { buffer: 4, ..Default::default() };
/// let mut gear = ChunkedCache::new(8, Codec::Gear(params))?;
/// for pos in 0..16 {
///     gear.append(&[0.1 * pos as f32; 8], &[1.0; 8], pos);
/// }
/// assert_eq!(gear.len(), 16);
/// # Ok::<(), rkvc_kvcache::CacheError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Codec {
    /// KIVI, tuning-free asymmetric quantization (Liu et al., 2024): the
    /// **key** cache is quantized *per channel* (each channel's values
    /// across a group of `G` tokens share quantization constants — keys
    /// exhibit strong per-channel outlier structure) and the **value**
    /// cache *per token*. The most recent `R` tokens (the *residual
    /// window*) stay in full precision; once `G` tokens age out of the
    /// window they are flushed into a quantized group.
    Kivi(KiviParams),
    /// GEAR, quantization with sparse-outlier and low-rank error
    /// correction (Kang et al., 2024): the cache is quantized uniformly
    /// (per token) but the quantization error is *repaired* with two side
    /// structures: the top-`s`% largest-magnitude error entries are stored
    /// exactly (the outliers), and the remaining error matrix is
    /// approximated with a rank-`r` factorization. Reconstruction is
    /// `dequant(Q) + U·V + sparse` — near-lossless at the cost of extra
    /// compute, which is precisely the overhead the paper measures in
    /// Figure 3.
    Gear(GearParams),
}

impl Codec {
    /// Tokens per compressed chunk: KIVI's group size `G`, GEAR's `buffer`.
    fn chunk_rows(&self) -> usize {
        match *self {
            Codec::Kivi(p) => p.group_size,
            Codec::Gear(p) => p.buffer,
        }
    }

    /// Most recent tokens that are never packed: KIVI's residual `R`,
    /// GEAR's `buffer`. The full-precision window grows to
    /// `window() + chunk_rows()` rows and then flushes its oldest chunk.
    fn window(&self) -> usize {
        match *self {
            Codec::Kivi(p) => p.residual,
            Codec::Gear(p) => p.buffer,
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

/// GEAR's repair of one tensor's quantization error: the rank-`r`
/// factors `u · v` and the outliers, sorted by `(row, col)`.
#[derive(Debug, Clone)]
struct Correction {
    u: Matrix,
    v: Matrix,
    outliers: Vec<Outlier>,
}

/// One packed tensor (K or V of a chunk): the codes and, under GEAR,
/// their correction.
#[derive(Debug, Clone)]
struct Packed {
    quant: QuantizedMatrix,
    correction: Option<Correction>,
}

impl Packed {
    /// Plain quantization of `x`, no correction (KIVI).
    fn plain(x: &Matrix, layout: GroupLayout, bits: SupportedBits) -> Self {
        Packed {
            quant: QuantizedMatrix::quantize(x, layout, bits),
            correction: None,
        }
    }

    /// Per-token quantization of `x` plus the GEAR correction of its
    /// error, and the RMS of what the correction leaves unrepaired.
    fn corrected(x: &Matrix, bits: SupportedBits, params: &GearParams) -> (Self, f32) {
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
        // Sort by (row, col) so a reader can walk a row's outliers with a
        // cursor. Cells are unique (each picked flat index is zeroed
        // before the next pick), so reordering the list cannot change any
        // reconstruction.
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

        let correction = Correction {
            u: factors.u,
            v: factors.v,
            outliers,
        };
        (Packed { quant, correction: Some(correction) }, residual_err)
    }

    /// The matrix-level decode, `dequant(Q) [+ U·V + sparse]`: the oracle
    /// [`Packed::rows_into`] must equal bit for bit.
    fn reconstruct(&self) -> Matrix {
        let mut out = self.quant.dequantize();
        if let Some(c) = &self.correction {
            out = out.add(&c.u.matmul(&c.v));
            for o in &c.outliers {
                let v = out.get(o.row, o.col) + o.value;
                out.set(o.row, o.col, v);
            }
        }
        out
    }

    /// Decodes every row into `tile`, row `r` of the chunk landing in row
    /// `r` of the tile, and returns the decoded rows as one dense run for
    /// the shared dot/axpy kernels. The tile is chunk-sized —
    /// `chunk_rows × head_dim`, a fixed L1-resident block independent of
    /// context length — so decoding stays bounded while the kernels that
    /// follow read distinct rows.
    ///
    /// A corrected tensor takes three tile-wide passes, each preserving
    /// the term order of [`Packed::reconstruct`] exactly: the low-rank
    /// product accumulates ascending-`k` over rows of `V` with the
    /// [`Matrix::matmul`] zero-skip on the `U` operand (replicating the
    /// skip is required for bit identity — adding a `0.0 * v` term can
    /// flip signed zeros); then every element becomes `dequant + uv`
    /// with the dequantized code as the left operand, as in
    /// `dequantize().add(..)`; then the outliers (sorted by
    /// `(row, col)`) add in, in list order.
    fn rows_into<'t>(&self, tile: &'t mut Matrix) -> &'t [f32] {
        let rows = self.quant.rows();
        match &self.correction {
            None => self.quant.dequantize_rows_into(tile),
            Some(c) => {
                // k-outer keeps each element's terms ascending-k while
                // binding the V row once per rank component instead of
                // once per row. The k = 0 pass initializes each row in a
                // single sweep: a row whose leading U entry is nonzero is
                // written as `0.0 + u·v` — the accumulator fold
                // [`Matrix::matmul`] performs on its first unskipped
                // term, signed zeros included — and a skipped row is
                // zero-filled, exactly the all-terms-skipped oracle value.
                for r in 0..rows {
                    let uk = if c.v.rows() > 0 { c.u.row(r)[0] } else { 0.0 };
                    if uk == 0.0 {
                        tile.row_mut(r).fill(0.0);
                    } else {
                        let vrow = c.v.row(0);
                        for (o, &v) in tile.row_mut(r).iter_mut().zip(vrow) {
                            *o = 0.0 + uk * v;
                        }
                    }
                }
                for k in 1..c.v.rows() {
                    let vrow = c.v.row(k);
                    for r in 0..rows {
                        let uk = c.u.row(r)[k];
                        if uk == 0.0 {
                            continue;
                        }
                        for (o, &v) in tile.row_mut(r).iter_mut().zip(vrow) {
                            *o += uk * v;
                        }
                    }
                }
                self.quant.add_dequant_rows(tile);
                for o in &c.outliers {
                    let v = tile.get(o.row, o.col) + o.value;
                    tile.set(o.row, o.col, v);
                }
            }
        }
        &tile.as_slice()[..rows * tile.cols()]
    }

    /// `scores[r] = dot(row r, query) * scale` over the decoded rows.
    ///
    /// Uncorrected per-channel codes stream: each packed word is decoded
    /// in-register as the dots consume it. Everything else decodes into
    /// the tile and runs the shared [`dots_into`] — a corrected tensor
    /// has no other route, and the streaming kernel is kept where it
    /// exists because it measures better (`kvcache.attend_us.kivi4` on
    /// `gen_long`: 43.9 µs streamed, 60.6 µs through the tile). Both
    /// routes give each dot the ascending-channel fold of the naive loop,
    /// so the choice moves no bit.
    fn dots_into(&self, tile: &mut Matrix, query: &[f32], scale: f32, scores: &mut [f32]) {
        match (&self.correction, self.quant.layout()) {
            (None, GroupLayout::PerChannel) => self.quant.fused_dots_into(query, scale, scores),
            _ => dots_into(self.rows_into(tile), query, scale, scores),
        }
    }

    /// `out[c] += Σ_r weights[r] * row r[c]`, rows ascending. Uncorrected
    /// per-token codes stream, everything else goes through the tile: the
    /// same rule, for the same reason, as [`Packed::dots_into`].
    fn axpy_rows(&self, tile: &mut Matrix, weights: &[f32], out: &mut [f32]) {
        match (&self.correction, self.quant.layout()) {
            (None, GroupLayout::PerToken) => self.quant.fused_axpy_rows(weights, out),
            _ => axpy_rows(self.rows_into(tile), weights, out),
        }
    }

    /// Device-format bytes: quantized codes + FP16 low-rank factors +
    /// outliers (FP16 value + u32 flat index).
    fn memory_bytes(&self) -> usize {
        let correction = self.correction.as_ref();
        self.quant.memory_bytes()
            + correction.map_or(0, |c| (c.u.len() + c.v.len()) * 2 + c.outliers.len() * 6)
    }

    /// Bytes the simulator process actually holds: packed codes with f32
    /// constants, f32 low-rank factors, and the in-memory outlier
    /// structs.
    fn resident_bytes(&self) -> usize {
        let correction = self.correction.as_ref();
        self.quant.resident_bytes()
            + correction.map_or(0, |c| {
                (c.u.len() + c.v.len()) * std::mem::size_of::<f32>()
                    + c.outliers.len() * std::mem::size_of::<Outlier>()
            })
    }
}

/// One flushed chunk of tokens in compressed storage.
///
/// Chunks are immutable once flushed and hold *only* the compressed
/// representation: attention decodes them as it consumes them. (An
/// earlier revision memoized the full-precision decode per chunk at
/// flush time — a host-side cache that doubled resident memory and
/// defeated the very compression being simulated.)
#[derive(Debug, Clone)]
struct Chunk {
    keys: Packed,
    values: Packed,
    positions: Vec<usize>,
}

/// The quantizing KV cache: a full-precision window of recent tokens in
/// front of compressed chunks packed by a [`Codec`] (which carries the
/// examples).
#[derive(Debug, Clone)]
pub struct ChunkedCache {
    codec: Codec,
    bits: SupportedBits,
    /// Window length at which the oldest chunk is flushed:
    /// `codec.window() + codec.chunk_rows()`, checked at construction.
    flush_at: usize,
    chunks: Vec<Chunk>,
    /// The full-precision window, a FIFO in the row window's ring: appends
    /// push its back and a flush pops its front.
    rows: RowWindow,
    // Decode tile (`chunk_rows x head_dim`, allocated at the first
    // flush): attention decodes one chunk at a time here. Working memory,
    // not retained state.
    tile: Matrix,
    // Quantization error accounting (per element under KIVI, per chunk
    // under GEAR).
    err_sum: f64,
    err_count: u64,
}

impl ChunkedCache {
    /// Creates an empty cache for `head_dim`-dimensional heads under
    /// `codec`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnsupportedBits`] for a bit width other than
    /// 1/2/4/8 and [`CacheError::InvalidParameter`] for a zero group size
    /// or buffer, a GEAR ratio outside `[0, 1]`, or a window and chunk
    /// whose combined length overflows `usize`.
    pub fn new(head_dim: usize, codec: Codec) -> Result<Self, CacheError> {
        let check = |ok: bool, msg| ok.then_some(()).ok_or(CacheError::InvalidParameter(msg));
        let bits = match codec {
            Codec::Kivi(p) => {
                let bits = SupportedBits::from_bits(p.bits)?;
                check(p.group_size >= 1, "group_size must be >= 1")?;
                bits
            }
            Codec::Gear(p) => {
                let bits = SupportedBits::from_bits(p.bits)?;
                check(p.buffer >= 1, "buffer must be >= 1")?;
                check((0.0..=1.0).contains(&p.outlier_ratio), "outlier_ratio must be in [0, 1]")?;
                check((0.0..=1.0).contains(&p.rank_ratio), "rank_ratio must be in [0, 1]")?;
                bits
            }
        };
        let flush_at = codec.window().checked_add(codec.chunk_rows());
        let flush_at = flush_at.ok_or(CacheError::InvalidParameter(
            "window + chunk length overflows usize",
        ))?;
        Ok(ChunkedCache {
            codec,
            bits,
            flush_at,
            chunks: Vec::new(),
            rows: RowWindow::new(head_dim),
            tile: Matrix::zeros(0, head_dim),
            err_sum: 0.0,
            err_count: 0,
        })
    }

    /// Number of tokens in compressed chunks.
    fn compressed_len(&self) -> usize {
        self.chunks.iter().map(|c| c.positions.len()).sum()
    }

    /// Number of tokens in the full-precision window.
    fn window_len(&self) -> usize {
        self.rows.len()
    }

    fn head_dim(&self) -> usize {
        self.rows.head_dim()
    }

    /// Rebuilds the view by decoding every chunk at matrix level
    /// (`dequantize()`, plus `U·V` and the outliers under GEAR) with
    /// per-row `push_row` growth — the original decode path, and what
    /// [`KvCache::view`] returns. Retained as the exact-equality oracle:
    /// the [`KvCache::attend`] kernels must be bitwise indistinguishable
    /// from running naive attention over this view.
    pub fn view_uncached(&self) -> KvView {
        let mut keys = Matrix::zeros(0, self.head_dim());
        let mut values = Matrix::zeros(0, self.head_dim());
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
        let window = self.rows.view();
        keys.push_rows(&window.keys);
        values.push_rows(&window.values);
        positions.extend_from_slice(&window.positions);
        KvView {
            keys,
            values,
            positions,
        }
    }

    /// Packs the tokens that have aged out of the window into chunks.
    fn maybe_flush(&mut self) {
        let n = self.codec.chunk_rows();
        while self.rows.len() >= self.flush_at {
            let KvView {
                keys: key_rows,
                values: value_rows,
                positions,
            } = self.rows.pop_ring_rows(n);

            // Whatever is dequantized here to measure the error is
            // transient: nothing full-precision outlives the flush.
            let (keys, values) = match self.codec {
                Codec::Kivi(_) => {
                    let keys = Packed::plain(&key_rows, GroupLayout::PerChannel, self.bits);
                    let values = Packed::plain(&value_rows, GroupLayout::PerToken, self.bits);
                    // Mean |key error| (keys dominate accuracy impact).
                    let err = keys.quant.dequantize().sub(&key_rows);
                    for e in err.as_slice() {
                        self.err_sum += e.abs() as f64;
                    }
                    self.err_count += err.len() as u64;
                    (keys, values)
                }
                Codec::Gear(p) => {
                    let (keys, ek) = Packed::corrected(&key_rows, self.bits, &p);
                    let (values, ev) = Packed::corrected(&value_rows, self.bits, &p);
                    // Mean over chunks of the K/V-averaged uncorrected RMS.
                    self.err_sum += (ek + ev) as f64 * 0.5;
                    self.err_count += 1;
                    (keys, values)
                }
            };

            if self.chunks.is_empty() {
                self.tile = Matrix::zeros(n, self.head_dim());
            }
            self.chunks.push(Chunk {
                keys,
                values,
                positions,
            });
        }
    }
}

impl BlockRows for ChunkedCache {
    fn quiet_appends(&self) -> usize {
        (self.flush_at - 1).saturating_sub(self.rows.len())
    }

    fn window(&self) -> &RowWindow {
        &self.rows
    }

    fn chunk_key_runs(&mut self, f: &mut dyn FnMut(&[f32])) {
        for chunk in &self.chunks {
            f(chunk.keys.rows_into(&mut self.tile));
        }
    }

    fn chunk_value_runs(&mut self, f: &mut dyn FnMut(&[f32])) {
        for chunk in &self.chunks {
            f(chunk.values.rows_into(&mut self.tile));
        }
    }
}

impl KvCache for ChunkedCache {
    fn append(&mut self, key: &[f32], value: &[f32], pos: usize) {
        assert_eq!(key.len(), self.head_dim(), "key dim mismatch");
        assert_eq!(value.len(), self.head_dim(), "value dim mismatch");
        self.rows.append_ring(key, value, pos);
        self.maybe_flush();
    }

    fn view(&self) -> KvView {
        // Off every hot path since the fused `attend` override: only
        // inspection and tests materialize a view, so the oracle serves.
        self.view_uncached()
    }

    fn attend(
        &mut self,
        query: &[f32],
        scale: f32,
        scores: &mut Vec<f32>,
        weights: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        assert_eq!(query.len(), self.head_dim(), "query dim mismatch");
        assert_eq!(out.len(), self.head_dim(), "output dim mismatch");
        // Fused score loop: each chunk is decoded as the dots consume it,
        // in-register or into the chunk-sized tile; nothing of
        // token-dimension size is materialized, and the window is a
        // panel product. Row order (flushed chunks in flush order, then
        // the window) and each dot's ascending-channel fold match the
        // view path exactly, so the scores are bit-identical to the
        // naive loops over `view`.
        scores.clear();
        scores.resize(self.len(), 0.0);
        let mut r0 = 0;
        for chunk in &self.chunks {
            let n = chunk.positions.len();
            chunk.keys.dots_into(&mut self.tile, query, scale, &mut scores[r0..r0 + n]);
            r0 += n;
        }
        let window = self.rows.len();
        let q = Queries { rows: query, count: 1, scale };
        // `weights` is free until the softmax: the product's scratch.
        self.rows.scores_into(0..window, q, weights, &mut scores[r0..], window);
        softmax_into(scores, weights);
        // Fused weighted sum: the decode feeds the output accumulation
        // directly, same term order as the view path.
        let mut r0 = 0;
        for chunk in &self.chunks {
            let n = chunk.positions.len();
            chunk.values.axpy_rows(&mut self.tile, &weights[r0..r0 + n], out);
            r0 += n;
        }
        self.rows.weighted_sum(0..window, &weights[r0..], out);
        self.observe_attention(weights);
    }

    fn extend_attend(&mut self, batch: &AttendBatch<'_>, scratch: &mut AttendScratch, out: &mut [f32]) {
        extend_attend_blocked(self, batch, scratch, out);
    }

    fn len(&self) -> usize {
        self.compressed_len() + self.window_len()
    }

    fn seen(&self) -> usize {
        self.rows.seen()
    }

    fn memory_bytes(&self) -> usize {
        let chunks: usize = self
            .chunks
            .iter()
            .map(|c| c.keys.memory_bytes() + c.values.memory_bytes())
            .sum();
        chunks + 2 * self.window_len() * self.head_dim() * 2
    }

    fn resident_bytes(&self) -> usize {
        // Exact in-process accounting: the compressed chunk structures
        // plus the f32-backed window. Nothing else is held — the
        // flush-time decode memos that used to add a full-precision copy
        // of every chunk are gone.
        let chunks: usize = self
            .chunks
            .iter()
            .map(|c| c.keys.resident_bytes() + c.values.resident_bytes())
            .sum();
        chunks + 2 * self.window_len() * self.head_dim() * 4
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            tokens_seen: self.seen(),
            tokens_retained: self.len(),
            tokens_evicted: 0,
            memory_bytes: self.memory_bytes(),
            resident_bytes: self.resident_bytes(),
            fp16_baseline_bytes: 2 * self.seen() * self.head_dim() * 2,
            mean_quant_error: if self.err_count == 0 {
                0.0
            } else {
                (self.err_sum / self.err_count as f64) as f32
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_tensor::{round_slice_to_f16, seeded_rng};

    fn small_kivi() -> KiviParams {
        KiviParams {
            bits: 4,
            group_size: 4,
            residual: 8,
        }
    }

    fn kivi(head_dim: usize, params: KiviParams) -> ChunkedCache {
        ChunkedCache::new(head_dim, Codec::Kivi(params)).unwrap()
    }

    fn gear(head_dim: usize, params: GearParams) -> ChunkedCache {
        ChunkedCache::new(head_dim, Codec::Gear(params)).unwrap()
    }

    fn small_gear(head_dim: usize) -> ChunkedCache {
        gear(head_dim, GearParams { buffer: 4, ..Default::default() })
    }

    fn fill(cache: &mut ChunkedCache, n: usize, dim: usize, seed: u64) {
        let mut rng = seeded_rng(seed);
        for pos in 0..n {
            let k: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            cache.append(&k, &v, pos);
        }
    }

    /// `attend` with a seeded 8-wide query must be bitwise equal to
    /// replaying the default view-based sequence over `view_uncached`.
    fn assert_attend_matches_view_oracle(c: &mut ChunkedCache, query_seed: u64) {
        let mut rng = seeded_rng(query_seed);
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

    /// Residency is reported through `stats()` and sits strictly below
    /// even a plain f32 copy of the stream (the memo era held one on top
    /// of today's residency).
    fn assert_resident_below_f32_copy(c: &ChunkedCache) {
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
    fn kivi_retains_every_token() {
        let mut c = kivi(4, small_kivi());
        fill(&mut c, 50, 4, 1);
        assert_eq!(c.len(), 50);
        assert_eq!(c.seen(), 50);
        let v = c.view();
        assert_eq!(v.positions, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn residual_window_respected() {
        let mut c = kivi(4, small_kivi());
        fill(&mut c, 40, 4, 2);
        // Residual holds between R and R+G-1 tokens.
        assert!(c.window_len() >= 8 && c.window_len() < 8 + 4);
        assert_eq!(c.compressed_len() + c.window_len(), 40);
        // Flushes happen in exact multiples of G.
        assert_eq!(c.compressed_len() % 4, 0);
    }

    #[test]
    fn short_sequences_stay_full_precision() {
        let mut c = kivi(4, small_kivi());
        fill(&mut c, 8, 4, 3);
        assert_eq!(c.compressed_len(), 0);
        assert_eq!(c.stats().mean_quant_error, 0.0);
    }

    #[test]
    fn compresses_memory_vs_fp16() {
        let mut c = kivi(32, KiviParams { bits: 2, group_size: 8, residual: 8 });
        fill(&mut c, 256, 32, 4);
        let stats = c.stats();
        // 2-bit storage of the old tokens should save a lot overall.
        assert!(
            stats.compression_ratio() > 2.0,
            "ratio = {}",
            stats.compression_ratio()
        );
    }

    #[test]
    fn reconstruction_error_small_at_4_bits() {
        let mut c = kivi(8, small_kivi());
        fill(&mut c, 64, 8, 5);
        let stats = c.stats();
        assert!(stats.mean_quant_error > 0.0);
        assert!(stats.mean_quant_error < 0.1, "err = {}", stats.mean_quant_error);
    }

    #[test]
    fn two_bits_noisier_than_four() {
        let mut c2 = kivi(8, KiviParams { bits: 2, ..small_kivi() });
        let mut c4 = kivi(8, small_kivi());
        fill(&mut c2, 64, 8, 6);
        fill(&mut c4, 64, 8, 6);
        assert!(c2.stats().mean_quant_error > c4.stats().mean_quant_error);
    }

    #[test]
    fn view_preserves_recent_tokens_exactly() {
        let mut c = kivi(2, small_kivi());
        fill(&mut c, 30, 2, 7);
        let k_last = vec![0.25f32, -0.75];
        c.append(&k_last, &[0.5, 0.5], 30);
        let v = c.view();
        let last = v.keys.row(v.keys.rows() - 1);
        assert_eq!(last, &k_last[..]); // Representable in f16, kept in residual.
    }

    /// The streaming kernels (per-channel dots, per-token axpy) must be
    /// bitwise equal to the naive loops over the matrix-level decode.
    #[test]
    fn kivi_fused_attend_matches_view_oracle() {
        let mut c = kivi(8, small_kivi());
        fill(&mut c, 70, 8, 9);
        assert_attend_matches_view_oracle(&mut c, 10);
    }

    /// Resident accounting holds packed codes + the f32 residual window
    /// only.
    #[test]
    fn resident_bytes_reflect_packed_storage() {
        let mut c = kivi(8, small_kivi());
        fill(&mut c, 70, 8, 11);
        assert_resident_below_f32_copy(&c);
    }

    #[test]
    fn kivi_rejects_bad_params() {
        assert!(ChunkedCache::new(4, Codec::Kivi(KiviParams { bits: 3, ..small_kivi() })).is_err());
        assert!(ChunkedCache::new(4, Codec::Kivi(KiviParams { group_size: 0, ..small_kivi() })).is_err());
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
    fn gear_retains_every_token() {
        let mut c = small_gear(8);
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

        let mut corrected = gear(
            dim,
            GearParams { bits: 2, buffer: 8, outlier_ratio: 0.05, rank_ratio: 0.1 },
        );
        let mut plain = kivi(dim, KiviParams { bits: 2, group_size: 8, residual: 8 });
        for (pos, (k, v)) in tokens.iter().enumerate() {
            corrected.append(k, v, pos);
            plain.append(k, v, pos);
        }

        let mut truth = Matrix::zeros(0, dim);
        for (k, _) in &tokens {
            let mut kk = k.clone();
            round_slice_to_f16(&mut kk);
            truth.push_row(&kk);
        }
        let gear_err = corrected.view().keys.sub(&truth).frobenius_norm();
        let plain_err = plain.view().keys.sub(&truth).frobenius_norm();
        assert!(
            gear_err < plain_err,
            "gear {gear_err} should beat plain {plain_err}"
        );
    }

    #[test]
    fn memory_larger_than_plain_quant_but_smaller_than_fp16() {
        let mut c = gear(16, GearParams { buffer: 8, ..Default::default() });
        fill(&mut c, 128, 16, 3);
        let stats = c.stats();
        assert!(stats.compression_ratio() > 1.5, "ratio {}", stats.compression_ratio());
        assert!(stats.memory_bytes < stats.fp16_baseline_bytes);
    }

    #[test]
    fn buffer_keeps_recent_tokens_exact() {
        let mut c = small_gear(2);
        fill(&mut c, 20, 2, 4);
        c.append(&[0.5, -0.5], &[0.25, 0.75], 20);
        let v = c.view();
        assert_eq!(v.keys.row(v.keys.rows() - 1), &[0.5, -0.5]);
    }

    /// The tile route must reproduce every bit of the matrix-level
    /// reconstruction, outliers and low-rank included.
    #[test]
    fn gear_fused_attend_matches_view_oracle() {
        let mut c = gear(
            8,
            GearParams { bits: 2, buffer: 4, outlier_ratio: 0.1, rank_ratio: 0.25 },
        );
        fill(&mut c, 50, 8, 12);
        assert_attend_matches_view_oracle(&mut c, 13);
    }

    /// Dropping the reconstruction memos keeps residency well below a
    /// full-precision copy of the stream.
    #[test]
    fn resident_bytes_reflect_compressed_storage() {
        let mut c = small_gear(8);
        fill(&mut c, 64, 8, 14);
        assert_resident_below_f32_copy(&c);
    }

    #[test]
    fn gear_rejects_bad_params() {
        let rejects = |p: GearParams| ChunkedCache::new(4, Codec::Gear(p)).is_err();
        assert!(rejects(GearParams { bits: 5, ..Default::default() }));
        assert!(rejects(GearParams { buffer: 0, ..Default::default() }));
        assert!(rejects(GearParams { outlier_ratio: 1.5, ..Default::default() }));
        assert!(rejects(GearParams { rank_ratio: -0.1, ..Default::default() }));
    }
}
