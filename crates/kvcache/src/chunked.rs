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
/// magnitudes going to the lower index, in ascending order.
///
/// The order (`|error|` descending, then index ascending) is total, so
/// the set is unique: it is the first `n` of a stable descending sort by
/// magnitude. Nothing sorts every cell. Cell `i` is dealt to group
/// `i mod 4n`, and the `n`-th largest group maximum is a floor: `n`
/// distinct cells reach it, so a cell below it ranks below `n` others.
/// The few cells at or above the floor, in the groups whose maximum
/// reaches it, are gathered in index order; the `n`-th largest of their
/// magnitudes is the threshold, everything above it is picked, and the
/// ties at it go to the lowest indices. A magnitude is compared as its
/// bits with the sign cleared, read as an `i32`: they order exactly as
/// `total_cmp` orders `|v|` (NaN above `inf`). Per-token quantization
/// errors tie often; the index tie-break is what keeps the pick
/// reproducible.
fn largest_magnitude_cells(error: &[f32], n: usize) -> Vec<usize> {
    if n >= error.len() {
        return (0..error.len()).collect();
    }
    if n == 0 {
        return Vec::new();
    }
    let magnitude = |v: f32| (v.to_bits() & !(1 << 31)) as i32;
    let width = (4 * n).min(error.len());
    let mut maxima = vec![0; width];
    for row in error.chunks(width) {
        for (max, &v) in maxima.iter_mut().zip(row) {
            *max = magnitude(v).max(*max);
        }
    }
    let floor = nth_largest(maxima.clone(), n);
    let groups: Vec<usize> = (0..width).filter(|&g| maxima[g] >= floor).collect();
    let (mut keys, mut cells) = (Vec::with_capacity(2 * n), Vec::with_capacity(2 * n));
    for (start, row) in (0..).step_by(width).zip(error.chunks(width)) {
        for &g in &groups {
            if let Some(&v) = row.get(g).filter(|&&v| magnitude(v) >= floor) {
                keys.push(magnitude(v));
                cells.push(start + g);
            }
        }
    }
    let threshold = nth_largest(keys.clone(), n);
    let mut ties = n - keys.iter().filter(|&&k| k > threshold).count();
    let mut picked = Vec::with_capacity(n);
    for (cell, k) in cells.into_iter().zip(keys) {
        if k > threshold || (k == threshold && ties > 0) {
            ties -= usize::from(k == threshold);
            picked.push(cell);
        }
    }
    picked
}

/// The `n`-th largest of `keys`, `1 <= n <= keys.len()`.
fn nth_largest(mut keys: Vec<i32>, n: usize) -> i32 {
    let k = keys.len() - n;
    *keys.select_nth_unstable(k).1
}

/// RMS of what the rank-`r` factors leave of `error`:
/// `‖u·v − error‖_F / sqrt(len)`, the value
/// `reconstruct().sub(error).frobenius_norm()` divides down, without its
/// two temporaries. Each row of `u·v` is built as
/// [`Matrix::matmul_naive`] builds it (ascending `k` from `+0.0`, zero
/// `u` entries skipped) in one reused row, and the squares add in
/// row-major order from `+0.0` — the `sum` the norm runs, whose starting
/// zero's sign cannot show because no square is `−0.0`.
fn residual_rms(u: &Matrix, v: &Matrix, error: &Matrix) -> f32 {
    let mut uv = vec![0.0f32; error.cols()];
    let mut sum_sq = 0.0f32;
    let e_rows = error.as_slice().chunks_exact(error.cols());
    for (u_row, e_row) in u.as_slice().chunks_exact(u.cols()).zip(e_rows) {
        uv.fill(0.0);
        for (&a, v_row) in u_row.iter().zip(v.as_slice().chunks_exact(v.cols())) {
            if a != 0.0 {
                for (o, &b) in uv.iter_mut().zip(v_row) {
                    *o += a * b;
                }
            }
        }
        for (&p, &e) in uv.iter().zip(e_row) {
            let d = p - e;
            sum_sq += d * d;
        }
    }
    sum_sq.sqrt() / (error.len().max(1) as f32).sqrt()
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
    ///
    /// `error` is the flush's scratch, `x`'s shape: it receives
    /// `x − dequant(Q)` element for element as `x.sub(&dequantize())`
    /// would, loses its outliers to zero, and is factored in place.
    fn corrected(
        x: &Matrix,
        bits: SupportedBits,
        params: &GearParams,
        error: &mut Matrix,
    ) -> (Self, f32) {
        let quant = QuantizedMatrix::quantize(x, GroupLayout::PerToken, bits);
        quant.dequantize_rows_into(error);
        for (e, &v) in error.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *e = v - *e;
        }

        // Extract the top-s% |error| entries as exact outliers, sorted by
        // `(row, col)` — ascending flat index — so a reader can walk a
        // row's outliers with a cursor.
        let n_outliers = ((error.len() as f32 * params.outlier_ratio).round() as usize).max(1);
        let cols = error.cols();
        let picked = largest_magnitude_cells(error.as_slice(), n_outliers);
        let mut outliers = Vec::with_capacity(picked.len());
        for flat in picked {
            let cell = &mut error.as_mut_slice()[flat];
            outliers.push(Outlier {
                row: flat / cols,
                col: flat % cols,
                value: round_to_f16(*cell),
            });
            *cell = 0.0;
        }

        // Low-rank approximation of the remaining error.
        let max_rank = error.rows().min(error.cols());
        let rank = ((max_rank as f32 * params.rank_ratio).round() as usize)
            .max(1)
            .min(max_rank);
        // rkvc-allow(E001): rank is clamped to [1, min(rows, cols)] above, so this cannot fail
        let factors = low_rank_approximate(error, rank, 6).expect("rank validated");
        let residual_err = residual_rms(&factors.u, &factors.v, error);

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
    // flush): attention decodes one chunk at a time here, and a flush
    // measures its error here. Working memory, not retained state.
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

            // Whatever is decoded into the tile to measure the error is
            // transient: nothing full-precision outlives the flush.
            if self.chunks.is_empty() {
                self.tile = Matrix::zeros(n, self.head_dim());
            }
            let tile = &mut self.tile;
            let (keys, values) = match self.codec {
                Codec::Kivi(_) => {
                    let keys = Packed::plain(&key_rows, GroupLayout::PerChannel, self.bits);
                    let values = Packed::plain(&value_rows, GroupLayout::PerToken, self.bits);
                    // Mean |key error| (keys dominate accuracy impact),
                    // row-major.
                    keys.quant.dequantize_rows_into(tile);
                    for (d, x) in tile.as_slice().iter().zip(key_rows.as_slice()) {
                        self.err_sum += (d - x).abs() as f64;
                    }
                    self.err_count += key_rows.len() as u64;
                    (keys, values)
                }
                Codec::Gear(p) => {
                    let (keys, ek) = Packed::corrected(&key_rows, self.bits, &p, tile);
                    let (values, ev) = Packed::corrected(&value_rows, self.bits, &p, tile);
                    // Mean over chunks of the K/V-averaged uncorrected RMS.
                    self.err_sum += (ek + ev) as f64 * 0.5;
                    self.err_count += 1;
                    (keys, values)
                }
            };

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

    /// The column-wise Gram-Schmidt of the factorizer's matrix form.
    fn orthonormalize_columns(q: &mut Matrix) {
        let (rows, cols) = q.shape();
        for c in 0..cols {
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
            for r in 0..rows {
                let unit = if r == c % rows.max(1) { 1.0 } else { 0.0 };
                q.set(r, c, if norm > 1e-12 { q.get(r, c) / norm } else { unit });
            }
        }
    }

    /// The factorization as matrix products: the seeded Xavier basis,
    /// `orth(M Mᵀ Q)` rounds through [`Matrix::matmul`], then `Qᵀ M`.
    fn low_rank_by_matmul(m: &Matrix, rank: usize) -> (Matrix, Matrix) {
        let mut rng = seeded_rng(0x9e3779b97f4a7c15);
        let bound = (6.0 / (m.rows() + rank).max(1) as f32).sqrt();
        let basis = (0..m.rows() * rank).map(|_| rng.gen_range(-bound..=bound)).collect();
        let mut q = Matrix::from_vec(m.rows(), rank, basis);
        orthonormalize_columns(&mut q);
        let mt = m.transposed();
        for _ in 0..6 {
            let mut w = m.matmul(&mt.matmul(&q));
            orthonormalize_columns(&mut w);
            q = w;
        }
        let v = q.transposed().matmul(m);
        (q, v)
    }

    /// GEAR's correction built from temporaries: `dequantize().sub`, a
    /// stable sort for the outliers, the matrix-product factorization and
    /// `reconstruct().sub().frobenius_norm()`.
    fn corrected_by_temporaries(x: &Matrix, bits: SupportedBits, p: &GearParams) -> (Packed, f32) {
        let quant = QuantizedMatrix::quantize(x, GroupLayout::PerToken, bits);
        let mut error = x.sub(&quant.dequantize());
        let n = ((error.len() as f32 * p.outlier_ratio).round() as usize).max(1);
        let mut order: Vec<usize> = (0..error.len()).collect();
        order.sort_by(|&a, &b| error.as_slice()[b].abs().total_cmp(&error.as_slice()[a].abs()));
        let mut outliers = Vec::new();
        for flat in order.into_iter().take(n) {
            let (row, col) = (flat / error.cols(), flat % error.cols());
            outliers.push(Outlier { row, col, value: round_to_f16(error.get(row, col)) });
            error.set(row, col, 0.0);
        }
        outliers.sort_by_key(|o| (o.row, o.col));
        let max_rank = error.rows().min(error.cols());
        let rank = ((max_rank as f32 * p.rank_ratio).round() as usize).max(1).min(max_rank);
        let (u, v) = low_rank_by_matmul(&error, rank);
        let residual = u.matmul(&v).sub(&error).frobenius_norm() / (error.len() as f32).sqrt();
        (Packed { quant, correction: Some(Correction { u, v, outliers }) }, residual)
    }

    /// Bit equality, except that any NaN matches any NaN (which NaN an
    /// operation on two NaNs returns is the platform's choice).
    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        let same = |(x, y): (&f32, &f32)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        a.len() == b.len() && a.iter().zip(b).all(same)
    }

    rkvc_tensor::det_cases! {
        /// The residual RMS is `u.matmul(&v).sub(&e).frobenius_norm()`
        /// over `sqrt(len)`, zero `u` entries meeting infinite `v` ones
        /// included (the product skips them; `0 · inf` would be NaN).
        fn residual_rms_is_the_norm_of_the_product(rng, cases = 128) {
            let rows = rng.gen_range(1usize..17);
            let cols = rng.gen_range(1usize..65);
            let rank = rng.gen_range(1usize..4);
            let mut draw = |n: usize, zeros: bool| -> Vec<f32> {
                (0..n)
                    .map(|_| match rng.gen_range(0u32..12) {
                        0 | 1 if zeros => 0.0,
                        2 if !zeros => f32::INFINITY,
                        _ => rng.gen_range(-1.0f32..1.0),
                    })
                    .collect()
            };
            let u = Matrix::from_vec(rows, rank, draw(rows * rank, true));
            let v = Matrix::from_vec(rank, cols, draw(rank * cols, false));
            let e = Matrix::from_vec(rows, cols, draw(rows * cols, true));
            let want = u.matmul(&v).sub(&e).frobenius_norm() / (e.len() as f32).sqrt();
            assert!(same_bits(&[residual_rms(&u, &v, &e)], &[want]));
        }

        /// A flush that packs in place stores what the flush built from
        /// temporaries stored — codes, factors, outliers and the error
        /// accounting — so `view_uncached()` and `stats()` agree bit for
        /// bit, over both codecs, bit widths 1/2/4/8, chunk shapes up to
        /// GEAR's 16×64 and rows with signed zeros, repeats and values
        /// past FP16's range.
        fn in_place_flush_matches_the_flush_by_temporaries(rng, cases = 96) {
            let hd = [1usize, 3, 8, 16, 64, 64][rng.gen_range(0usize..6)];
            let bits = [1u8, 2, 4, 8][rng.gen_range(0usize..4)];
            let codec = if rng.gen_bool(0.5) {
                Codec::Kivi(KiviParams {
                    bits,
                    group_size: [1usize, 3, 8, 32][rng.gen_range(0usize..4)],
                    residual: [0usize, 1, 4, 16][rng.gen_range(0usize..4)],
                })
            } else {
                Codec::Gear(GearParams {
                    bits,
                    outlier_ratio: [0.0f32, 0.02, 0.05, 0.5][rng.gen_range(0usize..4)],
                    rank_ratio: [0.02f32, 0.1, 0.25, 1.0][rng.gen_range(0usize..4)],
                    buffer: [1usize, 3, 8, 16, 16][rng.gen_range(0usize..5)],
                })
            };
            let mut cache = ChunkedCache::new(hd, codec).unwrap();
            let (chunk, flush_at) = (codec.chunk_rows(), cache.flush_at);
            let tokens = rng.gen_range(flush_at.saturating_sub(2)..flush_at + 3 * chunk);
            let repeat = rng.gen_range(-1.0f32..1.0);
            let mut row = || -> Vec<f32> {
                (0..hd)
                    .map(|_| match rng.gen_range(0u32..50) {
                        0..=4 => 0.0,
                        5..=9 => -0.0,
                        10..=14 => repeat,
                        15 => 1e5,
                        _ => rng.gen_range(-1.0f32..1.0),
                    })
                    .collect()
            };

            let mut window: Vec<(Vec<f32>, Vec<f32>)> = Vec::new();
            let mut expect: Vec<(Packed, Packed)> = Vec::new();
            let (mut err_sum, mut err_count) = (0.0f64, 0u64);
            for pos in 0..tokens {
                let (k, v) = (row(), row());
                cache.append(&k, &v, pos);
                let (mut k, mut v) = (k, v);
                round_slice_to_f16(&mut k);
                round_slice_to_f16(&mut v);
                window.push((k, v));
                while window.len() >= flush_at {
                    let (mut keys, mut values) = (Matrix::zeros(0, hd), Matrix::zeros(0, hd));
                    for (k, v) in window.drain(..chunk) {
                        keys.push_row(&k);
                        values.push_row(&v);
                    }
                    let bits = cache.bits;
                    match codec {
                        Codec::Kivi(_) => {
                            let k = Packed::plain(&keys, GroupLayout::PerChannel, bits);
                            for e in k.quant.dequantize().sub(&keys).as_slice() {
                                err_sum += e.abs() as f64;
                            }
                            err_count += keys.len() as u64;
                            expect.push((k, Packed::plain(&values, GroupLayout::PerToken, bits)));
                        }
                        Codec::Gear(p) => {
                            let (k, ek) = corrected_by_temporaries(&keys, bits, &p);
                            let (v, ev) = corrected_by_temporaries(&values, bits, &p);
                            err_sum += (ek + ev) as f64 * 0.5;
                            err_count += 1;
                            expect.push((k, v));
                        }
                    }
                }
            }

            assert_eq!(cache.chunks.len(), expect.len());
            for (got, want) in cache.chunks.iter().zip(&expect) {
                for (g, w) in [(&got.keys, &want.0), (&got.values, &want.1)] {
                    assert!(same_bits(g.reconstruct().as_slice(), w.reconstruct().as_slice()));
                    assert_eq!(g.memory_bytes(), w.memory_bytes());
                    assert_eq!(g.resident_bytes(), w.resident_bytes());
                    if let (Some(gc), Some(wc)) = (&g.correction, &w.correction) {
                        assert!(same_bits(gc.u.as_slice(), wc.u.as_slice()), "u");
                        assert!(same_bits(gc.v.as_slice(), wc.v.as_slice()), "v");
                        let cells = |c: &Correction| {
                            c.outliers.iter().map(|o| (o.row, o.col)).collect::<Vec<_>>()
                        };
                        assert_eq!(cells(gc), cells(wc), "outlier cells");
                        let values = |c: &Correction| {
                            c.outliers.iter().map(|o| o.value).collect::<Vec<_>>()
                        };
                        assert!(same_bits(&values(gc), &values(wc)), "outlier values");
                    }
                }
            }

            let view = cache.view_uncached();
            let (mut keys, mut values) = (Vec::new(), Vec::new());
            for (k, v) in &expect {
                keys.extend_from_slice(k.reconstruct().as_slice());
                values.extend_from_slice(v.reconstruct().as_slice());
            }
            for (k, v) in &window {
                keys.extend_from_slice(k);
                values.extend_from_slice(v);
            }
            assert!(same_bits(view.keys.as_slice(), &keys));
            assert!(same_bits(view.values.as_slice(), &values));
            assert_eq!(view.positions, (0..tokens).collect::<Vec<_>>());

            let stats = cache.stats();
            let mean = if err_count == 0 { 0.0 } else { (err_sum / err_count as f64) as f32 };
            let got = stats.mean_quant_error;
            assert!(same_bits(&[got], &[mean]), "{got} vs {mean}");
            let chunks =
                |f: fn(&Packed) -> usize| expect.iter().map(|(k, v)| f(k) + f(v)).sum::<usize>();
            let window_values = 2 * window.len() * hd;
            assert_eq!(stats.memory_bytes, chunks(Packed::memory_bytes) + window_values * 2);
            assert_eq!(stats.resident_bytes, chunks(Packed::resident_bytes) + window_values * 4);
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
