//! KIVI: tuning-free asymmetric quantization for KV cache (Liu et al., 2024).
//!
//! KIVI quantizes the **key** cache *per channel* (each channel's values
//! across a group of `G` tokens share quantization constants — keys exhibit
//! strong per-channel outlier structure) and the **value** cache *per token*.
//! The most recent `R` tokens (the *residual window*) stay in full precision;
//! once `G` tokens age out of the window they are flushed into a quantized
//! group. This windowed design is exactly what the paper flags as awkward for
//! PagedAttention (two tensor types per page).

use rkvc_tensor::{softmax_into, Matrix};

use crate::cache::{axpy_rows, dots_into, extend_attend_blocked, push_f16_row, BlockRows};
use crate::quantizer::{GroupLayout, QuantizedMatrix, SupportedBits};
use crate::{AttendBatch, AttendScratch, CacheError, CacheStats, KvCache, KvView};

/// Hyper-parameters for [`KiviCache`].
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

/// One flushed group of `G` tokens in quantized storage.
///
/// Chunks are immutable once flushed and hold *only* the packed codes:
/// the fused [`KvCache::attend`] override decodes them in-register as
/// the score and weighted-sum loops consume them. (An earlier revision
/// memoized full-precision `dequant_keys`/`dequant_values` here to speed
/// up view assembly — a host-side decode cache that doubled resident
/// memory and defeated the very compression being simulated; the fused
/// path made it unnecessary.)
#[derive(Debug, Clone)]
struct QuantChunk {
    keys: QuantizedMatrix,
    values: QuantizedMatrix,
    positions: Vec<usize>,
}

/// The KIVI quantizing KV cache.
///
/// # Examples
///
/// ```
/// use rkvc_kvcache::{KiviCache, KiviParams, KvCache};
///
/// let params = KiviParams { bits: 2, group_size: 4, residual: 8 };
/// let mut cache = KiviCache::new(4, params)?;
/// for pos in 0..32 {
///     cache.append(&[pos as f32; 4], &[1.0; 4], pos);
/// }
/// // All 32 tokens retained (KIVI never evicts), but old ones are 2-bit.
/// assert_eq!(cache.len(), 32);
/// assert!(cache.stats().compression_ratio() > 1.2);
/// # Ok::<(), rkvc_kvcache::CacheError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KiviCache {
    head_dim: usize,
    params: KiviParams,
    bits: SupportedBits,
    chunks: Vec<QuantChunk>,
    // Residual window (full precision, f16-rounded).
    res_keys: Matrix,
    res_values: Matrix,
    res_positions: Vec<usize>,
    // Decode tile of the query-blocked path (`group_size x head_dim`,
    // allocated at the first flush): one chunk at a time is dequantized
    // here per block of queries. Working memory, not retained state.
    tile: Matrix,
    seen: usize,
    // Quantization error accounting.
    err_sum: f64,
    err_count: u64,
}

impl KiviCache {
    /// Creates a KIVI cache for `head_dim`-dimensional heads.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnsupportedBits`] for a bit width other than
    /// 1/2/4/8 and [`CacheError::InvalidParameter`] for a zero group size.
    pub fn new(head_dim: usize, params: KiviParams) -> Result<Self, CacheError> {
        let bits = SupportedBits::from_bits(params.bits)?;
        if params.group_size == 0 {
            return Err(CacheError::InvalidParameter("group_size must be >= 1"));
        }
        Ok(KiviCache {
            head_dim,
            params,
            bits,
            chunks: Vec::new(),
            res_keys: Matrix::zeros(0, head_dim),
            res_values: Matrix::zeros(0, head_dim),
            res_positions: Vec::new(),
            tile: Matrix::zeros(0, head_dim),
            seen: 0,
            err_sum: 0.0,
            err_count: 0,
        })
    }

    /// The configured hyper-parameters.
    pub fn params(&self) -> KiviParams {
        self.params
    }

    /// Number of tokens currently in quantized storage.
    pub fn quantized_len(&self) -> usize {
        self.chunks.iter().map(|c| c.positions.len()).sum()
    }

    /// Number of tokens in the full-precision residual window.
    pub fn residual_len(&self) -> usize {
        self.res_positions.len()
    }

    /// Rebuilds the view by re-dequantizing every chunk from its packed
    /// codes with per-row `push_row` growth — the original decode path.
    /// Retained as the exact-equality oracle: the fused
    /// [`KvCache::attend`] kernels must be bitwise indistinguishable
    /// from running naive attention over this view.
    pub fn view_uncached(&self) -> KvView {
        let mut keys = Matrix::zeros(0, self.head_dim);
        let mut values = Matrix::zeros(0, self.head_dim);
        let mut positions = Vec::with_capacity(self.len());
        for chunk in &self.chunks {
            let dk = chunk.keys.dequantize();
            let dv = chunk.values.dequantize();
            for r in 0..dk.rows() {
                keys.push_row(dk.row(r));
                values.push_row(dv.row(r));
            }
            positions.extend_from_slice(&chunk.positions);
        }
        for r in 0..self.res_keys.rows() {
            keys.push_row(self.res_keys.row(r));
            values.push_row(self.res_values.row(r));
        }
        positions.extend_from_slice(&self.res_positions);
        KvView {
            keys,
            values,
            positions,
        }
    }

    /// Flushes aged-out residual tokens into quantized groups.
    fn maybe_flush(&mut self) {
        while self.res_positions.len() >= self.params.residual + self.params.group_size {
            let g = self.params.group_size;
            let key_chunk = self.res_keys.drain_front_rows(g);
            let val_chunk = self.res_values.drain_front_rows(g);
            let positions: Vec<usize> = self.res_positions.drain(0..g).collect();

            let qk = QuantizedMatrix::quantize(&key_chunk, GroupLayout::PerChannel, self.bits);
            let qv = QuantizedMatrix::quantize(&val_chunk, GroupLayout::PerToken, self.bits);

            // Track reconstruction error (keys dominate accuracy impact).
            // The dequantized form is transient: nothing full-precision
            // outlives the flush.
            let err = qk.dequantize().sub(&key_chunk);
            for e in err.as_slice() {
                self.err_sum += e.abs() as f64;
            }
            self.err_count += err.len() as u64;

            if self.chunks.is_empty() {
                self.tile = Matrix::zeros(g, self.head_dim);
            }
            self.chunks.push(QuantChunk {
                keys: qk,
                values: qv,
                positions,
            });
        }
    }
}

impl BlockRows for KiviCache {
    fn quiet_appends(&self) -> usize {
        // The window flushes on reaching `residual + group_size` rows.
        (self.params.residual + self.params.group_size - 1).saturating_sub(self.res_positions.len())
    }

    fn key_runs(&mut self, f: &mut dyn FnMut(&[f32])) {
        for chunk in &self.chunks {
            chunk.keys.dequantize_rows_into(&mut self.tile);
            f(&self.tile.as_slice()[..chunk.positions.len() * self.head_dim]);
        }
        f(self.res_keys.as_slice());
    }

    fn value_runs(&mut self, f: &mut dyn FnMut(&[f32])) {
        for chunk in &self.chunks {
            chunk.values.dequantize_rows_into(&mut self.tile);
            f(&self.tile.as_slice()[..chunk.positions.len() * self.head_dim]);
        }
        f(self.res_values.as_slice());
    }
}

impl KvCache for KiviCache {
    fn append(&mut self, key: &[f32], value: &[f32], pos: usize) {
        assert_eq!(key.len(), self.head_dim, "key dim mismatch");
        assert_eq!(value.len(), self.head_dim, "value dim mismatch");
        push_f16_row(&mut self.res_keys, key);
        push_f16_row(&mut self.res_values, value);
        self.res_positions.push(pos);
        self.seen += 1;
        self.maybe_flush();
    }

    fn view(&self) -> KvView {
        // Off the decode hot path since the fused `attend` override:
        // only inspection, eviction baselines, and tests materialize a
        // full view now, so chunks dequantize on demand into an
        // exact-size buffer. Bit-identical to `view_uncached` (same
        // per-element dequant, same row order).
        let hd = self.head_dim;
        let qrows = self.quantized_len();
        let total = qrows + self.res_keys.rows();
        let mut positions = Vec::with_capacity(total);
        for chunk in &self.chunks {
            positions.extend_from_slice(&chunk.positions);
        }
        positions.extend_from_slice(&self.res_positions);
        let mut keys = Matrix::zeros(total, hd);
        let mut values = Matrix::zeros(total, hd);
        let mut r0 = 0;
        for chunk in &self.chunks {
            let dk = chunk.keys.dequantize();
            let dv = chunk.values.dequantize();
            for r in 0..dk.rows() {
                keys.row_mut(r0 + r).copy_from_slice(dk.row(r));
                values.row_mut(r0 + r).copy_from_slice(dv.row(r));
            }
            r0 += dk.rows();
        }
        for r in 0..self.res_keys.rows() {
            keys.row_mut(qrows + r).copy_from_slice(self.res_keys.row(r));
            values.row_mut(qrows + r).copy_from_slice(self.res_values.row(r));
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
        // Fused score loop: per-channel key groups decode in-register as
        // the dot consumes them — no f32 view is materialized. Row order
        // (flushed chunks in flush order, then the residual window) and
        // each dot's ascending-channel fold match the view path exactly,
        // so the scores are bit-identical to the naive loops over `view`.
        scores.clear();
        for chunk in &self.chunks {
            chunk.keys.fused_dots_into(query, scale, scores);
        }
        let quantized = scores.len();
        scores.resize(quantized + self.res_keys.rows(), 0.0);
        dots_into(self.res_keys.as_slice(), query, scale, &mut scores[quantized..]);
        softmax_into(scores, weights);
        // Fused weighted sum: per-token value groups decode in-register
        // into the output accumulation, same term order as the view path.
        let mut wi = 0;
        for chunk in &self.chunks {
            let n = chunk.positions.len();
            chunk.values.fused_axpy_rows(&weights[wi..wi + n], out);
            wi += n;
        }
        axpy_rows(self.res_values.as_slice(), &weights[wi..], out);
        self.observe_attention(weights);
    }

    fn extend_attend(&mut self, batch: &AttendBatch<'_>, scratch: &mut AttendScratch, out: &mut [f32]) {
        extend_attend_blocked(self, batch, scratch, out);
    }

    fn len(&self) -> usize {
        self.quantized_len() + self.residual_len()
    }

    fn seen(&self) -> usize {
        self.seen
    }

    fn memory_bytes(&self) -> usize {
        let quant: usize = self
            .chunks
            .iter()
            .map(|c| c.keys.memory_bytes() + c.values.memory_bytes())
            .sum();
        let residual = 2 * self.res_positions.len() * self.head_dim * 2;
        quant + residual
    }

    fn resident_bytes(&self) -> usize {
        // Exact in-process accounting: packed codes at true size with f32
        // group constants, plus the f32-backed residual window. Nothing
        // else is held — the flush-time dequant memos that used to add a
        // full-precision copy of every quantized chunk are gone.
        let quant: usize = self
            .chunks
            .iter()
            .map(|c| c.keys.resident_bytes() + c.values.resident_bytes())
            .sum();
        let residual = 2 * self.res_positions.len() * self.head_dim * 4;
        quant + residual
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

rkvc_tensor::json_struct!(KiviParams { bits, group_size, residual });

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_tensor::seeded_rng;

    fn small_params() -> KiviParams {
        KiviParams {
            bits: 4,
            group_size: 4,
            residual: 8,
        }
    }

    fn fill(cache: &mut KiviCache, n: usize, dim: usize, seed: u64) {
        let mut rng = seeded_rng(seed);
        for pos in 0..n {
            let k: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            cache.append(&k, &v, pos);
        }
    }

    #[test]
    fn retains_every_token() {
        let mut c = KiviCache::new(4, small_params()).unwrap();
        fill(&mut c, 50, 4, 1);
        assert_eq!(c.len(), 50);
        assert_eq!(c.seen(), 50);
        let v = c.view();
        assert_eq!(v.positions, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn residual_window_respected() {
        let mut c = KiviCache::new(4, small_params()).unwrap();
        fill(&mut c, 40, 4, 2);
        // Residual holds between R and R+G-1 tokens.
        assert!(c.residual_len() >= 8 && c.residual_len() < 8 + 4);
        assert_eq!(c.quantized_len() + c.residual_len(), 40);
        // Flushes happen in exact multiples of G.
        assert_eq!(c.quantized_len() % 4, 0);
    }

    #[test]
    fn short_sequences_stay_full_precision() {
        let mut c = KiviCache::new(4, small_params()).unwrap();
        fill(&mut c, 8, 4, 3);
        assert_eq!(c.quantized_len(), 0);
        assert_eq!(c.stats().mean_quant_error, 0.0);
    }

    #[test]
    fn compresses_memory_vs_fp16() {
        let mut c = KiviCache::new(32, KiviParams { bits: 2, group_size: 8, residual: 8 }).unwrap();
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
        let mut c = KiviCache::new(8, small_params()).unwrap();
        fill(&mut c, 64, 8, 5);
        let stats = c.stats();
        assert!(stats.mean_quant_error > 0.0);
        assert!(stats.mean_quant_error < 0.1, "err = {}", stats.mean_quant_error);
    }

    #[test]
    fn two_bits_noisier_than_four() {
        let mut c2 = KiviCache::new(8, KiviParams { bits: 2, ..small_params() }).unwrap();
        let mut c4 = KiviCache::new(8, small_params()).unwrap();
        fill(&mut c2, 64, 8, 6);
        fill(&mut c4, 64, 8, 6);
        assert!(c2.stats().mean_quant_error > c4.stats().mean_quant_error);
    }

    #[test]
    fn view_preserves_recent_tokens_exactly() {
        let mut c = KiviCache::new(2, small_params()).unwrap();
        fill(&mut c, 30, 2, 7);
        let k_last = vec![0.25f32, -0.75];
        c.append(&k_last, &[0.5, 0.5], 30);
        let v = c.view();
        let last = v.keys.row(v.keys.rows() - 1);
        assert_eq!(last, &k_last[..]); // Representable in f16, kept in residual.
    }

    /// Exact-size view assembly must be indistinguishable from the
    /// push_row-based oracle.
    #[test]
    fn view_matches_uncached_oracle() {
        let mut c = KiviCache::new(8, small_params()).unwrap();
        fill(&mut c, 70, 8, 8);
        let fast = c.view();
        let slow = c.view_uncached();
        assert_eq!(fast.positions, slow.positions);
        assert_eq!(fast.keys, slow.keys);
        assert_eq!(fast.values, slow.values);
    }

    /// The fused attend override must be bitwise equal to replaying the
    /// default view-based sequence over `view_uncached`.
    #[test]
    fn fused_attend_matches_view_oracle() {
        let mut c = KiviCache::new(8, small_params()).unwrap();
        fill(&mut c, 70, 8, 9);
        let mut rng = seeded_rng(10);
        let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let scale = 0.35355339;

        let view = c.view_uncached();
        let mut oracle_out = vec![0.0f32; 8];
        let mut oracle_scores = Vec::new();
        for r in 0..view.len() {
            let dot: f32 = view.keys.row(r).iter().zip(&q).map(|(a, b)| a * b).sum();
            oracle_scores.push(dot * scale);
        }
        let mut oracle_weights = Vec::new();
        softmax_into(&oracle_scores, &mut oracle_weights);
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

    /// Resident accounting holds packed codes + the f32 residual window
    /// only — dropping the dequant memos means residency sits far below
    /// a full-precision copy of the stream.
    #[test]
    fn resident_bytes_reflect_packed_storage() {
        let mut c = KiviCache::new(8, small_params()).unwrap();
        fill(&mut c, 70, 8, 11);
        let stats = c.stats();
        assert_eq!(stats.resident_bytes, c.resident_bytes());
        // The memo era held, on top of today's residency, a full f32
        // copy of every quantized token (keys and values) — resident
        // accounting must now sit strictly below even a plain f32 copy
        // of the stream.
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
        assert!(KiviCache::new(4, KiviParams { bits: 3, ..small_params() }).is_err());
        assert!(KiviCache::new(4, KiviParams { group_size: 0, ..small_params() }).is_err());
    }
}
