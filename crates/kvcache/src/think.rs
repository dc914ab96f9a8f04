//! ThinK: channel-dimension KV eviction (Xu et al., 2024).
//!
//! The survey's only *channel-level* policy (§3.1.2): instead of dropping
//! tokens, ThinK prunes the least important **key channels**, achieving a
//! constant memory reduction irrespective of sequence length. We rank
//! channels by their observed magnitude over the prompt (a simplification of
//! the paper's query-driven criterion, documented here) and prune at the end
//! of prefill; pruned channels read back as zero.

use rkvc_tensor::Matrix;

use crate::cache::push_f16_row;
use crate::{CacheError, CacheStats, KvCache, KvView};

/// Hyper-parameters for [`ThinkCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThinkParams {
    /// Fraction of key channels retained (paper evaluates ~0.4–0.8,
    /// reporting 1.25x memory reduction at 0.8).
    pub keep_ratio: f32,
}

impl Default for ThinkParams {
    fn default() -> Self {
        ThinkParams { keep_ratio: 0.6 }
    }
}

/// The ThinK channel-pruning cache.
///
/// # Examples
///
/// ```
/// use rkvc_kvcache::{KvCache, ThinkCache, ThinkParams};
///
/// let mut cache = ThinkCache::new(8, ThinkParams { keep_ratio: 0.5 })?;
/// for pos in 0..16 {
///     cache.append(&[1.0; 8], &[1.0; 8], pos);
/// }
/// cache.finish_prefill();
/// assert_eq!(cache.len(), 16);       // No tokens dropped...
/// assert_eq!(cache.pruned_channels(), 4); // ...half the key channels are.
/// # Ok::<(), rkvc_kvcache::CacheError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ThinkCache {
    head_dim: usize,
    params: ThinkParams,
    keys: Matrix,
    values: Matrix,
    positions: Vec<usize>,
    /// Channels zeroed after prefill (sorted).
    pruned: Vec<usize>,
    seen: usize,
}

impl ThinkCache {
    /// Creates a ThinK cache for `head_dim`-dimensional heads.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidParameter`] unless
    /// `0 < keep_ratio <= 1`.
    pub fn new(head_dim: usize, params: ThinkParams) -> Result<Self, CacheError> {
        if !(params.keep_ratio > 0.0 && params.keep_ratio <= 1.0) {
            return Err(CacheError::InvalidParameter("keep_ratio must be in (0, 1]"));
        }
        Ok(ThinkCache {
            head_dim,
            params,
            keys: Matrix::zeros(0, head_dim),
            values: Matrix::zeros(0, head_dim),
            positions: Vec::new(),
            pruned: Vec::new(),
            seen: 0,
        })
    }

    /// The configured hyper-parameters.
    pub fn params(&self) -> ThinkParams {
        self.params
    }

    /// Number of key channels pruned (0 before prefill compression).
    pub fn pruned_channels(&self) -> usize {
        self.pruned.len()
    }

    fn kept_channels(&self) -> usize {
        self.head_dim - self.pruned.len()
    }
}

impl KvCache for ThinkCache {
    fn append(&mut self, key: &[f32], value: &[f32], pos: usize) {
        assert_eq!(key.len(), self.head_dim, "key dim mismatch");
        assert_eq!(value.len(), self.head_dim, "value dim mismatch");
        push_f16_row(&mut self.keys, key);
        push_f16_row(&mut self.values, value);
        // Channels pruned at prefill stay pruned for decode appends — the
        // policy's constant-width storage.
        let stored = self.keys.row_mut(self.keys.rows() - 1);
        for &c in &self.pruned {
            stored[c] = 0.0;
        }
        self.positions.push(pos);
        self.seen += 1;
    }

    fn view(&self) -> KvView {
        KvView {
            keys: self.keys.clone(),
            values: self.values.clone(),
            positions: self.positions.clone(),
        }
    }

    fn dense_rows(&self) -> Option<(&Matrix, &Matrix)> {
        Some((&self.keys, &self.values))
    }

    fn finish_prefill(&mut self) {
        if !self.pruned.is_empty() || self.positions.is_empty() {
            return;
        }
        let keep = ((self.head_dim as f32 * self.params.keep_ratio).round() as usize)
            .clamp(1, self.head_dim);
        if keep == self.head_dim {
            return;
        }
        // Channel importance: mean |k| over the prompt (magnitude criterion;
        // the paper's query-driven score needs the incoming queries, which a
        // cache-local policy approximates by key energy).
        let mut importance: Vec<(usize, f32)> = (0..self.head_dim)
            .map(|c| {
                let sum: f32 = (0..self.keys.rows())
                    .map(|r| self.keys.get(r, c).abs())
                    .sum();
                (c, sum)
            })
            .collect();
        importance.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        self.pruned = importance[keep..].iter().map(|&(c, _)| c).collect();
        self.pruned.sort_unstable();
        for r in 0..self.keys.rows() {
            for &c in &self.pruned {
                self.keys.set(r, c, 0.0);
            }
        }
    }

    fn len(&self) -> usize {
        self.positions.len()
    }

    fn seen(&self) -> usize {
        self.seen
    }

    fn memory_bytes(&self) -> usize {
        // Keys store only the kept channels; values stay full width.
        self.positions.len() * (self.kept_channels() + self.head_dim) * 2
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            tokens_seen: self.seen,
            tokens_retained: self.len(),
            tokens_evicted: 0,
            memory_bytes: self.memory_bytes(),
            resident_bytes: self.resident_bytes(),
            fp16_baseline_bytes: 2 * self.seen * self.head_dim * 2,
            mean_quant_error: 0.0,
        }
    }

    fn name(&self) -> String {
        format!("think-{:.0}", self.params.keep_ratio * 100.0)
    }
}

rkvc_tensor::json_struct!(ThinkParams { keep_ratio });

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_tensor::seeded_rng;

    fn filled(keep: f32, n: usize) -> ThinkCache {
        let mut c = ThinkCache::new(8, ThinkParams { keep_ratio: keep }).unwrap();
        let mut rng = seeded_rng(3);
        for pos in 0..n {
            let k: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            c.append(&k, &[0.5; 8], pos);
        }
        c.finish_prefill();
        c
    }

    #[test]
    fn prunes_the_configured_fraction() {
        let c = filled(0.5, 20);
        assert_eq!(c.pruned_channels(), 4);
        assert_eq!(c.len(), 20);
    }

    #[test]
    fn pruned_channels_read_zero_everywhere() {
        let mut c = filled(0.5, 20);
        c.append(&[1.0; 8], &[1.0; 8], 20); // Decode append after pruning.
        let v = c.view();
        let mut zero_cols = 0;
        for col in 0..8 {
            if (0..v.keys.rows()).all(|r| v.keys.get(r, col) == 0.0) {
                zero_cols += 1;
            }
        }
        assert_eq!(zero_cols, 4);
    }

    #[test]
    fn keeps_high_energy_channels() {
        let mut c = ThinkCache::new(4, ThinkParams { keep_ratio: 0.5 }).unwrap();
        for pos in 0..10 {
            // Channels 1 and 3 dominate.
            c.append(&[0.01, 2.0, 0.02, 3.0], &[0.0; 4], pos);
        }
        c.finish_prefill();
        let v = c.view();
        assert_ne!(v.keys.get(0, 1), 0.0);
        assert_ne!(v.keys.get(0, 3), 0.0);
        assert_eq!(v.keys.get(0, 0), 0.0);
        assert_eq!(v.keys.get(0, 2), 0.0);
    }

    #[test]
    fn memory_reduction_is_length_independent() {
        let short = filled(0.5, 10);
        let long = filled(0.5, 100);
        let ratio_short = short.stats().compression_ratio();
        let ratio_long = long.stats().compression_ratio();
        assert!((ratio_short - ratio_long).abs() < 1e-9);
        // K halved, V full: 1.5/2 of fp16 -> ratio 4/3.
        assert!((ratio_short - 4.0 / 3.0).abs() < 1e-9, "{ratio_short}");
    }

    #[test]
    fn keep_ratio_one_is_lossless() {
        let c = filled(1.0, 12);
        assert_eq!(c.pruned_channels(), 0);
        assert_eq!(c.stats().compression_ratio(), 1.0);
    }

    #[test]
    fn invalid_ratio_rejected() {
        assert!(ThinkCache::new(4, ThinkParams { keep_ratio: 0.0 }).is_err());
        assert!(ThinkCache::new(4, ThinkParams { keep_ratio: 1.5 }).is_err());
    }
}
