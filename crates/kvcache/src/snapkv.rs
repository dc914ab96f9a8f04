//! SnapKV: prefill-time selection of clustered important positions
//! (Li et al., 2024).
//!
//! SnapKV compresses the *prompt* KV cache once, at the end of prefill: the
//! attention patterns of the last `obs_window` prompt queries vote for
//! important prompt positions; votes are smoothed with a 1-D max-pool
//! (clustering) and the top `budget` positions are retained alongside the
//! observation window itself. Decode-time tokens are appended without
//! eviction. The appendix (Figure 9) measures its throughput profile.

use rkvc_tensor::Matrix;
use std::collections::VecDeque;

use crate::cache::push_f16_row;
use crate::{CacheError, CacheStats, KvCache, KvView};

/// Hyper-parameters for [`SnapKvCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapKvParams {
    /// Prompt KV budget retained after prefill compression (excluding the
    /// observation window, which is always kept).
    pub budget: usize,
    /// Number of trailing prompt queries whose attention votes for
    /// importance (paper: 16–64).
    pub obs_window: usize,
    /// 1-D max-pool kernel for clustering votes (paper: 5–7, odd).
    pub kernel: usize,
}

impl Default for SnapKvParams {
    fn default() -> Self {
        SnapKvParams {
            budget: 448,
            obs_window: 32,
            kernel: 5,
        }
    }
}

/// The SnapKV prefill-compression cache.
///
/// # Examples
///
/// ```
/// use rkvc_kvcache::{SnapKvCache, SnapKvParams, KvCache};
///
/// let params = SnapKvParams { budget: 4, obs_window: 2, kernel: 3 };
/// let mut cache = SnapKvCache::new(2, params)?;
/// for pos in 0..16 {
///     cache.append(&[0.0; 2], &[0.0; 2], pos);
///     let n = cache.len();
///     cache.observe_attention(&vec![1.0 / n as f32; n]);
/// }
/// cache.finish_prefill();
/// assert!(cache.len() <= 4 + 2); // budget + observation window
/// # Ok::<(), rkvc_kvcache::CacheError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SnapKvCache {
    head_dim: usize,
    params: SnapKvParams,
    keys: Matrix,
    values: Matrix,
    positions: Vec<usize>,
    /// Attention vectors from the most recent `obs_window` queries
    /// (only tracked until prefill finishes).
    observations: VecDeque<Vec<f32>>,
    prefill_done: bool,
    seen: usize,
    evicted: usize,
}

impl SnapKvCache {
    /// Creates a SnapKV cache for `head_dim`-dimensional heads.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidParameter`] if `budget` or `obs_window`
    /// is zero, or `kernel` is even or zero.
    pub fn new(head_dim: usize, params: SnapKvParams) -> Result<Self, CacheError> {
        if params.budget == 0 {
            return Err(CacheError::InvalidParameter("budget must be >= 1"));
        }
        if params.obs_window == 0 {
            return Err(CacheError::InvalidParameter("obs_window must be >= 1"));
        }
        if params.kernel == 0 || params.kernel % 2 == 0 {
            return Err(CacheError::InvalidParameter("kernel must be odd and >= 1"));
        }
        Ok(SnapKvCache {
            head_dim,
            params,
            keys: Matrix::zeros(0, head_dim),
            values: Matrix::zeros(0, head_dim),
            positions: Vec::new(),
            observations: VecDeque::new(),
            prefill_done: false,
            seen: 0,
            evicted: 0,
        })
    }

    /// The configured hyper-parameters.
    pub fn params(&self) -> SnapKvParams {
        self.params
    }

    /// Whether prefill compression has run.
    pub fn is_compressed(&self) -> bool {
        self.prefill_done
    }

    /// Aggregated, max-pooled vote scores over the current prompt positions.
    fn pooled_votes(&self) -> Vec<f32> {
        let n = self.positions.len();
        let mut votes = vec![0.0f32; n];
        for obs in &self.observations {
            for (i, w) in obs.iter().enumerate().take(n) {
                votes[i] += w;
            }
        }
        // 1-D max pooling clusters neighbouring importance.
        let half = self.params.kernel / 2;
        let mut pooled = vec![0.0f32; n];
        for i in 0..n {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            // rkvc-allow(D006): max-pooling is order-insensitive over the finite vote scores
            pooled[i] = votes[lo..hi].iter().copied().fold(0.0, f32::max);
        }
        pooled
    }
}

impl KvCache for SnapKvCache {
    fn append(&mut self, key: &[f32], value: &[f32], pos: usize) {
        assert_eq!(key.len(), self.head_dim, "key dim mismatch");
        assert_eq!(value.len(), self.head_dim, "value dim mismatch");
        push_f16_row(&mut self.keys, key);
        push_f16_row(&mut self.values, value);
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

    fn observe_attention(&mut self, weights: &[f32]) {
        if self.prefill_done {
            return; // SnapKV only votes during prefill.
        }
        // The window is a ring: once full, the vector retiring from the
        // front is refilled and becomes the newest entry.
        let mut obs = if self.observations.len() >= self.params.obs_window {
            self.observations.pop_front().unwrap_or_default()
        } else {
            Vec::new()
        };
        obs.clear();
        obs.extend_from_slice(weights);
        self.observations.push_back(obs);
    }

    fn finish_prefill(&mut self) {
        if self.prefill_done {
            return;
        }
        self.prefill_done = true;
        let n = self.positions.len();
        let keep_tail = self.params.obs_window.min(n);
        let prefix = n - keep_tail;
        if prefix <= self.params.budget {
            return; // Nothing to compress.
        }

        let pooled = self.pooled_votes();
        // Select the top-`budget` prefix positions by pooled vote.
        let mut idx: Vec<usize> = (0..prefix).collect();
        idx.sort_by(|&a, &b| {
            pooled[b]
                .partial_cmp(&pooled[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut selected: Vec<usize> = idx.into_iter().take(self.params.budget).collect();
        selected.sort_unstable();
        selected.extend(prefix..n); // Observation window always kept.

        self.evicted += n - selected.len();
        self.keys = self.keys.select_rows(&selected);
        self.values = self.values.select_rows(&selected);
        self.positions = selected.iter().map(|&i| self.positions[i]).collect();
        self.observations.clear();
    }

    fn len(&self) -> usize {
        self.positions.len()
    }

    fn seen(&self) -> usize {
        self.seen
    }

    fn memory_bytes(&self) -> usize {
        2 * self.positions.len() * self.head_dim * 2
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            tokens_seen: self.seen,
            tokens_retained: self.len(),
            tokens_evicted: self.evicted,
            memory_bytes: self.memory_bytes(),
            resident_bytes: self.resident_bytes(),
            fp16_baseline_bytes: 2 * self.seen * self.head_dim * 2,
            mean_quant_error: 0.0,
        }
    }

    fn name(&self) -> String {
        format!("snapkv-{}", self.params.budget)
    }
}

rkvc_tensor::json_struct!(SnapKvParams { budget, obs_window, kernel });

#[cfg(test)]
mod tests {
    use super::*;

    fn observe_uniform(c: &mut SnapKvCache) {
        let n = c.len();
        c.observe_attention(&vec![1.0 / n as f32; n]);
    }

    #[test]
    fn compresses_only_at_prefill_end() {
        let mut c =
            SnapKvCache::new(2, SnapKvParams { budget: 3, obs_window: 2, kernel: 3 }).unwrap();
        for pos in 0..12 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
            observe_uniform(&mut c);
        }
        assert_eq!(c.len(), 12); // No compression yet.
        c.finish_prefill();
        assert_eq!(c.len(), 3 + 2);
        assert!(c.is_compressed());
    }

    #[test]
    fn decode_tokens_never_evicted() {
        let mut c =
            SnapKvCache::new(2, SnapKvParams { budget: 2, obs_window: 2, kernel: 3 }).unwrap();
        for pos in 0..10 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
            observe_uniform(&mut c);
        }
        c.finish_prefill();
        let after_prefill = c.len();
        for pos in 10..20 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
        }
        assert_eq!(c.len(), after_prefill + 10);
    }

    #[test]
    fn heavily_attended_positions_survive() {
        let mut c =
            SnapKvCache::new(2, SnapKvParams { budget: 2, obs_window: 2, kernel: 1 }).unwrap();
        for pos in 0..10 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
            let n = c.len();
            let mut w = vec![0.0; n];
            // All queries vote hard for position 3.
            if n > 3 {
                w[3] = 1.0;
            }
            c.observe_attention(&w);
        }
        c.finish_prefill();
        assert!(c.view().positions.contains(&3), "{:?}", c.view().positions);
    }

    #[test]
    fn observation_window_always_kept() {
        let mut c =
            SnapKvCache::new(2, SnapKvParams { budget: 1, obs_window: 3, kernel: 3 }).unwrap();
        for pos in 0..9 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
            observe_uniform(&mut c);
        }
        c.finish_prefill();
        let v = c.view();
        for want in 6..9 {
            assert!(v.positions.contains(&want));
        }
    }

    #[test]
    fn short_prompts_untouched() {
        let mut c =
            SnapKvCache::new(2, SnapKvParams { budget: 8, obs_window: 4, kernel: 3 }).unwrap();
        for pos in 0..6 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
            observe_uniform(&mut c);
        }
        c.finish_prefill();
        assert_eq!(c.len(), 6);
        assert_eq!(c.stats().tokens_evicted, 0);
    }

    #[test]
    fn kernel_clusters_neighbours() {
        // With a kernel of 3, a single high vote should drag in neighbours
        // via max pooling, so the selection is a contiguous cluster.
        let mut c =
            SnapKvCache::new(2, SnapKvParams { budget: 3, obs_window: 1, kernel: 3 }).unwrap();
        for pos in 0..12 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
            let n = c.len();
            let mut w = vec![0.0; n];
            if n > 5 {
                w[5] = 1.0;
            }
            c.observe_attention(&w);
        }
        c.finish_prefill();
        let v = c.view();
        assert!(v.positions.contains(&4));
        assert!(v.positions.contains(&5));
        assert!(v.positions.contains(&6));
    }

    #[test]
    fn rejects_bad_params() {
        assert!(SnapKvCache::new(2, SnapKvParams { budget: 0, obs_window: 2, kernel: 3 }).is_err());
        assert!(SnapKvCache::new(2, SnapKvParams { budget: 2, obs_window: 0, kernel: 3 }).is_err());
        assert!(SnapKvCache::new(2, SnapKvParams { budget: 2, obs_window: 2, kernel: 4 }).is_err());
    }
}
