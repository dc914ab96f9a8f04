//! H2O: the Heavy-Hitter Oracle eviction policy (Zhang et al., 2024).
//!
//! H2O observes that attention mass concentrates on a small set of tokens
//! (the *heavy hitters*). It keeps a budget of `heavy + recent` tokens: the
//! most recent `recent` tokens are always retained, and among older tokens
//! the ones with the highest *accumulated attention score* survive. Scores
//! are refreshed from every attention computation — the extra score pass the
//! paper identifies as incompatible with one-pass FlashAttention.

use rkvc_tensor::Matrix;

use crate::cache::push_f16_row;
use crate::{CacheError, CacheStats, KvCache, KvView};

/// Hyper-parameters for [`H2OCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct H2OParams {
    /// Heavy-hitter budget (paper: 64).
    pub heavy: usize,
    /// Recent-window budget (paper: 448; total cache 512).
    pub recent: usize,
}

impl Default for H2OParams {
    fn default() -> Self {
        H2OParams {
            heavy: 64,
            recent: 448,
        }
    }
}

impl H2OParams {
    /// Total token budget `heavy + recent`.
    pub fn budget(&self) -> usize {
        self.heavy + self.recent
    }
}

/// The H2O heavy-hitter eviction cache.
///
/// # Examples
///
/// ```
/// use rkvc_kvcache::{H2OCache, H2OParams, KvCache};
///
/// let mut cache = H2OCache::new(4, H2OParams { heavy: 2, recent: 6 })?;
/// for pos in 0..20 {
///     cache.append(&[1.0; 4], &[1.0; 4], pos);
///     let n = cache.len();
///     // Uniform attention over current entries.
///     cache.observe_attention(&vec![1.0 / n as f32; n]);
/// }
/// assert_eq!(cache.len(), 8); // Capped at heavy + recent.
/// # Ok::<(), rkvc_kvcache::CacheError>(())
/// ```
#[derive(Debug, Clone)]
pub struct H2OCache {
    head_dim: usize,
    params: H2OParams,
    keys: Matrix,
    values: Matrix,
    positions: Vec<usize>,
    scores: Vec<f32>,
    seen: usize,
    evicted: usize,
}

impl H2OCache {
    /// Creates an H2O cache for `head_dim`-dimensional heads.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidParameter`] if both budgets are zero.
    pub fn new(head_dim: usize, params: H2OParams) -> Result<Self, CacheError> {
        if params.budget() == 0 {
            return Err(CacheError::InvalidParameter("heavy + recent must be >= 1"));
        }
        Ok(H2OCache {
            head_dim,
            params,
            keys: Matrix::zeros(0, head_dim),
            values: Matrix::zeros(0, head_dim),
            positions: Vec::new(),
            scores: Vec::new(),
            seen: 0,
            evicted: 0,
        })
    }

    /// The configured hyper-parameters.
    pub fn params(&self) -> H2OParams {
        self.params
    }

    /// Accumulated attention score of retained token `i` (view order).
    pub fn score(&self, i: usize) -> f32 {
        self.scores[i]
    }

    fn evict_if_over_budget(&mut self) {
        while self.positions.len() > self.params.budget() {
            // Eviction scope: everything outside the recent window.
            let protected_from = self.positions.len().saturating_sub(self.params.recent);
            let candidate = (0..protected_from)
                .min_by(|&a, &b| {
                    self.scores[a]
                        .partial_cmp(&self.scores[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                // If the recent window covers everything (tiny budgets),
                // fall back to evicting the oldest token.
                .unwrap_or(0);
            self.remove_row(candidate);
            self.evicted += 1;
        }
    }

    fn remove_row(&mut self, idx: usize) {
        self.keys.remove_row(idx);
        self.values.remove_row(idx);
        self.positions.remove(idx);
        self.scores.remove(idx);
    }
}

impl KvCache for H2OCache {
    fn append(&mut self, key: &[f32], value: &[f32], pos: usize) {
        assert_eq!(key.len(), self.head_dim, "key dim mismatch");
        assert_eq!(value.len(), self.head_dim, "value dim mismatch");
        push_f16_row(&mut self.keys, key);
        push_f16_row(&mut self.values, value);
        self.positions.push(pos);
        self.scores.push(0.0);
        self.seen += 1;
        self.evict_if_over_budget();
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
        // Accumulate scores for the rows the weights refer to (the current
        // view, oldest first). Tolerate a shorter weight vector from causal
        // masking.
        let n = weights.len().min(self.scores.len());
        for i in 0..n {
            self.scores[i] += weights[i];
        }
    }

    fn len(&self) -> usize {
        self.positions.len()
    }

    fn seen(&self) -> usize {
        self.seen
    }

    fn memory_bytes(&self) -> usize {
        // FP16 K+V plus an FP16 accumulated score per retained token.
        2 * self.positions.len() * self.head_dim * 2 + self.positions.len() * 2
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
        format!("h2o-{}", self.params.budget())
    }
}

rkvc_tensor::json_struct!(H2OParams { heavy, recent });

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_observe(c: &mut H2OCache) {
        let n = c.len();
        c.observe_attention(&vec![1.0 / n as f32; n]);
    }

    #[test]
    fn respects_budget() {
        let mut c = H2OCache::new(2, H2OParams { heavy: 2, recent: 3 }).unwrap();
        for pos in 0..50 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
            uniform_observe(&mut c);
        }
        assert_eq!(c.len(), 5);
        assert_eq!(c.seen(), 50);
        assert_eq!(c.stats().tokens_evicted, 45);
    }

    #[test]
    fn recent_window_always_survives() {
        let mut c = H2OCache::new(2, H2OParams { heavy: 1, recent: 4 }).unwrap();
        for pos in 0..30 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
            uniform_observe(&mut c);
        }
        let v = c.view();
        // The last 4 positions must be present.
        for want in 26..30 {
            assert!(v.positions.contains(&want), "missing recent pos {want}");
        }
    }

    #[test]
    fn heavy_hitters_survive_by_score() {
        let mut c = H2OCache::new(2, H2OParams { heavy: 1, recent: 2 }).unwrap();
        // Token 0 gets huge attention mass; it should survive as the heavy
        // hitter even when old.
        for pos in 0..20 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
            let n = c.len();
            let mut w = vec![0.01; n];
            if let Some(idx) = c.view().positions.iter().position(|&p| p == 0) {
                w[idx] = 1.0;
            }
            c.observe_attention(&w);
        }
        assert!(
            c.view().positions.contains(&0),
            "heavy hitter evicted: {:?}",
            c.view().positions
        );
    }

    #[test]
    fn low_score_old_tokens_evicted_first() {
        let mut c = H2OCache::new(2, H2OParams { heavy: 2, recent: 2 }).unwrap();
        for pos in 0..10 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
            let n = c.len();
            // Later positions get higher scores.
            let w: Vec<f32> = c.view().positions.iter().map(|&p| p as f32).collect();
            debug_assert_eq!(w.len(), n);
            c.observe_attention(&w);
        }
        let pos = c.view().positions;
        // Positions 0 and 1 (lowest accumulated scores) should be gone.
        assert!(!pos.contains(&0));
        assert!(!pos.contains(&1));
    }

    #[test]
    fn view_order_is_append_order() {
        let mut c = H2OCache::new(2, H2OParams { heavy: 3, recent: 3 }).unwrap();
        for pos in 0..6 {
            c.append(&[pos as f32; 2], &[0.0; 2], pos);
            uniform_observe(&mut c);
        }
        let v = c.view();
        let mut sorted = v.positions.clone();
        sorted.sort_unstable();
        assert_eq!(v.positions, sorted);
    }

    #[test]
    fn zero_budget_rejected() {
        assert!(H2OCache::new(2, H2OParams { heavy: 0, recent: 0 }).is_err());
    }

    #[test]
    fn memory_stays_bounded() {
        let mut c = H2OCache::new(4, H2OParams { heavy: 4, recent: 4 }).unwrap();
        for pos in 0..100 {
            c.append(&[0.0; 4], &[0.0; 4], pos);
            uniform_observe(&mut c);
        }
        let cap = 2 * 8 * 4 * 2 + 8 * 2;
        assert!(c.memory_bytes() <= cap);
        assert!(c.stats().compression_ratio() > 10.0);
    }
}
