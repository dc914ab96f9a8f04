//! TOVA: Token Omission Via Attention (Oren et al., 2024).
//!
//! The paper's survey (Table 1) lists TOVA as the policy that makes even
//! *recent* tokens evictable: at every step the token with the lowest
//! attention weight from the **current** query is dropped — no accumulated
//! score, no protected window. Implemented here as an extension algorithm
//! for the ablation studies.

use rkvc_tensor::Matrix;

use crate::cache::push_f16_row;
use crate::{CacheError, CacheStats, KvCache, KvView};

/// Hyper-parameters for [`TovaCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TovaParams {
    /// Maximum retained tokens.
    pub budget: usize,
}

impl Default for TovaParams {
    fn default() -> Self {
        TovaParams { budget: 512 }
    }
}

/// The TOVA current-attention eviction cache.
///
/// # Examples
///
/// ```
/// use rkvc_kvcache::{KvCache, TovaCache, TovaParams};
///
/// let mut cache = TovaCache::new(4, TovaParams { budget: 8 })?;
/// for pos in 0..20 {
///     cache.append(&[0.0; 4], &[0.0; 4], pos);
///     let n = cache.len();
///     cache.observe_attention(&vec![1.0 / n as f32; n]);
/// }
/// assert!(cache.len() <= 8);
/// # Ok::<(), rkvc_kvcache::CacheError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TovaCache {
    head_dim: usize,
    params: TovaParams,
    keys: Matrix,
    values: Matrix,
    positions: Vec<usize>,
    seen: usize,
    evicted: usize,
}

impl TovaCache {
    /// Creates a TOVA cache for `head_dim`-dimensional heads.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidParameter`] if the budget is zero.
    pub fn new(head_dim: usize, params: TovaParams) -> Result<Self, CacheError> {
        if params.budget == 0 {
            return Err(CacheError::InvalidParameter("budget must be >= 1"));
        }
        Ok(TovaCache {
            head_dim,
            params,
            keys: Matrix::zeros(0, head_dim),
            values: Matrix::zeros(0, head_dim),
            positions: Vec::new(),
            seen: 0,
            evicted: 0,
        })
    }

    /// The configured hyper-parameters.
    pub fn params(&self) -> TovaParams {
        self.params
    }

    fn remove_row(&mut self, idx: usize) {
        self.keys.remove_row(idx);
        self.values.remove_row(idx);
        self.positions.remove(idx);
        self.evicted += 1;
    }
}

impl KvCache for TovaCache {
    fn append(&mut self, key: &[f32], value: &[f32], pos: usize) {
        assert_eq!(key.len(), self.head_dim, "key dim mismatch");
        assert_eq!(value.len(), self.head_dim, "value dim mismatch");
        push_f16_row(&mut self.keys, key);
        push_f16_row(&mut self.values, value);
        self.positions.push(pos);
        self.seen += 1;
        // If no attention feedback arrives before the next append (a
        // caller that never observes), fall back to dropping the oldest.
        while self.positions.len() > self.params.budget + 1 {
            self.remove_row(0);
        }
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
        // Evict the minimum-attention token once over budget — current
        // query only, everything (including the newest token) evictable.
        if self.positions.len() > self.params.budget {
            let n = weights.len().min(self.positions.len());
            let min_idx = (0..n).min_by(|&a, &b| {
                weights[a]
                    .partial_cmp(&weights[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            if let Some(min_idx) = min_idx {
                self.remove_row(min_idx);
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
        format!("tova-{}", self.params.budget)
    }
}

rkvc_tensor::json_struct!(TovaParams { budget });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_budget_with_observation() {
        let mut c = TovaCache::new(2, TovaParams { budget: 4 }).unwrap();
        for pos in 0..20 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
            let n = c.len();
            c.observe_attention(&vec![1.0 / n as f32; n]);
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.stats().tokens_evicted, 16);
    }

    #[test]
    fn evicts_the_least_attended_token() {
        let mut c = TovaCache::new(2, TovaParams { budget: 3 }).unwrap();
        for pos in 0..4 {
            c.append(&[pos as f32; 2], &[0.0; 2], pos);
        }
        // Position 2 gets the lowest attention: it must be evicted.
        c.observe_attention(&[0.3, 0.3, 0.05, 0.35]);
        assert_eq!(c.view().positions, vec![0, 1, 3]);
    }

    #[test]
    fn recent_tokens_are_evictable() {
        // Unlike H2O/StreamingLLM, the newest token can be dropped.
        let mut c = TovaCache::new(2, TovaParams { budget: 3 }).unwrap();
        for pos in 0..4 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
        }
        c.observe_attention(&[0.4, 0.3, 0.29, 0.01]);
        assert_eq!(c.view().positions, vec![0, 1, 2]);
    }

    #[test]
    fn survives_without_observations() {
        let mut c = TovaCache::new(2, TovaParams { budget: 4 }).unwrap();
        for pos in 0..20 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
        }
        assert!(c.len() <= 5);
    }

    #[test]
    fn zero_budget_rejected() {
        assert!(TovaCache::new(2, TovaParams { budget: 0 }).is_err());
    }
}
