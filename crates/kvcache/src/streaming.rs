//! StreamingLLM: attention sinks + sliding window (Xiao et al., 2023).
//!
//! StreamingLLM keeps the KV entries of the first `sinks` tokens (the
//! *attention sinks*, which soak up softmax mass) plus a sliding window of
//! the most recent `recent` tokens, evicting everything in between. It needs
//! no attention scores at all — the structured pattern the paper credits for
//! its near-baseline prefill throughput.

use rkvc_tensor::Matrix;

use crate::cache::{extend_attend_blocked, push_f16_row, BlockRows, DENSE_BLOCK_TOKENS};
use crate::{AttendBatch, AttendScratch, CacheError, CacheStats, KvCache, KvView};

/// Hyper-parameters for [`StreamingLlmCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingParams {
    /// Number of initial sink tokens retained forever (paper: 64).
    pub sinks: usize,
    /// Sliding window of most recent tokens (paper: 448; total cache 512).
    pub recent: usize,
}

impl Default for StreamingParams {
    fn default() -> Self {
        StreamingParams {
            sinks: 64,
            recent: 448,
        }
    }
}

impl StreamingParams {
    /// Total token budget `sinks + recent`.
    pub fn budget(&self) -> usize {
        self.sinks + self.recent
    }
}

/// The StreamingLLM sink + sliding-window cache.
///
/// # Examples
///
/// ```
/// use rkvc_kvcache::{StreamingLlmCache, StreamingParams, KvCache};
///
/// let mut cache = StreamingLlmCache::new(4, StreamingParams { sinks: 2, recent: 4 })?;
/// for pos in 0..10 {
///     cache.append(&[0.0; 4], &[0.0; 4], pos);
/// }
/// let view = cache.view();
/// assert_eq!(view.positions, vec![0, 1, 6, 7, 8, 9]);
/// # Ok::<(), rkvc_kvcache::CacheError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingLlmCache {
    head_dim: usize,
    params: StreamingParams,
    keys: Matrix,
    values: Matrix,
    positions: Vec<usize>,
    seen: usize,
    evicted: usize,
}

impl StreamingLlmCache {
    /// Creates a StreamingLLM cache for `head_dim`-dimensional heads.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidParameter`] if the total budget is zero.
    pub fn new(head_dim: usize, params: StreamingParams) -> Result<Self, CacheError> {
        if params.budget() == 0 {
            return Err(CacheError::InvalidParameter("sinks + recent must be >= 1"));
        }
        Ok(StreamingLlmCache {
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
    pub fn params(&self) -> StreamingParams {
        self.params
    }
}

impl BlockRows for StreamingLlmCache {
    fn quiet_appends(&self) -> usize {
        // An FP16 cache until the budget is full; from then on every
        // append evicts, so blocks shrink to one token.
        self.params.budget().saturating_sub(self.positions.len()).min(DENSE_BLOCK_TOKENS - 1)
    }
}

impl KvCache for StreamingLlmCache {
    fn append(&mut self, key: &[f32], value: &[f32], pos: usize) {
        assert_eq!(key.len(), self.head_dim, "key dim mismatch");
        assert_eq!(value.len(), self.head_dim, "value dim mismatch");
        push_f16_row(&mut self.keys, key);
        push_f16_row(&mut self.values, value);
        self.positions.push(pos);
        self.seen += 1;

        while self.positions.len() > self.params.budget() {
            // Evict the oldest token that is not a sink.
            let idx = self.params.sinks.min(self.positions.len() - 1);
            self.keys.remove_row(idx);
            self.values.remove_row(idx);
            self.positions.remove(idx);
            self.evicted += 1;
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

    fn extend_attend(&mut self, batch: &AttendBatch<'_>, scratch: &mut AttendScratch, out: &mut [f32]) {
        extend_attend_blocked(self, batch, scratch, out);
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
        format!("stream-{}", self.params.budget())
    }
}

rkvc_tensor::json_struct!(StreamingParams { sinks, recent });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_sinks_and_recent_only() {
        let mut c = StreamingLlmCache::new(2, StreamingParams { sinks: 3, recent: 2 }).unwrap();
        for pos in 0..12 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
        }
        assert_eq!(c.view().positions, vec![0, 1, 2, 10, 11]);
        assert_eq!(c.stats().tokens_evicted, 7);
    }

    #[test]
    fn under_budget_keeps_everything() {
        let mut c = StreamingLlmCache::new(2, StreamingParams { sinks: 4, recent: 4 }).unwrap();
        for pos in 0..6 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
        }
        assert_eq!(c.view().positions, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn zero_sinks_is_pure_sliding_window() {
        let mut c = StreamingLlmCache::new(2, StreamingParams { sinks: 0, recent: 3 }).unwrap();
        for pos in 0..10 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
        }
        assert_eq!(c.view().positions, vec![7, 8, 9]);
    }

    #[test]
    fn memory_bounded_by_budget() {
        let mut c = StreamingLlmCache::new(8, StreamingParams { sinks: 2, recent: 6 }).unwrap();
        for pos in 0..500 {
            c.append(&[0.0; 8], &[0.0; 8], pos);
        }
        assert_eq!(c.memory_bytes(), 2 * 8 * 8 * 2);
        assert!(c.stats().compression_ratio() > 50.0);
    }

    #[test]
    fn attention_observations_ignored() {
        let mut c = StreamingLlmCache::new(2, StreamingParams { sinks: 1, recent: 2 }).unwrap();
        c.append(&[0.0; 2], &[0.0; 2], 0);
        c.observe_attention(&[1.0]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_budget_rejected() {
        assert!(StreamingLlmCache::new(2, StreamingParams { sinks: 0, recent: 0 }).is_err());
    }
}
