//! The FP16 full-precision baseline cache.

use rkvc_tensor::Matrix;

use crate::cache::{extend_attend_blocked, push_f16_row, BlockRows, DENSE_BLOCK_TOKENS};
use crate::{AttendBatch, AttendScratch, CacheStats, KvCache, KvView};

/// Full-precision (FP16) KV cache — the paper's baseline.
///
/// Every appended vector is rounded through IEEE binary16 before storage, so
/// the baseline carries exactly the precision of a production FP16 cache.
/// Nothing is ever evicted.
///
/// # Examples
///
/// ```
/// use rkvc_kvcache::{FullPrecisionCache, KvCache};
///
/// let mut cache = FullPrecisionCache::new(4);
/// cache.append(&[1.0, 2.0, 3.0, 4.0], &[0.5; 4], 0);
/// assert_eq!(cache.len(), 1);
/// assert_eq!(cache.memory_bytes(), 2 * 4 * 2); // K+V, 4 dims, 2 bytes each
/// ```
#[derive(Debug, Clone)]
pub struct FullPrecisionCache {
    head_dim: usize,
    keys: Matrix,
    values: Matrix,
    positions: Vec<usize>,
}

impl FullPrecisionCache {
    /// Creates an empty cache for vectors of dimension `head_dim`.
    pub fn new(head_dim: usize) -> Self {
        FullPrecisionCache {
            head_dim,
            keys: Matrix::zeros(0, head_dim),
            values: Matrix::zeros(0, head_dim),
            positions: Vec::new(),
        }
    }
}

impl BlockRows for FullPrecisionCache {
    fn quiet_appends(&self) -> usize {
        DENSE_BLOCK_TOKENS - 1
    }
}

impl KvCache for FullPrecisionCache {
    fn append(&mut self, key: &[f32], value: &[f32], pos: usize) {
        assert_eq!(key.len(), self.head_dim, "key dim mismatch");
        assert_eq!(value.len(), self.head_dim, "value dim mismatch");
        push_f16_row(&mut self.keys, key);
        push_f16_row(&mut self.values, value);
        self.positions.push(pos);
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
        self.positions.len()
    }

    fn memory_bytes(&self) -> usize {
        // K + V at 2 bytes per element.
        2 * self.positions.len() * self.head_dim * 2
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            tokens_seen: self.seen(),
            tokens_retained: self.len(),
            tokens_evicted: 0,
            memory_bytes: self.memory_bytes(),
            resident_bytes: self.resident_bytes(),
            fp16_baseline_bytes: self.memory_bytes(),
            mean_quant_error: 0.0,
        }
    }

    fn name(&self) -> String {
        "fp16".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_and_returns_all_tokens() {
        let mut c = FullPrecisionCache::new(2);
        for pos in 0..5 {
            c.append(&[pos as f32, 0.0], &[0.0, pos as f32], pos);
        }
        let v = c.view();
        assert_eq!(v.len(), 5);
        assert_eq!(v.positions, vec![0, 1, 2, 3, 4]);
        assert_eq!(v.keys.get(3, 0), 3.0);
        assert_eq!(v.values.get(4, 1), 4.0);
    }

    #[test]
    fn values_are_f16_rounded() {
        let mut c = FullPrecisionCache::new(1);
        let x = 0.1f32; // Not representable in f16.
        c.append(&[x], &[x], 0);
        let stored = c.view().keys.get(0, 0);
        assert_ne!(stored, x);
        assert!((stored - x).abs() < 1e-4);
    }

    #[test]
    fn compression_ratio_is_one() {
        let mut c = FullPrecisionCache::new(8);
        c.append(&[0.0; 8], &[0.0; 8], 0);
        assert_eq!(c.stats().compression_ratio(), 1.0);
    }

    #[test]
    #[should_panic(expected = "key dim mismatch")]
    fn rejects_wrong_dim() {
        let mut c = FullPrecisionCache::new(4);
        c.append(&[0.0; 3], &[0.0; 4], 0);
    }
}
