//! Cache statistics reported by every policy.

/// Aggregate statistics of a KV cache instance.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Tokens ever appended.
    pub tokens_seen: usize,
    /// Tokens currently retained (dense + quantized + residual).
    pub tokens_retained: usize,
    /// Tokens evicted by the policy.
    pub tokens_evicted: usize,
    /// Device-memory bytes in the policy's native storage format.
    pub memory_bytes: usize,
    /// Bytes the simulator process actually holds for the retained state
    /// (f32 backing for dense policies, packed codes + f32 constants for
    /// quantizers). Diverges from `memory_bytes` by the simulation
    /// overhead; quantizers no longer hold full-precision decode memos
    /// here, so reported compression reflects what is actually resident.
    pub resident_bytes: usize,
    /// Bytes an FP16 full-precision cache would need for `tokens_seen`.
    pub fp16_baseline_bytes: usize,
    /// Mean absolute quantization error over all quantized values
    /// (0 for non-quantizing policies).
    pub mean_quant_error: f32,
}

impl CacheStats {
    /// Memory compression ratio versus the FP16 baseline
    /// (`baseline / actual`); 1.0 when nothing is saved.
    pub fn compression_ratio(&self) -> f64 {
        if self.memory_bytes == 0 {
            1.0
        } else {
            self.fp16_baseline_bytes as f64 / self.memory_bytes as f64
        }
    }

    /// Fraction of seen tokens still retained.
    pub fn retention(&self) -> f64 {
        if self.tokens_seen == 0 {
            1.0
        } else {
            self.tokens_retained as f64 / self.tokens_seen as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_on_empty_stats_are_one() {
        let s = CacheStats::default();
        assert_eq!(s.compression_ratio(), 1.0);
        assert_eq!(s.retention(), 1.0);
    }

    #[test]
    fn compression_ratio_computed() {
        let s = CacheStats {
            memory_bytes: 100,
            fp16_baseline_bytes: 400,
            ..Default::default()
        };
        assert_eq!(s.compression_ratio(), 4.0);
    }
}
