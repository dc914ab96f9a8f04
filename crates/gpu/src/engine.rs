//! Serving-engine kernel models.

/// The three serving stacks the paper measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// HuggingFace Transformers, eager PyTorch: naive multi-pass attention
    /// (score matrix materialized in HBM), heavy per-op launch overhead,
    /// KV preallocated to the maximum length.
    TrlEager,
    /// Transformers + FlashAttention 2: one-pass IO-aware attention, but
    /// still eager-mode launch overheads and preallocated KV.
    TrlFlash,
    /// LMDeploy: FlashAttention + PagedAttention, fused/persistent kernels,
    /// on-demand paged KV blocks.
    LmDeploy,
}

impl EngineKind {
    /// All three engines in the paper's comparison order.
    pub fn all() -> [EngineKind; 3] {
        [EngineKind::TrlEager, EngineKind::TrlFlash, EngineKind::LmDeploy]
    }

    /// Display label used in figures (`TRL`, `TRL+FA`, `LMD`).
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::TrlEager => "TRL",
            EngineKind::TrlFlash => "TRL+FA",
            EngineKind::LmDeploy => "LMD",
        }
    }

    /// Whether the attention kernel materializes the score matrix in HBM
    /// (naive multi-pass attention).
    pub fn materializes_scores(&self) -> bool {
        matches!(self, EngineKind::TrlEager)
    }

    /// Whether KV cache pages are allocated on demand (PagedAttention)
    /// rather than preallocated to the maximum sequence length.
    pub fn paged_kv(&self) -> bool {
        matches!(self, EngineKind::LmDeploy)
    }

    /// Fixed overhead per transformer layer per step (kernel launches,
    /// Python dispatch). Eager stacks pay far more than fused ones.
    pub fn per_layer_overhead_s(&self) -> f64 {
        match self {
            EngineKind::TrlEager => 160e-6,
            EngineKind::TrlFlash => 120e-6,
            EngineKind::LmDeploy => 14e-6,
        }
    }

    /// Fixed overhead per model step (scheduler, sampling, host sync).
    pub fn per_step_overhead_s(&self) -> f64 {
        match self {
            EngineKind::TrlEager => 2.0e-3,
            EngineKind::TrlFlash => 2.0e-3,
            EngineKind::LmDeploy => 0.4e-3,
        }
    }

    /// Relative cost multiplier for launching an *extra, non-fused* kernel
    /// in the attention path (quantized/dequantized dual paths, eviction
    /// passes). Fused engines absorb part of it.
    pub fn extra_kernel_overhead_s(&self) -> f64 {
        match self {
            EngineKind::TrlEager | EngineKind::TrlFlash => 60e-6,
            EngineKind::LmDeploy => 25e-6,
        }
    }

    /// PagedAttention block-table indirection inflates attention traffic by
    /// a small factor on paged engines.
    pub fn paged_traffic_factor(&self) -> f64 {
        if self.paged_kv() {
            1.05
        } else {
            1.0
        }
    }

    /// Extra HBM passes over the KV cache per decode step from the
    /// framework's cache update. Eager Transformers re-materializes the
    /// cache with `torch.cat` every step (read + write of the whole past),
    /// which is why compression speedups measured on TRL look inflated;
    /// paged engines append in place.
    pub fn kv_update_passes(&self) -> f64 {
        match self {
            EngineKind::TrlEager | EngineKind::TrlFlash => 2.0,
            EngineKind::LmDeploy => 0.0,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_figures() {
        assert_eq!(EngineKind::TrlEager.label(), "TRL");
        assert_eq!(EngineKind::TrlFlash.label(), "TRL+FA");
        assert_eq!(EngineKind::LmDeploy.label(), "LMD");
    }

    #[test]
    fn only_trl_eager_materializes_scores() {
        assert!(EngineKind::TrlEager.materializes_scores());
        assert!(!EngineKind::TrlFlash.materializes_scores());
        assert!(!EngineKind::LmDeploy.materializes_scores());
    }

    #[test]
    fn lmdeploy_is_leanest() {
        let lmd = EngineKind::LmDeploy;
        for e in [EngineKind::TrlEager, EngineKind::TrlFlash] {
            assert!(lmd.per_layer_overhead_s() < e.per_layer_overhead_s());
            assert!(lmd.per_step_overhead_s() < e.per_step_overhead_s());
        }
        assert!(lmd.paged_kv());
    }
}
