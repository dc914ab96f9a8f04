//! The paper's literature survey as queryable data (§3, Tables 1 and 2).
//!
//! The first contribution of the paper is a systematic survey of KV-cache
//! compression algorithms and benchmark studies, from which the three
//! "missing pieces" are derived. This module encodes both tables verbatim
//! and computes those gap statistics programmatically, so the argument of
//! §3.1.3 and §3.2 is reproducible from the data rather than asserted.

/// Compression family of a surveyed algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Quantization-based.
    Quant,
    /// Sparsity-based.
    Sparse,
    /// Hybrid (quantization + sparsity).
    Hybrid,
}

/// Evaluation frameworks a surveyed algorithm reported results on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Framework {
    /// HuggingFace Transformers library.
    Transformers,
    /// DeepSpeed.
    DeepSpeed,
    /// FlashInfer.
    FlashInfer,
    /// vLLM.
    Vllm,
}

/// One row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SurveyEntry {
    /// Publication date as `(year, month)` (two-digit year, 20xx).
    pub date: (u16, u8),
    /// Algorithm name.
    pub name: &'static str,
    /// Family.
    pub family: Family,
    /// One-line design feature (the paper's wording).
    pub feature: &'static str,
    /// Heaviest evaluated model size in billions of parameters.
    pub max_model_b: f32,
    /// Heaviest evaluated batch size.
    pub max_batch: u32,
    /// Heaviest evaluated prompt length in tokens (0 = unreported).
    pub max_prompt: u64,
    /// Reported maximum memory reduction (x), 0 = unreported.
    pub mem_reduction: f32,
    /// Reported prefill throughput speedup (x), 0 = unreported.
    pub prefill_speedup: f32,
    /// Reported decoding throughput speedup (x), 0 = unreported.
    pub decode_speedup: f32,
    /// Frameworks results were reported on.
    pub frameworks: &'static [Framework],
}

use Family::{Hybrid, Quant, Sparse};
use Framework::{DeepSpeed, FlashInfer, Transformers, Vllm};

macro_rules! entry {
    ($y:expr, $m:expr, $name:expr, $fam:expr, $feat:expr, $size:expr, $batch:expr,
     $prompt:expr, $mem:expr, $prf:expr, $dec:expr, $frw:expr) => {
        SurveyEntry {
            date: ($y, $m),
            name: $name,
            family: $fam,
            feature: $feat,
            max_model_b: $size,
            max_batch: $batch,
            max_prompt: $prompt,
            mem_reduction: $mem,
            prefill_speedup: $prf,
            decode_speedup: $dec,
            frameworks: $frw,
        }
    };
}

const T: &[Framework] = &[Transformers];
const TDF: &[Framework] = &[Transformers, DeepSpeed, FlashInfer];
const TD: &[Framework] = &[Transformers, DeepSpeed];
const TDV: &[Framework] = &[Transformers, DeepSpeed, Vllm];
const F: &[Framework] = &[FlashInfer];

/// The paper's Table 1, in row order.
pub(crate) fn table1() -> Vec<SurveyEntry> {
    vec![
        entry!(24, 2, "KVQuant", Quant, "Per-channel key quantization", 65.0, 1, 32_000, 8.0, 0.0, 0.0, T),
        entry!(24, 2, "WKVQuant", Quant, "Loss design for quant parameter optimization", 13.0, 16, 18_000, 4.0, 0.0, 0.0, T),
        entry!(24, 2, "KIVI", Quant, "Per-channel key quantization", 13.0, 380, 18_000, 2.6, 2.3, 3.4, T),
        entry!(24, 2, "MiKV", Quant, "Mixed-precision quantization", 70.0, 8, 4_000, 5.0, 0.0, 0.0, T),
        entry!(24, 3, "IntactKV", Quant, "Keep full-precision caches for outlier tokens", 70.0, 1, 0, 4.0, 0.0, 0.0, T),
        entry!(24, 3, "QAQ", Quant, "Quality-adaptive quantization", 13.0, 1, 0, 10.0, 0.0, 0.0, T),
        entry!(24, 3, "GEAR", Quant, "Approximate the quant error with low-rank matrix", 13.0, 18, 7_000, 3.8, 0.0, 5.0, T),
        entry!(24, 3, "QuaRot", Quant, "Eliminate KV outliers with Hadamard matrix", 70.0, 64, 2_000, 3.7, 2.1, 0.0, T),
        entry!(24, 5, "SKVQ", Quant, "Clipped dynamic quant with channel reorder", 13.0, 128, 200_000, 7.9, 0.0, 7.0, T),
        entry!(24, 5, "ZipCache", Quant, "Channel-separable tokenwise quantization", 13.0, 8, 4_000, 4.9, 1.6, 2.3, T),
        entry!(24, 7, "QJL", Quant, "Eliminate quant constants storage overheads with JL transform", 8.0, 1, 18_000, 5.2, 0.0, 0.0, T),
        entry!(24, 7, "Palu", Quant, "KV cache compression with low-rank projection", 13.0, 1, 64_000, 11.4, 0.0, 1.6, T),
        entry!(24, 8, "ZDC", Quant, "Eliminate compression overhead", 175.0, 1, 20_000, 10.0, 0.0, 2.8, TDV),
        entry!(23, 8, "Scissorhands", Sparse, "Window-based eviction with a counter-based token score", 175.0, 128, 2_000, 5.0, 0.0, 0.0, T),
        entry!(23, 12, "StreamingLLM", Sparse, "Retain KV cache of initial tokens", 70.0, 1, 18_000, 5.0, 0.0, 0.0, T),
        entry!(23, 12, "H2O", Sparse, "Accumulate attention scores as token score", 66.0, 64, 7_000, 5.0, 0.0, 29.0, TDF),
        entry!(24, 1, "FastGen", Sparse, "Head-adaptive eviction policy", 65.0, 16, 4_000, 1.6, 0.0, 1.2, TDF),
        entry!(24, 2, "LESS", Sparse, "Merge to-be-evicted caches into low-rank matrix", 13.0, 64, 5_000, 50.0, 0.0, 1.7, T),
        entry!(24, 2, "ROCO", Sparse, "Standard deviation of attention score as token score", 7.0, 1, 0, 3.3, 0.0, 0.0, T),
        entry!(24, 4, "Keyformer", Sparse, "Add gumbel-based regularization in token score", 7.0, 2, 4_000, 2.0, 0.0, 2.4, T),
        entry!(24, 4, "SqueezeAttention", Sparse, "Reallocate KV cache budget across layers", 70.0, 224, 18_000, 3.3, 0.0, 2.2, T),
        entry!(24, 4, "SnapKV", Sparse, "Select clustered important KV cache across heads", 35.0, 8, 26_000, 8.2, 0.0, 3.6, T),
        entry!(24, 4, "CORM", Sparse, "Budget-unrestricted KV cache eviction", 7.0, 1, 18_000, 3.3, 0.0, 0.0, T),
        entry!(24, 5, "CaM", Sparse, "Merge to-be-evicted caches into recent KV cache", 13.0, 1, 0, 3.3, 0.0, 0.0, T),
        entry!(24, 5, "PyramidInfer", Sparse, "Drop KV cache during KV cache computation process", 70.0, 88, 2_000, 2.1, 0.0, 2.2, TD),
        entry!(24, 5, "MiniCache", Sparse, "Multiple layers sharing the same retained KV cache", 70.0, 300, 18_000, 1.7, 0.0, 5.0, T),
        entry!(24, 5, "InfLLM", Sparse, "Store evicted tokens as context memory for further lookups", 8.0, 1, 100_000, 2.9, 0.0, 1.5, T),
        entry!(24, 5, "Q-Hitter", Hybrid, "Keep quantization-friendly and important tokens", 30.0, 1, 4_000_000, 20.0, 0.0, 33.0, T),
        entry!(24, 6, "Quest", Sparse, "Query-aware cache eviction policy", 7.0, 1, 64_000, 8.0, 0.0, 2.2, F),
        entry!(24, 6, "PyramidKV", Sparse, "Adjust KV cache budget across layers", 8.0, 1, 18_000, 8.3, 0.0, 0.0, T),
        entry!(24, 6, "SampleAttention", Sparse, "Adaptive structured sparse attention", 6.0, 1, 200_000, 12.5, 2.2, 0.0, T),
        entry!(24, 7, "TOVA", Sparse, "Enable recent KV cache evictable", 7.0, 139, 70_000, 0.0, 0.0, 4.8, T),
        entry!(24, 7, "LazyLLM", Sparse, "Revive previously evicted KV cache", 7.0, 1, 18_000, 0.0, 2.3, 0.0, T),
        entry!(24, 7, "Ada-KV", Sparse, "Allocate KV cache budget across different heads", 7.0, 1, 18_000, 3.3, 0.0, 0.0, T),
        entry!(24, 7, "RazorAttention", Sparse, "Disable KV cache eviction for retrieval heads", 72.0, 1, 18_000, 3.3, 0.0, 0.0, T),
        entry!(24, 7, "ThinK", Sparse, "Evict KV cache in channel dimension", 8.0, 1, 18_000, 1.25, 0.0, 0.0, T),
        entry!(24, 8, "NACL", Sparse, "General KV cache eviction framework", 7.0, 4, 32_000, 5.0, 0.0, 0.0, T),
        entry!(24, 8, "DoubleSparse", Sparse, "Prefetch tokens with token and channel sparsity", 70.0, 32, 256_000, 16.0, 0.0, 16.3, T),
        entry!(24, 9, "GemFilter", Sparse, "Use early layers of LLM to filter and compress tokens", 12.0, 1, 120_000, 1.43, 0.0, 2.4, T),
        entry!(24, 9, "RetrievalAttention", Sparse, "Leverage vector search for dynamic sparse attention", 8.0, 1, 1_000_000, 0.0, 0.0, 4.9, T),
        entry!(24, 10, "DuoAttention", Sparse, "Identify streaming heads to accelerate attention", 8.0, 1, 3_300_000, 2.55, 1.73, 2.18, F),
    ]
}

/// One row of the paper's Table 2 (benchmark studies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BenchmarkStudy {
    /// Study name.
    pub name: &'static str,
    /// Whether it measures accuracy.
    pub measures_accuracy: bool,
    /// Whether it measures throughput.
    pub measures_throughput: bool,
    /// Whether it covers sparsity-based compression (vs quantization only).
    pub covers_sparsity: bool,
    /// Whether it analyzes per-sample (vs only aggregate) quality.
    pub per_sample_analysis: bool,
}

/// The paper's Table 2, in row order.
pub(crate) fn table2() -> Vec<BenchmarkStudy> {
    vec![
        BenchmarkStudy {
            name: "QLLM-Eval",
            measures_accuracy: true,
            measures_throughput: false,
            covers_sparsity: false,
            per_sample_analysis: false,
        },
        BenchmarkStudy {
            name: "LLM-QBench",
            measures_accuracy: true,
            measures_throughput: true,
            covers_sparsity: false,
            per_sample_analysis: false,
        },
        BenchmarkStudy {
            name: "LongCTX-Bench",
            measures_accuracy: true,
            measures_throughput: false,
            covers_sparsity: true,
            per_sample_analysis: false,
        },
        BenchmarkStudy {
            name: "Shi et al.",
            measures_accuracy: true,
            measures_throughput: false,
            covers_sparsity: true,
            per_sample_analysis: false,
        },
    ]
}

/// The quantitative claims behind the paper's three "missing pieces".
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SurveyStats {
    /// Total surveyed algorithms.
    pub total: usize,
    /// Algorithms whose only reported framework is the Transformers
    /// library (the unreliable-throughput population of Missing Piece 1).
    pub transformers_only: usize,
    /// Algorithms reporting any prefill-throughput speedup.
    pub report_prefill: usize,
    /// Algorithms reporting any decoding-throughput speedup.
    pub report_decode: usize,
    /// Quantization-family algorithms evaluated at <= 13B and <= 20k
    /// prompt (the "around half" claim of §3.1.3).
    pub quant_small_scale: usize,
    /// Quantization-family total.
    pub quant_total: usize,
    /// Sparsity-family algorithms evaluated at >= 65B or >= 100k prompt.
    pub sparse_large_scale: usize,
    /// Sparsity-family total.
    pub sparse_total: usize,
    /// Benchmark studies measuring throughput at all.
    pub benchmarks_with_throughput: usize,
    /// Benchmark studies with per-sample quality analysis (Missing Piece 3:
    /// zero).
    pub benchmarks_with_per_sample: usize,
}

/// Computes the missing-piece statistics from the survey tables.
pub(crate) fn survey_stats() -> SurveyStats {
    let t1 = table1();
    let t2 = table2();
    let quant: Vec<_> = t1.iter().filter(|e| e.family == Family::Quant).collect();
    let sparse: Vec<_> = t1.iter().filter(|e| e.family == Family::Sparse).collect();
    SurveyStats {
        total: t1.len(),
        transformers_only: t1
            .iter()
            .filter(|e| e.frameworks == [Framework::Transformers])
            .count(),
        report_prefill: t1.iter().filter(|e| e.prefill_speedup > 0.0).count(),
        report_decode: t1.iter().filter(|e| e.decode_speedup > 0.0).count(),
        quant_small_scale: quant
            .iter()
            .filter(|e| e.max_model_b <= 13.0 && e.max_prompt <= 20_000)
            .count(),
        quant_total: quant.len(),
        sparse_large_scale: sparse
            .iter()
            .filter(|e| e.max_model_b >= 65.0 || e.max_prompt >= 100_000)
            .count(),
        sparse_total: sparse.len(),
        benchmarks_with_throughput: t2.iter().filter(|b| b.measures_throughput).count(),
        benchmarks_with_per_sample: t2.iter().filter(|b| b.per_sample_analysis).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_41_rows_and_correct_families() {
        let t1 = table1();
        assert_eq!(t1.len(), 41);
        let quant = t1.iter().filter(|e| e.family == Family::Quant).count();
        let sparse = t1.iter().filter(|e| e.family == Family::Sparse).count();
        let hybrid = t1.iter().filter(|e| e.family == Family::Hybrid).count();
        assert_eq!(quant, 13);
        assert_eq!(hybrid, 1); // Q-Hitter.
        assert_eq!(quant + sparse + hybrid, 41);
    }

    #[test]
    fn missing_piece_1_most_report_only_transformers() {
        // §3.1.3: only a few studies measure beyond the TRL framework.
        let s = survey_stats();
        assert!(
            s.transformers_only as f64 / s.total as f64 > 0.8,
            "{}/{} Transformers-only",
            s.transformers_only,
            s.total
        );
        // Prefill throughput is reported by under a fifth of the papers.
        assert!(s.report_prefill * 5 < s.total, "{}", s.report_prefill);
    }

    #[test]
    fn missing_piece_quant_scale_gap() {
        // §3.1.3: "around half of the quantization-based algorithms are
        // evaluated on models <= 13B and sequences <= 20k".
        let s = survey_stats();
        let frac = s.quant_small_scale as f64 / s.quant_total as f64;
        assert!((0.4..0.9).contains(&frac), "{frac}");
        // More sparse works reach large scale than quant works.
        assert!(s.sparse_large_scale > 3);
    }

    #[test]
    fn missing_piece_3_no_per_sample_benchmark() {
        let s = survey_stats();
        assert_eq!(s.benchmarks_with_per_sample, 0);
        // Only LLM-QBench measures throughput (§3.2).
        assert_eq!(s.benchmarks_with_throughput, 1);
    }

    #[test]
    fn dates_are_plausible() {
        for e in table1() {
            assert!(e.date.0 == 23 || e.date.0 == 24, "{}", e.name);
            assert!((1..=12).contains(&e.date.1), "{}", e.name);
        }
    }

    #[test]
    fn our_evaluated_algorithms_are_in_the_survey() {
        let t1 = table1();
        for name in ["KIVI", "GEAR", "H2O", "StreamingLLM", "SnapKV", "TOVA", "Quest"] {
            assert!(t1.iter().any(|e| e.name == name), "{name} missing");
        }
    }
}
