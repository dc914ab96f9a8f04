//! Unified configuration for all compression policies.

use crate::{
    CacheError, ChunkedCache, Codec, DenseCache, GearParams, H2OParams, KiviParams, KvCache,
    QuestParams, Retention, SnapKvParams, StreamingParams, ThinkParams, TovaParams,
};

/// Hyper-parameters for the PyramidKV layer-level budget allocator
/// (Zhang et al., 2024): per-layer prompt-KV budgets decline linearly from
/// `first_layer_budget` to `last_layer_budget` ("pyramidal information
/// funneling" — early layers need broad attention, deep layers concentrate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PyramidKvParams {
    /// Prompt-KV budget at layer 0 (the widest level of the pyramid).
    pub first_layer_budget: usize,
    /// Prompt-KV budget at the last layer (the apex).
    pub last_layer_budget: usize,
    /// Observation window handed to the per-layer SnapKV selector.
    pub obs_window: usize,
}

impl Default for PyramidKvParams {
    fn default() -> Self {
        PyramidKvParams {
            first_layer_budget: 768,
            last_layer_budget: 256,
            obs_window: 32,
        }
    }
}

impl PyramidKvParams {
    /// The budget assigned to `layer` of `n_layers` (linear interpolation,
    /// floored at 1).
    pub fn budget_for_layer(&self, layer: usize, n_layers: usize) -> usize {
        if n_layers <= 1 {
            return self.first_layer_budget.max(1);
        }
        let t = layer as f64 / (n_layers - 1) as f64;
        let b = self.first_layer_budget as f64
            + (self.last_layer_budget as f64 - self.first_layer_budget as f64) * t;
        (b.round() as usize).max(1)
    }

    /// Mean budget across layers (memory-accounting proxy). Each half is
    /// taken first so the sum cannot overflow on a decoded config.
    pub fn mean_budget(&self) -> usize {
        let (a, b) = (self.first_layer_budget, self.last_layer_budget);
        a / 2 + b / 2 + (a % 2 + b % 2) / 2
    }
}

/// Coarse family of a compression policy, as the paper classifies them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
// rkvc-allow(C001): return type of CompressionConfig::family(); consumers match on it without importing the name
pub enum CompressionFamily {
    /// No compression (FP16 baseline).
    None,
    /// Quantization-based (KIVI, GEAR).
    Quantization,
    /// Sparsity-based (H2O, StreamingLLM, SnapKV).
    Sparsity,
}

impl std::fmt::Display for CompressionFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CompressionFamily::None => "none",
            CompressionFamily::Quantization => "quantization",
            CompressionFamily::Sparsity => "sparsity",
        };
        f.write_str(s)
    }
}

/// Configuration of a KV-cache compression policy.
///
/// This is the single entry point experiments use to instantiate caches;
/// its [`label`](CompressionConfig::label) names in results what ran.
///
/// # Examples
///
/// ```
/// use rkvc_kvcache::CompressionConfig;
///
/// let cfg = CompressionConfig::h2o(64, 448);
/// let cache = cfg.build(64);
/// assert_eq!(cfg.label(), "h2o-512");
/// assert!(cache.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompressionConfig {
    /// FP16 baseline — no compression.
    Fp16,
    /// KIVI quantization.
    Kivi(KiviParams),
    /// GEAR error-corrected quantization.
    Gear(GearParams),
    /// H2O heavy-hitter eviction.
    H2O(H2OParams),
    /// StreamingLLM sinks + sliding window.
    Streaming(StreamingParams),
    /// SnapKV prefill compression.
    SnapKv(SnapKvParams),
    /// TOVA current-attention eviction (extension algorithm).
    Tova(TovaParams),
    /// ThinK channel-dimension pruning (extension algorithm; the survey's
    /// channel-level granularity family).
    Think(ThinkParams),
    /// PyramidKV layer-level budget allocation (extension algorithm; the
    /// survey's layer-level granularity family).
    PyramidKv(PyramidKvParams),
    /// Quest query-aware page selection (extension algorithm; §4.4's
    /// recommended remedy).
    Quest(QuestParams),
}

impl CompressionConfig {
    /// KIVI at the given bit width with the paper's defaults
    /// (G=32, R=128).
    pub fn kivi(bits: u8) -> Self {
        CompressionConfig::Kivi(KiviParams {
            bits,
            ..KiviParams::default()
        })
    }

    /// GEAR at the given bit width with the paper's defaults
    /// (s=2%, r=2%).
    pub fn gear(bits: u8) -> Self {
        CompressionConfig::Gear(GearParams {
            bits,
            ..GearParams::default()
        })
    }

    /// H2O with explicit heavy/recent budgets (paper: 64 + 448).
    pub fn h2o(heavy: usize, recent: usize) -> Self {
        CompressionConfig::H2O(H2OParams { heavy, recent })
    }

    /// StreamingLLM with explicit sink/recent budgets (paper: 64 + 448).
    pub fn streaming(sinks: usize, recent: usize) -> Self {
        CompressionConfig::Streaming(StreamingParams { sinks, recent })
    }

    /// SnapKV with an explicit prompt budget and defaults otherwise.
    pub fn snapkv(budget: usize) -> Self {
        CompressionConfig::SnapKv(SnapKvParams {
            budget,
            ..SnapKvParams::default()
        })
    }

    /// TOVA with an explicit token budget.
    pub fn tova(budget: usize) -> Self {
        CompressionConfig::Tova(TovaParams { budget })
    }

    /// Quest with explicit page size and page count.
    pub fn quest(page_size: usize, top_k_pages: usize) -> Self {
        CompressionConfig::Quest(QuestParams {
            page_size,
            top_k_pages,
        })
    }

    /// ThinK with an explicit channel keep ratio.
    pub fn think(keep_ratio: f32) -> Self {
        CompressionConfig::Think(ThinkParams { keep_ratio })
    }

    /// PyramidKV with explicit first/last-layer budgets.
    pub fn pyramid_kv(first_layer_budget: usize, last_layer_budget: usize) -> Self {
        CompressionConfig::PyramidKv(PyramidKvParams {
            first_layer_budget,
            last_layer_budget,
            ..PyramidKvParams::default()
        })
    }

    /// The four representative algorithms the paper evaluates, with the
    /// paper's hyper-parameters, plus the FP16 baseline.
    pub fn paper_suite() -> Vec<CompressionConfig> {
        vec![
            CompressionConfig::Fp16,
            CompressionConfig::kivi(4),
            CompressionConfig::gear(4),
            CompressionConfig::h2o(64, 448),
            CompressionConfig::streaming(64, 448),
        ]
    }

    /// The one `CompressionConfig` → cache table: the quantizers are a
    /// [`Codec`] on the chunked store, everything else is a [`Retention`]
    /// rule on the dense store. PyramidKV is SnapKV's rule with the budget
    /// `pyramid_budget` picks for the layer being built.
    fn build_with(
        &self,
        head_dim: usize,
        pyramid_budget: impl FnOnce(PyramidKvParams) -> usize,
    ) -> Result<Box<dyn KvCache>, CacheError> {
        let rule = match *self {
            CompressionConfig::Kivi(p) => {
                return Ok(Box::new(ChunkedCache::new(head_dim, Codec::Kivi(p))?));
            }
            CompressionConfig::Gear(p) => {
                return Ok(Box::new(ChunkedCache::new(head_dim, Codec::Gear(p))?));
            }
            CompressionConfig::Fp16 => Retention::KeepAll,
            CompressionConfig::Streaming(p) => Retention::SinkWindow(p),
            CompressionConfig::H2O(p) => Retention::HeavyHitters(p),
            CompressionConfig::Tova(p) => Retention::LeastAttended(p),
            CompressionConfig::SnapKv(p) => Retention::PrefillVote(p),
            CompressionConfig::Think(p) => Retention::ChannelPrune(p),
            CompressionConfig::Quest(p) => Retention::PageSelect(p),
            CompressionConfig::PyramidKv(p) => Retention::PrefillVote(SnapKvParams {
                budget: pyramid_budget(p),
                obs_window: p.obs_window,
            }),
        };
        Ok(Box::new(DenseCache::new(head_dim, rule)?))
    }

    /// Instantiates a cache for one attention head of dimension `head_dim`.
    /// Layer-level policies (PyramidKV) get their layer-agnostic fallback,
    /// the mean budget; callers that know the layer use
    /// [`try_build_for_layer`](CompressionConfig::try_build_for_layer).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidParameter`](crate::CacheError) if the
    /// configuration carries invalid parameters (e.g. a struct literal
    /// built from untrusted input; the per-algorithm constructors on
    /// `CompressionConfig` never produce such values).
    pub fn try_build(&self, head_dim: usize) -> Result<Box<dyn KvCache>, CacheError> {
        self.build_with(head_dim, |p| p.mean_budget())
    }

    /// Instantiates a cache for one attention head of dimension `head_dim`,
    /// panicking on invalid parameters.
    ///
    /// The convenience entry point for experiment drivers whose configs come
    /// from the validated constructors; code handling untrusted configs
    /// should call [`try_build`](CompressionConfig::try_build).
    ///
    /// # Panics
    ///
    /// Panics if the configuration carries invalid parameters.
    pub fn build(&self, head_dim: usize) -> Box<dyn KvCache> {
        match self.try_build(head_dim) {
            Ok(cache) => cache,
            // rkvc-allow(E001): documented panicking convenience wrapper over try_build
            Err(e) => panic!("CompressionConfig::build({self}): {e}"),
        }
    }

    /// Instantiates a cache for one attention head at a specific layer.
    ///
    /// Layer-level policies (PyramidKV) allocate different budgets per
    /// layer; every other policy ignores the layer and behaves like
    /// [`try_build`](CompressionConfig::try_build).
    ///
    /// # Errors
    ///
    /// Fails under the same conditions as
    /// [`try_build`](CompressionConfig::try_build).
    pub fn try_build_for_layer(
        &self,
        head_dim: usize,
        layer: usize,
        n_layers: usize,
    ) -> Result<Box<dyn KvCache>, CacheError> {
        self.build_with(head_dim, |p| p.budget_for_layer(layer, n_layers))
    }

    /// Panicking convenience wrapper over
    /// [`try_build_for_layer`](CompressionConfig::try_build_for_layer).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`build`](CompressionConfig::build).
    pub fn build_for_layer(
        &self,
        head_dim: usize,
        layer: usize,
        n_layers: usize,
    ) -> Box<dyn KvCache> {
        match self.try_build_for_layer(head_dim, layer, n_layers) {
            Ok(cache) => cache,
            // rkvc-allow(E001): documented panicking convenience wrapper over try_build_for_layer
            Err(e) => panic!("CompressionConfig::build_for_layer({self}): {e}"),
        }
    }

    /// How the policy stores a sequence of `kv_len` tokens, as
    /// `(fp16_tokens, compressed_tokens)`. The quantizers keep their window
    /// (KIVI's residual, GEAR's buffer) in FP16 and pack the rest; an
    /// evicting policy keeps at most its budget, all in FP16; FP16, ThinK
    /// (which prunes channels, not tokens) and Quest (which selects at
    /// query time) keep every token in FP16. The one split the cost model
    /// and the serving simulator size a cache by. Saturating, so a decoded
    /// config with an absurd budget keeps every token instead of
    /// overflowing.
    ///
    /// The FP16 count is the window itself: a quantizer's store holds
    /// `window` to `window + chunk − 1` FP16 rows, because it packs a chunk
    /// only once a whole one has aged out of the window.
    #[inline]
    pub fn token_split(&self, kv_len: usize) -> (usize, usize) {
        let cap = match *self {
            CompressionConfig::Kivi(KiviParams { residual: window, .. })
            | CompressionConfig::Gear(GearParams { buffer: window, .. }) => {
                let fp16 = window.min(kv_len);
                return (fp16, kv_len - fp16);
            }
            CompressionConfig::H2O(p) => p.budget(),
            CompressionConfig::Streaming(p) => p.budget(),
            CompressionConfig::SnapKv(p) => p.budget.saturating_add(p.obs_window),
            CompressionConfig::Tova(p) => p.budget,
            CompressionConfig::PyramidKv(p) => p.mean_budget().saturating_add(p.obs_window),
            CompressionConfig::Fp16 | CompressionConfig::Think(_) | CompressionConfig::Quest(_) => {
                kv_len
            }
        };
        (cap.min(kv_len), 0)
    }

    /// The policy's family (quantization vs sparsity vs none).
    pub fn family(&self) -> CompressionFamily {
        match self {
            CompressionConfig::Fp16 => CompressionFamily::None,
            CompressionConfig::Kivi(_) | CompressionConfig::Gear(_) => {
                CompressionFamily::Quantization
            }
            CompressionConfig::H2O(_)
            | CompressionConfig::Streaming(_)
            | CompressionConfig::SnapKv(_)
            | CompressionConfig::Tova(_)
            | CompressionConfig::Quest(_)
            | CompressionConfig::Think(_)
            | CompressionConfig::PyramidKv(_) => CompressionFamily::Sparsity,
        }
    }

    /// Short display name matching the paper's labels (e.g. `"kivi-4"`,
    /// `"h2o-512"`).
    pub fn label(&self) -> String {
        match *self {
            CompressionConfig::Fp16 => "fp16".to_owned(),
            CompressionConfig::Kivi(p) => format!("kivi-{}", p.bits),
            CompressionConfig::Gear(p) => format!("gear-{}", p.bits),
            CompressionConfig::H2O(p) => format!("h2o-{}", p.budget()),
            CompressionConfig::Streaming(p) => format!("stream-{}", p.budget()),
            CompressionConfig::SnapKv(p) => format!("snapkv-{}", p.budget),
            CompressionConfig::Tova(p) => format!("tova-{}", p.budget),
            CompressionConfig::Quest(p) => format!("quest-{}", p.budget()),
            CompressionConfig::Think(p) => format!("think-{:.0}", p.keep_ratio * 100.0),
            CompressionConfig::PyramidKv(p) => {
                format!("pyramid-{}-{}", p.first_layer_budget, p.last_layer_budget)
            }
        }
    }
}

impl std::fmt::Display for CompressionConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::BlockRows;

    #[test]
    fn token_split_is_the_stored_token_budget_and_saturates() {
        assert_eq!(CompressionConfig::h2o(64, 448).token_split(4096), (512, 0));
        assert_eq!(CompressionConfig::streaming(64, 448).token_split(4096), (512, 0));
        assert_eq!(CompressionConfig::tova(256).token_split(4096), (256, 0));
        assert_eq!(CompressionConfig::tova(256).token_split(100), (100, 0));
        let snap = SnapKvParams { budget: 448, obs_window: 32 };
        assert_eq!(CompressionConfig::SnapKv(snap).token_split(4096), (480, 0));
        let pyramid = PyramidKvParams { first_layer_budget: 96, last_layer_budget: 32, obs_window: 8 };
        assert_eq!(CompressionConfig::PyramidKv(pyramid).token_split(4096), (72, 0));
        assert_eq!(CompressionConfig::kivi(4).token_split(4096), (128, 3968));
        assert_eq!(CompressionConfig::kivi(4).token_split(100), (100, 0));
        assert_eq!(CompressionConfig::gear(4).token_split(4096), (16, 4080));
        for keeps_all in [
            CompressionConfig::Fp16,
            CompressionConfig::think(0.5),
            CompressionConfig::quest(16, 8),
        ] {
            assert_eq!(keeps_all.token_split(4096), (4096, 0), "{keeps_all}");
        }
        let huge = SnapKvParams { budget: usize::MAX, ..snap };
        assert_eq!(CompressionConfig::SnapKv(huge).token_split(4096), (4096, 0));
        let huge = PyramidKvParams { first_layer_budget: usize::MAX, last_layer_budget: usize::MAX, ..pyramid };
        assert_eq!(CompressionConfig::PyramidKv(huge).token_split(4096), (4096, 0));
    }

    /// All ten variants, each small enough to cross its threshold in a few
    /// dozen appends, with that threshold: the budget of an evicting
    /// policy, the flush point `window + chunk` of a quantizer, a page
    /// boundary or an arbitrary length for the rest.
    fn one_of_each_variant() -> [(CompressionConfig, usize); 10] {
        [
            (CompressionConfig::Fp16, 8),
            (CompressionConfig::Kivi(KiviParams { bits: 4, group_size: 4, residual: 8 }), 12),
            (
                CompressionConfig::Gear(GearParams {
                    bits: 4,
                    outlier_ratio: 0.05,
                    rank_ratio: 0.25,
                    buffer: 4,
                }),
                8,
            ),
            (CompressionConfig::h2o(2, 5), 7),
            (CompressionConfig::streaming(2, 6), 8),
            (CompressionConfig::SnapKv(SnapKvParams { budget: 4, obs_window: 3 }), 7),
            (CompressionConfig::tova(6), 6),
            (CompressionConfig::think(0.5), 8),
            (
                CompressionConfig::PyramidKv(PyramidKvParams {
                    first_layer_budget: 8,
                    last_layer_budget: 4,
                    obs_window: 2,
                }),
                8,
            ),
            (CompressionConfig::quest(4, 2), 8),
        ]
    }

    rkvc_tensor::det_cases! {
        /// `token_split` against the stores themselves: after `n` appends
        /// (each followed by a uniform attention observation) and
        /// `finish_prefill`, every cache holds exactly the split's total,
        /// for `n` on both sides of every budget and flush threshold. A
        /// quantizer's FP16 window is the one named gap: the cost model
        /// charges exactly `window` FP16 tokens, while the store holds
        /// `window` to `window + chunk − 1` rows, since it packs a chunk
        /// only once a whole one has aged out of the window.
        fn token_split_matches_what_each_store_holds(rng, cases = 16) {
            for (cfg, threshold) in one_of_each_variant() {
                let below = rng.gen_range(0..threshold);
                let above = rng.gen_range(threshold + 1..4 * threshold + 1);
                for n in [below, threshold - 1, threshold, threshold + 1, above] {
                    let (fp16, compressed) = cfg.token_split(n);
                    let (codec, window, chunk) = match cfg {
                        CompressionConfig::Kivi(p) => (Codec::Kivi(p), p.residual, p.group_size),
                        CompressionConfig::Gear(p) => (Codec::Gear(p), p.buffer, p.buffer),
                        _ => {
                            let mut cache = cfg.build(HEAD_DIM);
                            fill(cache.as_mut(), n, rng);
                            assert_eq!(cache.len(), fp16 + compressed, "{cfg} at n = {n}");
                            assert_eq!(compressed, 0, "{cfg} at n = {n}");
                            continue;
                        }
                    };
                    let mut cache = ChunkedCache::new(HEAD_DIM, codec).expect("valid codec");
                    fill(&mut cache, n, rng);
                    assert_eq!(cache.len(), fp16 + compressed, "{cfg} at n = {n}");
                    assert_eq!(fp16, window.min(n), "{cfg} at n = {n}");
                    let rows = BlockRows::window(&cache).len();
                    assert!((fp16..fp16 + chunk).contains(&rows), "{cfg} at n = {n}: {rows} FP16 rows");
                }
            }
        }
    }

    const HEAD_DIM: usize = 4;

    /// Appends `n` random tokens, each followed by a uniform attention
    /// observation, then finishes the prefill.
    fn fill(cache: &mut dyn KvCache, n: usize, rng: &mut rkvc_tensor::det::SeededRng) {
        for pos in 0..n {
            let k: Vec<f32> = (0..HEAD_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let v: Vec<f32> = (0..HEAD_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
            cache.append(&k, &v, pos);
            let len = cache.len();
            cache.observe_attention(&vec![1.0 / len as f32; len]);
        }
        cache.finish_prefill();
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(CompressionConfig::Fp16.label(), "fp16");
        assert_eq!(CompressionConfig::kivi(2).label(), "kivi-2");
        assert_eq!(CompressionConfig::gear(4).label(), "gear-4");
        assert_eq!(CompressionConfig::h2o(64, 448).label(), "h2o-512");
        assert_eq!(CompressionConfig::streaming(64, 448).label(), "stream-512");
        assert_eq!(CompressionConfig::snapkv(448).label(), "snapkv-448");
    }

    #[test]
    fn families_classified() {
        assert_eq!(CompressionConfig::Fp16.family(), CompressionFamily::None);
        assert_eq!(CompressionConfig::kivi(4).family(), CompressionFamily::Quantization);
        assert_eq!(CompressionConfig::gear(4).family(), CompressionFamily::Quantization);
        assert_eq!(CompressionConfig::h2o(64, 448).family(), CompressionFamily::Sparsity);
        assert_eq!(CompressionConfig::streaming(64, 448).family(), CompressionFamily::Sparsity);
        assert_eq!(CompressionConfig::snapkv(448).family(), CompressionFamily::Sparsity);
    }

    #[test]
    fn build_produces_working_caches() {
        for cfg in CompressionConfig::paper_suite() {
            let mut cache = cfg.build(8);
            for pos in 0..4 {
                cache.append(&[0.5; 8], &[0.5; 8], pos);
            }
            assert_eq!(cache.len(), 4, "{cfg}");
            assert_eq!(cache.view().positions, vec![0, 1, 2, 3], "{cfg}");
        }
    }

    /// Every documented bad parameter of every variant, as an untrusted
    /// manifest could spell it: both build entry points return the typed
    /// error with its message, and nothing panics, the label included.
    /// (`Fp16` has no parameter to get wrong; it must build.)
    #[test]
    fn bad_parameters_are_typed_errors_on_both_build_paths() {
        use CompressionConfig as C;
        let invalid = CacheError::InvalidParameter;
        let kivi = KiviParams::default();
        let gear = GearParams::default();
        let pyramid = PyramidKvParams { first_layer_budget: 96, last_layer_budget: 32, obs_window: 0 };
        let cases = [
            (C::Kivi(KiviParams { bits: 3, ..kivi }), CacheError::UnsupportedBits(3)),
            (C::Kivi(KiviParams { group_size: 0, ..kivi }), invalid("group_size must be >= 1")),
            (C::Gear(GearParams { outlier_ratio: -0.1, ..gear }), invalid("outlier_ratio must be in [0, 1]")),
            (C::Gear(GearParams { rank_ratio: 1.5, ..gear }), invalid("rank_ratio must be in [0, 1]")),
            (C::Gear(GearParams { buffer: 0, ..gear }), invalid("buffer must be >= 1")),
            (C::H2O(H2OParams { heavy: 0, recent: 0 }), invalid("heavy + recent must be >= 1")),
            (C::Streaming(StreamingParams { sinks: 0, recent: 0 }), invalid("sinks + recent must be >= 1")),
            (C::SnapKv(SnapKvParams { budget: 0, obs_window: 32 }), invalid("budget must be >= 1")),
            (C::SnapKv(SnapKvParams { budget: 8, obs_window: 0 }), invalid("obs_window must be >= 1")),
            (C::Tova(TovaParams { budget: 0 }), invalid("budget must be >= 1")),
            (C::Think(ThinkParams { keep_ratio: 0.0 }), invalid("keep_ratio must be in (0, 1]")),
            (C::Think(ThinkParams { keep_ratio: 1.5 }), invalid("keep_ratio must be in (0, 1]")),
            (C::PyramidKv(pyramid), invalid("obs_window must be >= 1")),
            (C::Quest(QuestParams { page_size: 0, top_k_pages: 4 }), invalid("page_size must be >= 1")),
            (C::Quest(QuestParams { page_size: 16, top_k_pages: 0 }), invalid("top_k_pages must be >= 1")),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.try_build(8).unwrap_err(), want, "{cfg:?}");
            assert_eq!(
                cfg.try_build_for_layer(8, 1, 4).unwrap_err(),
                want,
                "{cfg:?}"
            );
            assert!(!cfg.to_string().is_empty(), "{cfg:?}");
        }
        assert!(C::Fp16.try_build_for_layer(8, 1, 4).is_ok());
    }

    /// Budgets whose arithmetic does not fit `usize` are construction
    /// errors, and their labels saturate instead of overflowing. The two
    /// quantizers used to build and then panic on their first append, the
    /// flush threshold wrapping.
    #[test]
    fn overflowing_budgets_are_errors_and_their_labels_saturate() {
        let max = usize::MAX;
        let flush_overflow = "window + chunk length overflows usize";
        let cases = [
            (
                CompressionConfig::Kivi(KiviParams { bits: 4, group_size: 1, residual: max }),
                flush_overflow,
                "kivi-4".to_owned(),
            ),
            (
                CompressionConfig::Gear(GearParams { buffer: max / 2 + 1, ..Default::default() }),
                flush_overflow,
                "gear-4".to_owned(),
            ),
            (
                CompressionConfig::Quest(QuestParams {
                    page_size: 1 << 62,
                    top_k_pages: 4,
                }),
                "page_size * top_k_pages overflows usize",
                format!("quest-{max}"),
            ),
            (CompressionConfig::tova(max), "budget + 1 overflows usize", format!("tova-{max}")),
            (CompressionConfig::h2o(1, max), "heavy + recent overflows usize", format!("h2o-{max}")),
            (CompressionConfig::streaming(max, 1), "sinks + recent overflows usize", format!("stream-{max}")),
        ];
        for (cfg, msg, label) in cases {
            assert_eq!(cfg.to_string(), label);
            let want = CacheError::InvalidParameter(msg);
            assert_eq!(cfg.try_build(8).unwrap_err(), want, "{label}");
            assert_eq!(cfg.try_build_for_layer(8, 1, 4).unwrap_err(), want, "{label}");
        }
    }

    #[test]
    fn paper_suite_has_five_entries() {
        assert_eq!(CompressionConfig::paper_suite().len(), 5);
    }
}

#[cfg(test)]
mod pyramid_tests {
    use super::*;

    #[test]
    fn pyramid_budgets_interpolate_linearly() {
        let p = PyramidKvParams {
            first_layer_budget: 96,
            last_layer_budget: 32,
            obs_window: 8,
        };
        assert_eq!(p.budget_for_layer(0, 4), 96);
        assert_eq!(p.budget_for_layer(3, 4), 32);
        let mid = p.budget_for_layer(1, 4);
        assert!(mid < 96 && mid > 32, "{mid}");
        assert_eq!(p.mean_budget(), 64);
        let odd_max = PyramidKvParams { first_layer_budget: usize::MAX, last_layer_budget: 33, ..p };
        assert_eq!(odd_max.mean_budget(), usize::MAX / 2 + 17); // No overflow on the way.
        // Degenerate single-layer model gets the base budget.
        assert_eq!(p.budget_for_layer(0, 1), 96);
    }

    #[test]
    fn build_for_layer_varies_only_for_pyramid() {
        let pyr = CompressionConfig::pyramid_kv(24, 8);
        let drive = |mut cache: Box<dyn KvCache>| -> usize {
            for pos in 0..64 {
                cache.append(&[0.0; 4], &[0.0; 4], pos);
                let n = cache.len();
                cache.observe_attention(&vec![1.0 / n as f32; n]);
            }
            cache.finish_prefill();
            cache.len()
        };
        let first = drive(pyr.build_for_layer(4, 0, 4));
        let last = drive(pyr.build_for_layer(4, 3, 4));
        assert!(first > last, "layer budgets must differ: {first} vs {last}");
        // Non-layer policies ignore the layer index.
        let h2o = CompressionConfig::h2o(4, 12);
        assert_eq!(drive(h2o.build_for_layer(4, 0, 4)), drive(h2o.build_for_layer(4, 3, 4)));
    }

    #[test]
    fn new_labels_render() {
        assert_eq!(CompressionConfig::think(0.5).label(), "think-50");
        assert_eq!(CompressionConfig::pyramid_kv(96, 32).label(), "pyramid-96-32");
        assert_eq!(CompressionConfig::tova(64).label(), "tova-64");
        assert_eq!(CompressionConfig::quest(8, 8).label(), "quest-64");
    }
}
