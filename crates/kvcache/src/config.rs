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
/// This is the single entry point experiments use to instantiate caches; it
/// is serializable so experiment manifests can record exactly what ran.
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
                kernel: 5,
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
    /// configuration carries invalid parameters (e.g. a config deserialized
    /// from untrusted JSON; the per-algorithm constructors on
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

    /// The most tokens the policy keeps stored per sequence, or `None` when
    /// it stores every token (FP16, the quantizers, ThinK's channel pruning,
    /// Quest's query-time selection). The one definition the cost model and
    /// the serving simulator size an evicting cache by; saturating, so a
    /// decoded config with an absurd budget caps at `usize::MAX` instead of
    /// overflowing.
    pub fn retained_cap(&self) -> Option<usize> {
        match *self {
            CompressionConfig::H2O(p) => Some(p.budget()),
            CompressionConfig::Streaming(p) => Some(p.budget()),
            CompressionConfig::SnapKv(p) => Some(p.budget.saturating_add(p.obs_window)),
            CompressionConfig::Tova(p) => Some(p.budget),
            CompressionConfig::PyramidKv(p) => Some(p.mean_budget().saturating_add(p.obs_window)),
            CompressionConfig::Fp16
            | CompressionConfig::Kivi(_)
            | CompressionConfig::Gear(_)
            | CompressionConfig::Think(_)
            | CompressionConfig::Quest(_) => None,
        }
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

rkvc_tensor::json_struct!(PyramidKvParams {
    first_layer_budget,
    last_layer_budget,
    obs_window,
});
rkvc_tensor::json_unit_enum!(CompressionFamily {
    None,
    Quantization,
    Sparsity,
});

// `CompressionConfig` carries per-algorithm parameter payloads, so the
// unit-enum macro does not apply; serialize in serde's externally-tagged
// shape by hand: `"Fp16"` for the unit variant, `{"Kivi": {...}}` for
// newtype variants.
impl rkvc_tensor::json::ToJson for CompressionConfig {
    fn to_json(&self) -> rkvc_tensor::json::JsonValue {
        use rkvc_tensor::json::JsonValue;
        let tagged = |tag: &str, inner: JsonValue| {
            JsonValue::Object(vec![(tag.to_owned(), inner)])
        };
        match self {
            CompressionConfig::Fp16 => JsonValue::Str("Fp16".to_owned()),
            CompressionConfig::Kivi(p) => tagged("Kivi", p.to_json()),
            CompressionConfig::Gear(p) => tagged("Gear", p.to_json()),
            CompressionConfig::H2O(p) => tagged("H2O", p.to_json()),
            CompressionConfig::Streaming(p) => tagged("Streaming", p.to_json()),
            CompressionConfig::SnapKv(p) => tagged("SnapKv", p.to_json()),
            CompressionConfig::Tova(p) => tagged("Tova", p.to_json()),
            CompressionConfig::Think(p) => tagged("Think", p.to_json()),
            CompressionConfig::PyramidKv(p) => tagged("PyramidKv", p.to_json()),
            CompressionConfig::Quest(p) => tagged("Quest", p.to_json()),
        }
    }
}

impl rkvc_tensor::json::FromJson for CompressionConfig {
    fn from_json(
        v: &rkvc_tensor::json::JsonValue,
    ) -> Result<Self, rkvc_tensor::json::JsonError> {
        use rkvc_tensor::json::{FromJson, JsonError, JsonValue};
        match v {
            JsonValue::Str(s) if s == "Fp16" => Ok(CompressionConfig::Fp16),
            JsonValue::Object(fields) if fields.len() == 1 => {
                let (tag, inner) = &fields[0];
                match tag.as_str() {
                    "Kivi" => Ok(CompressionConfig::Kivi(FromJson::from_json(inner)?)),
                    "Gear" => Ok(CompressionConfig::Gear(FromJson::from_json(inner)?)),
                    "H2O" => Ok(CompressionConfig::H2O(FromJson::from_json(inner)?)),
                    "Streaming" => {
                        Ok(CompressionConfig::Streaming(FromJson::from_json(inner)?))
                    }
                    "SnapKv" => Ok(CompressionConfig::SnapKv(FromJson::from_json(inner)?)),
                    "Tova" => Ok(CompressionConfig::Tova(FromJson::from_json(inner)?)),
                    "Think" => Ok(CompressionConfig::Think(FromJson::from_json(inner)?)),
                    "PyramidKv" => {
                        Ok(CompressionConfig::PyramidKv(FromJson::from_json(inner)?))
                    }
                    "Quest" => Ok(CompressionConfig::Quest(FromJson::from_json(inner)?)),
                    other => Err(JsonError::new(format!(
                        "unknown CompressionConfig variant '{other}'"
                    ))),
                }
            }
            other => Err(JsonError::new(format!(
                "expected CompressionConfig, got {}",
                other.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retained_cap_is_the_stored_token_budget_and_saturates() {
        assert_eq!(CompressionConfig::h2o(64, 448).retained_cap(), Some(512));
        assert_eq!(CompressionConfig::streaming(64, 448).retained_cap(), Some(512));
        assert_eq!(CompressionConfig::tova(256).retained_cap(), Some(256));
        let snap = SnapKvParams { budget: 448, obs_window: 32, kernel: 5 };
        assert_eq!(CompressionConfig::SnapKv(snap).retained_cap(), Some(480));
        let pyramid = PyramidKvParams { first_layer_budget: 96, last_layer_budget: 32, obs_window: 8 };
        assert_eq!(CompressionConfig::PyramidKv(pyramid).retained_cap(), Some(72));
        for keeps_all in [
            CompressionConfig::Fp16,
            CompressionConfig::kivi(4),
            CompressionConfig::gear(4),
            CompressionConfig::think(0.5),
            CompressionConfig::quest(16, 8),
        ] {
            assert_eq!(keeps_all.retained_cap(), None, "{keeps_all}");
        }
        let huge = SnapKvParams { budget: usize::MAX, ..snap };
        assert_eq!(CompressionConfig::SnapKv(huge).retained_cap(), Some(usize::MAX));
        let huge = PyramidKvParams { first_layer_budget: usize::MAX, last_layer_budget: usize::MAX, ..pyramid };
        assert_eq!(CompressionConfig::PyramidKv(huge).retained_cap(), Some(usize::MAX));
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

    #[test]
    fn config_round_trips_through_json() {
        let cfg = CompressionConfig::kivi(2);
        let json = rkvc_tensor::json::to_string(&cfg);
        let back: CompressionConfig = rkvc_tensor::json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    fn decode(json: &str) -> CompressionConfig {
        rkvc_tensor::json::from_str(json).unwrap_or_else(|e| panic!("{json}: {e}"))
    }

    /// Every documented bad parameter of every variant, decoded from JSON
    /// as an untrusted manifest would be: both build entry points return
    /// the typed error with its message, and nothing panics, the label
    /// included. (`Fp16` has no parameter to get wrong; it must build.)
    #[test]
    fn bad_parameters_from_json_are_typed_errors_on_both_build_paths() {
        let invalid = CacheError::InvalidParameter;
        let cases = [
            (r#"{"Kivi":{"bits":3,"group_size":32,"residual":128}}"#, CacheError::UnsupportedBits(3)),
            (r#"{"Kivi":{"bits":4,"group_size":0,"residual":128}}"#, invalid("group_size must be >= 1")),
            (
                r#"{"Gear":{"bits":4,"outlier_ratio":-0.1,"rank_ratio":0.02,"buffer":16}}"#,
                invalid("outlier_ratio must be in [0, 1]"),
            ),
            (
                r#"{"Gear":{"bits":4,"outlier_ratio":0.02,"rank_ratio":1.5,"buffer":16}}"#,
                invalid("rank_ratio must be in [0, 1]"),
            ),
            (
                r#"{"Gear":{"bits":4,"outlier_ratio":0.02,"rank_ratio":0.02,"buffer":0}}"#,
                invalid("buffer must be >= 1"),
            ),
            (r#"{"H2O":{"heavy":0,"recent":0}}"#, invalid("heavy + recent must be >= 1")),
            (r#"{"Streaming":{"sinks":0,"recent":0}}"#, invalid("sinks + recent must be >= 1")),
            (r#"{"SnapKv":{"budget":0,"obs_window":32,"kernel":5}}"#, invalid("budget must be >= 1")),
            (r#"{"SnapKv":{"budget":8,"obs_window":0,"kernel":5}}"#, invalid("obs_window must be >= 1")),
            (r#"{"SnapKv":{"budget":8,"obs_window":32,"kernel":4}}"#, invalid("kernel must be odd and >= 1")),
            (r#"{"SnapKv":{"budget":8,"obs_window":32,"kernel":0}}"#, invalid("kernel must be odd and >= 1")),
            (r#"{"Tova":{"budget":0}}"#, invalid("budget must be >= 1")),
            (r#"{"Think":{"keep_ratio":0.0}}"#, invalid("keep_ratio must be in (0, 1]")),
            (r#"{"Think":{"keep_ratio":1.5}}"#, invalid("keep_ratio must be in (0, 1]")),
            (
                r#"{"PyramidKv":{"first_layer_budget":96,"last_layer_budget":32,"obs_window":0}}"#,
                invalid("obs_window must be >= 1"),
            ),
            (r#"{"Quest":{"page_size":0,"top_k_pages":4}}"#, invalid("page_size must be >= 1")),
            (r#"{"Quest":{"page_size":16,"top_k_pages":0}}"#, invalid("top_k_pages must be >= 1")),
        ];
        for (json, want) in cases {
            let cfg = decode(json);
            assert_eq!(cfg.try_build(8).unwrap_err(), want, "{json}");
            assert_eq!(cfg.try_build_for_layer(8, 1, 4).unwrap_err(), want, "{json}");
            assert!(!cfg.to_string().is_empty(), "{json}");
        }
        assert!(decode(r#""Fp16""#).try_build_for_layer(8, 1, 4).is_ok());
    }

    /// Budgets whose arithmetic does not fit `usize` are construction
    /// errors, and their labels saturate instead of overflowing. The Quest
    /// geometry is reachable from JSON (integers decode up to `i64::MAX`),
    /// the others only from code. The two quantizers used to build and
    /// then panic on their first append, the flush threshold wrapping.
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
                decode(r#"{"Quest":{"page_size":4611686018427387904,"top_k_pages":4}}"#),
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
