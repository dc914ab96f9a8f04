//! KV-cache compression algorithms for LLM serving, reproduced from the
//! MLSys 2025 study *"Rethinking Key-Value Cache Compression Techniques for
//! Large Language Model Serving"*.
//!
//! The crate provides a per-(layer, head) [`KvCache`] trait and two cache
//! types behind it, one per storage format, each with the paper's
//! hyper-parameters:
//!
//! * [`DenseCache`] — full-width rows rounded through IEEE binary16, kept
//!   or evicted by a [`Retention`] rule. The rule is the whole difference
//!   between the FP16 baseline (`KeepAll`) and the sparsity family:
//!   StreamingLLM (`SinkWindow`), H2O (`HeavyHitters`), TOVA
//!   (`LeastAttended`), SnapKV and PyramidKV (`PrefillVote`), ThinK
//!   (`ChannelPrune`) and Quest (`PageSelect`).
//! * [`ChunkedCache`] — a full-precision window of recent tokens in front
//!   of immutable compressed chunks, packed by a [`Codec`]. The codec is
//!   the whole difference within the quantization family: `Kivi` and
//!   `Gear`.
//!
//! Experiments name none of them: a [`CompressionConfig`] (ten variants,
//! serializable) builds the right one as a `Box<dyn KvCache>`.
//!
//! All quantization is *real*: values are packed into `u8` words at
//! 1/2/4/8 bits and dequantized on read, so compression genuinely perturbs
//! downstream attention outputs — the mechanism behind the paper's
//! length-distribution and negative-sample findings.
//!
//! # Examples
//!
//! ```
//! use rkvc_kvcache::{CompressionConfig, KvCache};
//!
//! let mut cache = CompressionConfig::kivi(4).build(8);
//! for pos in 0..32 {
//!     let k = vec![pos as f32 * 0.1; 8];
//!     let v = vec![1.0; 8];
//!     cache.append(&k, &v, pos);
//! }
//! let view = cache.view();
//! assert_eq!(view.keys.rows(), 32);
//! ```

mod cache;
mod chunked;
mod config;
mod dense;
mod quantizer;
mod stats;
mod window;

pub use cache::{AttendBatch, AttendScratch, KvCache, KvView};
pub use chunked::{ChunkedCache, Codec, GearParams, KiviParams};
pub use config::{CompressionConfig, CompressionFamily, PyramidKvParams};
pub use dense::{
    DenseCache, H2OParams, QuestParams, Retention, SnapKvParams, StreamingParams, ThinkParams,
    TovaParams,
};
pub use quantizer::{dequantize_group, quantize_group, GroupLayout, QuantizedGroup, QuantizedMatrix, SupportedBits};
pub use stats::CacheStats;

/// Error type for cache configuration problems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// The requested bit width is not one of 1, 2, 4, 8.
    UnsupportedBits(u8),
    /// A structural parameter (budget, window, group size) was zero or
    /// otherwise out of domain.
    InvalidParameter(&'static str),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::UnsupportedBits(b) => {
                write!(f, "unsupported quantization bit width: {b} (expected 1, 2, 4, or 8)")
            }
            CacheError::InvalidParameter(msg) => write!(f, "invalid cache parameter: {msg}"),
        }
    }
}

impl std::error::Error for CacheError {}
