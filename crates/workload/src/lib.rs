//! Synthetic workload suites standing in for the paper's datasets.
//!
//! * [`sharegpt`] — conversation-shaped requests with log-normal
//!   prompt/response lengths and Poisson arrivals, replacing the ShareGPT
//!   sample the paper uses for throughput/length analysis. Each request also
//!   carries a TinyLM prompt whose FP16 completion has a known reference, so
//!   compression-induced *length shift* and *semantic drift* are measured on
//!   real generations.
//! * [`longbench`] — six long-context task types (single-doc QA, multi-doc
//!   QA, summarization, few-shot, code completion, synthetic retrieval)
//!   mirroring LongBench's categories, each with a programmatic scorer.
//!   Correctness requires retrieving specific tokens from deep context —
//!   exactly the capability KV compression endangers.
//! * [`prefix`] — shared-system-prompt traffic: a few fixed prefix groups,
//!   log-normal private suffixes, Poisson arrivals. The workload where a
//!   prefix-sharing KV pool separates from a flat one.
//! * [`session`] — multi-turn conversations with per-session SLO classes:
//!   Poisson session starts, geometric turn counts, think-time gaps, each
//!   turn's prompt re-opening with the full accumulated history. Turn
//!   `k + 1` is materialized causally from turn `k`'s completion via
//!   [`SessionTrace::follow_up`] — the input to the serving engine's
//!   `Engine::run` follow-up hook.
//! * [`semantic`] — token-overlap F1 scoring (the stand-in for the paper's
//!   ChatGPT-reference semantic score in Table 4).
//! * [`length`] — the paper's response-length difference statistic
//!   `D = (L_un - L_cs)/L_un`, histograms, and KDE.
//! * [`suite`] — the compression-algorithm suite scaled to TinyLM context
//!   lengths.
//! * [`arrivals`] — non-stationary arrival processes (diurnal
//!   raised-cosine, square-wave bursts) sampled by thinning, feeding the
//!   serving fleet layer with sorted, SLO-annotated, prefix-grouped
//!   request streams at 10⁴–10⁶ scale.

pub mod arrivals;
pub mod length;
pub mod longbench;
pub mod prefix;
pub mod semantic;
pub mod session;
pub mod sharegpt;
pub mod suite;

pub use arrivals::{sample_fleet, ArrivalPattern, FleetWorkloadConfig};
pub use length::{length_difference, LengthStats};
pub use prefix::{sample_shared_prefix, PrefixRequest, SharedPrefixConfig};
pub use session::{
    sample_sessions, SessionSpec, SessionTrace, SessionTurn, SessionWorkloadConfig,
};
pub use longbench::{generate_sample, generate_suite, LongBenchConfig, Scorer, TaskSample, TaskType};
pub use semantic::{semantic_score, token_f1};
pub use sharegpt::{sample_conversations, ConversationRequest, ShareGptConfig};
pub use suite::{
    accuracy_suite, compression_ratio_sweep, scaled_gear, scaled_h2o, scaled_kivi, scaled_paper_suite,
    scaled_streaming, ScaledAlgo,
};
