//! The repo's benchmark: six workloads, host-time end-to-end metrics,
//! per-layer probes and a traced run. See `README.md` beside this crate.
//!
//! It calls the measured crates only through their public functions and
//! times them from outside; nothing inside them is instrumented.

pub mod compare;
pub mod digest;
pub mod harness;
pub mod layers;
pub mod metrics;
pub mod orchestrate;
pub mod probes;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Seed used when none is given; goldens are committed for it and for
/// [`HELD_BACK_SEED`].
pub const DEFAULT_SEED: u64 = 0x5EED;
/// Second seed with committed goldens, never used while tuning a change.
pub const HELD_BACK_SEED: u64 = 0xBEEF;
/// Seconds of timed passes per untraced run when none is given; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 12.0;
