//! Discrete-event LLM serving simulator.
//!
//! Provides the serving substrate the paper's system-level experiments need:
//!
//! * [`BlockManager`] — a PagedAttention-style KV block allocator with
//!   per-block identity: content-hashed copy-on-write prefix sharing
//!   (refcounted immutable prefix blocks deduplicated across sequences),
//!   an L1 (GPU) / L2 (host-spill) tier with explicit demote/refill
//!   policies ([`TierConfig`]), and physical fragmentation accounting.
//! * [`Engine`] — the discrete-event core: a binary-heap event queue keyed
//!   on `(sim_time_bits, rank, seq)` for reproducible tie-breaks, driving
//!   per-server iteration events and cluster arrivals on one simulated
//!   [`SimClock`].
//! * [`Scheduler`] — an admission/preemption policy as data: a label, an
//!   [`AdmitOrder`] (arrival order, shortest-predicted-first via the
//!   router's length predictions, or deadline-slack EDF) and a
//!   [`VictimRule`] (never preempt, or evict-and-recompute the youngest /
//!   the youngest Batch-class sequence when the block pool runs dry,
//!   recompute charged through the `rkvc_gpu` roofline model).
//!   [`SchedulerConfig::policy`] is the table of shipped combinations;
//!   `fcfs` is bit-compatible with the seed lockstep loop.
//! * [`ServerSim`] — one GPU (or TP group) running iteration-level
//!   continuous batching over the [`rkvc_gpu`] cost model: all per-server
//!   state and the one copy of the iteration logic; emits per-request
//!   TTFT / queue-delay / end-to-end latency. Configured via
//!   [`ServingConfig`] (batch width, KV block size, pool pinning,
//!   scheduler).
//! * [`Cluster`] — a multi-GPU deployment with the paper's four routing
//!   policies (§5.4, Table 8): load balance, throughput-predictor routing,
//!   length-predictor routing, and combined.
//! * [`LatencySummary`] / [`ServingMetrics`] — mean/percentile/CDF
//!   reductions for Figure 5 and Table 8, plus TTFT/TBT/queue-delay
//!   summaries for scheduler ablations.
//! * **Sessions & SLOs** — every request carries an [`SloClass`]
//!   (Interactive / Standard / Batch with per-class TTFT/TBT targets,
//!   [`SloTargets`]) and may belong to a multi-turn conversation
//!   ([`SessionRef`]). [`Engine::run`]'s follow-up hook schedules later
//!   turns causally (turn `k` arrives only after turn `k − 1` completes), and a
//!   completed non-final turn *parks* its KV — published under a
//!   session-scoped hash chain ([`session_hash_chain`]) and re-referenced
//!   by the next turn instead of re-prefilled. [`SloPolicy::Aware`] selects
//!   the SPF/preemptive rows with deadline-slack admission and Batch-first
//!   victim selection; [`SloMetrics`] reports per-class
//!   attainment and the resulting *goodput* (within-SLO tokens/s).
//! * [`Fleet`] — sharded, epoch-parallel replica simulation for 10⁴–10⁶
//!   request runs: a [`ShardPolicy`] (round-robin or jump consistent
//!   hashing over session/prefix-group keys) dispatches each request to
//!   one replica, replicas advance independently between telemetry epochs
//!   (fanned across [`rkvc_tensor::par`], byte-identical at any
//!   `RKVC_THREADS`), and an optional [`Autoscaler`] adds or drains
//!   replicas on queue-depth / p99-TTFT signals sampled at epoch
//!   boundaries.
//!
//! # Examples
//!
//! ```
//! use rkvc_gpu::{DeploymentSpec, EngineKind, GpuSpec, LlmSpec};
//! use rkvc_kvcache::CompressionConfig;
//! use rkvc_serving::{ServerSim, SimRequest};
//!
//! let dep = DeploymentSpec {
//!     gpu: GpuSpec::a6000(),
//!     llm: LlmSpec::llama2_7b(),
//!     engine: EngineKind::LmDeploy,
//!     tensor_parallel: 1,
//! };
//! let mut server = ServerSim::new(0, dep, CompressionConfig::Fp16, 16);
//! server.enqueue(SimRequest::new(0, 0.0, 512, 128));
//! let done = server.run_to_completion();
//! assert_eq!(done.len(), 1);
//! assert!(done[0].e2e_s > 0.0);
//! ```
//!
//! Selecting a scheduler:
//!
//! ```
//! use rkvc_gpu::{DeploymentSpec, EngineKind, GpuSpec, LlmSpec};
//! use rkvc_kvcache::CompressionConfig;
//! use rkvc_serving::{SchedulerConfig, ServerSim, ServingConfig, SimRequest};
//!
//! let dep = DeploymentSpec {
//!     gpu: GpuSpec::a6000(),
//!     llm: LlmSpec::llama2_7b(),
//!     engine: EngineKind::LmDeploy,
//!     tensor_parallel: 1,
//! };
//! let cfg = ServingConfig {
//!     max_batch: 16,
//!     pool_tokens: Some(4096), // pin the pool to create block pressure
//!     scheduler: SchedulerConfig::Preemptive,
//!     ..ServingConfig::default()
//! };
//! let mut server = ServerSim::with_config(0, dep, CompressionConfig::Fp16, cfg).unwrap();
//! server.enqueue(SimRequest::new(0, 0.0, 512, 128));
//! assert_eq!(server.run_to_completion().len(), 1);
//! ```

mod blocks;
mod clock;
mod cluster;
mod engine;
mod fleet;
mod metrics;
mod request;
mod scaling;
mod scheduler;
mod server;
mod shard;
mod slo;
mod tier;

pub use blocks::{
    prefix_hash_chain, session_hash_chain, BlockError, BlockManager, BlockPoolStats, BlockTier,
    BlockView, SharedRegistration, TierMove,
};
pub use clock::SimClock;
pub use cluster::{Cluster, ClusterError, OraclePredictor, RoutePredictor, RoutingPolicy};
pub use engine::Engine;
pub use fleet::{Fleet, FleetConfig, FleetError, FleetOutcome};
pub use metrics::{ClassMetrics, LatencySummary, ServingMetrics, SloMetrics};
pub use request::{CompletedRequest, SessionRef, SimRequest};
pub use scaling::{AutoscaleConfig, Autoscaler, FleetTelemetry, ScaleAction};
pub use scheduler::{AdmitOrder, Scheduler, SchedulerConfig, VictimRule};
pub use shard::{jump_hash, shard_key, ShardPolicy};
pub use server::{ConfigError, ServerSim, ServingConfig};
pub use slo::{SloClass, SloPolicy, SloTarget, SloTargets};
pub use tier::{DemotePolicy, RefillPolicy, TierConfig};
