//! Fleet layer: sharded, epoch-parallel, autoscaled replica simulation.
//!
//! [`Cluster`](crate::Cluster) merges every server into one event heap and
//! consults global state on every arrival — exact, but serial and
//! O(log total-events) per event, which caps runs at ~10⁴ requests. The
//! fleet layer trades the global heap for *sharded dispatch*
//! ([`ShardPolicy::slot`]): each request's destination is a function of
//! the dispatch count, its stable shard key and the active-replica list —
//! never of any replica's load — so between telemetry epochs the replicas
//! share nothing and their event loops run **in parallel** over
//! [`rkvc_tensor::par`].
//!
//! # Epoch-barrier determinism
//!
//! A run is a sequence of fixed-width simulated-time epochs. Per epoch:
//!
//! 1. every arrival before the epoch boundary is dispatched (in global
//!    arrival order, through the shard policy — deterministic);
//! 2. every non-retired replica advances its own discrete-event loop to
//!    the boundary, fanned across the worker pool ([`par_chunks_mut`] with
//!    grain 1 — replica `i`'s simulation depends only on replica `i`);
//! 3. fresh completions are merged **in replica-index order** at the
//!    barrier, telemetry is sampled, and the autoscaler may act.
//!
//! Step 2 is embarrassingly parallel and steps 1/3 are sequential folds
//! over a fixed order, so the output is byte-identical at any
//! `RKVC_THREADS` — the same contract CI gate 4 enforces for kernels.
//!
//! # Autoscaling
//!
//! With [`FleetConfig::autoscale`] set, an [`Autoscaler`] inspects each
//! epoch's telemetry frame. Scale-up appends fresh replicas (jump hashing
//! then remaps only ~1/(n+1) of the key space to them); scale-down marks
//! the *newest* active replica draining — it finishes queued and in-flight
//! work, spills its parked session KV, stops taking dispatch, and retires
//! once empty. Removing the newest replica is exactly the shrink direction
//! jump hashing remaps cheapest.

use rkvc_gpu::DeploymentSpec;
use rkvc_kvcache::CompressionConfig;
use rkvc_tensor::par::par_chunks_mut;

use crate::scaling::{AutoscaleConfig, Autoscaler, FleetTelemetry, ScaleAction};
use crate::request::{check_arrivals, ArrivalFault};
use crate::shard::{shard_key, ShardPolicy};
use crate::{
    CompletedRequest, ConfigError, ServerSim, ServingConfig, ServingMetrics, SimRequest,
    SloMetrics,
};

/// Construction-time fleet parameters, validated by [`Fleet::new`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Initial replica count (≥ 1).
    pub replicas: usize,
    /// Dispatch policy.
    pub sharding: ShardPolicy,
    /// Telemetry-epoch width in simulated seconds (> 0). Replicas
    /// synchronize — and the autoscaler may act — only at multiples of
    /// this; smaller epochs mean fresher signals but more barriers.
    pub epoch_s: f64,
    /// Per-replica serving configuration.
    pub serving: ServingConfig,
    /// Autoscaling thresholds; `None` keeps the replica set fixed.
    pub autoscale: Option<AutoscaleConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas: 4,
            sharding: ShardPolicy::default(),
            epoch_s: 5.0,
            serving: ServingConfig::default(),
            autoscale: None,
        }
    }
}

impl FleetConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// [`FleetError`] naming the offending field.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.replicas == 0 {
            return Err(FleetError::NoReplicas);
        }
        if !(self.epoch_s > 0.0) || !self.epoch_s.is_finite() {
            return Err(FleetError::BadEpoch);
        }
        self.serving.validate().map_err(FleetError::Config)?;
        if let Some(a) = &self.autoscale {
            let thresholds_ok = a.queue_high.is_finite()
                && a.queue_low.is_finite()
                && a.queue_low >= 0.0
                && a.queue_low <= a.queue_high
                && a.p99_ttft_high_s.is_finite()
                && a.p99_ttft_high_s > 0.0;
            if a.min_replicas == 0
                || a.min_replicas > a.max_replicas
                || a.step == 0
                || !thresholds_ok
            {
                return Err(FleetError::BadAutoscale);
            }
            if self.replicas < a.min_replicas || self.replicas > a.max_replicas {
                return Err(FleetError::ReplicasOutsideScaleBounds);
            }
        }
        Ok(())
    }
}

/// Typed error for invalid fleet configurations and arrival streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetError {
    /// A fleet needs at least one replica.
    NoReplicas,
    /// The telemetry epoch must be positive and finite.
    BadEpoch,
    /// The per-replica serving config is invalid.
    Config(ConfigError),
    /// Autoscale bounds/thresholds are inconsistent (zero floor or step,
    /// floor above ceiling, inverted or non-finite thresholds).
    BadAutoscale,
    /// The initial replica count must sit inside the autoscaler's
    /// `[min_replicas, max_replicas]` band.
    ReplicasOutsideScaleBounds,
    /// A request's arrival time is NaN or infinite.
    NonFiniteArrival {
        /// Index of the offending request.
        index: usize,
        /// Its arrival time.
        arrival_s: f64,
    },
    /// The arrival stream is not sorted by arrival time.
    UnsortedArrivals {
        /// Index of the out-of-order request.
        index: usize,
        /// Its arrival time.
        arrival_s: f64,
        /// The preceding request's arrival time.
        prev_s: f64,
    },
}

impl From<ArrivalFault> for FleetError {
    fn from(fault: ArrivalFault) -> Self {
        match fault {
            ArrivalFault::NonFinite { index, arrival_s } => {
                FleetError::NonFiniteArrival { index, arrival_s }
            }
            ArrivalFault::Unsorted { index, arrival_s, prev_s } => {
                FleetError::UnsortedArrivals { index, arrival_s, prev_s }
            }
        }
    }
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FleetError::NoReplicas => write!(f, "fleet needs at least one replica"),
            FleetError::BadEpoch => write!(f, "epoch_s must be positive and finite"),
            FleetError::Config(e) => write!(f, "invalid replica serving config: {e}"),
            FleetError::BadAutoscale => {
                write!(f, "autoscale bounds/thresholds are inconsistent")
            }
            FleetError::ReplicasOutsideScaleBounds => write!(
                f,
                "initial replicas must lie within the autoscaler's min/max band"
            ),
            FleetError::NonFiniteArrival { index, arrival_s } => write!(
                f,
                "arrival times must be finite: request #{index} arrives at {arrival_s}s"
            ),
            FleetError::UnsortedArrivals {
                index,
                arrival_s,
                prev_s,
            } => write!(
                f,
                "requests must be sorted by arrival time: request #{index} arrives at {arrival_s}s after {prev_s}s"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// Replica lifecycle under autoscaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplicaState {
    /// Takes dispatch and simulates.
    Active,
    /// Finishes existing work, takes no dispatch, parked KV spilled.
    Draining,
    /// Empty and frozen; kept only for its completion log.
    Retired,
}

#[derive(Debug)]
struct ReplicaSlot {
    sim: ServerSim,
    state: ReplicaState,
}

/// Everything a fleet run produces: the merged completion stream, its
/// latency/SLO reductions, the fleet-wide dedup ratio, and the per-epoch
/// telemetry trace (the replica-count curve under autoscaling).
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// All completions, sorted by request id.
    pub completed: Vec<CompletedRequest>,
    /// TTFT/TBT/queue-delay/E2E summaries over `completed`.
    pub metrics: ServingMetrics,
    /// Per-class attainment and goodput over `completed`.
    pub slo: SloMetrics,
    /// Fleet-wide prefix-dedup ratio: Σ logical blocks / Σ physical blocks
    /// registered across every replica (1.0 = no sharing won anything).
    pub dedup_ratio: f64,
    /// One frame per epoch, in epoch order.
    pub telemetry: Vec<FleetTelemetry>,
    /// Largest active-replica count reached.
    pub peak_replicas: usize,
    /// Active replicas when the run ended.
    pub final_active: usize,
    /// Epochs simulated.
    pub epochs: u64,
    /// Requests dispatched but never completed (unserviceable — dropped by
    /// the engine's stall rule, never spun on).
    pub dropped: usize,
}

/// A sharded, epoch-parallel replica fleet. Build with [`Fleet::new`],
/// run with [`Fleet::run`]; see the module docs for the determinism
/// contract.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    dep: DeploymentSpec,
    algo: CompressionConfig,
    replicas: Vec<ReplicaSlot>,
    /// Indices into `replicas` of dispatchable replicas, in join order —
    /// the shard policy's bucket array. Drains pop from the back (the
    /// newest bucket, jump hashing's cheap shrink direction).
    active: Vec<usize>,
    autoscaler: Option<Autoscaler>,
}

impl Fleet {
    /// Builds a fleet of `cfg.replicas` identical replicas.
    ///
    /// # Errors
    ///
    /// [`FleetError`] if the configuration is invalid.
    pub fn new(
        dep: DeploymentSpec,
        algo: CompressionConfig,
        cfg: FleetConfig,
    ) -> Result<Self, FleetError> {
        cfg.validate()?;
        let mut fleet = Fleet {
            autoscaler: cfg.autoscale.clone().map(Autoscaler::new),
            replicas: Vec::with_capacity(cfg.replicas),
            active: Vec::with_capacity(cfg.replicas),
            cfg,
            dep,
            algo,
        };
        for _ in 0..fleet.cfg.replicas {
            fleet.add_replica(0.0).map_err(FleetError::Config)?;
        }
        Ok(fleet)
    }

    /// Appends a fresh active replica whose clock starts at `now_s` — a
    /// scale-up joins *at* the epoch boundary, where the fleet stands.
    fn add_replica(&mut self, now_s: f64) -> Result<(), ConfigError> {
        let id = self.replicas.len();
        let mut sim = ServerSim::with_config(id, self.dep.clone(), self.algo, self.cfg.serving)?;
        sim.advance_to(now_s);
        self.replicas.push(ReplicaSlot {
            sim,
            state: ReplicaState::Active,
        });
        self.active.push(id);
        Ok(())
    }

    /// Runs the arrival stream to completion (must be sorted by
    /// `arrival_s`). See the module docs for the epoch loop; completions
    /// merge at epoch barriers in replica-index order, so the result is
    /// byte-identical at any `RKVC_THREADS`.
    ///
    /// # Errors
    ///
    /// [`FleetError::NonFiniteArrival`] if an arrival time is NaN or
    /// infinite, [`FleetError::UnsortedArrivals`] if the stream is out of
    /// order.
    pub fn run(mut self, requests: Vec<SimRequest>) -> Result<FleetOutcome, FleetError> {
        check_arrivals(&requests)?;

        let epoch_s = self.cfg.epoch_s;
        let mut pending = requests.into_iter().peekable();
        let mut telemetry: Vec<FleetTelemetry> = Vec::new();
        let mut epoch_ttfts: Vec<f64> = Vec::new();
        let mut epoch_end = epoch_s;
        let mut epoch_idx: u64 = 0;
        let mut prev_iters: u64 = 0;
        let mut dispatched: usize = 0;
        let mut peak_replicas = self.active.len();

        loop {
            // 1. Dispatch every arrival strictly before the boundary, in
            // global arrival order (round robin rotates on the running
            // dispatch count; jump hashing reads only the key).
            let dispatched_before = dispatched;
            while let Some(req) = pending.next_if(|r| r.arrival_s < epoch_end) {
                let n = self.active.len();
                let slot = self.cfg.sharding.slot(dispatched, shard_key(&req), n);
                // In range by construction; the clamp keeps indexing total.
                let dst = self.active[slot.min(n - 1)];
                self.replicas[dst].sim.enqueue(req);
                dispatched += 1;
            }
            let dispatched_this = dispatched - dispatched_before;

            // 2. Advance every live replica to the boundary — the parallel
            // region. Grain 1: each replica is one independent unit of
            // work, and placement by chunk index keeps results
            // thread-count-invariant.
            par_chunks_mut(&mut self.replicas, 1, |_, chunk| {
                for r in chunk {
                    if r.state != ReplicaState::Retired {
                        r.sim.advance_to(epoch_end);
                    }
                }
            });

            // 3. Barrier: merge fresh completions in replica-index order,
            // retire drained replicas, sample telemetry, maybe scale.
            epoch_ttfts.clear();
            for r in &mut self.replicas {
                let range = r.sim.take_new_completions();
                for i in range {
                    epoch_ttfts.push(r.sim.completed()[i].ttft_s);
                }
                if r.state == ReplicaState::Draining && !r.sim.has_work() {
                    r.state = ReplicaState::Retired;
                }
            }
            let iters: u64 = self.replicas.iter().map(|r| r.sim.iterations()).sum();
            let (mut queued, mut running) = (0usize, 0usize);
            for &idx in &self.active {
                let sim = &self.replicas[idx].sim;
                running += sim.batch_size();
                queued += sim.load() - sim.batch_size();
            }
            let draining = self
                .replicas
                .iter()
                .filter(|r| r.state == ReplicaState::Draining)
                .count();
            let frame = FleetTelemetry::from_epoch(
                epoch_idx,
                epoch_end,
                self.active.len(),
                draining,
                queued,
                running,
                &epoch_ttfts,
            );
            if let Some(agent) = &mut self.autoscaler {
                match agent.decide(&frame) {
                    ScaleAction::Hold => {}
                    ScaleAction::Add(k) => {
                        for _ in 0..k {
                            // The config was validated in `new`: cannot fail.
                            if self.add_replica(epoch_end).is_err() {
                                break;
                            }
                        }
                    }
                    ScaleAction::Drain(k) => {
                        for _ in 0..k {
                            if self.active.len() <= 1 {
                                break;
                            }
                            let Some(idx) = self.active.pop() else {
                                break;
                            };
                            let r = &mut self.replicas[idx];
                            r.state = ReplicaState::Draining;
                            // Spill parked session KV now — no further
                            // turns will be dispatched here.
                            r.sim.release_parked();
                            if !r.sim.has_work() {
                                r.state = ReplicaState::Retired;
                            }
                        }
                    }
                }
            }
            telemetry.push(frame);
            peak_replicas = peak_replicas.max(self.active.len());
            epoch_idx += 1;

            // Termination / progress. With the stream exhausted: stop when
            // nothing is left, or when a whole epoch made no progress (the
            // remainder is unserviceable — parked by the engine's stall
            // rule, not spun on). With arrivals left but an idle epoch:
            // fast-forward the boundary to the next arrival's epoch.
            let work_left = self
                .replicas
                .iter()
                .any(|r| r.state != ReplicaState::Retired && r.sim.has_work());
            match pending.peek() {
                None => {
                    if !work_left || iters == prev_iters {
                        break;
                    }
                    epoch_end += epoch_s;
                }
                Some(next) => {
                    if dispatched_this == 0 && iters == prev_iters {
                        let ahead = (next.arrival_s / epoch_s).floor() * epoch_s;
                        epoch_end = if ahead > epoch_end { ahead } else { epoch_end };
                        // Guarantee the next epoch dispatches something.
                        while epoch_end <= next.arrival_s {
                            epoch_end += epoch_s;
                        }
                    } else {
                        epoch_end += epoch_s;
                    }
                }
            }
            prev_iters = iters;
        }

        // Final merge: all completions across replicas, id-sorted.
        let mut completed: Vec<CompletedRequest> = Vec::new();
        let (mut logical, mut physical) = (0u64, 0u64);
        for r in &self.replicas {
            completed.extend(r.sim.completed().iter().cloned());
            let stats = r.sim.block_stats();
            logical += stats.logical_blocks_registered;
            physical += stats.physical_blocks_registered;
        }
        completed.sort_by_key(|c| c.id);
        let metrics = ServingMetrics::from_completed(&completed);
        let slo = SloMetrics::from_completed(&completed);
        let dedup_ratio = if physical == 0 {
            1.0
        } else {
            logical as f64 / physical as f64
        };
        Ok(FleetOutcome {
            dropped: dispatched.saturating_sub(completed.len()),
            completed,
            metrics,
            slo,
            dedup_ratio,
            telemetry,
            peak_replicas,
            final_active: self.active.len(),
            epochs: epoch_idx,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_gpu::{EngineKind, GpuSpec, LlmSpec};

    fn dep() -> DeploymentSpec {
        DeploymentSpec {
            gpu: GpuSpec::a6000(),
            llm: LlmSpec::llama2_7b(),
            engine: EngineKind::LmDeploy,
            tensor_parallel: 1,
        }
    }

    fn cfg(replicas: usize, sharding: ShardPolicy) -> FleetConfig {
        FleetConfig {
            replicas,
            sharding,
            epoch_s: 2.0,
            serving: ServingConfig {
                max_batch: 8,
                pool_tokens: Some(8192),
                prefix_sharing: true,
                ..ServingConfig::default()
            },
            autoscale: None,
        }
    }

    fn grouped_stream(n: usize) -> Vec<SimRequest> {
        (0..n)
            .map(|i| {
                SimRequest::new(i as u64, i as f64 * 0.05, 256, 32)
                    .with_shared_prefix((i % 5) as u64, 128)
            })
            .collect()
    }

    #[test]
    fn fleet_completes_the_stream_and_merges_by_id() {
        let fleet = Fleet::new(dep(), CompressionConfig::Fp16, cfg(4, ShardPolicy::ConsistentHash))
            .expect("valid fleet");
        let out = fleet.run(grouped_stream(64)).expect("sorted stream");
        assert_eq!(out.completed.len(), 64);
        assert_eq!(out.dropped, 0);
        assert!(out.completed.windows(2).all(|w| w[0].id < w[1].id));
        assert!(out.epochs > 0);
        assert_eq!(out.telemetry.len(), out.epochs as usize);
        assert_eq!(out.peak_replicas, 4);
        assert_eq!(out.final_active, 4);
        assert!(out.metrics.ttft.len() == 64);
    }

    #[test]
    fn consistent_hash_keeps_prefix_groups_on_one_replica() {
        let fleet = Fleet::new(dep(), CompressionConfig::Fp16, cfg(4, ShardPolicy::ConsistentHash))
            .expect("valid fleet");
        let out = fleet.run(grouped_stream(64)).expect("sorted stream");
        // Every request in a group lands on the same replica...
        let mut group_server: std::collections::BTreeMap<u64, usize> =
            std::collections::BTreeMap::new();
        for c in &out.completed {
            let group = c.id % 5;
            let prev = group_server.entry(group).or_insert(c.server_id);
            assert_eq!(*prev, c.server_id, "group {group} split across replicas");
        }
        // ...so dedup survives sharding.
        assert!(out.dedup_ratio > 1.5, "dedup {}", out.dedup_ratio);
    }

    #[test]
    fn round_robin_scatters_prefix_groups_and_loses_dedup() {
        let hash = Fleet::new(dep(), CompressionConfig::Fp16, cfg(4, ShardPolicy::ConsistentHash))
            .expect("valid fleet")
            .run(grouped_stream(64))
            .expect("sorted stream");
        let rr = Fleet::new(dep(), CompressionConfig::Fp16, cfg(4, ShardPolicy::RoundRobin))
            .expect("valid fleet")
            .run(grouped_stream(64))
            .expect("sorted stream");
        assert_eq!(rr.completed.len(), 64);
        assert!(
            rr.dedup_ratio < hash.dedup_ratio,
            "round-robin {} should dedup worse than hash {}",
            rr.dedup_ratio,
            hash.dedup_ratio
        );
    }

    #[test]
    fn fleet_is_bit_identical_across_thread_counts() {
        let run = || {
            let mut c = cfg(6, ShardPolicy::ConsistentHash);
            c.autoscale = Some(AutoscaleConfig {
                min_replicas: 2,
                max_replicas: 8,
                queue_high: 2.0,
                queue_low: 0.5,
                p99_ttft_high_s: 5.0,
                cooldown_epochs: 1,
                step: 1,
            });
            let fleet = Fleet::new(dep(), CompressionConfig::Fp16, c).expect("valid fleet");
            fleet.run(grouped_stream(96)).expect("sorted stream")
        };
        rkvc_tensor::par::set_threads(Some(1));
        let baseline = run();
        for threads in [3, 4] {
            rkvc_tensor::par::set_threads(Some(threads));
            let other = run();
            assert_eq!(baseline.completed.len(), other.completed.len());
            for (a, b) in baseline.completed.iter().zip(&other.completed) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.server_id, b.server_id);
                assert_eq!(a.ttft_s.to_bits(), b.ttft_s.to_bits());
                assert_eq!(a.e2e_s.to_bits(), b.e2e_s.to_bits());
            }
            assert_eq!(baseline.telemetry, other.telemetry);
        }
        rkvc_tensor::par::set_threads(None);
    }

    #[test]
    fn autoscaler_adds_replicas_under_load_and_drains_when_idle() {
        let mut c = cfg(2, ShardPolicy::ConsistentHash);
        c.epoch_s = 1.0;
        c.autoscale = Some(AutoscaleConfig {
            min_replicas: 1,
            max_replicas: 8,
            queue_high: 1.0,
            queue_low: 0.25,
            p99_ttft_high_s: 2.0,
            cooldown_epochs: 0,
            step: 2,
        });
        // A dense burst then a long quiet tail with stragglers.
        let mut reqs: Vec<SimRequest> = (0..48)
            .map(|i| {
                SimRequest::new(i as u64, i as f64 * 0.01, 512, 48)
                    .with_shared_prefix((i % 3) as u64, 128)
            })
            .collect();
        for i in 0..6 {
            reqs.push(SimRequest::new(48 + i as u64, 60.0 + i as f64 * 5.0, 128, 16));
        }
        let fleet = Fleet::new(dep(), CompressionConfig::Fp16, c).expect("valid fleet");
        let out = fleet.run(reqs).expect("sorted stream");
        assert_eq!(out.completed.len(), 54);
        assert!(out.peak_replicas > 2, "burst should scale up");
        assert!(
            out.final_active < out.peak_replicas,
            "quiet tail should drain: final {} vs peak {}",
            out.final_active,
            out.peak_replicas
        );
        // The trace records the whole curve.
        assert!(out.telemetry.iter().any(|t| t.draining_replicas > 0)
            || out.final_active < out.peak_replicas);
    }

    #[test]
    fn draining_replica_finishes_in_flight_work() {
        // Force a drain while work is in flight: every completion must
        // still appear (drained ≠ dropped).
        let mut c = cfg(4, ShardPolicy::ConsistentHash);
        c.epoch_s = 0.5;
        c.autoscale = Some(AutoscaleConfig {
            min_replicas: 1,
            max_replicas: 4,
            queue_high: f64::MAX / 4.0,
            queue_low: f64::MAX / 8.0, // always "idle": drain every epoch
            p99_ttft_high_s: f64::MAX / 4.0,
            cooldown_epochs: 0,
            step: 1,
        });
        let fleet = Fleet::new(dep(), CompressionConfig::Fp16, c).expect("valid fleet");
        let out = fleet.run(grouped_stream(32)).expect("sorted stream");
        assert_eq!(out.completed.len(), 32, "drains must not lose requests");
        // The run stops when the work does, so the drain may not reach the
        // floor — but it must have made progress from the initial 4.
        assert!(out.final_active < 4, "final_active {}", out.final_active);
    }

    #[test]
    fn unserviceable_requests_drop_without_hanging_the_fleet() {
        let mut c = cfg(2, ShardPolicy::RoundRobin);
        c.serving.pool_tokens = Some(128);
        c.serving.prefix_sharing = false;
        let fleet = Fleet::new(dep(), CompressionConfig::Fp16, c).expect("valid fleet");
        // Request 0 can never fit a 128-token pool; its replica parks.
        let reqs = vec![
            SimRequest::new(0, 0.0, 4096, 8),
            SimRequest::new(1, 0.1, 64, 8),
        ];
        let out = fleet.run(reqs).expect("sorted stream");
        assert!(out.completed.iter().all(|c| c.id != 0));
        assert_eq!(out.dropped, 1);
    }

    #[test]
    fn config_validation_rejects_bad_fleets() {
        let bad = FleetConfig {
            replicas: 0,
            ..FleetConfig::default()
        };
        assert_eq!(bad.validate(), Err(FleetError::NoReplicas));
        let bad = FleetConfig {
            epoch_s: 0.0,
            ..FleetConfig::default()
        };
        assert_eq!(bad.validate(), Err(FleetError::BadEpoch));
        let bad = FleetConfig {
            autoscale: Some(AutoscaleConfig {
                min_replicas: 8,
                max_replicas: 2,
                ..AutoscaleConfig::default()
            }),
            ..FleetConfig::default()
        };
        assert_eq!(bad.validate(), Err(FleetError::BadAutoscale));
        let bad = FleetConfig {
            replicas: 1,
            autoscale: Some(AutoscaleConfig {
                min_replicas: 2,
                max_replicas: 8,
                ..AutoscaleConfig::default()
            }),
            ..FleetConfig::default()
        };
        assert_eq!(bad.validate(), Err(FleetError::ReplicasOutsideScaleBounds));
        assert!(FleetConfig::default().validate().is_ok());
        let unsorted = vec![
            SimRequest::new(0, 5.0, 64, 8),
            SimRequest::new(1, 1.0, 64, 8),
        ];
        let fleet = Fleet::new(dep(), CompressionConfig::Fp16, FleetConfig::default())
            .expect("valid fleet");
        assert!(matches!(
            fleet.run(unsorted),
            Err(FleetError::UnsortedArrivals { index: 1, .. })
        ));
    }
}
