//! Single-deployment continuous-batching server: [`ServerSim`] holds all
//! per-server state and the one copy of the iteration logic. A standalone
//! server drives itself ([`ServerSim::run_to_completion`]);
//! [`Engine`](crate::Engine) and [`Fleet`](crate::Fleet) drive sets of them.

use rkvc_gpu::{decode_memory_bytes, DeploymentSpec};
use rkvc_kvcache::CompressionConfig;
use std::collections::VecDeque;

use crate::blocks::{prefix_hash_chain, session_hash_chain};
use crate::engine::{RANK_DECODE, RANK_IDLE_START};
use crate::scheduler::QueueView;
use crate::tier::{DemotePolicy, RefillPolicy};
use crate::{
    BlockError, BlockManager, BlockPoolStats, CompletedRequest, SchedulerConfig, SimClock,
    SimRequest, SloPolicy, SloTargets, TierConfig,
};

/// Construction-time serving parameters, validated by
/// [`ServerSim::with_config`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingConfig {
    /// Maximum concurrent running sequences (continuous-batching width).
    pub max_batch: usize,
    /// Tokens per KV block (vLLM/LMDeploy default is 16–64). The default
    /// of 16 matches the seed simulator.
    pub block_tokens: usize,
    /// Pins the KV pool capacity in tokens instead of deriving it from the
    /// deployment's free HBM — used to create block pressure in scheduler
    /// and block-size ablations.
    pub pool_tokens: Option<usize>,
    /// Admission/preemption policy.
    pub scheduler: SchedulerConfig,
    /// Deduplicate content-identical prefix blocks across sequences (the
    /// requests must carry `prefix_group`/`prefix_len` annotations). Off
    /// by default: the flat pool is the seed-compatible baseline.
    pub prefix_sharing: bool,
    /// Optional host spill tier. `None` (the default) preempts by
    /// evict-and-recompute, exactly as the seed did.
    pub tier: Option<TierConfig>,
    /// Per-class TTFT/TBT targets used for per-request SLO attainment
    /// and (under [`SloPolicy::Aware`]) deadline-slack scheduling.
    pub slo: SloTargets,
    /// Whether schedulers consult SLO classes. [`SloPolicy::Blind`] (the
    /// default) keeps every existing ordering bit-for-bit.
    pub slo_policy: SloPolicy,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            max_batch: 8,
            block_tokens: 16,
            pool_tokens: None,
            scheduler: SchedulerConfig::Fcfs,
            prefix_sharing: false,
            tier: None,
            slo: SloTargets::default(),
            slo_policy: SloPolicy::Blind,
        }
    }
}

impl ServingConfig {
    /// Default config at the given batch width — the shape of the seed
    /// `ServerSim::new` signature.
    pub fn with_max_batch(max_batch: usize) -> Self {
        ServingConfig {
            max_batch,
            ..ServingConfig::default()
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_batch == 0 {
            return Err(ConfigError::ZeroMaxBatch);
        }
        if self.block_tokens == 0 {
            return Err(ConfigError::ZeroBlockTokens);
        }
        if self.pool_tokens == Some(0) {
            return Err(ConfigError::ZeroPoolTokens);
        }
        if let Some(t) = self.tier {
            if t.l2_blocks == 0 {
                return Err(ConfigError::ZeroL2Blocks);
            }
            if !(t.pcie_gbs > 0.0) || !t.pcie_gbs.is_finite() {
                return Err(ConfigError::BadLinkBandwidth);
            }
            if !(t.transfer_latency_s >= 0.0) || !t.transfer_latency_s.is_finite() {
                return Err(ConfigError::BadLinkLatency);
            }
        }
        if !self.slo.valid() {
            return Err(ConfigError::BadSloTarget);
        }
        Ok(())
    }
}

/// Typed error for invalid [`ServingConfig`]s — serving constructors
/// degrade via `Result`, never abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `max_batch` must admit at least one sequence.
    ZeroMaxBatch,
    /// `block_tokens` must be positive (blocks hold at least one token).
    ZeroBlockTokens,
    /// A pinned pool must hold at least one token.
    ZeroPoolTokens,
    /// A configured spill tier must hold at least one block.
    ZeroL2Blocks,
    /// The tier's link bandwidth must be positive and finite.
    BadLinkBandwidth,
    /// The tier's transfer latency must be non-negative and finite.
    BadLinkLatency,
    /// Every per-class SLO target must be positive and finite.
    BadSloTarget,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroMaxBatch => write!(f, "max_batch must be at least 1"),
            ConfigError::ZeroBlockTokens => write!(f, "block_tokens must be at least 1"),
            ConfigError::ZeroPoolTokens => write!(f, "pool_tokens override must be at least 1"),
            ConfigError::ZeroL2Blocks => write!(f, "tier.l2_blocks must be at least 1"),
            ConfigError::BadLinkBandwidth => {
                write!(f, "tier.pcie_gbs must be positive and finite")
            }
            ConfigError::BadLinkLatency => {
                write!(f, "tier.transfer_latency_s must be non-negative and finite")
            }
            ConfigError::BadSloTarget => {
                write!(f, "slo targets must be positive and finite for every class")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A request waiting in a server's queue — either freshly routed
/// (`generated == 0`) or preempted mid-decode and awaiting recompute.
#[derive(Debug, Clone)]
pub(crate) struct Waiting {
    pub(crate) req: SimRequest,
    /// Response length the router predicted for this request on this
    /// server (schedulers may order by it).
    pub(crate) predicted_len: f64,
    /// Tokens already generated before a preemption (0 for fresh requests).
    pub(crate) generated: usize,
    pub(crate) ttft_s: Option<f64>,
    pub(crate) queue_delay_s: Option<f64>,
    pub(crate) preemptions: usize,
    /// Monotone enqueue counter — the deterministic tie-break.
    pub(crate) queue_seq: u64,
    /// The sequence's private KV blocks sit on the L2 (host) tier; it must
    /// be refilled (or recomputed) before it can decode again.
    pub(crate) spilled: bool,
}

/// A sequence resident in the running batch.
#[derive(Debug, Clone)]
pub(crate) struct RunningSeq {
    pub(crate) req: SimRequest,
    pub(crate) target_len: usize,
    pub(crate) generated: usize,
    /// Logical KV length (prompt + generated).
    pub(crate) kv_len: usize,
    pub(crate) ttft_s: f64,
    pub(crate) queue_delay_s: f64,
    pub(crate) predicted_len: f64,
    pub(crate) preemptions: usize,
    /// Monotone admission counter — "youngest" means the largest value.
    pub(crate) admit_seq: u64,
    /// Monotone enqueue counter carried over from the queue.
    pub(crate) queue_seq: u64,
}

impl RunningSeq {
    /// Whether the sequence has produced its full response this iteration.
    pub(crate) fn is_finished(&self) -> bool {
        self.generated >= self.target_len
    }
}

/// A completed (non-final) conversation turn whose KV stays resident: its
/// sequence remains registered in the block pool so the follow-up turn's
/// shared registration re-references the published blocks instead of
/// re-prefilling the history.
#[derive(Debug, Clone, Copy)]
struct ParkedSession {
    /// The conversation this cache belongs to.
    session: u64,
    /// The completed request still owning the blocks.
    owner: u64,
}

/// One GPU (or tensor-parallel group) running iteration-level continuous
/// batching, costed by the [`rkvc_gpu`] analytical model: admissions
/// (prefill), one decode iteration at the batch's current KV profile, and
/// preemption — whom to admit and whom to evict being the
/// [`Scheduler`](crate::Scheduler) policy value's two decisions. The
/// arithmetic is ported operation-for-operation from the seed lockstep
/// loop, so the default (FCFS) policy is a bit-compatible oracle of it.
#[derive(Debug, Clone)]
pub struct ServerSim {
    id: usize,
    dep: DeploymentSpec,
    algo: CompressionConfig,
    cfg: ServingConfig,
    clock: SimClock,
    queue: VecDeque<Waiting>,
    running: Vec<RunningSeq>,
    completed: Vec<CompletedRequest>,
    blocks: BlockManager,
    /// Peak concurrent running batch — the server's effective capacity at
    /// this pool size.
    peak_batch: usize,
    /// Resident session caches in completion (= LRU) order. Reclaimable:
    /// pool pressure evicts from the front before any running sequence
    /// pays a preemption.
    parked: VecDeque<ParkedSession>,
    admit_counter: u64,
    queue_counter: u64,
    /// Progressing iterations executed so far — a pure observability
    /// counter (fleet stall detection); never feeds back into simulation.
    iterations: u64,
    /// Whether `queue` is sorted ascending by arrival time (`total_cmp`
    /// order). True for event-driven and fleet dispatch, where arrivals
    /// enqueue in global time order — the fast paths key off it. Goes
    /// false on an out-of-order enqueue/preempt and resets when the queue
    /// drains.
    queue_sorted: bool,
    /// Completions already offered to the driver's follow-up hook — the
    /// incremental-drain watermark replacing per-event `seen` rescans.
    completed_offered: usize,
    /// Finished-index scratch reused across decode iterations (the
    /// per-iteration `Vec` allocation is measurable at fleet scale).
    finished_scratch: Vec<usize>,
}

impl ServerSim {
    /// Creates a server with the default serving config at `max_batch`.
    /// The KV block pool is sized from the deployment's free device memory
    /// under the given compression policy.
    pub fn new(id: usize, dep: DeploymentSpec, algo: CompressionConfig, max_batch: usize) -> Self {
        // The default-shaped config is valid for every max_batch >= 1; a
        // zero width admits nothing, exactly as it did in the seed.
        Self::build(id, dep, algo, ServingConfig::with_max_batch(max_batch))
    }

    /// Creates a server with an explicit, validated serving config.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if `cfg` is invalid.
    pub fn with_config(
        id: usize,
        dep: DeploymentSpec,
        algo: CompressionConfig,
        cfg: ServingConfig,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self::build(id, dep, algo, cfg))
    }

    fn build(id: usize, dep: DeploymentSpec, algo: CompressionConfig, cfg: ServingConfig) -> Self {
        // Free memory after weights + runtime overhead, divided into blocks
        // at the policy's steady-state bytes/token (unless the config pins
        // the pool size directly, e.g. to create block pressure in
        // scheduler ablations).
        let capacity_tokens = match cfg.pool_tokens {
            Some(tokens) => tokens,
            None => {
                let fixed =
                    decode_memory_bytes(&dep.llm, dep.engine, &algo, 1, 1, dep.tensor_parallel, 1);
                let free = dep
                    .gpu
                    .hbm_bytes()
                    .saturating_sub(fixed.weights + fixed.activations + fixed.workspace);
                let per_token = rkvc_gpu::kv_bytes_per_token(&dep.llm, &algo, dep.tensor_parallel);
                (free as f64 / per_token.max(1.0)) as usize
            }
        };
        let blocks = BlockManager::with_tier(
            (capacity_tokens / cfg.block_tokens).max(1),
            cfg.block_tokens,
            cfg.tier.map_or(0, |t| t.l2_blocks),
        );
        ServerSim {
            id,
            dep,
            algo,
            cfg,
            clock: SimClock::ZERO,
            queue: VecDeque::new(),
            running: Vec::new(),
            completed: Vec::new(),
            blocks,
            peak_batch: 0,
            parked: VecDeque::new(),
            admit_counter: 0,
            queue_counter: 0,
            iterations: 0,
            queue_sorted: true,
            completed_offered: 0,
            finished_scratch: Vec::new(),
        }
    }

    /// Server id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The compression policy this server runs.
    pub fn algo(&self) -> &CompressionConfig {
        &self.algo
    }

    /// The deployment this server models.
    pub fn deployment(&self) -> &DeploymentSpec {
        &self.dep
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.cfg
    }

    /// Current simulated time (seconds).
    pub fn clock_s(&self) -> f64 {
        self.clock.secs()
    }

    /// Requests waiting + running.
    pub fn load(&self) -> usize {
        self.queue.len() + self.running.len()
    }

    /// Currently running batch size.
    pub fn batch_size(&self) -> usize {
        self.running.len()
    }

    /// KV block-pool utilization in `[0, 1]` — the "memory usage" signal the
    /// paper's load-balancing baseline routes on.
    pub fn memory_utilization(&self) -> f64 {
        self.blocks.utilization()
    }

    /// Mean KV length of the running batch (0 when idle). An integer mean,
    /// so it is independent of batch iteration order.
    pub fn mean_kv_len(&self) -> usize {
        if self.running.is_empty() {
            return 0;
        }
        self.running.iter().map(|r| r.kv_len).sum::<usize>() / self.running.len()
    }

    /// Cumulative block-pool counters (dedup ratio, CoW copies,
    /// demotions/refills, peaks).
    pub fn block_stats(&self) -> &BlockPoolStats {
        self.blocks.stats()
    }

    /// Peak concurrent running batch over the run — the server's
    /// *effective capacity* at this pool size (spilled-but-registered
    /// sequences do not count; they are not decoding).
    pub fn peak_batch(&self) -> usize {
        self.peak_batch
    }

    /// Progressing scheduler iterations executed so far — the fleet's
    /// stall detector and the event-cost denominator in benches.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Whether any work remains.
    pub fn has_work(&self) -> bool {
        !self.queue.is_empty() || !self.running.is_empty()
    }

    /// Completed requests so far.
    pub fn completed(&self) -> &[CompletedRequest] {
        &self.completed
    }

    /// Submits a request (its `arrival_s` must not precede the clock of the
    /// latest enqueue; the cluster enforces global ordering). The length
    /// prediction defaults to the request's true response length on this
    /// server — cluster runs stamp the router's prediction instead via
    /// [`enqueue_predicted`](Self::enqueue_predicted).
    pub fn enqueue(&mut self, req: SimRequest) {
        let predicted = req.response_len_on(self.id) as f64;
        self.enqueue_predicted(req, predicted);
    }

    /// Submits a request with the router's predicted response length (what
    /// prediction-driven schedulers order by).
    pub fn enqueue_predicted(&mut self, req: SimRequest, predicted_len: f64) {
        let queue_seq = self.queue_counter;
        self.queue_counter += 1;
        match self.queue.back() {
            None => self.queue_sorted = true,
            Some(back) => {
                if back.req.arrival_s.total_cmp(&req.arrival_s) == std::cmp::Ordering::Greater {
                    self.queue_sorted = false;
                }
            }
        }
        self.queue.push_back(Waiting {
            req,
            predicted_len,
            generated: 0,
            ttft_s: None,
            queue_delay_s: None,
            preemptions: 0,
            queue_seq,
            spilled: false,
        });
    }

    /// Advances the simulation until time `t` (or until idle past `t`).
    pub fn advance_to(&mut self, t: f64) {
        let target = SimClock::from_secs(t);
        while self.clock < target && self.has_work() {
            // Don't run ahead of `t` into requests that arrive later.
            if self.running.is_empty()
                && self
                    .earliest_queued_arrival()
                    .map_or(true, |a| SimClock::from_secs(a) > target)
            {
                break;
            }
            if !self.iteration() {
                break; // Unserviceable head-of-queue; don't spin.
            }
        }
        self.clock.raise_to(target);
    }

    /// Iterates until no work remains or nothing more can run (a request
    /// that can never fit the pool parks the server — it is not spun on).
    /// Leaves the server inspectable: peaks, block stats and
    /// [`completed`](Self::completed) describe the finished run.
    pub fn run_until_idle(&mut self) {
        while self.has_work() && self.iteration() {}
    }

    /// [`run_until_idle`](Self::run_until_idle), then
    /// [`into_completed`](Self::into_completed).
    pub fn run_to_completion(mut self) -> Vec<CompletedRequest> {
        self.run_until_idle();
        self.into_completed()
    }

    /// Consumes the server, returning its completions sorted by id.
    pub fn into_completed(mut self) -> Vec<CompletedRequest> {
        self.completed.sort_by_key(|c| c.id);
        self.completed
    }

    /// Completions not yet offered to the driver's follow-up hook:
    /// advances the watermark and returns the fresh index range.
    pub(crate) fn take_new_completions(&mut self) -> std::ops::Range<usize> {
        let range = self.completed_offered..self.completed.len();
        self.completed_offered = self.completed.len();
        range
    }

    /// Marks every completion to date as already offered — each drive pass
    /// hands follow-up hooks only completions it produced itself.
    pub(crate) fn reset_completion_watermark(&mut self) {
        self.completed_offered = self.completed.len();
    }

    /// Moves the completion log onto the end of `out`, in completion order,
    /// and leaves it empty: the caller owns every completion from here on.
    pub(crate) fn hand_off_completions(&mut self, out: &mut Vec<CompletedRequest>) {
        out.append(&mut self.completed);
        self.completed_offered = 0;
    }

    /// Releases every parked session cache (a draining replica spills its
    /// parked KV — follow-up turns will re-prefill elsewhere).
    pub(crate) fn release_parked(&mut self) {
        while self.evict_parked(None) {}
    }

    /// The `(time_ordinal, rank)` of this server's next iteration event,
    /// or `None` when it has no work. See the rank table in
    /// [`engine`](crate::engine).
    pub(crate) fn next_iteration_event(&self) -> Option<(u64, u8)> {
        if !self.running.is_empty() {
            return Some((self.clock.ordinal(), RANK_DECODE));
        }
        let arrival = SimClock::from_secs(self.earliest_queued_arrival()?);
        if arrival > self.clock {
            Some((arrival.ordinal(), RANK_IDLE_START))
        } else {
            Some((self.clock.ordinal(), RANK_DECODE))
        }
    }

    /// Earliest arrival among queued requests (the idle wake-up time).
    /// O(1) on an arrival-sorted queue — this runs once per scheduled
    /// event, so the fallback scan made event cost O(queue depth).
    fn earliest_queued_arrival(&self) -> Option<f64> {
        if self.queue_sorted {
            return self.queue.front().map(|w| w.req.arrival_s);
        }
        self.queue
            .iter()
            .map(|w| w.req.arrival_s)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Frees the least-recently-parked session cache (preferring sessions
    /// other than `keep` — evicting a conversation's own cache right
    /// before its follow-up registers would waste the reuse). Returns
    /// whether anything was freed.
    fn evict_parked(&mut self, keep: Option<u64>) -> bool {
        let pos = self
            .parked
            .iter()
            .position(|p| keep != Some(p.session))
            .or(if self.parked.is_empty() { None } else { Some(0) });
        match pos.and_then(|p| self.parked.remove(p)) {
            Some(p) => {
                // Parked owners are registered by construction.
                let _ = self.blocks.free_seq(p.owner);
                true
            }
            None => false,
        }
    }

    /// Runs a block-pool operation, evicting parked session caches (LRU,
    /// sparing `keep`) and retrying until it succeeds or nothing is left
    /// to evict. `op` must leave the pool untouched on failure.
    fn retry_evicting_parked<T>(
        &mut self,
        keep: Option<u64>,
        mut op: impl FnMut(&mut BlockManager) -> Result<T, BlockError>,
    ) -> Result<T, BlockError> {
        let mut outcome = op(&mut self.blocks);
        while outcome.is_err() && self.evict_parked(keep) {
            outcome = op(&mut self.blocks);
        }
        outcome
    }

    /// Releases the parked cache of `session`, if any — called once the
    /// follow-up turn holds its own references to the shared blocks.
    fn unpark_session(&mut self, session: u64) {
        if let Some(pos) = self.parked.iter().position(|p| p.session == session) {
            if let Some(p) = self.parked.remove(pos) {
                let _ = self.blocks.free_seq(p.owner);
            }
        }
    }

    /// Parks a completed non-final session turn: publishes its full blocks
    /// under the session hash chain and keeps the sequence registered so
    /// the next turn re-references them. Returns `false` (the caller frees
    /// the sequence instead) when nothing could be published.
    fn park_session(&mut self, r: &RunningSeq) -> bool {
        let Some(s) = r.req.session else {
            return false;
        };
        let blocks = self.retained(r.kv_len) / self.cfg.block_tokens;
        let hashes = session_hash_chain(
            r.req.prefix_group,
            r.req.prefix_len,
            s.session,
            self.cfg.block_tokens,
            blocks,
        );
        match self.blocks.publish_seq(r.req.id, &hashes) {
            Ok(n) if n > 0 => {
                self.parked.push_back(ParkedSession {
                    session: s.session,
                    owner: r.req.id,
                });
                true
            }
            _ => false,
        }
    }

    /// Tokens the policy actually retains for a sequence at logical KV
    /// length `n` (eviction policies cap it).
    fn retained(&self, n: usize) -> usize {
        self.algo.retained_cap().map_or(n, |cap| n.min(cap))
    }

    /// Evicts `running[victim]` back to the head of the queue. With a
    /// spill tier its private blocks demote to L2 (the DMA charges this
    /// server's clock synchronously) and re-admission refills them;
    /// otherwise — no tier, `DemotePolicy::Drop`, or a full host tier —
    /// the blocks are released and re-admission recomputes the full
    /// context, exactly as the seed did. `finished` indices past the
    /// victim shift down with the removal.
    fn preempt(&mut self, victim: usize, finished: &mut [usize]) {
        let r = self.running.remove(victim);
        let spilled = match self.cfg.tier {
            Some(t) if t.demote == DemotePolicy::Spill => {
                match self.blocks.demote_seq(r.req.id) {
                    Ok(mv) => {
                        let dma = self.dep.kv_transfer_time(
                            &self.algo,
                            mv.tokens,
                            t.pcie_gbs,
                            t.transfer_latency_s,
                        );
                        self.clock.advance(dma);
                        true
                    }
                    Err(_) => {
                        // Host tier full (or unknown seq): fall back to
                        // evict-and-recompute.
                        let _ = self.blocks.free_seq(r.req.id);
                        false
                    }
                }
            }
            _ => {
                // Running sequences are registered by construction.
                let _ = self.blocks.free_seq(r.req.id);
                false
            }
        };
        for f in finished.iter_mut() {
            if *f > victim {
                *f -= 1;
            }
        }
        match self.queue.front() {
            None => self.queue_sorted = true,
            Some(front) => {
                if r.req.arrival_s.total_cmp(&front.req.arrival_s) == std::cmp::Ordering::Greater {
                    self.queue_sorted = false;
                }
            }
        }
        self.queue.push_front(Waiting {
            req: r.req,
            predicted_len: r.predicted_len,
            generated: r.generated,
            ttft_s: Some(r.ttft_s),
            queue_delay_s: Some(r.queue_delay_s),
            preemptions: r.preemptions + 1,
            queue_seq: r.queue_seq,
            spilled,
        });
    }

    /// Runs one scheduler iteration: admissions (prefill, or recompute for
    /// preempted sequences) + one decode step over the batch.
    ///
    /// Returns `false` if nothing could run — the server is idle, the next
    /// request has not arrived, or the head of the queue can never fit in
    /// the block pool.
    pub(crate) fn iteration(&mut self) -> bool {
        let sched = self.cfg.scheduler.policy(self.cfg.slo_policy);

        // Admit while there is room. A request is admissible once it has
        // arrived (the clock jumps to the pick's arrival when idle).
        let mut admitted = false;
        while self.running.len() < self.cfg.max_batch {
            let view = QueueView::new(&self.queue, self.queue_sorted);
            let Some(pick) = sched.admit_pick(&view, self.clock, &self.cfg.slo) else {
                break;
            };
            let Some(waiting) = self.queue.get(pick) else {
                break;
            };
            let arrival = SimClock::from_secs(waiting.req.arrival_s);
            if arrival > self.clock {
                if self.running.is_empty() && !admitted {
                    // Idle: jump to the arrival.
                    self.clock.raise_to(arrival);
                } else {
                    break;
                }
            }
            let context = waiting.req.prompt_len + waiting.generated;
            let picked_id = waiting.req.id;
            let spilled = waiting.spilled;
            let prefix_group = waiting.req.prefix_group;
            let prefix_len = waiting.req.prefix_len;
            let session = waiting.req.session;
            let retained = self.retained(context);
            // Restore or allocate the pick's KV blocks. Each arm leaves the
            // pool untouched on failure, so breaking to wait for
            // completions is always safe.
            let mut refilled_tokens = 0usize;
            let mut recompute_spilled = false;
            let mut shared_tokens = 0usize;
            if spilled {
                let refill = self.cfg.tier.map_or(RefillPolicy::Transfer, |t| t.refill);
                match refill {
                    RefillPolicy::Transfer => {
                        match self.retry_evicting_parked(None, |b| b.refill_seq(picked_id)) {
                            Ok(mv) => refilled_tokens = mv.tokens,
                            Err(_) => break, // No L1 room; wait for completions.
                        }
                    }
                    RefillPolicy::Recompute => {
                        // Discard the spilled copy and re-register for a
                        // full recompute.
                        if self.blocks.free_seq(picked_id).is_err() {
                            break;
                        }
                        let fresh = self
                            .retry_evicting_parked(None, |b| b.register_seq(picked_id, retained));
                        if fresh.is_err() {
                            // Its blocks are gone: future admissions go
                            // through the plain recompute path.
                            if let Some(wm) = self.queue.get_mut(pick) {
                                wm.spilled = false;
                            }
                            break;
                        }
                        recompute_spilled = true;
                    }
                }
            } else if self.cfg.prefix_sharing
                && session.map_or(false, |s| s.carried_tokens > 0)
            {
                // A follow-up conversation turn: walk the session hash
                // chain (shared system prefix, then this session's private
                // history) onto whatever KV the previous turn parked. When
                // the cache was evicted in between, the walk misses and the
                // whole history is re-prefilled — correctness never depends
                // on residency.
                let sid = session.map_or(0, |s| s.session);
                let carried = session.map_or(0, |s| s.carried_tokens);
                let shareable = carried.min(retained) / self.cfg.block_tokens;
                let hashes = session_hash_chain(
                    prefix_group,
                    prefix_len,
                    sid,
                    self.cfg.block_tokens,
                    shareable,
                );
                let shared = self.retry_evicting_parked(Some(sid), |b| {
                    b.register_seq_shared(picked_id, retained, &hashes)
                });
                match shared {
                    Ok(r) => shared_tokens = r.shared_tokens,
                    Err(_) => break, // No KV room; wait for completions.
                }
                // This turn now holds its own references to the carried
                // blocks; the previous turn's parked owner can go.
                self.unpark_session(sid);
            } else if self.cfg.prefix_sharing && prefix_len > 0 {
                // Prefix blocks are content-determined, so a preempted
                // sequence re-shares them on re-admission just like a
                // fresh one. Only whole blocks that survive the retention
                // cap are shareable.
                let shareable = prefix_len.min(retained) / self.cfg.block_tokens;
                let hashes = prefix_hash_chain(prefix_group, self.cfg.block_tokens, shareable);
                let shared = self.retry_evicting_parked(None, |b| {
                    b.register_seq_shared(picked_id, retained, &hashes)
                });
                match shared {
                    Ok(r) => shared_tokens = r.shared_tokens,
                    Err(_) => break, // No KV room; wait for completions.
                }
            } else {
                let fresh =
                    self.retry_evicting_parked(None, |b| b.register_seq(picked_id, retained));
                if fresh.is_err() {
                    break; // No KV room; wait for completions.
                }
            }
            let Some(w) = self.queue.remove(pick) else {
                // Unreachable (`pick` was just read); undo the registration
                // rather than leak it.
                let _ = self.blocks.free_seq(picked_id);
                break;
            };
            let queue_delay = match w.queue_delay_s {
                Some(q) => q,
                None => self.clock.since(arrival),
            };
            let cost = if spilled && !recompute_spilled {
                // Refill DMA: the spilled blocks stream back over PCIe.
                match self.cfg.tier {
                    Some(t) => self.dep.kv_transfer_time(
                        &self.algo,
                        refilled_tokens,
                        t.pcie_gbs,
                        t.transfer_latency_s,
                    ),
                    None => 0.0, // Unreachable: sequences spill only with a tier.
                }
            } else if w.generated == 0 {
                // Shared prefix KV is already resident — prefill covers
                // only the private remainder.
                let compute = if shared_tokens > 0 {
                    w.req.prompt_len.saturating_sub(shared_tokens).max(1)
                } else {
                    w.req.prompt_len
                };
                self.dep.prefill(&self.algo, 1, compute).total()
            } else {
                // Preempted: recompute the context before resuming,
                // charged through the roofline model. With sharing, the
                // prefix KV is already resident and only the remainder is
                // recomputed.
                let compute = if shared_tokens > 0 {
                    context.saturating_sub(shared_tokens).max(1)
                } else {
                    context
                };
                self.dep.recompute(&self.algo, 1, compute).total()
            };
            self.clock.advance(cost);
            let ttft = match w.ttft_s {
                Some(t) => t,
                None => self.clock.since(arrival),
            };
            let target = w.req.response_len_on(self.id).max(1);
            let admit_seq = self.admit_counter;
            self.admit_counter += 1;
            self.running.push(RunningSeq {
                kv_len: context,
                target_len: target,
                generated: w.generated,
                ttft_s: ttft,
                queue_delay_s: queue_delay,
                predicted_len: w.predicted_len,
                preemptions: w.preemptions,
                admit_seq,
                queue_seq: w.queue_seq,
                req: w.req,
            });
            admitted = true;
        }

        if self.running.len() > self.peak_batch {
            self.peak_batch = self.running.len();
        }
        if self.running.is_empty() {
            if admitted {
                self.iterations += 1;
            }
            return admitted;
        }

        // One decode iteration over the whole batch.
        let batch = self.running.len();
        let kv = self.mean_kv_len();
        let step = self.dep.decode_step(&self.algo, batch, kv).total();
        self.clock.advance(step);

        let mut finished = std::mem::take(&mut self.finished_scratch);
        finished.clear();
        let mut i = 0;
        'grow: while i < self.running.len() {
            self.running[i].generated += 1;
            self.running[i].kv_len += 1;
            let seq = self.running[i].req.id;
            // Grow or cap the sequence's block allocation. Append may hit a
            // full pool — a preemptive scheduler then evicts a victim and
            // retries; otherwise the sequence runs on at its capped
            // footprint and the follow-up truncate is a no-op error, not an
            // abort.
            let mut append = self.blocks.append_token(seq);
            while let Err(BlockError::OutOfBlocks { .. }) = append {
                if self.running[i].is_finished() {
                    // Finishing this iteration anyway; don't evict for it.
                    break;
                }
                // Parked session caches are reclaimable — drop one before
                // any running sequence pays a preemption (or runs capped).
                if self.evict_parked(None) {
                    append = self.blocks.append_token(seq);
                    continue;
                }
                let Some(victim) = sched.preempt_victim(&self.running) else {
                    break;
                };
                if victim == i {
                    // The grower itself is evicted: this iteration's token
                    // is rolled back and regenerated after recompute.
                    self.running[i].generated -= 1;
                    self.running[i].kv_len -= 1;
                    self.preempt(i, &mut finished);
                    continue 'grow; // `i` now names the next sequence.
                }
                self.preempt(victim, &mut finished);
                if victim < i {
                    i -= 1;
                }
                append = self.blocks.append_token(seq);
            }
            let retained = self.retained(self.running[i].kv_len);
            let _ = self.blocks.truncate_seq(seq, retained);
            if self.running[i].is_finished() {
                finished.push(i);
            }
            i += 1;
        }
        for &i in finished.iter().rev() {
            let r = self.running.swap_remove(i);
            // A non-final conversation turn parks its KV (publish + stay
            // registered) for the follow-up turn; everything else frees.
            // Running sequences are registered by construction.
            let parked = self.cfg.prefix_sharing
                && matches!(r.req.session, Some(s) if !s.last_turn)
                && self.park_session(&r);
            if !parked {
                let _ = self.blocks.free_seq(r.req.id);
            }
            let mut done = CompletedRequest {
                id: r.req.id,
                server_id: self.id,
                arrival_s: r.req.arrival_s,
                ttft_s: r.ttft_s,
                e2e_s: self.clock.since(SimClock::from_secs(r.req.arrival_s)),
                generated: r.generated,
                queue_delay_s: r.queue_delay_s,
                preemptions: r.preemptions,
                slo: r.req.slo,
                slo_ok: false,
                session: r.req.session,
            };
            done.slo_ok = self.cfg.slo.target(done.slo).met(done.ttft_s, done.tbot_s());
            self.completed.push(done);
        }
        finished.clear();
        self.finished_scratch = finished;
        self.iterations += 1;
        true
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

    fn reqs(n: usize, rps: f64) -> Vec<SimRequest> {
        (0..n)
            .map(|i| SimRequest::new(i as u64, i as f64 / rps, 512, 128))
            .collect()
    }

    #[test]
    fn single_request_latency_matches_cost_model() {
        let d = dep();
        let mut s = ServerSim::new(0, d.clone(), CompressionConfig::Fp16, 8);
        s.enqueue(SimRequest::new(0, 0.0, 512, 128));
        let done = s.run_to_completion();
        assert_eq!(done.len(), 1);
        let direct = d.request_latency(&CompressionConfig::Fp16, 1, 512, 128);
        let sim = done[0].e2e_s;
        assert!(
            (sim - direct).abs() / direct < 0.1,
            "sim {sim} vs direct {direct}"
        );
    }

    #[test]
    fn ttft_precedes_e2e_and_orders_by_queue() {
        let mut s = ServerSim::new(0, dep(), CompressionConfig::Fp16, 2);
        for r in reqs(6, 100.0) {
            s.enqueue(r);
        }
        let done = s.run_to_completion();
        assert_eq!(done.len(), 6);
        for c in &done {
            assert!(c.ttft_s > 0.0 && c.ttft_s < c.e2e_s);
            assert_eq!(c.generated, 128);
            assert!(c.queue_delay_s >= 0.0 && c.queue_delay_s <= c.ttft_s);
            assert_eq!(c.preemptions, 0);
        }
        // Later arrivals with a saturated batch wait longer.
        assert!(done[5].ttft_s > done[0].ttft_s);
        assert!(done[5].queue_delay_s > done[0].queue_delay_s);
    }

    #[test]
    fn batching_beats_serial_serving() {
        let serial: f64 = {
            let mut s = ServerSim::new(0, dep(), CompressionConfig::Fp16, 1);
            for r in reqs(4, 1e6) {
                s.enqueue(r);
            }
            s.run_to_completion().iter().map(|c| c.e2e_s).sum::<f64>() / 4.0
        };
        let batched: f64 = {
            let mut s = ServerSim::new(0, dep(), CompressionConfig::Fp16, 4);
            for r in reqs(4, 1e6) {
                s.enqueue(r);
            }
            s.run_to_completion().iter().map(|c| c.e2e_s).sum::<f64>() / 4.0
        };
        assert!(batched < serial, "batched {batched} vs serial {serial}");
    }

    #[test]
    fn eviction_policy_admits_more_concurrent_sequences() {
        // Sparsity caps per-sequence KV, so the same pool holds more
        // sequences — the serving-level benefit of compression.
        let d = dep();
        let mk = |algo: CompressionConfig| {
            let mut s = ServerSim::new(0, d.clone(), algo, usize::MAX);
            for i in 0..64 {
                s.enqueue(SimRequest::new(i, 0.0, 4096, 32));
            }
            // Admit as much as possible in the first iterations.
            s.iteration();
            s.batch_size()
        };
        let fp16 = mk(CompressionConfig::Fp16);
        let stream = mk(CompressionConfig::streaming(64, 448));
        assert!(stream > fp16, "stream {stream} vs fp16 {fp16}");
        // A budget whose `budget + obs_window` overflows must saturate to
        // "keeps everything" — it used to panic in debug builds and wrap to
        // a zero-token cap (every sequence admitted for free) in release.
        let unbounded = mk(CompressionConfig::SnapKv(rkvc_kvcache::SnapKvParams {
            budget: usize::MAX,
            obs_window: 1,
            kernel: 1,
        }));
        assert_eq!(unbounded, fp16);
    }

    #[test]
    fn idle_server_jumps_to_next_arrival() {
        let mut s = ServerSim::new(0, dep(), CompressionConfig::Fp16, 4);
        s.enqueue(SimRequest::new(0, 5.0, 256, 16));
        let done = s.run_to_completion();
        assert!(done[0].e2e_s < 5.0, "latency must not include pre-arrival idle");
    }

    #[test]
    fn memory_utilization_reflects_running_batch() {
        let mut s = ServerSim::new(0, dep(), CompressionConfig::Fp16, 8);
        assert_eq!(s.memory_utilization(), 0.0);
        s.enqueue(SimRequest::new(0, 0.0, 2048, 64));
        s.iteration();
        assert!(s.memory_utilization() > 0.0);
    }

    #[test]
    fn advance_to_does_not_run_past_future_arrivals() {
        let mut s = ServerSim::new(0, dep(), CompressionConfig::Fp16, 4);
        s.enqueue(SimRequest::new(0, 10.0, 256, 16));
        s.advance_to(5.0);
        assert_eq!(s.completed().len(), 0);
        assert!((s.clock_s() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn config_validation_rejects_zero_fields() {
        let bad_block = ServingConfig {
            block_tokens: 0,
            ..ServingConfig::default()
        };
        assert_eq!(bad_block.validate(), Err(ConfigError::ZeroBlockTokens));
        let bad_batch = ServingConfig {
            max_batch: 0,
            ..ServingConfig::default()
        };
        assert_eq!(bad_batch.validate(), Err(ConfigError::ZeroMaxBatch));
        let bad_pool = ServingConfig {
            pool_tokens: Some(0),
            ..ServingConfig::default()
        };
        assert_eq!(bad_pool.validate(), Err(ConfigError::ZeroPoolTokens));
        assert!(ServingConfig::default().validate().is_ok());
        assert!(ServerSim::with_config(0, dep(), CompressionConfig::Fp16, bad_block).is_err());
        let bad_tier = ServingConfig {
            tier: Some(TierConfig {
                l2_blocks: 0,
                ..TierConfig::default()
            }),
            ..ServingConfig::default()
        };
        assert_eq!(bad_tier.validate(), Err(ConfigError::ZeroL2Blocks));
        let bad_link = ServingConfig {
            tier: Some(TierConfig {
                pcie_gbs: 0.0,
                ..TierConfig::default()
            }),
            ..ServingConfig::default()
        };
        assert_eq!(bad_link.validate(), Err(ConfigError::BadLinkBandwidth));
        let bad_latency = ServingConfig {
            tier: Some(TierConfig {
                transfer_latency_s: f64::NAN,
                ..TierConfig::default()
            }),
            ..ServingConfig::default()
        };
        assert_eq!(bad_latency.validate(), Err(ConfigError::BadLinkLatency));
        let good_tier = ServingConfig {
            tier: Some(TierConfig::default()),
            ..ServingConfig::default()
        };
        assert!(good_tier.validate().is_ok());
        let mut bad_slo = ServingConfig::default();
        bad_slo.slo.interactive.ttft_s = 0.0;
        assert_eq!(bad_slo.validate(), Err(ConfigError::BadSloTarget));
        let mut nan_slo = ServingConfig::default();
        nan_slo.slo.batch.tbt_s = f64::NAN;
        assert_eq!(nan_slo.validate(), Err(ConfigError::BadSloTarget));
    }

    #[test]
    fn block_tokens_is_configurable_and_defaults_to_sixteen() {
        let d = dep();
        let default = ServerSim::new(0, d.clone(), CompressionConfig::Fp16, 4);
        assert_eq!(default.config().block_tokens, 16);
        let coarse = ServerSim::with_config(
            0,
            d,
            CompressionConfig::Fp16,
            ServingConfig {
                max_batch: 4,
                block_tokens: 64,
                pool_tokens: Some(4096),
                scheduler: SchedulerConfig::Fcfs,
                ..ServingConfig::default()
            },
        )
        .expect("valid config");
        assert_eq!(coarse.config().block_tokens, 64);
        // 4096 tokens / 64-token blocks = 64 blocks; one 65-token prompt
        // spans two blocks, so utilization is 2/64.
        let mut coarse = coarse;
        coarse.enqueue(SimRequest::new(0, 0.0, 65, 8));
        coarse.iteration();
        assert!((coarse.memory_utilization() - 2.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn pinned_pool_constrains_admissions() {
        let d = dep();
        let cfg = ServingConfig {
            max_batch: 64,
            pool_tokens: Some(1024),
            ..ServingConfig::default()
        };
        let mut s =
            ServerSim::with_config(0, d, CompressionConfig::Fp16, cfg).expect("valid config");
        for i in 0..8 {
            s.enqueue(SimRequest::new(i, 0.0, 512, 8));
        }
        s.iteration();
        // 1024-token pool fits two 512-token prompts at most.
        assert!(s.batch_size() <= 2, "batch {}", s.batch_size());
    }
}
