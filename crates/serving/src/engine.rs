//! Discrete-event serving engine, in two parts:
//!
//! * [`ServerSim`] (in `server.rs`) holds all per-server state and the
//!   single copy of the iteration logic (admissions + one decode step).
//! * [`Engine`] owns a set of servers and a binary-heap event queue keyed
//!   on `(sim_time_bits, rank, seq)`. Time bits come from
//!   [`SimClock::ordinal`] (an order-preserving integer image of the f64
//!   clock), `rank` encodes the seed's arrival-vs-iteration tie rules, and
//!   `seq` is a monotone push counter — so event ordering is a total order
//!   and every run is reproducible bit-for-bit.
//!
//! # Event ranks
//!
//! The seed cluster advanced every server to each arrival time `T` before
//! routing, with two different gates: an idle server admitted a queued
//! request whose arrival `A` satisfied `A <= T` (inclusive), while a busy
//! server ran decode iterations only while its clock `C < T` (strict).
//! Three ranks reproduce exactly that when events tie on time:
//!
//! | rank | event                            | tie at `T` vs. arrival |
//! |------|----------------------------------|------------------------|
//! | 0    | idle server wakes for an arrival | runs first (inclusive) |
//! | 1    | cluster arrival (dispatch/route) | —                      |
//! | 2    | busy decode iteration            | runs after (strict)    |
//!
//! # Stalls
//!
//! A request that can never fit in the block pool made the seed loop spin
//! forever. The engine instead parks the server (its iteration reports no
//! progress and is not rescheduled), so [`Engine::run`] terminates and the
//! unserviceable request is simply absent from the completions.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{CompletedRequest, ServerSim, SimClock, SimRequest};

/// Idle-server wake-up for a queued arrival (the seed's inclusive gate).
pub(crate) const RANK_IDLE_START: u8 = 0;
/// A request arriving at the cluster (routing happens here).
pub(crate) const RANK_ARRIVAL: u8 = 1;
/// A busy server's next iteration (the seed's strict gate).
pub(crate) const RANK_DECODE: u8 = 2;

/// One scheduled event. Ordering ignores the payload: events compare by
/// `(time, rank, seq)` only, which is a total order because `time` is the
/// clock's order-preserving bit image and `seq` is unique.
#[derive(Debug)]
struct Event {
    time: u64,
    rank: u8,
    seq: u64,
    kind: EventKind,
}

#[derive(Debug)]
enum EventKind {
    /// A request arrives at the cluster and is routed.
    Arrival(SimRequest),
    /// Server `idx` runs one iteration.
    Iteration(usize),
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.rank, self.seq) == (other.time, other.rank, other.seq)
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.rank, self.seq).cmp(&(other.time, other.rank, other.seq))
    }
}

/// The event heap plus its bookkeeping: the monotone push counter that
/// makes event order total, and one "iteration already pending" flag per
/// server. Owned by the engine so repeated runs reuse the allocations.
#[derive(Debug, Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    scheduled: Vec<bool>,
    next_seq: u64,
}

impl EventQueue {
    fn reset(&mut self, servers: usize) {
        self.heap.clear();
        self.scheduled.clear();
        self.scheduled.resize(servers, false);
        self.next_seq = 0;
    }

    fn push(&mut self, time: u64, rank: u8, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event {
            time,
            rank,
            seq,
            kind,
        }));
    }

    fn push_arrival(&mut self, req: SimRequest) {
        let time = SimClock::from_secs(req.arrival_s).ordinal();
        self.push(time, RANK_ARRIVAL, EventKind::Arrival(req));
    }

    /// Pushes server `idx`'s next iteration event if it has work and none
    /// is pending. The event time/rank reproduce the seed's gates: busy
    /// servers fire at their clock (strict vs. arrivals), idle servers
    /// wake at the earliest queued arrival (inclusive vs. arrivals).
    fn schedule(&mut self, servers: &[ServerSim], idx: usize) {
        if self.scheduled[idx] {
            return;
        }
        let Some((time, rank)) = servers[idx].next_iteration_event() else {
            return;
        };
        self.push(time, rank, EventKind::Iteration(idx));
        self.scheduled[idx] = true;
    }
}

/// The discrete-event driver: a set of servers plus the event queue.
///
/// [`Cluster`](crate::Cluster) is a thin wrapper that validates its arrival
/// stream and supplies a routing closure; a standalone [`ServerSim`]
/// drives itself (a single-server event loop degenerates to the iteration
/// sequence).
#[derive(Debug)]
pub struct Engine {
    servers: Vec<ServerSim>,
    events: EventQueue,
}

impl Engine {
    /// Builds an engine over the given servers.
    pub fn new(servers: Vec<ServerSim>) -> Self {
        Engine {
            servers,
            events: EventQueue::default(),
        }
    }

    /// The servers, in id order as supplied.
    pub fn servers(&self) -> &[ServerSim] {
        &self.servers
    }

    /// Runs an arrival stream (must be sorted by `arrival_s`; `Cluster`
    /// validates this) to completion and returns every completion the
    /// servers hold, sorted by request id.
    ///
    /// `dispatch` is called at each arrival instant — after every server
    /// has processed the iterations due before it — and returns the
    /// destination server index plus the predicted response length the
    /// scheduler may order by. After every completion, `follow_up` may
    /// return the next turn of that conversation, which enters as a fresh
    /// arrival at its own (later) time — turn `k` is scheduled only once
    /// turn `k − 1` has finished, so think-time gaps are measured from
    /// actual completion instants, never precomputed. Follow-ups may land
    /// anywhere at or after the completion that spawned them; a plain
    /// stream passes `|_| None`.
    ///
    /// Requests that can never fit a server's block pool are dropped (see
    /// module docs on stalls), so the result may be shorter than the
    /// input. The engine is borrowed, leaving server state (block pools,
    /// dedup counters, peaks) inspectable after the run.
    pub fn run<F, G>(
        &mut self,
        requests: Vec<SimRequest>,
        mut dispatch: F,
        mut follow_up: G,
    ) -> Vec<CompletedRequest>
    where
        F: FnMut(&[ServerSim], &SimRequest) -> (usize, f64),
        G: FnMut(&CompletedRequest) -> Option<SimRequest>,
    {
        let n = self.servers.len();
        if n == 0 {
            return Vec::new();
        }
        self.events.reset(n);
        // Each run offers `follow_up` only its own completions: align the
        // per-server watermark with whatever completed before it.
        for s in &mut self.servers {
            s.reset_completion_watermark();
        }
        // Arrivals enter the heap one at a time, each pushed when its
        // predecessor dispatches.
        let mut rest = requests.into_iter();
        if let Some(req) = rest.next() {
            self.events.push_arrival(req);
        }

        while let Some(Reverse(ev)) = self.events.heap.pop() {
            match ev.kind {
                EventKind::Arrival(req) => {
                    let (dst, predicted) = dispatch(&self.servers, &req);
                    let dst = dst.min(n - 1);
                    self.servers[dst].enqueue_predicted(req, predicted);
                    self.events.schedule(&self.servers, dst);
                    if let Some(next) = rest.next() {
                        self.events.push_arrival(next);
                    }
                }
                EventKind::Iteration(idx) => {
                    self.events.scheduled[idx] = false;
                    let progressed = self.servers[idx].iteration();
                    // New completions may spawn their sessions' next turns:
                    // an incremental drain from the server's watermark, so
                    // per-event cost scales with fresh completions only.
                    for i in self.servers[idx].take_new_completions() {
                        if let Some(req) = follow_up(&self.servers[idx].completed()[i]) {
                            self.events.push_arrival(req);
                        }
                    }
                    // On no-progress the server is parked: rescheduling
                    // would spin on a request that can never fit.
                    if progressed {
                        self.events.schedule(&self.servers, idx);
                    }
                }
            }
        }

        let mut done: Vec<CompletedRequest> = self
            .servers
            .iter()
            .flat_map(|s| s.completed().iter().cloned())
            .collect();
        done.sort_by_key(|c| c.id);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OraclePredictor, RoutePredictor, SchedulerConfig, ServingConfig};
    use rkvc_gpu::{DeploymentSpec, EngineKind, GpuSpec, LlmSpec};
    use rkvc_kvcache::CompressionConfig;

    fn dep() -> DeploymentSpec {
        DeploymentSpec {
            gpu: GpuSpec::a6000(),
            llm: LlmSpec::llama2_7b(),
            engine: EngineKind::LmDeploy,
            tensor_parallel: 1,
        }
    }

    fn server(id: usize, scheduler: SchedulerConfig, pool_tokens: Option<usize>) -> ServerSim {
        let cfg = ServingConfig {
            max_batch: 8,
            pool_tokens,
            scheduler,
            ..ServingConfig::default()
        };
        ServerSim::with_config(id, dep(), CompressionConfig::Fp16, cfg).expect("valid config")
    }

    fn stream(n: usize, gap_s: f64) -> Vec<SimRequest> {
        (0..n)
            .map(|i| SimRequest::new(i as u64, i as f64 * gap_s, 256, 64))
            .collect()
    }

    /// Bitwise equality of two completion lists (latencies compared as bit
    /// patterns, not float values).
    fn assert_same_completions(a: &[CompletedRequest], b: &[CompletedRequest]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!((x.id, x.server_id), (y.id, y.server_id));
            assert_eq!(x.ttft_s.to_bits(), y.ttft_s.to_bits());
            assert_eq!(x.e2e_s.to_bits(), y.e2e_s.to_bits());
            assert_eq!(x.queue_delay_s.to_bits(), y.queue_delay_s.to_bits());
            assert_eq!((x.generated, x.preemptions), (y.generated, y.preemptions));
        }
    }

    /// The collection the removed `run_stream` performed after the same
    /// event loop: consume the servers, each one's completions id-sorted,
    /// concatenate in server order, sort by id.
    fn run_stream_collect(engine: Engine) -> Vec<CompletedRequest> {
        let mut done: Vec<CompletedRequest> = engine
            .servers
            .into_iter()
            .flat_map(|s| s.into_completed())
            .collect();
        done.sort_by_key(|c| c.id);
        done
    }

    #[test]
    fn engine_single_server_matches_direct_drive() {
        // Simultaneous arrivals: all dispatch events fire before the first
        // iteration, so the engine-driven server sees exactly the queue an
        // upfront-enqueued server does. (With spaced arrivals the two drive
        // modes legitimately differ — an upfront queue lets the seed loop
        // admit requests mid-iteration that the event stream has not
        // delivered yet.)
        let mut engine = Engine::new(vec![server(0, SchedulerConfig::Fcfs, None)]);
        let done_engine = engine.run(
            stream(12, 0.0),
            |servers, req| {
                (0, OraclePredictor.predicted_response_len(&servers[0], req))
            },
            |_| None,
        );
        let mut direct = server(0, SchedulerConfig::Fcfs, None);
        for r in stream(12, 0.0) {
            direct.enqueue(r);
        }
        let done_direct = direct.run_to_completion();
        assert_eq!(done_direct.len(), 12);
        assert_same_completions(&done_engine, &done_direct);
        // A `|_| None` hook makes `run` the old `run_stream`.
        assert_same_completions(&done_engine, &run_stream_collect(engine));
    }

    #[test]
    fn unserviceable_request_is_dropped_not_spun() {
        // A prompt larger than the whole pool can never be admitted; the
        // seed loop would spin forever, the engine terminates without it.
        let done = Engine::new(vec![server(0, SchedulerConfig::Fcfs, Some(128))]).run(
            vec![
                SimRequest::new(0, 0.0, 4096, 8),
                SimRequest::new(1, 1.0, 64, 8),
            ],
            |_, _| (0, 8.0),
            |_| None,
        );
        // Request 0 is parked at the head of the FCFS queue, so neither
        // completes — but the run terminates.
        assert!(done.iter().all(|c| c.id != 0));
    }

    #[test]
    fn preemptive_scheduler_records_preemptions_under_pressure() {
        // A pool this small forces decode-time evictions once several
        // sequences grow together.
        let done = Engine::new(vec![server(0, SchedulerConfig::Preemptive, Some(2048))]).run(
            stream(8, 0.0),
            |servers, req| (0, OraclePredictor.predicted_response_len(&servers[0], req)),
            |_| None,
        );
        assert_eq!(done.len(), 8);
        let total: usize = done.iter().map(|c| c.preemptions).sum();
        assert!(total > 0, "expected preemptions under block pressure");
        // Preempted requests still finish with their full response.
        assert!(done.iter().all(|c| c.generated == 64));
    }

    fn session_turn(
        id: u64,
        arrival_s: f64,
        prompt_len: usize,
        session: u64,
        turn: u32,
        carried: usize,
        last_turn: bool,
    ) -> SimRequest {
        SimRequest::new(id, arrival_s, prompt_len, 32).with_session(crate::SessionRef {
            session,
            turn,
            carried_tokens: carried,
            last_turn,
        })
    }

    fn sharing_server(pool_tokens: usize) -> ServerSim {
        let cfg = ServingConfig {
            max_batch: 8,
            pool_tokens: Some(pool_tokens),
            prefix_sharing: true,
            ..ServingConfig::default()
        };
        ServerSim::with_config(0, dep(), CompressionConfig::Fp16, cfg).expect("valid config")
    }

    /// Drives a two-turn conversation through `Engine::run`: turn 1 is
    /// emitted by the follow-up hook after turn 0 completes, with the full
    /// turn-0 context carried as its prompt prefix.
    fn run_two_turn_session(engine: &mut Engine) -> Vec<CompletedRequest> {
        let turn0 = session_turn(0, 0.0, 256, 7, 0, 0, false);
        engine.run(
            vec![turn0],
            |_, req| (0, req.response_len as f64),
            |c| {
                if c.id != 0 {
                    return None;
                }
                let carried = 256 + c.generated;
                Some(session_turn(
                    1,
                    c.arrival_s + c.e2e_s + 1.0,
                    carried + 64,
                    7,
                    1,
                    carried,
                    true,
                ))
            },
        )
    }

    #[test]
    fn session_follow_up_is_causal_and_reuses_parked_kv() {
        let mut engine = Engine::new(vec![sharing_server(16 * 1024)]);
        let done = run_two_turn_session(&mut engine);
        assert_eq!(done.len(), 2);
        // Causality: turn 1 arrives only after turn 0 completed (+ think).
        assert!(done[1].arrival_s >= done[0].arrival_s + done[0].e2e_s);
        // Turn 1's carried context hit the parked blocks instead of
        // re-prefilling.
        let stats = engine.servers()[0].block_stats();
        assert!(stats.shared_hits > 0, "expected parked-KV reuse");
        // The parked owner was released after the handover: with turn 1
        // itself freed at completion, no blocks remain referenced.
        assert_eq!(engine.servers()[0].memory_utilization(), 0.0);
        // SLO fields are populated (FCFS, unloaded server: targets met).
        assert!(done.iter().all(|c| c.slo_ok));
    }

    #[test]
    fn session_reuse_beats_cold_reprefill_on_ttft() {
        let mut warm = Engine::new(vec![sharing_server(16 * 1024)]);
        let warm_done = run_two_turn_session(&mut warm);
        // Same conversation on a sharing-disabled server: turn 1 pays a
        // full-history prefill.
        let cold_cfg = ServingConfig {
            max_batch: 8,
            pool_tokens: Some(16 * 1024),
            prefix_sharing: false,
            ..ServingConfig::default()
        };
        let cold_server =
            ServerSim::with_config(0, dep(), CompressionConfig::Fp16, cold_cfg).expect("valid");
        let mut cold = Engine::new(vec![cold_server]);
        let cold_done = run_two_turn_session(&mut cold);
        assert_eq!(warm_done.len(), 2);
        assert_eq!(cold_done.len(), 2);
        assert!(
            warm_done[1].ttft_s < cold_done[1].ttft_s,
            "warm {} vs cold {}",
            warm_done[1].ttft_s,
            cold_done[1].ttft_s
        );
    }

    #[test]
    fn parked_kv_is_evicted_under_pool_pressure_not_deadlocked() {
        // Pool fits one parked conversation + one active sequence but not
        // much more: a burst of single-shot arrivals after the park must
        // reclaim the cache rather than stall.
        let mut engine = Engine::new(vec![sharing_server(1024)]);
        let turn0 = session_turn(0, 0.0, 256, 7, 0, 0, false);
        let mut singles: Vec<SimRequest> = (1..=3)
            .map(|i| SimRequest::new(i, 10.0 + i as f64 * 0.1, 400, 16))
            .collect();
        let mut reqs = vec![turn0];
        reqs.append(&mut singles);
        let done = engine.run(reqs, |_, req| (0, req.response_len as f64), |_| None);
        // All four complete: the parked session-7 cache was evicted to
        // make room (its follow-up never comes — no leak, no deadlock).
        assert_eq!(done.len(), 4);
    }

    #[test]
    fn preemptive_run_is_bit_reproducible() {
        let run = || {
            let mut engine =
                Engine::new(vec![server(0, SchedulerConfig::Preemptive, Some(2048))]);
            let done = engine.run(
                stream(8, 0.0),
                |servers, req| (0, OraclePredictor.predicted_response_len(&servers[0], req)),
                |_| None,
            );
            (done, engine)
        };
        let (a, engine_a) = run();
        let (b, _) = run();
        assert!(a.iter().any(|c| c.preemptions > 0));
        assert_same_completions(&a, &b);
        // A `|_| None` hook makes `run` the old `run_stream`.
        assert_same_completions(&a, &run_stream_collect(engine_a));
    }
}
