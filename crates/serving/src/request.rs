//! Requests flowing through the serving simulator.

use crate::SloClass;

/// Position of a request inside a multi-turn conversation.
///
/// Turn `k` of a session is emitted only after turn `k − 1` completes (the
/// engine schedules follow-up arrivals causally), and its prompt opens
/// with the previous turn's full context — `carried_tokens` of KV the
/// engine re-registers via shared blocks instead of re-prefilling when the
/// session's cache is still resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRef {
    /// Session (conversation) id.
    pub session: u64,
    /// Zero-based turn index within the session.
    pub turn: u32,
    /// Leading prompt tokens carried over from the previous turn
    /// (system prefix + accumulated history; 0 on the first turn).
    pub carried_tokens: usize,
    /// Whether this is the session's final turn — after it completes the
    /// engine frees the session's KV instead of parking it for reuse.
    pub last_turn: bool,
}

rkvc_tensor::json_struct!(SessionRef {
    session,
    turn,
    carried_tokens,
    last_turn,
});

/// A request submitted to a server or cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// Unique request id.
    pub id: u64,
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Response length (tokens) the request produces on the default
    /// serving configuration.
    pub response_len: usize,
    /// Optional per-server response lengths for cluster runs where servers
    /// run different compression policies (compression shifts lengths —
    /// paper §4.3). Index = server id; falls back to `response_len`.
    pub response_len_by_server: Vec<usize>,
    /// Shared-prefix group id (system prompt identity). Requests in the
    /// same group open with identical `prefix_len`-token prefixes, which a
    /// prefix-sharing block manager can deduplicate. Meaningless when
    /// `prefix_len == 0`.
    pub prefix_group: u64,
    /// Leading tokens of the prompt shared verbatim with the group
    /// (0 = no sharing).
    pub prefix_len: usize,
    /// Latency class (defaults to [`SloClass::Standard`]).
    pub slo: SloClass,
    /// Multi-turn conversation membership (`None` for single-shot
    /// requests — the seed-compatible default).
    pub session: Option<SessionRef>,
}

impl SimRequest {
    /// Creates a request with a single response length and no shared
    /// prefix.
    pub fn new(id: u64, arrival_s: f64, prompt_len: usize, response_len: usize) -> Self {
        SimRequest {
            id,
            arrival_s,
            prompt_len,
            response_len,
            response_len_by_server: Vec::new(),
            prefix_group: 0,
            prefix_len: 0,
            slo: SloClass::Standard,
            session: None,
        }
    }

    /// Marks the first `prefix_len` prompt tokens as shared with group
    /// `group` (clamped to the prompt length).
    pub fn with_shared_prefix(mut self, group: u64, prefix_len: usize) -> Self {
        self.prefix_group = group;
        self.prefix_len = prefix_len.min(self.prompt_len);
        self
    }

    /// Sets the request's latency class.
    pub fn with_slo(mut self, class: SloClass) -> Self {
        self.slo = class;
        self
    }

    /// Places the request inside a multi-turn session (`carried_tokens`
    /// clamped to the prompt length — carried context is a prompt prefix
    /// by construction).
    pub fn with_session(mut self, mut session: SessionRef) -> Self {
        session.carried_tokens = session.carried_tokens.min(self.prompt_len);
        self.session = Some(session);
        self
    }

    /// Response length if served by `server_id`.
    pub fn response_len_on(&self, server_id: usize) -> usize {
        self.response_len_by_server
            .get(server_id)
            .copied()
            .unwrap_or(self.response_len)
    }
}

/// Why [`check_arrivals`] rejected a stream; the cluster and fleet drivers
/// both require finite, arrival-sorted streams and report a violation
/// through their own error types.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ArrivalFault {
    /// `arrival_s` at `index` is NaN or infinite.
    NonFinite { index: usize, arrival_s: f64 },
    /// The request at `index` arrives before its predecessor (`prev_s`).
    Unsorted { index: usize, arrival_s: f64, prev_s: f64 },
}

/// Checks that every arrival time is finite and the stream is sorted by
/// arrival. Finiteness is checked first, over the whole stream: a NaN
/// compares as neither earlier nor later, so it would pass the sortedness
/// scan and surface later as NaN latencies, and an infinite arrival would
/// keep the fleet's epoch loop stepping toward it forever.
pub(crate) fn check_arrivals(requests: &[SimRequest]) -> Result<(), ArrivalFault> {
    if let Some(index) = requests.iter().position(|r| !r.arrival_s.is_finite()) {
        let arrival_s = requests[index].arrival_s;
        return Err(ArrivalFault::NonFinite { index, arrival_s });
    }
    match requests.windows(2).position(|w| w[1].arrival_s < w[0].arrival_s) {
        Some(i) => Err(ArrivalFault::Unsorted {
            index: i + 1,
            arrival_s: requests[i + 1].arrival_s,
            prev_s: requests[i].arrival_s,
        }),
        None => Ok(()),
    }
}

/// A finished request with its measured latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedRequest {
    /// The request id.
    pub id: u64,
    /// Server that executed it.
    pub server_id: usize,
    /// Arrival time (seconds).
    pub arrival_s: f64,
    /// Time-to-first-token (seconds from arrival).
    pub ttft_s: f64,
    /// End-to-end latency (seconds from arrival to last token).
    pub e2e_s: f64,
    /// Tokens generated.
    pub generated: usize,
    /// Seconds spent queued before first admission (0 when admitted at
    /// arrival).
    pub queue_delay_s: f64,
    /// Times the scheduler preempted (evicted-and-recomputed) the request.
    pub preemptions: usize,
    /// Latency class the request was served under.
    pub slo: SloClass,
    /// Whether the completion met its class targets (TTFT and mean TBT
    /// both within budget) — per-request SLO attainment.
    pub slo_ok: bool,
    /// Session membership carried over from the request.
    pub session: Option<SessionRef>,
}

impl CompletedRequest {
    /// Time-between-output-tokens (TBOT), the paper's second key serving
    /// metric (§2.4): mean seconds per generated token after the first.
    /// Zero when at most one token was generated.
    pub fn tbot_s(&self) -> f64 {
        if self.generated <= 1 {
            0.0
        } else {
            (self.e2e_s - self.ttft_s) / (self.generated - 1) as f64
        }
    }
}

rkvc_tensor::json_struct!(SimRequest {
    id,
    arrival_s,
    prompt_len,
    response_len,
    response_len_by_server,
    prefix_group,
    prefix_len,
    slo,
    session,
});
rkvc_tensor::json_struct!(CompletedRequest {
    id,
    server_id,
    arrival_s,
    ttft_s,
    e2e_s,
    generated,
    queue_delay_s,
    preemptions,
    slo,
    slo_ok,
    session,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tbot_is_decode_time_per_token() {
        let c = CompletedRequest {
            id: 0,
            server_id: 0,
            arrival_s: 0.0,
            ttft_s: 1.0,
            e2e_s: 11.0,
            generated: 101,
            queue_delay_s: 0.5,
            preemptions: 0,
            slo: SloClass::Standard,
            slo_ok: true,
            session: None,
        };
        assert!((c.tbot_s() - 0.1).abs() < 1e-12);
        let single = CompletedRequest { generated: 1, ..c };
        assert_eq!(single.tbot_s(), 0.0);
    }

    /// A NaN or infinite arrival used to pass both drivers' sortedness scan:
    /// the cluster returned NaN latencies that panicked in the metrics, the
    /// fleet panicked in its telemetry, and `+inf` kept the fleet's epoch
    /// loop running forever. Every position is a typed error from both.
    #[test]
    fn non_finite_arrivals_are_a_typed_error_from_both_drivers() {
        use crate::{
            Cluster, ClusterError, Fleet, FleetConfig, FleetError, OraclePredictor, RoutingPolicy,
            ServerSim,
        };
        use rkvc_gpu::{DeploymentSpec, EngineKind, GpuSpec, LlmSpec};
        use rkvc_kvcache::CompressionConfig;

        let dep = DeploymentSpec {
            gpu: GpuSpec::a6000(),
            llm: LlmSpec::llama2_7b(),
            engine: EngineKind::LmDeploy,
            tensor_parallel: 1,
        };
        // (stream length, index of the bad arrival, its value).
        let cases = [
            (3, 0, f64::NAN),
            (3, 1, f64::NAN),
            (3, 2, f64::NAN),
            (1, 0, f64::NAN),
            (3, 2, f64::INFINITY),
            (1, 0, f64::INFINITY),
            (3, 0, f64::NEG_INFINITY),
        ];
        for (len, bad, value) in cases {
            let mut stream: Vec<SimRequest> =
                (0..len).map(|i| SimRequest::new(i as u64, i as f64 * 0.1, 64, 8)).collect();
            stream[bad].arrival_s = value;
            let same = |index: usize, arrival_s: f64| {
                index == bad && arrival_s.to_bits() == value.to_bits()
            };

            let server = ServerSim::new(0, dep.clone(), CompressionConfig::Fp16, 8);
            let cluster = Cluster::new(vec![server], RoutingPolicy::LoadBalance).unwrap();
            match cluster.run(stream.clone(), &OraclePredictor) {
                Err(ClusterError::NonFiniteArrival { index, arrival_s })
                    if same(index, arrival_s) => {}
                other => panic!("cluster, {value} at {bad} of {len}: {other:?}"),
            }

            let fleet =
                Fleet::new(dep.clone(), CompressionConfig::Fp16, FleetConfig::default()).unwrap();
            match fleet.run(stream) {
                Err(FleetError::NonFiniteArrival { index, arrival_s })
                    if same(index, arrival_s) => {}
                other => panic!("fleet, {value} at {bad} of {len}: {other:?}"),
            }
        }
    }

    #[test]
    fn per_server_lengths_fall_back() {
        let mut r = SimRequest::new(1, 0.0, 100, 50);
        assert_eq!(r.response_len_on(3), 50);
        r.response_len_by_server = vec![50, 80];
        assert_eq!(r.response_len_on(1), 80);
        assert_eq!(r.response_len_on(9), 50);
    }

    #[test]
    fn shared_prefix_is_clamped_to_prompt() {
        let r = SimRequest::new(1, 0.0, 100, 50).with_shared_prefix(7, 500);
        assert_eq!(r.prefix_group, 7);
        assert_eq!(r.prefix_len, 100);
        let plain = SimRequest::new(2, 0.0, 100, 50);
        assert_eq!(plain.prefix_len, 0);
    }

    #[test]
    fn slo_and_session_builders_annotate() {
        let plain = SimRequest::new(1, 0.0, 100, 50);
        assert_eq!(plain.slo, SloClass::Standard);
        assert_eq!(plain.session, None);
        let r = SimRequest::new(2, 0.0, 100, 50)
            .with_slo(SloClass::Interactive)
            .with_session(SessionRef {
                session: 9,
                turn: 1,
                carried_tokens: 400, // clamped: carried KV is a prompt prefix
                last_turn: false,
            });
        assert_eq!(r.slo, SloClass::Interactive);
        let s = r.session.expect("session set");
        assert_eq!(s.session, 9);
        assert_eq!(s.turn, 1);
        assert_eq!(s.carried_tokens, 100);
        assert!(!s.last_turn);
    }
}
