//! Multi-GPU cluster with the paper's four routing policies (§5.4).
//!
//! `Cluster` is a thin driver over the discrete-event
//! [`Engine`](crate::Engine): it validates the arrival stream, supplies
//! the routing decision as the engine's dispatch closure, and leaves all
//! admission/decode/preemption mechanics to [`ServerSim`].

use crate::request::{check_arrivals, ArrivalFault};
use crate::{CompletedRequest, Engine, ServerSim, SimRequest};

/// Routing policies from Table 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingPolicy {
    /// Route to the server with minimum KV-memory utilization (the paper's
    /// *Baseline* load balancing).
    LoadBalance,
    /// Route to the server with the highest predicted decode throughput
    /// (*w/ Throughput*).
    ThroughputAware,
    /// Route to the server predicted to produce the shortest response
    /// (*w/ Length*).
    LengthAware,
    /// Route to the server with the minimum predicted end-to-end latency:
    /// prefill + predicted length / predicted throughput (*w/ Both*).
    Both,
}

impl RoutingPolicy {
    /// All four policies in Table 8's row order.
    pub fn all() -> [RoutingPolicy; 4] {
        [
            RoutingPolicy::LoadBalance,
            RoutingPolicy::ThroughputAware,
            RoutingPolicy::LengthAware,
            RoutingPolicy::Both,
        ]
    }

    /// Table 8 row label.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::LoadBalance => "Baseline",
            RoutingPolicy::ThroughputAware => "w/ Throughput",
            RoutingPolicy::LengthAware => "w/ Length",
            RoutingPolicy::Both => "w/ Both",
        }
    }
}

/// Predictions the router consults. Implemented by the tool suite's
/// predictors (`rkvc-core`) and by [`OraclePredictor`] for ground-truth
/// routing in tests.
pub trait RoutePredictor {
    /// Predicted decode throughput (tokens/s) if `req` ran on `server` with
    /// its current load.
    fn predicted_throughput(&self, server: &ServerSim, req: &SimRequest) -> f64;

    /// Predicted response length (tokens) if `req` ran on `server`
    /// (compression policies shift lengths).
    fn predicted_response_len(&self, server: &ServerSim, req: &SimRequest) -> f64;
}

/// Ground-truth predictor: evaluates the cost model directly and reads the
/// request's true per-server response length. The upper bound a learned
/// predictor approaches.
#[derive(Debug, Clone, Copy, Default)]
pub struct OraclePredictor;

impl RoutePredictor for OraclePredictor {
    fn predicted_throughput(&self, server: &ServerSim, req: &SimRequest) -> f64 {
        let batch = server.batch_size() + 1;
        let kv = server.mean_kv_len().max(req.prompt_len);
        server
            .deployment()
            .decode_throughput(server.algo(), batch, kv)
    }

    fn predicted_response_len(&self, server: &ServerSim, req: &SimRequest) -> f64 {
        req.response_len_on(server.id()) as f64
    }
}

/// Typed error for malformed cluster configurations and arrival streams —
/// the serving stack reports these via `Result` rather than aborting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterError {
    /// A cluster needs at least one server.
    EmptyCluster,
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

impl From<ArrivalFault> for ClusterError {
    fn from(fault: ArrivalFault) -> Self {
        match fault {
            ArrivalFault::NonFinite { index, arrival_s } => {
                ClusterError::NonFiniteArrival { index, arrival_s }
            }
            ArrivalFault::Unsorted { index, arrival_s, prev_s } => {
                ClusterError::UnsortedArrivals { index, arrival_s, prev_s }
            }
        }
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ClusterError::EmptyCluster => write!(f, "cluster needs at least one server"),
            ClusterError::NonFiniteArrival { index, arrival_s } => write!(
                f,
                "arrival times must be finite: request #{index} arrives at {arrival_s}s"
            ),
            ClusterError::UnsortedArrivals {
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

impl std::error::Error for ClusterError {}

/// Picks the lowest-score server for `req` under `policy`.
fn route_among(
    servers: &[ServerSim],
    policy: RoutingPolicy,
    req: &SimRequest,
    predictor: &dyn RoutePredictor,
) -> usize {
    let score = |idx: usize| -> f64 {
        let s = &servers[idx];
        match policy {
            // Lower is better for all scores below.
            RoutingPolicy::LoadBalance => {
                s.memory_utilization() + s.load() as f64 * 1e-6
            }
            // Per-request decode rate: aggregate batch throughput
            // divided over the residents — a loaded server offers each
            // request a smaller share, which is what spreads load.
            RoutingPolicy::ThroughputAware => {
                -predictor.predicted_throughput(s, req) / (s.load() + 1) as f64
            }
            // Shortest predicted response, tie-broken toward idle
            // servers (all same-algorithm servers predict equal
            // lengths).
            RoutingPolicy::LengthAware => {
                predictor.predicted_response_len(s, req) * (1.0 + 0.1 * s.load() as f64)
            }
            RoutingPolicy::Both => {
                // Predicted E2E: the ThroughputAware load share weighted
                // by the predicted response length (so with equal length
                // predictions this reduces exactly to ThroughputAware,
                // and length information can only refine it), plus the
                // prefill cost.
                let thr = predictor.predicted_throughput(s, req).max(1e-9);
                let len = predictor.predicted_response_len(s, req);
                let prefill = s
                    .deployment()
                    .prefill(s.algo(), 1, req.prompt_len)
                    .total();
                prefill + len * (s.load() + 1) as f64 / thr
            }
        }
    };
    (0..servers.len())
        .min_by(|&a, &b| {
            score(a)
                .partial_cmp(&score(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        // Callers guarantee at least one server.
        .unwrap_or(0)
}

/// A multi-server deployment fed by a global arrival stream.
#[derive(Debug)]
pub struct Cluster {
    servers: Vec<ServerSim>,
    policy: RoutingPolicy,
}

impl Cluster {
    /// Creates a cluster over the given servers.
    ///
    /// # Errors
    ///
    /// [`ClusterError::EmptyCluster`] if `servers` is empty.
    pub fn new(servers: Vec<ServerSim>, policy: RoutingPolicy) -> Result<Self, ClusterError> {
        if servers.is_empty() {
            return Err(ClusterError::EmptyCluster);
        }
        Ok(Cluster { servers, policy })
    }

    /// Runs the full arrival stream to completion on the discrete-event
    /// engine and returns every request's measured latency. At each
    /// arrival instant the engine has every server's state current (all
    /// iterations due before the arrival have run), routing picks a
    /// destination, and the router's length prediction is stamped on the
    /// request for prediction-driven schedulers.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NonFiniteArrival`] if an arrival time is NaN or
    /// infinite, [`ClusterError::UnsortedArrivals`] if `requests` is not
    /// sorted by arrival time.
    pub fn run(
        self,
        requests: Vec<SimRequest>,
        predictor: &dyn RoutePredictor,
    ) -> Result<Vec<CompletedRequest>, ClusterError> {
        check_arrivals(&requests)?;
        let policy = self.policy;
        Ok(Engine::new(self.servers).run(
            requests,
            |servers, req| {
                let dst = route_among(servers, policy, req, predictor);
                let predicted = predictor.predicted_response_len(&servers[dst], req);
                (dst, predicted)
            },
            |_| None,
        ))
    }
}

rkvc_tensor::json_unit_enum!(RoutingPolicy {
    LoadBalance,
    ThroughputAware,
    LengthAware,
    Both,
});

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Paper topology: GPU 0 runs FP16, GPUs 1-3 run one compression algo.
    fn paper_cluster(policy: RoutingPolicy) -> Cluster {
        let algo = CompressionConfig::streaming(64, 448);
        let servers = vec![
            ServerSim::new(0, dep(), CompressionConfig::Fp16, 8),
            ServerSim::new(1, dep(), algo, 8),
            ServerSim::new(2, dep(), algo, 8),
            ServerSim::new(3, dep(), algo, 8),
        ];
        Cluster::new(servers, policy).unwrap()
    }

    fn stream(n: usize) -> Vec<SimRequest> {
        (0..n)
            .map(|i| {
                let mut r = SimRequest::new(i as u64, i as f64 * 0.1, 1024, 96);
                // Compression makes responses somewhat longer on servers 1-3.
                r.response_len_by_server = vec![96, 128, 128, 128];
                r
            })
            .collect()
    }

    #[test]
    fn all_requests_complete_under_every_policy() {
        for policy in RoutingPolicy::all() {
            let done = paper_cluster(policy)
                .run(stream(24), &OraclePredictor)
                .unwrap();
            assert_eq!(done.len(), 24, "{policy:?}");
            assert!(done.iter().all(|c| c.e2e_s > 0.0));
        }
    }

    #[test]
    fn load_balance_spreads_requests() {
        let done = paper_cluster(RoutingPolicy::LoadBalance)
            .run(stream(32), &OraclePredictor)
            .unwrap();
        let mut counts = [0usize; 4];
        for c in &done {
            counts[c.server_id] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn length_aware_prefers_the_short_server() {
        // Server 0 (FP16) yields shorter responses; LengthAware should
        // favour it (with load-based spill once it saturates).
        let done = paper_cluster(RoutingPolicy::LengthAware)
            .run(stream(16), &OraclePredictor)
            .unwrap();
        let mut counts = [0usize; 4];
        for c in &done {
            counts[c.server_id] += 1;
        }
        assert!(
            counts[0] > counts[1] && counts[0] > counts[2] && counts[0] > counts[3],
            "FP16 should attract the most traffic: {counts:?}"
        );
    }

    #[test]
    fn combined_policy_beats_load_balance_on_average() {
        // Table 8's headline: w/ Both < Baseline in average E2E.
        let base = paper_cluster(RoutingPolicy::LoadBalance)
            .run(stream(48), &OraclePredictor)
            .unwrap();
        let both = paper_cluster(RoutingPolicy::Both)
            .run(stream(48), &OraclePredictor)
            .unwrap();
        let mean = |v: &[CompletedRequest]| {
            v.iter().map(|c| c.e2e_s).sum::<f64>() / v.len() as f64
        };
        assert!(
            mean(&both) < mean(&base),
            "both {} vs baseline {}",
            mean(&both),
            mean(&base)
        );
    }

    #[test]
    fn unsorted_arrivals_are_a_typed_error() {
        let mut reqs = stream(3);
        reqs[1].arrival_s = 100.0;
        let err = paper_cluster(RoutingPolicy::LoadBalance)
            .run(reqs, &OraclePredictor)
            .unwrap_err();
        assert_eq!(
            err,
            ClusterError::UnsortedArrivals {
                index: 2,
                arrival_s: 0.2,
                prev_s: 100.0
            }
        );
    }

    #[test]
    fn empty_cluster_is_a_typed_error() {
        let err = Cluster::new(Vec::new(), RoutingPolicy::LoadBalance).unwrap_err();
        assert_eq!(err, ClusterError::EmptyCluster);
    }
}
