//! Serving-simulator workloads: `sim_cluster`, `sim_sessions`, `sim_fleet`.
//!
//! No TinyLM work at all: host time here is the event heap, schedulers,
//! block manager and (for the fleet) the sharder, epoch barrier and
//! autoscaler. Everything the simulators *report* is simulated time and
//! must repeat bit for bit; only how long they take to report it is
//! measured.

use rkvc_core::experiments::workloads::{cluster_workload, ClusterWorkload};
use rkvc_core::experiments::{ext_fleet, ext_scheduler, ext_slo, Scale};
use rkvc_serving::{
    AutoscaleConfig, LatencySummary, SchedulerConfig, ServingMetrics, ShardPolicy, SimRequest,
    SloPolicy,
};
use rkvc_workload::SessionTrace;

use super::{run_options, Facts, UnitResult, Workload};
use crate::digest::Fnv1a;
use crate::trace::Tracer;

fn digest_summary(d: &mut Fnv1a, s: &LatencySummary) {
    d.u64(s.len() as u64);
    d.f64(s.mean());
    for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
        d.f64(s.percentile(p));
    }
}

/// Digest of the class-blind summaries of a completion stream: counts plus
/// mean and nine percentiles of TTFT, TBT, queue delay and E2E, bit exact.
fn digest_metrics(d: &mut Fnv1a, m: &ServingMetrics) {
    d.u64(m.completed as u64);
    d.u64(m.preemptions as u64);
    for s in [&m.ttft, &m.tbt, &m.queue_delay, &m.e2e] {
        digest_summary(d, s);
    }
}

/// Scheduler cells of `sim_cluster`, in unit order.
pub const CLUSTER_CELLS: [&str; 3] = ["fcfs", "spf", "preemptive"];

/// Table 8's H2O column at paper scale (1000 ShareGPT-paper requests, one
/// FP16 and three H2O servers, combined routing with the fitted router,
/// pool pinned to 3584 tokens) under each scheduler.
pub struct SimCluster {
    workload: ClusterWorkload,
    facts: Facts,
}

impl SimCluster {
    /// Builds the request stream and fits the router's predictors.
    pub fn new(seed: u64) -> Self {
        SimCluster::from_workload(cluster_workload(&run_options(Scale::Paper, seed)))
    }

    /// Wraps an already-built cluster workload.
    pub fn from_workload(workload: ClusterWorkload) -> Self {
        SimCluster {
            workload,
            facts: Facts::new(),
        }
    }
}

impl Workload for SimCluster {
    fn units(&self) -> Vec<String> {
        CLUSTER_CELLS.iter().map(|c| (*c).to_owned()).collect()
    }

    fn run_unit(&mut self, unit: usize, tr: &mut Tracer) -> UnitResult {
        let cell = CLUSTER_CELLS[unit];
        let sched = SchedulerConfig::all()[unit];
        let requests = self.workload.requests.len();
        let s = tr.begin("serving.cluster", cell, unit as u64, requests as u64);
        let m = ext_scheduler::serve_workload(&self.workload, sched);
        tr.end(s);
        assert_eq!(
            m.completed, requests,
            "every request completes exactly once"
        );
        match sched {
            SchedulerConfig::Fcfs => {
                assert_eq!(m.preemptions, 0, "fcfs never preempts");
                self.facts
                    .insert("serving.sim_ttft_p99_s.cluster".to_owned(), m.ttft.p99());
            }
            SchedulerConfig::Preemptive => {
                self.facts.insert(
                    "serving.cluster_preemptions".to_owned(),
                    m.preemptions as f64,
                );
            }
            SchedulerConfig::ShortestPredictedFirst => {}
        }
        let mut d = Fnv1a::default();
        digest_metrics(&mut d, &m);
        UnitResult {
            ops: m.completed as u64,
            work: m.completed as u64,
            digest: d.finish(),
        }
    }

    fn check_units(&self) -> Vec<usize> {
        vec![0, 2]
    }

    fn facts(&self) -> Facts {
        self.facts.clone()
    }
}

/// (scheduler, SLO policy) cells of `sim_sessions`, in `ext_slo::sweep` order.
pub const SESSION_CELLS: [&str; 6] = [
    "fcfs-blind",
    "fcfs-aware",
    "spf-blind",
    "spf-aware",
    "preemptive-blind",
    "preemptive-aware",
];

/// `ext_slo`'s multi-turn chat trace at paper scale (480 sessions, about
/// 1700 turns) on one prefix-sharing server under each sweep cell.
pub struct SimSessions {
    trace: SessionTrace,
    cells: Vec<(SchedulerConfig, SloPolicy)>,
    facts: Facts,
}

impl SimSessions {
    /// Samples the session trace.
    pub fn new(seed: u64) -> Self {
        let cells = ext_slo::sweep();
        assert_eq!(
            cells.len(),
            SESSION_CELLS.len(),
            "ext_slo::sweep changed shape"
        );
        SimSessions {
            trace: ext_slo::session_trace(&run_options(Scale::Paper, seed)),
            cells,
            facts: Facts::new(),
        }
    }
}

impl Workload for SimSessions {
    fn units(&self) -> Vec<String> {
        SESSION_CELLS.iter().map(|c| (*c).to_owned()).collect()
    }

    fn run_unit(&mut self, unit: usize, tr: &mut Tracer) -> UnitResult {
        let cell = SESSION_CELLS[unit];
        let (sched, policy) = self.cells[unit];
        let turns = self.trace.total_turns();
        let s = tr.begin("serving.session", cell, unit as u64, turns as u64);
        let o = ext_slo::serve_sessions(&self.trace, sched, policy);
        tr.end(s);
        assert_eq!(
            o.metrics.completed, turns,
            "every turn completes exactly once"
        );
        assert_eq!(o.slo.completed, turns, "per-class totals cover every turn");
        if cell == "fcfs-blind" {
            self.facts
                .insert("serving.session_dedup_ratio".to_owned(), o.dedup_ratio);
            self.facts.insert(
                "serving.sim_ttft_p99_s.session".to_owned(),
                o.metrics.ttft.p99(),
            );
        }
        if cell == "spf-aware" {
            self.facts
                .insert("serving.session_goodput_tps".to_owned(), o.slo.goodput_tps);
        }
        let mut d = Fnv1a::default();
        digest_metrics(&mut d, &o.metrics);
        d.u64(o.slo.slo_met as u64);
        d.u64(o.slo.attained_tokens as u64);
        d.f64(o.slo.goodput_tps);
        d.u64(o.peak_batch as u64);
        d.f64(o.dedup_ratio);
        UnitResult {
            ops: turns as u64,
            work: turns as u64,
            digest: d.finish(),
        }
    }

    fn check_units(&self) -> Vec<usize> {
        vec![0, 3]
    }

    fn facts(&self) -> Facts {
        self.facts.clone()
    }
}

/// (load pattern, sharding) cells of `sim_fleet`, in unit order.
pub const FLEET_CELLS: [&str; 3] = ["uniform-hash", "diurnal-hash-auto", "bursty-rr"];

/// Replicas every fleet cell starts with.
const FLEET_REPLICAS: usize = 16;

/// `ext_fleet`'s autoscaling thresholds.
fn autoscale() -> AutoscaleConfig {
    AutoscaleConfig {
        min_replicas: 4,
        max_replicas: 24,
        queue_high: 4.0,
        queue_low: 0.5,
        p99_ttft_high_s: 8.0,
        cooldown_epochs: 1,
        step: 4,
    }
}

/// Three 100 000-request assistant streams (uniform, diurnal, bursty)
/// through a 16-replica prefix-sharing fleet: consistent hashing, consistent
/// hashing with the autoscaler, round robin.
pub struct SimFleet {
    streams: Vec<Vec<SimRequest>>,
    facts: Facts,
}

impl SimFleet {
    /// Samples the three request streams.
    pub fn new(seed: u64) -> Self {
        let patterns = ext_fleet::load_patterns();
        assert_eq!(
            patterns.len(),
            FLEET_CELLS.len(),
            "ext_fleet::load_patterns changed shape"
        );
        SimFleet {
            streams: patterns
                .into_iter()
                .map(|(_, pattern)| {
                    ext_fleet::fleet_workload(&run_options(Scale::Paper, seed), pattern)
                })
                .collect(),
            facts: Facts::new(),
        }
    }
}

impl Workload for SimFleet {
    fn units(&self) -> Vec<String> {
        FLEET_CELLS.iter().map(|c| (*c).to_owned()).collect()
    }

    fn run_unit(&mut self, unit: usize, tr: &mut Tracer) -> UnitResult {
        let cell = FLEET_CELLS[unit];
        let (sharding, scaling) = match cell {
            "uniform-hash" => (ShardPolicy::ConsistentHash, None),
            "diurnal-hash-auto" => (ShardPolicy::ConsistentHash, Some(autoscale())),
            _ => (ShardPolicy::RoundRobin, None),
        };
        let requests = self.streams[unit].len();
        let s = tr.begin("serving.fleet", cell, unit as u64, requests as u64);
        let o = ext_fleet::serve_fleet(
            self.streams[unit].clone(),
            FLEET_REPLICAS,
            sharding,
            scaling,
        );
        tr.end(s);
        assert_eq!(o.dropped, 0, "no request may be dropped");
        assert_eq!(o.completed.len(), requests, "every request completes");
        assert!(
            o.completed.windows(2).all(|w| w[0].id < w[1].id),
            "every request completes exactly once"
        );
        match cell {
            "uniform-hash" => {
                self.facts
                    .insert("serving.fleet_dedup_ratio.hash".to_owned(), o.dedup_ratio);
                self.facts.insert(
                    "serving.sim_ttft_p99_s.fleet".to_owned(),
                    o.metrics.ttft.p99(),
                );
            }
            "diurnal-hash-auto" => {
                self.facts
                    .insert("serving.fleet_epochs".to_owned(), o.epochs as f64);
                self.facts.insert(
                    "serving.fleet_peak_replicas".to_owned(),
                    o.peak_replicas as f64,
                );
            }
            _ => {
                self.facts
                    .insert("serving.fleet_dedup_ratio.rr".to_owned(), o.dedup_ratio);
            }
        }
        let mut d = Fnv1a::default();
        for c in &o.completed {
            d.u64(c.id);
            d.u64(c.server_id as u64);
            d.f64(c.ttft_s);
            d.f64(c.e2e_s);
        }
        d.u64(o.epochs);
        d.u64(o.peak_replicas as u64);
        d.f64(o.dedup_ratio);
        UnitResult {
            ops: requests as u64,
            work: requests as u64,
            digest: d.finish(),
        }
    }

    fn check_units(&self) -> Vec<usize> {
        vec![0]
    }

    fn facts(&self) -> Facts {
        self.facts.clone()
    }
}
