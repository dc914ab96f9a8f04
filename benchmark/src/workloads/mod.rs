//! The benchmark's workloads.
//!
//! A workload is a fixed list of *units* (one generation request, one
//! `serve_*` call, one experiment); a *pass* runs every unit once. Passes
//! are identical, so a pass's time has a meaningful median and every pass
//! must reproduce the first one's digests.

mod gen;
mod repro;
mod sim;

use std::collections::BTreeMap;

use rkvc_core::experiments::{RunOptions, Scale};
use rkvc_serving::SchedulerConfig;

use crate::trace::Tracer;

pub use gen::{policies, Gen, ALGOS};
pub use sim::{SimCluster, SimFleet, SimSessions, CLUSTER_CELLS, FLEET_CELLS, SESSION_CELLS};

/// What one unit produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitResult {
    /// Operations the unit performed (requests served, experiments run):
    /// what `attempted` and `failed` count.
    pub ops: u64,
    /// Work the unit did, in the workload's throughput unit. Equal to `ops`
    /// except where operations differ in size with the seed: generation
    /// counts tokens, so that `work_per_s` does not move with the prompt
    /// lengths a seed happens to draw.
    pub work: u64,
    /// FNV-1a digest of the unit's outputs.
    pub digest: u64,
}

/// The experiments' options at a scale and seed (FCFS, as `repro` defaults).
pub fn run_options(scale: Scale, seed: u64) -> RunOptions {
    RunOptions {
        scale,
        seed,
        scheduler: SchedulerConfig::Fcfs,
    }
}

/// Exact values a workload reads off its outputs (simulated time, counts,
/// bytes), keyed by per-layer metric name. They must repeat on every pass
/// and on every commit that does not change behaviour.
pub type Facts = BTreeMap<String, f64>;

/// One workload, set up and ready to run passes.
pub trait Workload {
    /// Labels of the units of one pass, in execution order.
    fn units(&self) -> Vec<String>;

    /// Runs one unit, recording spans around each call into a layer.
    ///
    /// # Panics
    ///
    /// Panics when an output invariant fails; the harness catches it and
    /// counts the unit's operations as failed.
    fn run_unit(&mut self, unit: usize, tr: &mut Tracer) -> UnitResult;

    /// The units `--check` runs: a subset cheap enough for a smoke test,
    /// at full size so their digests match the goldens.
    fn check_units(&self) -> Vec<usize>;

    /// Exact per-layer values from the units run so far.
    fn facts(&self) -> Facts;
}

/// Layer probes a workload's own traced passes already cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Covers {
    /// `model.*` spans.
    Model,
    /// `serving.cluster` spans.
    Cluster,
    /// `serving.session` spans.
    Sessions,
    /// `serving.fleet` spans.
    Fleet,
}

/// Static description of a workload.
pub struct Descriptor {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What one unit of work is, for the human-readable report.
    pub work: &'static str,
    /// Whether set-up ends with an untimed warm-up pass.
    pub warm_up: bool,
    /// Untraced and traced passes a traced run makes of each kind. Fixed,
    /// not timed, so tail percentiles always see the same sample count.
    pub traced_passes: usize,
    /// Context length the tensor and kvcache probes run at.
    pub probe_ctx: usize,
    /// The probe group this workload's own spans stand in for.
    pub covers: Option<Covers>,
    /// Builds the workload from the seed.
    pub setup: fn(u64) -> Box<dyn Workload>,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Descriptor; 6] = [
    Descriptor {
        name: "gen_long",
        work: "token",
        warm_up: true,
        traced_passes: 3,
        probe_ctx: 1024,
        covers: Some(Covers::Model),
        setup: |seed| Box::new(Gen::long(seed)),
    },
    Descriptor {
        name: "gen_short",
        work: "token",
        warm_up: true,
        traced_passes: 3,
        probe_ctx: 128,
        covers: Some(Covers::Model),
        setup: |seed| Box::new(Gen::short(seed, gen::SHORT_CONVERSATIONS)),
    },
    Descriptor {
        name: "sim_cluster",
        work: "sim-request",
        warm_up: true,
        traced_passes: 100,
        probe_ctx: 256,
        covers: Some(Covers::Cluster),
        setup: |seed| Box::new(SimCluster::new(seed)),
    },
    Descriptor {
        name: "sim_sessions",
        work: "sim-turn",
        warm_up: true,
        traced_passes: 8,
        probe_ctx: 256,
        covers: Some(Covers::Sessions),
        setup: |seed| Box::new(SimSessions::new(seed)),
    },
    Descriptor {
        name: "sim_fleet",
        work: "sim-request",
        warm_up: true,
        traced_passes: 2,
        probe_ctx: 256,
        covers: Some(Covers::Fleet),
        setup: |seed| Box::new(SimFleet::new(seed)),
    },
    Descriptor {
        name: "repro_quick",
        work: "experiment",
        warm_up: false,
        traced_passes: 1,
        probe_ctx: 256,
        covers: None,
        setup: |seed| Box::new(repro::ReproQuick::new(seed)),
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Descriptor> {
    WORKLOADS.iter().find(|w| w.name == name)
}
