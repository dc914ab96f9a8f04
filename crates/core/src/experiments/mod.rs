//! One module per paper table/figure, each regenerating its rows/series.
//!
//! Every experiment follows the same contract: `run(&RunOptions) ->
//! ExperimentResult`, where the result carries renderable [`Table`]s (the
//! paper's rows/series) plus free-form notes about calibration targets.
//! `RunOptions::quick()` shrinks sample counts so the whole harness runs in
//! CI; `RunOptions::paper()` uses the paper's sample sizes.
//!
//! No experiment drives TinyLM itself. The ShareGPT-length ones call
//! `common::generate_each` (requests × one policy → outputs), the
//! LongBench-score ones [`crate::negative::evaluate_suite`] (samples ×
//! policies → scores); a bundle that shows several views of one such
//! result (`appendix_d`) computes it once and hands it to each view's
//! `from_scores`.

pub mod appendix_c;
pub mod appendix_d;
pub mod common;
pub mod ext_granularity;
pub mod ext_fleet;
pub mod ext_prefix;
pub mod ext_quest;
pub mod ext_scheduler;
pub mod ext_slo;
pub mod ext_task_router;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fig10;
pub mod fig11_14;
pub mod table1_2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;
pub mod workloads;

use crate::report::{str_array, Table};
use rkvc_serving::SchedulerConfig;
use rkvc_tensor::json::{JsonValue, ToJson};

/// Sampling scale for an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sample counts for tests/CI (seconds).
    Quick,
    /// Paper-scale sample counts (minutes, release mode).
    Paper,
}

/// Options shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Sampling scale.
    pub scale: Scale,
    /// Base RNG seed.
    pub seed: u64,
    /// Serving scheduler policy for simulator-backed experiments
    /// (`fig5`/`table8`/`ext_scheduler`). The default `Fcfs` reproduces the
    /// pre-engine simulator bit-for-bit.
    pub scheduler: SchedulerConfig,
}

impl RunOptions {
    /// Quick (CI) scale.
    pub fn quick() -> Self {
        RunOptions {
            scale: Scale::Quick,
            seed: 0x5EED,
            scheduler: SchedulerConfig::Fcfs,
        }
    }

    /// Paper scale.
    pub fn paper() -> Self {
        RunOptions {
            scale: Scale::Paper,
            seed: 0x5EED,
            scheduler: SchedulerConfig::Fcfs,
        }
    }

    /// Picks a sample count by scale.
    pub fn pick(&self, quick: usize, paper: usize) -> usize {
        match self.scale {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

/// The output of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id (`fig1`, `table3`, ...).
    pub id: String,
    /// Paper caption this reproduces.
    pub title: String,
    /// Result tables (one per sub-figure/row-group).
    pub tables: Vec<Table>,
    /// Calibration/shape notes.
    pub notes: Vec<String>,
}

impl ToJson for ExperimentResult {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("id", JsonValue::Str(self.id.clone())),
            ("title", JsonValue::Str(self.title.clone())),
            (
                "tables",
                JsonValue::Array(self.tables.iter().map(ToJson::to_json).collect()),
            ),
            ("notes", str_array(&self.notes)),
        ])
    }
}

impl std::fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "# [{}] {}", self.id, self.title)?;
        for t in &self.tables {
            writeln!(f, "{t}")?;
        }
        for n in &self.notes {
            writeln!(f, "note: {n}")?;
        }
        Ok(())
    }
}

/// One registry row: an experiment id and its driver.
type Experiment = (&'static str, fn(&RunOptions) -> ExperimentResult);

/// The experiment registry: every id with its driver, in paper order.
/// [`experiment_ids`] and [`run_by_id`] are the two reads of it.
const EXPERIMENTS: [Experiment; 27] = [
    ("fig1", fig1::run),
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("table3", table3::run),
    ("table4", table4::run),
    ("table5", table5::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("table6", table6::run),
    ("table7", table7::run),
    ("table8", table8::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11_14", fig11_14::run),
    ("appendix_c", appendix_c::run),
    ("appendix_d", appendix_d::run),
    ("ext_quest", ext_quest::run),
    ("ext_task_router", ext_task_router::run),
    ("ext_granularity", ext_granularity::run),
    ("ext_scheduler", ext_scheduler::run),
    ("ext_prefix", ext_prefix::run),
    ("ext_slo", ext_slo::run),
    ("ext_fleet", ext_fleet::run),
    ("table1_2", table1_2::run),
];

/// All experiment ids in paper order.
pub fn experiment_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|&(id, _)| id).collect()
}

/// Runs an experiment by id.
///
/// Returns `None` for an unknown id.
pub fn run_by_id(id: &str, opts: &RunOptions) -> Option<ExperimentResult> {
    let &(_, run) = EXPERIMENTS.iter().find(|(known, _)| *known == id)?;
    Some(run(opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_id_dispatches() {
        // Smoke-run the cheap, cost-model-only experiments end to end.
        let opts = RunOptions::quick();
        for id in ["fig2", "fig3", "table3"] {
            let result = run_by_id(id, &opts).expect("known id");
            assert_eq!(result.id, id);
            assert!(!result.tables.is_empty(), "{id} produced no tables");
        }
        assert!(run_by_id("nope", &opts).is_none());
    }

    #[test]
    fn ids_are_unique() {
        let ids = experiment_ids();
        let set: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
    }
}
