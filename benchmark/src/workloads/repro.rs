//! `repro_quick`: the user-visible pipeline, every experiment at quick scale.
//!
//! The only workload that runs the experiments' own sample loops, so cost
//! that never reaches the layers the other workloads time — per-sample
//! cache construction, loops that stay off the pool — shows here.

use std::path::Path;

use rkvc_core::experiments::{experiment_ids, run_by_id, RunOptions, Scale};
use rkvc_core::figures::render_all;
use rkvc_core::report::save_json;

use super::{run_options, Facts, UnitResult, Workload};
use crate::digest::Fnv1a;
use crate::trace::Tracer;

/// Where experiment JSON is saved, relative to the repo root.
const OUT_DIR: &str = "benchmark/out/repro";

/// Experiments that finish in well under a tenth of a second each (cost
/// model and small simulator runs): what `--check` can afford.
const CHEAP: [&str; 12] = [
    "fig1",
    "fig2",
    "fig3",
    "table3",
    "fig8",
    "fig9",
    "fig10",
    "fig11_14",
    "ext_scheduler",
    "ext_prefix",
    "ext_slo",
    "table1_2",
];

/// All experiments at `Scale::Quick`, each saved as JSON.
pub struct ReproQuick {
    opts: RunOptions,
    ids: Vec<&'static str>,
}

impl ReproQuick {
    /// Set-up is the first stage of `repro --exp all`: rendering the figure
    /// set. The experiments themselves are the timed pass.
    pub fn new(seed: u64) -> Self {
        let opts = run_options(Scale::Quick, seed);
        let figures = render_all(&opts);
        assert!(!figures.is_empty(), "render_all produced no figures");
        ReproQuick {
            opts,
            ids: experiment_ids(),
        }
    }
}

impl Workload for ReproQuick {
    fn units(&self) -> Vec<String> {
        self.ids.iter().map(|id| (*id).to_owned()).collect()
    }

    fn run_unit(&mut self, unit: usize, tr: &mut Tracer) -> UnitResult {
        let id = self.ids[unit];
        let s = tr.begin("experiments.run", id, unit as u64, 1);
        let result = run_by_id(id, &self.opts).expect("experiment_ids lists only known ids");
        save_json(OUT_DIR, id, &result).expect("experiment JSON must be writable");
        tr.end(s);
        assert_eq!(result.id, id, "experiment reports its own id");
        let saved = std::fs::read(Path::new(OUT_DIR).join(format!("{id}.json")))
            .expect("saved experiment JSON must be readable");
        let mut d = Fnv1a::default();
        d.bytes(&saved);
        UnitResult {
            ops: 1,
            work: 1,
            digest: d.finish(),
        }
    }

    fn check_units(&self) -> Vec<usize> {
        (0..self.ids.len())
            .filter(|&u| CHEAP.contains(&self.ids[u]))
            .collect()
    }

    fn facts(&self) -> Facts {
        Facts::new()
    }
}
