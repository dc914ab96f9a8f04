//! Extension experiment: the survey's four sparsity *granularity families*
//! (§3.1.2) compared head to head.
//!
//! §3.1.2 taxonomizes sparsity-based compression by what it removes:
//! **tokens** (H2O), **layers** (PyramidKV — per-layer budgets), **heads**
//! (SnapKV-style clustered selection), and **channels** (ThinK). This
//! experiment runs one representative per family over the synthetic
//! LongBench suite at *approximately matched memory* and reports per-task
//! accuracy plus actual measured memory — making the paper's "finer
//! granularity preserves accuracy at the cost of irregularity" trade
//! concrete.

use rkvc_kvcache::CompressionConfig;
use rkvc_workload::{generate_suite, LongBenchConfig, TaskType};

use super::common::{steady_state_bytes, tiny_llama};
use super::{ExperimentResult, RunOptions};
use crate::negative::evaluate_suite;
use crate::report::Table;

/// One representative per granularity family, budgeted to roughly 64
/// retained-token-equivalents of memory on TinyLM contexts.
pub(crate) fn family_representatives() -> Vec<(&'static str, &'static str, CompressionConfig)> {
    vec![
        ("token", "H2O-64", rkvc_workload::scaled_h2o(64)),
        // Layer family: budgets 96 (layer 0) down to 32 (last layer),
        // mean 64.
        ("layer", "PyramidKV-96-32", pyramid()),
        // Head family: SnapKV's clustered prompt selection.
        ("head", "SnapKV-56", CompressionConfig::SnapKv(rkvc_kvcache::SnapKvParams {
            budget: 56,
            obs_window: 8,
        })),
        // Channel family: keep half the key channels (length-independent).
        ("channel", "ThinK-50", CompressionConfig::think(0.5)),
    ]
}

fn pyramid() -> CompressionConfig {
    CompressionConfig::PyramidKv(rkvc_kvcache::PyramidKvParams {
        first_layer_budget: 96,
        last_layer_budget: 32,
        obs_window: 8,
    })
}

/// Runs the granularity comparison.
pub fn run(opts: &RunOptions) -> ExperimentResult {
    let model = tiny_llama();
    let cfg = LongBenchConfig {
        samples_per_task: opts.pick(4, 20),
        context_len: opts.pick(120, 224),
        seed: opts.seed ^ 0x64a,
        ..Default::default()
    };
    let suite = generate_suite(&cfg);
    let reps = family_representatives();

    let headers: Vec<String> = std::iter::once("Task".to_owned())
        .chain(std::iter::once("FP16".to_owned()))
        .chain(reps.iter().map(|(fam, label, _)| format!("{label} ({fam})")))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut scores_table = Table::new(
        "Extension: accuracy by sparsity granularity family",
        &headers_ref,
    );

    // One scored suite (FP16 baseline + each representative per sample);
    // a row averages its task's samples in suite order.
    let algos: Vec<_> = reps
        .iter()
        .map(|(_, label, cfg)| ((*label).to_owned(), *cfg))
        .collect();
    let scores = evaluate_suite(&model, &suite, &algos);
    for task in TaskType::all() {
        let samples: Vec<_> = scores.iter().filter(|s| s.task == task).collect();
        if samples.is_empty() {
            continue;
        }
        // Column 0 is the FP16 baseline, column `c` representative `c - 1`.
        let cell = |c: usize| {
            let sum = rkvc_tensor::seq_sum_f64(samples.iter().map(|s| match c {
                0 => s.baseline,
                _ => s.by_algo[c - 1].1,
            }));
            format!("{:.1}", sum / samples.len() as f64)
        };
        let mut row = vec![task.label().to_owned()];
        row.extend((0..=reps.len()).map(cell));
        scores_table.push_row(row);
    }

    // Memory at a representative context length (per head; PyramidKV uses
    // its mean-budget fallback in this per-head probe).
    let mut mem_table = Table::new(
        "Extension: measured per-head KV memory at 192 prompt tokens",
        &["Policy", "bytes", "vs FP16"],
    );
    let head_dim = model.config().head_dim();
    let fp16_bytes = steady_state_bytes(head_dim, &CompressionConfig::Fp16, 192);
    let policies = std::iter::once(("FP16", CompressionConfig::Fp16))
        .chain(reps.iter().map(|(_, label, cfg)| (*label, *cfg)));
    for (label, cfg) in policies {
        let bytes = steady_state_bytes(head_dim, &cfg, 192);
        mem_table.push_row(vec![
            label.to_owned(),
            bytes.to_string(),
            format!("{:.0}%", bytes as f64 / fp16_bytes as f64 * 100.0),
        ]);
    }

    ExperimentResult {
        id: "ext_granularity".to_owned(),
        title: "Sparsity granularity families compared (token/layer/head/channel)".to_owned(),
        tables: vec![scores_table, mem_table],
        notes: vec![
            "Shape target (§3.1.2): finer-granularity selection (head/channel) retains more \
             accuracy per byte than coarse token eviction at a similar memory point, with \
             ThinK's reduction independent of sequence length."
                .to_owned(),
        ],
    }
}
