//! Extension experiment: Quest's query-aware sparsity vs eviction policies
//! (§4.4's closing remark: *"a recent work, Quest, proposes a query-aware
//! approach to address this drawback"*).
//!
//! Same attended-token budget for every sparsity policy; Quest selects its
//! budget per query instead of discarding ahead of time, so the fragile
//! task types (QA, summarization) recover.

use rkvc_kvcache::CompressionConfig;
use rkvc_model::TinyLm;
use rkvc_workload::{generate_suite, LongBenchConfig, TaskType};

use super::common::tiny_llama;
use super::{ExperimentResult, RunOptions};
use crate::negative::{collect_negatives, evaluate_suite};
use crate::report::Table;

/// The compared policies, all at a 64-token attended budget.
pub(crate) fn budget_matched_policies() -> Vec<(String, CompressionConfig)> {
    vec![
        ("H2O-64".to_owned(), rkvc_workload::scaled_h2o(64)),
        ("Stream-64".to_owned(), rkvc_workload::scaled_streaming(64)),
        ("TOVA-64".to_owned(), CompressionConfig::tova(64)),
        ("Quest-64".to_owned(), CompressionConfig::quest(8, 8)),
    ]
}

/// Runs the Quest extension comparison.
pub fn run(opts: &RunOptions) -> ExperimentResult {
    let model: TinyLm = tiny_llama();
    let cfg = LongBenchConfig {
        samples_per_task: opts.pick(4, 25),
        context_len: opts.pick(120, 224),
        seed: opts.seed ^ 0x9e57,
        ..Default::default()
    };
    let suite = generate_suite(&cfg);
    let algos = budget_matched_policies();
    let scores = evaluate_suite(&model, &suite, &algos);

    // Per-task mean score per policy.
    let mut t = Table::new(
        "Extension: task scores at a matched 64-token attention budget",
        &["Task", "FP16", "H2O-64", "Stream-64", "TOVA-64", "Quest-64"],
    );
    for task in TaskType::all() {
        let rows: Vec<_> = scores.iter().filter(|s| s.task == task).collect();
        if rows.is_empty() {
            continue;
        }
        let n = rows.len() as f64;
        let mut row = vec![
            task.label().to_owned(),
            format!("{:.1}", rkvc_tensor::seq_sum_f64(rows.iter().map(|s| s.baseline)) / n),
        ];
        for i in 0..algos.len() {
            row.push(format!(
                "{:.1}",
                rkvc_tensor::seq_sum_f64(rows.iter().map(|s| s.by_algo[i].1)) / n
            ));
        }
        t.push_row(row);
    }

    // Negative-sample counts at the 10% threshold.
    let mut neg = Table::new(
        "Extension: negative samples at the 10% threshold",
        &["Policy", "#negatives", "memory vs FP16"],
    );
    for (label, cfg) in &algos {
        let count = collect_negatives(&scores, &[label], 0.10).len();
        let memory = match cfg {
            CompressionConfig::Quest(p) => format!("{:+.0}%", 200.0 / p.page_size as f64),
            _ => "bounded at budget".to_owned(),
        };
        neg.push_row(vec![label.clone(), count.to_string(), memory]);
    }

    ExperimentResult {
        id: "ext_quest".to_owned(),
        title: "Query-aware sparsity (Quest) vs eviction at a matched budget".to_owned(),
        tables: vec![t, neg],
        notes: vec![
            "Shape target: Quest approaches the FP16 score on every task type and mines far \
             fewer negatives than eviction policies — at the cost of keeping the full cache \
             in memory (it saves attention traffic, not capacity)."
                .to_owned(),
        ],
    }
}
