//! Table 5 (and appendix Table 9): the ratio of samples whose response
//! length shifts by at least 50%, under temperature changes vs KV-cache
//! compression.
//!
//! The key asymmetry: temperature perturbs lengths in both directions
//! roughly equally, while compression skews toward *longer* responses.

use rkvc_kvcache::CompressionConfig;
use rkvc_model::TinyLm;
use rkvc_workload::{sample_conversations, LengthStats, ShareGptConfig};

use super::common::{response_lengths, tiny_llama, tiny_mistral};
use super::{ExperimentResult, RunOptions};
use crate::report::{fmt_pct, Table};

/// Runs the Table 5 measurement for one model (Table 9 reuses it with the
/// GQA TinyLM).
pub(crate) fn run_for_model(model: &TinyLm, id: &str, opts: &RunOptions) -> ExperimentResult {
    let n = opts.pick(30, 1000);
    let requests = sample_conversations(&ShareGptConfig::tiny_scale(n, opts.seed), 64);

    let gen_lens = |algo: &CompressionConfig, temperature: f32, salt: u64| -> Vec<usize> {
        response_lengths(model, &requests, algo, temperature, |id| {
            opts.seed ^ salt ^ id
        })
    };

    // Baseline: FP16 at temperature 1.0.
    let baseline = gen_lens(&CompressionConfig::Fp16, 1.0, 0);

    let mut variants: Vec<(String, Vec<usize>)> = vec![
        ("T=0.9".to_owned(), gen_lens(&CompressionConfig::Fp16, 0.9, 1)),
        ("T=1.1".to_owned(), gen_lens(&CompressionConfig::Fp16, 1.1, 2)),
    ];
    for algo in rkvc_workload::scaled_paper_suite().into_iter().skip(1) {
        variants.push((algo.label.clone(), gen_lens(&algo.config, 1.0, 3)));
    }

    let headers: Vec<&str> = std::iter::once("Metric")
        .chain(variants.iter().map(|(l, _)| l.as_str()))
        .collect();
    let mut t = Table::new(
        format!("Table 5: samples with >=50% response-length shift ({id})"),
        &headers,
    );
    let mut shorter = vec!["% D >= 50% (shorter)".to_owned()];
    let mut longer = vec!["% D <= -50% (longer)".to_owned()];
    for (_, lens) in &variants {
        let stats = LengthStats::from_pairs(baseline.iter().copied().zip(lens.iter().copied()));
        shorter.push(fmt_pct(stats.frac_ge(0.5)));
        longer.push(fmt_pct(stats.frac_le(-0.5)));
    }
    t.push_row(shorter);
    t.push_row(longer);

    ExperimentResult {
        id: id.to_owned(),
        title: "Response-length variation: temperature vs compression".to_owned(),
        tables: vec![t],
        notes: vec![
            "Shape target: temperature shifts are roughly symmetric; compression skews toward \
             longer responses (the 'longer' row dominates its 'shorter' row)."
                .to_owned(),
        ],
    }
}

/// Runs Table 5 (LLaMA-family TinyLM).
pub fn run(opts: &RunOptions) -> ExperimentResult {
    run_for_model(&tiny_llama(), "table5", opts)
}

/// Runs appendix Table 9 (Mistral-family GQA TinyLM).
pub(crate) fn run_mistral(opts: &RunOptions) -> ExperimentResult {
    run_for_model(&tiny_mistral(), "table9", opts)
}
