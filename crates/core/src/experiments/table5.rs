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

#[cfg(test)]
mod tests {
    use super::*;

    fn pct(cell: &str) -> f64 {
        cell.trim_end_matches('%').parse().unwrap()
    }

    #[test]
    fn compression_skews_toward_longer_responses() {
        let r = run(&RunOptions::quick());
        let t = &r.tables[0];
        // Average over the four compression columns (3..7).
        let mut longer_sum = 0.0;
        let mut shorter_sum = 0.0;
        for c in 3..7 {
            shorter_sum += pct(&t.rows[0][c]);
            longer_sum += pct(&t.rows[1][c]);
        }
        assert!(
            longer_sum > shorter_sum,
            "compression should skew long: shorter {shorter_sum} vs longer {longer_sum}"
        );
        // And a nontrivial fraction of samples shift by >= 50%.
        assert!(longer_sum / 4.0 > 5.0, "longer avg {longer_sum}");
    }

    #[test]
    fn temperature_shifts_are_more_symmetric_than_compression() {
        let r = run(&RunOptions::quick());
        let t = &r.tables[0];
        let temp_asym = (pct(&t.rows[1][1]) - pct(&t.rows[0][1])).abs();
        let mut comp_asym = 0.0;
        for c in 3..7 {
            comp_asym += pct(&t.rows[1][c]) - pct(&t.rows[0][c]);
        }
        comp_asym /= 4.0;
        assert!(
            comp_asym > temp_asym - 15.0,
            "temp asym {temp_asym} vs compression asym {comp_asym}"
        );
    }
}
