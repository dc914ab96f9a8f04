//! Figure 4 (and appendix Figure 15): the distribution of the response
//! length difference `D` across compression algorithms and compression
//! ratios. Higher compression flattens the distribution and thickens the
//! long-response tail.

use rkvc_kvcache::CompressionConfig;
use rkvc_model::TinyLm;
use rkvc_workload::{compression_ratio_sweep, sample_conversations, LengthStats, ShareGptConfig};

use super::common::{response_lengths, tiny_llama, tiny_mistral};
use super::{ExperimentResult, RunOptions};
use crate::report::{fmt_pct, Table};

/// Measures the `D` distribution of every sweep configuration against
/// one FP16 baseline: the baseline depends only on the requests and the
/// seed, so it is generated once for the whole sweep, not once per
/// configuration. Returns one [`LengthStats`] per entry of `configs`.
pub(crate) fn measure_sweep<'a>(
    model: &TinyLm,
    configs: impl IntoIterator<Item = &'a CompressionConfig>,
    n: usize,
    seed: u64,
) -> Vec<LengthStats> {
    let requests = sample_conversations(&ShareGptConfig::tiny_scale(n, seed), 64);
    let gen = |cfg: &CompressionConfig, salt: u64| -> Vec<usize> {
        response_lengths(model, &requests, cfg, 1.0, |id| seed ^ salt ^ id)
    };
    let base = gen(&CompressionConfig::Fp16, 0);
    configs
        .into_iter()
        .map(|algo| LengthStats::from_pairs(base.iter().copied().zip(gen(algo, 1))))
        .collect()
}

/// Conversations per sweep configuration: the one count the table and
/// `figures::fig4_svg` both draw, so the figure plots the table's sample.
pub(crate) fn sample_count(opts: &RunOptions) -> usize {
    opts.pick(24, 500)
}

/// Runs the Figure 4 sweep for one model.
pub(crate) fn run_for_model(model: &TinyLm, id: &str, opts: &RunOptions) -> ExperimentResult {
    let n = sample_count(opts);
    let sweep = compression_ratio_sweep();
    let stats = measure_sweep(model, sweep.iter().map(|a| &a.config), n, opts.seed);
    let mut t = Table::new(
        format!("Fig4 D-distribution across compression ratios ({id})"),
        &["config", "mean D", "std D", "% longer (D<0)", "% D<=-50%"],
    );
    let mut hist_table = Table::new(
        format!("Fig4 D histograms, bins over [-2, 1] ({id})"),
        &["config", "histogram counts"],
    );
    for (algo, stats) in sweep.iter().zip(&stats) {
        t.push_row(vec![
            algo.label.clone(),
            format!("{:.3}", stats.mean()),
            format!("{:.3}", stats.std_dev()),
            fmt_pct(stats.frac_le(-1e-9)),
            fmt_pct(stats.frac_le(-0.5)),
        ]);
        let hist = stats.histogram(-2.0, 1.0, 12);
        hist_table.push_row(vec![
            algo.label.clone(),
            hist.iter()
                .map(|(_, c)| c.to_string())
                .collect::<Vec<_>>()
                .join(","),
        ]);
    }

    ExperimentResult {
        id: id.to_owned(),
        title: "Distribution of response-length difference over compression configurations"
            .to_owned(),
        tables: vec![t, hist_table],
        notes: vec![
            "Shape target: within a family, the higher-compression variant (2-bit, smaller \
             budget) has a wider (flatter) D distribution and more lengthened samples."
                .to_owned(),
        ],
    }
}

/// Runs Figure 4 (LLaMA-family TinyLM).
pub fn run(opts: &RunOptions) -> ExperimentResult {
    run_for_model(&tiny_llama(), "fig4", opts)
}

/// Runs appendix Figure 15 (Mistral-family GQA TinyLM).
pub(crate) fn run_mistral(opts: &RunOptions) -> ExperimentResult {
    run_for_model(&tiny_mistral(), "fig15", opts)
}
