//! Table 6 (and appendix Table 10): prediction accuracy of the two tools —
//! the throughput predictor and the length predictor — per compression
//! algorithm.

use rkvc_gpu::LlmSpec;
use rkvc_model::TinyLm;
use rkvc_workload::{sample_conversations, ShareGptConfig};

use super::common::{a6000_lmdeploy, response_lengths, tiny_llama, tiny_mistral};
use super::{ExperimentResult, RunOptions};
use crate::report::{fmt_pct, Table};
use crate::{LengthDataset, LengthPredictor, ProfileGrid, ThroughputPredictor};

/// Builds a length dataset for one algorithm: TinyLM prompts and the
/// measured response lengths under that algorithm.
fn length_dataset(
    model: &TinyLm,
    algo: &rkvc_kvcache::CompressionConfig,
    n: usize,
    seed: u64,
) -> LengthDataset {
    let requests = sample_conversations(&ShareGptConfig::tiny_scale(n, seed), 64);
    let lengths = response_lengths(model, &requests, algo, 1.0, |id| seed ^ id);
    let mut data = LengthDataset::new();
    for (r, len) in requests.iter().zip(lengths) {
        data.push(&r.prompt, len);
    }
    data
}

/// The length-predictor row for one model, one accuracy per algorithm of
/// the scaled suite (Table 10 reuses it).
fn length_row(model: &TinyLm, opts: &RunOptions) -> Vec<String> {
    // Quick scale needs ~120 conversations (30 test points): with fewer,
    // the measured accuracy swings tens of points across RNG streams and
    // the calibration-band test below becomes a coin flip.
    let n = opts.pick(120, 400);
    let accuracies = rkvc_workload::scaled_paper_suite().into_iter().map(|algo| {
        let data = length_dataset(model, &algo.config, n, opts.seed ^ 0x7ab);
        let (train, test) = data.split(0.75);
        fmt_pct(LengthPredictor::fit(&train).accuracy(&test))
    });
    std::iter::once("Length Predictor".to_owned())
        .chain(accuracies)
        .collect()
}

/// Runs Table 6.
pub fn run(opts: &RunOptions) -> ExperimentResult {
    let model = tiny_llama();
    let dep = a6000_lmdeploy(LlmSpec::llama2_7b());

    let labels = ["FP16", "KIVI", "GEAR", "H2O", "Stream"];
    let headers: Vec<&str> = std::iter::once("Tool").chain(labels).collect();
    let mut t = Table::new("Table 6: prediction accuracy of the proposed tools", &headers);

    // Throughput predictor: profile with measurement jitter, evaluate
    // against independently jittered ground truth.
    let mut thr_row = vec!["Throughput Predictor".to_owned()];
    for (i, (_, cfg)) in super::common::paper_algos().iter().enumerate() {
        let p = ThroughputPredictor::fit(&dep, cfg, ProfileGrid::standard(), 0.05, opts.seed + i as u64);
        thr_row.push(fmt_pct(p.accuracy_with_noise(0.05, opts.seed + 100 + i as u64)));
    }
    t.push_row(thr_row);

    t.push_row(length_row(&model, opts));

    ExperimentResult {
        id: "table6".to_owned(),
        title: "Prediction accuracy of the throughput and length predictors".to_owned(),
        tables: vec![t],
        notes: vec![
            "Paper targets: throughput predictor 85.8-88.5%, length predictor 87.8-95.7%."
                .to_owned(),
        ],
    }
}

/// Runs appendix Table 10 (Mistral-family length predictor).
pub(crate) fn run_mistral(opts: &RunOptions) -> ExperimentResult {
    let model = tiny_mistral();
    let mut t = Table::new(
        "Table 10: length-predictor accuracy (Mistral-family)",
        &["Tool", "FP16", "KIVI", "GEAR", "H2O", "Stream"],
    );
    t.push_row(length_row(&model, opts));
    ExperimentResult {
        id: "table10".to_owned(),
        title: "Length-predictor accuracy for Mistral".to_owned(),
        tables: vec![t],
        notes: vec!["Paper targets: 88.8-92.8%.".to_owned()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictors_land_in_their_calibration_bands() {
        let r = run(&RunOptions::quick());
        let t = &r.tables[0];
        let pct = |row: usize, col: usize| -> f64 {
            t.rows[row][col].trim_end_matches('%').parse().unwrap()
        };
        // Throughput predictor >= 85% for every algorithm (paper band).
        for col in 1..t.headers.len() {
            assert!(pct(0, col) >= 85.0, "throughput {}: {}", t.headers[col], pct(0, col));
        }
        // Length predictor: >= 80% where compression barely perturbs
        // lengths (FP16/KIVI/GEAR); >= 55% for the eviction policies, whose
        // broken retrievals wander with genuinely high entropy in TinyLM
        // (documented divergence from the paper's 87-90%).
        for col in 1..=3 {
            assert!(pct(1, col) >= 80.0, "length {}: {}", t.headers[col], pct(1, col));
        }
        for col in 4..=5 {
            assert!(pct(1, col) >= 55.0, "length {}: {}", t.headers[col], pct(1, col));
        }
    }
}
