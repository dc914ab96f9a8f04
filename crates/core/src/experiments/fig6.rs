//! Figure 6 (and appendix Figure 17): threshold vs number of negative
//! samples, for quantization-based and sparsity-based methods and their
//! combinations.

use rkvc_model::TinyLm;
use rkvc_workload::{generate_suite, LongBenchConfig};

use super::common::tiny_llama;
use super::{ExperimentResult, RunOptions};
use crate::negative::{evaluate_suite, threshold_sweep, SampleScores};
use crate::report::Table;

/// Evaluates the LongBench-like suite under the scaled algorithm set;
/// shared by Figures 6/7 and Tables 7/11.
pub(crate) fn score_suite(model: &TinyLm, opts: &RunOptions) -> Vec<SampleScores> {
    let cfg = LongBenchConfig {
        samples_per_task: opts.pick(4, 25),
        context_len: opts.pick(120, 224),
        seed: opts.seed ^ 0x6e9,
        ..Default::default()
    };
    let suite = generate_suite(&cfg);
    let algos: Vec<(String, rkvc_kvcache::CompressionConfig)> = rkvc_workload::accuracy_suite()
        .into_iter()
        .map(|a| (a.label, a.config))
        .collect();
    evaluate_suite(model, &suite, &algos)
}

/// Builds the threshold sweep from one scored suite; `id` labels the
/// figure (`fig6`, or `fig17` for the Mistral-family scores).
pub(crate) fn from_scores(scores: &[SampleScores], id: &str) -> ExperimentResult {
    let thetas = [0.05, 0.10, 0.20, 0.30, 0.40, 0.50];
    let sets: [(&str, Vec<&str>); 6] = [
        ("KIVI", vec!["KIVI-2"]),
        ("GEAR", vec!["GEAR-2"]),
        ("Quant (C)", vec!["KIVI-2", "GEAR-2"]),
        ("H2O", vec!["H2O-64"]),
        ("Stream", vec!["Stream-64"]),
        ("Sparse (C)", vec!["H2O-64", "Stream-64"]),
    ];

    let headers: Vec<String> = std::iter::once("threshold".to_owned())
        .chain(sets.iter().map(|(l, _)| (*l).to_owned()))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!("Fig6 threshold vs #negative samples ({id})"),
        &headers_ref,
    );
    for &theta in &thetas {
        let mut row = vec![format!("{:.0}%", theta * 100.0)];
        for (_, labels) in &sets {
            let sweep = threshold_sweep(scores, labels, &[theta]);
            row.push(sweep[0].1.to_string());
        }
        t.push_row(row);
    }

    ExperimentResult {
        id: id.to_owned(),
        title: "Negative samples vs threshold (quantization and sparsity)".to_owned(),
        tables: vec![t],
        notes: vec![
            "Shape targets: counts decrease with threshold; combined sets (C) have fewer \
             negatives than single algorithms but never zero at the 10% threshold."
                .to_owned(),
        ],
    }
}

/// Runs Figure 6 (LLaMA-family).
pub fn run(opts: &RunOptions) -> ExperimentResult {
    from_scores(&score_suite(&tiny_llama(), opts), "fig6")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negatives_exist_and_decrease_with_threshold() {
        let r = run(&RunOptions::quick());
        let t = &r.tables[0];
        // Column 4 = H2O counts.
        let counts: Vec<usize> = t.rows.iter().map(|row| row[4].parse().unwrap()).collect();
        assert!(counts[1] > 0, "negatives must exist at 10% (Observation 5)");
        assert!(
            counts.windows(2).all(|w| w[0] >= w[1]),
            "counts must fall with threshold: {counts:?}"
        );
    }

    #[test]
    fn combined_sets_have_fewer_negatives() {
        let r = run(&RunOptions::quick());
        let t = &r.tables[0];
        for row in &t.rows {
            let kivi: usize = row[1].parse().unwrap();
            let gear: usize = row[2].parse().unwrap();
            let combined: usize = row[3].parse().unwrap();
            assert!(combined <= kivi.min(gear), "{row:?}");
            let h2o: usize = row[4].parse().unwrap();
            let stream: usize = row[5].parse().unwrap();
            let sparse_c: usize = row[6].parse().unwrap();
            assert!(sparse_c <= h2o.min(stream), "{row:?}");
        }
    }
}
