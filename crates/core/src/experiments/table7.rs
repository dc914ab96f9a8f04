//! Table 7 (and appendix Table 11): scores on the mined negative-sample
//! benchmark, grouped into Summarization / Question Answering / Code.

use super::common::tiny_llama;
use super::fig6::score_suite;
use super::{ExperimentResult, RunOptions};
use crate::negative::{collect_negatives, negative_benchmark_scores, SampleScores};
use crate::report::Table;

/// Builds the negative-benchmark table from one scored suite; `id` labels
/// the table (`table7`, or `table11` for the Mistral-family scores).
pub(crate) fn from_scores(scores: &[SampleScores], id: &str) -> ExperimentResult {
    // The benchmark is mined at the 10% threshold over the union of
    // single-algorithm negatives (a sample that any algorithm degrades is
    // worth studying).
    let mut ids = Vec::new();
    for algo in ["KIVI-2", "GEAR-2", "H2O-64", "Stream-64"] {
        ids.extend(collect_negatives(scores, &[algo], 0.10));
    }
    ids.sort_unstable();
    ids.dedup();

    let grouped = negative_benchmark_scores(scores, &ids);
    let mut t = Table::new(
        format!("Table 7: scores on the negative benchmark ({id})"),
        &["Task Type", "Baseline", "KIVI-2", "GEAR-2", "H2O-64", "Stream-64"],
    );
    for group in ["Summarization", "Question Answering", "Code"] {
        if let Some(rows) = grouped.get(group) {
            let mut row = vec![group.to_owned()];
            for (_, score) in rows {
                row.push(format!("{score:.1}"));
            }
            t.push_row(row);
        }
    }

    ExperimentResult {
        id: id.to_owned(),
        title: "Measured scores on the negative-sample benchmark".to_owned(),
        tables: vec![t],
        notes: vec![
            format!("Benchmark size: {} samples mined at the 10% threshold.", ids.len()),
            "Shape target: baseline scores high everywhere; every compression algorithm drops \
             sharply, with code retaining the most."
                .to_owned(),
        ],
    }
}

/// Runs Table 7 (LLaMA-family).
pub fn run(opts: &RunOptions) -> ExperimentResult {
    from_scores(&score_suite(&tiny_llama(), opts), "table7")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_beats_the_algorithm_average_on_the_benchmark() {
        // The benchmark is a union of per-algorithm negatives, so a single
        // algorithm may still ace a sample another algorithm failed; the
        // *average* across algorithms must sit below the baseline in every
        // group (Table 7's shape).
        let r = run(&RunOptions::quick());
        let t = &r.tables[0];
        assert!(!t.rows.is_empty(), "benchmark must not be empty");
        let mut any_strict_drop = false;
        for row in &t.rows {
            let baseline: f64 = row[1].parse().unwrap();
            let algo_scores: Vec<f64> = row[2..].iter().map(|c| c.parse().unwrap()).collect();
            let mean = algo_scores.iter().sum::<f64>() / algo_scores.len() as f64;
            assert!(
                mean < baseline,
                "{}: algorithm mean {mean} should be below baseline {baseline}",
                row[0]
            );
            if algo_scores.iter().any(|&s| s < baseline * 0.7) {
                any_strict_drop = true;
            }
        }
        assert!(any_strict_drop, "at least one sharp drop expected");
    }
}
