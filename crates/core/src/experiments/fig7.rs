//! Figure 7 (and appendix Figure 18): the proportion of negative samples
//! across task types per compression algorithm (the pie charts).

use rkvc_workload::TaskType;

use super::common::tiny_llama;
use super::fig6::score_suite;
use super::{ExperimentResult, RunOptions};
use crate::negative::{collect_negatives, task_breakdown, SampleScores};
use crate::report::{fmt_pct, Table};

/// Builds the task-type breakdown from one scored suite; `id` labels the
/// figure (`fig7`, or `fig18` for the Mistral-family scores).
pub(crate) fn from_scores(scores: &[SampleScores], id: &str) -> ExperimentResult {
    let algos = ["KIVI-2", "GEAR-2", "H2O-64", "Stream-64"];

    let headers: Vec<&str> = std::iter::once("algo")
        .chain(TaskType::all().iter().map(|t| t.label()))
        .collect();
    let mut t = Table::new(
        format!("Fig7 negative-sample share by task type, threshold=10% ({id})"),
        &headers,
    );
    for algo in algos {
        let neg = collect_negatives(scores, &[algo], 0.10);
        let breakdown = task_breakdown(scores, &neg);
        let total: usize = breakdown.values().sum();
        let mut row = vec![algo.to_owned()];
        for task in TaskType::all() {
            let share = if total == 0 {
                0.0
            } else {
                *breakdown.get(&task).unwrap_or(&0) as f64 / total as f64
            };
            row.push(fmt_pct(share));
        }
        t.push_row(row);
    }

    ExperimentResult {
        id: id.to_owned(),
        title: "Proportion of negative samples over task types".to_owned(),
        tables: vec![t],
        notes: vec![
            "Shape target: context-retrieval tasks (QA variants, summarization) dominate the \
             negative share; code completion contributes least (Observation 6)."
                .to_owned(),
        ],
    }
}

/// Runs Figure 7 (LLaMA-family).
pub fn run(opts: &RunOptions) -> ExperimentResult {
    from_scores(&score_suite(&tiny_llama(), opts), "fig7")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one_when_negatives_exist() {
        let r = run(&RunOptions::quick());
        for row in &r.tables[0].rows {
            let sum: f64 = row[1..]
                .iter()
                .map(|c| c.trim_end_matches('%').parse::<f64>().unwrap())
                .sum();
            assert!(
                sum == 0.0 || (sum - 100.0).abs() < 1.0,
                "{row:?} sums to {sum}"
            );
        }
    }

    #[test]
    fn code_contributes_less_than_retrieval_tasks() {
        let r = run(&RunOptions::quick());
        let t = &r.tables[0];
        let code_col = t.headers.iter().position(|h| h == "code").unwrap();
        let mut code_total = 0.0;
        let mut qa_total = 0.0;
        for row in &t.rows {
            code_total += row[code_col].trim_end_matches('%').parse::<f64>().unwrap();
            for qa in ["single-doc-qa", "multi-doc-qa", "synthetic"] {
                let c = t.headers.iter().position(|h| h == qa).unwrap();
                qa_total += row[c].trim_end_matches('%').parse::<f64>().unwrap();
            }
        }
        assert!(
            qa_total > code_total,
            "QA share {qa_total} should exceed code share {code_total}"
        );
    }
}
