//! Appendices D and G: Mistral-7B negative-sample analysis — Figure 17
//! (threshold sweep), Figure 18 (task breakdown), Table 11 (negative
//! benchmark scores), plus Table 10 (Mistral length-predictor accuracy,
//! Appendix F).

use super::common::tiny_mistral;
use super::{fig6, fig7, table6, table7, ExperimentResult, RunOptions};

/// Runs the Appendix D/F/G bundle on the GQA (Mistral-family) TinyLM.
pub fn run(opts: &RunOptions) -> ExperimentResult {
    // Figures 17/18 and Table 11 are three views of one scored suite.
    let scores = fig6::score_suite(&tiny_mistral(), opts);
    let f17 = fig6::from_scores(&scores, "fig17");
    let f18 = fig7::from_scores(&scores, "fig18");
    let t11 = table7::from_scores(&scores, "table11");
    let t10 = table6::run_mistral(opts);

    let mut tables = Vec::new();
    tables.extend(f17.tables);
    tables.extend(f18.tables);
    tables.extend(t11.tables);
    tables.extend(t10.tables);
    let mut notes =
        vec!["Appendix D/F/G: the Mistral-family results mirror the LLaMA-family ones.".to_owned()];
    for r in [f17.notes, f18.notes, t11.notes, t10.notes] {
        notes.extend(r);
    }

    ExperimentResult {
        id: "appendix_d".to_owned(),
        title: "Mistral-7B negative samples and predictors (Figures 17-18, Tables 10-11)"
            .to_owned(),
        tables,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bundle scores the Mistral suite once; its tables must be exactly
    /// what each experiment builds from that one scored suite.
    #[test]
    fn bundle_tables_equal_the_three_views_of_one_scored_suite() {
        let opts = RunOptions::quick();
        let scores = fig6::score_suite(&tiny_mistral(), &opts);
        let mut expected = Vec::new();
        expected.extend(fig6::from_scores(&scores, "fig17").tables);
        expected.extend(fig7::from_scores(&scores, "fig18").tables);
        expected.extend(table7::from_scores(&scores, "table11").tables);
        let r = run(&opts);
        assert_eq!(r.tables[..expected.len()], expected[..]);
    }
}
