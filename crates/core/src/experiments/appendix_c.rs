//! Appendix C: Mistral-7B length analysis — Table 9 (length-shift ratios),
//! Figure 15 (D distributions), and Figure 16 (E2E latency CDF).

use super::{fig4, fig5, table5, ExperimentResult, RunOptions};

/// Runs the full Appendix C bundle on the GQA (Mistral-family) TinyLM.
pub fn run(opts: &RunOptions) -> ExperimentResult {
    let t9 = table5::run_mistral(opts);
    let f15 = fig4::run_mistral(opts);
    let f16 = fig5::run_mistral(opts);

    let mut tables = Vec::new();
    tables.extend(t9.tables);
    tables.extend(f15.tables);
    tables.extend(f16.tables);
    let mut notes = vec![
        "Appendix C reproduces the length analysis on the Mistral-family (GQA) TinyLM; the \
         LLaMA-family conclusions carry over."
            .to_owned(),
    ];
    notes.extend(t9.notes);
    notes.extend(f15.notes);
    notes.extend(f16.notes);

    ExperimentResult {
        id: "appendix_c".to_owned(),
        title: "Mistral-7B length analysis (Table 9, Figures 15-16)".to_owned(),
        tables,
        notes,
    }
}
