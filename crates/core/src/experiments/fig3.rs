//! Figure 3: execution time of the attention layer per algorithm, for the
//! prefill (a) and decoding (b) stages across prompt/KV lengths.

use rkvc_gpu::LlmSpec;

use super::common::{a6000_lmdeploy, fmt_ms, paper_algos};
use super::{ExperimentResult, RunOptions};
use crate::report::Table;

/// Runs Figure 3.
pub fn run(_opts: &RunOptions) -> ExperimentResult {
    let dep = a6000_lmdeploy(LlmSpec::llama2_7b());
    let algos = paper_algos();
    let headers: Vec<&str> = std::iter::once("len")
        .chain(algos.iter().map(|(l, _)| l.as_str()))
        .collect();

    let mut tables = Vec::new();
    for decode in [false, true] {
        let stage = if decode { "decode" } else { "prefill" };
        let mut t = Table::new(
            format!("Fig3 attention-layer execution time (ms), {stage}, batch=1"),
            &headers,
        );
        for &len in &[512usize, 1024, 2048, 4096, 8192] {
            let mut row = vec![len.to_string()];
            for (_, cfg) in &algos {
                row.push(fmt_ms(dep.attention_layer_time(cfg, 1, len, decode)));
            }
            t.push_row(row);
        }
        tables.push(t);
    }

    ExperimentResult {
        id: "fig3".to_owned(),
        title: "Attention-layer execution time across prompt lengths".to_owned(),
        tables,
        notes: vec![
            "Prefill: GEAR and H2O grow fastest (error correction / score materialization). \
             Decode: sparsity-based methods stay flat — they attend over a bounded window."
                .to_owned(),
        ],
    }
}
