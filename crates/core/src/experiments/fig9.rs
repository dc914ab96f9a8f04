//! Appendix Figure 9: LLaMA-7B throughput with SnapKV integrated.

use rkvc_gpu::LlmSpec;
use rkvc_kvcache::CompressionConfig;

use super::common::{a6000_lmdeploy, fmt_thr};
use super::{ExperimentResult, RunOptions};
use crate::report::Table;

/// Runs Figure 9.
pub fn run(_opts: &RunOptions) -> ExperimentResult {
    let dep = a6000_lmdeploy(LlmSpec::llama2_7b());
    let snapkv = CompressionConfig::snapkv(448);
    let fp16 = CompressionConfig::Fp16;

    let mut prefill = Table::new(
        "Fig9 SnapKV prefill throughput (tok/s), batch=1",
        &["prompt", "FP16", "SnapKV-448", "speedup"],
    );
    let mut decode = Table::new(
        "Fig9 SnapKV decode throughput (tok/s), batch=8",
        &["kv_len", "FP16", "SnapKV-448", "speedup"],
    );
    for &len in &[512usize, 1024, 2048, 4096, 8192] {
        let p_base = dep.prefill_throughput(&fp16, 1, len);
        let p_snap = dep.prefill_throughput(&snapkv, 1, len);
        prefill.push_row(vec![
            len.to_string(),
            fmt_thr(p_base),
            fmt_thr(p_snap),
            format!("{:.2}x", p_snap / p_base),
        ]);
        let d_base = dep.decode_throughput(&fp16, 8, len);
        let d_snap = dep.decode_throughput(&snapkv, 8, len);
        decode.push_row(vec![
            len.to_string(),
            fmt_thr(d_base),
            fmt_thr(d_snap),
            format!("{:.2}x", d_snap / d_base),
        ]);
    }

    ExperimentResult {
        id: "fig9".to_owned(),
        title: "LLaMA-7B throughput with SnapKV integrated".to_owned(),
        tables: vec![prefill, decode],
        notes: vec![
            "Shape target: SnapKV pays a prefill-compression overhead but matches \
             sparsity-level decode throughput at long KV."
                .to_owned(),
        ],
    }
}
