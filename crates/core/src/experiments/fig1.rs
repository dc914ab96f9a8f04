//! Figure 1: throughput analysis of LLaMA-7B on A6000.
//!
//! (a-b) FP16 decode throughput across engines (TRL, TRL+FA, LMD);
//! (c-d) StreamingLLM decode speedup per engine across batch sizes;
//! (e-h) prefill throughput per algorithm across prompt lengths;
//! (i-l) decode throughput per algorithm across KV lengths, including the
//! KIVI out-of-memory point at long KV.

use rkvc_gpu::{decode_memory_bytes, fits_in_memory, DeploymentSpec, EngineKind, LlmSpec};
use rkvc_kvcache::CompressionConfig;

use super::common::{a6000_lmdeploy, fmt_thr, paper_algos};
use super::{ExperimentResult, RunOptions};
use crate::report::Table;

/// Figure 1 sweep axes.
pub(crate) const BATCHES: [usize; 5] = [1, 4, 8, 16, 32];
/// Prompt/KV length axis.
pub(crate) const LENGTHS: [usize; 5] = [512, 1024, 2048, 4096, 8192];

/// Runs the Figure 1 sweeps for a given model spec (re-used by the
/// appendix's Mistral-7B and LLaMA-13B variants).
///
/// The eight panels are cells of a pure analytic cost model — tens of
/// microseconds in all — so they are built inline, in figure order.
pub(crate) fn run_for_model(llm: LlmSpec, id: &str, title: &str) -> ExperimentResult {
    let base = a6000_lmdeploy(llm.clone());
    let algos = paper_algos();

    // (a-d): a row per batch size, a column per engine, at a fixed KV length.
    let by_engine = |title: String, cell: &dyn Fn(&DeploymentSpec, usize) -> String| {
        let mut dep = base.clone();
        let mut t = Table::new(title, &["batch", "TRL", "TRL+FA", "LMD"]);
        for &b in &BATCHES {
            let mut row = vec![b.to_string()];
            for engine in EngineKind::all() {
                dep.engine = engine;
                row.push(cell(&dep, b));
            }
            t.push_row(row);
        }
        t
    };
    let engine_decode = |kv: usize| {
        by_engine(
            format!("{id}(a-b) FP16 decode throughput (tok/s), kv={kv}"),
            &|dep, b| fmt_thr(dep.decode_throughput(&CompressionConfig::Fp16, b, kv)),
        )
    };
    let stream = CompressionConfig::streaming(64, 448);
    let stream_speedup = |kv: usize| {
        by_engine(
            format!("{id}(c-d) StreamingLLM decode speedup vs FP16, kv={kv}"),
            &|dep, b| {
                let s = dep.decode_throughput(&stream, b, kv)
                    / dep.decode_throughput(&CompressionConfig::Fp16, b, kv);
                format!("{s:.2}x")
            },
        )
    };
    // (e-l): a row per prompt/KV length, a column per algorithm, at a fixed
    // batch; (i-l) marks the cells that do not fit in device memory.
    let by_algo =
        |title: String, axis: &str, cell: &dyn Fn(&CompressionConfig, usize) -> String| {
            let headers: Vec<&str> = std::iter::once(axis)
                .chain(algos.iter().map(|(l, _)| l.as_str()))
                .collect();
            let mut t = Table::new(title, &headers);
            for &len in &LENGTHS {
                let mut row = vec![len.to_string()];
                row.extend(algos.iter().map(|(_, cfg)| cell(cfg, len)));
                t.push_row(row);
            }
            t
        };
    let prefill = |batch: usize| {
        by_algo(
            format!("{id}(e-h) prefill throughput (tok/s), batch={batch}"),
            "prompt",
            &|cfg, l| fmt_thr(base.prefill_throughput(cfg, batch, l)),
        )
    };
    let decode_algos = |batch: usize| {
        by_algo(
            format!("{id}(i-l) decode throughput (tok/s), batch={batch}"),
            "kv_len",
            &|cfg, kv| {
                let mem = decode_memory_bytes(&llm, base.engine, cfg, batch, kv, 1, kv);
                if fits_in_memory(&base.gpu, &mem) {
                    fmt_thr(base.decode_throughput(cfg, batch, kv))
                } else {
                    "OOM".to_owned()
                }
            },
        )
    };
    let tables = vec![
        engine_decode(1024),
        engine_decode(4096),
        stream_speedup(1024),
        stream_speedup(4096),
        prefill(1),
        prefill(4),
        decode_algos(8),
        decode_algos(32),
    ];

    ExperimentResult {
        id: id.to_owned(),
        title: title.to_owned(),
        tables,
        notes: vec![
            "Shape targets: TRL < TRL+FA < LMD on decode; StreamingLLM speedup large on TRL, \
             near 1.0 on LMD once batch >= 4 and kv >= 1024; KIVI ~parity and GEAR/H2O below \
             baseline on prefill; sparsity wins decode at heavy KV; quantized caches OOM at \
             long KV x large batch."
                .to_owned(),
        ],
    }
}

/// Runs Figure 1 (LLaMA-7B).
pub fn run(_opts: &RunOptions) -> ExperimentResult {
    run_for_model(
        LlmSpec::llama2_7b(),
        "fig1",
        "Throughput analysis of LLaMA-7B (A6000)",
    )
}
