//! Layer probes: each layer's public functions timed from outside, at the
//! shapes the workload produces (`head_dim` 64, `d_model` 208, the
//! workload's context length).
//!
//! Every probe call sits in a span under one `probe` root, with `work` set
//! to what the span covers (flops, elements, calls), and the per-layer
//! table is computed from those spans. Calls too short to time alone are
//! batched inside one span.

use std::hint::black_box;

use rkvc_core::experiments::workloads::cluster_workload;
use rkvc_core::experiments::{ext_fleet, ext_slo, run_by_id, Scale};
use rkvc_core::{LengthDataset, LengthPredictor, ProfileGrid, ThroughputPredictor};
use rkvc_gpu::{DeploymentSpec, EngineKind, GpuSpec, LlmSpec};
use rkvc_kvcache::CompressionConfig;
use rkvc_tensor::json::JsonValue;
use rkvc_tensor::{par, softmax_into, Matrix};
use rkvc_workload::{sample_conversations, ShareGptConfig};

use crate::harness::SplitMix64;
use crate::trace::Tracer;
use crate::workloads::{
    policies, run_options, Covers, Facts, Gen, SimCluster, SimFleet, SimSessions, Workload, ALGOS,
};

/// TinyLM's attention head dimension.
const HEAD_DIM: usize = 64;
/// TinyLM's residual-stream width.
const D_MODEL: usize = 208;
/// Queries per `attend` probe span.
const ATTEND_QUERIES: usize = 64;
/// Conversations in the model probe that stands in for a `gen_short` pass.
const MODEL_PROBE_CONVERSATIONS: usize = 16;

fn matrix(rng: &mut SplitMix64, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, rng.vec_f32(rows * cols))
}

/// `reps` spans of `batch` calls each.
fn timed(
    tr: &mut Tracer,
    name: &'static str,
    arg: &'static str,
    reps: usize,
    batch: usize,
    work_per_call: u64,
    mut call: impl FnMut(),
) {
    for rep in 0..reps {
        tr.calibrate(false);
        let s = tr.begin(name, arg, rep as u64, batch as u64 * work_per_call);
        for _ in 0..batch {
            call();
        }
        tr.end(s);
    }
}

fn tensor(tr: &mut Tracer, rng: &mut SplitMix64, ctx: usize, reps: usize) {
    let flops = |m: usize, k: usize, n: usize| (2 * m * k * n) as u64;
    let weights = matrix(rng, D_MODEL, D_MODEL);
    let stripe = matrix(rng, ctx, D_MODEL);
    let row = matrix(rng, 1, D_MODEL);
    let lm_head = matrix(rng, HEAD_DIM, D_MODEL);
    timed(
        tr,
        "tensor.matmul",
        "prefill",
        reps,
        1,
        flops(ctx, D_MODEL, D_MODEL),
        || {
            black_box(black_box(&stripe).matmul(&weights));
        },
    );
    timed(
        tr,
        "tensor.matmul",
        "decode",
        reps,
        256,
        flops(1, D_MODEL, D_MODEL),
        || {
            black_box(black_box(&row).matmul(&weights));
        },
    );
    timed(
        tr,
        "tensor.matmul_t",
        "logits",
        reps,
        256,
        flops(1, D_MODEL, HEAD_DIM),
        || {
            black_box(black_box(&row).matmul_transposed(&lm_head));
        },
    );

    let logits = rng.vec_f32(ctx);
    let mut out = Vec::with_capacity(ctx);
    timed(tr, "tensor.softmax", "", reps, 256, ctx as u64, || {
        softmax_into(black_box(&logits), &mut out);
    });
    timed(
        tr,
        "tensor.pool_dispatch",
        "",
        reps,
        1024,
        1,
        par::pool_handoff_probe,
    );

    // One saved result, there and back: what `report::save_json` and the
    // determinism tests pay per experiment.
    let result =
        run_by_id("fig2", &run_options(Scale::Quick, 0)).expect("fig2 is a known experiment");
    let text = rkvc_tensor::json::to_string_pretty(&result);
    timed(tr, "tensor.json", "", reps, 4, text.len() as u64, || {
        let parsed = JsonValue::parse(black_box(&text)).expect("own output parses");
        black_box(parsed.to_pretty_string());
    });
}

fn kvcache(tr: &mut Tracer, rng: &mut SplitMix64, ctx: usize, reps: usize, facts: &mut Facts) {
    let keys = rng.vec_f32(ctx * HEAD_DIM);
    let values = rng.vec_f32(ctx * HEAD_DIM);
    let queries = rng.vec_f32(ATTEND_QUERIES * HEAD_DIM);
    let scale = 1.0 / (HEAD_DIM as f32).sqrt();
    let (mut scores, mut weights) = (Vec::new(), Vec::new());
    for (algo, policy) in ALGOS.into_iter().zip(policies()) {
        timed(tr, "kvcache.build", algo, reps, 16, 1, || {
            black_box(policy.build(HEAD_DIM));
        });
        for rep in 0..reps {
            let id = rep as u64;
            tr.calibrate(false);
            let mut cache = policy.build(HEAD_DIM);
            let s = tr.begin("kvcache.append", algo, id, ctx as u64);
            for (pos, (k, v)) in keys
                .chunks(HEAD_DIM)
                .zip(values.chunks(HEAD_DIM))
                .enumerate()
            {
                cache.append(k, v, pos);
            }
            tr.end(s);
            let s = tr.begin("kvcache.finish_prefill", algo, id, 1);
            cache.finish_prefill();
            tr.end(s);
            let mut out = [0.0f32; HEAD_DIM];
            let s = tr.begin("kvcache.attend", algo, id, ATTEND_QUERIES as u64);
            for q in queries.chunks(HEAD_DIM) {
                cache.attend(q, scale, &mut scores, &mut weights, &mut out);
            }
            tr.end(s);
            black_box(out);
            let stats = cache.stats();
            assert_eq!(stats.tokens_seen, ctx, "cache saw every appended token");
            facts.insert(
                format!("kvcache.retained_share.{algo}"),
                stats.tokens_retained as f64 / stats.tokens_seen as f64,
            );
        }
    }
}

fn deployment() -> DeploymentSpec {
    DeploymentSpec {
        gpu: GpuSpec::a6000(),
        llm: LlmSpec::llama2_7b(),
        engine: EngineKind::LmDeploy,
        tensor_parallel: 1,
    }
}

fn gpu(tr: &mut Tracer, reps: usize) {
    let dep = deployment();
    let algo = CompressionConfig::h2o(64, 448);
    let mut i = 0usize;
    timed(tr, "gpu.decode_step", "", reps, 1024, 1, || {
        i += 1;
        black_box(dep.decode_step(&algo, 1 + i % 16, 128 + i % 2048));
    });
    timed(tr, "gpu.prefill", "", reps, 1024, 1, || {
        i += 1;
        black_box(dep.prefill(&algo, 1, 16 + i % 3500));
    });
}

fn generators(tr: &mut Tracer, seed: u64, reps: usize) {
    let paper = run_options(Scale::Paper, seed);
    timed(tr, "workload.sample_conversations", "", reps, 1, 1, || {
        black_box(sample_conversations(
            &ShareGptConfig::paper_scale(1000, seed),
            64,
        ));
    });
    timed(tr, "workload.sample_sessions", "", reps, 1, 1, || {
        black_box(ext_slo::session_trace(&paper));
    });
    let (_, uniform) = ext_fleet::load_patterns().swap_remove(0);
    timed(tr, "workload.sample_fleet", "", reps, 1, 1, || {
        black_box(ext_fleet::fleet_workload(&paper, uniform));
    });
}

fn predictors(tr: &mut Tracer, seed: u64, reps: usize) {
    let dep = deployment();
    let algo = CompressionConfig::h2o(64, 448);
    let mut fitted = None;
    timed(tr, "core.throughput_fit", "", reps, 1, 1, || {
        fitted = Some(ThroughputPredictor::fit(
            &dep,
            &algo,
            ProfileGrid::standard(),
            0.05,
            seed,
        ));
    });
    let throughput = fitted.expect("reps >= 1");
    let mut i = 0usize;
    timed(tr, "core.throughput_predict", "", reps, 1024, 1, || {
        i += 1;
        black_box(throughput.predict_decode_step(1 + i % 16, 128 + i % 2048));
    });

    let conversations = sample_conversations(&ShareGptConfig::paper_scale(1000, seed), 64);
    let mut data = LengthDataset::new();
    for c in &conversations {
        data.push(&c.prompt, c.reference_response_len.max(1));
    }
    let mut fitted = None;
    timed(tr, "core.length_fit", "", reps, 1, 1, || {
        fitted = Some(LengthPredictor::fit(&data));
    });
    let length = fitted.expect("reps >= 1");
    timed(
        tr,
        "core.length_predict",
        "",
        reps,
        conversations.len(),
        1,
        || {
            i += 1;
            black_box(length.predict(&conversations[i % conversations.len()].prompt));
        },
    );
}

/// Runs `passes` passes of a sibling workload and keeps its facts.
fn sibling(tr: &mut Tracer, mut w: impl Workload, passes: usize, facts: &mut Facts) {
    for _ in 0..passes {
        for unit in 0..w.units().len() {
            tr.calibrate(false);
            w.run_unit(unit, tr);
        }
    }
    facts.extend(w.facts());
}

/// Runs every probe the workload's own passes do not cover and returns the
/// exact values read along the way. `reps` is the number of spans per
/// timing; medians are taken over them.
pub fn run(tr: &mut Tracer, seed: u64, ctx: usize, covers: Option<Covers>, reps: usize) -> Facts {
    let mut facts = Facts::new();
    let mut rng = SplitMix64(seed);
    let root = tr.begin("probe", "", 0, 1);
    tensor(tr, &mut rng, ctx, reps);
    kvcache(tr, &mut rng, ctx, reps, &mut facts);
    gpu(tr, reps);
    generators(tr, seed, reps);
    predictors(tr, seed, reps);
    tr.calibrate(false);
    let s = tr.begin("core.cluster_workload", "", 0, 1);
    let cluster = cluster_workload(&run_options(Scale::Paper, seed));
    tr.end(s);
    if covers != Some(Covers::Model) {
        sibling(
            tr,
            Gen::short(seed, MODEL_PROBE_CONVERSATIONS),
            1,
            &mut facts,
        );
    }
    if covers != Some(Covers::Cluster) {
        sibling(tr, SimCluster::from_workload(cluster), reps, &mut facts);
    }
    if covers != Some(Covers::Sessions) {
        sibling(tr, SimSessions::new(seed), reps.min(2), &mut facts);
    }
    if covers != Some(Covers::Fleet) {
        sibling(tr, SimFleet::new(seed), 1, &mut facts);
    }
    tr.calibrate(true);
    tr.end(root);
    facts
}
