//! `KvCache::extend_attend` vs the seed's per-token sequence, bit for
//! bit, for every `CompressionConfig` variant.
//!
//! Three routes consume the same token stream and must agree on every
//! output bit and on every observable piece of cache state:
//!
//! * **naive** — `append`, then per query the loops the model used to
//!   run inline: a materialized `view_for_query`, one sequential dot per
//!   row, softmax, `observe_attention`, row-by-row weighted sum. It uses
//!   none of the shared kernels, so it pins the zero-copy default
//!   `attend` and the fused overrides as well as the blocked path.
//! * **per-token** — `append` + `attend`, the default `extend_attend`.
//! * **batched** — one `extend_attend` call per turn (query-blocked for
//!   FP16/KIVI/GEAR, and for StreamingLLM while its window fills).
//!
//! A fourth run repeats the batched route with `AttendBatch::read_from`
//! past the first token and must differ from it only in the output
//! stripes it was told nobody reads.

use rkvc_kvcache::{
    AttendBatch, AttendScratch, CacheStats, CompressionConfig, DenseCache, GearParams, H2OParams,
    KiviParams, KvCache, PyramidKvParams, QuestParams, Retention, SnapKvParams, StreamingParams,
    ThinkParams, TovaParams,
};
use rkvc_tensor::{par, softmax_into, SeededRng};

/// Head dims on both sides of the 8-lane, 4-row and 32-channel blockings.
const HEAD_DIMS: [usize; 8] = [1, 3, 5, 12, 31, 33, 40, 64];

/// One small-parameter instance of every `CompressionConfig` variant
/// (so flushes, evictions and page selection all trigger within a few
/// dozen tokens), with the block length its blocked path would use.
fn every_variant(rng: &mut SeededRng) -> Vec<(CompressionConfig, usize)> {
    let bits = [1u8, 2, 4, 8][rng.gen_range(0usize..4)];
    let group_size = rng.gen_range(1usize..8);
    let buffer = rng.gen_range(1usize..8);
    vec![
        (CompressionConfig::Fp16, 16),
        (
            CompressionConfig::Kivi(KiviParams {
                bits,
                group_size,
                residual: rng.gen_range(0usize..9),
            }),
            group_size,
        ),
        (
            CompressionConfig::Gear(GearParams {
                bits,
                outlier_ratio: [0.0f32, 0.02, 0.1][rng.gen_range(0usize..3)],
                rank_ratio: [0.02f32, 0.25, 1.0][rng.gen_range(0usize..3)],
                buffer,
            }),
            buffer,
        ),
        (CompressionConfig::H2O(H2OParams { heavy: 2, recent: 5 }), 1),
        (CompressionConfig::Streaming(StreamingParams { sinks: 2, recent: 6 }), 8),
        (
            CompressionConfig::SnapKv(SnapKvParams { budget: 4, obs_window: 3 }),
            1,
        ),
        (CompressionConfig::Tova(TovaParams { budget: 6 }), 1),
        (CompressionConfig::Think(ThinkParams { keep_ratio: 0.5 }), 1),
        (
            CompressionConfig::PyramidKv(PyramidKvParams {
                first_layer_budget: 6,
                last_layer_budget: 2,
                obs_window: 3,
            }),
            1,
        ),
        (CompressionConfig::Quest(QuestParams { page_size: 4, top_k_pages: 2 }), 1),
    ]
}

/// Values that exercise the signed-zero and zero-skip cases: exact
/// `0.0`, `-0.0` and whole zero rows next to ordinary values, at an
/// amplitude large enough (when `sharp`) that most softmax weights
/// underflow to exactly `0.0`.
fn tricky_rows(rng: &mut SeededRng, rows: usize, width: usize, sharp: bool) -> Vec<f32> {
    let amp = if sharp { 40.0f32 } else { 1.0 };
    let mut out = Vec::with_capacity(rows * width);
    for _ in 0..rows {
        let zero_row = rng.gen_bool(0.1);
        for _ in 0..width {
            let v = match rng.gen_range(0usize..10) {
                _ if zero_row => 0.0,
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0f32..1.0) * amp,
            };
            out.push(v);
        }
    }
    out
}

/// One turn of a conversation: `n` tokens with their K/V rows and query
/// groups, laid out with strides wider than the rows (as the model's
/// projection buffers are).
struct Turn {
    hd: usize,
    group: usize,
    n: usize,
    pos0: usize,
    scale: f32,
    kv_stride: usize,
    q_stride: usize,
    keys: Vec<f32>,
    values: Vec<f32>,
    queries: Vec<f32>,
}

impl Turn {
    fn new(rng: &mut SeededRng, hd: usize, group: usize, n: usize, pos0: usize, sharp: bool) -> Self {
        let kv_stride = hd + rng.gen_range(0usize..5);
        let q_stride = group * hd + rng.gen_range(0usize..5);
        Turn {
            hd,
            group,
            n,
            pos0,
            scale: 1.0 / (hd as f32).sqrt(),
            kv_stride,
            q_stride,
            keys: tricky_rows(rng, n, kv_stride, sharp),
            values: tricky_rows(rng, n, kv_stride, false),
            queries: tricky_rows(rng, n, q_stride, sharp),
        }
    }

    fn batch(&self, read_from: usize) -> AttendBatch<'_> {
        AttendBatch {
            head_dim: self.hd,
            n_tokens: self.n,
            pos0: self.pos0,
            scale: self.scale,
            group: self.group,
            keys: &self.keys,
            values: &self.values,
            kv_stride: self.kv_stride,
            queries: &self.queries,
            q_stride: self.q_stride,
            read_from,
        }
    }

    fn key(&self, t: usize) -> &[f32] {
        &self.keys[t * self.kv_stride..][..self.hd]
    }

    fn value(&self, t: usize) -> &[f32] {
        &self.values[t * self.kv_stride..][..self.hd]
    }

    fn query(&self, t: usize, g: usize) -> &[f32] {
        &self.queries[t * self.q_stride + g * self.hd..][..self.hd]
    }

    fn zeroed_out(&self) -> Vec<f32> {
        vec![0.0; self.n * self.group * self.hd]
    }

    /// The seed's inline sequence, using no kernel of the crate.
    fn run_naive(&self, cache: &mut dyn KvCache) -> Vec<f32> {
        let mut out = self.zeroed_out();
        let mut weights = Vec::new();
        for t in 0..self.n {
            cache.append(self.key(t), self.value(t), self.pos0 + t);
            for g in 0..self.group {
                let q = self.query(t, g);
                let view = cache.view_for_query(q);
                let scores: Vec<f32> = (0..view.len())
                    .map(|r| {
                        let dot: f32 = view.keys.row(r).iter().zip(q).map(|(a, b)| a * b).sum();
                        dot * self.scale
                    })
                    .collect();
                softmax_into(&scores, &mut weights);
                cache.observe_attention(&weights);
                let o = &mut out[(t * self.group + g) * self.hd..][..self.hd];
                for (r, &w) in weights.iter().enumerate() {
                    for (o, v) in o.iter_mut().zip(view.values.row(r)) {
                        *o += w * v;
                    }
                }
            }
        }
        out
    }

    /// `append` + `attend` per token — the default `extend_attend`.
    fn run_per_token(&self, cache: &mut dyn KvCache) -> Vec<f32> {
        let mut out = self.zeroed_out();
        let (mut scores, mut weights) = (Vec::new(), Vec::new());
        for t in 0..self.n {
            cache.append(self.key(t), self.value(t), self.pos0 + t);
            for g in 0..self.group {
                let o = &mut out[(t * self.group + g) * self.hd..][..self.hd];
                cache.attend(self.query(t, g), self.scale, &mut scores, &mut weights, o);
            }
        }
        out
    }

    /// One `extend_attend` call whose caller reads tokens `read_from..`.
    fn run_batched(
        &self,
        cache: &mut dyn KvCache,
        scratch: &mut AttendScratch,
        read_from: usize,
    ) -> Vec<f32> {
        let mut out = self.zeroed_out();
        cache.extend_attend(&self.batch(read_from), scratch, &mut out);
        out
    }
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} diverged ({x} vs {y})");
    }
}

/// Everything observable about a cache: statistics, retained positions
/// and the retained rows themselves.
fn assert_same_state(a: &dyn KvCache, b: &dyn KvCache, what: &str) {
    let (sa, sb): (CacheStats, CacheStats) = (a.stats(), b.stats());
    assert_eq!(sa, sb, "{what}: stats");
    assert_eq!(sa.mean_quant_error.to_bits(), sb.mean_quant_error.to_bits(), "{what}: quant error");
    let (va, vb) = (a.view(), b.view());
    assert_eq!(va.positions, vb.positions, "{what}: positions");
    assert_bits_eq(va.keys.as_slice(), vb.keys.as_slice(), &format!("{what}: keys"));
    assert_bits_eq(va.values.as_slice(), vb.values.as_slice(), &format!("{what}: values"));
}

/// Runs `turns` through the three routes on fresh caches of `cfg`,
/// calling `finish_prefill` after each turn (a second prefill on the
/// same session, as multi-turn serving does).
fn check_routes(cfg: &CompressionConfig, hd: usize, turns: &[Turn]) {
    let mut naive = cfg.build(hd);
    let mut per_token = cfg.build(hd);
    let mut batched = cfg.build(hd);
    let mut scratch = AttendScratch::default();
    for (i, turn) in turns.iter().enumerate() {
        let what = format!("{cfg} hd={hd} group={} turn {i} n={}", turn.group, turn.n);
        let want = turn.run_naive(naive.as_mut());
        let got_tok = turn.run_per_token(per_token.as_mut());
        let got_batch = turn.run_batched(batched.as_mut(), &mut scratch, 0);
        assert_bits_eq(&got_tok, &want, &format!("{what}: attend vs naive"));
        assert_bits_eq(&got_batch, &want, &format!("{what}: extend_attend vs naive"));
        for cache in [&mut naive, &mut per_token, &mut batched] {
            cache.finish_prefill();
        }
        assert_same_state(per_token.as_ref(), naive.as_ref(), &what);
        assert_same_state(batched.as_ref(), naive.as_ref(), &what);
    }
}

rkvc_tensor::det_cases! {
    /// Every variant, random head dim and GQA group, token counts on
    /// both sides of the block boundary and across several flush
    /// periods, then a second and third turn on the non-empty cache.
    fn extend_attend_matches_per_token_loop(rng, cases = 40) {
        let hd = HEAD_DIMS[rng.gen_range(0usize..HEAD_DIMS.len())];
        let group = [1usize, 2, 4][rng.gen_range(0usize..3)];
        let sharp = rng.gen_bool(0.3);
        for (cfg, block) in every_variant(rng) {
            let lens = [1, block.saturating_sub(1).max(1), block, block + 1, 3 * block + 2, 37];
            let n1 = lens[rng.gen_range(0usize..lens.len())];
            let n2 = lens[rng.gen_range(0usize..lens.len())];
            let turns = [
                Turn::new(rng, hd, group, n1, 0, sharp),
                Turn::new(rng, hd, group, n2, n1, sharp),
                Turn::new(rng, hd, group, 1, n1 + n2, sharp),
            ];
            check_routes(&cfg, hd, &turns);
        }
    }

    /// The token counts the issue names, for each blocked policy at its
    /// paper-sized block: 1, block − 1, block, block + 1 and several
    /// flush periods, from an empty and from a part-filled window.
    fn block_boundaries_are_exact(rng, cases = 6) {
        let hd = [5usize, 33, 64][rng.gen_range(0usize..3)];
        let group = [1usize, 2, 4][rng.gen_range(0usize..3)];
        let blocked = [
            (CompressionConfig::Fp16, 16usize),
            (CompressionConfig::Kivi(KiviParams { bits: 4, group_size: 8, residual: 16 }), 8),
            (CompressionConfig::kivi(2), 32),
            (CompressionConfig::Gear(GearParams { buffer: 8, ..GearParams::default() }), 8),
            (CompressionConfig::gear(4), 16),
            (CompressionConfig::streaming(4, 28), 16),
        ];
        for (cfg, block) in blocked {
            for n in [1, block - 1, block, block + 1, 5 * block + 3] {
                let prefix = rng.gen_range(0usize..2 * block);
                let turns = [
                    Turn::new(rng, hd, group, prefix.max(1), 0, false),
                    Turn::new(rng, hd, group, n, prefix.max(1), false),
                ];
                check_routes(&cfg, hd, &turns);
            }
        }
    }

    /// H2O's accumulated scores steer eviction, so they are state too:
    /// the default `extend_attend` must leave them bit-identical to the
    /// naive loop's.
    fn h2o_scores_survive_extend_attend(rng, cases = 16) {
        let hd = HEAD_DIMS[rng.gen_range(0usize..HEAD_DIMS.len())];
        let group = [1usize, 2, 4][rng.gen_range(0usize..3)];
        let params = H2OParams { heavy: rng.gen_range(1usize..4), recent: rng.gen_range(1usize..8) };
        let mut naive = DenseCache::new(hd, Retention::HeavyHitters(params)).unwrap();
        let mut batched = DenseCache::new(hd, Retention::HeavyHitters(params)).unwrap();
        let mut scratch = AttendScratch::default();
        let mut pos0 = 0;
        for n in [rng.gen_range(1usize..30), rng.gen_range(1usize..30)] {
            let sharp = rng.gen_bool(0.3);
            let turn = Turn::new(rng, hd, group, n, pos0, sharp);
            let want = turn.run_naive(&mut naive);
            let got = turn.run_batched(&mut batched, &mut scratch, 0);
            assert_bits_eq(&got, &want, "h2o outputs");
            assert_same_state(&batched, &naive, "h2o state");
            for i in 0..naive.len() {
                assert_eq!(batched.score(i).to_bits(), naive.score(i).to_bits(), "h2o score {i}");
            }
            pos0 += n;
        }
    }

    /// `read_from` removes outputs and nothing else. For every variant
    /// and a first-read token on each side of a block boundary, at the
    /// start and at the very end of the turn: the stripes that are read
    /// and everything a later call can observe — the retained rows, the
    /// statistics, H2O's accumulated scores, the outputs of the next
    /// turn — are bit-equal to the run that reads every token, and the
    /// unread stripes are still the `+0.0` the caller put there. The
    /// default-loop policies can only pass by running the unread queries;
    /// the blocked ones pass without.
    fn read_from_only_removes_outputs(rng, cases = 24) {
        let hd = HEAD_DIMS[rng.gen_range(0usize..HEAD_DIMS.len())];
        let group = [1usize, 2, 4][rng.gen_range(0usize..3)];
        let sharp = rng.gen_bool(0.3);
        for (cfg, block) in every_variant(rng) {
            let n = 3 * block + 2 + rng.gen_range(0usize..9);
            let prefix = rng.gen_range(0usize..2 * block + 1);
            let warm_up = Turn::new(rng, hd, group, prefix, 0, sharp);
            let turn = Turn::new(rng, hd, group, n, prefix, sharp);
            let next = Turn::new(rng, hd, group, 2, prefix + n, sharp);
            let mut scratch = AttendScratch::default();

            let mut all_read = cfg.build(hd);
            warm_up.run_batched(all_read.as_mut(), &mut scratch, 0);
            let want = turn.run_batched(all_read.as_mut(), &mut scratch, 0);
            let want_next = next.run_batched(all_read.as_mut(), &mut scratch, 0);

            for read_from in [0, 1, block - 1, block, block + 1, n - 1] {
                let what = format!("{cfg} hd={hd} group={group} n={n} read_from={read_from}");
                let mut cache = cfg.build(hd);
                warm_up.run_batched(cache.as_mut(), &mut scratch, 0);
                let got = turn.run_batched(cache.as_mut(), &mut scratch, read_from);
                let (unread, read) = got.split_at(read_from * group * hd);
                assert!(unread.iter().all(|v| v.to_bits() == 0), "{what}: unread stripe written");
                assert_bits_eq(read, &want[unread.len()..], &format!("{what}: read stripes"));
                let got_next = next.run_batched(cache.as_mut(), &mut scratch, 0);
                assert_bits_eq(&got_next, &want_next, &format!("{what}: next turn"));
                assert_same_state(cache.as_ref(), all_read.as_ref(), &what);
            }
        }

        let params = H2OParams { heavy: rng.gen_range(1usize..4), recent: rng.gen_range(1usize..8) };
        let turn = Turn::new(rng, hd, group, 20, 0, sharp);
        let mut scratch = AttendScratch::default();
        let mut all_read = DenseCache::new(hd, Retention::HeavyHitters(params)).unwrap();
        turn.run_batched(&mut all_read, &mut scratch, 0);
        for read_from in [1, 19] {
            let mut cache = DenseCache::new(hd, Retention::HeavyHitters(params)).unwrap();
            turn.run_batched(&mut cache, &mut scratch, read_from);
            for i in 0..all_read.len() {
                assert_eq!(cache.score(i).to_bits(), all_read.score(i).to_bits(), "h2o score {i}");
            }
        }
    }
}

/// `extend_attend` runs inside one KV-head unit and never touches the
/// pool, so the worker-pool width must not move a bit — checked at the
/// widths gate 4 uses for the experiments.
#[test]
fn extend_attend_is_thread_count_invariant() {
    let mut reference: Option<Vec<Vec<f32>>> = None;
    for threads in [1usize, 2, 4] {
        par::set_threads(Some(threads));
        let mut rng = SeededRng::new(0xB10C_0001);
        let mut outs = Vec::new();
        for (cfg, _) in every_variant(&mut rng) {
            let mut cache = cfg.build(33);
            let mut scratch = AttendScratch::default();
            let turn = Turn::new(&mut rng, 33, 2, 70, 0, false);
            outs.push(turn.run_batched(cache.as_mut(), &mut scratch, 0));
        }
        match &reference {
            None => reference = Some(outs),
            Some(want) => {
                for (got, want) in outs.iter().zip(want) {
                    assert_bits_eq(got, want, "thread sweep");
                }
            }
        }
    }
    par::set_threads(None);
}

/// The width contract of `attend`: every policy panics on a query or an
/// output of the wrong width (the dense default used to accept both
/// silently).
#[test]
fn attend_rejects_wrong_widths_for_every_variant() {
    let mut rng = SeededRng::new(0xB10C_0002);
    for (cfg, _) in every_variant(&mut rng) {
        for (q_len, out_len) in [(7usize, 8usize), (8, 7), (9, 8), (8, 9)] {
            let outcome = std::panic::catch_unwind(|| {
                let mut cache = cfg.build(8);
                for pos in 0..20 {
                    cache.append(&[0.5; 8], &[0.25; 8], pos);
                }
                let (mut scores, mut weights) = (Vec::new(), Vec::new());
                let mut out = vec![0.0f32; out_len];
                cache.attend(&vec![1.0; q_len], 0.5, &mut scores, &mut weights, &mut out);
            });
            assert!(outcome.is_err(), "{cfg}: query {q_len} / out {out_len} must panic");
        }
    }
}
