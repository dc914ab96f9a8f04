//! Fused dequant-attention kernels vs the `view_uncached` + naive-loop
//! oracle: exact bitwise equality across bit widths 1/2/4/8, odd chunk
//! and group sizes, and GQA head-sharing (several query heads attending
//! one shared KV cache), plus thread-count invariance of the fused path.

use rkvc_kvcache::{
    quantize_group, ChunkedCache, Codec, GearParams, GroupLayout, KiviParams, KvCache, KvView,
    QuantizedMatrix, SupportedBits,
};
use rkvc_tensor::{par, seeded_rng, softmax_into, Matrix, SeededRng};

const BITS: [u8; 4] = [1, 2, 4, 8];

fn random_vec(rng: &mut SeededRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn fill(cache: &mut dyn KvCache, rng: &mut SeededRng, n: usize, dim: usize) {
    for pos in 0..n {
        let k = random_vec(rng, dim);
        let v = random_vec(rng, dim);
        cache.append(&k, &v, pos);
    }
}

/// The naive attention sequence over a materialized view — the loops the
/// model ran inline before `KvCache::attend` existed. Returns the output
/// accumulated from zero.
fn naive_attend(view: &KvView, q: &[f32], scale: f32) -> Vec<f32> {
    let mut scores = Vec::new();
    for r in 0..view.len() {
        let dot: f32 = view.keys.row(r).iter().zip(q).map(|(a, b)| a * b).sum();
        scores.push(dot * scale);
    }
    let mut weights = Vec::new();
    softmax_into(&scores, &mut weights);
    let mut out = vec![0.0f32; view.keys.cols()];
    for (r, &w) in weights.iter().enumerate() {
        for (o, v) in out.iter_mut().zip(view.values.row(r)) {
            *o += w * v;
        }
    }
    out
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: bits diverged");
    }
}

rkvc_tensor::det_cases! {
    /// KIVI fused attend == view_uncached + naive loops, bit for bit,
    /// over every bit width, odd group/residual sizes, and 1–3 query
    /// heads sharing the cache (the per-KV-head GQA shape).
    fn fused_kivi_attend_matches_uncached_oracle(rng, cases = 48) {
        let hd = [3usize, 5, 8, 16][rng.gen_range(0usize..4)];
        let bits = BITS[rng.gen_range(0usize..4)];
        let group_size = [3usize, 4, 5, 7][rng.gen_range(0usize..4)];
        let residual = [1usize, 3, 8][rng.gen_range(0usize..3)];
        let n = rng.gen_range(16usize..56);
        let q_heads = rng.gen_range(1usize..4);
        let mut c =
            ChunkedCache::new(hd, Codec::Kivi(KiviParams { bits, group_size, residual })).unwrap();
        fill(&mut c, rng, n, hd);
        let scale = 1.0 / (hd as f32).sqrt();
        let view = c.view_uncached();
        let mut scores = Vec::new();
        let mut weights = Vec::new();
        for _ in 0..q_heads {
            let q = random_vec(rng, hd);
            let oracle = naive_attend(&view, &q, scale);
            let mut out = vec![0.0f32; hd];
            c.attend(&q, scale, &mut scores, &mut weights, &mut out);
            assert_bits_eq(&out, &oracle, "kivi fused attend");
        }
    }

    /// GEAR fused attend (in-register dequant + low-rank + outlier
    /// cursor) == view_uncached + naive loops over every bit width and
    /// odd buffer sizes.
    fn fused_gear_attend_matches_uncached_oracle(rng, cases = 48) {
        let hd = [3usize, 5, 8, 16][rng.gen_range(0usize..4)];
        let bits = BITS[rng.gen_range(0usize..4)];
        let buffer = [3usize, 4, 5, 7][rng.gen_range(0usize..4)];
        let outlier_ratio = [0.0f32, 0.02, 0.1][rng.gen_range(0usize..3)];
        let rank_ratio = [0.02f32, 0.25, 1.0][rng.gen_range(0usize..3)];
        let n = rng.gen_range(16usize..56);
        let q_heads = rng.gen_range(1usize..4);
        let mut c = ChunkedCache::new(
            hd,
            Codec::Gear(GearParams { bits, outlier_ratio, rank_ratio, buffer }),
        )
        .unwrap();
        fill(&mut c, rng, n, hd);
        let scale = 1.0 / (hd as f32).sqrt();
        let view = c.view_uncached();
        let mut scores = Vec::new();
        let mut weights = Vec::new();
        for _ in 0..q_heads {
            let q = random_vec(rng, hd);
            let oracle = naive_attend(&view, &q, scale);
            let mut out = vec![0.0f32; hd];
            c.attend(&q, scale, &mut scores, &mut weights, &mut out);
            assert_bits_eq(&out, &oracle, "gear fused attend");
        }
    }

    /// The packed representation is exactly what `dequantize()` decodes:
    /// manual bit-unpacking of each group's packed words reproduces every
    /// element, and the four kernels that read a quantized matrix match
    /// dense-row math over `dequantize()`.
    fn chunk_iteration_api_matches_dequantize(rng, cases = 48) {
        let rows = rng.gen_range(1usize..12);
        let cols = rng.gen_range(1usize..12);
        let bits = SupportedBits::from_bits(BITS[rng.gen_range(0usize..4)]).unwrap();
        let layout = if rng.gen_bool(0.5) { GroupLayout::PerChannel } else { GroupLayout::PerToken };
        let m = Matrix::from_vec(rows, cols, random_vec(rng, rows * cols));
        let qm = QuantizedMatrix::quantize(&m, layout, bits);
        assert_eq!(qm.layout(), layout);
        let dense = qm.dequantize();

        // Manual decode from the packed words of each group (a column
        // under `PerChannel`, a row under `PerToken`): the group handle
        // exposes everything a fused kernel needs, and decodes to the
        // matrix's elements.
        let n_groups = match layout {
            GroupLayout::PerChannel => cols,
            GroupLayout::PerToken => rows,
        };
        let nbits = bits.bits() as usize;
        let per = bits.values_per_byte();
        for gi in 0..n_groups {
            let g = match layout {
                GroupLayout::PerChannel => quantize_group(&m.col(gi), bits),
                GroupLayout::PerToken => quantize_group(m.row(gi), bits),
            };
            assert_eq!(g.bits(), bits);
            for i in 0..g.len() {
                let byte = g.packed()[i / per];
                let code = ((byte >> ((i % per) * nbits)) as u32) & bits.max_code();
                assert_eq!(code, g.code(i), "packed decode");
                let manual = code as f32 * g.scale() + g.zero();
                assert_eq!(manual.to_bits(), g.dequant(i).to_bits(), "manual dequant");
                let element = match layout {
                    GroupLayout::PerChannel => dense.get(i, gi),
                    GroupLayout::PerToken => dense.get(gi, i),
                };
                assert_eq!(manual.to_bits(), element.to_bits(), "group {gi} element {i}");
            }
            // Packed codes at true size + two f32 constants.
            assert_eq!(g.resident_bytes(), g.len().div_ceil(per) + 8);
        }

        // The whole-matrix decode into caller storage equals the oracle.
        let mut tile = Matrix::from_vec(rows + 1, cols, random_vec(rng, (rows + 1) * cols));
        let below = tile.row(rows).to_vec();
        qm.dequantize_rows_into(&mut tile);
        for r in 0..rows {
            assert_bits_eq(tile.row(r), dense.row(r), "dequantize_rows_into");
        }
        assert_bits_eq(tile.row(rows), &below, "dequantize_rows_into past the last row");

        // Streaming kernels — one call per chunk, each on the layout it
        // serves — against dense-row math.
        let q = random_vec(rng, cols);
        match layout {
            GroupLayout::PerChannel => {
                let scale = rng.gen_range(0.1f32..2.0);
                let mut scores = vec![0.0f32; rows];
                qm.fused_dots_into(&q, scale, &mut scores);
                for (r, s) in scores.iter().enumerate() {
                    let mut dot = 0.0f32;
                    for (c, &qv) in q.iter().enumerate() {
                        dot += dense.get(r, c) * qv;
                    }
                    assert_eq!(s.to_bits(), (dot * scale).to_bits(), "fused_dots_into");
                }
            }
            GroupLayout::PerToken => {
                let w = random_vec(rng, rows);
                let mut out_fused = random_vec(rng, cols);
                let mut out_dense = out_fused.clone();
                qm.fused_axpy_rows(&w, &mut out_fused);
                for (r, &wr) in w.iter().enumerate() {
                    for (c, o) in out_dense.iter_mut().enumerate() {
                        *o += wr * dense.get(r, c);
                    }
                }
                assert_bits_eq(&out_fused, &out_dense, "fused_axpy_rows");
            }
        }

        // Dequant-add: the dequantized value is the left operand of each
        // element's add.
        let orig = Matrix::from_vec(rows, cols, random_vec(rng, rows * cols));
        let mut added = orig.clone();
        qm.add_dequant_rows(&mut added);
        for r in 0..rows {
            for c in 0..cols {
                let expect = dense.get(r, c) + orig.get(r, c);
                assert_eq!(added.get(r, c).to_bits(), expect.to_bits(), "add_dequant_rows");
            }
        }
    }
}

/// The fused attend path must be bit-identical at any worker-pool width:
/// its loops are sequential per (layer, kv-head) unit by design, so
/// changing `RKVC_THREADS` must not move a single bit.
#[test]
fn fused_attend_is_thread_count_invariant() {
    let mut rng = seeded_rng(0xF05E_0001);
    let hd = 16;
    let scale = 0.25;
    let build = |rng: &mut SeededRng| {
        let mut kivi = ChunkedCache::new(
            hd,
            Codec::Kivi(KiviParams { bits: 2, group_size: 5, residual: 3 }),
        )
        .unwrap();
        let gear_params = GearParams { bits: 4, buffer: 7, ..Default::default() };
        let mut gear = ChunkedCache::new(hd, Codec::Gear(gear_params)).unwrap();
        let mut rng2 = seeded_rng(0xF05E_0002);
        fill(&mut kivi, &mut rng2, 48, hd);
        let mut rng3 = seeded_rng(0xF05E_0002);
        fill(&mut gear, &mut rng3, 48, hd);
        let _ = rng;
        (kivi, gear)
    };
    let q = random_vec(&mut rng, hd);
    let mut reference: Option<(Vec<f32>, Vec<f32>)> = None;
    for threads in [1usize, 2, 4] {
        par::set_threads(Some(threads));
        let (mut kivi, mut gear) = build(&mut rng);
        let (mut scores, mut weights) = (Vec::new(), Vec::new());
        let mut kivi_out = vec![0.0f32; hd];
        kivi.attend(&q, scale, &mut scores, &mut weights, &mut kivi_out);
        let mut gear_out = vec![0.0f32; hd];
        gear.attend(&q, scale, &mut scores, &mut weights, &mut gear_out);
        match &reference {
            None => reference = Some((kivi_out, gear_out)),
            Some((rk, rg)) => {
                assert_bits_eq(&kivi_out, rk, "kivi thread sweep");
                assert_bits_eq(&gear_out, rg, "gear thread sweep");
            }
        }
    }
    par::set_threads(None);
}

/// Residency accounting after the memo removal: what the process holds
/// is the packed representation plus the f32 window — strictly less than
/// an f32 copy of the stream, and reported through `stats()`.
#[test]
fn resident_bytes_drop_reflected_in_stats() {
    let mut rng = seeded_rng(0xF05E_0003);
    let hd = 16;
    let kivi_params = KiviParams { bits: 2, group_size: 8, residual: 8 };
    let mut kivi = ChunkedCache::new(hd, Codec::Kivi(kivi_params)).unwrap();
    let gear_params = GearParams { bits: 2, buffer: 8, ..Default::default() };
    let mut gear = ChunkedCache::new(hd, Codec::Gear(gear_params)).unwrap();
    fill(&mut kivi, &mut rng, 128, hd);
    let mut rng2 = seeded_rng(0xF05E_0003);
    fill(&mut gear, &mut rng2, 128, hd);
    let full_f32 = 2 * 128 * hd * 4;
    for (name, stats) in [("kivi", kivi.stats()), ("gear", gear.stats())] {
        assert!(stats.resident_bytes > 0, "{name}");
        assert!(
            stats.resident_bytes < full_f32,
            "{name}: resident {} vs f32 copy {}",
            stats.resident_bytes,
            full_f32
        );
        // Device-model accounting is untouched by the host-side memo
        // drop, and residency stays within a small factor of it (f32
        // constants vs FP16, f32 windows vs FP16 model).
        assert!(stats.resident_bytes < 4 * stats.memory_bytes, "{name}");
    }
}
