//! The packed-panel GEMM vs the naive oracle: both kernel instantiations
//! (the baseline-ISA tile through `matmul_packed_baseline`, and whatever
//! the host dispatches to through `Matrix::matmul_packed` — the AVX2 tile
//! where the CPU has it) must match `matmul_naive` bit for bit, although
//! the oracle skips zero activations and the kernel does not. Through
//! borrowed `Panels` (the KV cache's key layout) the same kernel must
//! produce the sequential dot of every key row and query, non-finite
//! operands included.

use rkvc_tensor::gemm::{panels_mul_into_baseline, Panels, PANEL};
use rkvc_tensor::{
    matmul_packed_baseline, par, seeded_rng, seq_sum_f32, Matrix, PackedMatrix, SeededRng,
    TensorError,
};

/// Finite values chosen to break a kernel that reassociates, fuses, or
/// mishandles the dropped zero-skip: both zeros, subnormals, and mixed
/// magnitudes.
fn adversarial_value(rng: &mut SeededRng) -> f32 {
    match rng.gen_range(0u32..10) {
        0 => 0.0,
        1 => -0.0,
        2 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
        3 => -f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
        _ => rng.gen_range(-4.0f32..4.0) * 10f32.powi(rng.gen_range(-3i32..4)),
    }
}

/// An attention operand: mostly the adversarial finite values, with ±inf
/// and NaN among them.
fn score_operand(rng: &mut SeededRng) -> f32 {
    match rng.gen_range(0u32..50) {
        0 => f32::INFINITY,
        1 => f32::NEG_INFINITY,
        2 => f32::NAN,
        _ => adversarial_value(rng),
    }
}

/// Activations: adversarial values with ~30 % of the columns zero in
/// every row, like TinyLM's embedding segments that no token has written.
fn activations(rng: &mut SeededRng, rows: usize, k: usize) -> Matrix {
    let zero_col: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.3)).collect();
    let data = (0..rows * k)
        .map(|i| {
            if zero_col[i % k.max(1)] {
                0.0
            } else {
                adversarial_value(rng)
            }
        })
        .collect();
    Matrix::from_vec(rows, k, data)
}

fn weights(rng: &mut SeededRng, k: usize, cols: usize) -> Matrix {
    Matrix::from_vec(
        k,
        cols,
        (0..k * cols).map(|_| adversarial_value(rng)).collect(),
    )
}

fn assert_bit_identical(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} diverged ({x:e} vs {y:e})"
        );
    }
}

const KS: [usize; 4] = [0, 1, 13, 208];
const COLS: [usize; 8] = [1, 3, 15, 16, 17, 37, 64, 208];

rkvc_tensor::det_cases! {
    /// Every row count around the register tile, every inner width, and
    /// output widths on both sides of the tile and panel edges.
    fn both_instantiations_match_naive_oracle(rng, cases = 3) {
        for threads in [1usize, 2, 4] {
            par::set_threads(Some(threads));
            for rows in 0..=9 {
                for k in KS {
                    for cols in COLS {
                        let a = activations(rng, rows, k);
                        let b = weights(rng, k, cols);
                        let w = PackedMatrix::try_pack(&b).expect("finite");
                        let oracle = a.matmul_naive(&b);
                        let what = format!("{rows}x{k} * {k}x{cols}, {threads} threads");
                        assert_bit_identical(&a.matmul_packed(&w), &oracle, &format!("dispatched {what}"));
                        assert_bit_identical(&matmul_packed_baseline(&a, &w), &oracle, &format!("baseline {what}"));
                        assert_bit_identical(&a.matmul(&b), &oracle, &format!("matmul {what}"));
                    }
                }
            }
        }
        par::set_threads(None);
    }

    /// Row `i` of an `M`-row product equals that row multiplied alone, by
    /// the one-row matrix product and by `mul_rows_into` into a reused
    /// buffer: what lets prefill batch rows and decode feed one without
    /// moving a bit.
    fn a_row_of_a_batch_equals_the_row_alone(rng, cases = 8) {
        let rows = rng.gen_range(1usize..24);
        let k = rng.gen_range(1usize..220);
        let cols = rng.gen_range(1usize..220);
        let a = activations(rng, rows, k);
        let w = PackedMatrix::try_pack(&weights(rng, k, cols)).expect("finite");
        let batch = a.matmul_packed(&w);
        let batch_baseline = matmul_packed_baseline(&a, &w);
        let mut reused = Vec::new();
        w.mul_rows_into(a.as_slice(), &mut reused);
        let reused_batch = Matrix::from_vec(rows, cols, reused.clone());
        assert_bit_identical(&reused_batch, &batch, "mul_rows_into batch");
        for i in 0..rows {
            let alone = Matrix::from_vec(1, k, a.row(i).to_vec());
            let want = Matrix::from_vec(1, cols, batch.row(i).to_vec());
            assert_bit_identical(&alone.matmul_packed(&w), &want, "one-row product");
            assert_bit_identical(&matmul_packed_baseline(&alone, &w), &want, "one-row baseline");
            w.mul_rows_into(a.row(i), &mut reused);
            assert_bit_identical(&Matrix::from_vec(1, cols, reused.clone()), &want, "mul_rows_into");
            assert_bit_identical(&Matrix::from_vec(1, cols, batch_baseline.row(i).to_vec()), &want, "baseline batch row");
        }
    }

    /// Attention scores as the KV cache computes them: `n` key rows stored
    /// as the columns of `Kᵀ` in panels, times a few queries, then scaled.
    /// Each equals the ascending-channel fold `seq_sum_f32(k·q) * scale`
    /// on both instantiations, for keys and queries with signed zeros,
    /// subnormals, infinities and NaN (the panels are not `try_pack`ed,
    /// so nothing filters them). The padding lanes of the last panel hold
    /// NaN, which would poison any score they reached.
    ///
    /// A NaN score is compared as NaN: IEEE 754 leaves to the platform
    /// which NaN an operation on two NaNs returns, and either side's
    /// multiply or add may have its operands commuted by the compiler.
    fn panel_scores_are_the_sequential_fold(rng, cases = 4) {
        let scale = 0.125f32;
        for hd in [1usize, 3, 8, 15, 16, 17, 33, 64, 70] {
            for n in [0usize, 1, 15, 16, 17, 33, 515] {
                let keys: Vec<f32> = (0..n * hd).map(|_| score_operand(rng)).collect();
                let mut panels = vec![f32::NAN; n.div_ceil(PANEL) * hd * PANEL];
                for (r, key) in keys.chunks_exact(hd).enumerate() {
                    for (c, &k) in key.iter().enumerate() {
                        panels[r / PANEL * hd * PANEL + c * PANEL + r % PANEL] = k;
                    }
                }
                let w = Panels::new(hd, n, &panels);
                let m = rng.gen_range(1usize..7);
                let queries: Vec<f32> = (0..m * hd).map(|_| score_operand(rng)).collect();
                let mut dispatched = vec![0.0f32; m * n];
                let mut baseline = vec![0.0f32; m * n];
                w.mul_into(&queries, &mut dispatched);
                panels_mul_into_baseline(&queries, w, &mut baseline);
                for (isa, product) in [("dispatched", &dispatched), ("baseline", &baseline)] {
                    for (j, query) in queries.chunks_exact(hd).enumerate() {
                        for (r, key) in keys.chunks_exact(hd).enumerate() {
                            let want = seq_sum_f32(key.iter().zip(query).map(|(k, q)| k * q)) * scale;
                            let got = product[j * n + r] * scale;
                            assert!(
                                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                                "{isa} hd={hd} n={n} query {j} row {r}: {got:e} vs {want:e}"
                            );
                        }
                    }
                }
            }
        }
    }

    fn pack_round_trips(rng, cases = 16) {
        let k = rng.gen_range(0usize..40);
        let cols = rng.gen_range(0usize..40);
        let m = weights(rng, k, cols);
        let w = PackedMatrix::try_pack(&m).expect("finite");
        assert_eq!((w.rows(), w.cols()), m.shape());
        assert_bit_identical(&w.unpack(), &m, "unpack");
        for r in 0..k {
            for c in 0..cols {
                assert_eq!(w.get(r, c).to_bits(), m.get(r, c).to_bits());
            }
        }
    }
}

/// A product large enough to fan row blocks over the pool, through both
/// instantiations, at every thread count.
#[test]
fn pool_fan_out_does_not_move_bits() {
    let mut rng = seeded_rng(0x9ACC_ED01);
    let a = activations(&mut rng, 97, 208);
    let b = weights(&mut rng, 208, 130);
    let w = PackedMatrix::try_pack(&b).expect("finite");
    let oracle = a.matmul_naive(&b);
    for threads in [1usize, 2, 3, 4] {
        par::set_threads(Some(threads));
        assert_bit_identical(&a.matmul_packed(&w), &oracle, "dispatched fan-out");
        assert_bit_identical(&matmul_packed_baseline(&a, &w), &oracle, "baseline fan-out");
    }
    par::set_threads(None);
}

/// The dropped zero-skip, spelled out: a zero activation of either sign
/// times a weight of either sign adds `+0.0` or `-0.0` to an accumulator
/// that started at `+0.0`, which leaves it exactly where the oracle's
/// skip does — `+0.0` if nothing else was added, untouched otherwise.
#[test]
fn signed_zero_activations_leave_the_accumulator_alone() {
    let b = Matrix::from_rows(&[
        &[-3.0, 2.0, -0.0, 1e-40],
        &[5.0, -7.0, 0.0, -1e-40],
        &[-1.0, 1.0, -0.0, 0.0],
    ]);
    let w = PackedMatrix::try_pack(&b).expect("finite");
    let zeros = Matrix::from_rows(&[
        &[-0.0, 0.0, -0.0],
        &[0.0, -0.0, 0.0],
        &[-0.0, -0.0, -0.0],
        &[0.0; 3],
        &[-0.0; 3],
    ]);
    for got in [zeros.matmul_packed(&w), matmul_packed_baseline(&zeros, &w)] {
        assert!(
            got.as_slice().iter().all(|v| v.to_bits() == 0),
            "all-zero rows must stay +0.0: {got}"
        );
    }
    // A lone subnormal term survives the zeros around it, sign and all.
    let tiny = f32::from_bits(1);
    let a = Matrix::from_rows(&[
        &[-0.0, -tiny, 0.0],
        &[0.0, 1.0, -0.0],
        &[1.0, -0.0, 3.0],
        &[-0.0, 0.0, tiny],
        &[2.0, 0.0, -0.0],
    ]);
    let oracle = a.matmul_naive(&b);
    assert_bit_identical(&a.matmul_packed(&w), &oracle, "dispatched signed zeros");
    assert_bit_identical(
        &matmul_packed_baseline(&a, &w),
        &oracle,
        "baseline signed zeros",
    );
}

/// Non-finite entries cannot be packed — `0 * inf` would surface a NaN
/// the oracle skips — and `Matrix::matmul` still multiplies such an
/// operand exactly as the oracle does.
#[test]
fn non_finite_operands_are_rejected_by_pack_and_routed_around_it() {
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut b = Matrix::from_vec(5, 20, (0..100).map(|i| i as f32 - 50.0).collect());
        b.set(3, 17, bad);
        assert!(
            matches!(
                PackedMatrix::try_pack(&b),
                Err(TensorError::InvalidArgument(_))
            ),
            "{bad}"
        );
        let mut a = Matrix::from_vec(6, 5, (0..30).map(|i| (i % 7) as f32 - 3.0).collect());
        for r in 0..6 {
            // The zero the oracle skips sits opposite the bad entry.
            a.set(r, 3, if r % 2 == 0 { 0.0 } else { -0.0 });
        }
        let (got, want) = (a.matmul(&b), a.matmul_naive(&b));
        assert!(
            want.as_slice().iter().all(|v| v.is_finite()),
            "the oracle skipped {bad}"
        );
        assert_bit_identical(&got, &want, "non-finite right operand");
    }
}
