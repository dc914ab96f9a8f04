//! Matmul kernels (`matmul` over the packed-panel GEMM, the row-streaming
//! `matmul_blocked` it falls back to, and the register-tiled transposed
//! microkernel) vs the naive oracles: exact (bitwise) equality over
//! adversarial shapes and thread counts.

use rkvc_tensor::{par, seeded_rng, Matrix};

fn random_matrix(rng: &mut rkvc_tensor::SeededRng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            // Mixed magnitudes plus exact zeros so the kernels' zero-skip
            // paths get exercised; any reassociation would flip bits.
            if rng.gen_bool(0.125) {
                0.0
            } else {
                rng.gen_range(-4.0f32..4.0) * 10f32.powi(rng.gen_range(-3i32..4))
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn assert_bit_identical(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: value bits diverged");
    }
}

rkvc_tensor::det_cases! {
    fn micro_matmul_matches_naive_oracle(rng, cases = 96) {
        let rows = rng.gen_range(0usize..33);
        let k = rng.gen_range(0usize..70);
        let cols = rng.gen_range(0usize..33);
        let a = random_matrix(rng, rows, k);
        let b = random_matrix(rng, k, cols);
        let oracle = a.matmul_naive(&b);
        assert_bit_identical(&a.matmul(&b), &oracle, "matmul micro");
        assert_bit_identical(&a.matmul_blocked(&b), &oracle, "matmul blocked");
    }

    fn micro_matmul_transposed_matches_naive_oracle(rng, cases = 96) {
        let rows = rng.gen_range(0usize..33);
        let k = rng.gen_range(0usize..70);
        let b_rows = rng.gen_range(0usize..33);
        let a = random_matrix(rng, rows, k);
        let b = random_matrix(rng, b_rows, k);
        let oracle = a.matmul_transposed_naive(&b);
        assert_bit_identical(&a.matmul_transposed(&b), &oracle, "matmul_transposed micro");
    }
}

/// Odd fixed shapes the blocked kernel must not mis-tile: 1x1, empty
/// inner dimension, tall/skinny, and sizes that are not a multiple of the
/// row block or register tile.
#[test]
fn edge_shapes_match_oracle_exactly() {
    let mut rng = seeded_rng(0xED6E_0001);
    let shapes: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 0, 1),
        (0, 5, 3),
        (3, 5, 0),
        (33, 1, 7),
        (1, 129, 1),
        (5, 67, 9),
        (8, 64, 8),
        (9, 65, 17),
        (2, 300, 2),
    ];
    for &(rows, k, cols) in shapes {
        let a = random_matrix(&mut rng, rows, k);
        let b = random_matrix(&mut rng, k, cols);
        assert_bit_identical(&a.matmul(&b), &a.matmul_naive(&b), "edge matmul");
        assert_bit_identical(&a.matmul_blocked(&b), &a.matmul_naive(&b), "edge matmul blocked");
        let bt = random_matrix(&mut rng, cols, k);
        assert_bit_identical(
            &a.matmul_transposed(&bt),
            &a.matmul_transposed_naive(&bt),
            "edge matmul_transposed",
        );
    }
}

/// A product large enough to engage the worker pool must stay bitwise
/// stable across thread counts (and equal to the naive oracle).
#[test]
fn large_matmul_is_thread_count_invariant() {
    let mut rng = seeded_rng(0xED6E_0002);
    let a = random_matrix(&mut rng, 96, 130);
    let b = random_matrix(&mut rng, 130, 96);
    let oracle = a.matmul_naive(&b);
    let oracle_t = a.matmul_transposed_naive(&b.transposed());
    for threads in [1usize, 2, 3, 4] {
        par::set_threads(Some(threads));
        assert_bit_identical(&a.matmul(&b), &oracle, "matmul sweep");
        assert_bit_identical(&a.matmul_blocked(&b), &oracle, "matmul blocked sweep");
        assert_bit_identical(
            &a.matmul_transposed(&b.transposed()),
            &oracle_t,
            "matmul_transposed sweep",
        );
    }
    par::set_threads(None);
}

#[test]
fn push_rows_matches_per_row_pushes() {
    let mut rng = seeded_rng(0xED6E_0003);
    let a = random_matrix(&mut rng, 4, 6);
    let b = random_matrix(&mut rng, 3, 6);
    let mut bulk = Matrix::zeros(0, 0);
    bulk.push_rows(&a);
    bulk.push_rows(&b);
    let mut single = Matrix::zeros(0, 0);
    for r in 0..a.rows() {
        single.push_row(a.row(r));
    }
    for r in 0..b.rows() {
        single.push_row(b.row(r));
    }
    assert_eq!(bulk, single);
    assert_eq!(bulk.shape(), (7, 6));
}
