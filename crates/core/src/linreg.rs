//! Ridge regression by normal equations.
//!
//! The length predictor needs a small, dependency-free regressor: solve
//! `(XᵀX + λI) w = Xᵀy` by Gaussian elimination with partial pivoting.

use rkvc_tensor::Matrix;

/// A fitted ridge-regression model (with intercept).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RidgeRegression {
    weights: Vec<f32>,
    intercept: f32,
    feature_means: Vec<f32>,
    feature_stds: Vec<f32>,
}

impl RidgeRegression {
    /// Fits `y ≈ X w + b` with L2 penalty `lambda` on `w`.
    ///
    /// Features are standardized internally for conditioning.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` row counts differ, there are no samples, or
    /// `lambda < 0`.
    pub fn fit(x: &Matrix, y: &[f32], lambda: f32) -> Self {
        assert_eq!(x.rows(), y.len(), "X/y sample counts differ");
        assert!(x.rows() > 0, "need at least one sample");
        assert!(lambda >= 0.0, "lambda must be non-negative");
        let n = x.rows();
        let d = x.cols();

        // Standardize columns.
        let mut means = vec![0.0f32; d];
        let mut stds = vec![0.0f32; d];
        for c in 0..d {
            let col = x.col(c);
            let m = rkvc_tensor::seq_sum_f32(col.iter().copied()) / n as f32;
            let v = rkvc_tensor::seq_sum_f32(col.iter().map(|v| (v - m).powi(2))) / n as f32;
            means[c] = m;
            stds[c] = v.sqrt().max(1e-6);
        }
        let mut xs = Matrix::zeros(n, d);
        for r in 0..n {
            for c in 0..d {
                xs.set(r, c, (x.get(r, c) - means[c]) / stds[c]);
            }
        }
        let y_mean = rkvc_tensor::seq_sum_f32(y.iter().copied()) / n as f32;

        // Normal equations on centered data.
        let xt = xs.transposed();
        let mut a = xt.matmul(&xs);
        for i in 0..d {
            a.set(i, i, a.get(i, i) + lambda);
        }
        let yc: Vec<f32> = y.iter().map(|v| v - y_mean).collect();
        let mut b = vec![0.0f32; d];
        for c in 0..d {
            for r in 0..n {
                b[c] += xs.get(r, c) * yc[r];
            }
        }

        let w = solve(&mut a, &mut b);
        RidgeRegression {
            intercept: y_mean,
            weights: w,
            feature_means: means,
            feature_stds: stds,
        }
    }

    /// Predicts the target for one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if the feature count differs from training.
    pub fn predict(&self, features: &[f32]) -> f32 {
        assert_eq!(features.len(), self.weights.len(), "feature count mismatch");
        let mut out = self.intercept;
        for ((f, w), (m, s)) in features
            .iter()
            .zip(&self.weights)
            .zip(self.feature_means.iter().zip(&self.feature_stds))
        {
            out += w * (f - m) / s;
        }
        out
    }
}

/// Solves `A x = b` in place by Gaussian elimination with partial pivoting.
fn solve(a: &mut Matrix, b: &mut [f32]) -> Vec<f32> {
    let n = b.len();
    debug_assert_eq!(a.shape(), (n, n));
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        for r in col + 1..n {
            if a.get(r, col).abs() > a.get(pivot, col).abs() {
                pivot = r;
            }
        }
        if pivot != col {
            for c in 0..n {
                let tmp = a.get(col, c);
                a.set(col, c, a.get(pivot, c));
                a.set(pivot, c, tmp);
            }
            b.swap(col, pivot);
        }
        let diag = a.get(col, col);
        if diag.abs() < 1e-12 {
            continue; // Singular direction; ridge normally prevents this.
        }
        for r in col + 1..n {
            let factor = a.get(r, col) / diag;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                a.set(r, c, a.get(r, c) - factor * a.get(col, c));
            }
            b[r] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0f32; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for c in col + 1..n {
            acc -= a.get(col, c) * x[c];
        }
        let diag = a.get(col, col);
        x[col] = if diag.abs() < 1e-12 { 0.0 } else { acc / diag };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_tensor::seeded_rng;

    #[test]
    fn recovers_linear_relationship() {
        let mut rng = seeded_rng(1);
        let n = 200;
        let mut x = Matrix::zeros(n, 2);
        let mut y = vec![0.0f32; n];
        for r in 0..n {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            x.set(r, 0, a);
            x.set(r, 1, b);
            y[r] = 3.0 * a - 2.0 * b + 0.5;
        }
        let model = RidgeRegression::fit(&x, &y, 1e-3);
        let pred = model.predict(&[0.3, -0.4]);
        let want = 3.0f32 * 0.3 + 2.0 * 0.4 + 0.5;
        assert!((pred - want).abs() < 0.05, "pred {pred} want {want}");
    }

    #[test]
    fn handles_noise_gracefully() {
        let mut rng = seeded_rng(2);
        let n = 500;
        let mut x = Matrix::zeros(n, 1);
        let mut y = vec![0.0f32; n];
        for r in 0..n {
            let a: f32 = rng.gen_range(0.0..10.0);
            x.set(r, 0, a);
            y[r] = 2.0 * a + rng.gen_range(-0.5f32..0.5);
        }
        let model = RidgeRegression::fit(&x, &y, 1.0);
        assert!((model.predict(&[5.0]) - 10.0).abs() < 0.5);
    }

    #[test]
    fn constant_feature_does_not_blow_up() {
        let mut x = Matrix::zeros(10, 2);
        let mut y = vec![0.0f32; 10];
        for r in 0..10 {
            x.set(r, 0, 1.0); // Constant (zero variance).
            x.set(r, 1, r as f32);
            y[r] = r as f32;
        }
        let model = RidgeRegression::fit(&x, &y, 1e-2);
        let pred = model.predict(&[1.0, 4.0]);
        assert!((pred - 4.0).abs() < 0.5, "{pred}");
    }

    #[test]
    #[should_panic(expected = "sample counts differ")]
    fn mismatched_shapes_rejected() {
        let x = Matrix::zeros(3, 1);
        RidgeRegression::fit(&x, &[1.0, 2.0], 0.1);
    }
}
