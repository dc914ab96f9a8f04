//! Offline profiling of the attention operator (the Vidur recipe).
//!
//! The paper's throughput predictor profiles *only* the attention operator
//! per compression algorithm — every other operator is identical across
//! algorithms and profiled once. This module builds those profile tables
//! from the [`rkvc_gpu`] cost model, optionally with multiplicative
//! measurement jitter so predictor accuracy is evaluated against noisy
//! "hardware" rather than against its own inputs.

use rkvc_gpu::DeploymentSpec;
use rkvc_kvcache::CompressionConfig;
use rkvc_tensor::seeded_rng;

/// The (batch, length) grid a profile covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileGrid {
    /// Batch sizes, ascending.
    pub batches: Vec<usize>,
    /// Sequence/KV lengths, ascending.
    pub lengths: Vec<usize>,
}

impl ProfileGrid {
    /// The default profiling grid (powers of two, the Vidur practice).
    pub fn standard() -> Self {
        ProfileGrid {
            batches: vec![1, 2, 4, 8, 16, 32],
            lengths: vec![128, 256, 512, 1024, 2048, 4096, 8192],
        }
    }

    /// Validates monotonicity.
    ///
    /// # Panics
    ///
    /// Panics if either axis is empty or not strictly ascending.
    pub fn validate(&self) {
        assert!(!self.batches.is_empty() && !self.lengths.is_empty());
        assert!(self.batches.windows(2).all(|w| w[0] < w[1]));
        assert!(self.lengths.windows(2).all(|w| w[0] < w[1]));
    }
}

/// A profiled attention-time table for one (algorithm, stage).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ProfileTable {
    grid: ProfileGrid,
    /// `times[bi][li]` = measured attention-layer seconds.
    times: Vec<Vec<f64>>,
}

impl ProfileTable {
    /// Profiles the attention operator over `grid` for one algorithm and
    /// stage. `jitter_std > 0` applies log-normal measurement noise with
    /// the given sigma (deterministic per `seed`).
    pub fn profile(
        dep: &DeploymentSpec,
        algo: &CompressionConfig,
        decode: bool,
        grid: ProfileGrid,
        jitter_std: f64,
        seed: u64,
    ) -> Self {
        grid.validate();
        let mut rng = seeded_rng(seed);
        let times = grid
            .batches
            .iter()
            .map(|&b| {
                grid.lengths
                    .iter()
                    .map(|&l| {
                        let t = dep.attention_layer_time(algo, b, l, decode);
                        if jitter_std > 0.0 {
                            let z: f64 = rng.gen_range(-1.0..1.0)
                                + rng.gen_range(-1.0..1.0)
                                + rng.gen_range(-1.0..1.0);
                            t * (jitter_std * z * 0.577).exp()
                        } else {
                            t
                        }
                    })
                    .collect()
            })
            .collect();
        ProfileTable { grid, times }
    }

    /// The profiled time at an exact grid point.
    ///
    /// # Panics
    ///
    /// Panics if `(batch, len)` is not a grid point.
    #[cfg(test)]
    pub fn at(&self, batch: usize, len: usize) -> f64 {
        let bi = self
            .grid
            .batches
            .iter()
            .position(|&b| b == batch)
            .expect("batch not on grid");
        let li = self
            .grid
            .lengths
            .iter()
            .position(|&l| l == len)
            .expect("length not on grid");
        self.times[bi][li]
    }

    /// Bilinear interpolation in log2(batch) x log2(length) space, clamped
    /// to the grid's hull. Log space makes power-of-two grids uniform and
    /// matches the near-linear scaling of attention cost.
    pub fn interpolate(&self, batch: f64, len: f64) -> f64 {
        let bx = locate(&self.grid.batches, batch);
        let lx = locate(&self.grid.lengths, len);
        let (b0, b1, bt) = bx;
        let (l0, l1, lt) = lx;
        let f00 = self.times[b0][l0];
        let f01 = self.times[b0][l1];
        let f10 = self.times[b1][l0];
        let f11 = self.times[b1][l1];
        let low = f00 * (1.0 - lt) + f01 * lt;
        let high = f10 * (1.0 - lt) + f11 * lt;
        low * (1.0 - bt) + high * bt
    }
}

/// Finds bracketing indices and the log-space interpolation weight for `x`
/// on an ascending axis, clamping outside the hull.
fn locate(axis: &[usize], x: f64) -> (usize, usize, f64) {
    let x = x.max(axis[0] as f64).min(*axis.last().expect("non-empty") as f64);
    let mut i = 0;
    while i + 1 < axis.len() && (axis[i + 1] as f64) < x {
        i += 1;
    }
    if i + 1 >= axis.len() {
        return (axis.len() - 1, axis.len() - 1, 0.0);
    }
    let lo = axis[i] as f64;
    let hi = axis[i + 1] as f64;
    let t = if hi > lo {
        ((x.ln() - lo.ln()) / (hi.ln() - lo.ln())).clamp(0.0, 1.0)
    } else {
        0.0
    };
    (i, i + 1, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_gpu::{EngineKind, GpuSpec, LlmSpec};

    fn dep() -> DeploymentSpec {
        DeploymentSpec {
            gpu: GpuSpec::a6000(),
            llm: LlmSpec::llama2_7b(),
            engine: EngineKind::LmDeploy,
            tensor_parallel: 1,
        }
    }

    #[test]
    fn exact_grid_points_round_trip() {
        let t = ProfileTable::profile(
            &dep(),
            &CompressionConfig::Fp16,
            true,
            ProfileGrid::standard(),
            0.0,
            0,
        );
        let v = t.at(8, 2048);
        assert!((t.interpolate(8.0, 2048.0) - v).abs() / v < 1e-9);
    }

    #[test]
    fn interpolation_brackets_neighbours() {
        let t = ProfileTable::profile(
            &dep(),
            &CompressionConfig::Fp16,
            true,
            ProfileGrid::standard(),
            0.0,
            0,
        );
        let mid = t.interpolate(6.0, 3000.0);
        let lo = t.at(4, 2048);
        let hi = t.at(8, 4096);
        assert!(mid > lo && mid < hi, "{lo} < {mid} < {hi}");
    }

    #[test]
    fn interpolation_is_accurate_off_grid() {
        let d = dep();
        let t = ProfileTable::profile(
            &d,
            &CompressionConfig::Fp16,
            true,
            ProfileGrid::standard(),
            0.0,
            0,
        );
        for (b, l) in [(3usize, 700usize), (6, 1500), (12, 5000)] {
            let pred = t.interpolate(b as f64, l as f64);
            let truth = d.attention_layer_time(&CompressionConfig::Fp16, b, l, true);
            let err = (pred - truth).abs() / truth;
            assert!(err < 0.2, "b={b} l={l}: err {err}");
        }
    }

    #[test]
    fn clamps_outside_hull() {
        let t = ProfileTable::profile(
            &dep(),
            &CompressionConfig::Fp16,
            true,
            ProfileGrid::standard(),
            0.0,
            0,
        );
        assert_eq!(t.interpolate(0.5, 64.0), t.at(1, 128));
        assert_eq!(t.interpolate(100.0, 1e6), t.at(32, 8192));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let d = dep();
        let a = ProfileTable::profile(&d, &CompressionConfig::Fp16, true, ProfileGrid::standard(), 0.08, 7);
        let b = ProfileTable::profile(&d, &CompressionConfig::Fp16, true, ProfileGrid::standard(), 0.08, 7);
        assert_eq!(a, b);
        let clean = ProfileTable::profile(&d, &CompressionConfig::Fp16, true, ProfileGrid::standard(), 0.0, 7);
        let ratio = a.at(8, 2048) / clean.at(8, 2048);
        assert!((0.7..1.4).contains(&ratio), "{ratio}");
        assert_ne!(a.at(8, 2048), clean.at(8, 2048));
    }
}
