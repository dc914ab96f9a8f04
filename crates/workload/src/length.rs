//! Response-length difference statistics (paper §4.3).
//!
//! The paper's statistic is `D = (L_un - L_cs) / L_un`, where `L_un` is the
//! uncompressed response length and `L_cs` the compressed one. `D < 0`
//! means compression made the response *longer*.

/// The paper's length-difference statistic `D = (L_un - L_cs) / L_un`.
///
/// Returns 0 when `l_un == 0` (no reference to compare against).
///
/// # Examples
///
/// ```
/// use rkvc_workload::length_difference;
/// // Compression doubled the response: D = -1.
/// assert_eq!(length_difference(10, 20), -1.0);
/// // Compression halved it: D = 0.5.
/// assert_eq!(length_difference(10, 5), 0.5);
/// ```
pub fn length_difference(l_un: usize, l_cs: usize) -> f64 {
    if l_un == 0 {
        0.0
    } else {
        (l_un as f64 - l_cs as f64) / l_un as f64
    }
}

/// Distribution statistics over a collection of `D` values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LengthStats {
    values: Vec<f64>,
}

impl LengthStats {
    /// Creates stats over the given `D` values.
    pub fn new(values: Vec<f64>) -> Self {
        LengthStats { values }
    }

    /// Builds stats from paired (uncompressed, compressed) lengths.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (usize, usize)>) -> Self {
        LengthStats {
            values: pairs
                .into_iter()
                .map(|(u, c)| length_difference(u, c))
                .collect(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Underlying `D` values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Fraction of samples with `D >= threshold` (responses that *shrank*
    /// by at least the threshold when positive).
    pub fn frac_ge(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().filter(|&&d| d >= threshold).count() as f64 / self.values.len() as f64
    }

    /// Fraction of samples with `D <= threshold` (responses that *grew*:
    /// the paper's `D <= -50%` row).
    pub fn frac_le(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().filter(|&&d| d <= threshold).count() as f64 / self.values.len() as f64
    }

    /// Mean of `D`.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            rkvc_tensor::seq_sum_f64(self.values.iter().copied()) / self.values.len() as f64
        }
    }

    /// Standard deviation of `D` — the paper's "flattening" measure for
    /// rising compression ratios (Figure 4).
    pub fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        (rkvc_tensor::seq_sum_f64(self.values.iter().map(|v| (v - m).powi(2)))
            / (self.values.len() - 1) as f64)
            .sqrt()
    }

    /// Histogram of `D` over `[lo, hi)` with `bins` equal-width buckets;
    /// out-of-range values clamp to the edge buckets. Returns bucket
    /// centers and counts.
    pub fn histogram(&self, lo: f64, hi: f64, bins: usize) -> Vec<(f64, usize)> {
        assert!(bins > 0 && hi > lo, "invalid histogram range");
        let width = (hi - lo) / bins as f64;
        let mut counts = vec![0usize; bins];
        for &v in &self.values {
            let idx = (((v - lo) / width).floor() as i64).clamp(0, bins as i64 - 1) as usize;
            counts[idx] += 1;
        }
        counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| (lo + width * (i as f64 + 0.5), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d_statistic_signs() {
        assert!(length_difference(10, 20) < 0.0); // Longer under compression.
        assert!(length_difference(10, 5) > 0.0); // Shorter.
        assert_eq!(length_difference(10, 10), 0.0);
        assert_eq!(length_difference(0, 5), 0.0);
    }

    #[test]
    fn fractions_match_hand_count() {
        let s = LengthStats::new(vec![-1.0, -0.6, -0.2, 0.0, 0.3, 0.7]);
        assert!((s.frac_le(-0.5) - 2.0 / 6.0).abs() < 1e-12);
        assert!((s.frac_ge(0.5) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_covers_all_samples() {
        let s = LengthStats::new(vec![-2.0, -0.5, 0.0, 0.5, 3.0]);
        let hist = s.histogram(-1.0, 1.0, 4);
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 5); // Out-of-range clamped, not dropped.
        assert_eq!(hist.len(), 4);
    }

    #[test]
    fn wider_distribution_has_larger_std() {
        let narrow = LengthStats::new(vec![-0.1, 0.0, 0.1]);
        let wide = LengthStats::new(vec![-1.0, 0.0, 1.0]);
        assert!(wide.std_dev() > narrow.std_dev());
    }

    #[test]
    fn from_pairs_matches_scalar() {
        let s = LengthStats::from_pairs(vec![(10, 20), (10, 5)]);
        assert_eq!(s.values(), &[-1.0, 0.5]);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = LengthStats::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.frac_ge(0.5), 0.0);
        assert!(s.is_empty());
    }
}
