//! Order statistics: nearest-rank percentiles, the tail percentile a sample
//! count supports, and the quartile spread the acceptance rule uses.

/// Returns `values` sorted ascending (total order, so NaN cannot panic).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p/100 * n)`, clamped to `1..=n`.
///
/// # Panics
///
/// Panics on an empty slice: a metric without samples is a harness bug.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// `ceil(p/100 * n)`, with a hair of slack so that a product such as
/// `99.9/100 * 10000`, which rounds up to 9990.000000000002, still ranks 9990.
fn nearest_rank(p: f64, n: usize) -> usize {
    (p / 100.0 * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Nearest-rank median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Percentiles a tail metric may be reported at, lowest first.
pub const TAIL_CANDIDATES: [f64; 4] = [90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest of [`TAIL_CANDIDATES`] with at least [`TAIL_MIN_BEYOND`]
/// samples beyond its nearest rank, or `None` when even p90 has fewer.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|&p| n.saturating_sub(nearest_rank(p, n)) >= TAIL_MIN_BEYOND)
}

/// The tail of unsorted values: `(percentile, value)` at the highest
/// supported percentile, falling back to the maximum (reported as p100)
/// when the sample is too small for any candidate.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    match supported_tail(s.len()) {
        Some(p) => (p, percentile(&s, p)),
        None => (100.0, percentile(&s, 100.0)),
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method), so spreads printed here match the ones the
/// acceptance rule is stated in. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile range as a share of the median; `None` below two values
/// or at a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        // n = 3: ceil(0.5 * 3) = 2, the true middle.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(median(&[9.0, 1.0, 5.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 has rank 90 and ten samples beyond it; 99 has nine.
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(9999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 190.0));
        assert_eq!(tail(&[4.0, 2.0]), (100.0, 4.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
