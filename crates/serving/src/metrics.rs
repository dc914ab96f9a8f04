//! Latency reductions: percentiles and CDFs, plus per-request serving
//! metric summaries (TTFT / TBT / queue delay / E2E) for experiment tables —
//! and, for mixed-class traffic, per-[`SloClass`] breakdowns with
//! attainment and goodput ([`SloMetrics`]).

use crate::{CompletedRequest, SloClass};

/// Summary statistics over a set of latencies (seconds): every sample,
/// sorted.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    sorted: Vec<f64>,
}

impl LatencySummary {
    /// Builds a summary from raw latencies (NaNs are rejected).
    ///
    /// # Panics
    ///
    /// Panics if any latency is NaN.
    pub fn new(mut latencies: Vec<f64>) -> Self {
        assert!(
            latencies.iter().all(|l| !l.is_nan()),
            "latencies must not be NaN"
        );
        latencies.sort_by(|a, b| a.total_cmp(b));
        LatencySummary { sorted: latencies }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the summary is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Mean latency.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            rkvc_tensor::seq_sum_f64(self.sorted.iter().copied()) / self.sorted.len() as f64
        }
    }

    /// Percentile in `[0, 100]` by the nearest-rank method: the sample at
    /// rank `ceil(p/100 * n)` (1-based), clamped to `[1, n]` so `p = 0`
    /// returns the minimum. Returns `0.0` on an empty summary, consistent
    /// with [`mean`](Self::mean) and [`max`](Self::max), so a
    /// zero-completion run cannot abort an experiment sweep.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.sorted[rank.clamp(1, n) - 1]
    }

    /// Median latency.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    /// 99th-percentile (tail) latency — where Figure 5 separates GEAR.
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// Maximum latency.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Empirical CDF evaluated at `points`: fraction of samples `<= x`.
    pub fn cdf(&self, points: &[f64]) -> Vec<f64> {
        points
            .iter()
            .map(|&x| {
                if self.sorted.is_empty() {
                    0.0
                } else {
                    self.sorted.partition_point(|&v| v <= x) as f64 / self.sorted.len() as f64
                }
            })
            .collect()
    }
}

/// Per-request serving metric summaries over a set of completions — the
/// paper's serving-quality surface (§2.4): time-to-first-token, time
/// between output tokens, scheduler queue delay, and end-to-end latency,
/// each with full percentile support, plus preemption counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingMetrics {
    /// Completions summarized.
    pub completed: usize,
    /// Time-to-first-token (s).
    pub ttft: LatencySummary,
    /// Time between output tokens (s/token after the first).
    pub tbt: LatencySummary,
    /// Queue delay before first admission (s).
    pub queue_delay: LatencySummary,
    /// End-to-end latency (s).
    pub e2e: LatencySummary,
    /// Total preemptions across all requests.
    pub preemptions: usize,
}

impl ServingMetrics {
    /// Summarizes a completion stream (input order does not matter — every
    /// summary sorts its samples).
    pub fn from_completed(done: &[CompletedRequest]) -> Self {
        ServingMetrics {
            completed: done.len(),
            ttft: LatencySummary::new(done.iter().map(|c| c.ttft_s).collect()),
            tbt: LatencySummary::new(done.iter().map(|c| c.tbot_s()).collect()),
            queue_delay: LatencySummary::new(done.iter().map(|c| c.queue_delay_s).collect()),
            e2e: LatencySummary::new(done.iter().map(|c| c.e2e_s).collect()),
            preemptions: done.iter().map(|c| c.preemptions).sum(),
        }
    }

    /// The summary rows experiments emit: mean / p50 / p95 / p99 for each
    /// metric (zeros when empty).
    pub fn row(&self, summary: &LatencySummary) -> [f64; 4] {
        if summary.is_empty() {
            return [0.0; 4];
        }
        [summary.mean(), summary.p50(), summary.p95(), summary.p99()]
    }
}

/// One [`SloClass`]'s slice of a mixed-class run: completions, per-request
/// SLO attainment, token counts, and the class's own latency summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassMetrics {
    /// The class summarized.
    pub class: SloClass,
    /// Completions in this class.
    pub completed: usize,
    /// Completions whose TTFT *and* mean TBT met the class targets.
    pub slo_met: usize,
    /// Tokens generated by this class.
    pub generated_tokens: usize,
    /// Tokens generated by completions that met their SLO.
    pub attained_tokens: usize,
    /// Time-to-first-token (s).
    pub ttft: LatencySummary,
    /// Time between output tokens (s/token after the first).
    pub tbt: LatencySummary,
    /// End-to-end latency (s).
    pub e2e: LatencySummary,
}

impl ClassMetrics {
    /// Fraction of this class's completions that met their SLO (1.0 when
    /// the class is empty — no request missed).
    pub fn attainment(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            self.slo_met as f64 / self.completed as f64
        }
    }
}

/// SLO-centric summary of a mixed-class run: per-class breakdowns plus the
/// run-level throughput/goodput pair. *Goodput* counts only tokens from
/// completions that met their class targets, per second of makespan — the
/// joint quality/performance score SLO-aware scheduling optimizes. By
/// construction `0 <= goodput <= throughput`.
#[derive(Debug, Clone, PartialEq)]
pub struct SloMetrics {
    /// Per-class breakdowns in [`SloClass::all`] (reporting) order.
    pub per_class: Vec<ClassMetrics>,
    /// Total completions.
    pub completed: usize,
    /// Completions that met their class targets.
    pub slo_met: usize,
    /// Total tokens generated.
    pub generated_tokens: usize,
    /// Tokens from SLO-meeting completions.
    pub attained_tokens: usize,
    /// First arrival to last completion (s); 0 when empty.
    pub makespan_s: f64,
    /// Generated tokens per makespan second.
    pub throughput_tps: f64,
    /// Attained (within-SLO) tokens per makespan second.
    pub goodput_tps: f64,
}

impl SloMetrics {
    /// Summarizes a completion stream (input order does not matter).
    pub fn from_completed(done: &[CompletedRequest]) -> Self {
        let per_class: Vec<ClassMetrics> = SloClass::all()
            .into_iter()
            .map(|class| {
                let of_class: Vec<&CompletedRequest> =
                    done.iter().filter(|c| c.slo == class).collect();
                ClassMetrics {
                    class,
                    completed: of_class.len(),
                    slo_met: of_class.iter().filter(|c| c.slo_ok).count(),
                    generated_tokens: of_class.iter().map(|c| c.generated).sum(),
                    attained_tokens: of_class
                        .iter()
                        .filter(|c| c.slo_ok)
                        .map(|c| c.generated)
                        .sum(),
                    ttft: LatencySummary::new(of_class.iter().map(|c| c.ttft_s).collect()),
                    tbt: LatencySummary::new(of_class.iter().map(|c| c.tbot_s()).collect()),
                    e2e: LatencySummary::new(of_class.iter().map(|c| c.e2e_s).collect()),
                }
            })
            .collect();
        let completed = done.len();
        let slo_met = per_class.iter().map(|c| c.slo_met).sum();
        let generated_tokens = per_class.iter().map(|c| c.generated_tokens).sum();
        let attained_tokens = per_class.iter().map(|c| c.attained_tokens).sum();
        let first_arrival = done
            .iter()
            .map(|c| c.arrival_s)
            .min_by(|a, b| a.total_cmp(b));
        let last_done = done
            .iter()
            .map(|c| c.arrival_s + c.e2e_s)
            .max_by(|a, b| a.total_cmp(b));
        let makespan_s = match (first_arrival, last_done) {
            (Some(a), Some(b)) => (b - a).max(0.0),
            _ => 0.0,
        };
        let rate = |tokens: usize| {
            if makespan_s > 0.0 {
                tokens as f64 / makespan_s
            } else {
                0.0
            }
        };
        SloMetrics {
            throughput_tps: rate(generated_tokens),
            goodput_tps: rate(attained_tokens),
            per_class,
            completed,
            slo_met,
            generated_tokens,
            attained_tokens,
            makespan_s,
        }
    }

    /// Fraction of completions that met their SLO (1.0 when empty).
    pub fn attainment(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            self.slo_met as f64 / self.completed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_data() {
        let s = LatencySummary::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p95(), 95.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_at_small_n() {
        // n = 3: rank(p) = ceil(3p/100). p50 -> rank 2, p95/p99 -> rank 3.
        let s = LatencySummary::new(vec![10.0, 20.0, 30.0]);
        assert_eq!(s.p50(), 20.0);
        assert_eq!(s.p95(), 30.0);
        assert_eq!(s.p99(), 30.0);
        assert_eq!(s.percentile(0.0), 10.0);
        // n = 40: p99 -> rank ceil(39.6) = 40, the true nearest-rank
        // sample (the floored linear index regressed to sorted[38]).
        let s = LatencySummary::new((1..=40).map(|i| i as f64).collect());
        assert_eq!(s.p99(), 40.0);
        assert_eq!(s.p95(), 38.0); // ceil(38.0) = 38.
        assert_eq!(s.p50(), 20.0); // ceil(20.0) = 20.
    }

    #[test]
    fn empty_summary_is_all_zeros_not_a_panic() {
        let s = LatencySummary::new(Vec::new());
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.p95(), 0.0);
        assert_eq!(s.p99(), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let s = LatencySummary::new(vec![1.0, 2.0, 2.0, 5.0]);
        let pts: Vec<f64> = (0..=6).map(|i| i as f64).collect();
        let cdf = s.cdf(&pts);
        assert_eq!(cdf[0], 0.0);
        assert_eq!(cdf[6], 1.0);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(cdf[2], 0.75); // 3 of 4 samples <= 2.
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let s = LatencySummary::new(vec![5.0, 1.0, 3.0]);
        assert_eq!(s.p50(), 3.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        LatencySummary::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn serving_metrics_summarize_completions() {
        let mk = |id: u64, ttft: f64, e2e: f64, q: f64, gen: usize, pre: usize| CompletedRequest {
            id,
            server_id: 0,
            arrival_s: 0.0,
            ttft_s: ttft,
            e2e_s: e2e,
            generated: gen,
            queue_delay_s: q,
            preemptions: pre,
            slo: SloClass::Standard,
            slo_ok: true,
            session: None,
        };
        let done = vec![
            mk(0, 1.0, 11.0, 0.5, 101, 0),
            mk(1, 2.0, 4.0, 0.0, 3, 2),
        ];
        let m = ServingMetrics::from_completed(&done);
        assert_eq!(m.completed, 2);
        assert_eq!(m.preemptions, 2);
        assert!((m.ttft.mean() - 1.5).abs() < 1e-12);
        // TBTs: (11-1)/100 = 0.1 and (4-2)/2 = 1.0.
        assert!((m.tbt.max() - 1.0).abs() < 1e-12);
        assert!((m.queue_delay.max() - 0.5).abs() < 1e-12);
        let row = m.row(&m.e2e);
        assert!((row[0] - 7.5).abs() < 1e-12);
        assert_eq!(m.e2e.max(), 11.0);
        let empty = ServingMetrics::from_completed(&[]);
        assert_eq!(empty.row(&empty.ttft), [0.0; 4]);
    }

    #[test]
    fn slo_metrics_split_by_class_and_bound_goodput() {
        let mk = |id: u64,
                  class: SloClass,
                  ok: bool,
                  arrival: f64,
                  e2e: f64,
                  gen: usize| CompletedRequest {
            id,
            server_id: 0,
            arrival_s: arrival,
            ttft_s: 0.5,
            e2e_s: e2e,
            generated: gen,
            queue_delay_s: 0.0,
            preemptions: 0,
            slo: class,
            slo_ok: ok,
            session: None,
        };
        let done = vec![
            mk(0, SloClass::Interactive, true, 0.0, 4.0, 100),
            mk(1, SloClass::Interactive, false, 1.0, 6.0, 50),
            mk(2, SloClass::Batch, true, 2.0, 8.0, 200),
        ];
        let m = SloMetrics::from_completed(&done);
        assert_eq!(m.completed, 3);
        assert_eq!(m.slo_met, 2);
        assert_eq!(m.generated_tokens, 350);
        assert_eq!(m.attained_tokens, 300);
        // Makespan: last completion at 2 + 8 = 10, first arrival at 0.
        assert!((m.makespan_s - 10.0).abs() < 1e-12);
        assert!((m.throughput_tps - 35.0).abs() < 1e-12);
        assert!((m.goodput_tps - 30.0).abs() < 1e-12);
        assert!(m.goodput_tps <= m.throughput_tps);
        assert!((m.attainment() - 2.0 / 3.0).abs() < 1e-12);
        // Per-class rows come back in reporting order with correct splits.
        assert_eq!(m.per_class.len(), 3);
        assert_eq!(m.per_class[0].class, SloClass::Interactive);
        assert_eq!(m.per_class[0].completed, 2);
        assert_eq!(m.per_class[0].slo_met, 1);
        assert_eq!(m.per_class[0].attained_tokens, 100);
        assert_eq!(m.per_class[1].class, SloClass::Standard);
        assert_eq!(m.per_class[1].completed, 0);
        assert_eq!(m.per_class[1].attainment(), 1.0);
        assert_eq!(m.per_class[2].class, SloClass::Batch);
        assert_eq!(m.per_class[2].completed, 1);
        // Per-class completions sum to the total.
        let sum: usize = m.per_class.iter().map(|c| c.completed).sum();
        assert_eq!(sum, m.completed);
        // Empty stream: all zeros, no division blowups.
        let empty = SloMetrics::from_completed(&[]);
        assert_eq!(empty.makespan_s, 0.0);
        assert_eq!(empty.throughput_tps, 0.0);
        assert_eq!(empty.goodput_tps, 0.0);
        assert_eq!(empty.attainment(), 1.0);
    }
}
