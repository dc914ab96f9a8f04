//! Admission/preemption policies for the serving engine, as data.
//!
//! A [`Scheduler`] makes exactly two decisions inside
//! [`ServerSim`](crate::ServerSim)'s iteration: which queued request to
//! try admitting next ([`AdmitOrder`]), and — when the block pool runs dry
//! mid-decode — which running sequence to evict ([`VictimRule`]).
//! Everything else (costing, block accounting, event ordering) is shared
//! engine code, so a policy is a pair of small `Copy` enums and every
//! policy inherits the engine's bit-reproducibility: all tie-breaks go
//! through monotone counters, never iteration order of a map or float
//! equality.

use std::collections::VecDeque;

use crate::server::{RunningSeq, Waiting};
use crate::{SimClock, SloPolicy, SloTargets};

/// A scheduler's read-only view of a server queue, annotated with whether
/// the queue is known to be sorted ascending by arrival time (`total_cmp`
/// order). Event-driven and fleet dispatch deliver arrivals in global time
/// order, so the flag is almost always set — and then the arrival-gated
/// scans below touch only the *arrived prefix* instead of the whole queue
/// (which at fleet scale is dominated by not-yet-arrived requests). The
/// unsorted fallback reproduces the full scans bit-for-bit, so policies
/// behave identically either way.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueView<'a> {
    queue: &'a VecDeque<Waiting>,
    sorted: bool,
}

impl<'a> QueueView<'a> {
    /// Wraps a queue; `sorted` asserts ascending-arrival order.
    pub(crate) fn new(queue: &'a VecDeque<Waiting>, sorted: bool) -> Self {
        QueueView { queue, sorted }
    }

    /// Entries that have arrived by `clock`, with their queue indices —
    /// the admission candidates. Sublinear in queue depth on a sorted
    /// queue (only the arrived prefix is walked).
    fn arrived(&self, clock: SimClock) -> impl Iterator<Item = (usize, &'a Waiting)> + '_ {
        let end = if self.sorted {
            // Arrived entries form a prefix by the sort invariant.
            self.queue
                .partition_point(|w| SimClock::from_secs(w.req.arrival_s) <= clock)
        } else {
            self.queue.len()
        };
        // On the sorted path the filter is a no-op safety net; unsorted it
        // does the actual gating, exactly as the pre-view full scan did.
        self.queue
            .iter()
            .enumerate()
            .take(end)
            .filter(move |(_, w)| SimClock::from_secs(w.req.arrival_s) <= clock)
    }

    /// Index of the earliest future arrival (ties by enqueue order) — the
    /// idle wake-up fallback every non-FCFS policy shares so idle servers
    /// wake exactly like FCFS. O(ties-at-minimum) on a sorted queue.
    fn earliest_future(&self) -> Option<usize> {
        if self.sorted {
            let first = self.queue.front()?;
            let mut best_idx = 0usize;
            let mut best_seq = first.queue_seq;
            for (i, w) in self.queue.iter().enumerate().skip(1) {
                if w.req.arrival_s.total_cmp(&first.req.arrival_s) != std::cmp::Ordering::Equal {
                    break;
                }
                if w.queue_seq < best_seq {
                    best_idx = i;
                    best_seq = w.queue_seq;
                }
            }
            return Some(best_idx);
        }
        self.queue
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.req
                    .arrival_s
                    .total_cmp(&b.req.arrival_s)
                    .then(a.queue_seq.cmp(&b.queue_seq))
            })
            .map(|(idx, _)| idx)
    }
}

/// Which queued request is tried next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOrder {
    /// Queue order: the head, arrived or not (an idle server jumps its
    /// clock to it). The seed lockstep simulator's rule.
    Arrival,
    /// Among requests that have already arrived, the one the router's
    /// length predictor expects to finish soonest (ties by enqueue order).
    /// Predictions arrive through the [`RoutePredictor`](crate::RoutePredictor)
    /// seam: the cluster stamps each request at routing time, so this
    /// consumes `rkvc_core`'s length predictor without a new dependency.
    ShortestPredicted,
    /// Earliest-deadline-first with *deadline restart*. Arrived requests
    /// are ordered by their effective TTFT deadline — an Interactive
    /// arrival with a 2 s first-token budget outranks a Batch job with
    /// hours of slack, regardless of arrival order — breaking ties by
    /// predicted length and then enqueue order. A request whose deadline
    /// has already passed cannot contribute goodput no matter when it
    /// runs, so its priority is *restarted*: it competes as if it had just
    /// arrived (effective deadline = now + class target). Naive EDF
    /// collapses under overload because it serves the most-overdue
    /// (hopeless) work first and starves the still-winnable; pushing blown
    /// work to the back instead lets it rot behind slack-rich Batch
    /// admissions and blows up the interactive tail. The restart rule sits
    /// between the two: blown work degrades to class-priority order with
    /// shortest-first within the class — never ahead of a feasible tighter
    /// deadline, never behind a looser one.
    Deadline,
}

/// Which running sequence is evicted (pushed back to the head of the
/// queue, blocks freed or spilled) when the pool runs dry mid-decode. On
/// re-admission the engine charges a full-context recompute through the
/// [`rkvc_gpu`](rkvc_gpu::DeploymentSpec::recompute) roofline model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimRule {
    /// Nobody: the growing sequence runs on at a capped KV footprint (the
    /// seed behaviour).
    Never,
    /// The youngest sequence (largest admission counter — the vLLM
    /// recompute-preemption heuristic).
    Youngest,
    /// The youngest *Batch* sequence before any Standard, and Standard
    /// before Interactive: the recompute penalty lands on the class with
    /// the loosest deadline, which is the one that can absorb it.
    BatchFirstYoungest,
}

/// An admission + preemption policy: a label and the two rules. Built by
/// [`SchedulerConfig::policy`]; the engine calls it at reproducible
/// instants and both decisions are pure functions of their arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduler {
    /// Policy name (experiment tables and benches).
    pub label: &'static str,
    /// Admission ordering.
    pub admit: AdmitOrder,
    /// Preemption victim rule.
    pub victim: VictimRule,
}

impl Scheduler {
    /// Index into `queue` of the next request to try admitting, or `None`
    /// to stop admitting this iteration. The engine applies the arrival
    /// gate itself: a pick that has not yet arrived admits only on an idle
    /// server (which jumps its clock to the arrival). With nothing arrived
    /// yet every ordering falls back to the earliest arrival, so idle
    /// servers wake exactly like FCFS. `slo` is the per-class target
    /// table; only [`AdmitOrder::Deadline`] reads it.
    pub(crate) fn admit_pick(
        &self,
        queue: &QueueView<'_>,
        clock: SimClock,
        slo: &SloTargets,
    ) -> Option<usize> {
        let arrived = match self.admit {
            AdmitOrder::Arrival => return if queue.queue.is_empty() { None } else { Some(0) },
            AdmitOrder::ShortestPredicted => queue.arrived(clock).min_by(|(_, a), (_, b)| {
                a.predicted_len
                    .total_cmp(&b.predicted_len)
                    .then(a.queue_seq.cmp(&b.queue_seq))
            }),
            AdmitOrder::Deadline => {
                let eff_deadline = |w: &Waiting| {
                    let deadline = slo.ttft_deadline(w.req.slo, w.req.arrival_s);
                    if SimClock::from_secs(deadline) < clock {
                        slo.ttft_deadline(w.req.slo, clock.secs())
                    } else {
                        deadline
                    }
                };
                queue.arrived(clock).min_by(|(_, a), (_, b)| {
                    eff_deadline(a)
                        .total_cmp(&eff_deadline(b))
                        .then(a.predicted_len.total_cmp(&b.predicted_len))
                        .then(a.queue_seq.cmp(&b.queue_seq))
                })
            }
        };
        match arrived {
            Some((idx, _)) => Some(idx),
            None => queue.earliest_future(),
        }
    }

    /// Victim among `running` to evict when the pool runs dry while a
    /// sequence tries to append a token, or `None` to let it run on
    /// capped. Never names a finished sequence (its blocks free at the end
    /// of the iteration anyway).
    pub(crate) fn preempt_victim(&self, running: &[RunningSeq]) -> Option<usize> {
        let by_class = match self.victim {
            VictimRule::Never => return None,
            VictimRule::Youngest => false,
            VictimRule::BatchFirstYoungest => true,
        };
        let mut unfinished = 0usize;
        // Maximal (class rank, admit_seq): most-sacrificable class first
        // (rank 0 throughout when classes are ignored), youngest within it
        // — deterministic because admit_seq is unique.
        let mut victim: Option<(usize, (u8, u64))> = None;
        for (idx, r) in running.iter().enumerate() {
            if r.is_finished() {
                continue;
            }
            unfinished += 1;
            let rank = if by_class { r.req.slo.victim_rank() } else { 0 };
            let key = (rank, r.admit_seq);
            if victim.is_none_or(|(_, best)| key > best) {
                victim = Some((idx, key));
            }
        }
        // With at most one unfinished sequence there is nothing sensible to
        // evict (evicting the grower for itself would thrash), so run
        // capped like the seed.
        if unfinished < 2 {
            return None;
        }
        victim.map(|(idx, _)| idx)
    }
}

/// Which scheduler a server runs — the serving-config knob threaded
/// through experiments, benches, and examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerConfig {
    /// First-come-first-served, no preemption (seed-compatible oracle).
    #[default]
    Fcfs,
    /// Shortest-predicted-first admission via the router's length
    /// predictions.
    ShortestPredictedFirst,
    /// FCFS admission + evict-and-recompute the youngest sequence when the
    /// block pool runs dry.
    Preemptive,
}

impl SchedulerConfig {
    /// All schedulers in ablation order.
    pub fn all() -> [SchedulerConfig; 3] {
        [
            SchedulerConfig::Fcfs,
            SchedulerConfig::ShortestPredictedFirst,
            SchedulerConfig::Preemptive,
        ]
    }

    /// The policy for the given SLO mode — the whole scheduler zoo as one
    /// table. FCFS is definitionally arrival-ordered, so it has no aware
    /// variant (and is bit-compatible with the seed lockstep loop, the
    /// oracle the engine is verified against); the SLO-blind SPF and
    /// preemptive rows are the bitwise oracles the aware rows are diffed
    /// against.
    pub fn policy(self, slo: SloPolicy) -> Scheduler {
        use {AdmitOrder::*, VictimRule::*};
        let (label, admit, victim) = match (self, slo) {
            (SchedulerConfig::Fcfs, _) => ("fcfs", Arrival, Never),
            (SchedulerConfig::ShortestPredictedFirst, SloPolicy::Blind) => {
                ("spf", ShortestPredicted, Never)
            }
            (SchedulerConfig::ShortestPredictedFirst, SloPolicy::Aware) => {
                ("spf+slo", Deadline, Never)
            }
            (SchedulerConfig::Preemptive, SloPolicy::Blind) => ("preemptive", Arrival, Youngest),
            (SchedulerConfig::Preemptive, SloPolicy::Aware) => {
                ("preemptive+slo", Deadline, BatchFirstYoungest)
            }
        };
        Scheduler {
            label,
            admit,
            victim,
        }
    }

    /// Table/bench label (the scheduler family, independent of SLO mode).
    pub fn label(self) -> &'static str {
        self.policy(SloPolicy::Blind).label
    }

    /// Parses a CLI-style name (`fcfs`, `spf`, `preemptive`).
    pub fn parse(s: &str) -> Option<SchedulerConfig> {
        match s {
            "fcfs" => Some(SchedulerConfig::Fcfs),
            "spf" => Some(SchedulerConfig::ShortestPredictedFirst),
            "preemptive" => Some(SchedulerConfig::Preemptive),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SloClass;

    fn waiting(id: u64, arrival_s: f64, predicted_len: f64, queue_seq: u64) -> Waiting {
        Waiting {
            req: crate::SimRequest::new(id, arrival_s, 128, 32),
            predicted_len,
            generated: 0,
            ttft_s: None,
            queue_delay_s: None,
            preemptions: 0,
            queue_seq,
            spilled: false,
        }
    }

    fn targets() -> SloTargets {
        SloTargets::default()
    }

    /// Unsorted-path view: exercises the full-scan fallback (the sorted
    /// fast path is checked for equivalence separately).
    fn view(q: &VecDeque<Waiting>) -> QueueView<'_> {
        QueueView::new(q, false)
    }

    const FCFS: SchedulerConfig = SchedulerConfig::Fcfs;
    const SPF: SchedulerConfig = SchedulerConfig::ShortestPredictedFirst;
    const PREEMPTIVE: SchedulerConfig = SchedulerConfig::Preemptive;

    fn blind(cfg: SchedulerConfig) -> Scheduler {
        cfg.policy(SloPolicy::Blind)
    }

    fn aware(cfg: SchedulerConfig) -> Scheduler {
        cfg.policy(SloPolicy::Aware)
    }

    #[test]
    fn policy_table_pins_all_six_cells() {
        use {AdmitOrder::*, VictimRule::*};
        let cells = [
            (FCFS, SloPolicy::Blind, "fcfs", Arrival, Never),
            (FCFS, SloPolicy::Aware, "fcfs", Arrival, Never),
            (SPF, SloPolicy::Blind, "spf", ShortestPredicted, Never),
            (SPF, SloPolicy::Aware, "spf+slo", Deadline, Never),
            (PREEMPTIVE, SloPolicy::Blind, "preemptive", Arrival, Youngest),
            (
                PREEMPTIVE,
                SloPolicy::Aware,
                "preemptive+slo",
                Deadline,
                BatchFirstYoungest,
            ),
        ];
        for (cfg, slo, label, admit, victim) in cells {
            assert_eq!(
                cfg.policy(slo),
                Scheduler {
                    label,
                    admit,
                    victim
                },
                "{cfg:?} x {slo:?}"
            );
        }
    }

    #[test]
    fn fcfs_always_picks_the_head() {
        let q: VecDeque<Waiting> = vec![
            waiting(0, 0.0, 99.0, 0),
            waiting(1, 0.1, 1.0, 1),
        ]
        .into();
        let t = targets();
        assert_eq!(
            blind(FCFS).admit_pick(&view(&q), SimClock::from_secs(1.0), &t),
            Some(0)
        );
        let empty = VecDeque::new();
        assert_eq!(
            blind(FCFS).admit_pick(&view(&empty), SimClock::ZERO, &t),
            None
        );
    }

    #[test]
    fn spf_picks_shortest_arrived_then_earliest_future() {
        let q: VecDeque<Waiting> = vec![
            waiting(0, 0.0, 50.0, 0),
            waiting(1, 0.1, 10.0, 1),
            waiting(2, 5.0, 1.0, 2), // shortest but not yet arrived
        ]
        .into();
        let t = targets();
        assert_eq!(
            blind(SPF).admit_pick(&view(&q), SimClock::from_secs(1.0), &t),
            Some(1)
        );
        // Before anything arrives: earliest arrival wins, not shortest.
        assert_eq!(
            blind(SPF).admit_pick(&view(&q), SimClock::from_secs(-1.0), &t),
            Some(0)
        );
    }

    #[test]
    fn spf_breaks_prediction_ties_by_enqueue_order() {
        let q: VecDeque<Waiting> = vec![
            waiting(7, 0.0, 10.0, 4),
            waiting(3, 0.0, 10.0, 2),
        ]
        .into();
        // Equal predictions: lower queue_seq wins regardless of position.
        assert_eq!(
            blind(SPF).admit_pick(&view(&q), SimClock::from_secs(1.0), &targets()),
            Some(1)
        );
    }

    #[test]
    fn sorted_view_matches_unsorted_scan_on_sorted_queues() {
        // The sorted fast path must be pick-identical to the full scan on
        // any arrival-ordered queue, at clocks that split the queue into
        // every possible arrived-prefix length (including ties at the
        // boundary and duplicate arrival times).
        let q: VecDeque<Waiting> = vec![
            waiting(0, 0.0, 50.0, 0),
            waiting(1, 0.5, 10.0, 1),
            waiting(2, 0.5, 10.0, 2), // duplicate arrival + prediction tie
            waiting(3, 2.0, 1.0, 3),
            waiting(4, 9.0, 5.0, 4),
        ]
        .into();
        let t = targets();
        for clock_s in [-1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 9.0, 20.0] {
            let clock = SimClock::from_secs(clock_s);
            let sorted = QueueView::new(&q, true);
            let unsorted = QueueView::new(&q, false);
            for sched in [blind(SPF), aware(SPF), blind(FCFS)] {
                assert_eq!(
                    sched.admit_pick(&sorted, clock, &t),
                    sched.admit_pick(&unsorted, clock, &t),
                    "{} at clock {clock_s}",
                    sched.label
                );
            }
            assert_eq!(sorted.earliest_future(), unsorted.earliest_future());
            let a: Vec<usize> = sorted.arrived(clock).map(|(i, _)| i).collect();
            let b: Vec<usize> = unsorted.arrived(clock).map(|(i, _)| i).collect();
            assert_eq!(a, b, "arrived sets diverge at clock {clock_s}");
        }
    }

    #[test]
    fn earliest_future_breaks_arrival_ties_by_queue_seq_when_sorted() {
        // A preempted entry (old queue_seq) re-queued at the front with the
        // same arrival as its neighbour: the sorted tie-scan must pick the
        // lower queue_seq exactly like the full scan.
        let q: VecDeque<Waiting> = vec![
            waiting(5, 1.0, 9.0, 7),
            waiting(6, 1.0, 9.0, 3),
            waiting(7, 4.0, 9.0, 8),
        ]
        .into();
        assert_eq!(QueueView::new(&q, true).earliest_future(), Some(1));
        assert_eq!(QueueView::new(&q, false).earliest_future(), Some(1));
    }

    fn waiting_class(
        id: u64,
        arrival_s: f64,
        predicted_len: f64,
        queue_seq: u64,
        class: SloClass,
    ) -> Waiting {
        let mut w = waiting(id, arrival_s, predicted_len, queue_seq);
        w.req = w.req.with_slo(class);
        w
    }

    #[test]
    fn slo_spf_admits_by_ttft_deadline_not_length() {
        // A long Interactive request vs. a short Batch job, both arrived.
        let q: VecDeque<Waiting> = vec![
            waiting_class(0, 0.0, 500.0, 0, SloClass::Interactive),
            waiting_class(1, 0.0, 1.0, 1, SloClass::Batch),
        ]
        .into();
        let t = targets();
        // Blind SPF chases the short job; aware SPF honours the deadline.
        assert_eq!(
            blind(SPF).admit_pick(&view(&q), SimClock::from_secs(1.0), &t),
            Some(1)
        );
        assert_eq!(
            aware(SPF).admit_pick(&view(&q), SimClock::from_secs(1.0), &t),
            Some(0)
        );
        // Idle fallback matches SPF: earliest future arrival.
        let future: VecDeque<Waiting> = vec![
            waiting_class(0, 5.0, 1.0, 0, SloClass::Interactive),
            waiting_class(1, 3.0, 9.0, 1, SloClass::Batch),
        ]
        .into();
        assert_eq!(
            aware(SPF).admit_pick(&view(&future), SimClock::ZERO, &t),
            Some(1)
        );
    }

    fn running_seq(id: u64, admit_seq: u64, class: SloClass) -> RunningSeq {
        RunningSeq {
            req: crate::SimRequest::new(id, 0.0, 128, 32).with_slo(class),
            target_len: 32,
            generated: 1,
            kv_len: 129,
            ttft_s: 0.1,
            queue_delay_s: 0.0,
            predicted_len: 32.0,
            preemptions: 0,
            admit_seq,
            queue_seq: id,
        }
    }

    #[test]
    fn slo_preemptive_evicts_batch_before_interactive() {
        let running = vec![
            running_seq(0, 0, SloClass::Interactive),
            running_seq(1, 1, SloClass::Batch),
            running_seq(2, 2, SloClass::Interactive), // youngest overall
        ];
        // Blind: youngest (admit_seq 2). Aware: the Batch sequence.
        assert_eq!(blind(PREEMPTIVE).preempt_victim(&running), Some(2));
        assert_eq!(aware(PREEMPTIVE).preempt_victim(&running), Some(1));
        // Single unfinished sequence: nobody preempts.
        assert_eq!(aware(PREEMPTIVE).preempt_victim(&running[..1]), None);
    }

    #[test]
    fn never_rule_names_no_victim_even_with_two_unfinished_sequences() {
        let running = vec![
            running_seq(0, 0, SloClass::Standard),
            running_seq(1, 1, SloClass::Batch),
        ];
        assert!(running.iter().all(|r| !r.is_finished()));
        for sched in [blind(FCFS), blind(SPF), aware(SPF)] {
            assert_eq!(sched.victim, VictimRule::Never);
            assert_eq!(sched.preempt_victim(&running), None, "{}", sched.label);
        }
        // The same batch under a preempting rule does name one.
        assert_eq!(blind(PREEMPTIVE).preempt_victim(&running), Some(1));
    }

    #[test]
    fn scheduler_config_round_trips_labels() {
        for cfg in SchedulerConfig::all() {
            assert_eq!(SchedulerConfig::parse(cfg.label()), Some(cfg));
        }
        assert_eq!(SchedulerConfig::parse("nope"), None);
        assert_eq!(SchedulerConfig::default(), SchedulerConfig::Fcfs);
        // Aware variants are distinct policies for SPF/preemptive, and the
        // same FCFS policy either way.
        assert_eq!(aware(FCFS), blind(FCFS));
        assert_eq!(aware(SPF).label, "spf+slo");
        assert_eq!(aware(PREEMPTIVE).label, "preemptive+slo");
    }
}
