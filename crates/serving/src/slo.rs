//! Service-level-objective classes, targets, and scheduler policy knob.
//!
//! Production traffic is not homogeneous: an interactive chat turn has a
//! tight time-to-first-token budget, a background summarization job does
//! not. This module gives every request an [`SloClass`] with per-class
//! TTFT/TBT targets (the one [`SloTargets::default`] table), and an
//! [`SloPolicy`] knob that switches the SPF and preemptive schedulers
//! between their SLO-blind orderings (the bitwise oracles) and
//! deadline-slack / class-aware variants.
//!
//! Attainment is per-request: a completion meets its SLO when both its
//! TTFT and its mean time-between-tokens land within the class targets.
//! The [`goodput`](crate::SloMetrics) metric weights throughput by
//! attainment — tokens delivered *within* SLO per second — which is the
//! joint quality/performance score the long-context serving benchmark
//! literature argues for.

/// A request's latency class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum SloClass {
    /// Chat-style traffic with a tight first-token budget.
    Interactive,
    /// Default API traffic.
    #[default]
    Standard,
    /// Offline/background jobs: loose targets, first preemption victims.
    Batch,
}

impl SloClass {
    /// All classes, interactive-first (reporting order).
    pub fn all() -> [SloClass; 3] {
        [SloClass::Interactive, SloClass::Standard, SloClass::Batch]
    }

    /// Table/CLI label.
    pub fn label(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Standard => "standard",
            SloClass::Batch => "batch",
        }
    }

    /// Parses a CLI-style name.
    pub fn parse(s: &str) -> Option<SloClass> {
        match s {
            "interactive" => Some(SloClass::Interactive),
            "standard" => Some(SloClass::Standard),
            "batch" => Some(SloClass::Batch),
            _ => None,
        }
    }

    /// Preemption preference: larger sacrifices first (Batch before
    /// Standard before Interactive).
    pub(crate) fn victim_rank(self) -> u8 {
        match self {
            SloClass::Interactive => 0,
            SloClass::Standard => 1,
            SloClass::Batch => 2,
        }
    }
}

/// One class's latency targets (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTarget {
    /// Time-to-first-token budget.
    pub ttft_s: f64,
    /// Mean time-between-output-tokens budget.
    pub tbt_s: f64,
}

impl SloTarget {
    /// Whether a completion with the given latencies meets this target.
    pub fn met(&self, ttft_s: f64, tbot_s: f64) -> bool {
        ttft_s <= self.ttft_s && tbot_s <= self.tbt_s
    }
}

/// Per-class latency targets. Every server scores and schedules against
/// the one [`SloTargets::default`] table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTargets {
    /// Targets for [`SloClass::Interactive`].
    pub interactive: SloTarget,
    /// Targets for [`SloClass::Standard`].
    pub standard: SloTarget,
    /// Targets for [`SloClass::Batch`].
    pub batch: SloTarget,
}

impl Default for SloTargets {
    /// Simulated-seconds defaults shaped like production tiers: chat wants
    /// its first token fast, batch tolerates minutes of queueing.
    fn default() -> Self {
        SloTargets {
            interactive: SloTarget {
                ttft_s: 2.0,
                tbt_s: 0.1,
            },
            standard: SloTarget {
                ttft_s: 15.0,
                tbt_s: 0.25,
            },
            batch: SloTarget {
                ttft_s: 240.0,
                tbt_s: 1.0,
            },
        }
    }
}

impl SloTargets {
    /// The target for a class.
    pub fn target(&self, class: SloClass) -> SloTarget {
        match class {
            SloClass::Interactive => self.interactive,
            SloClass::Standard => self.standard,
            SloClass::Batch => self.batch,
        }
    }

    /// The admission deadline for a request of `class` arriving at
    /// `arrival_s`: the instant its first token must be out.
    pub fn ttft_deadline(&self, class: SloClass, arrival_s: f64) -> f64 {
        arrival_s + self.target(class).ttft_s
    }
}

/// Whether schedulers consult SLO classes. `Blind` (the default) keeps the
/// existing orderings bit-for-bit — the oracles every refactor is verified
/// against — while `Aware` switches SPF to deadline-slack admission and the
/// preemptive policy to Batch-first victim selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SloPolicy {
    /// Schedulers ignore SLO classes (seed-compatible orderings).
    #[default]
    Blind,
    /// Deadline-slack admission + class-preferring preemption.
    Aware,
}

impl SloPolicy {
    /// Both policies, blind (baseline) first.
    pub fn all() -> [SloPolicy; 2] {
        [SloPolicy::Blind, SloPolicy::Aware]
    }

    /// Table/CLI label.
    pub fn label(self) -> &'static str {
        match self {
            SloPolicy::Blind => "slo-blind",
            SloPolicy::Aware => "slo-aware",
        }
    }

    /// Parses a CLI-style name (`blind` / `aware`, with or without the
    /// `slo-` prefix).
    pub fn parse(s: &str) -> Option<SloPolicy> {
        match s {
            "blind" | "slo-blind" => Some(SloPolicy::Blind),
            "aware" | "slo-aware" => Some(SloPolicy::Aware),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_labels_round_trip() {
        for c in SloClass::all() {
            assert_eq!(SloClass::parse(c.label()), Some(c));
        }
        assert_eq!(SloClass::parse("nope"), None);
        assert_eq!(SloClass::default(), SloClass::Standard);
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in SloPolicy::all() {
            assert_eq!(SloPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(SloPolicy::parse("aware"), Some(SloPolicy::Aware));
        assert_eq!(SloPolicy::default(), SloPolicy::Blind);
    }

    #[test]
    fn default_targets_are_ordered_and_positive() {
        let t = SloTargets::default();
        for class in SloClass::all() {
            let target = t.target(class);
            assert!(target.ttft_s > 0.0 && target.ttft_s.is_finite());
            assert!(target.tbt_s > 0.0 && target.tbt_s.is_finite());
        }
        assert!(t.interactive.ttft_s < t.standard.ttft_s);
        assert!(t.standard.ttft_s < t.batch.ttft_s);
        assert!(t.ttft_deadline(SloClass::Interactive, 1.0) > 1.0);
    }

    #[test]
    fn target_met_checks_both_axes() {
        let t = SloTarget {
            ttft_s: 1.0,
            tbt_s: 0.1,
        };
        assert!(t.met(0.5, 0.05));
        assert!(!t.met(1.5, 0.05));
        assert!(!t.met(0.5, 0.2));
        // Boundary inclusive.
        assert!(t.met(1.0, 0.1));
    }

    #[test]
    fn victim_rank_prefers_batch() {
        assert!(SloClass::Batch.victim_rank() > SloClass::Standard.victim_rank());
        assert!(SloClass::Standard.victim_rank() > SloClass::Interactive.victim_rank());
    }
}
