//! Telemetry-driven autoscaling for the fleet layer.
//!
//! At every epoch boundary the fleet samples one [`FleetTelemetry`] frame
//! (queue depth, in-flight batch, epoch p99 TTFT across active replicas)
//! and feeds it to an [`Autoscaler`], which answers with a
//! [`ScaleAction`]: add replicas, drain the newest ones, or hold. Drained
//! replicas finish their in-flight and queued work, spill parked session
//! KV, and take no further dispatch; once empty they retire. Because the
//! decision consumes only simulated telemetry, autoscaled runs stay
//! bit-reproducible at any `RKVC_THREADS`.

use crate::metrics::LatencySummary;

/// Autoscaling thresholds and actuation limits.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleConfig {
    /// Floor on active replicas — drains never go below this.
    pub min_replicas: usize,
    /// Ceiling on active replicas — adds never exceed this.
    pub max_replicas: usize,
    /// Scale up when mean queued-per-active-replica exceeds this.
    pub queue_high: f64,
    /// Scale down when mean queued-per-active-replica falls below this
    /// (and the latency signal is healthy).
    pub queue_low: f64,
    /// Scale up when the epoch's p99 TTFT exceeds this (seconds).
    pub p99_ttft_high_s: f64,
    /// Epochs to hold after any action before acting again.
    pub cooldown_epochs: u32,
    /// Replicas added per scale-up action (drains go one at a time —
    /// shrinking remaps ~1/n of the key space per step under jump
    /// hashing, so gradual is cheap and abrupt is not).
    pub step: usize,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            min_replicas: 1,
            max_replicas: 64,
            queue_high: 8.0,
            queue_low: 1.0,
            p99_ttft_high_s: 30.0,
            cooldown_epochs: 2,
            step: 2,
        }
    }
}

/// One epoch-boundary telemetry frame, aggregated over active replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTelemetry {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Simulated time at the epoch boundary (seconds).
    pub time_s: f64,
    /// Active (dispatchable) replicas when the frame was sampled — before
    /// the epoch's scale action (if any) applies.
    pub active_replicas: usize,
    /// Draining replicas still finishing work at the boundary.
    pub draining_replicas: usize,
    /// Requests queued (not yet admitted) across active replicas.
    pub queued: usize,
    /// Sequences running across active replicas.
    pub running: usize,
    /// Requests completed fleet-wide during this epoch.
    pub epoch_completed: usize,
    /// p99 TTFT over this epoch's completions (0 when none completed).
    pub epoch_p99_ttft_s: f64,
}

impl FleetTelemetry {
    /// Builds a frame from raw epoch aggregates; the p99 signal comes from
    /// the epoch's completion TTFTs (0 when the epoch completed nothing —
    /// an idle fleet should read as healthy, not as a latency emergency).
    pub fn from_epoch(
        epoch: u64,
        time_s: f64,
        active_replicas: usize,
        draining_replicas: usize,
        queued: usize,
        running: usize,
        epoch_ttfts: &[f64],
    ) -> Self {
        let p99 = if epoch_ttfts.is_empty() {
            0.0
        } else {
            LatencySummary::new(epoch_ttfts.to_vec()).p99()
        };
        FleetTelemetry {
            epoch,
            time_s,
            active_replicas,
            draining_replicas,
            queued,
            running,
            epoch_completed: epoch_ttfts.len(),
            epoch_p99_ttft_s: p99,
        }
    }
}

/// What the autoscaler wants done before the next epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// No change.
    Hold,
    /// Bring this many fresh replicas into the active set.
    Add(usize),
    /// Mark this many of the newest active replicas as draining.
    Drain(usize),
}

/// Threshold autoscaler with hysteresis (distinct up/down queue
/// thresholds) and a post-action cooldown, in the spirit of
/// queue-proportional scaling controllers.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    cfg: AutoscaleConfig,
    cooldown: u32,
}

impl Autoscaler {
    /// Builds an agent from thresholds.
    pub fn new(cfg: AutoscaleConfig) -> Self {
        Autoscaler { cfg, cooldown: 0 }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.cfg
    }

    /// Decides the action for the epoch described by `frame`. Mutates the
    /// internal cooldown clock, so call exactly once per epoch.
    pub fn decide(&mut self, frame: &FleetTelemetry) -> ScaleAction {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return ScaleAction::Hold;
        }
        let active = frame.active_replicas.max(1);
        let queue_per_replica = frame.queued as f64 / active as f64;
        let overloaded = queue_per_replica > self.cfg.queue_high
            || frame.epoch_p99_ttft_s > self.cfg.p99_ttft_high_s;
        if overloaded && frame.active_replicas < self.cfg.max_replicas {
            let room = self.cfg.max_replicas - frame.active_replicas;
            let add = self.cfg.step.max(1).min(room);
            self.cooldown = self.cfg.cooldown_epochs;
            return ScaleAction::Add(add);
        }
        // Thin queue + healthy latency means the active set has spare
        // capacity, even if every replica still holds running work — the
        // wide [queue_low, queue_high] deadband (plus cooldown) keeps the
        // controller from oscillating, and a wrong drain self-corrects
        // when the queue rebuilds past queue_high.
        let idle = queue_per_replica < self.cfg.queue_low
            && frame.epoch_p99_ttft_s <= self.cfg.p99_ttft_high_s;
        if idle && frame.active_replicas > self.cfg.min_replicas {
            self.cooldown = self.cfg.cooldown_epochs;
            return ScaleAction::Drain(1);
        }
        ScaleAction::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(active: usize, queued: usize, running: usize, p99: f64) -> FleetTelemetry {
        FleetTelemetry {
            epoch: 0,
            time_s: 0.0,
            active_replicas: active,
            draining_replicas: 0,
            queued,
            running,
            epoch_completed: 10,
            epoch_p99_ttft_s: p99,
        }
    }

    #[test]
    fn scales_up_on_deep_queues_and_respects_ceiling() {
        let mut a = Autoscaler::new(AutoscaleConfig {
            max_replicas: 4,
            step: 2,
            ..AutoscaleConfig::default()
        });
        assert_eq!(a.decide(&frame(3, 100, 3, 1.0)), ScaleAction::Add(1));
        // Cooldown holds even under sustained pressure.
        assert_eq!(a.decide(&frame(4, 200, 4, 1.0)), ScaleAction::Hold);
    }

    #[test]
    fn scales_up_on_latency_breach_even_with_short_queues() {
        let mut a = Autoscaler::new(AutoscaleConfig::default());
        assert_eq!(a.decide(&frame(2, 0, 2, 1000.0)), ScaleAction::Add(2));
    }

    #[test]
    fn drains_one_when_idle_and_respects_floor() {
        let mut a = Autoscaler::new(AutoscaleConfig {
            min_replicas: 2,
            cooldown_epochs: 0,
            ..AutoscaleConfig::default()
        });
        assert_eq!(a.decide(&frame(4, 0, 1, 0.5)), ScaleAction::Drain(1));
        assert_eq!(a.decide(&frame(2, 0, 0, 0.0)), ScaleAction::Hold);
    }

    #[test]
    fn busy_fleet_inside_thresholds_holds() {
        let mut a = Autoscaler::new(AutoscaleConfig::default());
        // Queue is modest and every replica is running work: no action.
        assert_eq!(a.decide(&frame(4, 8, 4, 5.0)), ScaleAction::Hold);
    }

    #[test]
    fn cooldown_expires_after_configured_epochs() {
        let mut a = Autoscaler::new(AutoscaleConfig {
            cooldown_epochs: 1,
            max_replicas: 64,
            ..AutoscaleConfig::default()
        });
        assert!(matches!(a.decide(&frame(2, 100, 2, 0.0)), ScaleAction::Add(_)));
        assert_eq!(a.decide(&frame(4, 100, 4, 0.0)), ScaleAction::Hold);
        assert!(matches!(a.decide(&frame(4, 100, 4, 0.0)), ScaleAction::Add(_)));
    }

    #[test]
    fn telemetry_p99_is_zero_on_empty_epoch() {
        let f = FleetTelemetry::from_epoch(3, 15.0, 4, 1, 7, 9, &[]);
        assert_eq!(f.epoch_completed, 0);
        assert_eq!(f.epoch_p99_ttft_s, 0.0);
        let g = FleetTelemetry::from_epoch(3, 15.0, 4, 1, 7, 9, &[1.0, 2.0]);
        assert_eq!(g.epoch_completed, 2);
        assert!(g.epoch_p99_ttft_s >= 1.0);
    }
}
