//! Non-stationary arrival processes and the fleet-scale workload sampler.
//!
//! Production serving traffic is not a constant-rate Poisson stream: it
//! breathes on a diurnal cycle (the paper's production traces motivate
//! capacity planning around the daily peak) and spikes in bursts. Both
//! shapes matter to the fleet layer — a static replica count sized for the
//! peak idles off-peak, which is exactly what the autoscaler exploits.
//!
//! [`ArrivalPattern`] describes the instantaneous rate `λ(t)`;
//! [`sample_fleet`] turns it into a sorted [`SimRequest`] stream by
//! *thinning* (Lewis & Shedler): draw candidate arrivals from a
//! homogeneous Poisson process at the peak rate, keep each with
//! probability `λ(t)/λ_peak`. Requests carry shared-prefix annotations
//! (so consistent-hash sharding has dedup to preserve) and a weighted SLO
//! class mix (so goodput is measurable), all deterministic per seed.

use rkvc_serving::{SimRequest, SloClass};
use rkvc_tensor::det::{Exp, LogNormal, SeededRng};
use rkvc_tensor::seeded_rng;

/// Instantaneous arrival-rate shape `λ(t)` in requests/second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Constant-rate (homogeneous Poisson) arrivals.
    Uniform {
        /// The rate (requests/second).
        rps: f64,
    },
    /// Raised-cosine day/night cycle: `λ(t)` sweeps smoothly from
    /// `base_rps` (trough) to `peak_rps` (crest) with period `period_s`,
    /// starting at the trough.
    Diurnal {
        /// Trough rate.
        base_rps: f64,
        /// Crest rate.
        peak_rps: f64,
        /// Full-cycle length (seconds).
        period_s: f64,
    },
    /// Square-wave bursts: the first `burst_fraction` of every period runs
    /// at `burst_rps`, the remainder at `base_rps`.
    Bursty {
        /// Quiet-phase rate.
        base_rps: f64,
        /// Burst-phase rate.
        burst_rps: f64,
        /// Full-cycle length (seconds).
        period_s: f64,
        /// Fraction of each period spent bursting, in `(0, 1)`.
        burst_fraction: f64,
    },
}

impl ArrivalPattern {
    /// The instantaneous rate at time `t` (seconds).
    pub fn rate(&self, t: f64) -> f64 {
        match *self {
            ArrivalPattern::Uniform { rps } => rps,
            ArrivalPattern::Diurnal {
                base_rps,
                peak_rps,
                period_s,
            } => {
                let phase = 2.0 * std::f64::consts::PI * (t / period_s);
                base_rps + (peak_rps - base_rps) * 0.5 * (1.0 - phase.cos())
            }
            ArrivalPattern::Bursty {
                base_rps,
                burst_rps,
                period_s,
                burst_fraction,
            } => {
                let into = t.rem_euclid(period_s);
                if into < burst_fraction * period_s {
                    burst_rps
                } else {
                    base_rps
                }
            }
        }
    }

    /// The envelope rate `λ_peak >= λ(t)` the thinning sampler draws at.
    pub fn peak_rate(&self) -> f64 {
        match *self {
            ArrivalPattern::Uniform { rps } => rps,
            ArrivalPattern::Diurnal {
                base_rps, peak_rps, ..
            } => peak_rps.max(base_rps),
            ArrivalPattern::Bursty {
                base_rps,
                burst_rps,
                ..
            } => burst_rps.max(base_rps),
        }
    }

    /// Whether the rates and period are usable (positive, finite, peak
    /// covering base, burst fraction inside `(0, 1)`).
    pub fn valid(&self) -> bool {
        let pos = |x: f64| x > 0.0 && x.is_finite();
        match *self {
            ArrivalPattern::Uniform { rps } => pos(rps),
            ArrivalPattern::Diurnal {
                base_rps,
                peak_rps,
                period_s,
            } => pos(base_rps) && pos(peak_rps) && pos(period_s) && peak_rps >= base_rps,
            ArrivalPattern::Bursty {
                base_rps,
                burst_rps,
                period_s,
                burst_fraction,
            } => {
                pos(base_rps)
                    && pos(burst_rps)
                    && pos(period_s)
                    && burst_rps >= base_rps
                    && burst_fraction > 0.0
                    && burst_fraction < 1.0
            }
        }
    }
}

/// Distinct shared system prompts (prefix groups) in a fleet stream.
/// Sixteen keeps every prompt's traffic frequent enough that its shared
/// blocks stay resident on whichever replica owns it — the regime where
/// sharding policy decides whether dedup survives.
const N_GROUPS: usize = 16;

/// Tokens in each shared prefix.
const PREFIX_LEN: usize = 256;

/// Log-normal `(mu, sigma)` of the private suffix length: median ~96.
const SUFFIX_LOG: (f64, f64) = (4.56, 0.5);

/// Suffix length clamp (min, max).
const SUFFIX_CLAMP: (usize, usize) = (16, 512);

/// Log-normal `(mu, sigma)` of the response length: median ~48.
const RESPONSE_LOG: (f64, f64) = (3.87, 0.5);

/// Response length clamp (min, max).
const RESPONSE_CLAMP: (usize, usize) = (8, 160);

/// Draws an SLO class from the 2:1:1 interactive/standard/batch mix of
/// the fleet and session samplers.
pub(crate) fn draw_slo_class(rng: &mut SeededRng) -> SloClass {
    match rng.gen_range(0..4usize) {
        0 | 1 => SloClass::Interactive,
        2 => SloClass::Standard,
        _ => SloClass::Batch,
    }
}

/// Configuration for the fleet-scale request sampler: a fleet-sized
/// assistant service with 16 system prompts of 256 tokens, suffix median
/// ~96, response median ~48 and a 2:1:1 class mix — small enough
/// per-request footprints that a single replica holds dozens, so offered
/// load (not memory) is the binding constraint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetWorkloadConfig {
    /// Requests to draw.
    pub n_requests: usize,
    /// Arrival-rate shape.
    pub pattern: ArrivalPattern,
    /// RNG seed.
    pub seed: u64,
}

impl FleetWorkloadConfig {
    /// `n_requests` of the assistant service arriving by `pattern`.
    pub fn assistants(n_requests: usize, pattern: ArrivalPattern, seed: u64) -> Self {
        FleetWorkloadConfig {
            n_requests,
            pattern,
            seed,
        }
    }

    /// Validates the parameters [`sample_fleet`] draws from.
    ///
    /// # Errors
    ///
    /// [`FleetWorkloadError::BadPattern`] if the pattern fails
    /// [`ArrivalPattern::valid`].
    pub fn validate(&self) -> Result<(), FleetWorkloadError> {
        if !self.pattern.valid() {
            return Err(FleetWorkloadError::BadPattern);
        }
        Ok(())
    }
}

/// Why [`sample_fleet`] cannot draw a stream from a [`FleetWorkloadConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetWorkloadError {
    /// The arrival pattern fails [`ArrivalPattern::valid`].
    BadPattern,
    /// The `n_requests`-long stream cannot be allocated.
    TooManyRequests,
    /// The arrival clock left the finite range before the stream was full
    /// (a peak rate so small that inter-arrival gaps sum past `f64::MAX`).
    ArrivalOverflow,
}

impl std::fmt::Display for FleetWorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FleetWorkloadError::BadPattern => {
                "arrival pattern rates, period or fraction are invalid"
            }
            FleetWorkloadError::TooManyRequests => "n_requests does not fit in memory",
            FleetWorkloadError::ArrivalOverflow => "arrival times overflowed before n_requests",
        })
    }
}

impl std::error::Error for FleetWorkloadError {}

/// Draws the fleet workload: a sorted, SLO-annotated, prefix-grouped
/// [`SimRequest`] stream whose arrivals follow `cfg.pattern` by thinning.
/// Deterministic per config; arrivals are finite and non-decreasing by
/// construction.
///
/// # Errors
///
/// [`FleetWorkloadError`] if [`FleetWorkloadConfig::validate`] rejects the
/// config, the stream cannot be allocated, or the arrival clock overflows.
///
/// # Examples
///
/// ```
/// use rkvc_workload::{sample_fleet, ArrivalPattern, FleetWorkloadConfig};
///
/// let cfg = FleetWorkloadConfig::assistants(
///     100,
///     ArrivalPattern::Diurnal { base_rps: 5.0, peak_rps: 50.0, period_s: 60.0 },
///     7,
/// );
/// let reqs = sample_fleet(&cfg).unwrap();
/// assert_eq!(reqs.len(), 100);
/// assert!(reqs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
/// ```
pub fn sample_fleet(cfg: &FleetWorkloadConfig) -> Result<Vec<SimRequest>, FleetWorkloadError> {
    cfg.validate()?;
    let mut rng = seeded_rng(cfg.seed);
    let peak = cfg.pattern.peak_rate();
    // Every distribution here constructs: the envelope's rate comes from a
    // pattern `validate` accepted, and the length log-normals are constants.
    let draws = (
        LogNormal::new(SUFFIX_LOG.0, SUFFIX_LOG.1),
        LogNormal::new(RESPONSE_LOG.0, RESPONSE_LOG.1),
        Exp::new(peak),
    );
    let (Ok(mut suffix_dist), Ok(mut resp_dist), Ok(mut envelope)) = draws else {
        return Err(FleetWorkloadError::BadPattern);
    };
    let mut out = Vec::new();
    out.try_reserve_exact(cfg.n_requests)
        .map_err(|_| FleetWorkloadError::TooManyRequests)?;

    let mut t = 0.0f64;
    while out.len() < cfg.n_requests {
        // Thinning: candidate points at the envelope rate, accepted with
        // probability λ(t)/λ_peak — an exact draw from the target process.
        t += envelope.sample(&mut rng);
        if !t.is_finite() {
            return Err(FleetWorkloadError::ArrivalOverflow);
        }
        if rng.gen_f64() >= cfg.pattern.rate(t) / peak {
            continue;
        }
        let id = out.len() as u64;
        let group = rng.gen_range(0..N_GROUPS) as u64;
        let suffix_len =
            (suffix_dist.sample(&mut rng) as usize).clamp(SUFFIX_CLAMP.0, SUFFIX_CLAMP.1);
        let response_len =
            (resp_dist.sample(&mut rng) as usize).clamp(RESPONSE_CLAMP.0, RESPONSE_CLAMP.1);
        let slo = draw_slo_class(&mut rng);
        out.push(
            SimRequest::new(id, t, PREFIX_LEN + suffix_len, response_len)
                .with_shared_prefix(group, PREFIX_LEN)
                .with_slo(slo),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diurnal() -> ArrivalPattern {
        ArrivalPattern::Diurnal {
            base_rps: 5.0,
            peak_rps: 50.0,
            period_s: 120.0,
        }
    }

    #[test]
    fn rates_respect_their_envelopes() {
        let d = diurnal();
        for i in 0..=240 {
            let t = i as f64;
            assert!(d.rate(t) >= 5.0 - 1e-12 && d.rate(t) <= d.peak_rate() + 1e-12);
        }
        // Trough at t = 0, crest mid-period.
        assert!((d.rate(0.0) - 5.0).abs() < 1e-9);
        assert!((d.rate(60.0) - 50.0).abs() < 1e-9);
        let b = ArrivalPattern::Bursty {
            base_rps: 2.0,
            burst_rps: 40.0,
            period_s: 10.0,
            burst_fraction: 0.25,
        };
        assert_eq!(b.rate(1.0), 40.0);
        assert_eq!(b.rate(3.0), 2.0);
        assert_eq!(b.rate(11.0), 40.0); // wraps into the next burst
        assert_eq!(b.peak_rate(), 40.0);
    }

    #[test]
    fn pattern_validation_catches_bad_shapes() {
        assert!(diurnal().valid());
        assert!(!ArrivalPattern::Uniform { rps: 0.0 }.valid());
        assert!(!ArrivalPattern::Diurnal {
            base_rps: 10.0,
            peak_rps: 5.0,
            period_s: 60.0
        }
        .valid());
        assert!(!ArrivalPattern::Bursty {
            base_rps: 1.0,
            burst_rps: 10.0,
            period_s: 60.0,
            burst_fraction: 1.0
        }
        .valid());
    }

    #[test]
    fn fleet_sampler_is_deterministic_sorted_and_annotated() {
        let cfg = FleetWorkloadConfig::assistants(400, diurnal(), 11);
        let a = sample_fleet(&cfg).expect("valid config");
        let b = sample_fleet(&cfg).expect("valid config");
        assert_eq!(a, b);
        assert_eq!(a.len(), 400);
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(r.prefix_len, PREFIX_LEN);
            assert!((r.prefix_group as usize) < N_GROUPS);
            assert!(r.prompt_len > r.prefix_len);
        }
        // The 2:1:1 mix puts every class on the floor at this n.
        for class in [SloClass::Interactive, SloClass::Standard, SloClass::Batch] {
            assert!(a.iter().any(|r| r.slo == class), "{class:?} drew nothing");
        }
    }

    #[test]
    fn diurnal_arrivals_concentrate_at_the_crest() {
        // Fold arrivals onto the cycle: the crest half-period must receive
        // well over half the traffic (it carries ~83% of the rate mass).
        let cfg = FleetWorkloadConfig::assistants(2000, diurnal(), 3);
        let reqs = sample_fleet(&cfg).expect("valid config");
        let crest = reqs
            .iter()
            .filter(|r| {
                let into = r.arrival_s.rem_euclid(120.0);
                (30.0..90.0).contains(&into)
            })
            .count();
        assert!(
            crest as f64 > 0.65 * reqs.len() as f64,
            "crest half-period drew only {crest}/{}",
            reqs.len()
        );
    }

    #[test]
    fn bursty_arrivals_concentrate_in_bursts() {
        let cfg = FleetWorkloadConfig::assistants(
            2000,
            ArrivalPattern::Bursty {
                base_rps: 2.0,
                burst_rps: 40.0,
                period_s: 20.0,
                burst_fraction: 0.25,
            },
            5,
        );
        let reqs = sample_fleet(&cfg).expect("valid config");
        let bursting = reqs
            .iter()
            .filter(|r| r.arrival_s.rem_euclid(20.0) < 5.0)
            .count();
        // Bursts carry 40·5 / (40·5 + 2·15) ≈ 87% of the rate mass.
        assert!(
            bursting as f64 > 0.7 * reqs.len() as f64,
            "bursts drew only {bursting}/{}",
            reqs.len()
        );
    }

    /// One of a few hostile or ordinary floats.
    fn any_f64(rng: &mut rkvc_tensor::det::SeededRng) -> f64 {
        *rng.choose(&[
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            0.0,
            1e-300,
            0.25,
            0.5,
            3.0,
            40.0,
            1e300,
        ])
    }

    /// `sane`, or with probability 1/8 a draw from `hostile`: most configs
    /// break one or two fields, and some break none.
    fn or_hostile<T>(
        rng: &mut rkvc_tensor::det::SeededRng,
        sane: T,
        hostile: fn(&mut rkvc_tensor::det::SeededRng) -> T,
    ) -> T {
        if rng.gen_bool(0.125) {
            hostile(rng)
        } else {
            sane
        }
    }

    rkvc_tensor::det_cases! {
        /// Whatever the pattern and length, `sample_fleet` returns instead
        /// of panicking: `Err` exactly when `validate` rejects the config
        /// (or the stream cannot be allocated or timed), else a stream of
        /// the asked length whose arrivals are finite and sorted and whose
        /// lengths respect the clamps.
        fn hostile_fleet_configs_return_errors_not_panics(rng, cases = 256) {
            let (a, b, c, d) = (
                or_hostile(rng, 4.0, any_f64),
                or_hostile(rng, 40.0, any_f64),
                or_hostile(rng, 20.0, any_f64),
                or_hostile(rng, 0.25, any_f64),
            );
            let pattern = match rng.gen_range(0..3) {
                0 => ArrivalPattern::Uniform { rps: a },
                1 => ArrivalPattern::Diurnal { base_rps: a, peak_rps: b, period_s: c },
                _ => ArrivalPattern::Bursty {
                    base_rps: a,
                    burst_rps: b,
                    period_s: c,
                    burst_fraction: d,
                },
            };
            let n = or_hostile(rng, 60, |rng| *rng.choose(&[0, 1, usize::MAX, 1 << 60]));
            let cfg = FleetWorkloadConfig::assistants(n, pattern, rng.next_u64());
            match sample_fleet(&cfg) {
                Err(e) => assert!(
                    cfg.validate().is_err()
                        || matches!(
                            e,
                            FleetWorkloadError::TooManyRequests
                                | FleetWorkloadError::ArrivalOverflow
                        ),
                    "{e} from a config validate() accepts: {cfg:?}"
                ),
                Ok(reqs) => {
                    assert!(cfg.validate().is_ok());
                    assert_eq!(reqs.len(), cfg.n_requests);
                    assert!(reqs.iter().all(|r| r.arrival_s.is_finite()));
                    assert!(reqs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
                    for r in &reqs {
                        let suffix = r.prompt_len - PREFIX_LEN;
                        assert!((SUFFIX_CLAMP.0..=SUFFIX_CLAMP.1).contains(&suffix));
                        assert!((RESPONSE_CLAMP.0..=RESPONSE_CLAMP.1).contains(&r.response_len));
                    }
                }
            }
        }
    }

    #[test]
    fn each_named_hostile_field_is_a_typed_error() {
        let ok = FleetWorkloadConfig::assistants(10, diurnal(), 1);
        assert_eq!(ok.validate(), Ok(()));
        let cases = [
            (
                FleetWorkloadConfig {
                    pattern: ArrivalPattern::Uniform { rps: 0.0 },
                    ..ok
                },
                FleetWorkloadError::BadPattern,
            ),
            (
                FleetWorkloadConfig {
                    n_requests: usize::MAX,
                    ..ok
                },
                FleetWorkloadError::TooManyRequests,
            ),
            (
                FleetWorkloadConfig {
                    pattern: ArrivalPattern::Uniform { rps: 1e-307 },
                    n_requests: 1000,
                    ..ok
                },
                FleetWorkloadError::ArrivalOverflow,
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(sample_fleet(&cfg).err(), Some(want), "{cfg:?}");
        }
    }
}
