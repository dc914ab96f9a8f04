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
use rkvc_tensor::det::{Exp, LogNormal};
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

/// Configuration for the fleet-scale request sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetWorkloadConfig {
    /// Requests to draw.
    pub n_requests: usize,
    /// Arrival-rate shape.
    pub pattern: ArrivalPattern,
    /// Distinct shared system prompts (prefix groups).
    pub n_groups: usize,
    /// Tokens in each shared prefix.
    pub prefix_len: usize,
    /// Log-normal `mu` of the private suffix length.
    pub suffix_log_mean: f64,
    /// Log-normal `sigma` of the suffix length.
    pub suffix_log_std: f64,
    /// Suffix length clamp (min, max).
    pub suffix_clamp: (usize, usize),
    /// Log-normal `mu` of the response length.
    pub response_log_mean: f64,
    /// Log-normal `sigma` of the response length.
    pub response_log_std: f64,
    /// Response length clamp (min, max).
    pub response_clamp: (usize, usize),
    /// Weight of [`SloClass::Interactive`] in the class draw.
    pub interactive_weight: u32,
    /// Weight of [`SloClass::Standard`].
    pub standard_weight: u32,
    /// Weight of [`SloClass::Batch`].
    pub batch_weight: u32,
    /// RNG seed.
    pub seed: u64,
}

impl FleetWorkloadConfig {
    /// A fleet-sized assistant service: 16 system prompts of 256 tokens,
    /// suffix median ~96, response median ~48, a 2:1:1 class mix — small
    /// enough per-request footprints that a single replica holds dozens,
    /// so offered load (not memory) is the binding constraint. Sixteen
    /// groups keeps every prompt's traffic frequent enough that its shared
    /// blocks stay resident on whichever replica owns it — the regime
    /// where sharding policy decides whether dedup survives.
    pub fn assistants(n_requests: usize, pattern: ArrivalPattern, seed: u64) -> Self {
        FleetWorkloadConfig {
            n_requests,
            pattern,
            n_groups: 16,
            prefix_len: 256,
            suffix_log_mean: 4.56, // median ~96
            suffix_log_std: 0.5,
            suffix_clamp: (16, 512),
            response_log_mean: 3.87, // median ~48
            response_log_std: 0.5,
            response_clamp: (8, 160),
            interactive_weight: 2,
            standard_weight: 1,
            batch_weight: 1,
            seed,
        }
    }

    /// Validates the parameters [`sample_fleet`] draws from.
    ///
    /// # Errors
    ///
    /// [`FleetWorkloadError`] naming the offending field.
    pub fn validate(&self) -> Result<(), FleetWorkloadError> {
        if !self.pattern.valid() {
            return Err(FleetWorkloadError::BadPattern);
        }
        for (mu, sigma) in [
            (self.suffix_log_mean, self.suffix_log_std),
            (self.response_log_mean, self.response_log_std),
        ] {
            if LogNormal::new(mu, sigma).is_err() {
                return Err(FleetWorkloadError::BadLengthDistribution);
            }
        }
        if self.suffix_clamp.0 > self.suffix_clamp.1
            || self.response_clamp.0 > self.response_clamp.1
        {
            return Err(FleetWorkloadError::InvertedClamp);
        }
        if self.prefix_len.checked_add(self.suffix_clamp.1).is_none() {
            return Err(FleetWorkloadError::PromptOverflow);
        }
        Ok(())
    }
}

/// Why [`sample_fleet`] cannot draw a stream from a [`FleetWorkloadConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetWorkloadError {
    /// The arrival pattern fails [`ArrivalPattern::valid`].
    BadPattern,
    /// A length log-normal has a non-finite `mu`, or a `sigma` that is
    /// negative or non-finite.
    BadLengthDistribution,
    /// A length clamp's minimum exceeds its maximum.
    InvertedClamp,
    /// `prefix_len` plus the longest suffix overflows `usize`.
    PromptOverflow,
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
            FleetWorkloadError::BadLengthDistribution => {
                "length log-normals need a finite mu and a finite sigma >= 0"
            }
            FleetWorkloadError::InvertedClamp => "a length clamp's minimum exceeds its maximum",
            FleetWorkloadError::PromptOverflow => "prefix_len plus the longest suffix overflows",
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
    let bad_lengths = |_| FleetWorkloadError::BadLengthDistribution;
    let mut suffix_dist =
        LogNormal::new(cfg.suffix_log_mean, cfg.suffix_log_std).map_err(bad_lengths)?;
    let mut resp_dist =
        LogNormal::new(cfg.response_log_mean, cfg.response_log_std).map_err(bad_lengths)?;
    let peak = cfg.pattern.peak_rate();
    let mut envelope = Exp::new(peak).map_err(|_| FleetWorkloadError::BadPattern)?;
    let mut out = Vec::new();
    out.try_reserve_exact(cfg.n_requests)
        .map_err(|_| FleetWorkloadError::TooManyRequests)?;
    let weights = [
        (SloClass::Interactive, cfg.interactive_weight as u64),
        (SloClass::Standard, cfg.standard_weight as u64),
        (SloClass::Batch, cfg.batch_weight as u64),
    ];
    let total_weight: u64 = weights.iter().map(|(_, w)| *w).sum::<u64>().max(1);

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
        let group = rng.gen_range(0..cfg.n_groups.max(1)) as u64;
        let suffix_len = (suffix_dist.sample(&mut rng) as usize)
            .clamp(cfg.suffix_clamp.0, cfg.suffix_clamp.1);
        let response_len = (resp_dist.sample(&mut rng) as usize)
            .clamp(cfg.response_clamp.0, cfg.response_clamp.1);
        let mut draw = rng.gen_range(0..total_weight as usize) as u64;
        let mut slo = SloClass::Standard;
        for (class, w) in weights {
            if draw < w {
                slo = class;
                break;
            }
            draw -= w;
        }
        out.push(
            SimRequest::new(id, t, cfg.prefix_len + suffix_len, response_len)
                .with_shared_prefix(group, cfg.prefix_len)
                .with_slo(slo),
        );
    }
    Ok(out)
}

rkvc_tensor::json_struct!(FleetWorkloadConfig {
    n_requests,
    pattern,
    n_groups,
    prefix_len,
    suffix_log_mean,
    suffix_log_std,
    suffix_clamp,
    response_log_mean,
    response_log_std,
    response_clamp,
    interactive_weight,
    standard_weight,
    batch_weight,
    seed,
});

impl rkvc_tensor::json::ToJson for ArrivalPattern {
    fn to_json(&self) -> rkvc_tensor::json::JsonValue {
        use rkvc_tensor::json::JsonValue;
        let (kind, fields) = match *self {
            ArrivalPattern::Uniform { rps } => ("uniform", vec![("rps", rps)]),
            ArrivalPattern::Diurnal {
                base_rps,
                peak_rps,
                period_s,
            } => (
                "diurnal",
                vec![
                    ("base_rps", base_rps),
                    ("peak_rps", peak_rps),
                    ("period_s", period_s),
                ],
            ),
            ArrivalPattern::Bursty {
                base_rps,
                burst_rps,
                period_s,
                burst_fraction,
            } => (
                "bursty",
                vec![
                    ("base_rps", base_rps),
                    ("burst_rps", burst_rps),
                    ("period_s", period_s),
                    ("burst_fraction", burst_fraction),
                ],
            ),
        };
        let mut obj = vec![("kind".to_owned(), JsonValue::Str(kind.to_owned()))];
        for (k, v) in fields {
            obj.push((k.to_owned(), JsonValue::Float(v)));
        }
        JsonValue::Object(obj)
    }
}

impl rkvc_tensor::json::FromJson for ArrivalPattern {
    fn from_json(
        v: &rkvc_tensor::json::JsonValue,
    ) -> Result<Self, rkvc_tensor::json::JsonError> {
        use rkvc_tensor::json::{field, JsonError};
        let fields = v
            .as_object()
            .ok_or_else(|| JsonError::new("expected object for ArrivalPattern"))?;
        let kind: String = field(fields, "kind")?;
        match kind.as_str() {
            "uniform" => Ok(ArrivalPattern::Uniform {
                rps: field(fields, "rps")?,
            }),
            "diurnal" => Ok(ArrivalPattern::Diurnal {
                base_rps: field(fields, "base_rps")?,
                peak_rps: field(fields, "peak_rps")?,
                period_s: field(fields, "period_s")?,
            }),
            "bursty" => Ok(ArrivalPattern::Bursty {
                base_rps: field(fields, "base_rps")?,
                burst_rps: field(fields, "burst_rps")?,
                period_s: field(fields, "period_s")?,
                burst_fraction: field(fields, "burst_fraction")?,
            }),
            other => Err(JsonError::new(format!(
                "unknown ArrivalPattern kind '{other}'"
            ))),
        }
    }
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
            assert_eq!(r.prefix_len, cfg.prefix_len);
            assert!((r.prefix_group as usize) < cfg.n_groups);
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

    fn any_len(rng: &mut rkvc_tensor::det::SeededRng) -> usize {
        *rng.choose(&[0, 1, 16, 300, usize::MAX])
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
        /// Whatever the config, `sample_fleet` returns instead of
        /// panicking: `Err` exactly when `validate` rejects it (or the
        /// stream cannot be allocated or timed), else a stream of the asked
        /// length whose arrivals are finite and sorted and whose lengths
        /// respect the clamps.
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
            let mut cfg = FleetWorkloadConfig::assistants(n, pattern, rng.next_u64());
            cfg.n_groups = or_hostile(rng, 16, |rng| *rng.choose(&[0, 1]));
            cfg.prefix_len = or_hostile(rng, 256, any_len);
            cfg.suffix_log_mean = or_hostile(rng, 4.56, any_f64);
            cfg.suffix_log_std = or_hostile(rng, 0.5, any_f64);
            cfg.suffix_clamp = (or_hostile(rng, 16, any_len), or_hostile(rng, 512, any_len));
            cfg.response_log_mean = or_hostile(rng, 3.87, any_f64);
            cfg.response_log_std = or_hostile(rng, 0.5, any_f64);
            cfg.response_clamp = (or_hostile(rng, 8, any_len), or_hostile(rng, 160, any_len));
            let weight = |rng: &mut rkvc_tensor::det::SeededRng| *rng.choose(&[0, u32::MAX]);
            cfg.interactive_weight = or_hostile(rng, 2, weight);
            cfg.standard_weight = or_hostile(rng, 1, weight);
            cfg.batch_weight = or_hostile(rng, 1, weight);
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
                        let suffix = r.prompt_len - cfg.prefix_len;
                        assert!((cfg.suffix_clamp.0..=cfg.suffix_clamp.1).contains(&suffix));
                        let resp = cfg.response_clamp;
                        assert!((resp.0..=resp.1).contains(&r.response_len));
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
                    suffix_clamp: (512, 16),
                    ..ok
                },
                FleetWorkloadError::InvertedClamp,
            ),
            (
                FleetWorkloadConfig {
                    response_clamp: (9, 8),
                    ..ok
                },
                FleetWorkloadError::InvertedClamp,
            ),
            (
                FleetWorkloadConfig {
                    suffix_log_std: -0.5,
                    ..ok
                },
                FleetWorkloadError::BadLengthDistribution,
            ),
            (
                FleetWorkloadConfig {
                    response_log_std: f64::NAN,
                    ..ok
                },
                FleetWorkloadError::BadLengthDistribution,
            ),
            (
                FleetWorkloadConfig {
                    pattern: ArrivalPattern::Uniform { rps: 0.0 },
                    ..ok
                },
                FleetWorkloadError::BadPattern,
            ),
            (
                FleetWorkloadConfig {
                    prefix_len: usize::MAX,
                    ..ok
                },
                FleetWorkloadError::PromptOverflow,
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

    #[test]
    fn patterns_round_trip_through_json() {
        for p in [
            ArrivalPattern::Uniform { rps: 12.5 },
            diurnal(),
            ArrivalPattern::Bursty {
                base_rps: 2.0,
                burst_rps: 40.0,
                period_s: 20.0,
                burst_fraction: 0.25,
            },
        ] {
            let text = rkvc_tensor::json::to_string(&p);
            let back: ArrivalPattern =
                rkvc_tensor::json::from_str(&text).expect("round trip");
            assert_eq!(back, p);
        }
        let cfg = FleetWorkloadConfig::assistants(10, diurnal(), 1);
        let text = rkvc_tensor::json::to_string(&cfg);
        let back: FleetWorkloadConfig =
            rkvc_tensor::json::from_str(&text).expect("round trip");
        assert_eq!(back, cfg);
    }
}
