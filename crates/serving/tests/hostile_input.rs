//! Hostile input to the serving stack is a typed error, never a panic:
//! edge-valued serving and fleet configs, and arrival streams that are
//! not finite and sorted.

use rkvc_gpu::{DeploymentSpec, EngineKind, GpuSpec, LlmSpec};
use rkvc_kvcache::CompressionConfig;
use rkvc_serving::{
    ArrivalFault, AutoscaleConfig, Cluster, ClusterError, ConfigError, Fleet, FleetConfig,
    FleetError, OraclePredictor, RoutingPolicy, SchedulerConfig, ServerSim, ServingConfig,
    ShardPolicy, SimRequest, SloPolicy,
};
use rkvc_tensor::det::SeededRng;

fn dep() -> DeploymentSpec {
    DeploymentSpec {
        gpu: GpuSpec::a6000(),
        llm: LlmSpec::llama2_7b(),
        engine: EngineKind::LmDeploy,
        tensor_parallel: 1,
    }
}

/// A few prefix-grouped requests, one of them larger than a tiny pool.
fn stream() -> Vec<SimRequest> {
    (0..6)
        .map(|i| {
            SimRequest::new(i, i as f64 * 0.1, 64 + 96 * i as usize, 8)
                .with_shared_prefix(i % 2, 32)
        })
        .collect()
}

/// One of a few hostile or ordinary thresholds.
fn any_threshold(rng: &mut SeededRng) -> f64 {
    *rng.choose(&[
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1.0,
        0.0,
        0.5,
        4.0,
    ])
}

/// What `ServingConfig::validate` must say: the first failing check, in
/// the order it checks them.
fn serving_verdict(c: &ServingConfig) -> Result<(), ConfigError> {
    if c.max_batch == 0 {
        Err(ConfigError::ZeroMaxBatch)
    } else if c.pool_tokens == Some(0) {
        Err(ConfigError::ZeroPoolTokens)
    } else if c.tier == Some(0) {
        Err(ConfigError::ZeroL2Blocks)
    } else {
        Ok(())
    }
}

/// What `FleetConfig::validate` must say, likewise.
fn fleet_verdict(c: &FleetConfig) -> Result<(), FleetError> {
    if c.replicas == 0 {
        return Err(FleetError::NoReplicas);
    }
    serving_verdict(&c.serving).map_err(FleetError::Config)?;
    let Some(a) = &c.autoscale else {
        return Ok(());
    };
    let thresholds_ok = a.queue_high.is_finite()
        && a.queue_low.is_finite()
        && (0.0..=a.queue_high).contains(&a.queue_low)
        && a.p99_ttft_high_s.is_finite()
        && a.p99_ttft_high_s > 0.0;
    if a.min_replicas == 0 || a.min_replicas > a.max_replicas || a.step == 0 || !thresholds_ok {
        Err(FleetError::BadAutoscale)
    } else if !(a.min_replicas..=a.max_replicas).contains(&c.replicas) {
        Err(FleetError::ReplicasOutsideScaleBounds)
    } else {
        Ok(())
    }
}

rkvc_tensor::det_cases! {
    /// Every field of what is left of the serving and fleet configs drawn
    /// from its edge values: `validate` returns the expected typed error,
    /// `ServerSim::with_config` and `Fleet::new` fail exactly when it
    /// does, and every config they accept serves a stream — including one
    /// request no pool of a token or a block can ever fit — without
    /// panicking. A valid fleet of `usize::MAX` or `isize::MAX` replicas
    /// is `TooManyReplicas` from `Fleet::new`: its replica table overflows
    /// the allocation size, so the reservation fails before allocating.
    /// (Other fleets wider than eight replicas are only validated.)
    fn hostile_configs_are_typed_errors_never_panics(rng, cases = 256) {
        let serving = ServingConfig {
            max_batch: *rng.choose(&[0, 1, 8, usize::MAX]),
            pool_tokens: *rng.choose(&[None, Some(0), Some(1), Some(4096), Some(usize::MAX)]),
            scheduler: *rng.choose(&SchedulerConfig::all()),
            prefix_sharing: rng.gen_bool(0.5),
            tier: *rng.choose(&[None, Some(0), Some(1), Some(usize::MAX)]),
            slo_policy: *rng.choose(&SloPolicy::all()),
        };
        let want = serving_verdict(&serving);
        assert_eq!(serving.validate(), want, "{serving:?}");
        let algo = *rng.choose(&[CompressionConfig::Fp16, CompressionConfig::h2o(64, 448)]);
        match ServerSim::with_config(0, dep(), algo, serving) {
            Err(e) => assert_eq!(Err(e), want, "{serving:?}"),
            Ok(mut server) => {
                assert_eq!(want, Ok(()), "{serving:?}");
                for r in stream() {
                    server.enqueue(r);
                }
                server.run_until_idle();
                assert!(server.completed().len() <= stream().len());
            }
        }

        let autoscale = rng.gen_bool(0.5).then(|| AutoscaleConfig {
            min_replicas: *rng.choose(&[0, 1, 2, 8]),
            max_replicas: *rng.choose(&[0, 1, 4, 8]),
            queue_high: any_threshold(rng),
            queue_low: any_threshold(rng),
            p99_ttft_high_s: any_threshold(rng),
            cooldown_epochs: rng.gen_range(0u32..3),
            step: *rng.choose(&[0, 1, 4, usize::MAX]),
        });
        let fleet = FleetConfig {
            replicas: *rng.choose(&[0, 1, 3, 8, isize::MAX as usize, usize::MAX]),
            sharding: *rng.choose(&ShardPolicy::all()),
            serving,
            autoscale,
        };
        let want = fleet_verdict(&fleet);
        assert_eq!(fleet.validate(), want, "{fleet:?}");
        if fleet.replicas >= isize::MAX as usize {
            let want = want.and(Err(FleetError::TooManyReplicas));
            assert_eq!(Fleet::new(dep(), algo, fleet.clone()).map(|_| ()), want, "{fleet:?}");
        } else if fleet.replicas <= 8 {
            match Fleet::new(dep(), algo, fleet.clone()) {
                Err(e) => assert_eq!(Err(e), want, "{fleet:?}"),
                Ok(f) => {
                    assert_eq!(want, Ok(()), "{fleet:?}");
                    let out = f.run(stream()).expect("a sorted, finite stream");
                    assert_eq!(out.completed.len() + out.dropped, stream().len());
                }
            }
        }
    }
}

/// A NaN or infinite arrival used to pass both drivers' sortedness scan:
/// the cluster returned NaN latencies that panicked in the metrics, the
/// fleet panicked in its telemetry, and `+inf` kept the fleet's epoch
/// loop running forever. Every position is a typed error from both.
#[test]
fn non_finite_arrivals_are_a_typed_error_from_both_drivers() {
    // (stream length, index of the bad arrival, its value).
    let cases = [
        (3, 0, f64::NAN),
        (3, 1, f64::NAN),
        (3, 2, f64::NAN),
        (1, 0, f64::NAN),
        (3, 2, f64::INFINITY),
        (1, 0, f64::INFINITY),
        (3, 0, f64::NEG_INFINITY),
    ];
    for (len, bad, value) in cases {
        let mut stream: Vec<SimRequest> = (0..len)
            .map(|i| SimRequest::new(i as u64, i as f64 * 0.1, 64, 8))
            .collect();
        stream[bad].arrival_s = value;
        let same = |fault: ArrivalFault| match fault {
            ArrivalFault::NonFinite { index, arrival_s } => {
                index == bad && arrival_s.to_bits() == value.to_bits()
            }
            ArrivalFault::Unsorted { .. } => false,
        };

        let server = ServerSim::new(0, dep(), CompressionConfig::Fp16, 8);
        let cluster = Cluster::new(vec![server], RoutingPolicy::LoadBalance).unwrap();
        match cluster.run(stream.clone(), &OraclePredictor) {
            Err(ClusterError::Arrival(fault)) if same(fault) => {}
            other => panic!("cluster, {value} at {bad} of {len}: {other:?}"),
        }

        let fleet = Fleet::new(dep(), CompressionConfig::Fp16, FleetConfig::default()).unwrap();
        match fleet.run(stream) {
            Err(FleetError::Arrival(fault)) if same(fault) => {}
            other => panic!("fleet, {value} at {bad} of {len}: {other:?}"),
        }
    }
}
