//! Property tests for the fleet layer's dispatch and scaling machinery:
//! jump consistent hashing's minimal-remap guarantee, round-robin's
//! balance guarantee, and the shard-policy/autoscaler contracts the
//! fleet's epoch loop relies on — and the fleet run's own contract: each
//! request completes at most once, and the output's merge order.

use rkvc_gpu::{DeploymentSpec, EngineKind, GpuSpec, LlmSpec};
use rkvc_kvcache::CompressionConfig;
use rkvc_serving::{
    jump_hash, shard_key, AutoscaleConfig, Autoscaler, CompletedRequest, Fleet, FleetConfig,
    FleetOutcome, FleetTelemetry, ScaleAction, SchedulerConfig, ServingConfig, ShardPolicy,
    SimRequest,
};

rkvc_tensor::det_cases! {
    /// Lamping-Veach's headline property: growing from `n` to `n + 1`
    /// buckets remaps only keys whose new bucket is the appended one —
    /// in expectation 1/(n+1) of the key space, and *no* key moves
    /// between two pre-existing buckets. The fleet leans on this when the
    /// autoscaler adds replicas: dedup state already resident on old
    /// replicas stays hot.
    fn jump_hash_add_moves_at_most_the_new_buckets_share(rng, cases = 24) {
        let n = rng.gen_range(1usize..40);
        let keys: Vec<u64> = (0..4000).map(|_| rng.next_u64()).collect();
        let mut moved = 0usize;
        for &k in &keys {
            let before = jump_hash(k, n);
            let after = jump_hash(k, n + 1);
            if before != after {
                moved += 1;
                assert_eq!(
                    after, n,
                    "key {k:#x} moved between pre-existing buckets ({before} -> {after}, n = {n})"
                );
            }
        }
        // Expected movers: keys/(n+1). Allow 3x slack over a Poisson-ish
        // spread so the bound is a property check, not a flake.
        let expected = keys.len() / (n + 1);
        assert!(
            moved <= expected * 3 + 40,
            "n = {n}: {moved} of {} keys moved (expected ~{expected})",
            keys.len()
        );
    }

    /// Shrinking from `n + 1` to `n` buckets relocates exactly the keys
    /// that lived in the dropped (newest) bucket — the reason the fleet
    /// drains the newest active replica first.
    fn jump_hash_drop_relocates_only_the_newest_bucket(rng, cases = 24) {
        let n = rng.gen_range(1usize..40);
        for _ in 0..2000 {
            let k = rng.next_u64();
            let wide = jump_hash(k, n + 1);
            let narrow = jump_hash(k, n);
            if wide < n {
                assert_eq!(wide, narrow, "key {k:#x} moved despite surviving bucket");
            } else {
                assert!(narrow < n, "key {k:#x} relocated out of range");
            }
        }
    }

    /// Round-robin dispatch is `dispatched mod active_len`, so it is
    /// balanced to within one request across replicas regardless of key
    /// skew — and stays so on each side of an autoscaler resize, wherever
    /// the running dispatch count stands when the active set changes.
    fn round_robin_is_balanced_to_within_one_across_a_resize(rng, cases = 24) {
        let mut dispatched = 0usize;
        for _phase in 0..2 {
            let n = rng.gen_range(1usize..24);
            let total = rng.gen_range(50usize..2000);
            let mut counts = vec![0usize; n];
            for _ in 0..total {
                // Keys are irrelevant to round-robin; feed it skewed ones.
                let slot = ShardPolicy::RoundRobin.slot(dispatched, rng.next_u64() % 3, n);
                assert_eq!(slot, dispatched % n);
                counts[slot] += 1;
                dispatched += 1;
            }
            let lo = counts.iter().min().copied().unwrap_or(0);
            let hi = counts.iter().max().copied().unwrap_or(0);
            assert!(
                hi - lo <= 1,
                "round-robin spread {lo}..{hi} over {n} replicas for {total} requests"
            );
        }
    }

    /// Consistent-hash dispatch is a pure function of (key, active count):
    /// the dispatch count never enters, the slot is `jump_hash`'s bucket,
    /// and every slot is in range.
    fn consistent_hash_slot_ignores_the_dispatch_count_and_is_in_range(rng, cases = 16) {
        let n = rng.gen_range(1usize..32);
        for d in 0..500 {
            let key = rng.next_u64();
            let a = ShardPolicy::ConsistentHash.slot(d, key, n);
            let b = ShardPolicy::ConsistentHash.slot(d + 1 + rng.gen_range(0usize..1000), key, n);
            assert_eq!(a, b);
            assert_eq!(a, jump_hash(key, n));
            assert!(a < n);
        }
    }
}

#[test]
fn shard_keys_group_requests_the_way_dispatch_needs() {
    // Same prefix group => same key (dedup stays on one replica); distinct
    // groups spread. Every policy places them in range.
    let a = SimRequest::new(0, 0.0, 512, 32).with_shared_prefix(7, 128);
    let b = SimRequest::new(1, 1.0, 700, 64).with_shared_prefix(7, 128);
    let c = SimRequest::new(2, 2.0, 512, 32).with_shared_prefix(8, 128);
    assert_eq!(shard_key(&a), shard_key(&b));
    assert_ne!(shard_key(&a), shard_key(&c));
    for policy in ShardPolicy::all() {
        assert!(policy.slot(3, shard_key(&a), 5) < 5, "{}", policy.label());
    }
}

#[test]
fn autoscaler_contract_holds_at_the_bounds() {
    // The fleet trusts decide() to never push past the configured band.
    let cfg = AutoscaleConfig {
        min_replicas: 2,
        max_replicas: 6,
        queue_high: 1.0,
        queue_low: 0.5,
        p99_ttft_high_s: 1.0,
        cooldown_epochs: 0,
        step: 8,
    };
    let mut agent = Autoscaler::new(cfg);
    assert_eq!(agent.config().max_replicas, 6);
    let overloaded = FleetTelemetry::from_epoch(0, 5.0, 5, 0, 500, 60, &[10.0, 20.0]);
    match agent.decide(&overloaded) {
        ScaleAction::Add(k) => assert!(5 + k <= 6, "add {k} exceeds ceiling"),
        other => panic!("overloaded fleet must scale up, got {other:?}"),
    }
    let idle = FleetTelemetry::from_epoch(1, 10.0, 2, 0, 0, 0, &[]);
    assert_eq!(
        agent.decide(&idle),
        ScaleAction::Hold,
        "floor must block drains"
    );
}

fn fleet_dep() -> DeploymentSpec {
    DeploymentSpec {
        gpu: GpuSpec::a6000(),
        llm: LlmSpec::llama2_7b(),
        engine: EngineKind::LmDeploy,
        tensor_parallel: 1,
    }
}

fn run_fleet(cfg: FleetConfig, requests: Vec<SimRequest>) -> FleetOutcome {
    Fleet::new(fleet_dep(), CompressionConfig::Fp16, cfg)
        .expect("valid fleet")
        .run(requests)
        .expect("sorted stream")
}

/// The fleet's output order: stably sorted by `(id, server_id)`.
fn assert_merge_order(completed: &[CompletedRequest]) {
    assert!(
        completed
            .windows(2)
            .all(|w| (w[0].id, w[0].server_id) <= (w[1].id, w[1].server_id)),
        "completions out of (id, server_id) order"
    );
}

rkvc_tensor::det_cases! {
    /// Every submitted request completes at most as often as it was
    /// submitted, the rest are counted dropped, and the output is sorted by
    /// `(id, server_id)` — under both shard policies, with and without a
    /// draining autoscaler, with one request no replica's pool can hold,
    /// and bit-identically at one and three worker threads.
    fn fleet_completes_each_request_at_most_once_and_merges_in_order(rng, cases = 24) {
        let n = rng.gen_range(1usize..=300);
        // Ids are a shuffled permutation, so the final sort has work to do.
        let mut ids: Vec<u64> = (0..n as u64).collect();
        rng.shuffle_slice(&mut ids);
        let too_large = rng.gen_range(0..n);
        let mut t = 0.0;
        let requests: Vec<SimRequest> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                t += rng.gen_range(0.0..0.2);
                let prompt = if i == too_large { 1 << 20 } else { rng.gen_range(16usize..600) };
                SimRequest::new(id, t, prompt, rng.gen_range(1usize..80))
                    .with_shared_prefix(rng.gen_range(0u64..6), 64)
            })
            .collect();
        let sharding = if rng.gen_bool(0.5) {
            ShardPolicy::ConsistentHash
        } else {
            ShardPolicy::RoundRobin
        };
        let autoscale = rng.gen_bool(0.5).then_some(AutoscaleConfig {
            min_replicas: 1,
            max_replicas: 5,
            queue_high: 3.0,
            queue_low: 1.0,
            p99_ttft_high_s: 30.0,
            cooldown_epochs: 0,
            step: 1,
        });
        let cfg = FleetConfig {
            replicas: rng.gen_range(1usize..=4),
            sharding,
            epoch_s: rng.gen_range(0.25..3.0),
            serving: ServingConfig {
                max_batch: rng.gen_range(1usize..=8),
                pool_tokens: Some(8192),
                prefix_sharing: rng.gen_bool(0.5),
                ..ServingConfig::default()
            },
            autoscale,
        };
        let at_width = |threads| {
            rkvc_tensor::par::set_threads(Some(threads));
            let out = run_fleet(cfg.clone(), requests.clone());
            rkvc_tensor::par::set_threads(None);
            out
        };
        let out = at_width(1);
        let mut times = vec![0u32; n];
        for c in &out.completed {
            times[c.id as usize] += 1;
        }
        assert!(times.iter().all(|&k| k <= 1), "a request completed twice");
        assert_eq!(times[ids[too_large] as usize], 0, "an unfittable request completed");
        assert_eq!(out.completed.len() + out.dropped, n);
        assert_merge_order(&out.completed);

        let other = at_width(3);
        assert_eq!(other.dropped, out.dropped);
        assert_eq!(other.completed.len(), out.completed.len());
        for (a, b) in out.completed.iter().zip(&other.completed) {
            assert_eq!((a.id, a.server_id), (b.id, b.server_id));
            assert_eq!(a.ttft_s.to_bits(), b.ttft_s.to_bits());
            assert_eq!(a.e2e_s.to_bits(), b.e2e_s.to_bits());
        }
        assert_eq!(other.telemetry, out.telemetry);
    }
}

/// One id on replicas 0 and 1 under round robin: replica 1's copy is short
/// and completes in the first epoch, replica 0's is long and completes
/// epochs later. The output still lists replica 0's record first, as it
/// did when each replica's whole log was concatenated in index order and
/// then sorted by id.
#[test]
fn duplicate_id_across_replicas_lists_the_lower_replica_first() {
    let cfg = FleetConfig {
        replicas: 2,
        sharding: ShardPolicy::RoundRobin,
        epoch_s: 1.0,
        serving: ServingConfig {
            max_batch: 4,
            pool_tokens: Some(8192),
            ..ServingConfig::default()
        },
        autoscale: None,
    };
    let requests = vec![
        SimRequest::new(7, 0.0, 256, 600),
        SimRequest::new(7, 0.01, 64, 2),
        SimRequest::new(3, 0.02, 64, 2),
    ];
    let out = run_fleet(cfg, requests);
    assert_eq!(out.dropped, 0);
    let order: Vec<(u64, usize)> = out.completed.iter().map(|c| (c.id, c.server_id)).collect();
    assert_eq!(order, [(3, 0), (7, 0), (7, 1)]);
    let finish = |c: &CompletedRequest| c.arrival_s + c.e2e_s;
    // The planted premise: replica 1 finished its copy an epoch earlier.
    assert!(finish(&out.completed[2]) + 1.0 < finish(&out.completed[1]));
}

/// Many copies of two ids on one replica, one at a time (batch width 1),
/// under shortest-predicted-first: each later arrival is shorter, so it
/// finishes first. Records of one id appear in completion order, which is
/// latest arrival first.
#[test]
fn duplicate_ids_on_one_replica_keep_their_completion_order() {
    let cfg = FleetConfig {
        replicas: 1,
        sharding: ShardPolicy::RoundRobin,
        epoch_s: 0.5,
        serving: ServingConfig {
            max_batch: 1,
            pool_tokens: Some(8192),
            scheduler: SchedulerConfig::ShortestPredictedFirst,
            ..ServingConfig::default()
        },
        autoscale: None,
    };
    // A long filler holds the batch while the copies queue up behind it.
    let mut requests = vec![SimRequest::new(0, 0.0, 64, 400)];
    for k in 0..40u64 {
        let id = if k % 2 == 0 { 5 } else { 9 };
        requests.push(SimRequest::new(
            id,
            0.001 * (k + 1) as f64,
            32,
            2 + 3 * (40 - k) as usize,
        ));
    }
    let out = run_fleet(cfg, requests);
    assert_eq!(out.dropped, 0);
    assert_eq!(out.completed.len(), 41);
    assert_merge_order(&out.completed);
    for id in [5, 9] {
        let arrivals: Vec<f64> = out
            .completed
            .iter()
            .filter(|c| c.id == id)
            .map(|c| c.arrival_s)
            .collect();
        assert_eq!(arrivals.len(), 20);
        assert!(
            arrivals.windows(2).all(|w| w[0] > w[1]),
            "id {id}: copies out of completion order: {arrivals:?}"
        );
    }
}
