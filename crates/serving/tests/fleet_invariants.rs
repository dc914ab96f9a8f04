//! Property tests for the fleet layer's dispatch and scaling machinery:
//! jump consistent hashing's minimal-remap guarantee, round-robin's
//! balance guarantee, and the shard-policy/autoscaler contracts the
//! fleet's epoch loop relies on.

use rkvc_serving::{
    jump_hash, shard_key, AutoscaleConfig, Autoscaler, FleetTelemetry, ScaleAction, ShardPolicy,
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
