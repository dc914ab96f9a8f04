//! `BlockManager` property tests for the sharing/tiering era: random
//! alloc/grow/shrink/evict interleavings must conserve blocks exactly —
//! no leaks, no double-frees — refcounted shared blocks must be counted
//! once and never mutated, and serving results must not depend on the
//! worker-pool width (`RKVC_THREADS`).

use std::collections::BTreeMap;

use rkvc_gpu::{DeploymentSpec, EngineKind, GpuSpec, LlmSpec};
use rkvc_kvcache::CompressionConfig;
use rkvc_serving::{
    prefix_hash_chain, BlockManager, BlockTier, BlockView, CompletedRequest, SchedulerConfig,
    ServerSim, ServingConfig, SimRequest, TierConfig,
};
use rkvc_tensor::par;

fn dep() -> DeploymentSpec {
    DeploymentSpec {
        gpu: GpuSpec::a6000(),
        llm: LlmSpec::llama2_7b(),
        engine: EngineKind::LmDeploy,
        tensor_parallel: 1,
    }
}

/// Bitwise equality of two completion streams.
fn same(a: &[CompletedRequest], b: &[CompletedRequest]) {
    assert_eq!(a.len(), b.len());
    for (a, b) in a.iter().zip(b) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.e2e_s.to_bits(), b.e2e_s.to_bits());
        assert_eq!(a.ttft_s.to_bits(), b.ttft_s.to_bits());
        assert_eq!(a.queue_delay_s.to_bits(), b.queue_delay_s.to_bits());
        assert_eq!(a.preemptions, b.preemptions);
    }
}

rkvc_tensor::det_cases! {
    /// Random register/append/truncate/free interleavings — including the
    /// preemption pattern (free a live sequence, re-register it later with
    /// more tokens) — conserve blocks exactly. Per-sequence holdings are
    /// tracked from observed `used_blocks` deltas, so any leak or
    /// double-free breaks the running conservation sum.
    fn alloc_free_evict_never_leaks_or_double_frees(rng, cases = 64) {
        let block_size = *rng.choose(&[4usize, 8, 16, 32]);
        let total = rng.gen_range(8usize..96);
        let mut m = BlockManager::new(total, block_size);
        // Shadow ledger: (blocks, tokens) each live sequence holds —
        // blocks learned from used_blocks deltas after each successful
        // operation, tokens mirrored from the ops themselves.
        let mut held: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
        let mut next_seq = 0u64;
        for _ in 0..rng.gen_range(20usize..120) {
            let before = m.used_blocks();
            assert_eq!(
                before,
                held.values().map(|&(b, _)| b).sum::<usize>(),
                "ledger out of sync with manager"
            );
            match rng.gen_range(0u32..10) {
                // Register a fresh sequence (the admission / re-admission
                // path after a preemption).
                0..=3 => {
                    let tokens = rng.gen_range(0usize..(3 * block_size * total / 2));
                    let seq = next_seq;
                    next_seq += 1;
                    match m.register_seq(seq, tokens) {
                        Ok(()) => {
                            held.insert(seq, (m.used_blocks() - before, tokens));
                        }
                        Err(_) => assert_eq!(m.used_blocks(), before, "failed register must not allocate"),
                    }
                }
                // Grow a live sequence by one token (decode).
                4..=6 => {
                    if let Some((&seq, _)) = held.iter().next() {
                        match m.append_token(seq) {
                            Ok(()) => {
                                let grew = m.used_blocks() - before;
                                assert!(grew <= 1, "one token grows at most one block");
                                let entry = held.get_mut(&seq).expect("live seq");
                                entry.0 += grew;
                                entry.1 += 1;
                            }
                            Err(_) => assert_eq!(m.used_blocks(), before, "failed append must not allocate"),
                        }
                    }
                }
                // Shrink a live sequence (compression truncating KV).
                7..=8 => {
                    if let Some((&seq, &(blocks, tokens))) = held.iter().last() {
                        let keep = rng.gen_range(0usize..(tokens + 1));
                        m.truncate_seq(seq, keep).expect("live seq truncates");
                        let freed = before - m.used_blocks();
                        assert!(freed <= blocks, "truncate cannot free foreign blocks");
                        *held.get_mut(&seq).expect("live seq") = (blocks - freed, keep);
                    }
                }
                // Evict a sequence outright (preemption / completion),
                // then prove freeing it again is a typed error with no
                // effect on the pool.
                _ => {
                    if let Some((&seq, &(blocks, _))) = held.iter().next() {
                        m.free_seq(seq).expect("live seq frees");
                        assert_eq!(m.used_blocks(), before - blocks, "free must return exactly the holding");
                        held.remove(&seq);
                        let at_freed = m.used_blocks();
                        assert!(m.free_seq(seq).is_err(), "double free must be rejected");
                        assert_eq!(m.used_blocks(), at_freed, "rejected double free must not mutate");
                    }
                }
            }
            assert!(m.used_blocks() <= m.total_blocks(), "over-allocation");
            assert_eq!(m.free_blocks(), m.total_blocks() - m.used_blocks());
        }
        // Drain: releasing every live sequence must return the pool to
        // empty — anything else is a leak.
        let seqs: Vec<u64> = held.keys().copied().collect();
        for seq in seqs {
            m.free_seq(seq).expect("live seq frees at drain");
        }
        assert_eq!(m.used_blocks(), 0, "pool must drain to zero used blocks");
        assert_eq!(m.free_blocks(), m.total_blocks());
        assert_eq!(m.seq_count(), 0);
    }

    /// Sharing-era conservation: under random shared-register / append /
    /// truncate / free / demote / refill interleavings, the tier counters
    /// always equal the number of *distinct* physical blocks reachable
    /// from live chains (a shared block counts once), every block's
    /// refcount equals the number of chains holding it, every sequence
    /// holds exactly `ceil(tokens / block_size)` blocks, and
    /// `internal_fragmentation_tokens` sums unfilled slots over physical
    /// blocks only.
    fn shared_pool_conserves_blocks_and_refcounts(rng, cases = 48) {
        let bs = *rng.choose(&[4usize, 8, 16]);
        let total = rng.gen_range(16usize..80);
        let l2 = rng.gen_range(0usize..40);
        let mut m = BlockManager::with_tier(total, bs, l2);
        // Mirror of each live sequence's token count.
        let mut tokens: BTreeMap<u64, usize> = BTreeMap::new();
        let mut next_seq = 0u64;
        for _ in 0..rng.gen_range(30usize..140) {
            let live: Vec<u64> = tokens.keys().copied().collect();
            match rng.gen_range(0u32..12) {
                // Shared registration: three prefix groups so dedup hits
                // are common.
                0..=4 => {
                    let group = rng.gen_range(0usize..3) as u64;
                    let pblocks = rng.gen_range(0usize..5);
                    let hashes = prefix_hash_chain(group, bs, pblocks);
                    let want = rng.gen_range(0usize..(2 * bs * (pblocks + 2)));
                    let seq = next_seq;
                    next_seq += 1;
                    if m.register_seq_shared(seq, want, &hashes).is_ok() {
                        tokens.insert(seq, want);
                    }
                }
                // Decode growth (may CoW inside a shared tail).
                5..=6 => {
                    if !live.is_empty() {
                        let seq = live[rng.gen_range(0usize..live.len())];
                        if m.append_token(seq).is_ok() {
                            *tokens.get_mut(&seq).expect("live seq") += 1;
                        }
                    }
                }
                // Compression truncation.
                7..=8 => {
                    if !live.is_empty() {
                        let seq = live[rng.gen_range(0usize..live.len())];
                        let keep = rng.gen_range(0usize..(tokens[&seq] + 1));
                        m.truncate_seq(seq, keep).expect("live seq truncates");
                        tokens.insert(seq, keep);
                    }
                }
                // Completion / eviction.
                9 => {
                    if !live.is_empty() {
                        let seq = live[rng.gen_range(0usize..live.len())];
                        m.free_seq(seq).expect("live seq frees");
                        tokens.remove(&seq);
                    }
                }
                // Preemption spill (all-or-nothing; Err moves nothing).
                10 => {
                    if !live.is_empty() {
                        let _ = m.demote_seq(live[rng.gen_range(0usize..live.len())]);
                    }
                }
                // Re-admission refill.
                _ => {
                    if !live.is_empty() {
                        let _ = m.refill_seq(live[rng.gen_range(0usize..live.len())]);
                    }
                }
            }
            // Invariants, re-checked after every operation.
            assert_eq!(m.used_blocks() + m.free_blocks(), m.total_blocks());
            assert!(m.l2_used_blocks() <= m.l2_total_blocks());
            let mut seen: BTreeMap<u32, (BlockView, u32)> = BTreeMap::new();
            let mut logical = 0usize;
            for (&seq, &toks) in &tokens {
                let views = m.seq_blocks(seq).expect("live seq has a chain");
                assert_eq!(views.len(), toks.div_ceil(bs), "blocks held == ceil(tokens/bs)");
                logical += views.len();
                for v in views {
                    let e = seen.entry(v.id).or_insert((v, 0));
                    assert_eq!(e.0, v, "chains disagree about block {}", v.id);
                    e.1 += 1;
                }
            }
            assert_eq!(logical, m.logical_blocks());
            let l1 = seen.values().filter(|(v, _)| v.tier == BlockTier::L1).count();
            let l2r = seen.values().filter(|(v, _)| v.tier == BlockTier::L2).count();
            assert_eq!(l1, m.used_blocks(), "distinct L1 blocks == used (shared counted once)");
            assert_eq!(l2r, m.l2_used_blocks(), "distinct L2 blocks == spilled");
            for (v, holders) in seen.values() {
                assert_eq!(v.refs, *holders, "refcount == chains holding block {}", v.id);
            }
            let frag: usize = seen.values().map(|(v, _)| bs - v.filled).sum();
            assert_eq!(
                frag,
                m.internal_fragmentation_tokens(),
                "fragmentation counts each physical block once"
            );
        }
        // Drain: both tiers must empty — anything else is a leak.
        for seq in tokens.keys().copied().collect::<Vec<_>>() {
            m.free_seq(seq).expect("live seq frees at drain");
        }
        assert_eq!(m.used_blocks(), 0);
        assert_eq!(m.l2_used_blocks(), 0);
        assert_eq!(m.free_blocks(), m.total_blocks());
        assert_eq!(m.internal_fragmentation_tokens(), 0);
    }

    /// Arbitrary activity on diverging sequences never changes the owner
    /// sequence's view of the shared prefix: block ids, fills, and
    /// publication all hold. Copy-on-write copies; it never mutates.
    fn cow_keeps_the_shared_prefix_immutable(rng, cases = 32) {
        let bs = *rng.choose(&[4usize, 8]);
        let mut m = BlockManager::new(64, bs);
        let pblocks = rng.gen_range(1usize..4);
        let hashes = prefix_hash_chain(rng.gen_range(0usize..8) as u64, bs, pblocks);
        // Seq 1 (the owner) is exactly the shared prefix and is never
        // touched again; every one of its blocks is published.
        m.register_seq_shared(1, pblocks * bs, &hashes).expect("owner fits");
        let mut t2 = pblocks * bs + rng.gen_range(0usize..bs);
        m.register_seq_shared(2, t2, &hashes).expect("sharer fits");
        let content = |m: &BlockManager| -> Vec<(u32, usize, bool)> {
            m.seq_blocks(1)
                .expect("owner registered")
                .iter()
                .map(|v| (v.id, v.filled, v.published))
                .collect()
        };
        let frozen = content(&m);
        let mut third_live = false;
        for _ in 0..rng.gen_range(10usize..60) {
            match rng.gen_range(0u32..6) {
                // Decode into (and past) the shared tail — the CoW path.
                0..=2 => {
                    if m.append_token(2).is_ok() {
                        t2 += 1;
                    }
                }
                // Truncate back into the shared region.
                3 => {
                    let keep = rng.gen_range(0usize..(t2 + 1));
                    m.truncate_seq(2, keep).expect("sharer truncates");
                    t2 = keep;
                }
                // Churn a third sharer of the same prefix.
                4 => {
                    if third_live {
                        m.free_seq(3).expect("third frees");
                        third_live = false;
                    } else if m.register_seq_shared(3, pblocks * bs + 1, &hashes).is_ok() {
                        third_live = true;
                    }
                }
                // Preempt and re-admit the sharer.
                _ => {
                    m.free_seq(2).expect("sharer frees");
                    t2 = t2.min(pblocks * bs);
                    m.register_seq_shared(2, t2, &hashes).expect("sharer re-admits");
                }
            }
            assert_eq!(content(&m), frozen, "shared prefix mutated under sharer activity");
        }
    }

    /// A preemption-heavy serving run is a pure function of its inputs:
    /// the free-block state and the completion stream must be
    /// bit-identical whatever `RKVC_THREADS` says — and whichever of the
    /// three ways of running a server dry produced them.
    fn free_block_state_is_invariant_across_thread_counts(rng, cases = 8) {
        let n = rng.gen_range(6usize..14);
        let pool = rng.gen_range(1600usize..2600);
        let requests: Vec<SimRequest> = (0..n)
            .map(|i| {
                SimRequest::new(
                    i as u64,
                    0.0,
                    rng.gen_range(128usize..512),
                    rng.gen_range(32usize..128),
                )
            })
            .collect();
        let make = || {
            let cfg = ServingConfig {
                max_batch: 8,
                pool_tokens: Some(pool),
                scheduler: SchedulerConfig::Preemptive,
                ..ServingConfig::default()
            };
            let mut s = ServerSim::with_config(0, dep(), CompressionConfig::Fp16, cfg)
                .expect("valid config");
            for r in &requests {
                s.enqueue(r.clone());
            }
            s
        };
        let serve = |threads: Option<usize>| {
            par::set_threads(threads);
            let mut s = make();
            s.run_until_idle();
            let util = s.memory_utilization();
            let end_s = s.clock_s();
            let done = s.into_completed();
            par::set_threads(None);
            (done, util.to_bits(), end_s)
        };
        let (done1, util1, end_s) = serve(Some(1));
        let (done4, util4, _) = serve(Some(4));
        assert_eq!(util1, util4, "post-run pool state must not depend on threads");
        same(&done1, &done4);
        // `run_until_idle` + `into_completed` is `run_to_completion`, and
        // advancing past the last completion finishes the same work.
        same(&done1, &make().run_to_completion());
        let mut advanced = make();
        advanced.advance_to(end_s + 1.0);
        assert_eq!(advanced.clock_s(), end_s + 1.0);
        same(&done1, &advanced.into_completed());
    }

    /// A sharing-heavy, tiered run (shared system prompts, host spill on
    /// preemption, PCIe-priced refills) is likewise bit-identical at any
    /// `RKVC_THREADS` — completion stream, pool state, and sharing
    /// counters all.
    fn shared_tiered_run_is_invariant_across_thread_counts(rng, cases = 6) {
        let n = rng.gen_range(8usize..16);
        let pool = rng.gen_range(1800usize..2600);
        let requests: Vec<SimRequest> = (0..n)
            .map(|i| {
                let group = rng.gen_range(0usize..3) as u64;
                let prefix = *rng.choose(&[256usize, 384, 512]);
                let suffix = rng.gen_range(16usize..128);
                SimRequest::new(
                    i as u64,
                    i as f64 * 0.05,
                    prefix + suffix,
                    rng.gen_range(32usize..96),
                )
                .with_shared_prefix(group, prefix)
            })
            .collect();
        let serve = |threads: Option<usize>| {
            par::set_threads(threads);
            let cfg = ServingConfig {
                max_batch: 8,
                pool_tokens: Some(pool),
                scheduler: SchedulerConfig::Preemptive,
                prefix_sharing: true,
                tier: Some(TierConfig {
                    l2_blocks: 96,
                    ..TierConfig::default()
                }),
                ..ServingConfig::default()
            };
            let mut s = ServerSim::with_config(0, dep(), CompressionConfig::Fp16, cfg)
                .expect("valid config");
            for r in &requests {
                s.enqueue(r.clone());
            }
            s.run_until_idle();
            let util = s.memory_utilization();
            let stats = *s.block_stats();
            let done = s.into_completed();
            par::set_threads(None);
            (done, util.to_bits(), stats)
        };
        let (done1, util1, stats1) = serve(Some(1));
        let (done3, util3, stats3) = serve(Some(3));
        let (done4, util4, stats4) = serve(Some(4));
        assert_eq!(util1, util3, "pool state must not depend on threads");
        assert_eq!(util1, util4, "pool state must not depend on threads");
        assert_eq!(stats1, stats3, "sharing counters must not depend on threads");
        assert_eq!(stats1, stats4, "sharing counters must not depend on threads");
        same(&done1, &done3);
        same(&done1, &done4);
    }
}
