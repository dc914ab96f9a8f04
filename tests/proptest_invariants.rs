//! Property-based invariants across the workspace's core data structures.
//!
//! Runs on the in-repo seeded property harness (`rkvc_tensor::det_cases!`):
//! every property draws its inputs from a deterministic per-case RNG, so
//! failures replay exactly from the printed seed.

use rethink_kv_compression::kvcache::{
    dequantize_group, quantize_group, CompressionConfig, GearParams, KiviParams, PyramidKvParams,
    SnapKvParams, SupportedBits,
};
use rethink_kv_compression::serving::{
    AdmitOrder, BlockManager, ClassMetrics, CompletedRequest, Engine, LatencySummary,
    SchedulerConfig, ServerSim, ServingConfig, SloClass, SloMetrics, SloPolicy, SloTarget,
    SloTargets, VictimRule,
};
use rethink_kv_compression::tensor::{det::SeededRng, round_to_f16, Matrix};
use rethink_kv_compression::workload::{
    length_difference, sample_sessions, token_f1, LengthStats, SessionSpec, SessionTrace,
    SessionTurn, SessionWorkloadConfig,
};

fn random_bits(rng: &mut SeededRng) -> SupportedBits {
    match rng.gen_range(0u32..4) {
        0 => SupportedBits::B1,
        1 => SupportedBits::B2,
        2 => SupportedBits::B4,
        _ => SupportedBits::B8,
    }
}

/// Any of the ten `CompressionConfig` variants, at budgets small enough
/// that a few dozen tokens trigger every eviction, flush and selection.
fn random_algo(rng: &mut SeededRng) -> CompressionConfig {
    match rng.gen_range(0u32..10) {
        0 => CompressionConfig::Fp16,
        1 => CompressionConfig::streaming(rng.gen_range(1usize..6), rng.gen_range(1usize..12)),
        2 => CompressionConfig::h2o(rng.gen_range(1usize..6), rng.gen_range(1usize..12)),
        3 => CompressionConfig::Kivi(KiviParams {
            bits: if rng.gen_bool(0.5) { 2 } else { 4 },
            group_size: 4,
            residual: 8,
        }),
        4 => CompressionConfig::Gear(GearParams {
            bits: if rng.gen_bool(0.5) { 2 } else { 4 },
            outlier_ratio: 0.05,
            rank_ratio: 0.2,
            buffer: 4,
        }),
        5 => CompressionConfig::SnapKv(SnapKvParams {
            budget: rng.gen_range(2usize..10),
            obs_window: 2,
            kernel: 3,
        }),
        6 => CompressionConfig::tova(rng.gen_range(1usize..12)),
        7 => CompressionConfig::think([0.25f32, 0.5, 1.0][rng.gen_range(0usize..3)]),
        8 => CompressionConfig::PyramidKv(PyramidKvParams {
            first_layer_budget: rng.gen_range(6usize..12),
            last_layer_budget: rng.gen_range(1usize..6),
            obs_window: 2,
        }),
        _ => CompressionConfig::quest(rng.gen_range(1usize..6), rng.gen_range(1usize..4)),
    }
}

fn random_vec_f32(rng: &mut SeededRng, len: std::ops::Range<usize>, lo: f32, hi: f32) -> Vec<f32> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// A synthetic completion stream with random classes, latencies, and
/// per-request attainment flags.
fn random_completed(rng: &mut SeededRng) -> Vec<CompletedRequest> {
    let n = rng.gen_range(0usize..40);
    (0..n)
        .map(|i| {
            let ttft_s = rng.gen_range(0.01f64..3.0);
            CompletedRequest {
                id: i as u64,
                server_id: 0,
                arrival_s: rng.gen_range(0.0f64..30.0),
                ttft_s,
                e2e_s: ttft_s + rng.gen_range(0.0f64..20.0),
                generated: rng.gen_range(1usize..300),
                queue_delay_s: rng.gen_range(0.0f64..2.0),
                preemptions: 0,
                slo: match rng.gen_range(0u32..3) {
                    0 => SloClass::Interactive,
                    1 => SloClass::Standard,
                    _ => SloClass::Batch,
                },
                slo_ok: rng.gen_bool(0.6),
                session: None,
            }
        })
        .collect()
}

rkvc_tensor::det_cases! {
    fn slo_class_counts_sum_to_totals(rng) {
        let done = random_completed(rng);
        let m = SloMetrics::from_completed(&done);
        assert_eq!(m.completed, done.len());
        let sum = |f: fn(&ClassMetrics) -> usize| -> usize { m.per_class.iter().map(f).sum() };
        assert_eq!(
            sum(|c| c.completed),
            m.completed,
            "per-class completions must partition the stream"
        );
        assert_eq!(sum(|c| c.slo_met), m.slo_met);
        assert_eq!(sum(|c| c.generated_tokens), m.generated_tokens);
        assert_eq!(sum(|c| c.attained_tokens), m.attained_tokens);
    }

    fn goodput_is_bounded_by_throughput(rng) {
        let done = random_completed(rng);
        let m = SloMetrics::from_completed(&done);
        assert!(m.goodput_tps >= 0.0, "goodput {}", m.goodput_tps);
        assert!(
            m.goodput_tps <= m.throughput_tps + 1e-12,
            "goodput {} must not exceed throughput {}",
            m.goodput_tps,
            m.throughput_tps
        );
        assert!(m.attained_tokens <= m.generated_tokens);
    }

    fn session_turns_never_start_before_predecessor_completes(rng, cases = 8) {
        use rethink_kv_compression::gpu::{DeploymentSpec, EngineKind, GpuSpec, LlmSpec};
        let mut cfg = SessionWorkloadConfig::chat(
            rng.gen_range(2usize..6),
            rng.gen_range(0u64..1 << 20),
        );
        cfg.arrival_rps = rng.gen_range(1.0f64..8.0);
        let trace = SessionTrace::new(sample_sessions(&cfg), cfg.max_turns);
        // The specs are the trace's ground truth: planned turns partition
        // the total, and turn 0 of a conversation has no think gap.
        let specs: &[SessionSpec] = trace.specs();
        let planned: usize = specs.iter().map(|s| s.turns.len()).sum();
        assert_eq!(planned, trace.total_turns());
        let first: &SessionTurn = &specs[0].turns[0];
        assert_eq!(first.think_gap_s, 0.0, "turn 0 has no think gap");
        let dep = DeploymentSpec {
            gpu: GpuSpec::a6000(),
            llm: LlmSpec::llama2_7b(),
            engine: EngineKind::LmDeploy,
            tensor_parallel: 1,
        };
        let serve_cfg = ServingConfig {
            max_batch: 8,
            pool_tokens: Some(16384),
            scheduler: SchedulerConfig::Preemptive,
            slo_policy: if rng.gen_bool(0.5) { SloPolicy::Aware } else { SloPolicy::Blind },
            prefix_sharing: true,
            ..ServingConfig::default()
        };
        let server = ServerSim::with_config(
            0,
            dep,
            CompressionConfig::Fp16,
            serve_cfg,
        )
        .expect("valid session property config");
        let mut engine = Engine::new(vec![server]);
        let done = engine.run(
            trace.initial_requests(),
            |_, r| (0, r.response_len as f64),
            |c| trace.follow_up(c),
        );
        assert_eq!(done.len(), trace.total_turns(), "every turn must complete");
        let mut last_done: std::collections::BTreeMap<u64, (u32, f64)> = Default::default();
        for c in &done {
            let s = c.session.expect("session workload requests carry a session ref");
            if let Some(&(prev_turn, prev_done_s)) = last_done.get(&s.session) {
                assert_eq!(s.turn, prev_turn + 1, "turns complete in order per session");
                assert!(
                    c.arrival_s >= prev_done_s,
                    "turn {} of session {} arrived at {} before turn {} completed at {}",
                    s.turn,
                    s.session,
                    c.arrival_s,
                    prev_turn,
                    prev_done_s
                );
            } else {
                assert_eq!(s.turn, 0, "first completion of a session is turn 0");
            }
            last_done.insert(s.session, (s.turn, c.arrival_s + c.e2e_s));
        }
    }

    fn quantizer_round_trip_error_bounded(rng) {
        let values = random_vec_f32(rng, 1..128, -100.0, 100.0);
        let bits = random_bits(rng);
        let group = quantize_group(&values, bits);
        let recon = dequantize_group(&group);
        assert_eq!(recon.len(), values.len());
        let lo = values.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let step = (hi - lo) / bits.max_code() as f32;
        // Half a quantization step plus FP16 slack on constants.
        let slack = (hi.abs() + lo.abs() + 1.0) * 2.0 * 2.0f32.powi(-11) + step * 0.1;
        for (a, b) in values.iter().zip(&recon) {
            assert!(
                (a - b).abs() <= step * 0.5 + slack,
                "value {} reconstructed {} (step {})",
                a,
                b,
                step
            );
        }
    }

    fn quantized_codes_fit_bit_width(rng) {
        let values = random_vec_f32(rng, 1..64, -10.0, 10.0);
        let bits = random_bits(rng);
        let group = quantize_group(&values, bits);
        for i in 0..group.len() {
            assert!(group.code(i) <= bits.max_code());
        }
    }

    fn cache_policies_preserve_order_and_bounds(rng) {
        let algo = random_algo(rng);
        let n = rng.gen_range(1usize..60);
        let mut cache = algo.build(8);
        for pos in 0..n {
            let k = [pos as f32 * 0.01; 8];
            cache.append(&k, &k, pos);
            let len = cache.len();
            cache.observe_attention(&vec![1.0 / len as f32; len]);
        }
        cache.finish_prefill();
        let view = cache.view();
        // Retained never exceeds seen; view matches len; positions are
        // strictly increasing and all within what was appended.
        assert_eq!(cache.seen(), n);
        assert!(cache.len() <= n);
        assert_eq!(view.positions.len(), cache.len());
        assert!(view.positions.windows(2).all(|w| w[0] < w[1]));
        assert!(view.positions.iter().all(|&p| p < n));
        assert_eq!(view.keys.rows(), cache.len());
        assert_eq!(view.values.rows(), cache.len());
        // Stats agree with the cache, and every token seen is accounted
        // for: retained or evicted, against the FP16 bytes of all of them.
        let stats = cache.stats();
        assert_eq!(stats.tokens_retained, cache.len());
        assert_eq!(stats.memory_bytes, cache.memory_bytes());
        assert_eq!(stats.tokens_seen, stats.tokens_retained + stats.tokens_evicted, "{algo}");
        assert_eq!(stats.fp16_baseline_bytes, 2 * n * 8 * 2, "{algo}");
        // The config that built it survives its manifest form.
        use rethink_kv_compression::tensor::json;
        let back: CompressionConfig = json::from_str(&json::to_string(&algo)).unwrap();
        assert_eq!(back, algo);
    }

    fn eviction_budgets_are_hard_caps(rng) {
        let sinks = rng.gen_range(1usize..8);
        let recent = rng.gen_range(1usize..16);
        let n = rng.gen_range(1usize..100);
        let mut stream = CompressionConfig::streaming(sinks, recent).build(4);
        let mut h2o = CompressionConfig::h2o(sinks, recent).build(4);
        for pos in 0..n {
            stream.append(&[0.0; 4], &[0.0; 4], pos);
            h2o.append(&[0.0; 4], &[0.0; 4], pos);
            let len = h2o.len();
            h2o.observe_attention(&vec![1.0 / len as f32; len]);
        }
        assert!(stream.len() <= sinks + recent);
        assert!(h2o.len() <= sinks + recent);
    }

    fn block_manager_conserves_blocks(rng) {
        let ops: Vec<(u64, usize)> = (0..rng.gen_range(1usize..40))
            .map(|_| (rng.gen_range(0u64..8), rng.gen_range(1usize..40)))
            .collect();
        let mut m = BlockManager::new(256, 4);
        let mut live: std::collections::BTreeSet<u64> = Default::default();
        for (seq, tokens) in ops {
            if live.contains(&seq) {
                m.free_seq(seq).expect("live sequence");
                live.remove(&seq);
            } else if m.register_seq(seq, tokens).is_ok() {
                live.insert(seq);
            }
            assert_eq!(m.used_blocks() + m.free_blocks(), m.total_blocks());
            assert_eq!(m.seq_count(), live.len());
        }
    }

    fn f16_rounding_is_idempotent(rng) {
        let x: f32 = rng.gen_range(-1.0e4f32..1.0e4);
        let once = round_to_f16(x);
        assert_eq!(round_to_f16(once), once);
        assert!((once - x).abs() <= x.abs() * 2.0f32.powi(-11) + 1e-7);
    }

    fn token_f1_is_symmetric_and_bounded(rng) {
        let draw = |rng: &mut SeededRng| -> Vec<usize> {
            let n = rng.gen_range(0usize..20);
            (0..n).map(|_| rng.gen_range(0usize..20)).collect()
        };
        let a = draw(rng);
        let b = draw(rng);
        let ab = token_f1(&a, &b);
        let ba = token_f1(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&ab));
        assert_eq!(token_f1(&a, &a), 1.0);
    }

    fn length_stats_fractions_are_consistent(rng) {
        let pairs: Vec<(usize, usize)> = (0..rng.gen_range(1usize..60))
            .map(|_| (rng.gen_range(1usize..500), rng.gen_range(1usize..500)))
            .collect();
        let stats = LengthStats::from_pairs(pairs.clone());
        let ge = stats.frac_ge(0.5);
        let le = stats.frac_le(-0.5);
        assert!(ge + le <= 1.0 + 1e-12);
        for ((u, c), d) in pairs.iter().zip(stats.values()) {
            assert!((d - length_difference(*u, *c)).abs() < 1e-12);
        }
    }

    fn latency_cdf_is_monotone(rng) {
        let n = rng.gen_range(1usize..50);
        let lat: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0f64..100.0)).collect();
        let s = LatencySummary::new(lat);
        let points: Vec<f64> = (0..=20).map(|i| i as f64 * 5.0).collect();
        let cdf = s.cdf(&points);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert!(*cdf.last().unwrap() <= 1.0);
        assert!(s.p50() <= s.p95() && s.p95() <= s.p99());
    }

    fn cost_model_is_monotone_in_batch_and_length(rng) {
        use rethink_kv_compression::gpu::{DeploymentSpec, EngineKind, GpuSpec, LlmSpec};
        let algo = random_algo(rng);
        let b1 = rng.gen_range(1usize..16);
        let extra_b = rng.gen_range(1usize..16);
        let kv1 = rng.gen_range(128usize..4096);
        let extra_kv = rng.gen_range(1usize..4096);
        let dep = DeploymentSpec {
            gpu: GpuSpec::a6000(),
            llm: LlmSpec::llama2_7b(),
            engine: EngineKind::LmDeploy,
            tensor_parallel: 1,
        };
        let t_base = dep.decode_step(&algo, b1, kv1).total();
        let t_more_batch = dep.decode_step(&algo, b1 + extra_b, kv1).total();
        let t_more_kv = dep.decode_step(&algo, b1, kv1 + extra_kv).total();
        assert!(t_base > 0.0 && t_base.is_finite());
        assert!(
            t_more_batch >= t_base * 0.999,
            "batch monotonicity: {} vs {}",
            t_more_batch,
            t_base
        );
        assert!(
            t_more_kv >= t_base * 0.999,
            "kv monotonicity: {} vs {}",
            t_more_kv,
            t_base
        );
        // Prefill likewise.
        let p_base = dep.prefill(&algo, b1, kv1).total();
        let p_long = dep.prefill(&algo, b1, kv1 + extra_kv).total();
        assert!(p_long >= p_base * 0.999);
    }

    fn generation_is_deterministic_per_seed_and_policy(rng, cases = 24) {
        use rethink_kv_compression::kvcache::CompressionConfig as CC;
        use rethink_kv_compression::model::{vocab, GenerateParams, ModelConfig, TinyLm};
        let algo = random_algo(rng);
        let seed = rng.gen_range(0u64..1000);
        let pattern_len = rng.gen_range(2usize..6);
        // Skip the heavyweight quantizers in this fuzz loop (covered by
        // their own tests); keep the fast policies.
        let fast = !matches!(algo, CC::Kivi(_) | CC::Gear(_));
        if fast {
            let model = TinyLm::new(ModelConfig::induction_mha());
            let mut prompt = vec![vocab::BOS];
            for i in 0..pattern_len {
                prompt.push(vocab::CONTENT_START + i * 2);
            }
            prompt.push(vocab::EOS_SYM);
            prompt.push(vocab::CONTENT_START);
            let params = GenerateParams::sampled(12, 1.0, seed);
            let a = model.generate(&prompt, &algo, &params);
            let b = model.generate(&prompt, &algo, &params);
            assert_eq!(a.tokens, b.tokens);
            assert_eq!(a.stopped_by_eos, b.stopped_by_eos);
        }
    }

    fn slo_targets_classify_latencies_consistently(rng) {
        // The policy() mapping hands out exactly the named aware
        // policies, and a target classifies a latency pair the same way
        // whether reached through `SloTargets::target` or the per-class
        // field.
        let spf = SchedulerConfig::ShortestPredictedFirst.policy(SloPolicy::Aware);
        assert_eq!(spf.label, "spf+slo");
        assert_eq!((spf.admit, spf.victim), (AdmitOrder::Deadline, VictimRule::Never));
        let preemptive = SchedulerConfig::Preemptive.policy(SloPolicy::Aware);
        assert_eq!(preemptive.label, "preemptive+slo");
        assert_eq!(
            (preemptive.admit, preemptive.victim),
            (AdmitOrder::Deadline, VictimRule::BatchFirstYoungest)
        );
        let targets = SloTargets::default();
        let class = match rng.gen_range(0u32..3) {
            0 => SloClass::Interactive,
            1 => SloClass::Standard,
            _ => SloClass::Batch,
        };
        let t: SloTarget = targets.target(class);
        let ttft = rng.gen_range(0.0f64..300.0);
        let tbot = rng.gen_range(0.0f64..2.0);
        assert_eq!(t.met(ttft, tbot), ttft <= t.ttft_s && tbot <= t.tbt_s);
        assert_eq!(
            targets.ttft_deadline(class, ttft),
            ttft + t.ttft_s,
            "deadline is arrival plus the class TTFT budget"
        );
    }

    fn matrix_select_rows_matches_manual(rng) {
        let rows = rng.gen_range(1usize..12);
        let cols = rng.gen_range(1usize..6);
        let data: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
        let m = Matrix::from_vec(rows, cols, data);
        let idx: Vec<usize> = (0..rows).rev().collect();
        let sel = m.select_rows(&idx);
        for (out_r, &src_r) in idx.iter().enumerate() {
            assert_eq!(sel.row(out_r), m.row(src_r));
        }
    }
}
