//! Extension experiment: task-aware compression selection (§5.3).
//!
//! The paper recommends two mitigations for negative samples: *"adopt a
//! lightweight model to predict the task types of input requests"* and
//! *"adopt KV cache with varying compression levels"*. This experiment
//! implements both: a task-type classifier routes fragile tasks to the
//! query-aware policy (Quest) and tolerant tasks to the aggressive eviction
//! policy (StreamingLLM), and we compare accuracy and memory against the
//! one-policy-for-everything alternatives.

use rkvc_gpu::LlmSpec;
use rkvc_kvcache::CompressionConfig;
use rkvc_serving::{SchedulerConfig, ServerSim, ServingConfig, ServingMetrics, SimRequest};
use rkvc_workload::{generate_suite, LongBenchConfig, TaskSample};

use super::common::{a6000_lmdeploy, steady_state_bytes, tiny_llama};
use super::{ExperimentResult, RunOptions};
use crate::negative::evaluate_suite;
use crate::report::Table;
use crate::task_predictor::{task_aware_policy, TaskPredictor};

/// Serving epilogue: the classifier's choice also shapes *serving*, not
/// just accuracy — query-aware caches hold full KV while eviction caches
/// release blocks, so the routed mix changes block pressure. Routes the
/// evaluation suite onto a two-server deployment (safe policy on server 0,
/// aggressive eviction on server 1) per predicted task type, then serves
/// the same stream under each scheduler with a deliberately small KV pool.
fn scheduler_epilogue(
    suite: &[TaskSample],
    predictor: &TaskPredictor,
    safe: CompressionConfig,
    aggressive: CompressionConfig,
) -> crate::report::Table {
    let dep = a6000_lmdeploy(LlmSpec::llama2_7b());
    let mut t = Table::new(
        "Extension epilogue: scheduler sweep over the task-routed stream",
        &[
            "Scheduler",
            "completed",
            "mean E2E (s)",
            "p95 TTFT (s)",
            "p95 queue delay (s)",
            "preemptions",
        ],
    );
    for sched in SchedulerConfig::all() {
        let cfg = ServingConfig {
            max_batch: 8,
            // Small enough that the simultaneous stream queues and (under
            // the preemptive policy) can evict; large enough that every
            // request still fits on its own.
            pool_tokens: Some(768),
            scheduler: sched,
            ..ServingConfig::default()
        };
        let mut servers = vec![
            ServerSim::with_config(0, dep.clone(), safe, cfg).expect("epilogue config is valid"),
            ServerSim::with_config(1, dep.clone(), aggressive, cfg)
                .expect("epilogue config is valid"),
        ];
        for (i, s) in suite.iter().enumerate() {
            let routed = task_aware_policy(predictor.predict(&s.prompt), safe, aggressive);
            let dst = if routed == safe { 0 } else { 1 };
            servers[dst].enqueue(SimRequest::new(
                i as u64,
                0.0,
                s.prompt.len(),
                s.max_new_tokens.max(1),
            ));
        }
        let done: Vec<_> = servers
            .into_iter()
            .flat_map(|s| s.run_to_completion())
            .collect();
        let m = ServingMetrics::from_completed(&done);
        t.push_row(vec![
            sched.label().to_owned(),
            format!("{}", m.completed),
            format!("{:.2}", m.row(&m.e2e)[0]),
            format!("{:.3}", m.row(&m.ttft)[2]),
            format!("{:.3}", m.row(&m.queue_delay)[2]),
            format!("{}", m.preemptions),
        ]);
    }
    t
}

/// Runs the task-aware selection experiment.
pub fn run(opts: &RunOptions) -> ExperimentResult {
    let model = tiny_llama();
    let train_cfg = LongBenchConfig {
        samples_per_task: opts.pick(6, 30),
        context_len: opts.pick(120, 224),
        seed: opts.seed ^ 0x7a5c,
        ..Default::default()
    };
    let eval_cfg = LongBenchConfig {
        seed: opts.seed ^ 0x7a5d,
        samples_per_task: opts.pick(4, 20),
        ..train_cfg
    };

    // Train the task classifier on a disjoint suite.
    let train: Vec<_> = generate_suite(&train_cfg)
        .into_iter()
        .map(|s| (s.prompt, s.task))
        .collect();
    let predictor = TaskPredictor::fit(&train);
    let suite = generate_suite(&eval_cfg);
    let labelled: Vec<_> = suite.iter().map(|s| (s.prompt.clone(), s.task)).collect();
    let clf_acc = predictor.accuracy(&labelled);

    let safe = CompressionConfig::quest(8, 8);
    let aggressive = rkvc_workload::scaled_streaming(64);

    // One scored suite holds every sample's outcome under FP16, Stream-64
    // and Quest-64, so a policy row — the task-aware one included — is a
    // per-sample pick from it: score and per-head KV bytes of the policy
    // the sample runs, each summed in suite order, then divided.
    let algos = [
        ("Stream-64".to_owned(), aggressive),
        ("Quest-64".to_owned(), safe),
    ];
    let scores = evaluate_suite(&model, &suite, &algos);
    let head_dim = model.config().head_dim();
    let mean_row = |policy_of: &dyn Fn(&TaskSample) -> CompressionConfig| -> (f64, f64) {
        let (mut score, mut memory) = (0.0, 0.0);
        for (s, sc) in suite.iter().zip(&scores) {
            let cfg = policy_of(s);
            score += match algos.iter().position(|(_, a)| *a == cfg) {
                Some(i) => sc.by_algo[i].1,
                None => sc.baseline,
            };
            memory += steady_state_bytes(head_dim, &cfg, s.prompt.len()) as f64;
        }
        let n = suite.len() as f64;
        (score / n, memory / n)
    };
    let (fp16_score, fp16_mem) = mean_row(&|_| CompressionConfig::Fp16);
    let (stream_score, stream_mem) = mean_row(&|_| aggressive);
    let (quest_score, quest_mem) = mean_row(&|_| safe);
    let (aware_score, aware_mem) =
        mean_row(&|s| task_aware_policy(predictor.predict(&s.prompt), safe, aggressive));

    let mut t = Table::new(
        "Extension: task-aware compression selection",
        &["Policy", "mean score", "mean KV bytes/head", "memory vs FP16"],
    );
    for (label, score, mem) in [
        ("FP16 everywhere", fp16_score, fp16_mem),
        ("Stream-64 everywhere", stream_score, stream_mem),
        ("Quest-64 everywhere", quest_score, quest_mem),
        ("Task-aware (classifier)", aware_score, aware_mem),
    ] {
        t.push_row(vec![
            label.to_owned(),
            format!("{score:.1}"),
            format!("{mem:.0}"),
            format!("{:.0}%", mem / fp16_mem * 100.0),
        ]);
    }

    let epilogue = scheduler_epilogue(&suite, &predictor, safe, aggressive);

    ExperimentResult {
        id: "ext_task_router".to_owned(),
        title: "Task-type prediction + per-task compression levels (§5.3)".to_owned(),
        tables: vec![t, epilogue],
        notes: vec![
            format!("Task classifier accuracy: {:.1}%.", clf_acc * 100.0),
            "Shape target: the task-aware mix approaches Quest-everywhere accuracy while \
             spending less memory (tolerant tasks run the aggressive eviction policy)."
                .to_owned(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_aware_beats_always_aggressive_on_accuracy() {
        let r = run(&RunOptions::quick());
        let t = &r.tables[0];
        let score = |label: &str| -> f64 {
            t.rows
                .iter()
                .find(|row| row[0] == label)
                .unwrap()[1]
                .parse()
                .unwrap()
        };
        assert!(
            score("Task-aware (classifier)") > score("Stream-64 everywhere"),
            "aware {} vs stream {}",
            score("Task-aware (classifier)"),
            score("Stream-64 everywhere")
        );
    }

    #[test]
    fn scheduler_epilogue_serves_the_same_stream_under_every_policy() {
        let r = run(&RunOptions::quick());
        let t = &r.tables[1];
        assert_eq!(t.rows.len(), 3, "one row per scheduler");
        let completed: Vec<usize> = t
            .rows
            .iter()
            .map(|row| row[1].parse().unwrap())
            .collect();
        assert!(
            completed.iter().all(|&c| c > 0 && c == completed[0]),
            "schedulers must serve the same stream: {completed:?}"
        );
        let fcfs = t.rows.iter().find(|row| row[0] == "fcfs").unwrap();
        assert_eq!(fcfs[5], "0", "FCFS never preempts");
    }

    #[test]
    fn task_aware_saves_memory_vs_always_safe() {
        let r = run(&RunOptions::quick());
        let t = &r.tables[0];
        let mem = |label: &str| -> f64 {
            t.rows
                .iter()
                .find(|row| row[0] == label)
                .unwrap()[2]
                .parse()
                .unwrap()
        };
        assert!(
            mem("Task-aware (classifier)") < mem("Quest-64 everywhere"),
            "aware {} vs quest {}",
            mem("Task-aware (classifier)"),
            mem("Quest-64 everywhere")
        );
    }
}
