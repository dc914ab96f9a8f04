//! Multi-turn conversation (session) workload.
//!
//! Single-shot traces miss two properties that dominate production chat
//! serving. First, turns are *causal*: a user reads the answer, thinks,
//! and only then sends the follow-up — so turn `k`'s arrival depends on
//! turn `k − 1`'s completion time, which depends on scheduling. A
//! precomputed arrival trace cannot express that; the engine's
//! `Engine::run` follow-up hook can, and [`SessionTrace::follow_up`] is
//! exactly that hook. Second, each turn's prompt re-opens with the *entire
//! accumulated conversation* (system prefix + every earlier turn), so
//! without KV reuse prefill cost grows quadratically in turns — the reuse
//! the serving layer's session parking removes.
//!
//! [`sample_sessions`] draws the static shape deterministically: Poisson
//! session starts, geometric turn counts, a shared system prompt per
//! session (uniform over `n_groups`), log-normal user/response lengths per
//! turn, log-normal think-time gaps between turns, and an
//! [`SloClass`] per session from a weighted mix (a conversation keeps one
//! latency class for its whole lifetime). Only the *timing* of turns
//! `1..` is left open — [`SessionTrace`] fills it in from actual
//! completions.

use rkvc_serving::{CompletedRequest, SessionRef, SimRequest, SloClass};
use rkvc_tensor::det::{Exp, LogNormal};
use rkvc_tensor::seeded_rng;

/// Configuration for the multi-turn session sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionWorkloadConfig {
    /// Number of conversations to draw.
    pub n_sessions: usize,
    /// Mean session-start rate (sessions/second, Poisson process).
    pub arrival_rps: f64,
    /// Mean turns per session (geometric; every session has at least one).
    pub mean_turns: f64,
    /// Hard cap on turns per session (also spaces request ids).
    pub max_turns: usize,
    /// Number of distinct system prompts (prefix groups).
    pub n_groups: usize,
    /// Tokens in each shared system prompt.
    pub prefix_len: usize,
    /// Log-normal `mu` of each user turn's length.
    pub user_log_mean: f64,
    /// Log-normal `sigma` of the user turn length.
    pub user_log_std: f64,
    /// User turn length clamp (min, max).
    pub user_clamp: (usize, usize),
    /// Log-normal `mu` of the response length.
    pub response_log_mean: f64,
    /// Log-normal `sigma` of the response length.
    pub response_log_std: f64,
    /// Response length clamp (min, max).
    pub response_clamp: (usize, usize),
    /// Log-normal `mu` of the think time between turns (seconds).
    pub think_log_mean: f64,
    /// Log-normal `sigma` of the think time.
    pub think_log_std: f64,
    /// Think time clamp in seconds (min, max).
    pub think_clamp: (f64, f64),
    /// Weight of [`SloClass::Interactive`] in the per-session class draw.
    pub interactive_weight: u32,
    /// Weight of [`SloClass::Standard`].
    pub standard_weight: u32,
    /// Weight of [`SloClass::Batch`].
    pub batch_weight: u32,
    /// RNG seed.
    pub seed: u64,
}

impl SessionWorkloadConfig {
    /// A mixed-class chat service: 512-token system prompts over four
    /// assistants, ~3-turn conversations, user turns of median ~64 tokens,
    /// responses of median ~96, think times of median ~2 s, and a
    /// 2:1:1 interactive/standard/batch mix.
    pub fn chat(n_sessions: usize, seed: u64) -> Self {
        SessionWorkloadConfig {
            n_sessions,
            arrival_rps: 1.0,
            mean_turns: 3.0,
            max_turns: 6,
            n_groups: 4,
            prefix_len: 512,
            user_log_mean: 4.16, // median ~64
            user_log_std: 0.5,
            user_clamp: (16, 256),
            response_log_mean: 4.56, // median ~96
            response_log_std: 0.5,
            response_clamp: (16, 256),
            think_log_mean: 0.69, // median ~2 s
            think_log_std: 0.8,
            think_clamp: (0.25, 30.0),
            interactive_weight: 2,
            standard_weight: 1,
            batch_weight: 1,
            seed,
        }
    }
}

/// One turn's static shape (lengths and the pause before it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionTurn {
    /// Tokens the user types this turn.
    pub user_len: usize,
    /// Tokens the model generates this turn.
    pub response_len: usize,
    /// Seconds between the previous turn's completion and this turn's
    /// arrival (unused — zero — on turn 0; the session start is Poisson).
    pub think_gap_s: f64,
}

/// One conversation: its start time, system prompt, latency class, and
/// per-turn shapes. Turn timing past turn 0 is resolved at simulation time
/// by [`SessionTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Session id (also its index in the sampled vec).
    pub session: u64,
    /// Arrival of turn 0 (seconds, Poisson across sessions).
    pub arrival_s: f64,
    /// Shared-prefix group (which system prompt the session opens with).
    pub group: u64,
    /// Tokens in the shared system prompt.
    pub prefix_len: usize,
    /// Latency class for every turn of this conversation.
    pub slo: SloClass,
    /// The turns, in order.
    pub turns: Vec<SessionTurn>,
}

impl SessionSpec {
    /// Prompt length of turn `k`: the system prompt, every earlier turn
    /// (user + response), and turn `k`'s own user text.
    pub fn prompt_len(&self, turn: usize) -> usize {
        let history: usize = self.turns[..turn]
            .iter()
            .map(|t| t.user_len + t.response_len)
            .sum();
        let own = self.turns.get(turn).map_or(0, |t| t.user_len);
        self.prefix_len + history + own
    }

    /// Full context after turn `k` completes (its prompt + its response) —
    /// the KV the next turn carries.
    pub fn context_len(&self, turn: usize) -> usize {
        self.prompt_len(turn) + self.turns.get(turn).map_or(0, |t| t.response_len)
    }
}

/// Draws the session workload (deterministic per seed; session starts are
/// non-decreasing).
///
/// # Examples
///
/// ```
/// use rkvc_workload::{sample_sessions, SessionWorkloadConfig};
///
/// let sessions = sample_sessions(&SessionWorkloadConfig::chat(8, 7));
/// assert_eq!(sessions.len(), 8);
/// assert!(sessions.iter().all(|s| !s.turns.is_empty()));
/// assert!(sessions.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
/// ```
pub fn sample_sessions(cfg: &SessionWorkloadConfig) -> Vec<SessionSpec> {
    let mut rng = seeded_rng(cfg.seed);
    let mut user_dist =
        LogNormal::new(cfg.user_log_mean, cfg.user_log_std).expect("valid log-normal parameters");
    let mut resp_dist = LogNormal::new(cfg.response_log_mean, cfg.response_log_std)
        .expect("valid log-normal parameters");
    let mut think_dist = LogNormal::new(cfg.think_log_mean, cfg.think_log_std)
        .expect("valid log-normal parameters");
    let mut interarrival = Exp::new(cfg.arrival_rps).expect("positive rate");
    let continue_p = 1.0 - 1.0 / cfg.mean_turns.max(1.0);
    let weights = [
        (SloClass::Interactive, cfg.interactive_weight as u64),
        (SloClass::Standard, cfg.standard_weight as u64),
        (SloClass::Batch, cfg.batch_weight as u64),
    ];
    let total_weight: u64 = weights.iter().map(|(_, w)| *w).sum::<u64>().max(1);

    let mut t = 0.0f64;
    (0..cfg.n_sessions)
        .map(|id| {
            t += interarrival.sample(&mut rng);
            let group = rng.gen_range(0..cfg.n_groups.max(1)) as u64;
            let mut draw = rng.gen_range(0..total_weight as usize) as u64;
            let mut slo = SloClass::Standard;
            for (class, w) in weights {
                if draw < w {
                    slo = class;
                    break;
                }
                draw -= w;
            }
            let mut n_turns = 1usize;
            while n_turns < cfg.max_turns.max(1) && rng.gen_f64() < continue_p {
                n_turns += 1;
            }
            let turns = (0..n_turns)
                .map(|turn| SessionTurn {
                    user_len: (user_dist.sample(&mut rng) as usize)
                        .clamp(cfg.user_clamp.0, cfg.user_clamp.1),
                    response_len: (resp_dist.sample(&mut rng) as usize)
                        .clamp(cfg.response_clamp.0, cfg.response_clamp.1),
                    think_gap_s: if turn == 0 {
                        0.0
                    } else {
                        think_dist
                            .sample(&mut rng)
                            .clamp(cfg.think_clamp.0, cfg.think_clamp.1)
                    },
                })
                .collect();
            SessionSpec {
                session: id as u64,
                arrival_s: t,
                group,
                prefix_len: cfg.prefix_len,
                slo,
                turns,
            }
        })
        .collect()
}

/// Drives sampled sessions through `Engine::run`: supplies turn 0
/// of every conversation as the initial arrival stream, then materializes
/// turn `k + 1` from turn `k`'s completion (plus the sampled think time) —
/// the causal coupling a static trace cannot express.
///
/// Request ids are `session * max_turns + turn`, unique by construction.
#[derive(Debug, Clone)]
pub struct SessionTrace {
    specs: Vec<SessionSpec>,
    max_turns: u64,
}

impl SessionTrace {
    /// Wraps sampled sessions; `max_turns` must match (or exceed) the
    /// config's cap so ids cannot collide.
    pub fn new(specs: Vec<SessionSpec>, max_turns: usize) -> Self {
        let cap = specs
            .iter()
            .map(|s| s.turns.len())
            .max()
            .unwrap_or(1)
            .max(max_turns.max(1));
        SessionTrace {
            specs,
            max_turns: cap as u64,
        }
    }

    /// The sampled sessions.
    pub fn specs(&self) -> &[SessionSpec] {
        &self.specs
    }

    /// Total turns across all sessions — the completion count a fully
    /// served run produces.
    pub fn total_turns(&self) -> usize {
        self.specs.iter().map(|s| s.turns.len()).sum()
    }

    /// Builds turn `turn` of session `spec` arriving at `arrival_s`.
    fn turn_request(&self, spec: &SessionSpec, turn: usize, arrival_s: f64) -> SimRequest {
        let carried = if turn == 0 {
            0
        } else {
            spec.context_len(turn - 1)
        };
        let id = spec.session * self.max_turns + turn as u64;
        SimRequest::new(
            id,
            arrival_s,
            spec.prompt_len(turn),
            spec.turns[turn].response_len,
        )
        .with_shared_prefix(spec.group, spec.prefix_len)
        .with_slo(spec.slo)
        .with_session(SessionRef {
            session: spec.session,
            turn: turn as u32,
            carried_tokens: carried,
            last_turn: turn + 1 == spec.turns.len(),
        })
    }

    /// Turn 0 of every session, in session-start order — the initial
    /// arrival stream for `Engine::run`.
    pub fn initial_requests(&self) -> Vec<SimRequest> {
        self.specs
            .iter()
            .filter(|s| !s.turns.is_empty())
            .map(|s| self.turn_request(s, 0, s.arrival_s))
            .collect()
    }

    /// The follow-up hook: given a completed turn, the next turn of its
    /// conversation arriving one think-time after the completion — or
    /// `None` for final turns and non-session requests.
    pub fn follow_up(&self, done: &CompletedRequest) -> Option<SimRequest> {
        let s = done.session?;
        if s.last_turn {
            return None;
        }
        let spec = self.specs.get(s.session as usize)?;
        let next = s.turn as usize + 1;
        let turn = spec.turns.get(next)?;
        let arrival = done.arrival_s + done.e2e_s + turn.think_gap_s;
        Some(self.turn_request(spec, next, arrival))
    }
}

rkvc_tensor::json_struct!(SessionWorkloadConfig {
    n_sessions,
    arrival_rps,
    mean_turns,
    max_turns,
    n_groups,
    prefix_len,
    user_log_mean,
    user_log_std,
    user_clamp,
    response_log_mean,
    response_log_std,
    response_clamp,
    think_log_mean,
    think_log_std,
    think_clamp,
    interactive_weight,
    standard_weight,
    batch_weight,
    seed,
});
rkvc_tensor::json_struct!(SessionTurn {
    user_len,
    response_len,
    think_gap_s,
});
rkvc_tensor::json_struct!(SessionSpec {
    session,
    arrival_s,
    group,
    prefix_len,
    slo,
    turns,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = sample_sessions(&SessionWorkloadConfig::chat(16, 3));
        let b = sample_sessions(&SessionWorkloadConfig::chat(16, 3));
        assert_eq!(a, b);
        let c = sample_sessions(&SessionWorkloadConfig::chat(16, 4));
        assert_ne!(a, c);
    }

    #[test]
    fn shapes_respect_config_bounds() {
        let cfg = SessionWorkloadConfig::chat(64, 9);
        let sessions = sample_sessions(&cfg);
        assert!(sessions.windows(2).all(|w| w[0].arrival_s < w[1].arrival_s));
        for s in &sessions {
            assert!((1..=cfg.max_turns).contains(&s.turns.len()));
            assert!((s.group as usize) < cfg.n_groups);
            assert_eq!(s.prefix_len, cfg.prefix_len);
            assert_eq!(s.turns[0].think_gap_s, 0.0);
            for (i, t) in s.turns.iter().enumerate() {
                assert!((cfg.user_clamp.0..=cfg.user_clamp.1).contains(&t.user_len));
                assert!(
                    (cfg.response_clamp.0..=cfg.response_clamp.1).contains(&t.response_len)
                );
                if i > 0 {
                    assert!(
                        (cfg.think_clamp.0..=cfg.think_clamp.1).contains(&t.think_gap_s)
                    );
                }
            }
        }
        // The 2:1:1 mix puts every class on the floor at this n.
        for class in [SloClass::Interactive, SloClass::Standard, SloClass::Batch] {
            assert!(
                sessions.iter().any(|s| s.slo == class),
                "class {class:?} drew no sessions"
            );
        }
        // Multi-turn sessions actually occur (mean 3 over 64 draws).
        assert!(sessions.iter().any(|s| s.turns.len() > 1));
    }

    #[test]
    fn prompts_accumulate_history() {
        let sessions = sample_sessions(&SessionWorkloadConfig::chat(8, 5));
        for s in &sessions {
            for k in 1..s.turns.len() {
                assert_eq!(
                    s.prompt_len(k),
                    s.context_len(k - 1) + s.turns[k].user_len
                );
                assert!(s.prompt_len(k) > s.prompt_len(k - 1));
            }
        }
    }

    #[test]
    fn trace_builds_causal_follow_ups() {
        let cfg = SessionWorkloadConfig::chat(8, 11);
        let sessions = sample_sessions(&cfg);
        let trace = SessionTrace::new(sessions.clone(), cfg.max_turns);
        let initial = trace.initial_requests();
        assert_eq!(initial.len(), 8);
        for (req, spec) in initial.iter().zip(&sessions) {
            assert_eq!(req.arrival_s, spec.arrival_s);
            assert_eq!(req.prompt_len, spec.prompt_len(0));
            assert_eq!(req.prefix_len, spec.prefix_len);
            assert_eq!(req.slo, spec.slo);
            let sref = req.session.expect("session annotation");
            assert_eq!(sref.turn, 0);
            assert_eq!(sref.carried_tokens, 0);
        }
        // Simulate a completion of a multi-turn session's turn 0.
        let spec = sessions
            .iter()
            .find(|s| s.turns.len() > 1)
            .expect("a multi-turn session");
        let done = CompletedRequest {
            id: spec.session * trace.max_turns,
            server_id: 0,
            arrival_s: spec.arrival_s,
            ttft_s: 0.5,
            e2e_s: 3.0,
            generated: spec.turns[0].response_len,
            queue_delay_s: 0.0,
            preemptions: 0,
            slo: spec.slo,
            slo_ok: true,
            session: Some(SessionRef {
                session: spec.session,
                turn: 0,
                carried_tokens: 0,
                last_turn: false,
            }),
        };
        let next = trace.follow_up(&done).expect("turn 1 exists");
        assert!(next.arrival_s >= spec.arrival_s + 3.0 + cfg.think_clamp.0);
        assert_eq!(next.prompt_len, spec.prompt_len(1));
        let sref = next.session.expect("session annotation");
        assert_eq!(sref.turn, 1);
        assert_eq!(sref.carried_tokens, spec.context_len(0));
        assert_eq!(sref.last_turn, spec.turns.len() == 2);
        // Final turns and non-session completions terminate the chain.
        let last = CompletedRequest {
            session: Some(SessionRef {
                session: spec.session,
                turn: (spec.turns.len() - 1) as u32,
                carried_tokens: 0,
                last_turn: true,
            }),
            ..done.clone()
        };
        assert!(trace.follow_up(&last).is_none());
        let single = CompletedRequest {
            session: None,
            ..done
        };
        assert!(trace.follow_up(&single).is_none());
    }

    #[test]
    fn request_ids_are_unique_across_turns() {
        let cfg = SessionWorkloadConfig::chat(16, 2);
        let trace = SessionTrace::new(sample_sessions(&cfg), cfg.max_turns);
        let mut ids: Vec<u64> = Vec::new();
        for spec in trace.specs() {
            for turn in 0..spec.turns.len() {
                ids.push(spec.session * trace.max_turns + turn as u64);
            }
        }
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate request ids");
    }
}
