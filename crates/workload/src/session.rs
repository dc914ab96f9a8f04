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
//! session (uniform over four), log-normal user/response lengths per
//! turn, log-normal think-time gaps between turns, and an
//! [`SloClass`] per session from a weighted mix (a conversation keeps one
//! latency class for its whole lifetime). Only the *timing* of turns
//! `1..` is left open — [`SessionTrace`] fills it in from actual
//! completions.

use rkvc_serving::{CompletedRequest, SessionRef, SimRequest, SloClass};
use rkvc_tensor::det::{Exp, LogNormal};
use rkvc_tensor::seeded_rng;

use crate::arrivals::draw_slo_class;

/// Distinct system prompts (prefix groups).
const N_GROUPS: usize = 4;

/// Tokens in each shared system prompt.
const PREFIX_LEN: usize = 512;

/// Log-normal `(mu, sigma)` of each user turn's length: median ~64.
const USER_LOG: (f64, f64) = (4.16, 0.5);

/// User turn length clamp (min, max).
const USER_CLAMP: (usize, usize) = (16, 256);

/// Log-normal `(mu, sigma)` of the response length: median ~96.
const RESPONSE_LOG: (f64, f64) = (4.56, 0.5);

/// Response length clamp (min, max).
const RESPONSE_CLAMP: (usize, usize) = (16, 256);

/// Log-normal `(mu, sigma)` of the think time between turns (seconds):
/// median ~2 s.
const THINK_LOG: (f64, f64) = (0.69, 0.8);

/// Think time clamp in seconds (min, max).
const THINK_CLAMP: (f64, f64) = (0.25, 30.0);

/// Configuration for the multi-turn session sampler: a mixed-class chat
/// service with 512-token system prompts over four assistants, user turns
/// of median ~64 tokens, responses of median ~96, think times of median
/// ~2 s, and a 2:1:1 interactive/standard/batch mix.
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
    /// RNG seed.
    pub seed: u64,
}

impl SessionWorkloadConfig {
    /// `n_sessions` of the chat service: one session start per second,
    /// ~3-turn conversations of at most six turns.
    pub fn chat(n_sessions: usize, seed: u64) -> Self {
        SessionWorkloadConfig {
            n_sessions,
            arrival_rps: 1.0,
            mean_turns: 3.0,
            max_turns: 6,
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
    let mut user_dist = LogNormal::new(USER_LOG.0, USER_LOG.1)
        .expect("valid log-normal parameters");
    let mut resp_dist = LogNormal::new(RESPONSE_LOG.0, RESPONSE_LOG.1)
        .expect("valid log-normal parameters");
    let mut think_dist = LogNormal::new(THINK_LOG.0, THINK_LOG.1)
        .expect("valid log-normal parameters");
    let mut interarrival = Exp::new(cfg.arrival_rps).expect("positive rate");
    let continue_p = 1.0 - 1.0 / cfg.mean_turns.max(1.0);

    let mut t = 0.0f64;
    (0..cfg.n_sessions)
        .map(|id| {
            t += interarrival.sample(&mut rng);
            let group = rng.gen_range(0..N_GROUPS) as u64;
            let slo = draw_slo_class(&mut rng);
            let mut n_turns = 1usize;
            while n_turns < cfg.max_turns.max(1) && rng.gen_f64() < continue_p {
                n_turns += 1;
            }
            let turns = (0..n_turns)
                .map(|turn| SessionTurn {
                    user_len: (user_dist.sample(&mut rng) as usize)
                        .clamp(USER_CLAMP.0, USER_CLAMP.1),
                    response_len: (resp_dist.sample(&mut rng) as usize)
                        .clamp(RESPONSE_CLAMP.0, RESPONSE_CLAMP.1),
                    think_gap_s: if turn == 0 {
                        0.0
                    } else {
                        think_dist
                            .sample(&mut rng)
                            .clamp(THINK_CLAMP.0, THINK_CLAMP.1)
                    },
                })
                .collect();
            SessionSpec {
                session: id as u64,
                arrival_s: t,
                group,
                prefix_len: PREFIX_LEN,
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
            assert!((s.group as usize) < N_GROUPS);
            assert_eq!(s.prefix_len, PREFIX_LEN);
            assert_eq!(s.turns[0].think_gap_s, 0.0);
            for (i, t) in s.turns.iter().enumerate() {
                assert!((USER_CLAMP.0..=USER_CLAMP.1).contains(&t.user_len));
                assert!((RESPONSE_CLAMP.0..=RESPONSE_CLAMP.1).contains(&t.response_len));
                if i > 0 {
                    assert!((THINK_CLAMP.0..=THINK_CLAMP.1).contains(&t.think_gap_s));
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
        assert!(next.arrival_s >= spec.arrival_s + 3.0 + THINK_CLAMP.0);
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
