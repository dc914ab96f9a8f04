//! Shared-system-prompt workload.
//!
//! Production chat/assistant traffic funnels through a handful of system
//! prompts: every request to the same assistant opens with the same
//! multi-hundred-token preamble, followed by a short user-specific suffix.
//! Agrawal & Mayer's long-context benchmark identifies exactly this
//! shared-prefix regime as where serving-side capacity techniques become
//! measurable — a prefix-sharing KV pool stores each system prompt once,
//! while a flat pool pays for it per request.
//!
//! [`sample_shared_prefix`] draws that traffic shape: four system prompts
//! of 1024 tokens, Poisson arrivals, each request assigned a group
//! uniformly and given log-normal suffix/response lengths. The
//! serving layer consumes the `(group, prefix_len)` annotation via
//! `SimRequest::with_shared_prefix`.

use rkvc_tensor::det::{Exp, LogNormal};
use rkvc_tensor::seeded_rng;

/// Distinct system prompts (prefix groups).
const N_GROUPS: usize = 4;

/// Tokens in each shared system prompt.
const PREFIX_LEN: usize = 1024;

/// Log-normal `(mu, sigma)` of the user-specific suffix length: median
/// ~128.
const SUFFIX_LOG: (f64, f64) = (4.85, 0.6);

/// Suffix length clamp (min, max).
const SUFFIX_CLAMP: (usize, usize) = (16, 1024);

/// Log-normal `(mu, sigma)` of the response length: median ~96.
const RESPONSE_LOG: (f64, f64) = (4.56, 0.5);

/// Response length clamp (min, max).
const RESPONSE_CLAMP: (usize, usize) = (8, 256);

/// Mean arrival rate (requests/second) of the Poisson process.
const ARRIVAL_RPS: f64 = 10.0;

/// Configuration for the shared-prefix sampler: a multi-assistant chat
/// service with four 1024-token system prompts, suffix median ~128 tokens
/// and response median ~96 — the prefix dominates each request's KV
/// footprint, so sharing it is the difference between fitting a handful
/// of sequences and dozens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedPrefixConfig {
    /// Number of requests to draw.
    pub n_requests: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SharedPrefixConfig {
    /// `n_requests` of the assistant service.
    pub fn assistants(n_requests: usize, seed: u64) -> Self {
        SharedPrefixConfig { n_requests, seed }
    }
}

/// One request in the shared-prefix stream.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixRequest {
    /// Sequential request id.
    pub id: usize,
    /// Arrival time (seconds from epoch start, Poisson process).
    pub arrival_s: f64,
    /// Prefix group (which system prompt it opens with).
    pub group: u64,
    /// Shared prefix length in tokens.
    pub prefix_len: usize,
    /// User-specific suffix length in tokens.
    pub suffix_len: usize,
    /// Response length in tokens.
    pub response_len: usize,
}

impl PrefixRequest {
    /// Total prompt length: shared prefix + private suffix.
    pub fn prompt_len(&self) -> usize {
        self.prefix_len + self.suffix_len
    }
}

/// Draws the shared-prefix workload (deterministic per seed; arrivals are
/// non-decreasing).
///
/// # Examples
///
/// ```
/// use rkvc_workload::{sample_shared_prefix, SharedPrefixConfig};
///
/// let reqs = sample_shared_prefix(&SharedPrefixConfig::assistants(10, 7));
/// assert_eq!(reqs.len(), 10);
/// assert!(reqs.iter().all(|r| r.prefix_len == 1024));
/// assert!(reqs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
/// ```
pub fn sample_shared_prefix(cfg: &SharedPrefixConfig) -> Vec<PrefixRequest> {
    let mut rng = seeded_rng(cfg.seed);
    let mut suffix_dist = LogNormal::new(SUFFIX_LOG.0, SUFFIX_LOG.1)
        .expect("valid log-normal parameters");
    let mut resp_dist = LogNormal::new(RESPONSE_LOG.0, RESPONSE_LOG.1)
        .expect("valid log-normal parameters");
    let mut interarrival = Exp::new(ARRIVAL_RPS).expect("positive rate");

    let mut t = 0.0f64;
    (0..cfg.n_requests)
        .map(|id| {
            t += interarrival.sample(&mut rng);
            let group = rng.gen_range(0..N_GROUPS) as u64;
            let suffix_len =
                (suffix_dist.sample(&mut rng) as usize).clamp(SUFFIX_CLAMP.0, SUFFIX_CLAMP.1);
            let response_len =
                (resp_dist.sample(&mut rng) as usize).clamp(RESPONSE_CLAMP.0, RESPONSE_CLAMP.1);
            PrefixRequest {
                id,
                arrival_s: t,
                group,
                prefix_len: PREFIX_LEN,
                suffix_len,
                response_len,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = sample_shared_prefix(&SharedPrefixConfig::assistants(20, 3));
        let b = sample_shared_prefix(&SharedPrefixConfig::assistants(20, 3));
        assert_eq!(a, b);
        let c = sample_shared_prefix(&SharedPrefixConfig::assistants(20, 4));
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_increase_and_lengths_respect_clamps() {
        let reqs = sample_shared_prefix(&SharedPrefixConfig::assistants(100, 9));
        assert!(reqs.windows(2).all(|w| w[0].arrival_s < w[1].arrival_s));
        for r in &reqs {
            assert!((SUFFIX_CLAMP.0..=SUFFIX_CLAMP.1).contains(&r.suffix_len));
            assert!((RESPONSE_CLAMP.0..=RESPONSE_CLAMP.1).contains(&r.response_len));
            assert_eq!(r.prompt_len(), r.prefix_len + r.suffix_len);
            assert!((r.group as usize) < N_GROUPS);
        }
    }

    #[test]
    fn every_group_receives_traffic() {
        let reqs = sample_shared_prefix(&SharedPrefixConfig::assistants(100, 1));
        for g in 0..4u64 {
            assert!(
                reqs.iter().any(|r| r.group == g),
                "group {g} drew no requests"
            );
        }
    }

    #[test]
    fn prefix_dominates_typical_prompts() {
        // The regime the workload models: most of each prompt is the
        // shared system prompt.
        let reqs = sample_shared_prefix(&SharedPrefixConfig::assistants(200, 5));
        let dominated = reqs
            .iter()
            .filter(|r| r.prefix_len > r.suffix_len)
            .count();
        assert!(dominated > 180, "{dominated}/200 prefix-dominated");
    }
}
