//! Request sharding for the fleet layer.
//!
//! A [`ShardPolicy`] decides, at dispatch time, which of the fleet's
//! *active* replicas absorbs a request — replacing the cluster router's
//! route-every-request scan over global server state with an O(1) (or
//! O(log n)) function ([`ShardPolicy::slot`]) of the dispatch count, a
//! stable *shard key* and the active-replica count. Because the decision
//! reads no replica state, sharded dispatch is trivially deterministic and
//! per-replica simulation can proceed in parallel between telemetry epochs
//! (see [`fleet`](crate::fleet)).
//!
//! Two policies:
//!
//! * [`ShardPolicy::RoundRobin`] — cycles over the active set. Perfectly
//!   balanced (±1 request) but key-oblivious: requests sharing a system
//!   prompt scatter across replicas, so every replica stores its own copy
//!   of the prefix and the pool's dedup win evaporates.
//! * [`ShardPolicy::ConsistentHash`] — Lamping–Veach jump consistent
//!   hashing ([`jump_hash`]) over the session/prefix-group key
//!   ([`shard_key`]). Same-key requests land on the same replica (prefix
//!   dedup survives sharding), and growing the active set from `n` to
//!   `n + 1` remaps only ~`1/(n + 1)` of the keys — the property that
//!   makes autoscaling cheap for a stateful cache.

use crate::SimRequest;

/// SplitMix64 finalizer — the bijective avalanche step. Jump hashing needs
/// well-mixed keys; raw session ids and small prefix-group integers are
/// anything but.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Lamping–Veach jump consistent hash: maps `key` to a bucket in
/// `[0, buckets)`. For any `key`, going from `n` to `n + 1` buckets either
/// keeps the bucket or moves it to the *new* bucket `n` — so exactly
/// `~1/(n + 1)` of the key space remaps on growth, and shrinking by
/// removing the highest bucket remaps only the keys that lived there.
///
/// Returns 0 when `buckets == 0` (callers guarantee a non-empty active
/// set; this keeps the function total without panicking).
pub fn jump_hash(key: u64, buckets: usize) -> usize {
    if buckets <= 1 {
        return 0;
    }
    let mut k = key;
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < buckets as i64 {
        b = j;
        k = k.wrapping_mul(2862933555777941757).wrapping_add(1);
        // (b + 1) * (2^31 / (floor(k / 2^33) + 1)) — the paper's float
        // step; exact for all operand magnitudes that can occur here.
        j = ((b + 1) as f64 * ((1u64 << 31) as f64 / ((k >> 33).wrapping_add(1) as f64))) as i64;
    }
    b as usize
}

/// The stable dispatch key of a request: the unit of locality sharding
/// must preserve. Conversations pin to their session (follow-up turns must
/// find their parked KV), single-shot prefix traffic pins to its system
/// prompt (so the prefix stays deduplicated on one replica), and
/// everything else spreads by request id.
pub fn shard_key(req: &SimRequest) -> u64 {
    match (req.session, req.prefix_len) {
        (Some(s), _) => mix64(s.session ^ 0xA11C_E5E5_5E55_10B5),
        (None, p) if p > 0 => mix64(req.prefix_group ^ 0x9F1C_0DE0_F1EE_75A1),
        _ => mix64(req.id),
    }
}

/// Which sharding policy a fleet runs — the config-level knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// Key-oblivious round-robin over the active set.
    RoundRobin,
    /// Jump consistent hashing over session/prefix-group keys.
    #[default]
    ConsistentHash,
}

impl ShardPolicy {
    /// Both policies in ablation order.
    pub fn all() -> [ShardPolicy; 2] {
        [ShardPolicy::RoundRobin, ShardPolicy::ConsistentHash]
    }

    /// Table/bench label.
    pub fn label(self) -> &'static str {
        match self {
            ShardPolicy::RoundRobin => "round_robin",
            ShardPolicy::ConsistentHash => "consistent_hash",
        }
    }

    /// The active-list slot for a request with shard key `key`, given
    /// that `dispatched` requests went out before it: a value in
    /// `[0, active_len)` for any `active_len >= 1` (0 for an empty list,
    /// which keeps the function total). A pure function of its arguments —
    /// never of replica state, wall clock or thread schedule.
    pub fn slot(self, dispatched: usize, key: u64, active_len: usize) -> usize {
        match self {
            ShardPolicy::RoundRobin => dispatched % active_len.max(1),
            ShardPolicy::ConsistentHash => jump_hash(key, active_len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jump_hash_is_total_and_in_range() {
        assert_eq!(jump_hash(42, 0), 0);
        assert_eq!(jump_hash(42, 1), 0);
        for key in 0..1000u64 {
            let b = jump_hash(mix64(key), 7);
            assert!(b < 7);
        }
    }

    #[test]
    fn shard_key_prefers_session_then_group() {
        let single = SimRequest::new(1, 0.0, 128, 16);
        let grouped = SimRequest::new(2, 0.0, 128, 16).with_shared_prefix(9, 64);
        let grouped2 = SimRequest::new(3, 0.0, 256, 16).with_shared_prefix(9, 64);
        assert_eq!(shard_key(&grouped), shard_key(&grouped2));
        assert_ne!(shard_key(&single), shard_key(&grouped));
        let turn = SimRequest::new(4, 0.0, 128, 16)
            .with_shared_prefix(9, 64)
            .with_session(crate::SessionRef {
                session: 5,
                turn: 0,
                carried_tokens: 0,
                last_turn: false,
            });
        let turn2 = SimRequest::new(7, 9.0, 512, 16).with_session(crate::SessionRef {
            session: 5,
            turn: 1,
            carried_tokens: 128,
            last_turn: true,
        });
        // Same session, different group annotations: the session wins so
        // follow-up turns find their parked KV.
        assert_eq!(shard_key(&turn), shard_key(&turn2));
    }

    #[test]
    fn policies_round_trip_labels_and_stay_in_range() {
        for p in ShardPolicy::all() {
            assert!(p.slot(9, 123, 4) < 4);
            assert_eq!(p.slot(9, 123, 0), 0, "{}", p.label());
        }
        assert_eq!(ShardPolicy::RoundRobin.label(), "round_robin");
        assert_eq!(ShardPolicy::ConsistentHash.label(), "consistent_hash");
        assert_eq!(ShardPolicy::RoundRobin.slot(9, 123, 4), 1);
        assert_eq!(ShardPolicy::ConsistentHash.slot(9, 123, 4), jump_hash(123, 4));
        assert_eq!(ShardPolicy::default(), ShardPolicy::ConsistentHash);
    }
}
