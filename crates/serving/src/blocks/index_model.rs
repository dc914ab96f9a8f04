//! Model test of the block pool's `U64Index` against a `BTreeMap`
//! oracle.

use std::collections::BTreeMap;

use super::U64Index;

rkvc_tensor::det_cases! {
    /// The pool's index answers like a `BTreeMap` under random insert,
    /// insert_new, get, get_mut and remove sequences. Keys are
    /// multiples of 2^k (equal low bits), plus a run of keys sharing
    /// one home slot at every table size up to 1024 slots, so removals
    /// land in the middle of probe runs; the whole key pool is
    /// inserted first, growing the table through several doublings,
    /// and drained in random order last.
    fn u64_index_matches_a_btreemap_oracle(rng, cases = 48) {
        let shift = rng.gen_range(0u32..48);
        let pool = rng.gen_range(64u64..400);
        let mut keys: Vec<u64> = (0..pool).map(|i| i << shift).collect();
        // Top 10 bits of the product: the home slot at 1024 slots, and
        // (by its prefix) at every smaller size.
        let top = |k: u64| k.wrapping_mul(U64Index::<u64>::MULTIPLIER) >> 54;
        let target = top(keys[0]);
        keys.extend(
            (pool..)
                .map(|i| i << shift)
                .filter(|&k| top(k) == target)
                .take(6),
        );
        let mut index = U64Index::new();
        let mut oracle = BTreeMap::new();
        let check = |index: &U64Index<u64>, oracle: &BTreeMap<u64, u64>| {
            assert_eq!(index.len(), oracle.len());
            assert!(2 * index.len() <= index.slots.len().max(1), "past half load");
            for &k in &keys {
                assert_eq!(index.get(k), oracle.get(&k), "key {k:#x}");
            }
            let sum = oracle.values().map(|&v| v as usize).sum::<usize>();
            assert_eq!(index.sum_by(|&v| v as usize), sum);
        };
        let mut order = keys.clone();
        rng.shuffle_slice(&mut order);
        for &k in &order {
            let v = rng.gen_range(0u64..1 << 20);
            assert_eq!(index.insert(k, v), oracle.insert(k, v));
        }
        assert!(index.slots.len() >= 2 * keys.len(), "grew through every doubling");
        check(&index, &oracle);
        for _ in 0..rng.gen_range(200usize..1200) {
            let k = *rng.choose(&keys);
            let v = rng.gen_range(0u64..1 << 20);
            match rng.gen_range(0u32..10) {
                0..=2 => assert_eq!(index.insert(k, v), oracle.insert(k, v)),
                3 => {
                    let absent = !oracle.contains_key(&k);
                    if absent {
                        oracle.insert(k, v);
                    }
                    assert_eq!(index.insert_new(k, v), absent);
                }
                4 => {
                    if let Some(slot) = index.get_mut(k) {
                        *slot = v;
                    }
                    if let Some(slot) = oracle.get_mut(&k) {
                        *slot = v;
                    }
                }
                5 => assert_eq!(index.get(k), oracle.get(&k)),
                _ => assert_eq!(index.remove(k), oracle.remove(&k)),
            }
            check(&index, &oracle);
        }
        rng.shuffle_slice(&mut order);
        for &k in &order {
            assert_eq!(index.remove(k), oracle.remove(&k));
            check(&index, &oracle);
        }
        assert_eq!(index.len(), 0);
    }
}
