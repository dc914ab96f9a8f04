//! PagedAttention-style KV block manager with prefix sharing and tiering.
//!
//! vLLM/LMDeploy manage the KV cache as fixed-size blocks allocated on
//! demand, eliminating the preallocate-to-max waste of naive serving. The
//! seed manager was pure `(blocks, tokens)` counting; this one gives every
//! block an identity so two serving-framework mechanisms the paper's §2.2
//! discussion leaves open become expressible:
//!
//! * **Content-hashed copy-on-write prefix sharing.** Full prefix blocks
//!   are *published* under a deterministic content hash; a later
//!   registration whose prefix hashes match re-references the resident
//!   blocks instead of allocating (refcount + 1). Published blocks are
//!   immutable — the first divergent append into a shared tail triggers a
//!   copy-on-write into a fresh private block. In this simulator a prefix
//!   block's content is fully determined by `(prefix group, block index,
//!   block size)`, so hashing that triple *is* content hashing (see
//!   [`prefix_hash_chain`]).
//! * **L1/L2 tiering.** Blocks live on the GPU (L1) or spilled to host
//!   memory (L2). [`demote_seq`](BlockManager::demote_seq) moves a
//!   sequence's private blocks to L2 (shared prefix blocks stay hot —
//!   other residents still read them); [`refill_seq`](BlockManager::refill_seq)
//!   brings them back. The engine prices both transfers over the PCIe link
//!   model so spills show up in TTFT/TBT.
//!
//! # Zero-token contract
//!
//! A sequence holds exactly `ceil(tokens / block_size)` blocks at all
//! times. Registering or truncating to zero tokens therefore holds zero
//! blocks (the seed pinned one block via `tokens.max(1)` with no stated
//! contract); the first append allocates. `internal_fragmentation_tokens`
//! counts allocated-but-unfilled slots over *physical* blocks, so a block
//! shared by many sequences contributes at most once and a zero-token
//! sequence contributes nothing.

/// Typed error for every fallible [`BlockManager`] operation. The serving
/// stack must degrade via `Result`, never abort, so malformed sequence ids
/// are errors rather than panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// The pool (L1 on allocation/refill, L2 on demotion) cannot cover an
    /// allocation.
    OutOfBlocks {
        /// Blocks requested.
        requested: usize,
        /// Blocks available.
        available: usize,
    },
    /// The sequence id is not registered.
    UnknownSeq {
        /// The offending id.
        seq: u64,
    },
    /// The sequence id is already registered.
    DuplicateSeq {
        /// The offending id.
        seq: u64,
    },
    /// `truncate_seq` was asked to *grow* a sequence.
    TruncateGrow {
        /// The sequence.
        seq: u64,
        /// Tokens currently stored.
        have: usize,
        /// Tokens requested.
        want: usize,
    },
    /// The sequence's tail block is demoted to L2; it must be refilled
    /// before it can grow.
    NotResident {
        /// The offending sequence.
        seq: u64,
    },
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BlockError::OutOfBlocks { requested, available } => write!(
                f,
                "out of KV blocks: requested {requested}, available {available}"
            ),
            BlockError::UnknownSeq { seq } => write!(f, "unknown sequence {seq}"),
            BlockError::DuplicateSeq { seq } => write!(f, "sequence {seq} already registered"),
            BlockError::TruncateGrow { seq, have, want } => write!(
                f,
                "cannot grow sequence {seq} via truncate ({have} -> {want} tokens)"
            ),
            BlockError::NotResident { seq } => {
                write!(f, "sequence {seq} has demoted (L2) blocks and cannot grow")
            }
        }
    }
}

impl std::error::Error for BlockError {}

/// Where a block physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockTier {
    /// GPU-resident (HBM) — the only tier decode can read.
    L1,
    /// Host-spilled (over PCIe) — parked KV of demoted sequences.
    L2,
}

/// Read-only view of one physical block in a sequence's chain (test and
/// experiment introspection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockView {
    /// Physical block id.
    pub id: u32,
    /// Reference count (number of chains containing the block).
    pub refs: u32,
    /// Tokens stored in the block.
    pub filled: usize,
    /// Tier the block lives on.
    pub tier: BlockTier,
    /// Whether the block is published in the dedup index (shareable).
    pub published: bool,
}

/// Cumulative counters the prefix-sharing/tiering experiments report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
// rkvc-allow(C001): return type of BlockManager::stats and ServerSim::block_stats; consumers bind stats without naming the type
pub struct BlockPoolStats {
    /// Blocks registrations asked for (shared hits + fresh allocations).
    pub logical_blocks_registered: u64,
    /// Blocks registrations actually allocated.
    pub physical_blocks_registered: u64,
    /// Registered blocks satisfied by the dedup index.
    pub shared_hits: u64,
    /// Copy-on-write block copies (first divergent append into a shared
    /// tail).
    pub cow_copies: u64,
    /// Blocks demoted L1 -> L2.
    pub demoted_blocks: u64,
    /// Tokens demoted L1 -> L2.
    pub demoted_tokens: u64,
    /// Blocks refilled L2 -> L1.
    pub refilled_blocks: u64,
    /// Tokens refilled L2 -> L1.
    pub refilled_tokens: u64,
    /// Peak concurrently registered sequences (includes spilled ones).
    pub peak_resident_seqs: usize,
    /// Peak L1 blocks in use.
    pub peak_l1_used_blocks: usize,
}

impl BlockPoolStats {
    /// Logical-over-physical registration ratio: how many blocks' worth of
    /// KV the pool *represents* per block it *stores*. 1.0 with no sharing;
    /// strictly above 1.0 once any prefix block is reused.
    pub fn dedup_ratio(&self) -> f64 {
        if self.physical_blocks_registered == 0 {
            1.0
        } else {
            self.logical_blocks_registered as f64 / self.physical_blocks_registered as f64
        }
    }
}

/// What a shared registration reused from the dedup index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
// rkvc-allow(C001): return type of BlockManager::register_shared; consumers bind registrations without naming the type
pub struct SharedRegistration {
    /// Prefix blocks satisfied by resident published blocks.
    pub shared_blocks: usize,
    /// Tokens those blocks cover (shared blocks are always full).
    pub shared_tokens: usize,
}

/// Blocks/tokens moved by a [`demote_seq`](BlockManager::demote_seq) or
/// [`refill_seq`](BlockManager::refill_seq) call — what the engine prices
/// over the PCIe link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
// rkvc-allow(C001): return type of BlockManager::demote_seq/refill_seq; consumers bind moves without naming the type
pub struct TierMove {
    /// Blocks moved between tiers.
    pub blocks: usize,
    /// Tokens those blocks store.
    pub tokens: usize,
}

/// Deterministic content-hash chain for the first `blocks` full blocks of
/// a shared prefix. Block `i`'s content in this simulator is a pure
/// function of `(group, block_tokens, i)`, so an FNV-style mix of that
/// triple — chained so block `i`'s hash commits to all blocks before it —
/// is exactly a content hash: equal chains if and only if equal prefix
/// content.
pub fn prefix_hash_chain(group: u64, block_tokens: usize, blocks: usize) -> Vec<u64> {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET ^ group;
    h = h.wrapping_mul(FNV_PRIME);
    h ^= block_tokens as u64;
    h = h.wrapping_mul(FNV_PRIME);
    (0..blocks)
        .map(|i| {
            h ^= i as u64 + 1;
            h = h.wrapping_mul(FNV_PRIME);
            h
        })
        .collect()
}

/// Content-hash chain for a session's carried KV: the first
/// `prefix_len / block_tokens` blocks keep their [`prefix_hash_chain`]
/// hashes (the shared system prompt still deduplicates *across*
/// sessions), and blocks past the prefix continue the chain under a
/// session-scoped seed (conversation history is private to one session,
/// and in this simulator block `i`'s content is a pure function of
/// `(session, i)` — so the mix is a content hash).
///
/// The chain has the prefix property: for one session the chain over `n`
/// blocks extends the chain over `m < n` blocks, so turn `k + 1`'s
/// registration walks straight onto the blocks turn `k` published.
pub fn session_hash_chain(
    group: u64,
    prefix_len: usize,
    session: u64,
    block_tokens: usize,
    blocks: usize,
) -> Vec<u64> {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    /// Domain tag separating session chains from group prefix chains.
    const SESSION_TAG: u64 = 0x5e55_1011_c4a1_ed00;
    let prefix_blocks = (prefix_len / block_tokens).min(blocks);
    let mut chain = prefix_hash_chain(group, block_tokens, prefix_blocks);
    let mut h = FNV_OFFSET ^ session;
    h = h.wrapping_mul(FNV_PRIME);
    h ^= SESSION_TAG;
    h = h.wrapping_mul(FNV_PRIME);
    h ^= block_tokens as u64;
    h = h.wrapping_mul(FNV_PRIME);
    // Commit to the shared prefix: histories diverge if prompts did.
    for &p in &chain {
        h ^= p;
        h = h.wrapping_mul(FNV_PRIME);
    }
    for i in prefix_blocks..blocks {
        h ^= i as u64 + 1;
        h = h.wrapping_mul(FNV_PRIME);
        chain.push(h);
    }
    chain
}

#[derive(Debug, Clone)]
struct Block {
    refs: u32,
    filled: usize,
    tier: BlockTier,
    /// Content hash while published in the dedup index.
    hash: Option<u64>,
}

#[derive(Debug, Clone)]
struct SeqEntry {
    chain: Vec<u32>,
    tokens: usize,
}

/// Open-addressing map from `u64` keys, the block pool's two point-query
/// tables (content hash -> published block, sequence id -> entry).
///
/// A key's home slot is the top bits of the key times a fixed odd
/// constant, so placement is a pure function of the key and the slot
/// count: no per-process random state. Collisions probe linearly; removal
/// shifts the rest of the probe run back (no tombstones); the table
/// doubles before it passes half load. Nothing reads entries in slot
/// order — the only whole-table query is an integer sum.
#[derive(Debug, Clone)]
struct U64Index<V> {
    /// Power-of-two slot array (empty until the first insert).
    slots: Vec<Option<(u64, V)>>,
    len: usize,
}

impl<V> U64Index<V> {
    /// 2^64 / golden ratio, odd: multiplying spreads keys that differ
    /// only in their high or low bits across the top bits.
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;
    const MIN_SLOTS: usize = 8;

    fn new() -> Self {
        U64Index {
            slots: Vec::new(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Home slot of `key` in a table of `slots.len()` (>= 8) slots.
    fn home(&self, key: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (key.wrapping_mul(Self::MULTIPLIER) >> (64 - bits)) as usize
    }

    /// `Ok(slot)` holding `key`, or `Err(slot)` where it would go: the
    /// empty slot that ends its probe run. The table must have slots.
    fn probe(&self, key: u64) -> Result<usize, usize> {
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => return Ok(i),
                Some(_) => i = (i + 1) & self.mask(),
                None => return Err(i),
            }
        }
    }

    /// The slot holding `key`, if any.
    fn find(&self, key: u64) -> Option<usize> {
        if self.len == 0 {
            None
        } else {
            self.probe(key).ok()
        }
    }

    fn get(&self, key: u64) -> Option<&V> {
        let i = self.find(key)?;
        self.slots[i].as_ref().map(|(_, v)| v)
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.find(key)?;
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// [`probe`](Self::probe) after doubling the table if one more entry
    /// would pass half load.
    fn probe_for_insert(&mut self, key: u64) -> Result<usize, usize> {
        if 2 * (self.len + 1) > self.slots.len() {
            let slots = (2 * self.slots.len()).max(Self::MIN_SLOTS);
            let old = std::mem::replace(&mut self.slots, (0..slots).map(|_| None).collect());
            for (k, v) in old.into_iter().flatten() {
                let (Ok(i) | Err(i)) = self.probe(k);
                self.slots[i] = Some((k, v));
            }
        }
        self.probe(key)
    }

    /// Maps `key` to `value`, returning the value it replaces.
    fn insert(&mut self, key: u64, value: V) -> Option<V> {
        match self.probe_for_insert(key) {
            Ok(i) => self.slots[i].replace((key, value)).map(|(_, v)| v),
            Err(i) => {
                self.slots[i] = Some((key, value));
                self.len += 1;
                None
            }
        }
    }

    /// Maps `key` to `value` unless `key` is present; returns whether it
    /// did. One probe either way.
    fn insert_new(&mut self, key: u64, value: V) -> bool {
        match self.probe_for_insert(key) {
            Ok(_) => false,
            Err(i) => {
                self.slots[i] = Some((key, value));
                self.len += 1;
                true
            }
        }
    }

    /// Removes `key`, then walks the rest of its probe run moving each
    /// entry whose home lies at or before the hole back into it, so every
    /// remaining key stays reachable from its home without a gap.
    fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find(key)?;
        let (_, value) = self.slots[hole].take()?;
        self.len -= 1;
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let Some((k, _)) = &self.slots[j] else {
                return Some(value);
            };
            // Distances back from `j`: to the entry's home and to the hole.
            let to_home = j.wrapping_sub(self.home(*k)) & mask;
            if to_home >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
        }
    }

    /// Sum of `f` over every value — order-free, since integer addition
    /// commutes.
    fn sum_by(&self, f: impl Fn(&V) -> usize) -> usize {
        self.slots.iter().flatten().map(|(_, v)| f(v)).sum()
    }
}

/// The physical side of a [`BlockManager`]: block slots, tier occupancy,
/// the dedup index and the counters. A field of its own, apart from the
/// sequence table, so an operation can hold a sequence's entry while it
/// allocates or releases blocks here.
#[derive(Debug, Clone)]
struct BlockTable {
    block_size: usize,
    total_blocks: usize,
    l2_total_blocks: usize,
    /// Physical block slots; freed slots are recycled via `free_ids`.
    blocks: Vec<Block>,
    /// LIFO free list of recycled `blocks` slots (deterministic reuse).
    free_ids: Vec<u32>,
    l1_used: usize,
    l2_used: usize,
    /// Content hash -> published (L1-resident, immutable) block.
    dedup: U64Index<u32>,
    stats: BlockPoolStats,
}

impl BlockTable {
    fn free_blocks(&self) -> usize {
        self.total_blocks - self.l1_used
    }

    /// [`BlockError::OutOfBlocks`] unless `n` L1 blocks are free.
    fn check_free(&self, n: usize) -> Result<(), BlockError> {
        if n > self.free_blocks() {
            return Err(BlockError::OutOfBlocks {
                requested: n,
                available: self.free_blocks(),
            });
        }
        Ok(())
    }

    fn note_l1_peak(&mut self) {
        self.stats.peak_l1_used_blocks = self.stats.peak_l1_used_blocks.max(self.l1_used);
    }

    /// Allocates one L1 block (caller has verified capacity), publishing
    /// it in the dedup index when `hash` is given.
    fn alloc_block(&mut self, filled: usize, hash: Option<u64>) -> u32 {
        let block = Block {
            refs: 1,
            filled,
            tier: BlockTier::L1,
            hash,
        };
        let id = match self.free_ids.pop() {
            Some(id) => {
                self.blocks[id as usize] = block;
                id
            }
            None => {
                self.blocks.push(block);
                (self.blocks.len() - 1) as u32
            }
        };
        self.l1_used += 1;
        self.note_l1_peak();
        if let Some(h) = hash {
            self.dedup.insert(h, id);
        }
        id
    }

    /// Takes a block out of the dedup index, if it is published.
    fn unpublish(&mut self, id: u32) {
        if let Some(h) = self.blocks[id as usize].hash.take() {
            self.dedup.remove(h);
        }
    }

    /// Drops one reference; the last reference frees the block (and
    /// unpublishes it).
    fn release_ref(&mut self, id: u32) {
        let b = &mut self.blocks[id as usize];
        b.refs -= 1;
        if b.refs > 0 {
            return;
        }
        match b.tier {
            BlockTier::L1 => self.l1_used -= 1,
            BlockTier::L2 => self.l2_used -= 1,
        }
        self.unpublish(id);
        self.free_ids.push(id);
    }
}

/// Fixed-size KV block allocator with per-block identity: refcounted
/// content-hashed prefix sharing, copy-on-write tails, and L1/L2 tiering.
/// See the module docs for the sharing/tiering model and the zero-token
/// contract.
#[derive(Debug, Clone)]
pub struct BlockManager {
    table: BlockTable,
    seqs: U64Index<SeqEntry>,
}

impl BlockManager {
    /// Creates a pool of `total_blocks` GPU-resident blocks of
    /// `block_size` tokens and no spill tier.
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0`.
    pub fn new(total_blocks: usize, block_size: usize) -> Self {
        Self::with_tier(total_blocks, block_size, 0)
    }

    /// Creates a pool with `total_blocks` L1 (GPU) blocks plus an
    /// `l2_blocks`-block host spill tier.
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0`.
    pub fn with_tier(total_blocks: usize, block_size: usize, l2_blocks: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        BlockManager {
            table: BlockTable {
                block_size,
                total_blocks,
                l2_total_blocks: l2_blocks,
                blocks: Vec::new(),
                free_ids: Vec::new(),
                l1_used: 0,
                l2_used: 0,
                dedup: U64Index::new(),
                stats: BlockPoolStats::default(),
            },
            seqs: U64Index::new(),
        }
    }

    /// Tokens per block.
    pub fn block_size(&self) -> usize {
        self.table.block_size
    }

    /// Total L1 pool capacity in blocks.
    pub fn total_blocks(&self) -> usize {
        self.table.total_blocks
    }

    /// L1 blocks currently allocated.
    pub fn used_blocks(&self) -> usize {
        self.table.l1_used
    }

    /// L1 blocks currently free.
    pub fn free_blocks(&self) -> usize {
        self.table.free_blocks()
    }

    /// Spill-tier capacity in blocks (0 without a tier).
    pub fn l2_total_blocks(&self) -> usize {
        self.table.l2_total_blocks
    }

    /// Spill-tier blocks currently in use.
    pub fn l2_used_blocks(&self) -> usize {
        self.table.l2_used
    }

    /// Fraction of the L1 pool in use.
    pub fn utilization(&self) -> f64 {
        if self.table.total_blocks == 0 {
            0.0
        } else {
            self.table.l1_used as f64 / self.table.total_blocks as f64
        }
    }

    /// Tokens wasted to internal fragmentation: allocated-but-unfilled
    /// slots summed over *physical* blocks (either tier), so a block
    /// shared by many chains is counted once and a zero-token sequence
    /// (which holds no blocks) contributes nothing.
    pub fn internal_fragmentation_tokens(&self) -> usize {
        self.table
            .blocks
            .iter()
            .filter(|b| b.refs > 0)
            .map(|b| self.table.block_size - b.filled)
            .sum()
    }

    /// Number of registered sequences (running or spilled).
    pub fn seq_count(&self) -> usize {
        self.seqs.len()
    }

    /// Sum of chain lengths over registered sequences — the *logical*
    /// block demand. Exceeds `used + l2_used` exactly when blocks are
    /// shared.
    pub fn logical_blocks(&self) -> usize {
        self.seqs.sum_by(|e| e.chain.len())
    }

    /// Cumulative sharing/tiering counters.
    pub fn stats(&self) -> &BlockPoolStats {
        &self.table.stats
    }

    /// Whether `seq` is registered with every block L1-resident (a
    /// spilled sequence reports `false` until refilled; an unknown id
    /// reports `false`).
    pub fn is_fully_resident(&self, seq: u64) -> bool {
        match self.seqs.get(seq) {
            Some(e) => e
                .chain
                .iter()
                .all(|&id| self.table.blocks[id as usize].tier == BlockTier::L1),
            None => false,
        }
    }

    /// The sequence's chain as block views (introspection for tests and
    /// experiments), or `None` if unregistered.
    pub fn seq_blocks(&self, seq: u64) -> Option<Vec<BlockView>> {
        let e = self.seqs.get(seq)?;
        Some(
            e.chain
                .iter()
                .map(|&id| {
                    let b = &self.table.blocks[id as usize];
                    BlockView {
                        id,
                        refs: b.refs,
                        filled: b.filled,
                        tier: b.tier,
                        published: b.hash.is_some(),
                    }
                })
                .collect(),
        )
    }

    /// Registers a sequence holding `tokens` tokens (its prefill
    /// allocation) with no prefix sharing. Zero tokens hold zero blocks
    /// (see the module-level contract).
    ///
    /// # Errors
    ///
    /// [`BlockError::DuplicateSeq`] if `seq` is already registered;
    /// [`BlockError::OutOfBlocks`] (allocating nothing) if the pool cannot
    /// cover it.
    pub fn register_seq(&mut self, seq: u64, tokens: usize) -> Result<(), BlockError> {
        self.register_seq_shared(seq, tokens, &[]).map(|_| ())
    }

    /// Registers a sequence whose first blocks may be shared: walks
    /// `prefix_hashes` (one content hash per *full* prefix block, in
    /// order) against the dedup index, re-referencing resident published
    /// blocks from block 0 until the first miss, then allocates the rest.
    /// Newly allocated full prefix blocks are published under their hash
    /// so later arrivals can share them.
    ///
    /// Returns what was reused; the engine skips prefill over
    /// `shared_tokens` of KV it did not have to compute.
    ///
    /// # Errors
    ///
    /// [`BlockError::DuplicateSeq`] if `seq` is already registered;
    /// [`BlockError::OutOfBlocks`] (allocating and re-referencing
    /// nothing) if the *unshared* remainder cannot be covered.
    pub fn register_seq_shared(
        &mut self,
        seq: u64,
        tokens: usize,
        prefix_hashes: &[u64],
    ) -> Result<SharedRegistration, BlockError> {
        if self.seqs.get(seq).is_some() {
            return Err(BlockError::DuplicateSeq { seq });
        }
        let t = &mut self.table;
        let bs = t.block_size;
        let need = tokens.div_ceil(bs);
        // Only blocks the sequence fills completely are shareable — a
        // partial tail is private by construction. One probe per hash
        // collects the hits; their references are taken only once the
        // unshared remainder is known to fit.
        let shareable = prefix_hashes.len().min(tokens / bs);
        let mut chain = Vec::with_capacity(need);
        chain.extend(
            prefix_hashes[..shareable]
                .iter()
                .map_while(|&h| t.dedup.get(h).copied()),
        );
        let hits = chain.len();
        let fresh = need - hits;
        t.check_free(fresh)?;
        for &id in &chain {
            t.blocks[id as usize].refs += 1;
        }
        // Publish the full prefix blocks this sequence brings in.
        let publish = prefix_hashes[hits..shareable].iter().copied().map(Some);
        for (i, hash) in (hits..need).zip(publish.chain(std::iter::repeat(None))) {
            let filled = if i + 1 < need || tokens.is_multiple_of(bs) {
                bs
            } else {
                tokens % bs
            };
            chain.push(t.alloc_block(filled, hash));
        }
        self.seqs.insert(seq, SeqEntry { chain, tokens });
        let stats = &mut self.table.stats;
        stats.logical_blocks_registered += need as u64;
        stats.physical_blocks_registered += fresh as u64;
        stats.shared_hits += hits as u64;
        stats.peak_resident_seqs = stats.peak_resident_seqs.max(self.seqs.len());
        Ok(SharedRegistration {
            shared_blocks: hits,
            shared_tokens: hits * bs,
        })
    }

    /// Grows a sequence by one token. On a block boundary this allocates a
    /// fresh private block; inside a shared tail it copies-on-write first
    /// (published blocks are immutable); a sole-owner published tail is
    /// unpublished and mutated in place.
    ///
    /// # Errors
    ///
    /// [`BlockError::UnknownSeq`] if `seq` is not registered;
    /// [`BlockError::OutOfBlocks`] if a block (new or CoW copy) is needed
    /// and none is free (the sequence is left unchanged);
    /// [`BlockError::NotResident`] if the tail is demoted to L2.
    pub fn append_token(&mut self, seq: u64) -> Result<(), BlockError> {
        let e = self
            .seqs
            .get_mut(seq)
            .ok_or(BlockError::UnknownSeq { seq })?;
        let t = &mut self.table;
        // Tokens in the tail block: `block_size` at a boundary, which is
        // where an empty chain stands too.
        let in_tail = e.tokens + t.block_size - e.chain.len() * t.block_size;
        match e.chain.last_mut() {
            // Private blocks always follow the shared prefix, and demotion
            // moves every private block — so a demoted tail is exactly the
            // "some block is on L2" condition, whichever arm would follow.
            Some(tail) if t.blocks[*tail as usize].tier == BlockTier::L2 => {
                return Err(BlockError::NotResident { seq });
            }
            Some(tail) if in_tail < t.block_size => {
                let id = *tail;
                if t.blocks[id as usize].refs > 1 {
                    // Divergent append into a shared block: copy-on-write.
                    // The copy takes this sequence's `in_tail` tokens plus
                    // the new one; the shared original is untouched.
                    t.check_free(1)?;
                    *tail = t.alloc_block(in_tail + 1, None);
                    t.release_ref(id);
                    t.stats.cow_copies += 1;
                } else {
                    // Sole owner. A still-published block must leave the
                    // dedup index before it mutates — published content is
                    // immutable by contract.
                    t.unpublish(id);
                    t.blocks[id as usize].filled = in_tail + 1;
                }
            }
            // Boundary: open a fresh private block.
            _ => {
                t.check_free(1)?;
                e.chain.push(t.alloc_block(1, None));
            }
        }
        e.tokens += 1;
        Ok(())
    }

    /// Shrinks a sequence's token count (eviction policies), releasing the
    /// references of blocks past the new length; blocks free when their
    /// last reference drops. Truncating to zero releases the whole chain.
    ///
    /// # Errors
    ///
    /// [`BlockError::UnknownSeq`] if `seq` is not registered;
    /// [`BlockError::TruncateGrow`] if `tokens` exceeds its current count.
    pub fn truncate_seq(&mut self, seq: u64, tokens: usize) -> Result<(), BlockError> {
        let e = self
            .seqs
            .get_mut(seq)
            .ok_or(BlockError::UnknownSeq { seq })?;
        if tokens > e.tokens {
            return Err(BlockError::TruncateGrow {
                seq,
                have: e.tokens,
                want: tokens,
            });
        }
        let t = &mut self.table;
        let keep = tokens.div_ceil(t.block_size);
        e.tokens = tokens;
        for id in e.chain.drain(keep..) {
            t.release_ref(id);
        }
        if let Some(&tail) = e.chain.last() {
            let b = &mut t.blocks[tail as usize];
            // Only a private tail's fill tracks this sequence; shared
            // or published tails keep their full (immutable) contents.
            if b.refs == 1 && b.hash.is_none() {
                b.filled = tokens - (keep - 1) * t.block_size;
            }
        }
        Ok(())
    }

    /// Releases all of a sequence's references; blocks free when their
    /// last reference drops (a shared prefix outlives any one sequence).
    ///
    /// # Errors
    ///
    /// [`BlockError::UnknownSeq`] if `seq` is not registered.
    pub fn free_seq(&mut self, seq: u64) -> Result<(), BlockError> {
        let entry = self
            .seqs
            .remove(seq)
            .ok_or(BlockError::UnknownSeq { seq })?;
        for id in entry.chain {
            self.table.release_ref(id);
        }
        Ok(())
    }

    /// Publishes a registered sequence's leading *full* L1 blocks under
    /// `hashes` (one content hash per block, from block 0), so a later
    /// [`register_seq_shared`](Self::register_seq_shared) with the same
    /// chain re-references them instead of re-allocating — the mechanism
    /// that lets a completed conversation turn's KV stay resident for the
    /// follow-up turn. Blocks already published under the same hash (a
    /// shared system prefix) are left as they are; publication stops at
    /// the first partial, spilled, or hash-conflicting block (later
    /// blocks would be unreachable anyway — the dedup walk stops at the
    /// first miss). The sequence stays registered and owns one reference
    /// to every block until [`free_seq`](Self::free_seq).
    ///
    /// Returns the number of blocks now published under `hashes`.
    ///
    /// # Errors
    ///
    /// [`BlockError::UnknownSeq`] if `seq` is not registered.
    pub fn publish_seq(&mut self, seq: u64, hashes: &[u64]) -> Result<usize, BlockError> {
        let e = self.seqs.get(seq).ok_or(BlockError::UnknownSeq { seq })?;
        let t = &mut self.table;
        let mut published = 0usize;
        for (&id, &h) in e.chain.iter().zip(hashes) {
            let b = &mut t.blocks[id as usize];
            if b.tier != BlockTier::L1 || b.filled != t.block_size {
                break;
            }
            match b.hash {
                Some(existing) if existing == h => {
                    published += 1;
                }
                Some(_) => break,
                None => {
                    if !t.dedup.insert_new(h, id) {
                        // Another block already owns this hash (identical
                        // content published elsewhere); chains that need
                        // it will share that copy instead.
                        break;
                    }
                    b.hash = Some(h);
                    published += 1;
                }
            }
        }
        Ok(published)
    }

    /// Demotes a sequence's *private* (sole-reference) L1 blocks to the
    /// spill tier, all or nothing. Shared blocks stay in L1 — other
    /// residents still read them. A sole-owner published block is
    /// unpublished first (its content leaves the GPU, so it can no longer
    /// seed sharing). The sequence stays registered; refill it before it
    /// grows again.
    ///
    /// # Errors
    ///
    /// [`BlockError::UnknownSeq`] if `seq` is not registered;
    /// [`BlockError::OutOfBlocks`] (moving nothing) if the spill tier
    /// cannot hold every candidate block.
    pub fn demote_seq(&mut self, seq: u64) -> Result<TierMove, BlockError> {
        let e = self.seqs.get(seq).ok_or(BlockError::UnknownSeq { seq })?;
        let t = &mut self.table;
        let candidates: Vec<u32> = e
            .chain
            .iter()
            .copied()
            .filter(|&id| {
                let b = &t.blocks[id as usize];
                b.tier == BlockTier::L1 && b.refs == 1
            })
            .collect();
        let l2_free = t.l2_total_blocks - t.l2_used;
        if candidates.len() > l2_free {
            return Err(BlockError::OutOfBlocks {
                requested: candidates.len(),
                available: l2_free,
            });
        }
        let mut mv = TierMove::default();
        for id in candidates {
            t.unpublish(id);
            let b = &mut t.blocks[id as usize];
            b.tier = BlockTier::L2;
            t.l1_used -= 1;
            t.l2_used += 1;
            mv.blocks += 1;
            mv.tokens += b.filled;
        }
        t.stats.demoted_blocks += mv.blocks as u64;
        t.stats.demoted_tokens += mv.tokens as u64;
        Ok(mv)
    }

    /// Promotes a spilled sequence's L2 blocks back to L1, all or nothing
    /// — after which it is fully resident and can grow again.
    ///
    /// # Errors
    ///
    /// [`BlockError::UnknownSeq`] if `seq` is not registered;
    /// [`BlockError::OutOfBlocks`] (moving nothing) if L1 lacks room for
    /// every spilled block.
    pub fn refill_seq(&mut self, seq: u64) -> Result<TierMove, BlockError> {
        let e = self.seqs.get(seq).ok_or(BlockError::UnknownSeq { seq })?;
        let t = &mut self.table;
        let spilled: Vec<u32> = e
            .chain
            .iter()
            .copied()
            .filter(|&id| t.blocks[id as usize].tier == BlockTier::L2)
            .collect();
        t.check_free(spilled.len())?;
        let mut mv = TierMove::default();
        for id in spilled {
            let b = &mut t.blocks[id as usize];
            b.tier = BlockTier::L1;
            t.l2_used -= 1;
            t.l1_used += 1;
            mv.blocks += 1;
            mv.tokens += b.filled;
        }
        t.note_l1_peak();
        t.stats.refilled_blocks += mv.blocks as u64;
        t.stats.refilled_tokens += mv.tokens as u64;
        Ok(mv)
    }
}

#[cfg(test)]
mod index_model;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_rounds_up_to_blocks() {
        let mut m = BlockManager::new(10, 16);
        m.register_seq(1, 17).unwrap();
        assert_eq!(m.used_blocks(), 2);
        assert_eq!(m.internal_fragmentation_tokens(), 15);
    }

    #[test]
    fn append_allocates_on_boundary_only() {
        let mut m = BlockManager::new(10, 4);
        m.register_seq(1, 4).unwrap();
        assert_eq!(m.used_blocks(), 1);
        m.append_token(1).unwrap(); // Crosses into block 2.
        assert_eq!(m.used_blocks(), 2);
        m.append_token(1).unwrap(); // Fits in block 2.
        assert_eq!(m.used_blocks(), 2);
    }

    #[test]
    fn exhaustion_is_reported_not_panicked() {
        let mut m = BlockManager::new(2, 4);
        m.register_seq(1, 8).unwrap();
        let err = m.register_seq(2, 1).unwrap_err();
        assert_eq!(
            err,
            BlockError::OutOfBlocks {
                requested: 1,
                available: 0
            }
        );
        // Failed registration must not leak state.
        assert_eq!(m.seq_count(), 1);
    }

    #[test]
    fn free_returns_blocks() {
        let mut m = BlockManager::new(4, 4);
        m.register_seq(1, 16).unwrap();
        assert_eq!(m.free_blocks(), 0);
        m.free_seq(1).unwrap();
        assert_eq!(m.free_blocks(), 4);
        assert_eq!(m.seq_count(), 0);
        assert_eq!(m.free_seq(1), Err(BlockError::UnknownSeq { seq: 1 }));
    }

    #[test]
    fn truncate_releases_whole_blocks() {
        let mut m = BlockManager::new(10, 4);
        m.register_seq(1, 16).unwrap(); // 4 blocks.
        m.truncate_seq(1, 5).unwrap(); // Needs 2 blocks.
        assert_eq!(m.used_blocks(), 2);
        assert_eq!(m.internal_fragmentation_tokens(), 3);
        assert_eq!(
            m.truncate_seq(1, 6),
            Err(BlockError::TruncateGrow {
                seq: 1,
                have: 5,
                want: 6
            })
        );
    }

    #[test]
    fn utilization_and_conservation() {
        let mut m = BlockManager::new(8, 2);
        m.register_seq(1, 3).unwrap();
        m.register_seq(2, 2).unwrap();
        assert_eq!(m.used_blocks() + m.free_blocks(), m.total_blocks());
        assert!((m.utilization() - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_registration_is_a_typed_error() {
        let mut m = BlockManager::new(4, 4);
        m.register_seq(1, 1).unwrap();
        assert_eq!(
            m.register_seq(1, 1),
            Err(BlockError::DuplicateSeq { seq: 1 })
        );
        // The rejected registration must not disturb accounting.
        assert_eq!(m.used_blocks(), 1);
        assert_eq!(m.seq_count(), 1);
    }

    #[test]
    fn zero_token_sequences_hold_zero_blocks() {
        // The documented contract: blocks held == ceil(tokens / bs), so a
        // zero-token sequence pins nothing (the seed pinned one block).
        let mut m = BlockManager::new(4, 4);
        m.register_seq(1, 0).unwrap();
        assert_eq!(m.used_blocks(), 0);
        assert_eq!(m.internal_fragmentation_tokens(), 0);
        // First append opens the first block.
        m.append_token(1).unwrap();
        assert_eq!(m.used_blocks(), 1);
        assert_eq!(m.internal_fragmentation_tokens(), 3);
        // Truncating back to zero releases the whole chain.
        m.truncate_seq(1, 0).unwrap();
        assert_eq!(m.used_blocks(), 0);
        assert_eq!(m.internal_fragmentation_tokens(), 0);
        assert_eq!(m.seq_count(), 1);
        m.free_seq(1).unwrap();
        assert_eq!(m.seq_count(), 0);
    }

    #[test]
    fn shared_prefix_allocates_once() {
        let mut m = BlockManager::new(16, 4);
        let hashes = prefix_hash_chain(7, 4, 2); // 8 shared prefix tokens.
        let a = m.register_seq_shared(1, 10, &hashes).unwrap();
        assert_eq!(a.shared_blocks, 0, "first arrival allocates everything");
        assert_eq!(m.used_blocks(), 3);
        let b = m.register_seq_shared(2, 10, &hashes).unwrap();
        assert_eq!(b, SharedRegistration { shared_blocks: 2, shared_tokens: 8 });
        // Second sequence added only its private tail block.
        assert_eq!(m.used_blocks(), 4);
        assert_eq!(m.logical_blocks(), 6);
        assert!(m.stats().dedup_ratio() > 1.0);
        // Shared blocks are refcounted: freeing one sequence keeps them.
        m.free_seq(1).unwrap();
        assert_eq!(m.used_blocks(), 3);
        m.free_seq(2).unwrap();
        assert_eq!(m.used_blocks(), 0);
        assert_eq!(m.internal_fragmentation_tokens(), 0);
    }

    #[test]
    fn mismatched_prefix_does_not_share() {
        let mut m = BlockManager::new(16, 4);
        m.register_seq_shared(1, 8, &prefix_hash_chain(1, 4, 2)).unwrap();
        let r = m.register_seq_shared(2, 8, &prefix_hash_chain(2, 4, 2)).unwrap();
        assert_eq!(r.shared_blocks, 0);
        assert_eq!(m.used_blocks(), 4);
    }

    #[test]
    fn partial_tail_is_never_published() {
        let mut m = BlockManager::new(16, 4);
        // 6 tokens = 1 full block + a 2-token tail; hashes offered for 2
        // blocks, but only the full one may publish.
        let hashes = prefix_hash_chain(3, 4, 2);
        m.register_seq_shared(1, 6, &hashes).unwrap();
        let views = m.seq_blocks(1).unwrap();
        assert!(views[0].published && views[0].filled == 4);
        assert!(!views[1].published && views[1].filled == 2);
        // A follow-up can share only the full block.
        let r = m.register_seq_shared(2, 6, &hashes).unwrap();
        assert_eq!(r.shared_blocks, 1);
    }

    #[test]
    fn cow_append_never_mutates_the_shared_block() {
        let mut m = BlockManager::new(16, 4);
        let hashes = prefix_hash_chain(9, 4, 2);
        m.register_seq_shared(1, 8, &hashes).unwrap();
        m.register_seq_shared(2, 8, &hashes).unwrap();
        // Truncate seq 2 into the shared region, then diverge.
        m.truncate_seq(2, 5).unwrap();
        // Content identity of seq 1's chain: ids, fills, tiers, publication
        // (refs legitimately drop when seq 2 releases its reference).
        let content = |m: &BlockManager| -> Vec<(u32, usize, BlockTier, bool)> {
            m.seq_blocks(1)
                .unwrap()
                .iter()
                .map(|v| (v.id, v.filled, v.tier, v.published))
                .collect()
        };
        let shared_before = content(&m);
        m.append_token(2).unwrap(); // In-tail append -> CoW.
        let shared_after = content(&m);
        assert_eq!(shared_before, shared_after, "CoW must not touch seq 1's chain");
        let diverged = m.seq_blocks(2).unwrap();
        assert_eq!(diverged[1].refs, 1);
        assert!(!diverged[1].published);
        // Seq 2 had 1 token in the tail; the copy holds it plus the new one.
        assert_eq!(diverged[1].filled, 2);
        assert_ne!(diverged[1].id, shared_after[1].0);
        assert_eq!(m.stats().cow_copies, 1);
    }

    #[test]
    fn sole_owner_published_tail_unpublishes_on_append() {
        let mut m = BlockManager::new(16, 4);
        let hashes = prefix_hash_chain(5, 4, 1);
        m.register_seq_shared(1, 4, &hashes).unwrap();
        m.truncate_seq(1, 3).unwrap();
        // refs == 1, still published: the append must unpublish in place,
        // not copy.
        m.append_token(1).unwrap();
        let views = m.seq_blocks(1).unwrap();
        assert_eq!(views.len(), 1);
        assert!(!views[0].published);
        assert_eq!(views[0].filled, 4);
        assert_eq!(m.stats().cow_copies, 0);
        // The unpublished content can no longer seed sharing.
        let r = m.register_seq_shared(2, 4, &hashes).unwrap();
        assert_eq!(r.shared_blocks, 0);
    }

    #[test]
    fn demote_and_refill_round_trip() {
        let mut m = BlockManager::with_tier(8, 4, 8);
        let hashes = prefix_hash_chain(11, 4, 1);
        m.register_seq_shared(1, 8, &hashes).unwrap();
        m.register_seq_shared(2, 8, &hashes).unwrap();
        assert_eq!(m.used_blocks(), 3);
        let mv = m.demote_seq(2).unwrap();
        // Only the private tail moves; the shared prefix stays hot.
        assert_eq!(mv, TierMove { blocks: 1, tokens: 4 });
        assert_eq!(m.used_blocks(), 2);
        assert_eq!(m.l2_used_blocks(), 1);
        assert!(!m.is_fully_resident(2));
        assert!(m.is_fully_resident(1));
        assert_eq!(m.append_token(2), Err(BlockError::NotResident { seq: 2 }));
        let back = m.refill_seq(2).unwrap();
        assert_eq!(back, TierMove { blocks: 1, tokens: 4 });
        assert!(m.is_fully_resident(2));
        m.append_token(2).unwrap();
        // Freeing a spilled chain returns L2 blocks too.
        m.demote_seq(2).unwrap();
        m.free_seq(2).unwrap();
        assert_eq!(m.l2_used_blocks(), 0);
    }

    #[test]
    fn demote_without_l2_room_is_all_or_nothing() {
        let mut m = BlockManager::with_tier(8, 4, 1);
        m.register_seq(1, 8).unwrap(); // 2 private blocks, 1 L2 slot.
        let err = m.demote_seq(1).unwrap_err();
        assert_eq!(
            err,
            BlockError::OutOfBlocks {
                requested: 2,
                available: 1
            }
        );
        assert_eq!(m.used_blocks(), 2);
        assert_eq!(m.l2_used_blocks(), 0);
        assert!(m.is_fully_resident(1));
    }

    #[test]
    fn sole_owner_published_block_unpublishes_on_demote() {
        let mut m = BlockManager::with_tier(8, 4, 8);
        let hashes = prefix_hash_chain(13, 4, 1);
        m.register_seq_shared(1, 4, &hashes).unwrap();
        m.demote_seq(1).unwrap();
        // Its content left the GPU, so a new arrival cannot share it.
        let r = m.register_seq_shared(2, 4, &hashes).unwrap();
        assert_eq!(r.shared_blocks, 0);
    }

    #[test]
    fn prefix_hash_chain_is_deterministic_and_group_scoped() {
        let a = prefix_hash_chain(1, 16, 4);
        assert_eq!(a, prefix_hash_chain(1, 16, 4));
        assert_eq!(a.len(), 4);
        let b = prefix_hash_chain(2, 16, 4);
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
        // Same group, different block size -> different content.
        let c = prefix_hash_chain(1, 32, 4);
        assert!(a.iter().zip(&c).all(|(x, y)| x != y));
        // A longer chain extends the shorter one (prefix property).
        let long = prefix_hash_chain(1, 16, 6);
        assert_eq!(&long[..4], &a[..]);
    }

    #[test]
    fn session_hash_chain_extends_the_group_prefix() {
        // 2 prefix blocks (32 tokens at bs 16) + 2 session-private blocks.
        let chain = session_hash_chain(7, 32, 100, 16, 4);
        assert_eq!(&chain[..2], &prefix_hash_chain(7, 16, 2)[..]);
        // Session-private blocks are session-scoped...
        let other = session_hash_chain(7, 32, 101, 16, 4);
        assert_eq!(&other[..2], &chain[..2]);
        assert!(chain[2..].iter().zip(&other[2..]).all(|(a, b)| a != b));
        // ...and the chain has the prefix property across turns.
        let longer = session_hash_chain(7, 32, 100, 16, 6);
        assert_eq!(&longer[..4], &chain[..]);
    }

    #[test]
    fn publish_then_shared_register_reuses_carried_blocks() {
        let mut m = BlockManager::new(16, 4);
        // Turn 0: 10 tokens (2 full blocks + partial tail), no sharing.
        m.register_seq(1, 10).unwrap();
        let hashes = session_hash_chain(0, 0, 42, 4, 2);
        assert_eq!(m.publish_seq(1, &hashes), Ok(2));
        // Turn 1 carries those 10 tokens: the walk hits both full blocks.
        let next = session_hash_chain(0, 0, 42, 4, 3);
        let r = m.register_seq_shared(2, 14, &next[..2]).unwrap();
        assert_eq!(r.shared_blocks, 2);
        assert_eq!(r.shared_tokens, 8);
        // Retiring the parked turn keeps the shared blocks alive.
        m.free_seq(1).unwrap();
        assert!(m.seq_blocks(2).unwrap()[..2].iter().all(|b| b.published));
        // Unknown sequence is a typed error, publishing nothing.
        assert_eq!(
            m.publish_seq(9, &hashes),
            Err(BlockError::UnknownSeq { seq: 9 })
        );
    }

    #[test]
    fn publish_stops_at_partial_and_conflicting_blocks() {
        let mut m = BlockManager::new(16, 4);
        m.register_seq(1, 6).unwrap(); // 1 full + 1 partial block.
        let hashes = session_hash_chain(0, 0, 5, 4, 2);
        // Only the full block publishes; the partial tail is private.
        assert_eq!(m.publish_seq(1, &hashes), Ok(1));
        // Re-publishing under the same chain is idempotent.
        assert_eq!(m.publish_seq(1, &hashes), Ok(1));
        // A different sequence claiming the same hash stops at the
        // conflict instead of stealing the dedup slot.
        m.register_seq(2, 4).unwrap();
        assert_eq!(m.publish_seq(2, &hashes), Ok(0));
    }
}
