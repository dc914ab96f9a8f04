//! The per-(layer, head) KV cache abstraction and the attention kernels
//! every policy shares.
//!
//! Four kernels carry all attention arithmetic in this crate, so the term
//! order that makes results bit-reproducible is written down once:
//!
//! * the packed-panel product of `rkvc_tensor::gemm` — any number of
//!   queries against the FP16 row window, whose keys are stored as its
//!   panels ([`RowWindow`](crate::window::RowWindow));
//! * [`dots_into`] — one query against a decoded chunk tile, four rows at
//!   a time;
//! * [`score_tile`] — a block of queries against a decoded chunk tile,
//!   four key rows by eight transposed queries, so a key is read once per
//!   block instead of once per query;
//! * [`axpy_rows`] — the softmax-weighted value sum, rows ascending.
//!
//! Each `(row, query)` score is the ascending-channel fold from `+0.0`
//! (what `rkvc_tensor::seq_sum_f32` computes), scaled once the dot is
//! complete; each output channel accumulates its rows oldest first.
//! Blocking only changes which element advances next, never the order
//! of one element's terms.

use rkvc_tensor::{softmax_slice, Matrix};

use crate::window::{Queries, RowWindow};
use crate::CacheStats;

/// Materialized view of a cache's retained entries.
///
/// `keys` and `values` are `(retained_tokens x head_dim)` matrices;
/// `positions[i]` is the original sequence position of row `i`. Quantizing
/// caches reconstruct (dequantize) on view, so attention downstream sees the
/// values a real kernel would compute with.
#[derive(Debug, Clone, PartialEq)]
// rkvc-allow(C001): return type of KvCache::view(); consumers bind views without naming the type
pub struct KvView {
    /// Retained key vectors, one row per retained token.
    pub keys: Matrix,
    /// Retained value vectors, one row per retained token.
    pub values: Matrix,
    /// Original sequence positions of the retained rows.
    pub positions: Vec<usize>,
}

impl KvView {
    /// Number of retained tokens in the view.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the view holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// `n_tokens` consecutive tokens of one KV head, handed to
/// [`KvCache::extend_attend`]: each token's key/value row and the
/// `group` query vectors (the GQA group sharing this KV head) that attend
/// right after the token's own append.
///
/// Rows are addressed by stride so the model can pass its projection
/// buffers as they are: token `t`'s key is `keys[t * kv_stride..][..head_dim]`
/// and its `g`-th query is
/// `queries[t * q_stride + g * head_dim..][..head_dim]`.
///
/// The caller reads attention outputs only from token
/// [`read_from`](AttendBatch::read_from) on. Every token is appended and
/// every query must be valid whatever that index is — it only says which
/// outputs are dead, and a cache is free to not compute those.
#[derive(Debug, Clone, Copy)]
pub struct AttendBatch<'a> {
    /// Head dimension of every key, value and query vector.
    pub head_dim: usize,
    /// Number of tokens to append and attend.
    pub n_tokens: usize,
    /// Sequence position of the first token.
    pub pos0: usize,
    /// Score scale (`1 / sqrt(head_dim)`).
    pub scale: f32,
    /// Query vectors per token.
    pub group: usize,
    /// Key rows, `kv_stride` apart.
    pub keys: &'a [f32],
    /// Value rows, `kv_stride` apart.
    pub values: &'a [f32],
    /// Distance between consecutive tokens' key (and value) rows.
    pub kv_stride: usize,
    /// Query rows: `group` contiguous vectors per token, tokens
    /// `q_stride` apart.
    pub queries: &'a [f32],
    /// Distance between consecutive tokens' query groups.
    pub q_stride: usize,
    /// First token whose attention output the caller reads: the output
    /// stripes of tokens `0..read_from` are left exactly as passed in.
    /// `0` (decode, and every prefill layer that feeds another) reads
    /// them all; `read_from >= n_tokens` reads none.
    pub read_from: usize,
}

impl<'a> AttendBatch<'a> {
    fn key(&self, t: usize) -> &'a [f32] {
        &self.keys[t * self.kv_stride..][..self.head_dim]
    }

    fn value(&self, t: usize) -> &'a [f32] {
        &self.values[t * self.kv_stride..][..self.head_dim]
    }

    fn query(&self, t: usize, g: usize) -> &'a [f32] {
        &self.queries[t * self.q_stride + g * self.head_dim..][..self.head_dim]
    }

    /// Range of query `(t, g)`'s output vector in the batch's `out`.
    fn out_range(&self, t: usize, g: usize) -> std::ops::Range<usize> {
        let start = (t * self.group + g) * self.head_dim;
        start..start + self.head_dim
    }

    /// Runs token `t`'s query group against `cache`, one query at a
    /// time. A token before [`read_from`](AttendBatch::read_from) still
    /// attends — the cache may steer itself by the weights — but into
    /// scratch, not into `out`.
    fn attend_group<C: KvCache + ?Sized>(
        &self,
        cache: &mut C,
        t: usize,
        scratch: &mut AttendScratch,
        out: &mut [f32],
    ) {
        let AttendScratch { scores, weights, unread, .. } = scratch;
        for g in 0..self.group {
            let out = if t < self.read_from {
                unread.clear();
                unread.resize(self.head_dim, 0.0);
                &mut unread[..]
            } else {
                &mut out[self.out_range(t, g)]
            };
            cache.attend(self.query(t, g), self.scale, scores, weights, out);
        }
    }
}

/// Reusable attention working memory, owned by the caller of
/// [`KvCache::extend_attend`] (one per KV head that may run concurrently)
/// so no call allocates once the buffers have grown to the context
/// length.
#[derive(Debug, Default)]
pub struct AttendScratch {
    /// Single-query scores.
    scores: Vec<f32>,
    /// Single-query softmax weights.
    weights: Vec<f32>,
    /// Where a query attends when nobody reads its output.
    unread: Vec<f32>,
    /// The current block's queries, row-major: the left operand of the
    /// window product.
    queries: Vec<f32>,
    /// The window product of one physical run, before it is scaled into
    /// the score rows.
    product: Vec<f32>,
    /// The current block's queries transposed for the chunk tiles: entry
    /// `lg * head_dim + c` holds channel `c` of queries `8 lg .. 8 lg + 8`
    /// (zero-padded).
    lanes: Vec<[f32; LANES]>,
    /// The current block's score (then weight) rows, one per query,
    /// `retained rows` apart.
    block: Vec<f32>,
}

/// A single attention head's KV cache with a pluggable compression policy.
///
/// The model drives the cache through one call per layer and step,
/// [`extend_attend`](KvCache::extend_attend), which is defined in terms of
/// three hooks:
///
/// 1. [`append`](KvCache::append) — once per token (prefill and decode)
///    with the freshly computed key/value vectors.
/// 2. [`attend`](KvCache::attend) — once per query head, right after the
///    token's append; it ends with
///    [`observe_attention`](KvCache::observe_attention), handing the
///    post-softmax weights over the attended rows (oldest first) to
///    score-based policies (H2O, TOVA, SnapKV).
/// 3. [`finish_prefill`](KvCache::finish_prefill) — once when the prompt
///    has been fully ingested. Prefill-compressing policies (SnapKV)
///    act here.
///
/// [`view`](KvCache::view) materializes the retained entries for
/// inspection and for the test oracles; it is on no hot path.
///
/// Two types implement it, one per storage format:
/// [`DenseCache`](crate::DenseCache) and
/// [`ChunkedCache`](crate::ChunkedCache).
pub trait KvCache: std::fmt::Debug + Send {
    /// Appends the key/value vectors for the token at sequence position
    /// `pos`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `key.len()` or `value.len()` differ from the
    /// head dimension fixed at construction.
    fn append(&mut self, key: &[f32], value: &[f32], pos: usize);

    /// Materializes a copy of the retained entries (dequantizing where the
    /// storage is compressed). For inspection, eviction baselines and
    /// oracles: attention itself reads the storage in place.
    fn view(&self) -> KvView;

    /// Materializes the entries relevant to a specific query vector.
    ///
    /// Query-aware policies (Quest) select a subset per query; everything
    /// else returns the static [`view`](KvCache::view). The weights passed
    /// to the next [`observe_attention`](KvCache::observe_attention) call
    /// refer to the rows of this view.
    fn view_for_query(&self, _query: &[f32]) -> KvView {
        self.view()
    }

    /// Feeds back the post-softmax attention weights of the latest query
    /// over the rows it attended (same order).
    ///
    /// Policies that do not use attention scores ignore this.
    fn observe_attention(&mut self, _weights: &[f32]) {}

    /// Runs one query head's full attention against the cache:
    /// score dots over the retained keys, softmax, the weighted value sum
    /// accumulated into `out` (`+=`, caller zeroes), and the
    /// [`observe_attention`](KvCache::observe_attention) feedback call.
    /// `scores`/`weights` are caller-owned scratch reused across tokens;
    /// on return `weights` holds the softmax weights.
    ///
    /// The contract is bitwise equality with the naive
    /// score/softmax/weighted-sum loops over
    /// [`view_for_query`](KvCache::view_for_query), which is what the
    /// oracle tests replay. Both caches read their storage in place: the
    /// FP16 row window through the panel product, and (KIVI, GEAR)
    /// compressed chunks decoded as they are consumed.
    ///
    /// # Panics
    ///
    /// Every implementation panics if `query.len()` or `out.len()` differ
    /// from the head dimension fixed at construction.
    fn attend(
        &mut self,
        query: &[f32],
        scale: f32,
        scores: &mut Vec<f32>,
        weights: &mut Vec<f32>,
        out: &mut [f32],
    );

    /// Appends `batch.n_tokens` consecutive tokens, attending each token's
    /// query group right after its own append (so a query sees its own
    /// token and everything older, never a later one), and accumulates
    /// query `(t, g)`'s output into
    /// `out[(t * group + g) * head_dim..][..head_dim]` (`+=`, caller
    /// zeroes) for every token from `batch.read_from` on; the stripes of
    /// earlier tokens are not touched. Decode is the `n_tokens == 1` case
    /// and prefill the whole-prompt case of the same call.
    ///
    /// `read_from` removes outputs, never state: after the call
    /// [`view`](KvCache::view), [`stats`](KvCache::stats) and everything
    /// else a later call can observe equal what `read_from == 0` leaves,
    /// bit for bit, and so do the stripes that are written. A policy may
    /// therefore skip an unread query only if the query could not have
    /// changed it.
    ///
    /// The default is the per-token loop — `append`, then one
    /// [`attend`](KvCache::attend) per query, unread ones included,
    /// because a policy on this loop may be steered by any of them — and
    /// defines the semantics.
    /// Policies whose retained past stays put between flushes (FP16,
    /// KIVI, GEAR, StreamingLLM until its window is full) override it to
    /// run whole blocks of queries against that past at once, decoding
    /// each compressed chunk once per block instead of once per query;
    /// the override contract is bitwise equality with this loop.
    /// Retention rules steered by per-query feedback
    /// (H2O, TOVA, SnapKV's observation window, Quest's per-query
    /// selection) run this loop: their past changes with every query.
    /// The same split decides who may drop unread queries: the blocked
    /// driver only appends them, this loop cannot.
    ///
    /// # Panics
    ///
    /// Panics if `batch.head_dim` differs from the head dimension fixed at
    /// construction, or if a slice of `batch` or `out` is too short.
    fn extend_attend(&mut self, batch: &AttendBatch<'_>, scratch: &mut AttendScratch, out: &mut [f32]) {
        extend_attend_per_token(self, batch, scratch, out);
    }

    /// Signals that the prompt has been fully ingested.
    fn finish_prefill(&mut self) {}

    /// Number of tokens currently retained.
    fn len(&self) -> usize;

    /// Whether no tokens are retained.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of tokens ever appended.
    fn seen(&self) -> usize;

    /// Bytes this cache would occupy in device memory with its native
    /// storage format (packed codes + constants for quantizers, FP16 for
    /// dense policies).
    fn memory_bytes(&self) -> usize;

    /// Bytes of host memory the simulator process actually holds for the
    /// retained state — packed codes at true size, f32-backed tensors at
    /// 4 bytes per element — as opposed to
    /// [`memory_bytes`](KvCache::memory_bytes), which models the
    /// simulated device format (FP16 dense tensors, FP16 constants).
    ///
    /// The default covers dense policies, whose f32 backing is exactly
    /// twice the FP16 bytes they model; quantizing policies override
    /// with exact accounting. KIVI/GEAR used to also hold full-precision
    /// dequantization memos here (doubling residency and defeating the
    /// simulated compression) until the fused attention kernels removed
    /// them.
    fn resident_bytes(&self) -> usize {
        2 * self.memory_bytes()
    }

    /// Aggregate statistics (retention, memory, quantization error).
    fn stats(&self) -> CacheStats;
}

/// The default [`KvCache::extend_attend`], as a function so that a cache
/// whose policy is a run-time value ([`DenseCache`](crate::DenseCache))
/// can choose between it and [`extend_attend_blocked`].
pub(crate) fn extend_attend_per_token<C: KvCache + ?Sized>(
    cache: &mut C,
    batch: &AttendBatch<'_>,
    scratch: &mut AttendScratch,
    out: &mut [f32],
) {
    for t in 0..batch.n_tokens {
        cache.append(batch.key(t), batch.value(t), batch.pos0 + t);
        batch.attend_group(cache, t, scratch, out);
    }
}

/// `scores[r] = dot(rows[r], query) * scale` over the row-major run
/// `rows` (`scores.len()` rows of `query.len()` channels).
///
/// Four rows advance together so four independent accumulator chains
/// overlap; every dot is still its own ascending-channel fold from `0.0`,
/// scaled after it completes.
pub(crate) fn dots_into(rows: &[f32], query: &[f32], scale: f32, scores: &mut [f32]) {
    let hd = query.len();
    assert_eq!(rows.len(), scores.len() * hd, "row run does not match the score slots");
    if hd == 0 {
        scores.fill(0.0 * scale);
        return;
    }
    let mut row_quads = rows.chunks_exact(4 * hd);
    let mut score_quads = scores.chunks_exact_mut(4);
    for (quad, s) in row_quads.by_ref().zip(score_quads.by_ref()) {
        let (k0, rest) = quad.split_at(hd);
        let (k1, rest) = rest.split_at(hd);
        let (k2, k3) = rest.split_at(hd);
        let mut acc = [0.0f32; 4];
        for ((((&a0, &a1), &a2), &a3), &q) in k0.iter().zip(k1).zip(k2).zip(k3).zip(query) {
            acc[0] += a0 * q;
            acc[1] += a1 * q;
            acc[2] += a2 * q;
            acc[3] += a3 * q;
        }
        for (s, a) in s.iter_mut().zip(acc) {
            *s = a * scale;
        }
    }
    for (row, s) in row_quads.remainder().chunks_exact(hd).zip(score_quads.into_remainder()) {
        let mut acc = 0.0f32;
        for (&a, &q) in row.iter().zip(query) {
            acc += a * q;
        }
        *s = acc * scale;
    }
}

/// Channels whose partial sums [`axpy_rows`] holds in registers while the
/// rows stream past: 32 f32 are eight 4-wide vectors, half the baseline
/// x86-64 register file, leaving room for the streamed row and the
/// broadcast weight.
const PANEL: usize = 32;

/// `out[c] += Σ_r weights[r] * rows[r][c]` over the row-major run `rows`
/// (`weights.len()` rows of `out.len()` channels), rows ascending — the
/// accumulation order of the naive row-by-row weighted sum, with the
/// output panel kept in registers instead of reloaded per row.
pub(crate) fn axpy_rows(rows: &[f32], weights: &[f32], out: &mut [f32]) {
    let hd = out.len();
    assert_eq!(rows.len(), weights.len() * hd, "row run does not match the weights");
    if hd == 0 {
        return;
    }
    let mut c0 = 0;
    let mut panels = out.chunks_exact_mut(PANEL);
    for panel in panels.by_ref() {
        let mut acc = [0.0f32; PANEL];
        acc.copy_from_slice(panel);
        for (row, &w) in rows.chunks_exact(hd).zip(weights) {
            for (a, &v) in acc.iter_mut().zip(&row[c0..c0 + PANEL]) {
                *a += w * v;
            }
        }
        panel.copy_from_slice(&acc);
        c0 += PANEL;
    }
    let tail = panels.into_remainder();
    if !tail.is_empty() {
        for (row, &w) in rows.chunks_exact(hd).zip(weights) {
            for (o, &v) in tail.iter_mut().zip(&row[c0..]) {
                *o += w * v;
            }
        }
    }
}

/// Query lanes of the cross-query score tile. Fixed (and zero-padded)
/// rather than the live query count: a runtime lane count does not
/// vectorize.
const LANES: usize = 8;

/// Most queries one block may hold. Bounds the block's score matrix at
/// `MAX_BLOCK_QUERIES x retained rows` floats.
const MAX_BLOCK_QUERIES: usize = 32;

/// Dots of `R` key rows against eight queries at once: `acc[r][l]` is
/// `dot(rows[r], query l)`, each the ascending-channel fold from `0.0`.
/// `lanes[c]` holds channel `c` of the eight queries, so one channel step
/// is `R` broadcasts against two 4-wide vectors and the `R x 8`
/// accumulators stay in registers (`R = 4`: eight vectors, as in the
/// baseline tile of `rkvc_tensor::gemm`).
#[inline]
fn score_tile<const R: usize>(rows: [&[f32]; R], lanes: &[[f32; LANES]]) -> [[f32; LANES]; R] {
    let rows = rows.map(|row| &row[..lanes.len()]);
    let mut acc = [[0.0f32; LANES]; R];
    for (c, q) in lanes.iter().enumerate() {
        for (acc_row, row) in acc.iter_mut().zip(rows) {
            let a = row[c];
            for (o, &qv) in acc_row.iter_mut().zip(q) {
                *o += a * qv;
            }
        }
    }
    acc
}

/// Policies whose retained past stays put between flushes, which lets
/// [`extend_attend_blocked`] run a block of queries against it at once.
///
/// Implementors never reorder or drop retained rows outside a flush and
/// ignore [`KvCache::observe_attention`] — a block's queries are scored
/// together, so per-query feedback could not act between them. For the
/// same reason a query whose output nobody reads
/// ([`AttendBatch::read_from`]) leaves no trace in them, and the driver
/// does not run it.
pub(crate) trait BlockRows: KvCache {
    /// How many appends may follow the latest one before an append
    /// rewrites retained rows (a flush): the rest of the current block.
    fn quiet_appends(&self) -> usize;

    /// The FP16 row window: the last `window().len()` retained rows.
    fn window(&self) -> &RowWindow;

    /// Calls `f` on the retained key rows in front of the window, oldest
    /// first, as dense row-major runs (`head_dim` channels per row).
    /// Compressed chunks are decoded into a cache-owned tile, once per
    /// call — the values [`KvCache::view`] would hold, bit for bit. The
    /// default serves the dense policies, which have no such rows.
    fn chunk_key_runs(&mut self, _f: &mut dyn FnMut(&[f32])) {}

    /// [`chunk_key_runs`](BlockRows::chunk_key_runs) for the value rows.
    fn chunk_value_runs(&mut self, _f: &mut dyn FnMut(&[f32])) {}
}

/// Tokens per query block of the dense policies, which never flush and
/// so may pick the length: 16 keeps the columns the window product
/// computes past a query's own token (on average half a block) small next
/// to the shared past.
pub(crate) const DENSE_BLOCK_TOKENS: usize = 16;

/// [`KvCache::extend_attend`] for [`BlockRows`] policies: the batch is
/// cut into blocks that end right before an append that would flush, and
/// each block's queries run against the cache together.
///
/// A block's tokens are all appended first (none of them flushes, by
/// construction), so of the `total` rows then retained, the last `m - 1`
/// are the block's own later tokens: token `i` of the block attends rows
/// `0 .. total - (m - 1) + i`. Those later tokens sit in the window, so
/// compressed chunks hold only rows every query sees; they go through the
/// cross-query [`score_tile`]. The window is one product of all the
/// block's queries against all its rows, the in-block triangle included
/// (a query's columns past its own token are computed and never read).
/// Softmax and [`axpy_rows`] then run per query over exactly the rows the
/// per-token loop would have attended, in the same order — only the
/// interleaving across queries differs, so outputs are bit-identical to
/// the default [`KvCache::extend_attend`].
///
/// A block of one token (decode, or a policy configured to flush on
/// every append) takes the single-query [`KvCache::attend`].
///
/// Tokens before `batch.read_from` are appended and nothing else — a
/// [`BlockRows`] cache cannot tell a query that ran from one that did
/// not — so blocks start at the first token that is read.
pub(crate) fn extend_attend_blocked<C: BlockRows>(
    cache: &mut C,
    batch: &AttendBatch<'_>,
    scratch: &mut AttendScratch,
    out: &mut [f32],
) {
    let hd = batch.head_dim;
    // Zero-width heads have no rows to block over: one token at a time.
    let max_tokens = if hd == 0 { 1 } else { (MAX_BLOCK_QUERIES / batch.group.max(1)).max(1) };
    let mut t0 = 0;
    while t0 < batch.n_tokens {
        // The first append may flush; what follows it may not.
        cache.append(batch.key(t0), batch.value(t0), batch.pos0 + t0);
        if t0 < batch.read_from {
            t0 += 1;
            continue;
        }
        let ahead = batch.n_tokens - t0 - 1;
        let m = 1 + cache.quiet_appends().min(ahead).min(max_tokens - 1);
        if m == 1 {
            batch.attend_group(cache, t0, scratch, out);
            t0 += 1;
            continue;
        }
        for t in t0 + 1..t0 + m {
            cache.append(batch.key(t), batch.value(t), batch.pos0 + t);
        }
        let mut block = QueryBlock::new(batch, t0, m, cache.len(), scratch);
        let mut r0 = 0;
        cache.chunk_key_runs(&mut |rows| {
            block.score_chunk(r0, rows);
            r0 += rows.len() / hd;
        });
        block.score_window(r0, cache.window());
        block.softmax();
        let mut r0 = 0;
        cache.chunk_value_runs(&mut |rows| {
            block.accumulate_chunk(r0, rows, out);
            r0 += rows.len() / hd;
        });
        block.accumulate_window(r0, cache.window(), out);
        t0 += m;
    }
}

/// One block of [`extend_attend_blocked`]: tokens `t0 .. t0 + m` of the
/// batch against `total` retained rows, the last `m - 1` of which are
/// the block's own later tokens.
struct QueryBlock<'a> {
    batch: &'a AttendBatch<'a>,
    t0: usize,
    m: usize,
    /// Retained rows after the block's appends; also the stride of the
    /// score matrix.
    total: usize,
    /// Rows every query of the block attends.
    shared: usize,
    /// The `m * group` queries, row-major.
    queries: &'a [f32],
    /// Their transposition for [`score_tile`], built on first use.
    lanes: &'a mut Vec<[f32; LANES]>,
    product: &'a mut Vec<f32>,
    /// `m * group` score rows, `total` apart; softmax turns them into the
    /// weight rows in place.
    scores: &'a mut [f32],
}

impl<'a> QueryBlock<'a> {
    fn new(
        batch: &'a AttendBatch<'a>,
        t0: usize,
        m: usize,
        total: usize,
        scratch: &'a mut AttendScratch,
    ) -> Self {
        let AttendScratch { queries, product, lanes, block, .. } = scratch;
        queries.clear();
        for j in 0..m * batch.group {
            queries.extend_from_slice(batch.query(t0 + j / batch.group, j % batch.group));
        }
        lanes.clear();
        // Every slot a query attends is written before it is read.
        block.resize(m * batch.group * total, 0.0);
        QueryBlock {
            batch,
            t0,
            m,
            total,
            shared: total - (m - 1),
            queries,
            lanes,
            product,
            scores: block,
        }
    }

    fn n_queries(&self) -> usize {
        self.m * self.batch.group
    }

    /// Rows query `j`'s token attends: the shared past plus the block
    /// tokens up to and including its own.
    fn visible(&self, j: usize) -> usize {
        self.shared + j / self.batch.group
    }

    /// Scores the decoded chunk run `rows`, whose first row is retained
    /// row `r0`, through the cross-query tile: every query sees it.
    fn score_chunk(&mut self, r0: usize, rows: &[f32]) {
        let hd = self.batch.head_dim;
        if self.lanes.is_empty() {
            self.lanes.resize(self.n_queries().div_ceil(LANES) * hd, [0.0; LANES]);
            for (j, query) in self.queries.chunks_exact(hd).enumerate() {
                let tile = &mut self.lanes[j / LANES * hd..][..hd];
                for (lane, &q) in tile.iter_mut().zip(query) {
                    lane[j % LANES] = q;
                }
            }
        }
        let mut r = r0;
        let mut quads = rows.chunks_exact(4 * hd);
        for quad in quads.by_ref() {
            let (k0, rest) = quad.split_at(hd);
            let (k1, rest) = rest.split_at(hd);
            let (k2, k3) = rest.split_at(hd);
            for lg in 0..self.lanes.len() / hd {
                let acc = score_tile([k0, k1, k2, k3], &self.lanes[lg * hd..][..hd]);
                self.store_tile(r, lg, &acc);
            }
            r += 4;
        }
        for row in quads.remainder().chunks_exact(hd) {
            for lg in 0..self.lanes.len() / hd {
                let acc = score_tile([row], &self.lanes[lg * hd..][..hd]);
                self.store_tile(r, lg, &acc);
            }
            r += 1;
        }
    }

    /// Scales a finished tile and scatters it into the score rows of
    /// lane group `lg`, dropping the padding lanes.
    fn store_tile<const R: usize>(&mut self, r: usize, lg: usize, acc: &[[f32; LANES]; R]) {
        let scale = self.batch.scale;
        for l in 0..LANES.min(self.n_queries() - lg * LANES) {
            let slots = &mut self.scores[(lg * LANES + l) * self.total + r..][..R];
            for (s, acc_row) in slots.iter_mut().zip(acc) {
                *s = acc_row[l] * scale;
            }
        }
    }

    /// Scores the window, whose first row is retained row `r0`: one
    /// product of every query against every window row.
    fn score_window(&mut self, r0: usize, window: &RowWindow) {
        let q = Queries {
            rows: self.queries,
            count: self.n_queries(),
            scale: self.batch.scale,
        };
        window.scores_into(0..window.len(), q, self.product, &mut self.scores[r0..], self.total);
    }

    /// Softmax of every query's score row over the rows it attends.
    fn softmax(&mut self) {
        for j in 0..self.n_queries() {
            let visible = self.visible(j);
            softmax_slice(&mut self.scores[j * self.total..][..visible]);
        }
    }

    /// Accumulates the decoded chunk run `rows` (first row: retained row
    /// `r0`) into every query's output.
    fn accumulate_chunk(&self, r0: usize, rows: &[f32], out: &mut [f32]) {
        let n = rows.len() / self.batch.head_dim;
        for j in 0..self.n_queries() {
            let weights = &self.scores[j * self.total..][r0..r0 + n];
            axpy_rows(rows, weights, &mut out[self.out_range(j)]);
        }
    }

    /// Accumulates the window (first row: retained row `r0`) into every
    /// query's output, each over the window rows it attends.
    fn accumulate_window(&self, r0: usize, window: &RowWindow, out: &mut [f32]) {
        for j in 0..self.n_queries() {
            let seen = self.visible(j) - r0;
            let weights = &self.scores[j * self.total..][r0..r0 + seen];
            window.weighted_sum(0..seen, weights, &mut out[self.out_range(j)]);
        }
    }

    /// Range of query `j`'s output vector in the batch's `out`.
    fn out_range(&self, j: usize) -> std::ops::Range<usize> {
        let (t, g) = (self.t0 + j / self.batch.group, j % self.batch.group);
        self.batch.out_range(t, g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_tensor::seq_sum_f32;

    #[test]
    fn view_len_tracks_positions() {
        let v = KvView {
            keys: Matrix::zeros(3, 2),
            values: Matrix::zeros(3, 2),
            positions: vec![0, 1, 2],
        };
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
    }

    fn ramp(n: usize, seed: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32 + seed) * 0.37).sin()).collect()
    }

    /// The kernels are bitwise the naive folds, for widths on both sides
    /// of the 4-row, 8-lane and 32-channel blockings.
    #[test]
    fn kernels_match_naive_folds() {
        for hd in [1usize, 3, 8, 31, 32, 33, 64, 70] {
            for n in [0usize, 1, 3, 4, 5, 9] {
                let rows = ramp(n * hd, 1.0);
                let q = ramp(hd, 2.0);
                let mut scores = vec![f32::NAN; n];
                dots_into(&rows, &q, 0.25, &mut scores);
                let w = ramp(n, 3.0);
                let mut out = ramp(hd, 4.0);
                let mut naive_out = out.clone();
                axpy_rows(&rows, &w, &mut out);
                for r in 0..n {
                    let row = &rows[r * hd..(r + 1) * hd];
                    let dot = seq_sum_f32(row.iter().zip(&q).map(|(a, b)| a * b));
                    assert_eq!(scores[r].to_bits(), (dot * 0.25).to_bits());
                    for (o, v) in naive_out.iter_mut().zip(row) {
                        *o += w[r] * v;
                    }
                }
                for (a, b) in out.iter().zip(&naive_out) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}
