//! The dense KV store and the retention rules that run on it.
//!
//! The paper's Table 1 sorts the sparsity family by *which token leaves
//! and when*; nothing else tells the FP16 baseline, StreamingLLM, H2O,
//! TOVA, SnapKV/PyramidKV, ThinK and Quest apart. So there is one store,
//! [`DenseCache`] (full-width key/value rows rounded through binary16),
//! and the policy is a [`Retention`] value, matched where the policies
//! differ: what an append evicts, what attention feedback and the end of
//! prefill do, which rows a query attends, what the device format costs.

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::ops::Range;

use rkvc_tensor::top_k;

use crate::cache::{extend_attend_blocked, extend_attend_per_token, BlockRows, DENSE_BLOCK_TOKENS};
use crate::window::RowWindow;
use crate::{AttendBatch, AttendScratch, CacheError, CacheStats, KvCache, KvView};

/// Hyper-parameters of [`Retention::SinkWindow`] (StreamingLLM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingParams {
    /// Number of initial sink tokens retained forever (paper: 64).
    pub sinks: usize,
    /// Sliding window of most recent tokens (paper: 448; total cache 512).
    pub recent: usize,
}

impl Default for StreamingParams {
    fn default() -> Self {
        StreamingParams {
            sinks: 64,
            recent: 448,
        }
    }
}

impl StreamingParams {
    /// Total token budget `sinks + recent`. Saturating, as every
    /// `budget()` here: a label must not panic on a config nobody built.
    pub fn budget(&self) -> usize {
        self.sinks.saturating_add(self.recent)
    }
}

/// Hyper-parameters of [`Retention::HeavyHitters`] (H2O).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct H2OParams {
    /// Heavy-hitter budget (paper: 64).
    pub heavy: usize,
    /// Recent-window budget (paper: 448; total cache 512).
    pub recent: usize,
}

impl Default for H2OParams {
    fn default() -> Self {
        H2OParams {
            heavy: 64,
            recent: 448,
        }
    }
}

impl H2OParams {
    /// Total token budget `heavy + recent` (saturating).
    pub fn budget(&self) -> usize {
        self.heavy.saturating_add(self.recent)
    }
}

/// Hyper-parameters of [`Retention::LeastAttended`] (TOVA).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TovaParams {
    /// Maximum retained tokens.
    pub budget: usize,
}

impl Default for TovaParams {
    fn default() -> Self {
        TovaParams { budget: 512 }
    }
}

/// Hyper-parameters of [`Retention::PrefillVote`] (SnapKV, and PyramidKV
/// with a per-layer budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapKvParams {
    /// Prompt KV budget retained after prefill compression (excluding the
    /// observation window, which is always kept).
    pub budget: usize,
    /// Number of trailing prompt queries whose attention votes for
    /// importance (paper: 16–64).
    pub obs_window: usize,
    /// 1-D max-pool kernel for clustering votes (paper: 5–7, odd).
    pub kernel: usize,
}

impl Default for SnapKvParams {
    fn default() -> Self {
        SnapKvParams {
            budget: 448,
            obs_window: 32,
            kernel: 5,
        }
    }
}

/// Hyper-parameters of [`Retention::ChannelPrune`] (ThinK).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThinkParams {
    /// Fraction of key channels retained (paper evaluates ~0.4–0.8,
    /// reporting 1.25x memory reduction at 0.8).
    pub keep_ratio: f32,
}

impl Default for ThinkParams {
    fn default() -> Self {
        ThinkParams { keep_ratio: 0.6 }
    }
}

/// Hyper-parameters of [`Retention::PageSelect`] (Quest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuestParams {
    /// Tokens per page.
    pub page_size: usize,
    /// Pages selected per query (the attended budget is
    /// `top_k_pages * page_size`).
    pub top_k_pages: usize,
}

impl Default for QuestParams {
    fn default() -> Self {
        QuestParams {
            page_size: 16,
            top_k_pages: 32,
        }
    }
}

impl QuestParams {
    /// Attended token budget per query (saturating).
    pub fn budget(&self) -> usize {
        self.page_size.saturating_mul(self.top_k_pages)
    }
}

rkvc_tensor::json_struct!(StreamingParams { sinks, recent });
rkvc_tensor::json_struct!(H2OParams { heavy, recent });
rkvc_tensor::json_struct!(TovaParams { budget });
rkvc_tensor::json_struct!(SnapKvParams { budget, obs_window, kernel });
rkvc_tensor::json_struct!(ThinkParams { keep_ratio });
rkvc_tensor::json_struct!(QuestParams { page_size, top_k_pages });

/// Which rows of a [`DenseCache`] stay, and when the others leave.
///
/// # Examples
///
/// ```
/// use rkvc_kvcache::{DenseCache, KvCache, Retention};
/// use rkvc_kvcache::{H2OParams, QuestParams, SnapKvParams, StreamingParams, ThinkParams, TovaParams};
///
/// let mut fp16 = DenseCache::new(4, Retention::KeepAll)?;
/// fp16.append(&[1.0, 2.0, 3.0, 4.0], &[0.5; 4], 0);
/// assert_eq!(fp16.len(), 1);
/// assert_eq!(fp16.memory_bytes(), 2 * 4 * 2); // K+V, 4 dims, 2 bytes each
///
/// // A prompt of `n` tokens, every query attending uniformly.
/// let prefill = |rule, hd: usize, n: usize| {
///     let mut cache = DenseCache::new(hd, rule)?;
///     for pos in 0..n {
///         cache.append(&vec![pos as f32 * 0.1; hd], &vec![1.0; hd], pos);
///         let len = cache.len();
///         cache.observe_attention(&vec![1.0 / len as f32; len]);
///     }
///     cache.finish_prefill();
///     Ok::<_, rkvc_kvcache::CacheError>(cache)
/// };
///
/// let stream = prefill(Retention::SinkWindow(StreamingParams { sinks: 2, recent: 4 }), 4, 10)?;
/// assert_eq!(stream.view().positions, vec![0, 1, 6, 7, 8, 9]);
/// let h2o = prefill(Retention::HeavyHitters(H2OParams { heavy: 2, recent: 6 }), 4, 20)?;
/// assert_eq!(h2o.len(), 8); // Capped at heavy + recent.
/// assert!(prefill(Retention::LeastAttended(TovaParams { budget: 8 }), 4, 20)?.len() <= 8);
/// let snap = SnapKvParams { budget: 4, obs_window: 2, kernel: 3 };
/// assert!(prefill(Retention::PrefillVote(snap), 2, 16)?.len() <= 4 + 2); // budget + observation window
/// let think = prefill(Retention::ChannelPrune(ThinkParams { keep_ratio: 0.5 }), 8, 16)?;
/// assert_eq!(think.len(), 16);            // No tokens dropped...
/// assert_eq!(think.pruned_channels(), 4); // ...half the key channels are.
/// let quest = prefill(Retention::PageSelect(QuestParams { page_size: 4, top_k_pages: 2 }), 4, 32)?;
/// assert_eq!(quest.view().len(), 32); // The full view retains everything...
/// // ...while a query sees at most budget + the in-flight page.
/// assert!(quest.view_for_query(&[1.0; 4]).len() <= 2 * 4 + 4);
/// # Ok::<(), rkvc_kvcache::CacheError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Retention {
    /// The paper's FP16 baseline: nothing is ever evicted, and the store's
    /// binary16 rounding is exactly the precision of a production FP16
    /// cache.
    KeepAll,
    /// StreamingLLM (Xiao et al., 2023): keep the first `sinks` tokens (the
    /// *attention sinks*, which soak up softmax mass) plus a sliding window
    /// of the most recent `recent` tokens, evicting everything in between.
    /// It needs no attention scores at all — the structured pattern the
    /// paper credits for its near-baseline prefill throughput.
    SinkWindow(StreamingParams),
    /// H2O, the Heavy-Hitter Oracle (Zhang et al., 2024): attention mass
    /// concentrates on a small set of tokens. The most recent `recent`
    /// tokens are always retained, and among older tokens the ones with the
    /// highest *accumulated attention score* survive. Scores are refreshed
    /// from every attention computation — the extra score pass the paper
    /// identifies as incompatible with one-pass FlashAttention.
    HeavyHitters(H2OParams),
    /// TOVA, Token Omission Via Attention (Oren et al., 2024): the paper's
    /// survey (Table 1) lists it as the policy that makes even *recent*
    /// tokens evictable. At every step the token with the lowest attention
    /// weight from the **current** query is dropped — no accumulated score,
    /// no protected window. An extension algorithm for the ablations.
    LeastAttended(TovaParams),
    /// SnapKV (Li et al., 2024): compress the *prompt* once, at the end of
    /// prefill. The attention patterns of the last `obs_window` prompt
    /// queries vote for important prompt positions; votes are smoothed with
    /// a 1-D max-pool (clustering) and the top `budget` positions are
    /// retained alongside the observation window itself. Decode-time tokens
    /// are appended without eviction. The appendix (Figure 9) measures its
    /// throughput profile. PyramidKV (Zhang et al., 2024) is this rule with
    /// a budget that declines with depth
    /// ([`PyramidKvParams`](crate::PyramidKvParams)).
    PrefillVote(SnapKvParams),
    /// ThinK (Xu et al., 2024), the survey's only *channel-level* policy
    /// (§3.1.2): instead of dropping tokens, prune the least important
    /// **key channels**, a constant memory reduction whatever the sequence
    /// length. Channels are ranked by their magnitude over the prompt (a
    /// simplification of the paper's query-driven criterion) and pruned at
    /// the end of prefill; pruned channels read back as zero.
    ChannelPrune(ThinkParams),
    /// Quest (Tang et al., 2024), §4.4's remedy for compression's task-type
    /// fragility: instead of *discarding* KV entries ahead of time, keep
    /// everything and select, **per query**, the KV pages most relevant to
    /// it. Each page carries element-wise min/max summaries of its keys; a
    /// page's relevance bound for query `q` is
    /// `sum_d max(q_d * min_d, q_d * max_d)` — an upper bound on any
    /// `q . k` inside the page — and attention runs over the top-k pages
    /// only. Memory is *not* reduced (everything is retained plus the
    /// summaries); the savings are attention traffic and compute, and no
    /// information is ever lost, so negative samples largely disappear.
    PageSelect(QuestParams),
}

/// Ascending score order for the `min_by` evictions; incomparable pairs
/// (NaN) tie, as in [`top_k`].
fn cmp_f32(a: f32, b: f32) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

/// Element-wise min/max key summary of one `PageSelect` page.
#[derive(Debug, Clone)]
struct PageSummary {
    min: Vec<f32>,
    max: Vec<f32>,
}

/// The dense KV cache: full-width FP16-rounded rows, retained or evicted
/// by a [`Retention`] rule (which carries the examples).
///
/// The rows live in a row window whose logical order is a `head` segment
/// then a FIFO `ring`. `SinkWindow` keeps the sinks in the head and the
/// recent rows in the ring, so an eviction pops the ring's front.
/// `HeavyHitters` keeps the recent window in the ring and moves each row
/// leaving it to the end of the head, which is then exactly the eviction
/// scope. Every other rule keeps all its rows in the head.
#[derive(Debug, Clone)]
pub struct DenseCache {
    rule: Retention,
    /// The retained rows, with their positions and (`HeavyHitters`)
    /// accumulated attention scores.
    rows: RowWindow,
    /// `PrefillVote`: attention vectors of the most recent `obs_window`
    /// queries (only tracked until prefill finishes).
    observations: VecDeque<Vec<f32>>,
    /// `PrefillVote`: whether prefill compression has run.
    prefill_done: bool,
    /// `ChannelPrune`: key channels zeroed after prefill (sorted).
    pruned: Vec<usize>,
    /// `PageSelect`: one summary per complete page.
    summaries: Vec<PageSummary>,
}

impl DenseCache {
    /// Creates an empty cache for `head_dim`-dimensional heads under
    /// `rule`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidParameter`] if a budget, window or page
    /// dimension of the rule is zero (`SinkWindow`/`HeavyHitters`: if both
    /// parts are) or overflows `usize` in the arithmetic done on it later,
    /// if the `PrefillVote` kernel is even, or unless `0 < keep_ratio <= 1`.
    pub fn new(head_dim: usize, rule: Retention) -> Result<Self, CacheError> {
        let check = |ok: bool, msg| ok.then_some(()).ok_or(CacheError::InvalidParameter(msg));
        match rule {
            Retention::KeepAll => Ok(()),
            Retention::SinkWindow(p) => {
                check(p.sinks.checked_add(p.recent).is_some(), "sinks + recent overflows usize")?;
                check(p.budget() >= 1, "sinks + recent must be >= 1")
            }
            Retention::HeavyHitters(p) => {
                check(p.heavy.checked_add(p.recent).is_some(), "heavy + recent overflows usize")?;
                check(p.budget() >= 1, "heavy + recent must be >= 1")
            }
            Retention::LeastAttended(p) => {
                check(p.budget >= 1, "budget must be >= 1")?;
                // One row over budget is held between an append and its query.
                check(p.budget.checked_add(1).is_some(), "budget + 1 overflows usize")
            }
            Retention::PrefillVote(p) => {
                check(p.budget >= 1, "budget must be >= 1")?;
                check(p.obs_window >= 1, "obs_window must be >= 1")?;
                check(p.kernel % 2 == 1, "kernel must be odd and >= 1")
            }
            Retention::ChannelPrune(p) => {
                check(p.keep_ratio > 0.0 && p.keep_ratio <= 1.0, "keep_ratio must be in (0, 1]")
            }
            Retention::PageSelect(p) => {
                check(p.page_size >= 1, "page_size must be >= 1")?;
                check(p.top_k_pages >= 1, "top_k_pages must be >= 1")?;
                let fits = p.page_size.checked_mul(p.top_k_pages).is_some();
                check(fits, "page_size * top_k_pages overflows usize")
            }
        }?;
        Ok(DenseCache {
            rule,
            rows: RowWindow::new(head_dim),
            observations: VecDeque::new(),
            prefill_done: false,
            pruned: Vec::new(),
            summaries: Vec::new(),
        })
    }

    /// `HeavyHitters`: accumulated attention score of retained token `i`
    /// (view order).
    pub fn score(&self, i: usize) -> f32 {
        self.rows.score(i)
    }

    /// `PrefillVote`: whether prefill compression has run.
    pub fn is_compressed(&self) -> bool {
        self.prefill_done
    }

    /// `ChannelPrune`: number of key channels pruned (0 before prefill
    /// compression).
    pub fn pruned_channels(&self) -> usize {
        self.pruned.len()
    }

    /// `PageSelect`: number of complete pages summarized so far.
    pub fn page_count(&self) -> usize {
        self.summaries.len()
    }

    fn head_dim(&self) -> usize {
        self.rows.head_dim()
    }

    /// `PrefillVote`: aggregated, max-pooled vote scores over the current
    /// prompt positions.
    fn pooled_votes(&self, kernel: usize) -> Vec<f32> {
        let n = self.rows.len();
        let mut votes = vec![0.0f32; n];
        for obs in &self.observations {
            for (i, w) in obs.iter().enumerate().take(n) {
                votes[i] += w;
            }
        }
        // 1-D max pooling clusters neighbouring importance.
        let half = kernel / 2;
        let mut pooled = vec![0.0f32; n];
        for i in 0..n {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            // rkvc-allow(D006): max-pooling is order-insensitive over the finite vote scores
            pooled[i] = votes[lo..hi].iter().copied().fold(0.0, f32::max);
        }
        pooled
    }

    /// `PrefillVote`: keeps the top-`budget` prompt positions by pooled
    /// vote plus the observation window.
    fn compress_prompt(&mut self, p: SnapKvParams) {
        if self.prefill_done {
            return;
        }
        self.prefill_done = true;
        let n = self.rows.len();
        let prefix = n - p.obs_window.min(n);
        if prefix <= p.budget {
            return; // Nothing to compress.
        }
        let mut selected = top_k(&self.pooled_votes(p.kernel)[..prefix], p.budget);
        selected.sort_unstable();
        selected.extend(prefix..n); // Observation window always kept.
        self.rows.select(&selected);
        self.observations.clear();
    }

    /// `ChannelPrune`: zeroes the lowest-energy key channels, once, at the
    /// first prefill that leaves something to prune.
    fn prune_channels(&mut self, p: ThinkParams) {
        let (hd, n) = (self.head_dim(), self.rows.len());
        if !self.pruned.is_empty() || n == 0 {
            return;
        }
        let keep = ((hd as f32 * p.keep_ratio).round() as usize).clamp(1, hd);
        if keep == hd {
            return;
        }
        // Channel importance: mean |k| over the prompt (magnitude criterion;
        // the paper's query-driven score needs the incoming queries, which a
        // cache-local policy approximates by key energy).
        let importance: Vec<f32> = (0..hd)
            .map(|c| (0..n).map(|r| self.rows.key(r, c).abs()).sum())
            .collect();
        self.pruned = top_k(&importance, hd).split_off(keep);
        self.pruned.sort_unstable();
        for r in 0..n {
            for &c in &self.pruned {
                self.rows.set_key(r, c, 0.0);
            }
        }
    }

    /// `PageSelect`: summarizes the page the latest append completed.
    fn summarize_last_page(&mut self, page_size: usize) {
        let n = self.rows.len();
        let start = n - page_size;
        let mut min: Vec<f32> = (0..self.head_dim()).map(|d| self.rows.key(start, d)).collect();
        let mut max = min.clone();
        for r in start + 1..n {
            for (d, (lo, hi)) in min.iter_mut().zip(&mut max).enumerate() {
                let x = self.rows.key(r, d);
                *lo = lo.min(x);
                *hi = hi.max(x);
            }
        }
        self.summaries.push(PageSummary { min, max });
    }

    /// `PageSelect`: upper bound on `q . k` for any key in page `page`.
    fn page_bound(&self, page: usize, query: &[f32]) -> f32 {
        let s = &self.summaries[page];
        let bounds = query.iter().zip(s.min.iter().zip(&s.max));
        bounds.map(|(&q, (&lo, &hi))| (q * lo).max(q * hi)).sum()
    }

    /// The rows `query` attends, as ascending ranges: everything, except
    /// under `PageSelect` — its `top_k_pages` best complete pages, in
    /// sequence order, and the in-flight tail page.
    fn attended_rows(&self, query: &[f32]) -> Vec<Range<usize>> {
        assert_eq!(query.len(), self.head_dim(), "query dim mismatch");
        let n = self.rows.len();
        let full_pages = self.summaries.len();
        let p = match self.rule {
            Retention::PageSelect(p) if full_pages > p.top_k_pages => p,
            _ => return vec![0..n],
        };
        let bounds: Vec<f32> = (0..full_pages).map(|page| self.page_bound(page, query)).collect();
        let mut selected = top_k(&bounds, p.top_k_pages);
        selected.sort_unstable();
        let mut rows: Vec<Range<usize>> =
            selected.into_iter().map(|page| page * p.page_size..(page + 1) * p.page_size).collect();
        // The in-flight (unsummarized) tail page is always attended.
        rows.push(full_pages * p.page_size..n);
        rows
    }
}

impl BlockRows for DenseCache {
    fn quiet_appends(&self) -> usize {
        match self.rule {
            Retention::KeepAll | Retention::ChannelPrune(_) => DENSE_BLOCK_TOKENS - 1,
            // An FP16 cache until the budget is full; from then on every
            // append evicts, so blocks shrink to one token.
            Retention::SinkWindow(p) => {
                p.budget().saturating_sub(self.rows.len()).min(DENSE_BLOCK_TOKENS - 1)
            }
            // Not on the blocked driver (see `extend_attend`).
            _ => 0,
        }
    }

    fn window(&self) -> &RowWindow {
        &self.rows
    }
}

impl KvCache for DenseCache {
    fn append(&mut self, key: &[f32], value: &[f32], pos: usize) {
        assert_eq!(key.len(), self.head_dim(), "key dim mismatch");
        assert_eq!(value.len(), self.head_dim(), "value dim mismatch");
        match self.rule {
            Retention::SinkWindow(p) => {
                if self.rows.head_len() < p.sinks {
                    self.rows.append_head(key, value, pos);
                } else {
                    self.rows.append_ring(key, value, pos);
                    if self.rows.ring_len() > p.recent {
                        // Evict the oldest token that is not a sink.
                        self.rows.pop_ring_front();
                    }
                }
            }
            Retention::HeavyHitters(p) => {
                self.rows.append_ring(key, value, pos);
                if self.rows.ring_len() > p.recent {
                    self.rows.graduate();
                }
                if self.rows.len() > p.budget() {
                    // Eviction scope: everything outside the recent window,
                    // which is the head. The recent window is full by now
                    // (`len > heavy + recent`), so the scope is never empty.
                    let scope = 0..self.rows.head_len();
                    let candidate = scope
                        .min_by(|&a, &b| cmp_f32(self.rows.score(a), self.rows.score(b)))
                        .unwrap_or(0);
                    self.rows.remove(candidate);
                }
            }
            _ => self.rows.append_head(key, value, pos),
        }
        match self.rule {
            Retention::LeastAttended(p) => {
                // If no attention feedback arrives before the next append (a
                // caller that never observes), fall back to dropping the
                // oldest.
                while self.rows.len() > p.budget + 1 {
                    self.rows.remove(0);
                }
            }
            Retention::ChannelPrune(_) => {
                // Channels pruned at prefill stay pruned for decode appends —
                // the policy's constant-width storage.
                let last = self.rows.len() - 1;
                for &c in &self.pruned {
                    self.rows.set_key(last, c, 0.0);
                }
            }
            Retention::PageSelect(p) => {
                if self.rows.len() % p.page_size == 0 {
                    self.summarize_last_page(p.page_size);
                }
            }
            _ => {}
        }
    }

    fn view(&self) -> KvView {
        self.rows.view()
    }

    fn view_for_query(&self, query: &[f32]) -> KvView {
        self.rows.gather(&self.attended_rows(query))
    }

    fn observe_attention(&mut self, weights: &[f32]) {
        match self.rule {
            Retention::HeavyHitters(_) => {
                // Accumulate scores for the rows the weights refer to (the
                // current view, oldest first). Tolerate a shorter weight
                // vector from causal masking.
                self.rows.accumulate_scores(weights);
            }
            Retention::LeastAttended(p) if self.rows.len() > p.budget => {
                // Evict the minimum-attention token once over budget —
                // current query only, everything (including the newest
                // token) evictable.
                let n = weights.len().min(self.rows.len());
                if let Some(min_idx) = (0..n).min_by(|&a, &b| cmp_f32(weights[a], weights[b])) {
                    self.rows.remove(min_idx);
                }
            }
            // SnapKV only votes during prefill.
            Retention::PrefillVote(p) if !self.prefill_done => {
                // The window is a ring: once full, the vector retiring from
                // the front is refilled and becomes the newest entry.
                let mut obs = if self.observations.len() >= p.obs_window {
                    self.observations.pop_front().unwrap_or_default()
                } else {
                    Vec::new()
                };
                obs.clear();
                obs.extend_from_slice(weights);
                self.observations.push_back(obs);
            }
            _ => {}
        }
    }

    fn attend(
        &mut self,
        query: &[f32],
        scale: f32,
        scores: &mut Vec<f32>,
        weights: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), self.head_dim(), "output dim mismatch");
        let rows = self.attended_rows(query);
        self.rows.attend(&rows, query, scale, scores, weights, out);
        self.observe_attention(weights);
    }

    fn extend_attend(&mut self, batch: &AttendBatch<'_>, scratch: &mut AttendScratch, out: &mut [f32]) {
        match self.rule {
            // Whole query blocks at once, only under the rules no query
            // can steer: their retained past moves on appends alone.
            Retention::KeepAll | Retention::SinkWindow(_) | Retention::ChannelPrune(_) => {
                extend_attend_blocked(self, batch, scratch, out)
            }
            // Accumulated scores, current-query eviction, the vote ring and
            // per-query page selection change with every query, so these
            // rules run each one — a query nobody reads included.
            _ => extend_attend_per_token(self, batch, scratch, out),
        }
    }

    fn finish_prefill(&mut self) {
        match self.rule {
            Retention::PrefillVote(p) => self.compress_prompt(p),
            Retention::ChannelPrune(p) => self.prune_channels(p),
            _ => {}
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn seen(&self) -> usize {
        self.rows.seen()
    }

    fn memory_bytes(&self) -> usize {
        let (rows, hd) = (self.rows.len(), self.head_dim());
        // K + V at 2 bytes per element.
        let fp16 = 2 * rows * hd * 2;
        match self.rule {
            // Plus an FP16 accumulated score per retained token.
            Retention::HeavyHitters(_) => fp16 + rows * 2,
            // Keys store only the kept channels; values stay full width.
            Retention::ChannelPrune(_) => rows * (2 * hd - self.pruned.len()) * 2,
            // Plus two FP16 summary vectors per page.
            Retention::PageSelect(_) => fp16 + self.summaries.len() * 2 * hd * 2,
            _ => fp16,
        }
    }

    fn stats(&self) -> CacheStats {
        let seen = self.seen();
        CacheStats {
            tokens_seen: seen,
            tokens_retained: self.len(),
            tokens_evicted: seen - self.len(),
            memory_bytes: self.memory_bytes(),
            resident_bytes: self.resident_bytes(),
            fp16_baseline_bytes: 2 * seen * self.head_dim() * 2,
            mean_quant_error: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    //! One submodule per policy, named as `CompressionConfig` names it
    //! (`full` is `Fp16`).
    use super::*;

    fn cache(hd: usize, rule: Retention) -> DenseCache {
        DenseCache::new(hd, rule).unwrap()
    }

    fn uniform_observe(c: &mut DenseCache) {
        let n = c.len();
        c.observe_attention(&vec![1.0 / n as f32; n]);
    }

    /// `c` after appending zero rows at `positions`, each followed by a
    /// uniform attention observation when `observe` is set.
    fn fill(mut c: DenseCache, positions: std::ops::Range<usize>, observe: bool) -> DenseCache {
        let zeros = vec![0.0; c.head_dim()];
        for pos in positions {
            c.append(&zeros, &zeros, pos);
            if observe {
                uniform_observe(&mut c);
            }
        }
        c
    }

    mod full {
        use super::*;

        #[test]
        fn stores_and_returns_all_tokens() {
            let mut c = cache(2, Retention::KeepAll);
            for pos in 0..5 {
                c.append(&[pos as f32, 0.0], &[0.0, pos as f32], pos);
            }
            let v = c.view();
            assert_eq!(v.len(), 5);
            assert_eq!(v.positions, vec![0, 1, 2, 3, 4]);
            assert_eq!(v.keys.get(3, 0), 3.0);
            assert_eq!(v.values.get(4, 1), 4.0);
        }

        #[test]
        fn values_are_f16_rounded() {
            let mut c = cache(1, Retention::KeepAll);
            let x = 0.1f32; // Not representable in f16.
            c.append(&[x], &[x], 0);
            let stored = c.view().keys.get(0, 0);
            assert_ne!(stored, x);
            assert!((stored - x).abs() < 1e-4);
        }

        #[test]
        fn compression_ratio_is_one() {
            let c = fill(cache(8, Retention::KeepAll), 0..1, false);
            assert_eq!(c.stats().compression_ratio(), 1.0);
        }

        #[test]
        #[should_panic(expected = "key dim mismatch")]
        fn rejects_wrong_dim() {
            cache(4, Retention::KeepAll).append(&[0.0; 3], &[0.0; 4], 0);
        }
    }

    mod streaming {
        use super::*;

        fn stream(hd: usize, sinks: usize, recent: usize) -> DenseCache {
            cache(hd, Retention::SinkWindow(StreamingParams { sinks, recent }))
        }

        #[test]
        fn keeps_sinks_and_recent_only() {
            let c = fill(stream(2, 3, 2), 0..12, false);
            assert_eq!(c.view().positions, vec![0, 1, 2, 10, 11]);
            assert_eq!(c.stats().tokens_evicted, 7);
        }

        #[test]
        fn under_budget_keeps_everything() {
            let c = fill(stream(2, 4, 4), 0..6, false);
            assert_eq!(c.view().positions, (0..6).collect::<Vec<_>>());
        }

        #[test]
        fn zero_sinks_is_pure_sliding_window() {
            let c = fill(stream(2, 0, 3), 0..10, false);
            assert_eq!(c.view().positions, vec![7, 8, 9]);
        }

        #[test]
        fn memory_bounded_by_budget() {
            let c = fill(stream(8, 2, 6), 0..500, false);
            assert_eq!(c.memory_bytes(), 2 * 8 * 8 * 2);
            assert!(c.stats().compression_ratio() > 50.0);
        }

        #[test]
        fn attention_observations_ignored() {
            let mut c = fill(stream(2, 1, 2), 0..1, false);
            c.observe_attention(&[1.0]);
            assert_eq!(c.len(), 1);
        }

        #[test]
        fn zero_budget_rejected() {
            let rule = Retention::SinkWindow(StreamingParams { sinks: 0, recent: 0 });
            assert!(DenseCache::new(2, rule).is_err());
        }
    }

    mod h2o {
        use super::*;

        fn h2o(hd: usize, heavy: usize, recent: usize) -> DenseCache {
            cache(hd, Retention::HeavyHitters(H2OParams { heavy, recent }))
        }

        #[test]
        fn respects_budget() {
            let c = fill(h2o(2, 2, 3), 0..50, true);
            assert_eq!(c.len(), 5);
            assert_eq!(c.seen(), 50);
            assert_eq!(c.stats().tokens_evicted, 45);
        }

        #[test]
        fn recent_window_always_survives() {
            let c = fill(h2o(2, 1, 4), 0..30, true);
            let v = c.view();
            // The last 4 positions must be present.
            for want in 26..30 {
                assert!(v.positions.contains(&want), "missing recent pos {want}");
            }
        }

        #[test]
        fn heavy_hitters_survive_by_score() {
            let mut c = h2o(2, 1, 2);
            // Token 0 gets huge attention mass; it should survive as the heavy
            // hitter even when old.
            for pos in 0..20 {
                c.append(&[0.0; 2], &[0.0; 2], pos);
                let mut w = vec![0.01; c.len()];
                if let Some(idx) = c.view().positions.iter().position(|&p| p == 0) {
                    w[idx] = 1.0;
                }
                c.observe_attention(&w);
            }
            assert!(c.view().positions.contains(&0), "heavy hitter evicted: {:?}", c.view().positions);
        }

        #[test]
        fn low_score_old_tokens_evicted_first() {
            let mut c = h2o(2, 2, 2);
            for pos in 0..10 {
                c.append(&[0.0; 2], &[0.0; 2], pos);
                // Later positions get higher scores.
                let w: Vec<f32> = c.view().positions.iter().map(|&p| p as f32).collect();
                debug_assert_eq!(w.len(), c.len());
                c.observe_attention(&w);
            }
            let pos = c.view().positions;
            // Positions 0 and 1 (lowest accumulated scores) should be gone.
            assert!(!pos.contains(&0));
            assert!(!pos.contains(&1));
        }

        #[test]
        fn view_order_is_append_order() {
            let mut c = h2o(2, 3, 3);
            for pos in 0..6 {
                c.append(&[pos as f32; 2], &[0.0; 2], pos);
                uniform_observe(&mut c);
            }
            let v = c.view();
            let mut sorted = v.positions.clone();
            sorted.sort_unstable();
            assert_eq!(v.positions, sorted);
        }

        #[test]
        fn zero_budget_rejected() {
            let rule = Retention::HeavyHitters(H2OParams { heavy: 0, recent: 0 });
            assert!(DenseCache::new(2, rule).is_err());
        }

        #[test]
        fn memory_stays_bounded() {
            let c = fill(h2o(4, 4, 4), 0..100, true);
            let cap = 2 * 8 * 4 * 2 + 8 * 2;
            assert!(c.memory_bytes() <= cap);
            assert!(c.stats().compression_ratio() > 10.0);
        }
    }

    mod tova {
        use super::*;

        fn tova(budget: usize) -> DenseCache {
            cache(2, Retention::LeastAttended(TovaParams { budget }))
        }

        #[test]
        fn respects_budget_with_observation() {
            let c = fill(tova(4), 0..20, true);
            assert_eq!(c.len(), 4);
            assert_eq!(c.stats().tokens_evicted, 16);
        }

        #[test]
        fn evicts_the_least_attended_token() {
            let mut c = tova(3);
            for pos in 0..4 {
                c.append(&[pos as f32; 2], &[0.0; 2], pos);
            }
            // Position 2 gets the lowest attention: it must be evicted.
            c.observe_attention(&[0.3, 0.3, 0.05, 0.35]);
            assert_eq!(c.view().positions, vec![0, 1, 3]);
        }

        #[test]
        fn recent_tokens_are_evictable() {
            // Unlike H2O/StreamingLLM, the newest token can be dropped.
            let mut c = fill(tova(3), 0..4, false);
            c.observe_attention(&[0.4, 0.3, 0.29, 0.01]);
            assert_eq!(c.view().positions, vec![0, 1, 2]);
        }

        #[test]
        fn survives_without_observations() {
            let c = fill(tova(4), 0..20, false);
            assert!(c.len() <= 5);
        }

        #[test]
        fn zero_budget_rejected() {
            assert!(DenseCache::new(2, Retention::LeastAttended(TovaParams { budget: 0 })).is_err());
        }
    }

    mod snapkv {
        use super::*;

        fn snap(budget: usize, obs_window: usize, kernel: usize) -> DenseCache {
            cache(2, Retention::PrefillVote(SnapKvParams { budget, obs_window, kernel }))
        }

        /// Appends positions `0..n`, every query voting only for position
        /// `target`.
        fn fill_voting_for(c: &mut DenseCache, n: usize, target: usize) {
            for pos in 0..n {
                c.append(&[0.0; 2], &[0.0; 2], pos);
                let mut w = vec![0.0; c.len()];
                if c.len() > target {
                    w[target] = 1.0;
                }
                c.observe_attention(&w);
            }
        }

        #[test]
        fn compresses_only_at_prefill_end() {
            let mut c = fill(snap(3, 2, 3), 0..12, true);
            assert_eq!(c.len(), 12); // No compression yet.
            c.finish_prefill();
            assert_eq!(c.len(), 3 + 2);
            assert!(c.is_compressed());
        }

        #[test]
        fn decode_tokens_never_evicted() {
            let mut c = fill(snap(2, 2, 3), 0..10, true);
            c.finish_prefill();
            let after_prefill = c.len();
            c = fill(c, 10..20, false);
            assert_eq!(c.len(), after_prefill + 10);
        }

        #[test]
        fn heavily_attended_positions_survive() {
            let mut c = snap(2, 2, 1);
            // All queries vote hard for position 3.
            fill_voting_for(&mut c, 10, 3);
            c.finish_prefill();
            assert!(c.view().positions.contains(&3), "{:?}", c.view().positions);
        }

        #[test]
        fn observation_window_always_kept() {
            let mut c = fill(snap(1, 3, 3), 0..9, true);
            c.finish_prefill();
            let v = c.view();
            for want in 6..9 {
                assert!(v.positions.contains(&want));
            }
        }

        #[test]
        fn short_prompts_untouched() {
            let mut c = fill(snap(8, 4, 3), 0..6, true);
            c.finish_prefill();
            assert_eq!(c.len(), 6);
            assert_eq!(c.stats().tokens_evicted, 0);
        }

        #[test]
        fn kernel_clusters_neighbours() {
            // With a kernel of 3, a single high vote should drag in neighbours
            // via max pooling, so the selection is a contiguous cluster.
            let mut c = snap(3, 1, 3);
            fill_voting_for(&mut c, 12, 5);
            c.finish_prefill();
            let v = c.view();
            assert!(v.positions.contains(&4));
            assert!(v.positions.contains(&5));
            assert!(v.positions.contains(&6));
        }

        #[test]
        fn rejects_bad_params() {
            for (budget, obs_window, kernel) in [(0, 2, 3), (2, 0, 3), (2, 2, 4)] {
                let rule = Retention::PrefillVote(SnapKvParams { budget, obs_window, kernel });
                assert!(DenseCache::new(2, rule).is_err());
            }
        }
    }

    mod think {
        use super::*;
        use rkvc_tensor::seeded_rng;

        fn filled(keep: f32, n: usize) -> DenseCache {
            let mut c = cache(8, Retention::ChannelPrune(ThinkParams { keep_ratio: keep }));
            let mut rng = seeded_rng(3);
            for pos in 0..n {
                let k: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                c.append(&k, &[0.5; 8], pos);
            }
            c.finish_prefill();
            c
        }

        #[test]
        fn prunes_the_configured_fraction() {
            let c = filled(0.5, 20);
            assert_eq!(c.pruned_channels(), 4);
            assert_eq!(c.len(), 20);
        }

        #[test]
        fn pruned_channels_read_zero_everywhere() {
            let mut c = filled(0.5, 20);
            c.append(&[1.0; 8], &[1.0; 8], 20); // Decode append after pruning.
            let v = c.view();
            let zero_cols = (0..8)
                .filter(|&col| (0..v.keys.rows()).all(|r| v.keys.get(r, col) == 0.0))
                .count();
            assert_eq!(zero_cols, 4);
        }

        #[test]
        fn keeps_high_energy_channels() {
            let mut c = cache(4, Retention::ChannelPrune(ThinkParams { keep_ratio: 0.5 }));
            for pos in 0..10 {
                // Channels 1 and 3 dominate.
                c.append(&[0.01, 2.0, 0.02, 3.0], &[0.0; 4], pos);
            }
            c.finish_prefill();
            let v = c.view();
            assert_ne!(v.keys.get(0, 1), 0.0);
            assert_ne!(v.keys.get(0, 3), 0.0);
            assert_eq!(v.keys.get(0, 0), 0.0);
            assert_eq!(v.keys.get(0, 2), 0.0);
        }

        #[test]
        fn memory_reduction_is_length_independent() {
            let ratio_short = filled(0.5, 10).stats().compression_ratio();
            let ratio_long = filled(0.5, 100).stats().compression_ratio();
            assert!((ratio_short - ratio_long).abs() < 1e-9);
            // K halved, V full: 1.5/2 of fp16 -> ratio 4/3.
            assert!((ratio_short - 4.0 / 3.0).abs() < 1e-9, "{ratio_short}");
        }

        #[test]
        fn keep_ratio_one_is_lossless() {
            let c = filled(1.0, 12);
            assert_eq!(c.pruned_channels(), 0);
            assert_eq!(c.stats().compression_ratio(), 1.0);
        }

        #[test]
        fn invalid_ratio_rejected() {
            for keep_ratio in [0.0, 1.5] {
                assert!(DenseCache::new(4, Retention::ChannelPrune(ThinkParams { keep_ratio })).is_err());
            }
        }
    }

    mod quest {
        use super::*;

        fn small() -> DenseCache {
            cache(2, Retention::PageSelect(QuestParams { page_size: 4, top_k_pages: 2 }))
        }

        #[test]
        fn retains_everything() {
            let c = fill(small(), 0..40, false);
            assert_eq!(c.len(), 40);
            assert_eq!(c.stats().tokens_evicted, 0);
            assert_eq!(c.page_count(), 10);
        }

        #[test]
        fn query_selects_relevant_pages() {
            let mut c = small();
            // Pages 0-4: keys pointing in -x; page 5: keys pointing in +x.
            for pos in 0..20 {
                c.append(&[-1.0, 0.0], &[0.0; 2], pos);
            }
            for pos in 20..24 {
                c.append(&[1.0, 0.0], &[0.0; 2], pos);
            }
            let view = c.view_for_query(&[1.0, 0.0]);
            // The +x page must be selected for a +x query.
            assert!(view.positions.contains(&20), "{:?}", view.positions);
            assert!(view.len() <= 2 * 4);
        }

        #[test]
        fn bound_is_an_upper_bound_on_dot_products() {
            let mut c = small();
            for pos in 0..16 {
                let x = (pos as f32 * 0.7).sin();
                c.append(&[x, -x], &[0.0; 2], pos);
            }
            let q = [0.3f32, 0.9];
            let keys = c.view().keys;
            for page in 0..c.page_count() {
                let bound = c.page_bound(page, &q);
                for r in page * 4..(page + 1) * 4 {
                    let dot: f32 = keys.row(r).iter().zip(&q).map(|(a, b)| a * b).sum();
                    assert!(dot <= bound + 1e-5, "page {page} row {r}: {dot} > {bound}");
                }
            }
        }

        #[test]
        fn small_caches_return_full_view() {
            let c = fill(small(), 0..8, false);
            assert_eq!(c.view_for_query(&[1.0, 0.0]).len(), 8);
        }

        #[test]
        fn tail_page_always_attended() {
            let mut c = small();
            for pos in 0..26 {
                c.append(&[-1.0, 0.0], &[0.0; 2], pos);
            }
            // Positions 24, 25 are in the unsummarized tail.
            let view = c.view_for_query(&[1.0, 0.0]);
            assert!(view.positions.contains(&24));
            assert!(view.positions.contains(&25));
        }

        #[test]
        fn memory_includes_summaries() {
            let c = fill(small(), 0..8, false);
            let fp16 = 2 * 8 * 2 * 2;
            assert_eq!(c.memory_bytes(), fp16 + 2 * 2 * 2 * 2);
            assert!(c.stats().compression_ratio() < 1.0); // Costs extra memory.
        }

        #[test]
        fn invalid_params_rejected() {
            for (page_size, top_k_pages) in [(0, 1), (4, 0)] {
                let rule = Retention::PageSelect(QuestParams { page_size, top_k_pages });
                assert!(DenseCache::new(2, rule).is_err());
            }
        }
    }
}
