//! Quest: query-aware sparsity (Tang et al., 2024).
//!
//! §4.4 of the paper points to Quest as the remedy for compression's
//! task-type fragility: instead of *discarding* KV entries ahead of time,
//! Quest keeps everything and selects, **per query**, the KV pages most
//! relevant to that query. Each page carries element-wise min/max summaries
//! of its keys; a page's relevance bound for query `q` is
//! `sum_d max(q_d * min_d, q_d * max_d)` — an upper bound on any `q . k`
//! inside the page. Attention then runs over the top-k pages only.
//!
//! Memory is *not* reduced (everything is retained plus the summaries);
//! the savings are attention traffic and compute — and crucially, no
//! information is ever lost, so negative samples largely disappear.

use rkvc_tensor::Matrix;

use crate::cache::push_f16_row;
use crate::{CacheError, CacheStats, KvCache, KvView};

/// Hyper-parameters for [`QuestCache`].
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
    /// Attended token budget per query.
    pub fn budget(&self) -> usize {
        self.page_size * self.top_k_pages
    }
}

/// Element-wise min/max key summary of one page.
#[derive(Debug, Clone)]
struct PageSummary {
    min: Vec<f32>,
    max: Vec<f32>,
}

/// The Quest query-aware selection cache.
///
/// # Examples
///
/// ```
/// use rkvc_kvcache::{KvCache, QuestCache, QuestParams};
///
/// let mut cache = QuestCache::new(4, QuestParams { page_size: 4, top_k_pages: 2 })?;
/// for pos in 0..32 {
///     cache.append(&[pos as f32 * 0.1; 4], &[1.0; 4], pos);
/// }
/// // Full view retains everything...
/// assert_eq!(cache.view().len(), 32);
/// // ...while a query sees at most budget + the in-flight page.
/// let q = [1.0; 4];
/// assert!(cache.view_for_query(&q).len() <= 2 * 4 + 4);
/// # Ok::<(), rkvc_kvcache::CacheError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QuestCache {
    head_dim: usize,
    params: QuestParams,
    keys: Matrix,
    values: Matrix,
    positions: Vec<usize>,
    summaries: Vec<PageSummary>,
    seen: usize,
}

impl QuestCache {
    /// Creates a Quest cache for `head_dim`-dimensional heads.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidParameter`] if `page_size` or
    /// `top_k_pages` is zero.
    pub fn new(head_dim: usize, params: QuestParams) -> Result<Self, CacheError> {
        if params.page_size == 0 {
            return Err(CacheError::InvalidParameter("page_size must be >= 1"));
        }
        if params.top_k_pages == 0 {
            return Err(CacheError::InvalidParameter("top_k_pages must be >= 1"));
        }
        Ok(QuestCache {
            head_dim,
            params,
            keys: Matrix::zeros(0, head_dim),
            values: Matrix::zeros(0, head_dim),
            positions: Vec::new(),
            summaries: Vec::new(),
            seen: 0,
        })
    }

    /// The configured hyper-parameters.
    pub fn params(&self) -> QuestParams {
        self.params
    }

    /// Number of complete pages summarized so far.
    pub fn page_count(&self) -> usize {
        self.summaries.len()
    }

    /// Upper bound on `q . k` for any key in page `page`.
    fn page_bound(&self, page: usize, query: &[f32]) -> f32 {
        let s = &self.summaries[page];
        query
            .iter()
            .zip(s.min.iter().zip(&s.max))
            .map(|(&q, (&lo, &hi))| (q * lo).max(q * hi))
            .sum()
    }
}

impl KvCache for QuestCache {
    fn append(&mut self, key: &[f32], value: &[f32], pos: usize) {
        assert_eq!(key.len(), self.head_dim, "key dim mismatch");
        assert_eq!(value.len(), self.head_dim, "value dim mismatch");
        push_f16_row(&mut self.keys, key);
        push_f16_row(&mut self.values, value);
        self.positions.push(pos);
        self.seen += 1;

        // Summarize each page as it completes.
        let n = self.positions.len();
        if n % self.params.page_size == 0 {
            let start = n - self.params.page_size;
            let mut min = self.keys.row(start).to_vec();
            let mut max = min.clone();
            for r in start + 1..n {
                for (d, &x) in self.keys.row(r).iter().enumerate() {
                    min[d] = min[d].min(x);
                    max[d] = max[d].max(x);
                }
            }
            self.summaries.push(PageSummary { min, max });
        }
    }

    fn view(&self) -> KvView {
        KvView {
            keys: self.keys.clone(),
            values: self.values.clone(),
            positions: self.positions.clone(),
        }
    }

    fn view_for_query(&self, query: &[f32]) -> KvView {
        assert_eq!(query.len(), self.head_dim, "query dim mismatch");
        let n = self.positions.len();
        let full_pages = self.summaries.len();
        if full_pages <= self.params.top_k_pages {
            return self.view();
        }

        // Rank complete pages by their relevance bound.
        let mut ranked: Vec<usize> = (0..full_pages).collect();
        ranked.sort_by(|&a, &b| {
            self.page_bound(b, query)
                .partial_cmp(&self.page_bound(a, query))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut selected: Vec<usize> = ranked
            .into_iter()
            .take(self.params.top_k_pages)
            .collect();
        selected.sort_unstable();

        let mut rows: Vec<usize> = Vec::with_capacity(self.params.budget() + self.params.page_size);
        for page in selected {
            let start = page * self.params.page_size;
            rows.extend(start..start + self.params.page_size);
        }
        // The in-flight (unsummarized) tail page is always attended.
        rows.extend(full_pages * self.params.page_size..n);

        KvView {
            keys: self.keys.select_rows(&rows),
            values: self.values.select_rows(&rows),
            positions: rows.iter().map(|&r| self.positions[r]).collect(),
        }
    }

    fn len(&self) -> usize {
        self.positions.len()
    }

    fn seen(&self) -> usize {
        self.seen
    }

    fn memory_bytes(&self) -> usize {
        // Full FP16 KV plus two FP16 summary vectors per page.
        2 * self.positions.len() * self.head_dim * 2
            + self.summaries.len() * 2 * self.head_dim * 2
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            tokens_seen: self.seen,
            tokens_retained: self.len(),
            tokens_evicted: 0,
            memory_bytes: self.memory_bytes(),
            resident_bytes: self.resident_bytes(),
            fp16_baseline_bytes: 2 * self.seen * self.head_dim * 2,
            mean_quant_error: 0.0,
        }
    }

    fn name(&self) -> String {
        format!("quest-{}", self.params.budget())
    }
}

rkvc_tensor::json_struct!(QuestParams { page_size, top_k_pages });

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> QuestCache {
        QuestCache::new(2, QuestParams { page_size: 4, top_k_pages: 2 }).unwrap()
    }

    #[test]
    fn retains_everything() {
        let mut c = small();
        for pos in 0..40 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
        }
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
        for page in 0..c.page_count() {
            let bound = c.page_bound(page, &q);
            for r in page * 4..(page + 1) * 4 {
                let dot: f32 = c.keys.row(r).iter().zip(&q).map(|(a, b)| a * b).sum();
                assert!(dot <= bound + 1e-5, "page {page} row {r}: {dot} > {bound}");
            }
        }
    }

    #[test]
    fn small_caches_return_full_view() {
        let mut c = small();
        for pos in 0..8 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
        }
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
        let mut c = small();
        for pos in 0..8 {
            c.append(&[0.0; 2], &[0.0; 2], pos);
        }
        let fp16 = 2 * 8 * 2 * 2;
        assert_eq!(c.memory_bytes(), fp16 + 2 * 2 * 2 * 2);
        assert!(c.stats().compression_ratio() < 1.0); // Costs extra memory.
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(QuestCache::new(2, QuestParams { page_size: 0, top_k_pages: 1 }).is_err());
        assert!(QuestCache::new(2, QuestParams { page_size: 4, top_k_pages: 0 }).is_err());
    }
}
