//! The FP16 row window both stores keep.
//!
//! [`DenseCache`](crate::DenseCache) keeps every retained row in one;
//! [`ChunkedCache`](crate::ChunkedCache) keeps the full-precision recent
//! rows in front of its compressed chunks in one. A row is a key, a value
//! and a sequence position, rounded through binary16 on the way in, plus
//! an accumulated attention score that travels with it (only H2O reads
//! it).
//!
//! **Layout.** Keys are stored transposed, in exactly
//! [`PackedMatrix`](rkvc_tensor::PackedMatrix)'s panel layout: slot `s`
//! of a segment is column `s` of `Kᵀ`. Scoring queries against a run of
//! slots is therefore the packed GEMM kernel's product ([`Panels`]) — one
//! query for `attend`, a whole query block for the blocked driver. Each
//! score is the ascending-channel fold from `+0.0`, scaled once complete,
//! exactly as `dots_into` computes it; neither skips a term, so the two
//! agree on every bit, non-finite keys included. Values stay row-major
//! for `axpy_rows`.
//!
//! **Order.** The logical order — oldest first, what softmax, the
//! weighted sum and `observe_attention` see — is a `head` segment followed
//! by a FIFO `ring`. Both are growable rings of slots, so popping the
//! ring's front is O(1), moving the ring's oldest row to the end of the
//! head costs one row copy, and removing a head row slides only the
//! shorter side of the head. Scores are computed per physical run of
//! slots and written in logical order.

use std::ops::Range;

use rkvc_tensor::gemm::{Panels, PANEL};
use rkvc_tensor::{round_slice_to_f16, round_to_f16, softmax_into, Matrix};

use crate::cache::axpy_rows;
use crate::KvView;

/// A retained row's bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct Meta {
    pos: usize,
    /// Accumulated attention weight (`HeavyHitters`).
    score: f32,
}

/// A deque of rows in physical slots: row `i` sits in slot
/// `(front + i) % slots`. It grows by one panel of slots when every slot
/// is taken.
#[derive(Debug, Clone)]
struct Segment {
    head_dim: usize,
    /// `Kᵀ` in panels: channel `c` of slot `s` at `key_at(s) + c * PANEL`.
    keys: Vec<f32>,
    /// Row-major: slot `s` at `s * head_dim`.
    values: Vec<f32>,
    meta: Vec<Meta>,
    front: usize,
    len: usize,
}

impl Segment {
    fn new(head_dim: usize) -> Self {
        Segment {
            head_dim,
            keys: Vec::new(),
            values: Vec::new(),
            meta: Vec::new(),
            front: 0,
            len: 0,
        }
    }

    fn slots(&self) -> usize {
        self.meta.len()
    }

    /// The slot of row `i < len`.
    fn slot(&self, i: usize) -> usize {
        let s = self.front + i;
        if s < self.slots() {
            s
        } else {
            s - self.slots()
        }
    }

    /// Index of channel 0 of slot `s`'s key.
    fn key_at(&self, s: usize) -> usize {
        s / PANEL * self.head_dim * PANEL + s % PANEL
    }

    fn key(&self, s: usize) -> impl Iterator<Item = f32> + '_ {
        let k0 = self.key_at(s);
        (0..self.head_dim).map(move |c| self.keys[k0 + c * PANEL])
    }

    fn value(&self, s: usize) -> &[f32] {
        &self.values[s * self.head_dim..][..self.head_dim]
    }

    /// Appends a row whose key channels `key` yields in order; returns
    /// its slot.
    fn push_back(&mut self, key: impl Iterator<Item = f32>, value: &[f32], meta: Meta) -> usize {
        if self.len == self.slots() {
            self.grow();
        }
        let s = self.slot(self.len);
        self.len += 1;
        let k0 = self.key_at(s);
        for (c, k) in key.enumerate() {
            self.keys[k0 + c * PANEL] = k;
        }
        self.values[s * self.head_dim..][..self.head_dim].copy_from_slice(value);
        self.meta[s] = meta;
        s
    }

    /// Adds one panel of slots, first laying a wrapped deque out from
    /// slot 0 again (appends never wrap a full deque, so only a ring that
    /// has popped rows and then outgrows its slots pays for this).
    fn grow(&mut self) {
        if self.front != 0 {
            let mut fresh = Segment::new(self.head_dim);
            for i in 0..self.len {
                let s = self.slot(i);
                fresh.push_back(self.key(s), self.value(s), self.meta[s]);
            }
            *self = fresh;
            if self.len < self.slots() {
                return;
            }
        }
        let hd = self.head_dim;
        self.keys.resize(self.keys.len() + hd * PANEL, 0.0);
        self.values.resize(self.values.len() + PANEL * hd, 0.0);
        self.meta.resize(self.meta.len() + PANEL, Meta::default());
    }

    /// Drops row 0 and returns its slot, whose contents stay readable
    /// until the next push.
    fn pop_front(&mut self) -> usize {
        assert!(self.len > 0, "pop from an empty segment");
        let s = self.front;
        self.front = if self.len == 1 { 0 } else { self.slot(1) };
        self.len -= 1;
        s
    }

    /// Removes row `i`, sliding the shorter side of the deque over it.
    fn remove(&mut self, i: usize) {
        assert!(i < self.len, "row {i} out of bounds ({})", self.len);
        if i < self.len / 2 {
            for j in (0..i).rev() {
                self.move_slot(self.slot(j), self.slot(j + 1));
            }
            self.pop_front();
        } else {
            for j in i..self.len - 1 {
                self.move_slot(self.slot(j + 1), self.slot(j));
            }
            self.len -= 1;
        }
    }

    fn move_slot(&mut self, from: usize, to: usize) {
        let (f0, t0, hd) = (self.key_at(from), self.key_at(to), self.head_dim);
        for c in 0..hd {
            self.keys[t0 + c * PANEL] = self.keys[f0 + c * PANEL];
        }
        self.values.copy_within(from * hd..(from + 1) * hd, to * hd);
        self.meta[to] = self.meta[from];
    }

    /// The slots of rows `rows` (within `0..len`), oldest first, as at
    /// most two contiguous runs.
    fn runs(&self, rows: Range<usize>) -> [Range<usize>; 2] {
        if rows.is_empty() {
            return [0..0, 0..0];
        }
        let start = self.slot(rows.start);
        let first = rows.len().min(self.slots() - start);
        [start..start + first, 0..rows.len() - first]
    }
}

/// Queries scored against a [`RowWindow`]: `count` row-major vectors of
/// `head_dim` channels, and the scale each finished dot is multiplied by.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queries<'a> {
    pub(crate) rows: &'a [f32],
    pub(crate) count: usize,
    pub(crate) scale: f32,
}

/// FP16-rounded rows in logical order `head ++ ring` (see the module
/// docs). Logical row indices are what every method takes and returns.
#[derive(Debug, Clone)]
pub(crate) struct RowWindow {
    head: Segment,
    ring: Segment,
    /// Rows ever appended; the ones no longer here left by eviction or
    /// flush.
    seen: usize,
}

impl RowWindow {
    pub(crate) fn new(head_dim: usize) -> Self {
        RowWindow {
            head: Segment::new(head_dim),
            ring: Segment::new(head_dim),
            seen: 0,
        }
    }

    pub(crate) fn head_dim(&self) -> usize {
        self.head.head_dim
    }

    pub(crate) fn len(&self) -> usize {
        self.head.len + self.ring.len
    }

    pub(crate) fn head_len(&self) -> usize {
        self.head.len
    }

    pub(crate) fn ring_len(&self) -> usize {
        self.ring.len
    }

    pub(crate) fn seen(&self) -> usize {
        self.seen
    }

    /// Appends a token's row at the end of the head.
    pub(crate) fn append_head(&mut self, key: &[f32], value: &[f32], pos: usize) {
        Self::append(&mut self.head, key, value, pos);
        self.seen += 1;
    }

    /// Appends a token's row at the end of the ring.
    pub(crate) fn append_ring(&mut self, key: &[f32], value: &[f32], pos: usize) {
        Self::append(&mut self.ring, key, value, pos);
        self.seen += 1;
    }

    fn append(seg: &mut Segment, key: &[f32], value: &[f32], pos: usize) {
        let key = key.iter().map(|&k| round_to_f16(k));
        let s = seg.push_back(key, value, Meta { pos, score: 0.0 });
        round_slice_to_f16(&mut seg.values[s * seg.head_dim..][..seg.head_dim]);
    }

    /// Drops the ring's oldest row.
    pub(crate) fn pop_ring_front(&mut self) {
        self.ring.pop_front();
    }

    /// Moves the ring's oldest row to the end of the head, score and
    /// all; the logical order does not change.
    pub(crate) fn graduate(&mut self) {
        let s = self.ring.pop_front();
        let ring = &self.ring;
        self.head.push_back(ring.key(s), ring.value(s), ring.meta[s]);
    }

    /// Removes row `i`.
    pub(crate) fn remove(&mut self, i: usize) {
        match i.checked_sub(self.head.len) {
            None => self.head.remove(i),
            Some(j) => self.ring.remove(j),
        }
    }

    /// Pops the ring's `n` oldest rows and returns copies of them.
    pub(crate) fn pop_ring_rows(&mut self, n: usize) -> KvView {
        let h = self.head.len;
        let rows = self.gather(&[h..h + n]);
        for _ in 0..n {
            self.ring.pop_front();
        }
        rows
    }

    /// Keeps only rows `rows` (ascending), all in the head.
    pub(crate) fn select(&mut self, rows: &[usize]) {
        let mut head = Segment::new(self.head_dim());
        for &i in rows {
            let (seg, s) = self.locate(i);
            head.push_back(seg.key(s), seg.value(s), seg.meta[s]);
        }
        self.head = head;
        self.ring = Segment::new(self.head_dim());
    }

    /// The segment holding row `i`, and its slot there.
    fn locate(&self, i: usize) -> (&Segment, usize) {
        let (seg, j) = match i.checked_sub(self.head.len) {
            None => (&self.head, i),
            Some(j) => (&self.ring, j),
        };
        assert!(j < seg.len, "row {i} out of bounds ({})", self.len());
        (seg, seg.slot(j))
    }

    pub(crate) fn score(&self, i: usize) -> f32 {
        let (seg, s) = self.locate(i);
        seg.meta[s].score
    }

    /// Channel `c` of row `i`'s key.
    pub(crate) fn key(&self, i: usize, c: usize) -> f32 {
        assert!(c < self.head_dim(), "channel {c} out of bounds");
        let (seg, s) = self.locate(i);
        seg.keys[seg.key_at(s) + c * PANEL]
    }

    /// Sets channel `c` of row `i`'s key.
    pub(crate) fn set_key(&mut self, i: usize, c: usize, v: f32) {
        assert!(c < self.head_dim(), "channel {c} out of bounds");
        let (j, seg) = match i.checked_sub(self.head.len) {
            None => (i, &mut self.head),
            Some(j) => (j, &mut self.ring),
        };
        assert!(j < seg.len, "row {i} out of bounds");
        let at = seg.key_at(seg.slot(j)) + c * PANEL;
        seg.keys[at] = v;
    }

    /// Adds `weights[i]` to row `i`'s accumulated score, oldest first; a
    /// shorter `weights` covers a prefix of the rows.
    pub(crate) fn accumulate_scores(&mut self, weights: &[f32]) {
        let mut weights = weights.iter();
        for seg in [&mut self.head, &mut self.ring] {
            for run in seg.runs(0..seg.len) {
                for (meta, &w) in seg.meta[run].iter_mut().zip(weights.by_ref()) {
                    meta.score += w;
                }
            }
        }
    }

    /// Copies of every row, oldest first.
    pub(crate) fn view(&self) -> KvView {
        self.gather(&[0..self.len()])
    }

    /// Copies of the rows in `ranges` (ascending, disjoint), in order.
    pub(crate) fn gather(&self, ranges: &[Range<usize>]) -> KvView {
        let hd = self.head_dim();
        let n: usize = ranges.iter().map(ExactSizeIterator::len).sum();
        let mut keys = Vec::with_capacity(n * hd);
        let mut values = Vec::with_capacity(n * hd);
        let mut positions = Vec::with_capacity(n);
        for i in ranges.iter().cloned().flatten() {
            let (seg, s) = self.locate(i);
            keys.extend(seg.key(s));
            values.extend_from_slice(seg.value(s));
            positions.push(seg.meta[s].pos);
        }
        KvView {
            keys: Matrix::from_vec(n, hd, keys),
            values: Matrix::from_vec(n, hd, values),
            positions,
        }
    }

    /// The physical runs holding rows `rows`, oldest first.
    fn runs(&self, rows: Range<usize>) -> impl Iterator<Item = (&Segment, Range<usize>)> {
        assert!(
            rows.end <= self.len(),
            "rows {rows:?} out of bounds ({})",
            self.len()
        );
        let h = self.head.len;
        let head = self.head.runs(rows.start.min(h)..rows.end.min(h));
        let ring = self.ring.runs(rows.start.max(h) - h..rows.end.max(h) - h);
        let head = head.into_iter().map(move |run| (&self.head, run));
        let ring = ring.into_iter().map(move |run| (&self.ring, run));
        head.chain(ring).filter(|(_, run)| !run.is_empty())
    }

    /// `out[j * stride + r] = dot(row rows.start + r, query j) * scale`
    /// for every query of `q`, through the panel product one physical run
    /// at a time (`product` is its scratch). A run that starts inside a
    /// panel is multiplied from the panel's first column; the leading
    /// columns are not copied out.
    pub(crate) fn scores_into(
        &self,
        rows: Range<usize>,
        q: Queries<'_>,
        product: &mut Vec<f32>,
        out: &mut [f32],
        stride: usize,
    ) {
        let hd = self.head_dim();
        let mut r0 = 0;
        for (seg, run) in self.runs(rows) {
            let lead = run.start % PANEL;
            let cols = lead + run.len();
            let panels = Panels::new(hd, cols, &seg.keys[run.start / PANEL * hd * PANEL..]);
            product.resize(q.count * cols, 0.0);
            panels.mul_into(q.rows, product);
            for (j, dots) in product.chunks_exact(cols).enumerate() {
                let slots = &mut out[j * stride + r0..][..run.len()];
                for (o, &d) in slots.iter_mut().zip(&dots[lead..]) {
                    *o = d * q.scale;
                }
            }
            r0 += run.len();
        }
    }

    /// `out[c] += Σ_r weights[r] * value(rows.start + r)[c]`, rows
    /// ascending: [`axpy_rows`] over each physical run in turn.
    pub(crate) fn weighted_sum(&self, rows: Range<usize>, weights: &[f32], out: &mut [f32]) {
        let hd = self.head_dim();
        let mut weights = weights;
        for (seg, run) in self.runs(rows) {
            let (now, rest) = weights.split_at(run.len());
            axpy_rows(&seg.values[run.start * hd..run.end * hd], now, out);
            weights = rest;
        }
    }

    /// Single-query attention over the rows in `ranges` (ascending,
    /// disjoint): scores, softmax over them in order, the weighted value
    /// sum into `out`. `weights` holds the softmax weights on return.
    pub(crate) fn attend(
        &self,
        ranges: &[Range<usize>],
        query: &[f32],
        scale: f32,
        scores: &mut Vec<f32>,
        weights: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let n: usize = ranges.iter().map(ExactSizeIterator::len).sum();
        scores.clear();
        scores.resize(n, 0.0);
        let q = Queries { rows: query, count: 1, scale };
        let mut r0 = 0;
        for rows in ranges {
            // `weights` is free until the softmax: the product's scratch.
            self.scores_into(rows.clone(), q, weights, &mut scores[r0..], n);
            r0 += rows.len();
        }
        softmax_into(scores, weights);
        let mut r0 = 0;
        for rows in ranges {
            self.weighted_sum(rows.clone(), &weights[r0..r0 + rows.len()], out);
            r0 += rows.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use rkvc_tensor::{seq_sum_f32, SeededRng};

    use super::*;
    use crate::{DenseCache, H2OParams, KvCache, Retention, StreamingParams};

    /// A row as the window stores it.
    #[derive(Debug, Clone)]
    struct Row {
        key: Vec<f32>,
        value: Vec<f32>,
        pos: usize,
        score: f32,
    }

    /// The reference order: a plain vector, oldest first, whose first
    /// `head` rows are the head.
    #[derive(Debug, Default)]
    struct Model {
        rows: Vec<Row>,
        head: usize,
        seen: usize,
    }

    fn raw_row(rng: &mut SeededRng, hd: usize) -> (Vec<f32>, Vec<f32>) {
        let mut v = || (0..hd).map(|_| rng.gen_range(-2.0f32..2.0)).collect::<Vec<_>>();
        (v(), v())
    }

    fn stored(raw: &[f32]) -> Vec<f32> {
        raw.iter().map(|&x| round_to_f16(x)).collect()
    }

    fn dot(key: &[f32], query: &[f32]) -> f32 {
        seq_sum_f32(key.iter().zip(query).map(|(k, q)| k * q))
    }

    /// A random range within `0..n`.
    fn range(rng: &mut SeededRng, n: usize) -> Range<usize> {
        let start = rng.gen_range(0..n + 1);
        start..rng.gen_range(start..n + 1)
    }

    /// Everything the window reports equals the model, including every
    /// score and weighted sum over random ranges.
    fn assert_matches(w: &RowWindow, m: &Model, rng: &mut SeededRng, step: usize) {
        let hd = w.head_dim();
        let what = format!("step {step}");
        assert_eq!(w.len(), m.rows.len(), "{what}: len");
        assert_eq!((w.head_len(), w.seen()), (m.head, m.seen), "{what}: head, seen");
        let view = w.view();
        let positions: Vec<usize> = m.rows.iter().map(|r| r.pos).collect();
        assert_eq!(view.positions, positions, "{what}: positions");
        for (i, row) in m.rows.iter().enumerate() {
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(view.keys.row(i)), bits(&row.key), "{what}: key {i}");
            assert_eq!(bits(view.values.row(i)), bits(&row.value), "{what}: value {i}");
            assert_eq!(w.score(i).to_bits(), row.score.to_bits(), "{what}: score {i}");
        }

        let rows = range(rng, m.rows.len());
        let count = rng.gen_range(1usize..6);
        let queries: Vec<f32> = (0..count * hd).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let q = Queries { rows: &queries, count, scale: 0.375 };
        let mut out = vec![f32::NAN; count * rows.len()];
        w.scores_into(rows.clone(), q, &mut Vec::new(), &mut out, rows.len());
        for j in 0..count {
            let query = &queries[j * hd..][..hd];
            for (r, row) in m.rows[rows.clone()].iter().enumerate() {
                let want = dot(&row.key, query) * 0.375;
                let got = out[j * rows.len() + r];
                assert_eq!(got.to_bits(), want.to_bits(), "{what}: score of row {r} query {j}");
            }
        }

        let weights: Vec<f32> = rows.clone().map(|_| rng.gen_range(0.0f32..1.0)).collect();
        let mut got = vec![0.5f32; hd];
        let mut want = got.clone();
        w.weighted_sum(rows.clone(), &weights, &mut got);
        for (row, &wt) in m.rows[rows].iter().zip(&weights) {
            for (o, &v) in want.iter_mut().zip(&row.value) {
                *o += wt * v;
            }
        }
        for (c, (g, x)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), x.to_bits(), "{what}: weighted sum channel {c}");
        }
    }

    rkvc_tensor::det_cases! {
        /// Random interleavings of every operation the two stores use,
        /// against a plain vector: appends at both ends of the head, ring
        /// pops, removals anywhere, graduations, flush pops, selections
        /// and score feedback. The window outgrows its slots while the
        /// ring is wrapped, so the relayout is covered too.
        fn window_follows_the_vector_model(rng, cases = 24) {
            let hd = [0usize, 1, 3, 8, 17][rng.gen_range(0usize..5)];
            let mut w = RowWindow::new(hd);
            let mut m = Model::default();
            for step in 0..400 {
                let ring = m.rows.len() - m.head;
                match rng.gen_range(0u32..20) {
                    0..=7 if m.rows.len() < 90 => {
                        let (key, value) = raw_row(rng, hd);
                        let row = Row { key: stored(&key), value: stored(&value), pos: m.seen, score: 0.0 };
                        if rng.gen_bool(0.2) {
                            w.append_head(&key, &value, m.seen);
                            m.rows.insert(m.head, row);
                            m.head += 1;
                        } else {
                            w.append_ring(&key, &value, m.seen);
                            m.rows.push(row);
                        }
                        m.seen += 1;
                    }
                    8..=10 if ring > 0 => {
                        w.pop_ring_front();
                        m.rows.remove(m.head);
                    }
                    11..=12 if !m.rows.is_empty() => {
                        let i = rng.gen_range(0..m.rows.len());
                        w.remove(i);
                        m.rows.remove(i);
                        if i < m.head {
                            m.head -= 1;
                        }
                    }
                    13..=14 if ring > 0 => {
                        w.graduate();
                        m.head += 1;
                    }
                    15 if ring > 0 => {
                        let n = rng.gen_range(1..ring + 1);
                        let flushed = w.pop_ring_rows(n);
                        let popped: Vec<Row> = m.rows.drain(m.head..m.head + n).collect();
                        assert_eq!(flushed.positions, popped.iter().map(|r| r.pos).collect::<Vec<_>>());
                        for (r, row) in popped.iter().enumerate() {
                            assert_eq!(flushed.keys.row(r), &row.key[..], "step {step}: flushed key");
                            assert_eq!(flushed.values.row(r), &row.value[..], "step {step}: flushed value");
                        }
                    }
                    16 => {
                        let keep: Vec<usize> = (0..m.rows.len()).filter(|_| rng.gen_bool(0.7)).collect();
                        w.select(&keep);
                        m.rows = keep.iter().map(|&i| m.rows[i].clone()).collect();
                        m.head = m.rows.len();
                    }
                    _ => {
                        let n = rng.gen_range(0..m.rows.len() + 1);
                        let weights: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0f32..1.0)).collect();
                        w.accumulate_scores(&weights);
                        for (row, wt) in m.rows.iter_mut().zip(&weights) {
                            row.score += wt;
                        }
                    }
                }
                assert_matches(&w, &m, rng, step);
            }
        }

        /// The paper's budgets over 2048 appends (each ring wraps at
        /// least three times), every append followed by attention
        /// feedback: the retained positions and H2O's accumulated scores
        /// equal those of a store that evicts by sliding every later row
        /// over the evicted one (`Vec::remove`).
        fn paper_budgets_match_the_sliding_store(rng, cases = 2) {
            let rules = [
                Retention::SinkWindow(StreamingParams { sinks: 4, recent: 508 }),
                Retention::HeavyHitters(H2OParams { heavy: 64, recent: 448 }),
            ];
            for rule in rules {
                let h2o = matches!(rule, Retention::HeavyHitters(_));
                let mut cache = DenseCache::new(2, rule).unwrap();
                let (mut positions, mut scores) = (Vec::<usize>::new(), Vec::<f32>::new());
                for pos in 0..2048 {
                    let (key, value) = raw_row(rng, 2);
                    cache.append(&key, &value, pos);
                    positions.push(pos);
                    scores.push(0.0);
                    let evict = match rule {
                        Retention::SinkWindow(p) if positions.len() > p.budget() => {
                            Some(p.sinks.min(positions.len() - 1))
                        }
                        Retention::HeavyHitters(p) if positions.len() > p.budget() => {
                            let protected_from = positions.len() - p.recent;
                            (0..protected_from).min_by(|&a, &b| {
                                scores[a].partial_cmp(&scores[b]).unwrap_or(std::cmp::Ordering::Equal)
                            })
                        }
                        _ => None,
                    };
                    if let Some(i) = evict {
                        positions.remove(i);
                        scores.remove(i);
                    }
                    // Exact zeros make ties, which the first minimum breaks.
                    let weights: Vec<f32> = (0..positions.len())
                        .map(|_| if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(0.0f32..1.0) })
                        .collect();
                    cache.observe_attention(&weights);
                    assert_eq!(cache.view().positions, positions, "{rule:?} after position {pos}");
                    if h2o {
                        for (i, (s, wt)) in scores.iter_mut().zip(&weights).enumerate() {
                            *s += wt;
                            assert_eq!(cache.score(i).to_bits(), s.to_bits(), "{rule:?} score {i} after {pos}");
                        }
                    }
                }
            }
        }
    }
}
