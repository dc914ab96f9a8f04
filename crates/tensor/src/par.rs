//! Deterministic parallel runtime: a **persistent worker pool** with
//! static chunk assignment and dispatch-cost gating.
//!
//! Every entry point in this module guarantees *bit-identical* results at
//! any thread count, including 1. The guarantee is by construction:
//!
//! - **Chunk boundaries are a pure function of `(len, grain)`** — chunk
//!   `c` always covers `items[c*grain .. min((c+1)*grain, len)]`. Thread
//!   count and scheduling decide only *which worker* runs a chunk, never
//!   what the chunk contains.
//! - **Results are placed by chunk index**, not completion order:
//!   [`par_tabulate`] writes chunk `c`'s outputs directly into positions
//!   `c*grain ..` of the destination buffer, and [`par_chunks_mut`] hands
//!   each worker disjoint `&mut` slices whose layout is fixed by
//!   `(len, grain)`.
//! - **Reduction is tree-shaped with a fixed association order**:
//!   [`par_reduce`] combines per-chunk partials pairwise, level by level,
//!   in ascending chunk order — the combine tree depends only on the
//!   number of chunks, so float accumulation order never varies.
//! - **The inline/parallel decision is thread-count-invariant**: a call
//!   runs inline exactly when `chunk_count(len, grain) <= 1` — a pure
//!   function of `(len, grain)`. Callers pick the grain with
//!   [`grain_for`], which folds the pool's dispatch cost into a pure
//!   function of `(len, item_ops)`; neither decision ever consults the
//!   thread count, so outputs cannot depend on it even indirectly.
//!
//! # The persistent pool
//!
//! Earlier revisions spawned fresh OS threads via `std::thread::scope` on
//! every `par_*` call — tolerable for one coarse fan-out, ruinous for a
//! per-token, per-(layer, kv-head) decode loop. The runtime now keeps
//! **one process-wide pool of lazily-spawned workers** that park on a
//! condvar between jobs. A call hands its job off by bumping an epoch
//! under a mutex and broadcasting; workers that wake while the job is
//! still open *check in*, claim chunk indices from an atomic counter, and
//! check out. The **caller participates too**: it runs the same
//! chunk-claiming loop, then closes the job and waits only for workers
//! that actually checked in — so an idle machine pays roughly one
//! lock/notify round-trip per call, not a thread spawn, and a worker that
//! never woke in time costs the caller nothing at all.
//!
//! Lifecycle properties, all covered by tests:
//!
//! - Workers are spawned on first use, up to `num_threads() - 1`, and are
//!   never torn down; [`set_threads`] can grow the pool or shrink the
//!   number of *participants* at any time (surplus workers just keep
//!   parking) — safe mid-run precisely because results are
//!   thread-count-invariant.
//! - A panic in a worker's share of a job is caught, carried back, and
//!   re-raised on the caller after every checked-in worker has exited, so
//!   the pool survives panicking closures and the next call proceeds
//!   normally.
//! - Nested `par_*` calls run inline ([`in_worker`] is set both on pool
//!   workers and on the caller while it participates), so inner kernels
//!   never oversubscribe the machine or deadlock the pool.
//!
//! The thread count comes from `RKVC_THREADS` (default: the machine's
//! available parallelism) and can be overridden in-process with
//! [`set_threads`]. This module is the one sanctioned home for
//! `std::thread` in the workspace; the `rkvc-analyze` lint D004 rejects
//! thread use anywhere else, and D001 keeps wall-clock reads out of the
//! handoff path.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, TryLockError};

/// Hard upper bound on the worker count; a backstop against absurd
/// `RKVC_THREADS` values, not a tuning knob.
pub const MAX_THREADS: usize = 256;

/// Estimated scalar operations one *chunk* must carry before a pool
/// handoff can pay for itself; [`grain_for`] sizes chunks so each one
/// clears this bar.
pub const DISPATCH_MIN_OPS: usize = 1 << 14;

/// Estimated scalar operations a whole call must carry before dispatching
/// at all; below this, [`grain_for`] returns a single-chunk grain and the
/// call runs inline regardless of thread count.
pub const DISPATCH_MIN_TOTAL_OPS: usize = 1 << 16;

/// In-process override; 0 means "no override, consult the environment".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while running inside a pool worker — or on the caller while it
    /// participates in a job — so nested `par_*` calls execute inline
    /// instead of oversubscribing the machine.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

struct WorkerGuard;

impl WorkerGuard {
    fn enter() -> WorkerGuard {
        IN_WORKER.with(|c| c.set(true));
        WorkerGuard
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_WORKER.with(|c| c.set(false));
    }
}

/// Whether the current thread is executing inside a pool job (a pool
/// worker, or the caller while it participates). Nested `par_*` calls
/// observe this and run inline.
pub fn in_worker() -> bool {
    IN_WORKER.with(|c| c.get())
}

/// The machine's available hardware parallelism (>= 1).
fn machine_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `RKVC_THREADS` parsed once; invalid or missing values fall back to the
/// machine parallelism.
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("RKVC_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(machine_parallelism)
    })
}

/// The number of worker threads `par_*` calls may use.
///
/// Resolution order: [`set_threads`] override, then `RKVC_THREADS`, then
/// the machine's available parallelism. Always in `1..=MAX_THREADS`.
/// Changing this value can never change any result — only wall-clock.
pub fn num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    let n = if o != 0 { o } else { env_threads() };
    n.clamp(1, MAX_THREADS)
}

/// Overrides the thread count in-process (`None` restores the
/// environment default). Safe to call at any time, even between two jobs
/// on a warm pool: growing spawns more workers on the next dispatch,
/// shrinking just reduces how many parked workers are invited to the next
/// job. Results are thread-count-invariant either way.
pub fn set_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0).min(MAX_THREADS), Ordering::Relaxed);
}

/// Number of chunks `(len, grain)` splits into — the pure function that
/// fixes every chunk boundary.
pub fn chunk_count(len: usize, grain: usize) -> usize {
    len.div_ceil(grain.max(1))
}

/// Picks the grain (items per chunk) for a fan-out whose items each cost
/// roughly `item_ops` scalar operations.
///
/// A pure function of `(len, item_ops)` — never of the thread count — so
/// the inline/parallel decision it induces is identical at every
/// `RKVC_THREADS` value:
///
/// - if the whole call is smaller than [`DISPATCH_MIN_TOTAL_OPS`], the
///   grain is `len` (one chunk, which `par_*` runs inline: the job is too
///   small to amortize even one pool handoff);
/// - otherwise each chunk gets enough items to carry
///   [`DISPATCH_MIN_OPS`], so no worker wakes up for less work than the
///   handoff itself costs.
///
/// `item_ops` must itself be a deterministic estimate (sizes, sequence
/// positions — never wall-clock or thread count) to keep the decision
/// reproducible.
pub fn grain_for(len: usize, item_ops: usize) -> usize {
    let per = item_ops.max(1);
    let total = len.saturating_mul(per);
    if total < DISPATCH_MIN_TOTAL_OPS {
        return len.max(1);
    }
    DISPATCH_MIN_OPS.div_ceil(per).clamp(1, len.max(1))
}

/// How many workers to engage for `n_chunks` chunks. Returns 1 (run
/// inline) when parallelism cannot help or we are already inside a pool
/// job. Affects scheduling only, never results.
fn engaged_threads(n_chunks: usize) -> usize {
    if in_worker() || n_chunks <= 1 {
        1
    } else {
        num_threads().min(n_chunks)
    }
}

/// A type-erased borrow of a job body, lifetime-erased for the worker
/// loop. Sound because [`run_job`] never returns (or unwinds) before
/// every worker that checked in to the job has checked out, and workers
/// can only check in while the job is open.
#[derive(Clone, Copy)]
struct JobRef(&'static (dyn Fn() + Sync));

/// Pool bookkeeping, all under one mutex.
struct PoolState {
    /// Bumped once per job; workers use it to notice new work.
    epoch: u64,
    /// The open job, if any. `None` means closed: late workers skip it.
    job: Option<JobRef>,
    /// Workers invited to the current job (`min(requested, spawned)`).
    participants: usize,
    /// Workers that have taken the current job's body.
    entered: usize,
    /// Workers that have finished running it (or caught a panic).
    exited: usize,
    /// OS threads spawned so far (never torn down).
    spawned: usize,
    /// First panic payload caught by a worker during the current job.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    job_cv: Condvar,
    /// The caller parks here while checked-in workers finish.
    done_cv: Condvar,
    /// Serializes job submission; contended submitters run inline.
    submit: Mutex<()>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            epoch: 0,
            job: None,
            participants: 0,
            entered: 0,
            exited: 0,
            spawned: 0,
            panic: None,
        }),
        job_cv: Condvar::new(),
        done_cv: Condvar::new(),
        submit: Mutex::new(()),
    })
}

/// Locks the pool state, shrugging off poisoning: no user code ever runs
/// while this mutex is held, so a poisoned state is still consistent.
fn lock_state(p: &Pool) -> std::sync::MutexGuard<'_, PoolState> {
    p.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The body every pool worker runs: park until a job opens, check in, run
/// the chunk-claiming closure, check out. Workers live for the rest of
/// the process; there is deliberately no teardown path.
fn worker_loop(index: usize, birth_epoch: u64) {
    IN_WORKER.with(|c| c.set(true));
    let p = pool();
    let mut seen = birth_epoch;
    loop {
        let job = {
            let mut st = lock_state(p);
            loop {
                if st.epoch != seen {
                    seen = st.epoch;
                    if index < st.participants {
                        if let Some(j) = st.job {
                            st.entered += 1;
                            break j;
                        }
                    }
                    // Not invited, or the caller already closed the job:
                    // park again until the next epoch.
                }
                st = p
                    .job_cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| (job.0)()));
        let mut st = lock_state(p);
        if let Err(payload) = outcome {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.exited += 1;
        if st.entered == st.exited {
            p.done_cv.notify_all();
        }
    }
}

/// Spawns workers (best effort) until `want` exist. Called with the state
/// lock held; a failed spawn degrades the pool width instead of erroring.
fn ensure_spawned(st: &mut PoolState, want: usize) {
    let want = want.min(MAX_THREADS - 1);
    while st.spawned < want {
        let index = st.spawned;
        let birth_epoch = st.epoch;
        let spawned = std::thread::Builder::new()
            .name(format!("rkvc-par-{index}"))
            .spawn(move || worker_loop(index, birth_epoch));
        if spawned.is_err() {
            break;
        }
        st.spawned += 1;
    }
}

/// Hands `body` to the pool and runs it on up to `threads` threads
/// (including the calling thread). Returns — or resumes a deferred
/// panic — only after every worker that took the job has finished, so
/// `body` may freely borrow the caller's stack.
fn run_job(threads: usize, body: &(dyn Fn() + Sync)) {
    debug_assert!(!in_worker(), "run_job is unreachable from inside a job");
    let p = pool();
    // One job at a time: a submitter that finds the pool busy (another
    // top-level call mid-job) runs its body inline, which is always
    // bit-identical. A poisoned submit lock (a previous caller unwound)
    // is taken over, not treated as busy, so one panic cannot demote the
    // runtime to inline-only forever.
    let _submit = match p.submit.try_lock() {
        Ok(g) => g,
        Err(TryLockError::Poisoned(g)) => g.into_inner(),
        Err(TryLockError::WouldBlock) => {
            let _g = WorkerGuard::enter();
            body();
            return;
        }
    };
    let invited = {
        let mut st = lock_state(p);
        let want = threads.saturating_sub(1);
        ensure_spawned(&mut st, want);
        let invited = want.min(st.spawned);
        if invited > 0 {
            st.participants = invited;
            st.entered = 0;
            st.exited = 0;
            st.panic = None;
            // rkvc-safety: the job reference is cleared — and every
            // checked-in worker awaited — before this function returns or
            // unwinds, so the erased lifetime never outlives the borrow.
            st.job = Some(JobRef(unsafe {
                std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(body)
            }));
            st.epoch = st.epoch.wrapping_add(1);
        }
        invited
    };
    if invited == 0 {
        // No worker could be spawned; run the whole job inline.
        let _g = WorkerGuard::enter();
        body();
        return;
    }
    p.job_cv.notify_all();
    // The caller is a participant too: it claims chunks like any worker.
    let caller_outcome = catch_unwind(AssertUnwindSafe(|| {
        let _g = WorkerGuard::enter();
        body();
    }));
    let worker_panic = {
        let mut st = lock_state(p);
        // Close the job: workers that wake from here on skip it, so the
        // caller waits only for workers that actually checked in.
        st.job = None;
        while st.entered > st.exited {
            st = p
                .done_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.panic.take()
    };
    if let Err(payload) = caller_outcome {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

/// A raw pointer that may cross into workers. Writes through it are
/// sound because chunk claims are unique (an atomic counter) and chunk
/// ranges are disjoint by construction.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor rather than field access so closures capture the whole
    /// struct (keeping the `Sync` impl in force) instead of the bare
    /// pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

// rkvc-safety: SendPtr is only handed to pool workers that write disjoint
// chunk ranges of one reserved allocation; T: Send bounds the payload.
unsafe impl<T: Send> Send for SendPtr<T> {}
// rkvc-safety: shared access is read-only pointer arithmetic; every write
// target is a slot claimed by exactly one worker.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Maps `f` over `0..len` in chunks of `grain` indices, in parallel.
///
/// Output order is always `f(0), f(1), .., f(len-1)` regardless of thread
/// count: workers claim chunk *indices* from a shared counter and write
/// each result directly into its final slot — no per-call intermediate
/// buffers, no reassembly pass.
pub fn par_tabulate<U, F>(len: usize, grain: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let grain = grain.max(1);
    let n_chunks = chunk_count(len, grain);
    let threads = engaged_threads(n_chunks);
    if threads <= 1 {
        return (0..len).map(f).collect();
    }
    let mut out: Vec<U> = Vec::with_capacity(len);
    let base = SendPtr(out.as_mut_ptr());
    let next = AtomicUsize::new(0);
    let fr = &f;
    run_job(threads, &|| loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= n_chunks {
            break;
        }
        let lo = c * grain;
        let hi = (lo + grain).min(len);
        for i in lo..hi {
            // rkvc-safety: chunk `c` is claimed exactly once, chunk
            // ranges are disjoint, and slot `i` lies inside the reserved
            // capacity; each slot is written at most once.
            unsafe { base.get().add(i).write(fr(i)) };
        }
    });
    // rkvc-safety: run_job returns normally only after every chunk index was
    // claimed and completed, so all `len` slots are initialized. If any
    // closure panicked, run_job resumed the unwind above and the vector
    // drops with len 0 — written elements leak rather than risk dropping
    // an uninitialized slot.
    unsafe { out.set_len(len) };
    out
}

/// Maps `f` over a slice in chunks of `grain` items, preserving order.
///
/// Bit-identical to `items.iter().map(f).collect()` at every thread
/// count — parallelism only changes which worker evaluates each chunk.
pub fn par_map<T, U, F>(items: &[T], grain: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_tabulate(items.len(), grain, |i| f(&items[i]))
}

/// Splits `data` into chunks of `grain` elements and runs `f(chunk_index,
/// chunk)` on each, in parallel.
///
/// Chunk bounds depend only on `(data.len(), grain)`; workers claim chunk
/// indices from an atomic counter and carve disjoint `&mut` slices out of
/// the buffer, so writes are race-free and placement-deterministic by
/// construction, with no per-call lane allocations.
pub fn par_chunks_mut<T, F>(data: &mut [T], grain: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let grain = grain.max(1);
    if data.is_empty() {
        return;
    }
    let len = data.len();
    let n_chunks = chunk_count(len, grain);
    let threads = engaged_threads(n_chunks);
    if threads <= 1 {
        for (c, chunk) in data.chunks_mut(grain).enumerate() {
            f(c, chunk);
        }
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    let next = AtomicUsize::new(0);
    let fr = &f;
    run_job(threads, &|| loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= n_chunks {
            break;
        }
        let lo = c * grain;
        let hi = (lo + grain).min(len);
        // rkvc-safety: chunk `c` is claimed exactly once and `[lo, hi)`
        // ranges are pairwise disjoint and in bounds, so each element is
        // aliased by at most one live `&mut` slice.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
        fr(c, chunk);
    });
}

/// Parallel reduction with a fixed association order.
///
/// Each chunk `items[c*grain .. (c+1)*grain]` is folded to a partial by
/// `map`; partials are then combined pairwise in a balanced tree, level
/// by level, in ascending chunk order. The tree shape is a pure function
/// of the chunk count, so floating-point accumulation order — and hence
/// every result bit — is independent of the thread count.
pub fn par_reduce<T, U, M, C>(items: &[T], grain: usize, identity: U, map: M, combine: C) -> U
where
    T: Sync,
    U: Send,
    M: Fn(&[T]) -> U + Sync,
    C: Fn(U, U) -> U,
{
    let grain = grain.max(1);
    let n_chunks = chunk_count(items.len(), grain);
    let mut level: Vec<U> = par_tabulate(n_chunks, 1, |c| {
        let lo = c * grain;
        let hi = (lo + grain).min(items.len());
        map(&items[lo..hi])
    });
    while level.len() > 1 {
        let mut next_level = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next_level.push(combine(a, b)),
                None => next_level.push(a),
            }
        }
        level = next_level;
    }
    level.into_iter().next().unwrap_or(identity)
}

/// One empty job handoff through the persistent pool — what every
/// dispatching `par_*` call pays on top of its real work. A no-op when
/// the resolved thread count is 1. Exists for `benchmark/`'s
/// `tensor.pool_dispatch_ns` layer probe; not part of the public contract.
#[doc(hidden)]
pub fn pool_handoff_probe() {
    let threads = engaged_threads(2);
    if threads <= 1 {
        return;
    }
    run_job(threads, &|| {});
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` at each thread count in `sweep`, restoring the default
    /// afterwards, and asserts all results are identical.
    fn sweep_identical<U: PartialEq + std::fmt::Debug>(sweep: &[usize], f: impl Fn() -> U) {
        let mut results = Vec::new();
        for &t in sweep {
            set_threads(Some(t));
            results.push((t, f()));
        }
        set_threads(None);
        for pair in results.windows(2) {
            assert_eq!(
                pair[0].1, pair[1].1,
                "results diverged between {} and {} threads",
                pair[0].0, pair[1].0
            );
        }
    }

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..1013).collect();
        sweep_identical(&[1, 2, 3, 7], || par_map(&items, 17, |&x| x * x + 1));
        set_threads(Some(4));
        let got = par_map(&items, 17, |&x| x * x + 1);
        set_threads(None);
        let want: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_tabulate_handles_empty_and_single() {
        assert_eq!(par_tabulate(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(par_tabulate(1, 8, |i| i + 5), vec![5]);
    }

    #[test]
    fn par_tabulate_with_owned_results_drops_cleanly() {
        // Heap-owning outputs exercise the direct-placement path: every
        // String must land in its slot and drop exactly once.
        set_threads(Some(3));
        let got = par_tabulate(257, 5, |i| format!("item-{i}"));
        set_threads(None);
        for (i, s) in got.iter().enumerate() {
            assert_eq!(s, &format!("item-{i}"));
        }
    }

    #[test]
    fn par_chunks_mut_layout_is_static() {
        sweep_identical(&[1, 2, 5], || {
            let mut data = vec![0usize; 997];
            par_chunks_mut(&mut data, 13, |c, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = c * 1000 + i;
                }
            });
            data
        });
    }

    #[test]
    fn par_reduce_float_sum_is_bit_stable_across_threads() {
        // Adversarial magnitudes: naive reassociation would change bits.
        let xs: Vec<f32> = (0..4096)
            .map(|i| ((i as f32) * 0.37).sin() * 10f32.powi((i % 13) as i32 - 6))
            .collect();
        sweep_identical(&[1, 2, 4, 8], || {
            par_reduce(
                &xs,
                64,
                0.0f32,
                |chunk| chunk.iter().fold(0.0f32, |a, &b| a + b),
                |a, b| a + b,
            )
            .to_bits()
        });
    }

    #[test]
    fn par_reduce_empty_returns_identity() {
        let xs: Vec<f32> = Vec::new();
        let got = par_reduce(&xs, 8, -1.5f32, |c| c.iter().sum(), |a, b| a + b);
        // One empty chunk maps to 0.0, so the identity is only used for
        // a zero-chunk input; chunk_count(0, 8) == 0.
        assert_eq!(got, -1.5);
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        set_threads(Some(4));
        let outer: Vec<u32> = par_tabulate(8, 1, |i| {
            assert!(in_worker(), "job bodies always run with the worker flag set");
            let inner = par_tabulate(64, 4, |j| (i * 64 + j) as u32);
            inner.iter().sum()
        });
        set_threads(None);
        assert!(!in_worker(), "the flag clears once the job completes");
        let want: Vec<u32> = (0..8u32)
            .map(|i| (0..64u32).map(|j| i * 64 + j).sum())
            .collect();
        assert_eq!(outer, want);
    }

    #[test]
    fn thread_override_and_clamps() {
        set_threads(Some(0));
        assert!(num_threads() >= 1);
        set_threads(Some(100_000));
        assert_eq!(num_threads(), MAX_THREADS);
        set_threads(None);
        assert!(num_threads() >= 1);
        assert_eq!(chunk_count(10, 3), 4);
        assert_eq!(chunk_count(10, 0), 10);
        assert_eq!(chunk_count(0, 3), 0);
    }

    #[test]
    fn grain_for_is_pure_and_spans_the_gating_range() {
        // Tiny calls collapse to one chunk (inline).
        assert_eq!(grain_for(8, 10), 8);
        assert_eq!(grain_for(0, 1000), 1);
        // Heavy items get one item per chunk.
        assert_eq!(grain_for(64, DISPATCH_MIN_TOTAL_OPS), 1);
        // Medium items get enough per chunk to clear DISPATCH_MIN_OPS.
        let g = grain_for(100_000, 16);
        assert_eq!(g, DISPATCH_MIN_OPS.div_ceil(16));
        // Pure: the same inputs at any thread count give the same grain.
        sweep_identical(&[1, 2, 5], || grain_for(12_345, 77));
    }

    #[test]
    fn probes_are_safe_at_any_width() {
        for t in [1usize, 2, 3] {
            set_threads(Some(t));
            pool_handoff_probe();
        }
        set_threads(None);
    }
}
