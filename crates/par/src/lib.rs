//! `mcsim-par` — the workspace's parallel compute substrate.
//!
//! A dependency-free scoped thread pool built on [`std::thread::scope`],
//! offering three primitives:
//!
//! * [`ThreadPool::parallel_for`] — index-range fan-out in fixed chunks;
//! * [`ThreadPool::parallel_map`] — order-preserving map over a slice;
//! * [`ThreadPool::reduce`] — chunked reduction with **fixed chunk
//!   boundaries**, so the folding order (and therefore every floating-point
//!   rounding step) is identical at any thread count.
//!
//! # Determinism
//!
//! Every primitive partitions work into chunks whose boundaries depend only
//! on the input size (never on the thread count), processes each chunk with
//! a serial loop, and combines chunk results in chunk order. A computation
//! routed through this pool therefore produces **bit-identical** results at
//! 1, 2, or N threads — the property the workspace's training-determinism
//! tests pin down.
//!
//! # Sizing
//!
//! The pool defaults to [`std::thread::available_parallelism`]. Override
//! with the `MCSIM_PAR_THREADS` environment variable (read once, at first
//! use) or at runtime with [`set_threads`] (e.g. the experiment harness's
//! serial baseline sets 1). [`ThreadPool::new`] pins an explicit count,
//! ignoring the global setting.
//!
//! Because workers are scoped threads spawned per invocation (no `'static`
//! bound, no unsafe), each fan-out costs a few tens of microseconds; callers
//! gate on [`min_parallel_work`] so only operations with enough work fan
//! out. Tests lower the gate with [`set_min_parallel_work`] to force the
//! parallel path on tiny inputs. Fan-outs issued *from* a worker thread (or
//! any thread marked via [`enter_worker`]) run inline — nested parallelism
//! never spawns.
//!
//! # Observability
//!
//! When an [`mcsim_obs`] recorder is installed, every fan-out records the
//! invocation count (`par.invocations`), chunk count (`par.chunks`), chunks
//! executed by spawned workers rather than the caller (`par.chunks_stolen`),
//! the worker count (`par.threads` gauge), and a per-worker busy-time
//! histogram (`par.worker_busy_s`). A fan-out issued inside a
//! [`mcsim_obs::trace::TraceContext::scope`] enters that trace on every
//! worker, so spans and decisions recorded by the jobs land in it — the
//! only place a trace crosses threads.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ------------------------------------------------------------- global knobs

/// Current global thread-count override; 0 means "use the default".
static CURRENT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Minimum amount of work (caller-defined units, typically FLOPs or
/// elements) below which size-gated callers stay serial.
static MIN_PARALLEL_WORK: AtomicUsize = AtomicUsize::new(DEFAULT_MIN_PARALLEL_WORK);

/// Default work gate: ~2M scalar operations, roughly where a fan-out's
/// thread-spawn cost is safely amortized.
pub const DEFAULT_MIN_PARALLEL_WORK: usize = 1 << 21;

/// The baseline thread count: `MCSIM_PAR_THREADS` if set to a positive
/// integer, otherwise [`std::thread::available_parallelism`] (1 if unknown).
/// Resolved once per process.
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("MCSIM_PAR_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The effective global thread count: the latest [`set_threads`] override,
/// or [`default_threads`] if none was set.
pub fn threads() -> usize {
    match CURRENT_THREADS.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Overrides the global thread count at runtime (minimum 1). Pass the value
/// of [`default_threads`] to restore the baseline. Returns the previous
/// effective count.
pub fn set_threads(n: usize) -> usize {
    let prev = threads();
    CURRENT_THREADS.store(n.max(1), Ordering::Relaxed);
    prev
}

/// The current work gate used by size-gated callers (see
/// [`set_min_parallel_work`]).
pub fn min_parallel_work() -> usize {
    MIN_PARALLEL_WORK.load(Ordering::Relaxed)
}

thread_local! {
    /// True while this thread is executing work on behalf of a fan-out (a
    /// pool worker, or any thread marked via [`enter_worker`]).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True on a thread currently executing fan-out work. Pool primitives run
/// inline on such threads instead of spawning nested workers.
pub fn on_worker_thread() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Marks the current thread as a compute worker until the guard drops:
/// every pool primitive called from it runs inline instead of spawning.
/// The pool marks its own workers automatically; external engines that
/// spawn long-lived compute threads (e.g. a training loop's microbatch
/// workers) should mark them too, so inner kernels never oversubscribe the
/// machine with nested thread spawns. Results are unaffected — the pool's
/// serial and parallel paths are bit-identical by construction.
pub fn enter_worker() -> WorkerGuard {
    let prev = IN_WORKER.with(|f| f.replace(true));
    WorkerGuard { prev }
}

/// Restores the thread's previous worker marking on drop (see
/// [`enter_worker`]).
#[must_use = "the worker marking lasts until the guard drops"]
pub struct WorkerGuard {
    prev: bool,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_WORKER.with(|f| f.set(self.prev));
    }
}

/// Runs `f` with the global thread count pinned to `n`, restoring the
/// previous setting afterwards (also on panic). The sweep harness uses this
/// to execute each thread-count group of a scenario matrix at its declared
/// pool size without leaking the override into the rest of the process.
///
/// The override is process-global, exactly like [`set_threads`]: concurrent
/// callers racing on it would observe each other's settings. Results are
/// unaffected either way — the pool is bit-identical at any thread count —
/// so the scope guard is about keeping *scheduling* intent local.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_threads(self.0);
        }
    }
    let _restore = Restore(set_threads(n));
    f()
}

/// Sets the work gate. Tests set 1 to force parallel execution on tiny
/// inputs; benchmarks may raise it to keep small kernels serial. Returns the
/// previous gate.
pub fn set_min_parallel_work(work: usize) -> usize {
    MIN_PARALLEL_WORK.swap(work.max(1), Ordering::Relaxed)
}

// ------------------------------------------------------------------- pool

/// A handle to the scoped thread pool.
///
/// The handle is `Copy` and holds no OS resources: workers are scoped
/// threads spawned per invocation and joined before the call returns, so a
/// `ThreadPool` can be freely stored, cloned, and shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    fixed: Option<usize>,
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::global()
    }
}

impl ThreadPool {
    /// A pool pinned to exactly `n` threads (minimum 1), ignoring the
    /// global setting.
    pub fn new(n: usize) -> ThreadPool {
        ThreadPool {
            fixed: Some(n.max(1)),
        }
    }

    /// The pool that tracks the global thread setting ([`threads`]) at each
    /// invocation — the handle every library hot path uses.
    pub fn global() -> ThreadPool {
        ThreadPool { fixed: None }
    }

    /// This pool's current thread count.
    pub fn threads(&self) -> usize {
        self.fixed.unwrap_or_else(threads)
    }

    /// Runs `body` over `0..n` split into contiguous chunks of at least
    /// `min_chunk` indices. Chunk boundaries depend only on `n` and
    /// `min_chunk`, so per-chunk work is identical at any thread count.
    pub fn parallel_for<F>(&self, n: usize, min_chunk: usize, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if n == 0 {
            return;
        }
        let chunk = chunk_size(n, min_chunk);
        let jobs: Vec<Range<usize>> = (0..n)
            .step_by(chunk)
            .map(|lo| lo..(lo + chunk).min(n))
            .collect();
        run_jobs(self.threads(), jobs, body);
    }

    /// Maps `f` over `items`, preserving order. `f` runs once per item; the
    /// output vector is exactly `items.iter().map(f).collect()` regardless
    /// of the thread count.
    pub fn parallel_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let n = items.len();
        let threads = self.threads();
        if n == 0 {
            return Vec::new();
        }
        if threads <= 1 || n == 1 {
            return items.iter().map(f).collect();
        }
        // Small chunks load-balance uneven items; boundaries only affect
        // scheduling, never results.
        let chunk = chunk_size(n, 1).min(n.div_ceil(threads * 4).max(1));
        let mut out: Vec<Option<U>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        {
            let jobs: Vec<(&[T], &mut [Option<U>])> =
                items.chunks(chunk).zip(out.chunks_mut(chunk)).collect();
            run_jobs(threads, jobs, |(inp, outp)| {
                for (slot, item) in outp.iter_mut().zip(inp) {
                    *slot = Some(f(item));
                }
            });
        }
        out.into_iter()
            .map(|slot| slot.expect("every chunk was processed"))
            .collect()
    }

    /// [`ThreadPool::parallel_map`] behind the global work gate: stays on
    /// the calling thread when `items.len() × item_work` (caller-estimated
    /// units, typically FLOPs or elements) is below [`min_parallel_work`],
    /// so small fan-outs don't pay the thread-spawn cost. Results are
    /// identical either way — only the scheduling changes.
    pub fn parallel_map_gated<T, U, F>(&self, items: &[T], item_work: usize, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        if items.len().saturating_mul(item_work) < min_parallel_work() {
            return items.iter().map(f).collect();
        }
        self.parallel_map(items, f)
    }

    /// Splits `data` into consecutive chunks of `chunk_len` elements (the
    /// last may be shorter) and runs `f(chunk_index, chunk)` on each. The
    /// chunks are disjoint `&mut` views, so workers write results in place
    /// without synchronization — the engine behind the parallel matrix
    /// kernels.
    pub fn parallel_for_chunks_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        let chunk_len = chunk_len.max(1);
        let jobs: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_len).enumerate().collect();
        run_jobs(self.threads(), jobs, |(i, chunk)| f(i, chunk));
    }

    /// Runs `f` once per job, draining `jobs` across the pool. The
    /// lowest-level primitive: callers that need several mutable slices
    /// partitioned at matching boundaries (e.g. an optimizer updating
    /// value/grad/moment arrays in lock-step) zip the chunks into job
    /// tuples and hand them here.
    pub fn for_each<J, F>(&self, jobs: Vec<J>, f: F)
    where
        J: Send,
        F: Fn(J) + Sync,
    {
        run_jobs(self.threads(), jobs, f);
    }

    /// Deterministic chunked reduction: maps each fixed-boundary chunk of
    /// `chunk` items to a partial with `map`, then folds the partials **in
    /// chunk order** with `fold`. Returns `None` on empty input. Because
    /// both the chunk boundaries and the fold order are independent of the
    /// thread count, the result is bit-identical at any parallelism.
    pub fn reduce<T, A, M, F>(&self, items: &[T], chunk: usize, map: M, fold: F) -> Option<A>
    where
        T: Sync,
        A: Send,
        M: Fn(&[T]) -> A + Sync,
        F: Fn(A, A) -> A,
    {
        if items.is_empty() {
            return None;
        }
        let chunk = chunk.max(1);
        let chunks: Vec<&[T]> = items.chunks(chunk).collect();
        let partials = self.parallel_map(&chunks, |c| map(c));
        partials.into_iter().reduce(fold)
    }
}

/// Chunk size for `n` items with a floor of `min_chunk`.
fn chunk_size(n: usize, min_chunk: usize) -> usize {
    min_chunk.max(1).min(n.max(1))
}

/// The fan-out engine: drains `jobs` from a shared queue across
/// `threads - 1` spawned scoped workers plus the calling thread. Chunk
/// *assignment* is dynamic (work stealing from the queue); chunk *content*
/// is fixed by the caller, which is what preserves determinism.
fn run_jobs<J, F>(threads: usize, jobs: Vec<J>, f: F)
where
    J: Send,
    F: Fn(J) + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return;
    }
    // Nested fan-outs run inline: a kernel called from a worker thread (or
    // any thread marked via `enter_worker`) already has its share of the
    // machine, so spawning more threads only oversubscribes and allocates.
    if threads <= 1 || n == 1 || on_worker_thread() {
        for job in jobs {
            f(job);
        }
        return;
    }
    let instrumented = mcsim_obs::enabled();
    if instrumented {
        mcsim_obs::counter("par.invocations", 1);
        mcsim_obs::counter("par.chunks", n as u64);
        mcsim_obs::gauge("par.threads", threads.min(n) as f64);
    }
    let queue = Mutex::new(jobs.into_iter());
    let drain = |is_caller: bool| {
        let started = Instant::now();
        let mut ran: u64 = 0;
        loop {
            let job = {
                let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                q.next()
            };
            match job {
                Some(job) => {
                    f(job);
                    ran += 1;
                }
                None => break,
            }
        }
        if instrumented && ran > 0 {
            mcsim_obs::observe("par.worker_busy_s", started.elapsed().as_secs_f64());
            if !is_caller {
                mcsim_obs::counter("par.chunks_stolen", ran);
            }
        }
    };
    // Workers record into the caller's trace, if it is inside one.
    let trace = mcsim_obs::trace::current();
    std::thread::scope(|s| {
        for _ in 1..threads.min(n) {
            s.spawn(|| {
                let _worker = enter_worker();
                match &trace {
                    Some(ctx) => ctx.scope(|| drain(false)),
                    None => drain(false),
                }
            });
        }
        let _worker = enter_worker();
        drain(true);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// Tests in this binary share the global thread setting and the global
    /// metrics recorder (every fan-out bumps `par.*` counters); serialize
    /// them all.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn parallel_map_preserves_order_and_length() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let items: Vec<u64> = (0..1000).collect();
        for t in [1, 2, 8] {
            let pool = ThreadPool::new(t);
            let out = pool.parallel_map(&items, |&x| x * x);
            assert_eq!(out.len(), items.len());
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, (i as u64) * (i as u64), "index {i} at {t} threads");
            }
        }
    }

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let n = 997; // prime, so chunks never divide evenly
        for t in [1, 3, 8] {
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            ThreadPool::new(t).parallel_for(n, 10, |range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{t} threads"
            );
        }
    }

    #[test]
    fn chunked_reduce_is_bit_identical_across_thread_counts() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Floating-point data chosen so that a different summation order
        // would change the rounding; the fixed chunk boundaries must not.
        let xs: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2_654_435_761_usize) as f64).sin() * 1e8)
            .collect();
        let sum_at = |t: usize| {
            ThreadPool::new(t)
                .reduce(&xs, 64, |c| c.iter().sum::<f64>(), |a, b| a + b)
                .unwrap()
        };
        let reference = sum_at(1);
        for t in [2, 4, 8] {
            assert_eq!(reference.to_bits(), sum_at(t).to_bits(), "{t} threads");
        }
    }

    #[test]
    fn chunks_mut_views_are_disjoint_and_complete() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut data = vec![0u32; 1003];
        ThreadPool::new(4).parallel_for_chunks_mut(&mut data, 100, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v += 1 + ci as u32;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, 1 + (i / 100) as u32, "element {i}");
        }
    }

    #[test]
    fn gated_map_stays_serial_below_the_work_gate() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = set_min_parallel_work(1_000_000);
        let main_id = std::thread::current().id();
        let items: Vec<u64> = (0..64).collect();
        // 64 × 100 work units is far below the gate: every item must run on
        // the calling thread.
        let out = ThreadPool::new(8).parallel_map_gated(&items, 100, |&x| {
            assert_eq!(std::thread::current().id(), main_id, "fan-out despite gate");
            x * 2
        });
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        // Above the gate it still produces the same results.
        let out = ThreadPool::new(8).parallel_map_gated(&items, 1_000_000, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        set_min_parallel_work(prev);
    }

    #[test]
    fn nested_fan_outs_run_inline_on_worker_threads() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // A map dispatched from inside a pool job must not spawn further
        // threads: each inner item runs on the thread that called it.
        let items: Vec<u64> = (0..4).collect();
        let out = ThreadPool::new(4).parallel_map(&items, |&x| {
            let me = std::thread::current().id();
            let inner: Vec<u64> = ThreadPool::new(4).parallel_map(&items, |&y| {
                assert_eq!(std::thread::current().id(), me, "nested spawn");
                x * 10 + y
            });
            inner.iter().sum::<u64>()
        });
        assert_eq!(out, vec![6, 46, 86, 126]);

        // The same holds for threads explicitly marked via enter_worker.
        let me = std::thread::current().id();
        let guard = enter_worker();
        assert!(on_worker_thread());
        ThreadPool::new(8).parallel_for(16, 1, |r| {
            for _ in r {
                assert_eq!(std::thread::current().id(), me, "spawn despite marking");
            }
        });
        drop(guard);
        assert!(!on_worker_thread());
    }

    #[test]
    fn empty_inputs_are_no_ops() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let pool = ThreadPool::new(4);
        assert!(pool.parallel_map(&[] as &[u8], |&b| b).is_empty());
        pool.parallel_for(0, 8, |_| panic!("must not run"));
        pool.parallel_for_chunks_mut(&mut [] as &mut [u8], 4, |_, _| panic!("must not run"));
        assert!(pool
            .reduce(&[] as &[u8], 4, |_| 0u64, |a, b| a + b)
            .is_none());
    }

    #[test]
    fn global_thread_override_round_trips() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let baseline = threads();
        set_threads(3);
        assert_eq!(threads(), 3);
        assert_eq!(ThreadPool::global().threads(), 3);
        assert_eq!(ThreadPool::new(7).threads(), 7, "fixed pools are pinned");
        set_threads(baseline);
        assert_eq!(threads(), baseline);
    }

    #[test]
    fn with_threads_scopes_the_override_and_restores_on_panic() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let baseline = threads();
        let inner = with_threads(5, || {
            assert_eq!(threads(), 5);
            ThreadPool::global().threads()
        });
        assert_eq!(inner, 5);
        assert_eq!(threads(), baseline, "override must not leak");
        // A panicking body still restores the previous setting.
        let caught = std::panic::catch_unwind(|| with_threads(3, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(threads(), baseline, "override must not leak on panic");
    }

    #[test]
    fn min_parallel_work_gate_round_trips() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = set_min_parallel_work(123);
        assert_eq!(min_parallel_work(), 123);
        set_min_parallel_work(prev);
        assert_eq!(min_parallel_work(), prev);
    }

    #[test]
    fn fan_outs_are_instrumented() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rec = Arc::new(mcsim_obs::InMemoryRecorder::new());
        mcsim_obs::install(rec.clone());
        let out = ThreadPool::new(4).parallel_map(&(0..256).collect::<Vec<_>>(), |&x| x + 1);
        mcsim_obs::uninstall();
        assert_eq!(out.len(), 256);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("par.invocations"), 1);
        assert!(snap.counter("par.chunks") >= 4);
        assert!(snap.histogram("par.worker_busy_s").is_some());
    }

    #[test]
    fn fan_outs_inherit_the_callers_trace() {
        use mcsim_obs::trace::{self, Decision, Fallback, TraceContext};
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let items: Vec<u64> = (0..64).collect();
        let job = |&x: &u64| {
            let _s = mcsim_obs::span("job");
            trace::decision(|| {
                Decision::Fallback(Fallback {
                    query_id: x,
                    reason: "job".into(),
                })
            });
            trace::current().is_some()
        };
        for t in [1, 2, 8] {
            let pool = ThreadPool::new(t);
            let ctx = TraceContext::new("par");
            let traced = ctx.scope(|| pool.parallel_map(&items, job));
            assert!(traced.iter().all(|&b| b), "{t} threads: a job ran untraced");
            assert_eq!(ctx.span_count(), items.len(), "{t} threads");
            let mut ids: Vec<u64> = ctx
                .decisions()
                .iter()
                .map(|d| match d {
                    Decision::Fallback(f) => f.query_id,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            ids.sort_unstable();
            assert_eq!(ids, items, "{t} threads");
            assert!(trace::current().is_none(), "{t} threads: scope leaked");

            let caught = std::panic::catch_unwind(|| {
                ctx.scope(|| pool.parallel_map(&items, |&x| assert!(x < 32, "boom")))
            });
            assert!(caught.is_err());
            assert!(trace::current().is_none(), "{t} threads: leaked on panic");

            // Outside every scope a fan-out records into no trace.
            let before = (ctx.span_count(), ctx.decision_count());
            let untraced = pool.parallel_map(&items, job);
            assert!(untraced.iter().all(|&b| !b), "{t} threads");
            assert_eq!((ctx.span_count(), ctx.decision_count()), before);
        }
    }

    #[test]
    fn caller_thread_participates_in_the_work() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Two jobs rendezvous on a 2-party barrier, so they can only both
        // finish if two distinct threads each take one — the single spawned
        // worker can't run both. The caller must therefore run exactly one.
        let main_id = std::thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        let ran_on_main = AtomicU64::new(0);
        ThreadPool::new(2).parallel_for(2, 1, |_| {
            barrier.wait();
            if std::thread::current().id() == main_id {
                ran_on_main.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(ran_on_main.load(Ordering::Relaxed), 1);
    }
}
