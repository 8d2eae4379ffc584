//! Work-stealing fork-join pool over a fixed set of persistent threads.
//!
//! The hybrid accelerator gets its throughput from many PE tiles operating
//! concurrently; the simulator mirrors that tile-level parallelism on the
//! host with this crate. [`WorkPool::run`] dispatches a task grid
//! (`0..tasks`) across the pool's persistent worker threads **and the
//! calling thread**, blocking until every task has finished — a scoped
//! fork-join, so task closures may borrow from the caller's stack.
//!
//! Design constraints, in order:
//!
//! * **std-only.** The workspace builds fully offline from vendored
//!   sources; this crate has no dependencies at all.
//! * **Determinism-friendly.** The pool never reorders *results* — callers
//!   hand out disjoint index ranges (see [`SharedSliceMut`]) and fold any
//!   order-sensitive accounting sequentially after the join. Nothing about
//!   scheduling leaks into outputs.
//! * **Degrades to serial.** A pool built with one thread — or built on a
//!   host with a single available core, where extra executors can only
//!   time-slice — spawns nothing and runs every task inline on the caller,
//!   byte-for-byte the serial code path with no dispatch attempt and no
//!   lock traffic. Concurrent dispatchers (e.g. several serving workers
//!   sharing one pool) never block each other: a contended dispatch also
//!   falls back to inline execution.
//! * **Cost-aware.** Dispatching a job costs a condvar wake — microseconds.
//!   [`WorkPool::run_costed`] lets the caller attach a work estimate (e.g.
//!   MAC count) to the grid; estimates below the pool's spawn threshold run
//!   inline, so tiny grids never pay more for scheduling than for
//!   arithmetic. The same estimate also sets the *split grain*: leaves
//!   carry enough work to amortize their (nanosecond-scale) deque traffic.
//! * **Idle workers sleep.** Workers park on a condvar between jobs, and
//!   back off exponentially (spin → yield → timed park) when a job has no
//!   stealable work left — no spin-waste on an oversubscribed host.
//!
//! Scheduling is lock-free on the hot path: each executor owns a bounded
//! Chase–Lev deque of index ranges and splits its range lazily in half as
//! long as it exceeds the job's grain, pushing upper halves where idle
//! executors steal them (oldest — largest — first, with randomized victim
//! selection). A shared-nothing design: after the one condvar wake that
//! publishes a job, executors touch only their own deque bottom and CAS
//! other deques' tops, so heterogeneous task costs (packed vs flat tiles
//! have ~2× skew) self-balance without a shared cursor serializing every
//! claim. See `DESIGN.md` §8 for the memory-ordering argument.

mod arena;
mod deque;
mod scheduler;
mod slice;

pub use arena::{current_executor, ScratchArena};
pub use slice::SharedSliceMut;

use scheduler::{Counters, Shared, TaskFn};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A point-in-time snapshot of a pool's internal counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolCounters {
    /// Jobs dispatched across the worker threads.
    pub jobs: u64,
    /// Jobs run inline (serial pool, single-task grid, or contended
    /// dispatch).
    pub inline_jobs: u64,
    /// The subset of `inline_jobs` caused by dispatch contention.
    pub contended_jobs: u64,
    /// Task indices executed by dispatching callers.
    pub caller_tasks: u64,
    /// Task indices executed by pool workers.
    pub worker_tasks: u64,
    /// Ranges stolen from another executor's deque.
    pub steals: u64,
    /// Timed parks taken by executors that found no stealable work.
    pub parks: u64,
    /// Lazy range halvings (stealable upper halves pushed).
    pub splits: u64,
}

/// Default spawn threshold for [`WorkPool::run_costed`], in estimated
/// scalar ops (MACs / element visits). A dispatch costs a condvar wake —
/// order of ten microseconds of combined overhead — so grids estimated
/// under ~32k one-nanosecond ops are better off inline. Tunable per
/// pool.
pub const DEFAULT_SPAWN_THRESHOLD: u64 = 32_768;

/// Target number of leaves per executor when splitting an uncosted grid:
/// enough slack for stealing to balance heterogeneous task costs, coarse
/// enough that deque traffic stays a rounding error.
const LEAVES_PER_EXECUTOR: usize = 8;

/// Divisor applied to the spawn threshold to get the minimum estimated ops
/// a leaf should carry: a split costs two deque operations (~tens of ns),
/// so leaves worth 1/8 of a dispatch keep that overhead below ~1%.
const SPLIT_COST_DIVISOR: u64 = 8;

/// A fixed-size pool of persistent worker threads for scoped fork-join
/// dispatch.
///
/// `WorkPool::new(n)` spawns `n - 1` workers; the caller of
/// [`run`](Self::run) is always the n-th executor. `n = 1` spawns nothing
/// and every job runs inline — the serial code path, bit-for-bit. The
/// requested width is clamped to the host's available cores: on a
/// single-core runner every pool is serial (extra executors could only
/// time-slice the one core and the dispatch overhead would make "parallel"
/// strictly slower than serial).
///
/// # Example
///
/// ```
/// use pim_par::{SharedSliceMut, WorkPool};
///
/// let pool = WorkPool::new(4);
/// let mut squares = vec![0u64; 1000];
/// {
///     let out = SharedSliceMut::new(&mut squares);
///     pool.for_each_chunk(1000, 128, |range| {
///         // SAFETY: chunk ranges from `for_each_chunk` are disjoint.
///         let chunk = unsafe { out.slice(range.clone()) };
///         for (v, i) in chunk.iter_mut().zip(range) {
///             *v = (i as u64) * (i as u64);
///         }
///     });
/// }
/// assert_eq!(squares[31], 961);
/// ```
pub struct WorkPool {
    /// `None` for a serial pool (one thread, nothing spawned).
    inner: Option<Arc<Shared>>,
    /// One dispatch at a time; `try_lock` losers run inline instead of
    /// queueing behind a foreign job.
    dispatch: Mutex<()>,
    counters: Arc<Counters>,
    threads: usize,
    /// Estimated-op floor below which [`Self::run_costed`] stays inline.
    spawn_threshold: u64,
    handles: Vec<JoinHandle<()>>,
}

impl WorkPool {
    /// Creates a pool of `threads` executors (min 1): `threads - 1`
    /// persistent workers plus the dispatching caller. The width is
    /// clamped to the host's available cores, so on a single-core runner
    /// the pool degrades to pure-inline execution (no workers spawned, no
    /// dispatch attempt, no lock traffic) and can never be slower than
    /// the serial path.
    pub fn new(threads: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_forced_threads(threads.min(cores))
    }

    /// [`new`](Self::new) without the available-core clamp — a test/bench
    /// hook so dispatch, stealing, and counter behaviour stay exercised
    /// on single-core CI runners. Production callers want `new`.
    pub fn with_forced_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        let counters = Arc::new(Counters::default());
        if threads == 1 {
            return Self {
                inner: None,
                dispatch: Mutex::new(()),
                counters,
                threads,
                spawn_threshold: DEFAULT_SPAWN_THRESHOLD,
                handles: Vec::new(),
            };
        }
        let inner = Arc::new(Shared::new(threads));
        let handles = (0..threads - 1)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let counters = Arc::clone(&counters);
                std::thread::Builder::new()
                    .name(format!("pim-par-{i}"))
                    .spawn(move || scheduler::worker_loop(i + 1, &inner, &counters))
                    .expect("spawn pool worker thread")
            })
            .collect();
        Self {
            inner: Some(inner),
            dispatch: Mutex::new(()),
            counters,
            threads,
            spawn_threshold: DEFAULT_SPAWN_THRESHOLD,
            handles,
        }
    }

    /// A serial pool: every job runs inline on the caller.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// A shared `'static` serial pool for fallback paths that need a
    /// `&WorkPool` but were not given one — avoids constructing (and
    /// dropping) a pool per call on hot paths.
    pub fn serial_ref() -> &'static WorkPool {
        static SERIAL: OnceLock<WorkPool> = OnceLock::new();
        SERIAL.get_or_init(WorkPool::serial)
    }

    /// Executor count (workers + the dispatching caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the estimated-op floor below which [`Self::run_costed`] runs
    /// inline (min 1), returning the pool builder-style. Scheduling-only:
    /// outputs are bit-identical at every threshold.
    pub fn with_spawn_threshold(mut self, threshold: u64) -> Self {
        self.spawn_threshold = threshold.max(1);
        self
    }

    /// The current spawn threshold (estimated ops).
    pub fn spawn_threshold(&self) -> u64 {
        self.spawn_threshold
    }

    /// Snapshot of the cumulative activity counters.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            jobs: self.counters.jobs.load(Ordering::Relaxed),
            inline_jobs: self.counters.inline_jobs.load(Ordering::Relaxed),
            contended_jobs: self.counters.contended_jobs.load(Ordering::Relaxed),
            caller_tasks: self.counters.caller_tasks.load(Ordering::Relaxed),
            worker_tasks: self.counters.worker_tasks.load(Ordering::Relaxed),
            steals: self.counters.steals.load(Ordering::Relaxed),
            parks: self.counters.parks.load(Ordering::Relaxed),
            splits: self.counters.splits.load(Ordering::Relaxed),
        }
    }

    /// Runs `f(i)` for every `i in 0..tasks`, fanning the indices out over
    /// the pool, and returns when **all** of them have finished. The
    /// caller participates, so a serial pool (or a single-task grid, or a
    /// contended dispatch) degrades to a plain inline loop.
    ///
    /// Each index is executed exactly once. No ordering is guaranteed
    /// between tasks — callers needing a deterministic fold run it
    /// sequentially after `run` returns.
    ///
    /// # Panics
    ///
    /// If any task panics, `run` panics after every task has completed
    /// (the scope never leaks running borrows).
    pub fn run<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        // Uncosted grids split purely by shape: ~8 leaves per executor.
        let grain = (tasks / (self.threads * LEAVES_PER_EXECUTOR)).max(1);
        self.dispatch_grained(tasks, grain, f);
    }

    /// [`run`](Self::run) with a caller-supplied work estimate: when
    /// `estimated_ops` (total scalar work in the grid, e.g. MAC count ×
    /// batch) falls below the pool's spawn threshold, the whole grid runs
    /// inline on the caller — no dispatch attempt, no lock traffic —
    /// because waking workers would cost more than the arithmetic. At or
    /// above the threshold it dispatches, and the same estimate sets the
    /// split grain: leaves carry at least ~1/8 of a threshold's worth of
    /// estimated ops, so deque traffic never dominates fine-grained grids.
    ///
    /// Scheduling-only: each index still runs exactly once, so results are
    /// bit-identical to [`run`](Self::run) at every threshold.
    pub fn run_costed<F: Fn(usize) + Sync>(&self, tasks: usize, estimated_ops: u64, f: F) {
        if tasks == 0 {
            return;
        }
        if self.inner.is_some() && estimated_ops < self.spawn_threshold {
            return self.run_inline(tasks, &f, &self.counters.inline_jobs);
        }
        let per_index = (estimated_ops / tasks.max(1) as u64).max(1);
        let cost_floor = ((self.spawn_threshold / SPLIT_COST_DIVISOR).max(1) / per_index).max(1);
        let shape = (tasks / (self.threads * LEAVES_PER_EXECUTOR)).max(1);
        self.dispatch_grained(tasks, (cost_floor as usize).max(shape), f);
    }

    /// [`for_each_chunk`](Self::for_each_chunk) with the
    /// [`run_costed`](Self::run_costed) inline-below-threshold rule.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn for_each_chunk_costed<F>(&self, total: usize, chunk: usize, estimated_ops: u64, f: F)
    where
        F: Fn(std::ops::Range<usize>) + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        if total == 0 {
            return;
        }
        self.run_costed(total.div_ceil(chunk), estimated_ops, |t| {
            let start = t * chunk;
            f(start..(start + chunk).min(total));
        });
    }

    /// [`run`](Self::run) over `⌈total / chunk⌉` contiguous index ranges:
    /// task `t` receives `t·chunk .. min((t+1)·chunk, total)`. The ranges
    /// partition `0..total`, which is what makes disjoint
    /// [`SharedSliceMut`] writes safe.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn for_each_chunk<F>(&self, total: usize, chunk: usize, f: F)
    where
        F: Fn(std::ops::Range<usize>) + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        if total == 0 {
            return;
        }
        self.run(total.div_ceil(chunk), |t| {
            let start = t * chunk;
            f(start..(start + chunk).min(total));
        });
    }

    /// The dispatch path shared by [`run`](Self::run) and
    /// [`run_costed`](Self::run_costed): publish the root range with the
    /// given split grain, participate as executor 0, retire the job.
    fn dispatch_grained<F: Fn(usize) + Sync>(&self, tasks: usize, grain: usize, f: F) {
        if tasks == 0 {
            return;
        }
        let Some(shared) = &self.inner else {
            return self.run_inline(tasks, &f, &self.counters.inline_jobs);
        };
        if tasks == 1 {
            return self.run_inline(tasks, &f, &self.counters.inline_jobs);
        }
        assert!(
            tasks <= u32::MAX as usize,
            "pim-par grids are u32-indexed (got {tasks} tasks)"
        );
        let Ok(gate) = self.dispatch.try_lock() else {
            return self.run_inline(tasks, &f, &self.counters.contended_jobs);
        };
        self.counters.jobs.fetch_add(1, Ordering::Relaxed);
        let erased: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: the 'static lifetime is a lie told only to the workers.
        // `run_job` does not return (and `f` is not dropped) until every
        // index has completed *and* every worker that joined the job has
        // checked back out, so no worker can observe the closure after it
        // dies — not even one that copied the descriptor and stalled.
        let erased: TaskFn = unsafe { std::mem::transmute(erased) };
        let panicked = scheduler::run_job(shared, &self.counters, erased, tasks, grain);
        drop(gate);
        assert!(!panicked, "pim-par: a parallel task panicked");
    }

    fn run_inline(
        &self,
        tasks: usize,
        f: &(impl Fn(usize) + Sync),
        counter: &std::sync::atomic::AtomicU64,
    ) {
        counter.fetch_add(1, Ordering::Relaxed);
        for i in 0..tasks {
            f(i);
        }
    }
}

impl std::fmt::Debug for WorkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkPool")
            .field("threads", &self.threads)
            .field("counters", &self.counters())
            .finish()
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            inner.begin_shutdown();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    #[test]
    fn every_index_runs_exactly_once() {
        // Forced widths: the available-core clamp must not hide the
        // dispatch path on a single-core CI runner.
        for threads in [1, 2, 4] {
            let pool = WorkPool::with_forced_threads(threads);
            let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
            pool.run(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "index {i} ({threads} threads)"
                );
            }
        }
    }

    #[test]
    fn serial_pool_spawns_nothing_and_runs_inline() {
        let pool = WorkPool::serial();
        assert_eq!(pool.threads(), 1);
        let sum = AtomicU64::new(0);
        pool.run(10, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
        let c = pool.counters();
        assert_eq!(c.jobs, 0);
        assert_eq!(c.inline_jobs, 1);
        assert_eq!(c.worker_tasks, 0);
        assert_eq!((c.steals, c.parks, c.splits), (0, 0, 0));
    }

    #[test]
    fn serial_ref_is_shared_and_serial() {
        let a = WorkPool::serial_ref();
        let b = WorkPool::serial_ref();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.threads(), 1);
        let sum = AtomicU64::new(0);
        a.run(4, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn chunked_ranges_partition_the_total() {
        let pool = WorkPool::with_forced_threads(3);
        let mut seen = vec![0u8; 1001];
        {
            let out = SharedSliceMut::new(&mut seen);
            pool.for_each_chunk(1001, 64, |range| {
                // SAFETY: chunk ranges are disjoint by construction.
                for v in unsafe { out.slice(range) } {
                    *v += 1;
                }
            });
        }
        assert!(seen.iter().all(|&v| v == 1));
    }

    #[test]
    fn disjoint_parallel_writes_land() {
        let pool = WorkPool::with_forced_threads(4);
        let mut data = vec![0u64; 256];
        {
            let out = SharedSliceMut::new(&mut data);
            pool.run(256, |i| {
                // SAFETY: each task owns exactly element i.
                unsafe { out.slice(i..i + 1)[0] = 3 * i as u64 + 1 };
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == 3 * i as u64 + 1));
    }

    #[test]
    fn zero_and_single_task_grids_are_fine() {
        let pool = WorkPool::new(4);
        pool.run(0, |_| panic!("never called"));
        let ran = AtomicUsize::new(0);
        pool.run(1, |i| {
            assert_eq!(i, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        pool.for_each_chunk(0, 8, |_| panic!("never called"));
    }

    #[test]
    fn task_panic_propagates_after_the_join() {
        let pool = WorkPool::with_forced_threads(4);
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(16, |i| {
                if i == 7 {
                    panic!("boom");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "panic must propagate to the dispatcher");
        // The join completed: every non-panicking task ran.
        assert_eq!(finished.load(Ordering::Relaxed), 15);
        // And the pool is still usable afterwards.
        let ok = AtomicUsize::new(0);
        pool.run(8, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn concurrent_dispatchers_fall_back_instead_of_blocking() {
        let pool = Arc::new(WorkPool::with_forced_threads(2));
        let total = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        pool.run(8, |i| {
                            total.fetch_add(i as u64 + 1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("dispatcher thread");
        }
        // 4 dispatchers × 50 jobs × Σ(1..=8) — nothing lost, nothing extra.
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 36);
        let c = pool.counters();
        assert_eq!(c.jobs + c.inline_jobs + c.contended_jobs, 200);
    }

    #[test]
    fn counters_attribute_tasks_to_executors() {
        let pool = WorkPool::with_forced_threads(4);
        pool.run(32, |_| {
            std::thread::yield_now();
        });
        let c = pool.counters();
        assert_eq!(c.jobs, 1);
        assert_eq!(c.caller_tasks + c.worker_tasks, 32);
    }

    #[test]
    fn steals_split_ranges_and_count() {
        // Slow tasks on a forced-wide pool: workers must wake, steal a
        // half, and split further — all three new counters move.
        let pool = WorkPool::with_forced_threads(4);
        let hits = AtomicUsize::new(0);
        pool.run(64, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(100));
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        let c = pool.counters();
        assert!(c.splits > 0, "a 64-index grid on grain 2 must split");
        // Steals require a worker to actually win a race against the
        // caller; on a single-core host the workers may never get
        // scheduled in time, so only assert when they did run tasks.
        if c.worker_tasks > 0 {
            assert!(c.steals > 0, "worker tasks imply at least one steal");
        }
    }

    #[test]
    fn requested_width_is_clamped_to_available_cores() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let pool = WorkPool::new(1024);
        assert!(pool.threads() <= cores, "width never exceeds the host");
        // On a single-core host the clamp makes the pool fully serial:
        // every job is inline, nothing is ever dispatched.
        if cores == 1 {
            let sum = AtomicU64::new(0);
            pool.run(16, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 120);
            let c = pool.counters();
            assert_eq!(c.jobs, 0);
            assert_eq!(c.inline_jobs, 1);
            assert_eq!(c.worker_tasks, 0);
        }
    }

    #[test]
    fn run_costed_stays_inline_below_the_spawn_threshold() {
        let pool = WorkPool::with_forced_threads(4);
        let sum = AtomicU64::new(0);
        // Tiny estimate: the grid runs inline, no dispatch.
        pool.run_costed(8, 10, |i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        let c = pool.counters();
        assert_eq!((c.jobs, c.inline_jobs), (0, 1));
        // Huge estimate: normal dispatch.
        pool.run_costed(8, u64::MAX, |i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(pool.counters().jobs, 1);
        // Both grids ran every index exactly once.
        assert_eq!(sum.load(Ordering::Relaxed), 2 * 36);
    }

    #[test]
    fn spawn_threshold_is_tunable_and_floored_at_one() {
        let pool = WorkPool::with_forced_threads(2).with_spawn_threshold(0);
        assert_eq!(pool.spawn_threshold(), 1);
        // estimate 1 ≥ threshold 1 → dispatches even the smallest grid.
        pool.run_costed(4, 1, |_| {});
        assert_eq!(pool.counters().jobs, 1);

        let lazy = WorkPool::with_forced_threads(2).with_spawn_threshold(u64::MAX);
        let hits = AtomicU64::new(0);
        lazy.for_each_chunk_costed(100, 10, u64::MAX - 1, |r| {
            hits.fetch_add(r.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(lazy.counters().jobs, 0, "below threshold stays inline");
    }

    #[test]
    fn costed_grain_keeps_leaves_above_the_split_floor() {
        // 1024 indices estimated at 32 ops each (32768 total): the cost
        // floor wants leaves of ≥ 4096 ops = 128 indices, which beats the
        // shape grain (1024 / 32 = 32). Halving 1024 down to 128 builds a
        // split tree with exactly 7 internal nodes, no matter which
        // executor performs each split.
        let pool = WorkPool::with_forced_threads(4);
        let hits = AtomicUsize::new(0);
        pool.run_costed(1024, DEFAULT_SPAWN_THRESHOLD, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1024);
        let c = pool.counters();
        assert_eq!(c.jobs, 1);
        assert_eq!(c.splits, 7, "cost floor caps the split tree at 8 leaves");
    }
}
