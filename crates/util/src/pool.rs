//! Persistent worker pool with sticky per-worker scratch and
//! deterministic, input-ordered results.
//!
//! Spawning fresh OS threads on every call would be wasteful for
//! streaming decodes that fan out per *frame*: a long stream would pay
//! a spawn (and a cold scratch build) per frame per worker. [`WorkerPool`]
//! amortizes both. Workers are spawned once — on first demand, up to the
//! pool's cap — then park on a condvar work queue; each worker keeps a
//! [`WorkerScratch`] of sticky, type-keyed slots (e.g. a warm solver
//! workspace keyed by tile geometry) that survives across tasks, maps,
//! and frames, so the steady state allocates nothing and spawns nothing.
//!
//! Results are assembled by input index, so [`WorkerPool::map`] output
//! is **bit-identical at any thread count** whenever the task function
//! is itself deterministic. Panics inside tasks are caught on the
//! worker, re-raised on the caller after the map drains, and never kill
//! pool workers.
//!
//! Because workers are long-lived, tasks must be `'static`: callers
//! hand the pool owned items and owned (or `Arc`-shared) captures.
//!
//! Nesting is safe by construction: a `map` issued *from a pool worker*
//! runs inline on that worker (no new tickets, no oversubscription, no
//! deadlock — workers never block on the pool; only root callers wait,
//! and they work down their own task set while waiting).
//!
//! # Examples
//!
//! ```
//! use tepics_util::pool::WorkerPool;
//!
//! let squares = WorkerPool::global().map(4, (0u64..5).collect(), |_, x, _| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//! ```

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::parallel;

/// A queued unit of pool work (a whole-map ticket or a broadcast
/// rendezvous, never a single item).
type Job = Box<dyn FnOnce() + Send>;

/// Environment variable capping the global pool's helper workers (the
/// caller always participates on top). Unset or unparsable means
/// [`DEFAULT_MAX_WORKERS`].
pub const POOL_THREADS_ENV: &str = "TEPICS_POOL_THREADS";

/// Worker cap of the global pool when [`POOL_THREADS_ENV`] is unset.
/// Generous on purpose: workers only spawn on demand, so an 8-core host
/// asking for `threads(4)` creates 3, not 64.
pub const DEFAULT_MAX_WORKERS: usize = 64;

thread_local! {
    /// Set once, permanently, on pool worker threads.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
    /// This thread's sticky scratch, parked here between tasks.
    static SCRATCH: Cell<Option<Box<WorkerScratch>>> = const { Cell::new(None) };
    /// True while the sticky scratch is lent out to a running task
    /// (reentrant users get a throwaway scratch instead).
    static SCRATCH_BUSY: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is a pool worker. Callers that hold warm
/// per-call state of their own (e.g. a decode session's workspace) can
/// use this to prefer their serial path over a nested — inline anyway —
/// pool map.
#[must_use]
pub fn is_worker_thread() -> bool {
    IS_WORKER.with(Cell::get)
}

/// Locks `m`, recovering the guard from a poisoned mutex: pool state
/// stays usable even if a task panicked while a lock was held (the
/// panic itself is still reported to the map's caller).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Restores the thread's sticky scratch (and clears the busy flag) when
/// the borrow ends — including by unwind, so a panicking task does not
/// strand the thread without scratch.
struct ScratchLease(Option<Box<WorkerScratch>>);

impl Drop for ScratchLease {
    fn drop(&mut self) {
        SCRATCH.with(|slot| slot.set(self.0.take()));
        SCRATCH_BUSY.with(|busy| busy.set(false));
    }
}

/// Runs `f` with this thread's sticky scratch. Reentrant calls (a
/// nested map running inline inside an outer task, which already
/// borrows the sticky scratch) get a throwaway scratch instead.
fn with_scratch<R>(f: impl FnOnce(&mut WorkerScratch) -> R) -> R {
    if SCRATCH_BUSY.with(Cell::get) {
        let mut temp = WorkerScratch::default();
        return f(&mut temp);
    }
    SCRATCH_BUSY.with(|busy| busy.set(true));
    let taken = SCRATCH.with(Cell::take).unwrap_or_default();
    let mut lease = ScratchLease(Some(taken));
    f(lease
        .0
        .as_mut()
        // tidy:allow(panic: the lease was constructed with Some two lines up)
        .expect("scratch lease holds the taken scratch"))
}

/// Sticky per-worker storage: type-and-key-addressed slots that survive
/// across tasks, maps, and frames.
///
/// Slots hold whatever warm state a task family wants to reuse — the
/// decode stack parks a solver workspace per tile geometry — and are
/// bounded (least-recently-used slot evicted beyond
/// [`WorkerScratch::MAX_SLOTS`]), so a worker serving many geometries
/// cannot grow without limit.
#[derive(Default)]
pub struct WorkerScratch {
    /// Most-recently-used first; each entry is `(key, state)`.
    slots: Vec<(u64, Box<dyn Any + Send>)>,
}

impl WorkerScratch {
    /// Maximum retained slots per worker (LRU beyond this).
    pub const MAX_SLOTS: usize = 8;

    /// Returns the slot for `(key, S)`, creating it with `init` on
    /// first use. A key can back distinct types without collision; the
    /// slot moves to most-recently-used position on every access.
    pub fn slot<S: Any + Send, F: FnOnce() -> S>(&mut self, key: u64, init: F) -> &mut S {
        match self
            .slots
            .iter()
            .position(|(k, state)| *k == key && state.is::<S>())
        {
            Some(pos) => self.slots[..=pos].rotate_right(1),
            None => {
                if self.slots.len() == Self::MAX_SLOTS {
                    self.slots.pop();
                }
                self.slots.insert(0, (key, Box::new(init())));
            }
        }
        self.slots[0]
            .1
            .downcast_mut::<S>()
            // tidy:allow(panic: slot 0 was just matched or inserted as type S)
            .expect("front scratch slot has the requested type")
    }

    /// Number of live slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

impl std::fmt::Debug for WorkerScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerScratch")
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// Shared queue + worker accounting of one pool.
struct PoolState {
    jobs: VecDeque<Job>,
    /// Live worker threads (spawned, not shut down).
    workers: usize,
    /// Set by [`WorkerPool`]'s `Drop`: workers drain the queue and exit.
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    /// Signals queued work (and shutdown) to parked workers.
    work_ready: Condvar,
    /// Serializes [`WorkerPool::broadcast`] rendezvous: two concurrent
    /// broadcasts could each hold half the workers forever.
    broadcast_gate: Mutex<()>,
    max_workers: usize,
}

/// A persistent worker pool. See the [module docs](self) for the
/// execution and determinism model; most callers want the process-wide
/// [`WorkerPool::global`] instance.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.worker_count())
            .field("max_workers", &self.inner.max_workers)
            .finish()
    }
}

/// One `map` call's shared task state: an index-enumerated item queue,
/// an input-ordered result table, and completion/panic plumbing.
struct TaskSet<T, R, F> {
    f: F,
    items: Mutex<std::iter::Enumerate<std::vec::IntoIter<T>>>,
    results: Mutex<Vec<Option<R>>>,
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Claims and runs items from `set` until the queue is empty. Runs on
/// every participating executor — the root caller and each ticketed
/// worker — with that executor's sticky scratch. Results land at their
/// input index, so *which* executor ran an item never shows in the
/// output. A panicking item is recorded (first payload wins) and the
/// claim loop continues, matching the batch engine's
/// "every item still executes" contract.
// tidy:alloc-free
fn run_tasks<T, R, F>(set: &TaskSet<T, R, F>)
where
    F: Fn(usize, T, &mut WorkerScratch) -> R,
{
    with_scratch(|scratch| loop {
        let claimed = lock(&set.items).next();
        let Some((index, item)) = claimed else {
            break;
        };
        match catch_unwind(AssertUnwindSafe(|| (set.f)(index, item, scratch))) {
            Ok(result) => {
                if let Some(slot) = lock(&set.results).get_mut(index) {
                    *slot = Some(result);
                }
            }
            Err(payload) => {
                let mut first = lock(&set.panic);
                if first.is_none() {
                    *first = Some(payload);
                }
            }
        }
        let mut remaining = lock(&set.remaining);
        *remaining -= 1;
        if *remaining == 0 {
            set.done.notify_all();
        }
    });
}

/// One `broadcast` call's shared state: a rendezvous barrier that pins
/// each ticket to a distinct worker, plus completion/panic plumbing.
struct BroadcastSet<F> {
    f: F,
    /// Tickets that must all be claimed before any runs (forces
    /// distinct workers).
    needed: usize,
    arrived: Mutex<usize>,
    all_arrived: Condvar,
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Runs one broadcast ticket: rendezvous with the other tickets (so
/// `needed` *distinct* workers hold one each), then run `f` on this
/// worker's sticky scratch.
fn run_broadcast<F: Fn(&mut WorkerScratch)>(set: &BroadcastSet<F>) {
    {
        let mut arrived = lock(&set.arrived);
        *arrived += 1;
        if *arrived == set.needed {
            set.all_arrived.notify_all();
        }
        while *arrived < set.needed {
            arrived = set
                .all_arrived
                .wait(arrived)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| with_scratch(|s| (set.f)(s)))) {
        let mut first = lock(&set.panic);
        if first.is_none() {
            *first = Some(payload);
        }
    }
    let mut remaining = lock(&set.remaining);
    *remaining -= 1;
    if *remaining == 0 {
        set.done.notify_all();
    }
}

/// A worker's life: claim a job or park on the condvar; exit only at
/// pool shutdown, after the queue drains. Job panics are caught here as
/// a last resort (map/broadcast tickets catch their own), so a worker
/// thread is never lost to a panicking task.
// tidy:alloc-free
fn worker_loop(inner: &PoolInner) {
    IS_WORKER.with(|w| w.set(true));
    let mut state = lock(&inner.state);
    loop {
        if let Some(job) = state.jobs.pop_front() {
            drop(state);
            let _ = catch_unwind(AssertUnwindSafe(job));
            state = lock(&inner.state);
        } else if state.shutdown {
            state.workers -= 1;
            return;
        } else {
            state = inner
                .work_ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl WorkerPool {
    /// A private pool capped at `max_workers` helper threads (floored
    /// at 1). Workers spawn on demand, not up front.
    #[must_use]
    pub fn new(max_workers: usize) -> WorkerPool {
        WorkerPool {
            inner: Arc::new(PoolInner {
                state: Mutex::new(PoolState {
                    jobs: VecDeque::new(),
                    workers: 0,
                    shutdown: false,
                }),
                work_ready: Condvar::new(),
                broadcast_gate: Mutex::new(()),
                max_workers: max_workers.max(1),
            }),
        }
    }

    /// The process-wide shared pool, created lazily on first use and
    /// capped by the [`POOL_THREADS_ENV`] environment variable
    /// (helper-worker count; unset/unparsable ⇒
    /// [`DEFAULT_MAX_WORKERS`]). All decode sessions and batch runners
    /// share this instance, so a service decoding many streams warms
    /// one set of workers.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cap = std::env::var(POOL_THREADS_ENV)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(DEFAULT_MAX_WORKERS);
            WorkerPool::new(cap)
        })
    }

    /// Live worker threads (0 until first demand).
    #[must_use]
    pub fn worker_count(&self) -> usize {
        lock(&self.inner.state).workers
    }

    /// The pool's helper-worker cap.
    #[must_use]
    pub fn max_workers(&self) -> usize {
        self.inner.max_workers
    }

    /// Spawns workers until `wanted` exist (capped by `max_workers`),
    /// returning the live count. Spawn failures are tolerated: the
    /// caller participates in every map, so progress never depends on a
    /// successful spawn.
    fn ensure_workers(&self, wanted: usize) -> usize {
        let target = wanted.min(self.inner.max_workers);
        let mut state = lock(&self.inner.state);
        while state.workers < target {
            let inner = Arc::clone(&self.inner);
            let spawned = std::thread::Builder::new()
                .name("tepics-pool".into())
                .spawn(move || worker_loop(&inner));
            if spawned.is_err() {
                break;
            }
            state.workers += 1;
            parallel::record_spawns(1);
        }
        state.workers
    }

    /// Maps `f` over `items` on up to `threads` executors (this thread
    /// plus up to `threads − 1` pool workers), returning results in
    /// input order — bit-identical at any thread count for a
    /// deterministic `f`.
    ///
    /// `f` receives `(index, item, scratch)`; the scratch is the
    /// executor's sticky [`WorkerScratch`], warm from previous maps.
    /// With `threads <= 1`, a single item, or when called from a pool
    /// worker (nested use), the whole map runs inline on the calling
    /// thread.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic observed among the items (after every
    /// item has executed). Workers survive.
    pub fn map<T, R, F>(&self, threads: usize, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T, &mut WorkerScratch) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let want = threads.max(1).min(n);
        if want <= 1 || is_worker_thread() {
            return with_scratch(|scratch| {
                items
                    .into_iter()
                    .enumerate()
                    .map(|(i, item)| f(i, item, scratch))
                    .collect()
            });
        }
        let mut results = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let set = Arc::new(TaskSet {
            f,
            items: Mutex::new(items.into_iter().enumerate()),
            results: Mutex::new(results),
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        let helpers = self.ensure_workers(want - 1).min(want - 1);
        {
            let mut state = lock(&self.inner.state);
            for _ in 0..helpers {
                let ticket = Arc::clone(&set);
                state.jobs.push_back(Box::new(move || run_tasks(&ticket)));
            }
        }
        self.inner.work_ready.notify_all();
        // The caller is executor #0: it works the same queue instead of
        // blocking, so the map completes even with zero live workers.
        run_tasks(&set);
        let mut remaining = lock(&set.remaining);
        while *remaining > 0 {
            remaining = set
                .done
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(remaining);
        let panicked = lock(&set.panic).take();
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
        let results = std::mem::take(&mut *lock(&set.results));
        results
            .into_iter()
            // tidy:allow(panic: the enumerate queue hands every index to exactly one executor)
            .map(|slot| slot.expect("every index ran exactly once"))
            .collect()
    }

    /// Runs `f` once on the calling thread and once on each of
    /// `executors − 1` distinct pool workers (spawning up to the cap),
    /// returning after all have finished. A rendezvous barrier pins
    /// each ticket to a different worker, so this deterministically
    /// touches `executors` distinct sticky scratches — the warm-up
    /// primitive behind `DecodeSession::prewarm`.
    ///
    /// Inline (a plain single call) when `executors <= 1` or when
    /// called from a pool worker.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic `f` produced on any executor.
    pub fn broadcast<F>(&self, executors: usize, f: F)
    where
        F: Fn(&mut WorkerScratch) + Send + Sync + 'static,
    {
        if executors <= 1 || is_worker_thread() {
            with_scratch(|scratch| f(scratch));
            return;
        }
        // One rendezvous at a time: two interleaved broadcasts could
        // each capture half the workers and wait forever.
        let _gate = lock(&self.inner.broadcast_gate);
        let workers = self.ensure_workers(executors - 1).min(executors - 1);
        let set = Arc::new(BroadcastSet {
            f,
            needed: workers,
            arrived: Mutex::new(0),
            all_arrived: Condvar::new(),
            remaining: Mutex::new(workers),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut state = lock(&self.inner.state);
            for _ in 0..workers {
                let ticket = Arc::clone(&set);
                state
                    .jobs
                    .push_back(Box::new(move || run_broadcast(&ticket)));
            }
        }
        self.inner.work_ready.notify_all();
        // The caller warms its own scratch while the workers rendezvous.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| with_scratch(|s| (set.f)(s)))) {
            let mut first = lock(&set.panic);
            if first.is_none() {
                *first = Some(payload);
            }
        }
        let mut remaining = lock(&set.remaining);
        while *remaining > 0 {
            remaining = set
                .done
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(remaining);
        let panicked = lock(&set.panic).take();
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    /// Signals workers to drain the queue and exit. The global pool is
    /// never dropped; this keeps test-private pools from leaking parked
    /// threads.
    fn drop(&mut self) {
        lock(&self.inner.state).shutdown = true;
        self.inner.work_ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Deterministic per-item busy-spin: skews task durations without
    /// sleeping, so scheduling order varies adversarially across runs
    /// while the work stays CPU-bound.
    fn spin(index: usize) -> u64 {
        let rounds = (index as u64).wrapping_mul(2_654_435_761) % 4_096;
        let mut acc = index as u64 | 1;
        for _ in 0..rounds {
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        }
        acc
    }

    #[test]
    fn map_preserves_input_order() {
        let pool = WorkerPool::new(4);
        let out = pool.map(4, (0usize..257).collect(), |i, x, _| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..257).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_is_deterministic_under_adversarial_skew() {
        let pool = WorkerPool::new(8);
        let task = |i: usize, x: u64, _: &mut WorkerScratch| x.wrapping_add(spin(i));
        let serial = pool.map(1, (0u64..300).collect(), task);
        for threads in [2, 3, 8, 64] {
            let parallel = pool.map(threads, (0u64..300).collect(), task);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = WorkerPool::new(2);
        let empty: Vec<u8> = Vec::new();
        assert!(pool.map(4, empty, |_, x: u8, _| x).is_empty());
        assert_eq!(pool.map(4, vec![7u8], |_, x, _| x + 1), vec![8]);
        // Zero threads runs inline, like one.
        assert_eq!(pool.map(0, vec![1, 2, 3], |_, x, _| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn workers_spawn_on_demand_and_only_once() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.worker_count(), 0, "no demand yet");
        pool.map(3, (0..32).collect(), |i, _: i32, _| spin(i));
        assert_eq!(pool.worker_count(), 2, "threads(3) = caller + 2 workers");
        // Warm maps reuse the live workers: the pool's spawn count (==
        // worker count, workers never exit while the pool lives) stays
        // put. (The *global* spawn counter is asserted in the bench
        // smoke, where no sibling tests spawn concurrently.)
        for _ in 0..5 {
            pool.map(3, (0..32).collect(), |i, _: i32, _| spin(i));
        }
        assert_eq!(pool.worker_count(), 2, "warm maps must not spawn");
    }

    #[test]
    fn thread_cap_is_enforced() {
        let pool = WorkerPool::new(2);
        pool.map(64, (0..256).collect(), |i, _: i32, _| spin(i));
        assert_eq!(pool.worker_count(), 2, "cap of 2 helpers");
    }

    #[test]
    fn panics_propagate_and_workers_survive() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(3, (0..64).collect(), |_, x: i32, _| {
                assert!(x != 13, "boom at 13");
                x
            })
        }));
        let payload = result.expect_err("panic must re-raise on the caller");
        let message = payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("boom at 13"), "payload: {message}");
        // The pool stays fully usable afterwards.
        let out = pool.map(3, (0..64).collect(), |_, x: i32, _| x * 2);
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_map_runs_inline_without_deadlock() {
        // Each outer item issues an inner map on the same global pool;
        // on workers those run inline, on the caller they re-enter the
        // queue. Either way the math must come out identical.
        let out = WorkerPool::global().map(3, (0u64..12).collect(), |_, x, _| {
            let inner = WorkerPool::global().map(4, (0u64..8).collect(), move |_, y, _| x * 10 + y);
            assert!(
                !inner.is_empty() && inner[7] == x * 10 + 7,
                "nested map wrong"
            );
            inner.iter().sum::<u64>()
        });
        let expected: Vec<u64> = (0u64..12)
            .map(|x| (0..8).map(|y| x * 10 + y).sum())
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn scratch_slots_stick_across_maps() {
        let pool = WorkerPool::new(3);
        let inits = Arc::new(AtomicUsize::new(0));
        let task = {
            let inits = Arc::clone(&inits);
            move |i: usize, x: u64, scratch: &mut WorkerScratch| {
                let buf = scratch.slot::<Vec<u64>, _>(0xBEEF, || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    vec![0; 16]
                });
                buf[i % 16] = x;
                spin(i).wrapping_add(buf[i % 16])
            }
        };
        let first = pool.map(4, (0u64..64).collect(), task.clone());
        let after_first = inits.load(Ordering::Relaxed);
        assert!(
            after_first <= 4,
            "at most one init per executor, saw {after_first}"
        );
        let second = pool.map(4, (0u64..64).collect(), task);
        assert_eq!(first, second, "sticky scratch must not change results");
        assert!(
            inits.load(Ordering::Relaxed) <= 4,
            "warm executors must reuse their slot"
        );
    }

    #[test]
    fn scratch_slot_eviction_is_bounded_and_typed() {
        let mut scratch = WorkerScratch::default();
        for key in 0..(WorkerScratch::MAX_SLOTS as u64 + 4) {
            let v = scratch.slot::<u64, _>(key, || key * 100);
            assert_eq!(*v, key * 100);
        }
        assert_eq!(scratch.slots(), WorkerScratch::MAX_SLOTS);
        // Key 0 was evicted (LRU); re-creating it works.
        assert_eq!(*scratch.slot::<u64, _>(0, || 777), 777);
        // Same key, different type: distinct slot, no collision.
        assert_eq!(*scratch.slot::<i32, _>(0, || -5), -5);
    }

    #[test]
    fn broadcast_touches_every_executor_exactly_once() {
        let pool = WorkerPool::new(3);
        let touched = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&touched);
        pool.broadcast(4, move |scratch| {
            scratch.slot::<u64, _>(0xCAFE, || 1);
            t.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(
            touched.load(Ordering::Relaxed),
            4,
            "caller + 3 workers, each once"
        );
        // A following map finds every scratch warm: zero slot inits.
        let inits = Arc::new(AtomicUsize::new(0));
        let i2 = Arc::clone(&inits);
        pool.map(4, (0u64..64).collect(), move |i, _, scratch| {
            scratch.slot::<u64, _>(0xCAFE, || {
                i2.fetch_add(1, Ordering::Relaxed);
                1
            });
            spin(i)
        });
        assert_eq!(
            inits.load(Ordering::Relaxed),
            0,
            "broadcast must have warmed every executor"
        );
    }

    #[test]
    fn global_pool_is_shared_and_env_capped() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.max_workers() >= 1);
    }
}
