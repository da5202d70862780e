//! A persistent worker pool for data-parallel simulation work.
//!
//! The GA fitness loop and the experiment harness both fan identical,
//! independent tasks (replay this stream, score this genome) across cores.
//! Spawning a fresh scoped thread per chunk per generation — the original
//! `crossbeam::thread::scope` pattern — costs a thread create/join cycle
//! per task batch. This pool spawns its threads once and reuses them across
//! every generation of every experiment in the process.
//!
//! Design notes:
//!
//! * **Scoped semantics without scoped threads.** [`WorkerPool::run`]
//!   borrows its closure and result buffer from the caller's stack and
//!   erases the lifetime to hand work to long-lived threads. Safety comes
//!   from the completion protocol: `run` does not return until every task
//!   index has finished executing, so the borrowed closure outlives every
//!   dereference.
//! * **The caller helps.** The calling thread executes tasks alongside the
//!   workers. This keeps single-threaded fallback trivial (a pool with zero
//!   workers still completes) and makes nested `run` calls deadlock-free:
//!   a worker that itself calls `run` will drain the inner job on its own
//!   if no one else is free.
//! * **A depth-aware executor budget.** Each pool admits at most `cap`
//!   concurrently executing threads (workers and callers combined). A
//!   thread holds exactly one slot regardless of how deeply its task
//!   re-enters [`WorkerPool::run`], so stacked fan-out — the runner
//!   batching workloads whose tasks themselves batch policies — cannot
//!   oversubscribe the machine. The [`global`] pool's budget is
//!   `available_parallelism`.
//! * **Panic transparency.** A panicking task does not poison the pool;
//!   the first payload is captured and re-raised on the calling thread
//!   after the batch drains, mirroring `std::thread::scope`.
//! * **Graceful degradation.** A failed worker spawn shrinks the pool
//!   (down to zero workers — the caller-helps protocol still completes
//!   every batch sequentially) with a one-time warning instead of
//!   aborting. While the caller waits for straggler tasks, a watchdog
//!   reports which task indices of which labeled batch are still in
//!   flight once they exceed `SIM_WATCHDOG_MS` (default 30 s), so a hung
//!   task is diagnosable instead of a silent stall. Both paths are
//!   deterministic under `sim_fault` injection.
//!
//! This module is the workspace's only `unsafe` whitelist: the crate root
//! denies `unsafe_code` and every other crate forbids it outright (the
//! `xtask lint` gate enforces both). Each of the four unsafe sites below
//! carries a `// SAFETY:` comment tying it to the completion protocol.

// Lifetime erasure for the scoped-semantics protocol needs `unsafe`; the
// crate-level `#![deny(unsafe_code)]` is lifted for this module only.
#![allow(unsafe_code)]

use std::cell::Cell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

thread_local! {
    /// The `Shared` of the pool whose execution slot this thread currently
    /// holds (null when none). A thread that already owns a slot — a worker
    /// inside `worker_loop`, or a caller inside `run` — must not acquire a
    /// second one for nested `run` calls on the same pool, otherwise an
    /// outer batch fanning out through callees (a batch of workloads whose
    /// tasks each submit the runner's (simpoint × policy) batch) would
    /// stack one slot per nesting level and oversubscribe the machine.
    static SLOT_OWNER: Cell<*const ()> = const { Cell::new(std::ptr::null()) };
}

/// The erased task function: call with a task index in `0..n`.
#[derive(Clone, Copy)]
struct TaskFn(*const (dyn Fn(usize) + Sync));

// SAFETY: sending the raw pointer between threads is sound because the
// pointee is `Sync` (callable from any thread through `&`) and the
// completion protocol in `run` guarantees it outlives every call.
unsafe impl Send for TaskFn {}
// SAFETY: shared references to `TaskFn` only expose the pointer for
// dereference in `Job::help`, whose access pattern is the `Sync` pointee's.
unsafe impl Sync for TaskFn {}

/// One published batch of tasks.
struct Job {
    task: TaskFn,
    /// Total number of task indices.
    n: usize,
    /// Diagnostic batch label (watchdog reports, fault-injection target).
    label: String,
    /// Executor cap, counting the caller.
    max_workers: usize,
    /// Executors currently inside the claim loop (caller included).
    active: AtomicUsize,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Completed task count; the job is done when this reaches `n`.
    done: AtomicUsize,
    /// Task indices claimed but not yet finished — what the watchdog
    /// reports when the batch stalls.
    inflight: Mutex<BTreeSet<usize>>,
    /// First panic payload from any task.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    panicked: AtomicBool,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl Job {
    /// Claims and executes tasks until none remain, then reports whether
    /// this executor finished the final task.
    fn help(&self) {
        loop {
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.n {
                return;
            }
            // SAFETY: idx < n, and `run` keeps the closure alive until
            // `done` reaches `n`, which cannot happen before this call
            // returns and is counted below.
            let task = unsafe { &*self.task.0 };
            let fault = sim_fault::on_task(&self.label, idx);
            self.inflight.lock().unwrap().insert(idx);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                match fault {
                    sim_fault::TaskFault::Panic => panic!(
                        "injected task fault: panic in task {idx} of batch {:?}",
                        self.label
                    ),
                    sim_fault::TaskFault::Stall(ms) => {
                        std::thread::sleep(Duration::from_millis(ms))
                    }
                    sim_fault::TaskFault::None => {}
                }
                task(idx)
            }));
            self.inflight.lock().unwrap().remove(&idx);
            if let Err(payload) = outcome {
                if !self.panicked.swap(true, Ordering::SeqCst) {
                    *self.panic.lock().unwrap() = Some(payload);
                }
            }
            if self.done.fetch_add(1, Ordering::SeqCst) + 1 == self.n {
                let _guard = self.done_lock.lock().unwrap();
                self.done_cv.notify_all();
            }
        }
    }
}

/// The slot workers watch for new jobs.
struct Board {
    job: Option<(u64, Arc<Job>)>,
    generation: u64,
    shutdown: bool,
    /// Executors (workers + external callers) currently holding one of the
    /// pool's `cap` execution slots. Guarded by the board mutex so slot
    /// checks and `work_cv` waits share one lock — no lost wakeups.
    live: usize,
}

struct Shared {
    board: Mutex<Board>,
    work_cv: Condvar,
    /// Pool-wide executor budget: total threads concurrently executing
    /// tasks, counting every nesting depth exactly once per thread.
    cap: usize,
    /// Straggler-wait threshold in milliseconds before the watchdog
    /// reports in-flight tasks (`SIM_WATCHDOG_MS`, default 30 000).
    watchdog_ms: AtomicU64,
    /// Watchdog reports emitted so far (also mirrored to stderr).
    watchdog_log: Mutex<Vec<String>>,
}

impl Shared {
    /// Releases one execution slot and wakes anything waiting for it
    /// (budget-blocked workers and external callers both wait on `work_cv`).
    fn release_slot(&self) {
        let mut board = self.board.lock().unwrap();
        debug_assert!(board.live > 0, "slot released twice");
        board.live -= 1;
        drop(board);
        self.work_cv.notify_all();
    }
}

/// A pool of persistent worker threads executing indexed task batches.
///
/// See [`global`] for the process-wide instance most callers want.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `workers` background threads. The calling thread
    /// participates in every [`run`](WorkerPool::run), so `workers: 0` is a
    /// valid (sequential) pool.
    ///
    /// The executor budget is `workers + 1` (all workers plus one caller may
    /// run at once), which never binds for a single caller — use
    /// [`WorkerPool::with_cap`] to bound total live executors below the
    /// thread count.
    pub fn new(workers: usize) -> Self {
        Self::with_cap(workers, workers + 1)
    }

    /// Creates a pool with `workers` background threads and a hard budget of
    /// `cap` concurrently *executing* threads (workers and external callers
    /// combined, nested [`run`](WorkerPool::run) depths counted once).
    ///
    /// The budget is what keeps stacked fan-out honest: an experiment
    /// submitting with `usize::MAX` concurrency whose tasks themselves call
    /// `run` on the same pool holds one slot per thread, not per nesting
    /// level, so total live executors never exceed `cap` no matter how the
    /// parallelism nests.
    pub fn with_cap(workers: usize, cap: usize) -> Self {
        assert!(cap >= 1, "executor budget must admit at least one thread");
        let shared = Arc::new(Shared {
            board: Mutex::new(Board {
                job: None,
                generation: 0,
                shutdown: false,
                live: 0,
            }),
            work_cv: Condvar::new(),
            cap,
            watchdog_ms: AtomicU64::new(default_watchdog_ms()),
            watchdog_log: Mutex::new(Vec::new()),
        });
        // A failed spawn (thread exhaustion, injected fault) degrades the
        // pool instead of aborting the run: the caller-helps protocol
        // completes every batch even with zero workers, just sequentially.
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker_shared = Arc::clone(&shared);
            let spawned = if sim_fault::on_spawn() {
                Err(std::io::Error::other("injected spawn failure"))
            } else {
                std::thread::Builder::new()
                    .name(format!("sim-pool-{i}"))
                    .spawn(move || worker_loop(&worker_shared))
            };
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    eprintln!(
                        "sim-pool: failed to spawn worker {i} of {workers}: {e}; \
                         continuing with {} worker(s) (the caller still participates)",
                        handles.len()
                    );
                    break;
                }
            }
        }
        WorkerPool { shared, handles }
    }

    /// Number of background worker threads (excluding callers).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// The executor budget: maximum threads concurrently executing tasks.
    pub fn cap(&self) -> usize {
        self.shared.cap
    }

    /// Sets the straggler-wait watchdog threshold. Tests drive this down
    /// to observe reports quickly; the default comes from `SIM_WATCHDOG_MS`
    /// (30 000 ms when unset).
    pub fn set_watchdog_ms(&self, ms: u64) {
        self.shared.watchdog_ms.store(ms, Ordering::Relaxed);
    }

    /// Watchdog reports emitted by this pool so far (each names the batch
    /// label and the in-flight task indices at the time of the report).
    pub fn watchdog_reports(&self) -> Vec<String> {
        self.shared.watchdog_log.lock().unwrap().clone()
    }

    /// Executes `f(0..n)` across the pool and returns the results in index
    /// order. At most `max_workers` threads (counting the caller) execute
    /// concurrently; pass `usize::MAX` for no cap. Blocks until every task
    /// has completed.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic from any task after the whole batch has
    /// drained (no task is abandoned mid-flight).
    pub fn run<R, F>(&self, n: usize, max_workers: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.run_labeled(n, max_workers, "", f)
    }

    /// [`run`](WorkerPool::run) with a diagnostic batch label: watchdog
    /// reports name it, and `sim_fault` task clauses (`panic@label`,
    /// `stall@label`) match against it.
    pub fn run_labeled<R, F>(&self, n: usize, max_workers: usize, label: &str, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        // Take an execution slot unless this thread already holds one of
        // this pool's slots (a worker executing a task that fans out again,
        // or a nested `run` on the caller's own stack). Acquiring *before*
        // publishing cannot deadlock: every slot holder makes progress
        // without waiting on us (`help` drains finite work, and nested
        // calls skip acquisition), so slots are always eventually released.
        let pool_id = Arc::as_ptr(&self.shared) as *const ();
        let nested = SLOT_OWNER.with(|s| s.get()) == pool_id;
        if !nested {
            let mut board = self.shared.board.lock().unwrap();
            while board.live >= self.shared.cap {
                board = self.shared.work_cv.wait(board).unwrap();
            }
            board.live += 1;
        }
        let prev_owner = SLOT_OWNER.with(|s| s.replace(pool_id));
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let task = |i: usize| {
            let value = f(i);
            *results[i].lock().unwrap() = Some(value);
        };
        let task_ref: &(dyn Fn(usize) + Sync) = &task;
        // SAFETY: lifetime erasure only; the job is fully drained (and thus
        // no longer dereferencing this pointer) before `run` returns.
        let task_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task_ref) };
        let job = Arc::new(Job {
            task: TaskFn(task_static as *const _),
            n,
            label: label.to_string(),
            max_workers: max_workers.max(1),
            active: AtomicUsize::new(1), // the caller
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            inflight: Mutex::new(BTreeSet::new()),
            panic: Mutex::new(None),
            panicked: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        });

        // Publish, then help with the work ourselves.
        {
            let mut board = self.shared.board.lock().unwrap();
            board.generation += 1;
            board.job = Some((board.generation, Arc::clone(&job)));
            self.shared.work_cv.notify_all();
        }
        job.help();

        // Wait for stragglers still executing claimed tasks. A watchdog
        // tick reports which task indices are hung once the wait exceeds
        // the threshold (once per batch — this is a diagnostic, not a
        // timeout: the wait still lasts until the batch drains).
        {
            let threshold =
                Duration::from_millis(self.shared.watchdog_ms.load(Ordering::Relaxed).max(1));
            let waited_since = Instant::now();
            let mut reported = false;
            let mut guard = job.done_lock.lock().unwrap();
            while job.done.load(Ordering::SeqCst) < n {
                let (g, timeout) = job.done_cv.wait_timeout(guard, threshold).unwrap();
                guard = g;
                let done = job.done.load(Ordering::SeqCst);
                if timeout.timed_out() && !reported && done < n {
                    reported = true;
                    let stuck: Vec<usize> = job.inflight.lock().unwrap().iter().copied().collect();
                    let report = format!(
                        "pool watchdog: batch {:?}: {} of {n} task(s) outstanding after {:?}; \
                         hung task indices: {stuck:?}",
                        job.label,
                        n - done,
                        waited_since.elapsed()
                    );
                    eprintln!("sim-pool: {report}");
                    self.shared.watchdog_log.lock().unwrap().push(report);
                }
            }
        }
        SLOT_OWNER.with(|s| s.set(prev_owner));
        if !nested {
            self.shared.release_slot();
        }
        if job.panicked.load(Ordering::SeqCst) {
            if let Some(payload) = job.panic.lock().unwrap().take() {
                resume_unwind(payload);
            }
        }
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("task completed without result")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut board = self.shared.board.lock().unwrap();
            board.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let shared_id = shared as *const Shared as *const ();
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut board = shared.board.lock().unwrap();
            loop {
                if board.shutdown {
                    return;
                }
                match &board.job {
                    Some((generation, job)) if *generation != seen_generation => {
                        // A job is pending, but only join it if the pool's
                        // executor budget has a free slot; otherwise sleep
                        // until `release_slot` (or a new publish) wakes us.
                        if board.live < shared.cap {
                            let (generation, job) = (*generation, Arc::clone(job));
                            board.live += 1;
                            seen_generation = generation;
                            break job;
                        }
                        board = shared.work_cv.wait(board).unwrap();
                    }
                    _ => board = shared.work_cv.wait(board).unwrap(),
                }
            }
        };
        // Respect the job's executor cap (the caller counts as one).
        if job.active.fetch_add(1, Ordering::SeqCst) < job.max_workers {
            // Mark slot ownership so tasks that fan out again (nested
            // `run`) reuse this thread's slot instead of stacking another.
            SLOT_OWNER.with(|s| s.set(shared_id));
            job.help();
            SLOT_OWNER.with(|s| s.set(std::ptr::null()));
        }
        job.active.fetch_sub(1, Ordering::SeqCst);
        shared.release_slot();
    }
}

/// Initial watchdog threshold: `SIM_WATCHDOG_MS` or 30 s. Read once per
/// pool at construction; [`WorkerPool::set_watchdog_ms`] overrides later.
fn default_watchdog_ms() -> u64 {
    std::env::var("SIM_WATCHDOG_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30_000)
}

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

/// The process-wide pool, created on first use with one worker per
/// available core (minus one for the calling thread) and an executor
/// budget of exactly `available_parallelism`: the workers plus one
/// external caller saturate the machine, and any further callers (or
/// nested fan-out) wait for a slot instead of oversubscribing it.
pub fn global() -> &'static WorkerPool {
    GLOBAL.get_or_init(|| {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        WorkerPool::with_cap(cores.saturating_sub(1), cores)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = WorkerPool::new(3);
        let calls: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let out = pool.run(100, usize::MAX, |i| {
            calls[i].fetch_add(1, Ordering::SeqCst);
            i * 2
        });
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert!(calls.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn zero_tasks_and_zero_workers() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.run(0, usize::MAX, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run(5, usize::MAX, |i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn reused_across_batches() {
        let pool = WorkerPool::new(2);
        for round in 0..50usize {
            let out = pool.run(7, usize::MAX, |i| i + round);
            assert_eq!(out, (0..7).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn respects_worker_cap() {
        let pool = WorkerPool::new(8);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.run(64, 2, |_| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            concurrent.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "cap of 2 exceeded");
    }

    #[test]
    fn nested_runs_complete() {
        let pool = WorkerPool::new(2);
        let out = pool.run(4, usize::MAX, |i| {
            let inner = pool.run(3, usize::MAX, |j| i * 10 + j);
            inner.into_iter().sum::<usize>()
        });
        assert_eq!(out, vec![1 + 2, 30 + 3, 60 + 3, 90 + 3]);
    }

    #[test]
    fn propagates_panics_after_drain() {
        let pool = WorkerPool::new(2);
        let completed = Arc::new(AtomicUsize::new(0));
        let result = {
            let completed = Arc::clone(&completed);
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(16, usize::MAX, |i| {
                    if i == 5 {
                        panic!("task 5 exploded");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                })
            }))
        };
        assert!(result.is_err());
        assert_eq!(
            completed.load(Ordering::SeqCst),
            15,
            "all other tasks still ran"
        );
        // The pool survives the panic and keeps working.
        assert_eq!(pool.run(3, usize::MAX, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn many_threads_observe_distinct_indices() {
        let pool = WorkerPool::new(4);
        let seen = Mutex::new(HashSet::new());
        pool.run(200, usize::MAX, |i| {
            assert!(seen.lock().unwrap().insert(i), "index {i} claimed twice");
        });
        assert_eq!(seen.lock().unwrap().len(), 200);
    }

    #[test]
    fn budget_caps_concurrent_executors() {
        // 8 workers but a budget of 2: no matter how wide the job, at most
        // two threads (caller included) execute tasks at any instant.
        let pool = WorkerPool::with_cap(8, 2);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.run(64, usize::MAX, |_| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            concurrent.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "budget of 2 exceeded");
    }

    #[test]
    fn nested_fanout_stays_within_budget() {
        // Outer tasks fan out again on the same pool (a workload batch
        // whose tasks submit (simpoint × policy) units). Each thread holds
        // one slot across all nesting depths, so inner-task concurrency
        // stays within the budget instead of stacking outer × inner.
        let pool = WorkerPool::with_cap(8, 3);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let out = pool.run(6, usize::MAX, |i| {
            pool.run(6, usize::MAX, |j| {
                let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
                concurrent.fetch_sub(1, Ordering::SeqCst);
                i * 10 + j
            })
            .into_iter()
            .sum::<usize>()
        });
        assert_eq!(out.len(), 6);
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "nested fan-out exceeded budget: peak {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn external_callers_share_budget() {
        // Three independent caller threads hammer one budget-2 pool; the
        // third always waits for a slot rather than oversubscribing.
        let pool = Arc::new(WorkerPool::with_cap(4, 2));
        let concurrent = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..3 {
            let pool = Arc::clone(&pool);
            let concurrent = Arc::clone(&concurrent);
            let peak = Arc::clone(&peak);
            joins.push(std::thread::spawn(move || {
                pool.run(8, usize::MAX, |_| {
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                });
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "budget of 2 exceeded");
    }

    #[test]
    fn default_budget_never_binds() {
        // `new(w)` keeps the historical behaviour: all workers plus the
        // caller may run at once.
        let pool = WorkerPool::new(3);
        assert_eq!(pool.cap(), 4);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.run(32, usize::MAX, |_| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            concurrent.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 4);
    }

    #[test]
    fn global_pool_budget_is_available_parallelism() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        assert_eq!(global().cap(), cores);
        assert_eq!(global().workers(), cores.saturating_sub(1));
    }

    #[test]
    fn injected_spawn_failure_degrades_worker_count() {
        if !sim_fault::COMPILED_IN {
            return;
        }
        // The 3rd spawn fails: the pool keeps the 2 workers it got and
        // still completes batches.
        sim_fault::with_plan("spawn-fail:n=3:sticky", || {
            let pool = WorkerPool::new(4);
            assert_eq!(pool.workers(), 2, "degraded to the workers that spawned");
            assert_eq!(
                pool.run(9, usize::MAX, |i| i * 3),
                (0..9).map(|i| i * 3).collect::<Vec<_>>()
            );
        });
    }

    #[test]
    fn injected_spawn_failure_falls_back_to_sequential() {
        if !sim_fault::COMPILED_IN {
            return;
        }
        sim_fault::with_plan("spawn-fail:sticky", || {
            let pool = WorkerPool::new(3);
            assert_eq!(pool.workers(), 0, "every spawn failed");
            // Zero workers: the caller-helps protocol runs the batch
            // sequentially rather than deadlocking or aborting.
            assert_eq!(pool.run(5, usize::MAX, |i| i + 1), vec![1, 2, 3, 4, 5]);
        });
    }

    #[test]
    fn injected_task_panic_follows_panic_protocol() {
        if !sim_fault::COMPILED_IN {
            return;
        }
        sim_fault::with_plan("panic@fitness:task=3", || {
            let pool = WorkerPool::new(2);
            let completed = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.run_labeled(8, usize::MAX, "fitness-gen0", |_| {
                    completed.fetch_add(1, Ordering::SeqCst);
                })
            }));
            assert!(result.is_err(), "injected panic must surface to the caller");
            assert_eq!(completed.load(Ordering::SeqCst), 7, "other tasks drained");
            // The pool survives, and unlabeled batches are untouched by the
            // label-filtered clause.
            assert_eq!(pool.run(3, usize::MAX, |i| i), vec![0, 1, 2]);
        });
    }

    #[test]
    fn watchdog_reports_hung_task_under_injected_stall() {
        if !sim_fault::COMPILED_IN {
            return;
        }
        // Task 3 of each "replay" batch stalls well past the watchdog
        // threshold. The non-stalled tasks sleep briefly so the workers
        // (already parked on the condvar) claim the tail of the batch and
        // the caller reaches the straggler wait; if the caller happens to
        // claim the stalled task itself there is no one left to watch, so
        // retry — the sticky clause stalls task 3 of every round.
        sim_fault::with_plan("stall@replay:task=3:ms=150:sticky", || {
            let pool = WorkerPool::new(3);
            pool.set_watchdog_ms(20);
            for _round in 0..10 {
                let out = pool.run_labeled(4, usize::MAX, "replay-batch", |i| {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    i
                });
                assert_eq!(out, vec![0, 1, 2, 3], "stalled batch still completes");
                if !pool.watchdog_reports().is_empty() {
                    break;
                }
            }
            let reports = pool.watchdog_reports();
            assert!(
                !reports.is_empty(),
                "watchdog never fired across 10 stalled rounds"
            );
            assert!(
                reports[0].contains("replay-batch") && reports[0].contains("[3]"),
                "report must name the batch and the hung task: {:?}",
                reports[0]
            );
        });
    }

    #[test]
    fn global_pool_is_reused() {
        let a = global() as *const WorkerPool;
        let b = global() as *const WorkerPool;
        assert_eq!(a, b);
        let sum: u64 = global()
            .run(32, usize::MAX, |i| {
                static TOUCHED: AtomicU64 = AtomicU64::new(0);
                TOUCHED.fetch_add(1, Ordering::Relaxed);
                i as u64
            })
            .into_iter()
            .sum();
        assert_eq!(sum, (0..32).sum::<u64>());
    }
}
