//! Persistent, `CQ_THREADS`-capped executor for every parallel kernel in the
//! workspace.
//!
//! Before this module existed each GEMM / psum-pipeline call forked fresh OS
//! threads through `std::thread::scope` and joined them at the end of the
//! call — seven spawn sites across `cq-tensor`, `cq-cim` and `cq-core`, each
//! paying the fork/join cost per request. [`scope`] keeps the familiar
//! borrow-friendly structure of `std::thread::scope` (spawn closures that
//! borrow the caller's stack, panics propagate to the caller) but runs the
//! closures on one shared, lazily-started worker pool sized by
//! [`max_threads`], so steady-state serving spawns **zero** threads per
//! request.
//!
//! # Scheduling, not arithmetic
//!
//! The executor moves *where* a task runs, never *what* it computes. Every
//! call site splits its output into disjoint `&mut` chunks and each chunk's
//! arithmetic is a fixed serial order, so results are bit-identical for any
//! pool size — the same invariant the psum reduce order relies on.
//!
//! # Waiting callers help
//!
//! A thread blocked in [`scope`] does not idle: while its tasks are
//! outstanding it pops and runs queued jobs (its own or other scopes').
//! This makes nested scopes safe — a pool worker that opens a scope of its
//! own (a pipelined conv wave whose GEMMs fan out again) can never deadlock
//! the pool, because a scope only sleeps once the queue is empty, at which
//! point all of its remaining tasks are already running on other threads.
//!
//! # Thread accounting
//!
//! [`os_threads_spawned`] counts every OS thread the executor has ever
//! created. The count stops moving once the pool is warm, which the
//! throughput benchmark and the serving tests assert.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::matmul::max_threads;

/// Count of OS threads ever spawned by this module (pool workers).
/// Steady-state serving leaves this flat; the throughput benchmark asserts
/// exactly that.
static OS_THREADS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Total OS threads the executor has created since process start.
pub fn os_threads_spawned() -> usize {
    OS_THREADS_SPAWNED.load(Ordering::Relaxed)
}

/// A queued unit of work. Jobs are always the panic-catching wrappers built
/// by [`Scope::spawn`], so running one can never unwind into a worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    work_ready: Condvar,
    threads: usize,
}

impl PoolShared {
    /// Pops and runs one queued job. Returns `false` if the queue was empty.
    fn try_run_one(&self) -> bool {
        let job = self.queue.lock().unwrap().jobs.pop_front();
        match job {
            Some(job) => {
                job();
                true
            }
            None => false,
        }
    }

    fn push(&self, job: Job) {
        let mut q = self.queue.lock().unwrap();
        q.jobs.push_back(job);
        drop(q);
        self.work_ready.notify_one();
    }
}

/// A fixed-width worker pool executing [`scope`] tasks.
///
/// One process-wide pool (sized by [`max_threads`], i.e. the `CQ_THREADS`
/// cap) is started lazily on first use and lives for the life of the
/// process. Tests that need a specific width create their own with
/// [`ExecPool::with_threads`] and route a closure through it with
/// [`ExecPool::install`].
pub struct ExecPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ExecPool {
    /// Starts a standalone pool with exactly `threads` workers (minimum 1).
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            threads,
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                OS_THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
                std::thread::Builder::new()
                    .name(format!("cq-exec-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn executor worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads in this pool.
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Runs `f` with this pool installed as the calling thread's executor:
    /// every [`scope`] reached from `f` (including from tasks that end up
    /// running on this pool's workers) uses this pool instead of the global
    /// one. The previous installation is restored on return.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = CURRENT_POOL.with(|c| c.replace(Some(Arc::clone(&self.shared))));
        let restore = RestorePool(prev);
        let r = f();
        drop(restore);
        r
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Restores the caller's previous pool installation even if `f` unwinds.
struct RestorePool(Option<Arc<PoolShared>>);

impl Drop for RestorePool {
    fn drop(&mut self) {
        let prev = self.0.take();
        CURRENT_POOL.with(|c| *c.borrow_mut() = prev);
    }
}

thread_local! {
    /// The pool this thread submits to: set for the lifetime of a worker
    /// thread, or temporarily by [`ExecPool::install`]. `None` means the
    /// process-global pool.
    static CURRENT_POOL: RefCell<Option<Arc<PoolShared>>> = const { RefCell::new(None) };
}

fn worker_loop(shared: Arc<PoolShared>) {
    CURRENT_POOL.with(|c| *c.borrow_mut() = Some(Arc::clone(&shared)));
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.work_ready.wait(q).unwrap();
            }
        };
        // Jobs are panic-catching wrappers (see `Scope::spawn`), so this
        // cannot unwind and kill the worker.
        job();
    }
}

fn global_pool() -> &'static ExecPool {
    static GLOBAL: OnceLock<ExecPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ExecPool::with_threads(max_threads()))
}

fn current_pool() -> Arc<PoolShared> {
    if let Some(p) = CURRENT_POOL.with(|c| c.borrow().clone()) {
        return p;
    }
    Arc::clone(&global_pool().shared)
}

/// Shared completion state for one [`scope`] call.
struct ScopeState {
    sync: Mutex<ScopeSync>,
    done: Condvar,
}

struct ScopeSync {
    pending: usize,
    panic: Option<Box<dyn Any + Send + 'static>>,
}

/// Handle passed to the closure given to [`scope`]; tasks are spawned
/// through it exactly as with `std::thread::Scope`.
pub struct Scope<'env> {
    pool: Arc<PoolShared>,
    state: Arc<ScopeState>,
    // Invariant over 'env, mirroring std::thread::Scope: spawned closures
    // may borrow from the environment both immutably and mutably.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Submits `f` to the executor. Like `std::thread::Scope::spawn`, `f`
    /// may borrow anything that outlives the enclosing [`scope`] call; the
    /// scope does not return until every spawned task has finished.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        {
            let mut sync = self.state.sync.lock().unwrap();
            sync.pending += 1;
        }
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            // `f` and its borrows are dead here; only the ('static) panic
            // payload, if any, survives past this point.
            let mut sync = state.sync.lock().unwrap();
            if let Err(p) = result {
                sync.panic.get_or_insert(p);
            }
            sync.pending -= 1;
            state.done.notify_all();
        });
        // SAFETY: the job's only non-'static captures are borrows living at
        // least 'env. `scope` does not return (even on panic in the body or
        // in a task) until `pending` drops to zero, i.e. until this job has
        // run to the point where `f` and everything it borrowed is dropped.
        // The queue never outlives the job: it is popped exactly once.
        // This is the same lifetime-erasure argument `std::thread::scope`
        // makes for its implicit join.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.push(job);
    }
}

/// Runs `body` with a [`Scope`] handle, waits for every task it spawned
/// (helping to run queued work while waiting), and propagates the first
/// panic — from the body or from any task — to the caller.
///
/// Drop-in replacement for `std::thread::scope` on the workspace's
/// disjoint-chunk kernels: same borrowing rules, same panic semantics, but
/// tasks run on the persistent pool instead of fresh OS threads.
pub fn scope<'env, F, R>(body: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    let scope = Scope {
        pool: current_pool(),
        state: Arc::new(ScopeState {
            sync: Mutex::new(ScopeSync {
                pending: 0,
                panic: None,
            }),
            done: Condvar::new(),
        }),
        _env: PhantomData,
    };
    // The body may panic after spawning tasks; those tasks still borrow the
    // environment, so we must wait for them before unwinding out.
    let result = catch_unwind(AssertUnwindSafe(|| body(&scope)));

    // Wait for all tasks, running queued jobs while any are outstanding.
    // Once the queue is empty every remaining task of ours is already
    // executing on another thread, so blocking on the condvar is safe: each
    // completion notifies `done`.
    loop {
        let pending = { scope.state.sync.lock().unwrap().pending };
        if pending == 0 {
            break;
        }
        if !scope.pool.try_run_one() {
            let mut sync = scope.state.sync.lock().unwrap();
            while sync.pending > 0 {
                sync = scope.state.done.wait(sync).unwrap();
            }
        }
    }

    let task_panic = scope.state.sync.lock().unwrap().panic.take();
    match result {
        Err(body_panic) => resume_unwind(body_panic),
        Ok(r) => {
            if let Some(p) = task_panic {
                resume_unwind(p);
            }
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that start standalone pools against the one
    /// that asserts the global spawn counter stays flat: a pool started
    /// mid-measurement would count as a respawn.
    static SPAWN_COUNTER: Mutex<()> = Mutex::new(());

    #[test]
    fn scope_runs_borrowed_tasks() {
        let mut out = vec![0usize; 64];
        let base = 7usize;
        scope(|s| {
            for (i, chunk) in out.chunks_mut(16).enumerate() {
                let base = &base;
                s.spawn(move || {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = base + i * 16 + j;
                    }
                });
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 7 + i);
        }
    }

    #[test]
    fn nested_scopes_complete() {
        let mut out = [0u32; 32];
        scope(|s| {
            for chunk in out.chunks_mut(8) {
                s.spawn(move || {
                    scope(|inner| {
                        for sub in chunk.chunks_mut(2) {
                            inner.spawn(move || {
                                for v in sub.iter_mut() {
                                    *v = 1;
                                }
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(out.iter().sum::<u32>(), 32);
    }

    #[test]
    fn panic_in_task_propagates_and_pool_survives() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| panic!("task boom"));
            });
        }));
        assert!(r.is_err());
        // Pool still serves work after a task panicked.
        let mut v = vec![0u8; 4];
        scope(|s| {
            for b in v.chunks_mut(1) {
                s.spawn(move || b[0] = 1);
            }
        });
        assert_eq!(v, vec![1u8; 4]);
    }

    #[test]
    fn panic_in_body_waits_for_tasks() {
        let flag = std::sync::atomic::AtomicBool::new(false);
        let r = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    flag.store(true, Ordering::SeqCst);
                });
                panic!("body boom");
            });
        }));
        assert!(r.is_err());
        // The spawned task must have finished before scope unwound.
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn install_routes_to_custom_pool() {
        let _counter = SPAWN_COUNTER.lock().unwrap();
        let pool = ExecPool::with_threads(2);
        assert_eq!(pool.threads(), 2);
        let mut out = vec![0usize; 8];
        pool.install(|| {
            scope(|s| {
                for (i, chunk) in out.chunks_mut(2).enumerate() {
                    s.spawn(move || chunk.fill(i));
                }
            });
        });
        assert_eq!(out, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn steady_state_spawns_no_threads() {
        let _counter = SPAWN_COUNTER.lock().unwrap();
        // Warm the pool, then check repeated scopes leave the counter flat.
        scope(|s| s.spawn(|| {}));
        let before = os_threads_spawned();
        for _ in 0..32 {
            let mut v = [0u8; 8];
            scope(|s| {
                for b in v.chunks_mut(2) {
                    s.spawn(move || b.fill(1));
                }
            });
            assert_eq!(v, [1u8; 8]);
        }
        assert_eq!(os_threads_spawned(), before);
    }
}
