//! A persistent, self-healing worker-thread pool with scoped, borrowing
//! jobs.
//!
//! The runtime's executor originally spawned fresh OS threads
//! (`std::thread::scope`) for *every* loop activation; on
//! activation-heavy kernels (LU's wavefront re-forks each outer
//! iteration) thread creation dominated the measured time. [`WorkerPool`]
//! fixes that: the threads are created **once per embedder** (a runtime,
//! the process-wide analysis pool, a benchmark sweep) and each
//! activation merely enqueues jobs and waits for a completion latch.
//!
//! The API mirrors `std::thread::scope` so call sites keep borrowing the
//! master's state (module, frames, forked heaps):
//!
//! ```
//! use pspdg_pool::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let mut results = vec![0u64; 4];
//! pool.scope(|scope| {
//!     for (i, slot) in results.iter_mut().enumerate() {
//!         scope.spawn(move || *slot = (i as u64 + 1) * 10);
//!     }
//! });
//! assert_eq!(results, vec![10, 20, 30, 40]);
//! ```
//!
//! ## Self-healing
//!
//! Two failure modes are survived without shrinking the pool or wedging
//! the completion latch:
//!
//! - **Job panics** are caught twice over: the scope wrapper catches the
//!   job's unwind and still decrements the latch (so sibling and queued
//!   jobs run and `scope` returns), and the worker loop catches anything
//!   that escapes the wrapper so the thread itself survives to serve the
//!   next job. [`WorkerPool::scope`] re-raises the panic after the join;
//!   [`WorkerPool::scope_catch`] instead reports it as data — the
//!   executor uses that to turn a panicked chunk worker into an ordinary
//!   sequential fallback.
//! - **Thread death** (an embedder's [`JobHooks::on_job_pickup`]
//!   returning [`JobFate::KillThread`] — the runtime's fault injector
//!   does this for `FaultKind::ThreadDeath` on a `PoolJob` site): the
//!   dying worker pushes its job back to the *front* of the queue, spawns
//!   and registers a replacement thread, and only then exits. The job is
//!   never lost, the pool width never drops, and [`WorkerPool::respawns`]
//!   counts the event.
//!
//! Because replacements register themselves before the dying thread
//! exits, the drop path joins in rounds — drain the handle registry, join
//! each handle, repeat until a round finds the registry empty. Joining a
//! thread happens-after everything it did, including registering its
//! replacement, so no handle is ever orphaned.
//!
//! ## Safety
//!
//! Jobs borrow the scope's environment (`'env`), but pool threads are
//! `'static`, so [`Scope::spawn`] erases the job's lifetime with an
//! `unsafe` transmute. Soundness rests on one invariant, the same one
//! `std::thread::scope` and rayon's scoped pools rely on: **the scope
//! never returns (not even by unwinding) before every spawned job has
//! finished**. [`WorkerPool::scope`] enforces this with a completion
//! latch that is awaited on both the normal path and the unwind path.
//! Thread death keeps the invariant because the requeued job still runs
//! (on the replacement) before the latch releases.

use pspdg_obs::Recorder;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, ThreadId};

/// What a worker should do with the job it just picked up — returned by
/// [`JobHooks::on_job_pickup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFate {
    /// Run the job normally.
    Run,
    /// Kill this worker thread without running the job. The pool requeues
    /// the job at the queue front, registers a replacement worker, counts
    /// a respawn, and only then lets the thread exit.
    KillThread,
}

/// Per-job callbacks consulted by pool workers.
///
/// This is the seam that keeps the pool free of any fault-injection
/// dependency: the runtime implements `JobHooks` for its `FaultInjector`
/// (mapping a deterministic `ThreadDeath` injection to
/// [`JobFate::KillThread`]) while the pool itself only sees the verdict.
pub trait JobHooks: Send + Sync {
    /// Called once per job pickup, before the job runs.
    fn on_job_pickup(&self) -> JobFate;
}

/// A lifetime-erased unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Whether the current thread is a pool worker (any pool). Nested
    /// parallel helpers consult this to run inline instead of waiting on
    /// a pool that may have no free workers — see [`crate::on_pool_worker`].
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a [`WorkerPool`] worker. Parallel
/// helpers ([`crate::par_map`]) use this to degrade to inline execution
/// instead of deadlocking on nested waits: a worker that blocked on a
/// sub-scope would occupy the very slot its sub-jobs need.
pub fn on_pool_worker() -> bool {
    IN_POOL_WORKER.with(Cell::get)
}

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a job arrives or the pool shuts down.
    work: Condvar,
    /// Live (and recently-exited, not-yet-reaped) worker handles. Grows
    /// when a dying worker registers its replacement; reaped lazily.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Monotonic worker name counter (`pspdg-worker-N`).
    next_name: AtomicUsize,
    /// Times a dead worker thread was replaced.
    respawns: AtomicU64,
    /// Optional per-job callbacks (checked once per job pickup).
    hooks: Option<Arc<dyn JobHooks>>,
    /// Optional recorder: respawn events land in the trace stream and
    /// every enqueue records the resulting queue depth.
    obs: Option<Arc<Recorder>>,
}

/// A fixed-size pool of persistent worker threads.
///
/// Created once per embedder (a runtime, the process-wide analysis pool)
/// and reused by every parallel activation; dropped, it shuts its threads
/// down and joins them. The pool *self-heals*: panicking jobs don't kill workers,
/// and a worker that dies anyway ([`JobFate::KillThread`]) is respawned
/// without losing its job — see the module docs.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("respawns", &self.respawns())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool of `threads` persistent workers (at least one).
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool::with_hooks(threads, None)
    }

    /// Like [`WorkerPool::new`], with per-job callbacks consulted once
    /// per job pickup (the runtime's fault-injection seam).
    pub fn with_hooks(threads: usize, hooks: Option<Arc<dyn JobHooks>>) -> WorkerPool {
        WorkerPool::with_hooks_obs(threads, hooks, None)
    }

    /// Like [`WorkerPool::with_hooks`], with an optional [`Recorder`] so
    /// worker respawns show up as instants in the trace stream and queue
    /// depths land in the `pool/queue_depth` histogram.
    pub fn with_hooks_obs(
        threads: usize,
        hooks: Option<Arc<dyn JobHooks>>,
        obs: Option<Arc<Recorder>>,
    ) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            handles: Mutex::new(Vec::new()),
            next_name: AtomicUsize::new(0),
            respawns: AtomicU64::new(0),
            hooks,
            obs,
        });
        {
            let mut handles = shared.handles.lock().expect("pool handles lock");
            for _ in 0..threads {
                handles.push(spawn_worker(&shared));
            }
        }
        WorkerPool { shared, threads }
    }

    /// Number of worker threads the pool maintains (its width — constant
    /// for the pool's life, even across respawns).
    pub fn size(&self) -> usize {
        self.threads
    }

    /// The OS thread identities of the *live* workers — lets tests assert
    /// that the same threads serve successive activations (pool reuse)
    /// and that a killed worker was replaced. Reaps exited threads as a
    /// side effect, so after a respawn this settles back to exactly
    /// [`size`](WorkerPool::size) entries.
    pub fn thread_ids(&self) -> Vec<ThreadId> {
        let mut handles = self.shared.handles.lock().expect("pool handles lock");
        let mut i = 0;
        while i < handles.len() {
            if handles[i].is_finished() {
                let _ = handles.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        handles.iter().map(|h| h.thread().id()).collect()
    }

    /// Times a dead worker thread was detected and replaced.
    pub fn respawns(&self) -> u64 {
        self.shared.respawns.load(Ordering::Relaxed)
    }

    /// Run `f`, which may [`Scope::spawn`] borrowing jobs onto the pool;
    /// returns only after every spawned job has completed. If a job
    /// panicked, the panic is re-raised here (after all jobs finished).
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let (r, panicked) = self.scope_catch(f);
        assert!(!panicked, "pool worker job panicked");
        r
    }

    /// Like [`scope`](WorkerPool::scope), but a panicking job is reported
    /// as data instead of re-panicking the caller: returns `f`'s result
    /// plus whether any spawned job panicked. The runtime uses this to
    /// demote a panicked chunk worker to a sequential fallback instead of
    /// taking the master down.
    pub fn scope_catch<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> (R, bool) {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                progress: Mutex::new(Progress {
                    pending: 0,
                    panicked: false,
                }),
                done: Condvar::new(),
            }),
            _env: std::marker::PhantomData,
        };
        // Await completion even when `f` unwinds: jobs borrow `'env` and
        // must not outlive this call frame.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        let panicked = {
            let mut p = scope
                .state
                .progress
                .lock()
                .expect("pool scope lock poisoned");
            while p.pending > 0 {
                p = scope.state.done.wait(p).expect("pool scope lock poisoned");
            }
            p.panicked
        };
        match result {
            Ok(r) => (r, panicked),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut s = self.shared.state.lock().expect("pool lock poisoned");
            s.shutdown = true;
        }
        self.shared.work.notify_all();
        // Join in rounds: a dying worker registers its replacement before
        // exiting, so joining a thread happens-after that registration —
        // once a round drains the registry empty, no thread is left.
        loop {
            let batch: Vec<JoinHandle<()>> = {
                let mut handles = self.shared.handles.lock().expect("pool handles lock");
                handles.drain(..).collect()
            };
            if batch.is_empty() {
                break;
            }
            self.shared.work.notify_all();
            for h in batch {
                let _ = h.join();
            }
        }
    }
}

fn spawn_worker(shared: &Arc<PoolShared>) -> JoinHandle<()> {
    let n = shared.next_name.fetch_add(1, Ordering::Relaxed);
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("pspdg-worker-{n}"))
        .spawn(move || {
            IN_POOL_WORKER.with(|f| f.set(true));
            worker_loop(&shared)
        })
        .expect("spawn pool worker")
}

struct Progress {
    pending: usize,
    panicked: bool,
}

struct ScopeState {
    progress: Mutex<Progress>,
    done: Condvar,
}

/// Handle for spawning borrowing jobs inside [`WorkerPool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Enqueue `job` on the pool. The job may borrow from `'env`; the
    /// enclosing [`WorkerPool::scope`] call joins it before returning.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'env) {
        let state = Arc::clone(&self.state);
        state
            .progress
            .lock()
            .expect("pool scope lock poisoned")
            .pending += 1;
        let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(job));
            let mut p = state.progress.lock().expect("pool scope lock poisoned");
            if outcome.is_err() {
                p.panicked = true;
            }
            p.pending -= 1;
            if p.pending == 0 {
                state.done.notify_all();
            }
        });
        // SAFETY: `scope` joins every job (normal and unwind paths) before
        // returning, so the `'env` borrows inside `wrapped` cannot be
        // observed dangling by the pool threads. A worker that dies on
        // pickup requeues the job first, so "every job finishes" holds
        // across respawns too.
        let erased: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(
                wrapped,
            )
        };
        let depth = {
            let mut s = self.pool.shared.state.lock().expect("pool lock poisoned");
            s.queue.push_back(erased);
            s.queue.len()
        };
        if let Some(r) = &self.pool.shared.obs {
            r.observe("pool/queue_depth", depth as u64);
        }
        self.pool.shared.work.notify_one();
    }
}

fn worker_loop(shared: &Arc<PoolShared>) {
    loop {
        let job = {
            let mut s = shared.state.lock().expect("pool lock poisoned");
            loop {
                if let Some(job) = s.queue.pop_front() {
                    break job;
                }
                if s.shutdown {
                    return;
                }
                s = shared.work.wait(s).expect("pool lock poisoned");
            }
        };
        if let Some(hooks) = &shared.hooks {
            if hooks.on_job_pickup() == JobFate::KillThread {
                // Die without running the job — but first register the
                // replacement and the respawn count, *then* hand the job
                // back (front of queue: it was next). Requeueing last
                // means that by the time the job has run — which is
                // before any scope it belongs to can complete — the
                // respawn is fully recorded.
                shared.respawns.fetch_add(1, Ordering::Relaxed);
                if let Some(r) = &shared.obs {
                    r.instant("pool/respawn", "pool");
                }
                shared
                    .handles
                    .lock()
                    .expect("pool handles lock")
                    .push(spawn_worker(shared));
                {
                    let mut s = shared.state.lock().expect("pool lock poisoned");
                    s.queue.push_front(job);
                }
                shared.work.notify_one();
                return;
            }
        }
        // The scope wrapper already catches the user job's panic; this
        // second net is for anything that escapes it, so a worker thread
        // can never be lost to an unwind.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn jobs_run_and_scope_joins() {
        let pool = WorkerPool::new(3);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..32 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn workers_persist_across_scopes() {
        let pool = WorkerPool::new(2);
        let ids_before: HashSet<ThreadId> = pool.thread_ids().into_iter().collect();
        let observe = || {
            let seen = Mutex::new(HashSet::new());
            pool.scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        // Hold both workers briefly so each takes one job.
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        seen.lock().unwrap().insert(std::thread::current().id());
                    });
                }
            });
            seen.into_inner().unwrap()
        };
        let first = observe();
        let second = observe();
        assert!(first.is_subset(&ids_before));
        assert!(second.is_subset(&ids_before));
        assert_eq!(
            pool.thread_ids().into_iter().collect::<HashSet<_>>(),
            ids_before,
            "the same OS threads must serve both activations"
        );
    }

    #[test]
    fn borrowed_results_flow_back() {
        let pool = WorkerPool::new(4);
        let mut out = vec![0u64; 8];
        pool.scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move || *slot = i as u64 * i as u64);
            }
        });
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn job_panic_propagates_after_join() {
        let pool = WorkerPool::new(2);
        let finished = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
                s.spawn(|| {
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            });
        }));
        assert!(result.is_err(), "the panic must surface on the master");
        assert_eq!(
            finished.load(Ordering::SeqCst),
            1,
            "sibling jobs still complete before the scope returns"
        );
        // The pool survives a panicked scope.
        let ok = AtomicU64::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                ok.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scope_catch_reports_panics_as_data() {
        let pool = WorkerPool::new(2);
        let (_, panicked) = pool.scope_catch(|s| {
            s.spawn(|| panic!("caught"));
        });
        assert!(panicked);
        let (_, panicked) = pool.scope_catch(|s| {
            s.spawn(|| {});
        });
        assert!(!panicked, "a clean scope reports no panic");
    }

    #[test]
    fn panicking_job_does_not_orphan_queued_jobs_or_hang_drop() {
        // Regression (ISSUE 6 satellite): a single worker, a panicking
        // job at the head of the queue, and a pile of jobs behind it —
        // every queued job must still run, `scope_catch` must return (no
        // wedged latch), and dropping the pool right after must join
        // cleanly instead of hanging on an orphaned queue.
        let pool = WorkerPool::new(1);
        let ran = AtomicU64::new(0);
        let (_, panicked) = pool.scope_catch(|s| {
            s.spawn(|| panic!("head of queue"));
            for _ in 0..16 {
                s.spawn(|| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert!(panicked);
        assert_eq!(
            ran.load(Ordering::SeqCst),
            16,
            "jobs queued behind a panicking job must still run"
        );
        drop(pool); // must not hang
    }

    /// A deterministic hook that kills the worker picking up the `n`-th
    /// job (0-based) — the pool-crate stand-in for the runtime's fault
    /// injector.
    struct KillNth {
        n: u64,
        seen: AtomicU64,
    }

    impl JobHooks for KillNth {
        fn on_job_pickup(&self) -> JobFate {
            if self.seen.fetch_add(1, Ordering::SeqCst) == self.n {
                JobFate::KillThread
            } else {
                JobFate::Run
            }
        }
    }

    #[test]
    fn hook_kill_respawns_and_requeues_the_job() {
        let hooks: Arc<dyn JobHooks> = Arc::new(KillNth {
            n: 1,
            seen: AtomicU64::new(0),
        });
        let pool = WorkerPool::with_hooks(2, Some(hooks));
        let before: HashSet<ThreadId> = pool.thread_ids().into_iter().collect();
        assert_eq!(before.len(), 2);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(
            counter.load(Ordering::SeqCst),
            8,
            "the job whose worker died must be requeued and still run"
        );
        assert_eq!(pool.respawns(), 1);
    }

    #[test]
    fn worker_flag_is_set_on_pool_threads_only() {
        let pool = WorkerPool::new(2);
        assert!(!on_pool_worker(), "the master thread is not a worker");
        let on_worker = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    if on_pool_worker() {
                        on_worker.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(on_worker.load(Ordering::SeqCst), 4);
        assert!(!on_pool_worker());
    }

    #[test]
    fn queue_depth_histogram_fills_on_enqueue() {
        let obs = Arc::new(Recorder::new());
        let pool = WorkerPool::with_hooks_obs(2, None, Some(Arc::clone(&obs)));
        pool.scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {});
            }
        });
        let snap = obs.snapshot();
        let total: u64 = snap
            .histograms
            .iter()
            .filter(|(name, _)| name == "pool/queue_depth")
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(total, 16, "one queue-depth sample per enqueued job");
    }
}
