//! A persistent worker-thread pool with scoped, borrowing jobs.
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
//! ## Panics
//!
//! A job panic is caught twice over: the scope wrapper catches the job's
//! unwind and still decrements the latch (so sibling and queued jobs run
//! and `scope` returns), and the worker loop catches anything that escapes
//! the wrapper. So a worker thread only ever exits at shutdown, and the
//! pool keeps its width and its thread identities for its whole life.
//! [`WorkerPool::scope`] re-raises the panic after the join;
//! [`WorkerPool::scope_catch`] instead reports it as data — the executor
//! uses that to turn a panicked chunk worker into an ordinary sequential
//! fallback.
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

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, ThreadId};

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
pub(crate) fn on_pool_worker() -> bool {
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
}

/// A fixed-size pool of persistent worker threads.
///
/// Created once per embedder (a runtime, the process-wide analysis pool)
/// and reused by every parallel activation; dropped, it shuts its threads
/// down and joins them. Panicking jobs never kill a worker — see the
/// module docs.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.size())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool of `threads` persistent workers (at least one).
    pub fn new(threads: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let handles = (0..threads.max(1))
            .map(|n| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pspdg-worker-{n}"))
                    .spawn(move || {
                        IN_POOL_WORKER.with(|f| f.set(true));
                        worker_loop(&shared);
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads the pool maintains (its width — constant
    /// for the pool's life).
    pub fn size(&self) -> usize {
        self.handles.len()
    }

    /// The OS thread identities of the live workers — lets tests assert
    /// that the same threads serve successive activations (pool reuse) and
    /// that none was lost.
    pub fn thread_ids(&self) -> Vec<ThreadId> {
        self.handles
            .iter()
            .filter(|h| !h.is_finished())
            .map(|h| h.thread().id())
            .collect()
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
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
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
        // observed dangling by the pool threads.
        let erased: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(
                wrapped,
            )
        };
        self.pool
            .shared
            .state
            .lock()
            .expect("pool lock poisoned")
            .queue
            .push_back(erased);
        self.pool.shared.work.notify_one();
    }
}

fn worker_loop(shared: &PoolShared) {
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
    use std::sync::atomic::{AtomicU64, Ordering};

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

    #[test]
    fn a_panicking_job_keeps_every_worker_thread() {
        // Both unwind nets sit inside the worker loop, so a panicking job
        // never costs the pool a thread: the same identities serve the
        // next scope, at every width.
        for width in [1, 2] {
            let pool = WorkerPool::new(width);
            let before: HashSet<ThreadId> = pool.thread_ids().into_iter().collect();
            assert_eq!(before.len(), width);
            let (_, panicked) = pool.scope_catch(|s| {
                for _ in 0..4 * width {
                    s.spawn(|| panic!("every job panics"));
                }
            });
            assert!(panicked);
            let after: HashSet<ThreadId> = pool.thread_ids().into_iter().collect();
            assert_eq!(after, before, "width {width}: a worker thread was lost");
            let ran = AtomicU64::new(0);
            pool.scope(|s| {
                for _ in 0..4 * width {
                    s.spawn(|| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(ran.load(Ordering::SeqCst), 4 * width as u64);
            assert_eq!(
                pool.thread_ids().into_iter().collect::<HashSet<_>>(),
                before,
                "width {width}: the clean scope ran on the same threads"
            );
        }
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
}
