//! A persistent worker-thread pool with scoped, borrowing jobs.
//!
//! The threads are created **once per embedder** (the process-wide
//! [`crate::global`] pool, a benchmark sweep); each fan-out merely
//! enqueues jobs and waits for a completion latch, so activation-heavy
//! kernels (LU's wavefront re-forks each outer iteration) never pay a
//! thread spawn per loop entry.
//!
//! [`WorkerPool::scope`] mirrors `std::thread::scope`, so call sites keep
//! borrowing the caller's state:
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
//! [`WorkerPool::help`] runs one closure on the caller and on up to
//! `helpers` workers, which share the work through a cursor the closure
//! claims from; [`crate::par_map`] and the runtime's chunked activations
//! use it. Copies no worker started by the time the caller's own copy
//! returns are withdrawn, so a caller on a busy pool, even one of its own
//! workers, does the work alone instead of waiting.
//!
//! ## Panics
//!
//! A job panic is caught twice over: the job wrapper catches the job's
//! unwind and still counts the job done, and the worker loop catches
//! anything that escapes the wrapper. So a worker thread only ever exits
//! at shutdown, and the pool keeps its width and its thread identities for
//! its whole life. `scope` and `help` re-raise a panic only after every
//! job they started has finished.
//!
//! ## Safety
//!
//! Jobs borrow the caller's environment (`'env`), but pool threads are
//! `'static`, so a queued job's lifetime is erased with an `unsafe`
//! transmute. Soundness rests on one invariant, the same one
//! `std::thread::scope` and rayon's scoped pools rely on: **neither
//! `scope` nor `help` returns (not even by unwinding) while a job it
//! queued can still run** — each awaits its completion latch on both
//! paths, and `help` first withdraws its unstarted jobs under the queue's
//! lock.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, ThreadId};

/// A lifetime-erased unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The queue tag of a [`Scope::spawn`] job, which is never withdrawn. A
/// [`WorkerPool::help`] call tags its jobs with the address of its latch,
/// which is never null.
const SCOPED: usize = 0;

struct PoolState {
    /// Queued jobs, each with its caller's tag ([`SCOPED`] or a `help`
    /// call's latch address).
    queue: VecDeque<(usize, Job)>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a job arrives or the pool shuts down.
    work: Condvar,
}

/// A fixed-size pool of persistent worker threads.
///
/// Created once per embedder (the process-wide [`crate::global`] pool, a
/// benchmark sweep) and reused by every fan-out; dropped, it shuts its
/// threads down and joins them. Panicking jobs never kill a worker — see
/// the module docs.
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
                    .spawn(move || worker_loop(&shared))
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
    /// that the same threads serve successive fan-outs (pool reuse) and
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
        let scope = Scope {
            pool: self,
            latch: Arc::default(),
            _env: std::marker::PhantomData,
        };
        // Await completion even when `f` unwinds: jobs borrow `'env` and
        // must not outlive this call frame.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        let panicked = scope.latch.join(0);
        match result {
            Ok(r) => {
                assert!(!panicked, "pool worker job panicked");
                r
            }
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Run `work` on the calling thread and on up to `helpers` pool threads
    /// (at most the pool's width), which are meant to share the work
    /// through a cursor they claim from. Once the caller's own copy
    /// returns, copies no worker has started are withdrawn from the queue,
    /// and `help` waits only for the running ones: so a caller that is a
    /// worker of this very pool cannot deadlock. A panic in any copy is
    /// re-raised after every started copy has finished.
    pub fn help(&self, helpers: usize, work: &(dyn Fn() + Sync)) {
        let helpers = helpers.min(self.size());
        let latch = Arc::<Latch>::default();
        let tag = Arc::as_ptr(&latch) as usize;
        for _ in 0..helpers {
            // SAFETY: below, each copy is withdrawn or joined before
            // `help` returns or unwinds.
            unsafe { self.push(tag, &latch, work) };
        }
        let mine = catch_unwind(AssertUnwindSafe(work));
        let withdrawn = {
            let mut s = self.shared.state.lock().expect("pool lock poisoned");
            let queued = s.queue.len();
            s.queue.retain(|(t, _)| *t != tag);
            queued - s.queue.len()
        };
        let panicked = latch.join(withdrawn);
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        assert!(!panicked, "pool worker job panicked");
    }

    /// Queue `job` under `tag` as one more job of `latch`, which the job
    /// counts done however it ends.
    ///
    /// # Safety
    ///
    /// The caller must not return, on the normal or the unwind path, until
    /// the job has run or been withdrawn from the queue, so the `'env`
    /// borrows inside it are never observed dangling.
    unsafe fn push<'env>(&self, tag: usize, latch: &Arc<Latch>, job: impl FnOnce() + Send + 'env) {
        latch.state.lock().expect("pool latch poisoned").0 += 1;
        let latch = Arc::clone(latch);
        let job: Box<dyn FnOnce() + Send + 'env> =
            Box::new(move || latch.done(catch_unwind(AssertUnwindSafe(job)).is_err()));
        // SAFETY: guaranteed by this function's caller.
        let job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
        let mut s = self.shared.state.lock().expect("pool lock poisoned");
        s.queue.push_back((tag, job));
        drop(s);
        self.shared.work.notify_one();
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

/// The completion latch of one `scope` or `help` call.
#[derive(Default)]
struct Latch {
    /// Jobs queued and not yet finished or withdrawn, and whether one
    /// panicked.
    state: Mutex<(usize, bool)>,
    done: Condvar,
}

impl Latch {
    /// One job finished (`panicked` if it unwound).
    fn done(&self, panicked: bool) {
        let mut s = self.state.lock().expect("pool latch poisoned");
        s.0 -= 1;
        s.1 |= panicked;
        if s.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Forget `withdrawn` jobs that will never run, wait for the rest, and
    /// report whether any job panicked.
    fn join(&self, withdrawn: usize) -> bool {
        let mut s = self.state.lock().expect("pool latch poisoned");
        s.0 -= withdrawn;
        while s.0 > 0 {
            s = self.done.wait(s).expect("pool latch poisoned");
        }
        s.1
    }
}

/// Handle for spawning borrowing jobs inside [`WorkerPool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    latch: Arc<Latch>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Enqueue `job` on the pool. The job may borrow from `'env`; the
    /// enclosing [`WorkerPool::scope`] call joins it before returning.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'env) {
        // SAFETY: `scope` joins every spawned job before it returns or
        // unwinds.
        unsafe { self.pool.push(SCOPED, &self.latch, job) };
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut s = shared.state.lock().expect("pool lock poisoned");
            loop {
                if let Some((_, job)) = s.queue.pop_front() {
                    break job;
                }
                if s.shutdown {
                    return;
                }
                s = shared.work.wait(s).expect("pool lock poisoned");
            }
        };
        // The job wrapper already catches the user job's panic; this
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
    fn panicking_job_does_not_orphan_queued_jobs_or_hang_drop() {
        // Regression: a single worker, a panicking job at the head of the
        // queue, and a pile of jobs behind it — every queued job must
        // still run, `scope` must re-raise instead of wedging its latch,
        // and dropping the pool right after must join cleanly instead of
        // hanging on an orphaned queue.
        let pool = WorkerPool::new(1);
        let ran = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("head of queue"));
                for _ in 0..16 {
                    s.spawn(|| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(result.is_err());
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
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|s| {
                    for _ in 0..4 * width {
                        s.spawn(|| panic!("every job panics"));
                    }
                });
            }));
            assert!(result.is_err());
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
    fn help_withdraws_the_copies_no_worker_started() {
        // The only worker is held by a blocking job, so the helper copy
        // cannot start: the caller must claim every item itself and return
        // while the worker is still blocked. Without the withdrawal, `help`
        // would wait out the blocker's five-second timeout.
        let pool = WorkerPool::new(1);
        let (release, blocked) = std::sync::mpsc::channel::<()>();
        let (started, holding) = std::sync::mpsc::channel::<()>();
        let (blocker_done, claimed) = (AtomicU64::new(0), AtomicU64::new(0));
        pool.scope(|s| {
            let done = &blocker_done;
            s.spawn(move || {
                started.send(()).unwrap();
                let _ = blocked.recv_timeout(std::time::Duration::from_secs(5));
                done.store(1, Ordering::SeqCst);
            });
            holding.recv().unwrap();
            pool.help(1, &|| while claimed.fetch_add(1, Ordering::SeqCst) < 64 {});
            assert_eq!(blocker_done.load(Ordering::SeqCst), 0, "help waited");
            release.send(()).unwrap();
        });
    }

    #[test]
    fn help_reraises_the_callers_panic_after_its_started_helpers_finish() {
        // The caller's copy panics while the helper copy is still busy:
        // the panic must surface only after the helper has finished, never
        // while it can still touch the borrow.
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let (helper_started, helper_done) = (AtomicU64::new(0), AtomicU64::new(0));
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.help(1, &|| {
                if std::thread::current().id() == caller {
                    while helper_started.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                    panic!("the caller's copy");
                }
                helper_started.store(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(20));
                helper_done.store(1, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err(), "the caller's panic must surface");
        assert_eq!(helper_done.load(Ordering::SeqCst), 1, "re-raised too early");
    }
}
