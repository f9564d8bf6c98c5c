//! Data-parallel mapping on a [`WorkerPool`], and the process-global
//! analysis pool.
//!
//! `par_map` is the pool-backed `into_par_iter().map().collect()`: it
//! distributes items
//! over the pool's persistent workers with an atomic work-stealing
//! cursor (the calling thread participates), so repeated sweeps reuse
//! threads instead of re-spawning them per call. Order of results
//! matches order of inputs.
//!
//! Nested calls degrade to inline execution: a pool worker calling
//! `par_map` would otherwise block a slot its sub-jobs need. Any other
//! thread fans out, and several may share the global pool at once (the
//! daemon's handler threads are plain threads for exactly this): each
//! caller claims items from its own cursor too, so it finishes its map
//! even if every pool worker is busy with another caller's items, and
//! only then waits for its queued jobs, which find nothing left to do.

use crate::pool::{on_pool_worker, WorkerPool};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One result slot, written by exactly one worker (the one that claimed
/// its index from the shared cursor).
struct Slot<R>(UnsafeCell<Option<R>>);

// SAFETY: the claim protocol (each index handed out once by fetch_add)
// guarantees exclusive access to each slot until the scope joins.
unsafe impl<R: Send> Sync for Slot<R> {}

/// [`par_map`] on an explicit `pool` (the unit tests pick the width).
fn par_map_on<T, R, F>(pool: &WorkerPool, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if pool.size() <= 1 || items.len() <= 1 || on_pool_worker() {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let inputs: Vec<Slot<T>> = items
        .into_iter()
        .map(|t| Slot(UnsafeCell::new(Some(t))))
        .collect();
    let outputs: Vec<Slot<R>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
    let cursor = AtomicUsize::new(0);
    let workers = pool.size().min(n);
    let run = |_worker: usize| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        // SAFETY: index `i` was claimed exactly once, so this worker has
        // exclusive access to inputs[i] and outputs[i]; the pool scope
        // joins every job before the Vecs drop.
        unsafe {
            let t = (*inputs[i].0.get()).take().expect("input claimed once");
            *outputs[i].0.get() = Some(f(t));
        }
    };
    pool.scope(|s| {
        for w in 0..workers {
            s.spawn(move || run(w));
        }
        run(workers);
    });
    outputs
        .into_iter()
        .map(|s| s.0.into_inner().expect("every slot written"))
        .collect()
}

/// Map `f` over `items` on the [`global`] pool, preserving input order in
/// the result.
///
/// Runs inline (no pool traffic) when the pool is single-threaded, the
/// input is trivial, or the caller is itself a pool worker.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_on(global(), items, f)
}

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

/// Width the global pool will be (or was) created with: the
/// `PSPDG_POOL_THREADS` env var if set, else the machine's parallelism.
pub fn default_width() -> usize {
    std::env::var("PSPDG_POOL_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// The process-global worker pool shared by every analysis sweep
/// (PDG module builds, enumeration sweeps, figure drivers). Created
/// lazily at [`default_width`]; lives for the process.
pub fn global() -> &'static WorkerPool {
    GLOBAL.get_or_init(|| WorkerPool::new(default_width()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let pool = WorkerPool::new(3);
        let out = par_map_on(&pool, (0..100u64).collect(), |x| x * x);
        assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_unit_inputs() {
        let pool = WorkerPool::new(2);
        assert_eq!(
            par_map_on(&pool, Vec::<u32>::new(), |x| x),
            Vec::<u32>::new()
        );
        assert_eq!(par_map_on(&pool, vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn nested_par_map_runs_inline_without_deadlock() {
        let pool = WorkerPool::new(2);
        let out = par_map_on(&pool, (0..8u64).collect(), |x| {
            par_map_on(&pool, (0..4u64).collect(), move |y| x + y)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(out.len(), 8);
        assert_eq!(out[0], 6);
        assert_eq!(out[7], 7 * 4 + 6);
    }
}
