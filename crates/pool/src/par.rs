//! Data-parallel mapping on a [`WorkerPool`], and the process-global
//! analysis pool.
//!
//! `par_map` is the pool-backed `into_par_iter().map().collect()`: the
//! caller and the pool's persistent workers claim items from one atomic
//! cursor ([`WorkerPool::help`]), so repeated sweeps reuse threads instead
//! of re-spawning them per call. Order of results matches order of inputs.
//!
//! Every caller fans out, a pool worker mapping inside a job included, and
//! several may share the global pool at once (the daemon's handler
//! threads among them): a caller finishes its map even if every pool
//! worker is busy, itself or with another caller's items, because `help`
//! withdraws the copies no worker started.

use crate::pool::WorkerPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// [`par_map`] on an explicit `pool` (the unit tests pick the width).
fn par_map_on<T, R, F>(pool: &WorkerPool, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if pool.size() <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    // Each slot, input then output, is locked once: by the copy that
    // claimed its index from the cursor.
    let slots: Vec<Mutex<(Option<T>, Option<R>)>> = items
        .into_iter()
        .map(|t| Mutex::new((Some(t), None)))
        .collect();
    let cursor = AtomicUsize::new(0);
    pool.help(pool.size().min(n - 1), &|| {
        while let Some(slot) = slots.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let mut slot = slot.lock().expect("par_map slot poisoned");
            slot.1 = slot.0.take().map(&f);
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("par_map slot poisoned").1)
        .map(|r| r.expect("every slot written"))
        .collect()
}

/// Map `f` over `items` on the [`global`] pool, preserving input order in
/// the result.
///
/// Runs inline (no pool traffic) when the pool is single-threaded or the
/// input is trivial.
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
    use std::sync::Barrier;

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
    fn nested_par_map_finishes_without_deadlock() {
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

    /// Two items that wait on one barrier finish only if two threads map
    /// them at once: `par_map_on` fans out from a plain thread and from
    /// inside a pool job alike.
    #[test]
    fn par_map_fans_out_from_a_thread_and_from_a_pool_job() {
        let pool = WorkerPool::new(3);
        let on_two_threads = || {
            let barrier = Barrier::new(2);
            let ids = par_map_on(&pool, vec![0, 1], |_| {
                barrier.wait();
                std::thread::current().id()
            });
            assert_ne!(ids[0], ids[1]);
        };
        on_two_threads();
        pool.scope(|s| s.spawn(on_two_threads));
    }
}
