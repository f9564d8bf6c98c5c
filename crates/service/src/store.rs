//! The content-addressed session cache with an LRU byte budget.
//!
//! [`PlanStore`] maps programs to `Arc<Session>`s — the cached suffix of
//! the Fig. 2 pipeline (profile, PDGs, overlay-assembled PS-PDGs,
//! per-abstraction plans). The [`content_key`] picks the bucket and a hit
//! compares the whole program, so two programs whose keys collide get an
//! entry each. Lookups are **single-flight**: when N threads request the
//! same unseen program concurrently, exactly one builds the session while
//! the rest block on a condvar and then share the result, so the store
//! never builds the same module twice (the concurrent-hammer test pins
//! this through the recorder's `pspdg/pdg_build` span count: one span
//! per session build, however many functions the module has).
//!
//! A second map remembers the exact source text behind each ready
//! session, so a byte-identical repeat of [`PlanStore::get_source`] skips
//! the compile and the key (a memo hit is string equality, never a hash
//! match); a reformatted source still compiles and converges on its program.
//!
//! Entries are charged their [`Session::approx_bytes`] plus their
//! remembered sources against a byte budget; insertion beyond the budget
//! evicts least-recently-used ready entries and their sources (never the
//! entry being returned, never an in-flight build). Freeing a module-scale
//! session's graphs takes milliseconds, so the evicting request does not
//! pay it: evicted entries go to the store's one **reaper** thread, which
//! the store spawns at its first eviction and feeds through a bounded
//! [`Channel`] of `REAPER_QUEUE` batches (a full queue blocks the
//! evictor, so frees never lag far behind). Dropping the store closes the
//! channel and joins the reaper once it has freed every queued batch.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use pspdg_frontend::compile;
use pspdg_obs::Recorder;
use pspdg_parallel::ParallelProgram;
use pspdg_pool::Channel;

use crate::hash::content_key;
use crate::session::{Session, SessionError};

/// Default [`PlanStore`] byte budget: plenty for every NAS kernel and a
/// long tail of ad-hoc requests, small enough that a runaway corpus
/// recycles memory instead of growing without bound.
pub const DEFAULT_BUDGET_BYTES: usize = 64 << 20;

/// Eviction batches the reaper may have queued before an evicting request
/// blocks until it catches up.
const REAPER_QUEUE: usize = 2;

/// Cache effectiveness counters (monotonic except `bytes`/`entries`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from cache (including waiters that joined an
    /// in-flight build).
    pub hits: u64,
    /// Lookups that triggered a build.
    pub misses: u64,
    /// Ready entries evicted to fit the byte budget.
    pub evictions: u64,
    /// Sessions actually built (== `misses` minus failed builds).
    pub builds: u64,
    /// Bytes currently charged by ready entries: each session's
    /// [`Session::approx_bytes`] plus the sources remembered for it.
    pub bytes: usize,
    /// Ready entries currently cached.
    pub entries: usize,
}

/// The store's map key: hashes as the content key and compares as the key
/// and then the program (`Arc`'s `==` tries the pointer first), so the
/// map's own equality check is the verify-on-hit.
#[derive(Clone, PartialEq, Eq)]
struct Keyed {
    key: u64,
    program: Arc<ParallelProgram>,
}

impl Hash for Keyed {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key.hash(state);
    }
}

enum Slot {
    /// A build is in flight on some thread; waiters block on the condvar.
    Building,
    Ready {
        session: Arc<Session>,
        bytes: usize,
        last_used: u64,
    },
}

struct Inner {
    entries: HashMap<Keyed, Slot>,
    /// Source text → the entry of the ready session it compiled to. Only
    /// ready entries appear here: eviction drops an entry's sources with it.
    sources: HashMap<Arc<str>, Keyed>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    builds: u64,
}

/// Entries one `settle` evicted.
type Evicted = Vec<(Keyed, Slot)>;

/// The thread that frees evicted entries, and its queue.
struct Reaper {
    queue: Channel<Evicted>,
    thread: JoinHandle<()>,
}

/// The content-addressed, byte-budgeted, single-flight session cache.
pub struct PlanStore {
    budget: usize,
    rec: Option<Arc<Recorder>>,
    inner: Mutex<Inner>,
    built: Condvar,
    /// Spawned at the first eviction.
    reaper: OnceLock<Reaper>,
}

impl std::fmt::Debug for PlanStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanStore")
            .field("budget", &self.budget)
            .field("stats", &s)
            .finish()
    }
}

impl PlanStore {
    /// A store with the default byte budget ([`DEFAULT_BUDGET_BYTES`]).
    pub fn new() -> PlanStore {
        PlanStore::with_budget(DEFAULT_BUDGET_BYTES)
    }

    /// A store evicting LRU entries beyond `budget_bytes`.
    pub fn with_budget(budget_bytes: usize) -> PlanStore {
        PlanStore {
            budget: budget_bytes.max(1),
            rec: None,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                sources: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                builds: 0,
            }),
            built: Condvar::new(),
            reaper: OnceLock::new(),
        }
    }

    /// Attach a recorder: every session built through the store records
    /// one span per pipeline phase it runs (`pspdg/pdg_build` per build,
    /// `plan/enumerate` and `plan/schedule` per plan miss), timed on the
    /// calling thread — which is how tests prove a warm request rebuilds
    /// nothing. The cache's own traffic is counted in
    /// [`PlanStore::stats`] only.
    pub fn with_recorder(mut self, rec: Arc<Recorder>) -> PlanStore {
        self.rec = Some(rec);
        self
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Current cache counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store lock");
        let (bytes, entries) = inner.ready();
        StoreStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            builds: inner.builds,
            bytes,
            entries,
        }
    }

    /// The cached (or freshly built) session for ParC `source`. A source
    /// byte-identical to one that built or hit a still-cached session is
    /// answered without compiling or hashing; any other source compiles,
    /// so a reformatted program still shares the session (profile, PDG
    /// build, plans) of the one it parses to.
    ///
    /// # Errors
    ///
    /// See [`SessionError`]; a failed compile or build is not remembered.
    pub fn get_source(&self, source: &str) -> Result<Arc<Session>, SessionError> {
        let mut inner = self.inner.lock().expect("store lock");
        let memo = inner.sources.get(source).cloned();
        if let Some(out) = memo.and_then(|k| inner.hit(&k)) {
            return Ok(out);
        }
        drop(inner);
        let program = compile(source)?;
        let key = content_key(&program);
        self.lookup(program, key, Some(source))
    }

    /// The cached session for `program`, building it (exactly once, even
    /// under concurrency) on a miss.
    ///
    /// # Errors
    ///
    /// See [`SessionError`]. A failed build is not cached; the next
    /// request retries.
    pub fn get_or_build(&self, program: ParallelProgram) -> Result<Arc<Session>, SessionError> {
        let key = content_key(&program);
        self.lookup(program, key, None)
    }

    /// [`PlanStore::get_or_build`] for `program` under content `key`. The
    /// `source` it compiled from (so it is valid) is remembered; without
    /// one, a miss validates `program` first.
    fn lookup(
        &self,
        program: ParallelProgram,
        key: u64,
        source: Option<&str>,
    ) -> Result<Arc<Session>, SessionError> {
        let keyed = Keyed {
            key,
            program: Arc::new(program),
        };
        let mut inner = self.inner.lock().expect("store lock");
        loop {
            if let Some(out) = inner.hit(&keyed) {
                let evicted = settle(&mut inner, self.budget, &out, source);
                drop(inner);
                self.reap(evicted);
                return Ok(out);
            }
            if let Entry::Vacant(slot) = inner.entries.entry(keyed.clone()) {
                slot.insert(Slot::Building);
                inner.misses += 1;
                break;
            }
            inner = self.built.wait(inner).expect("store lock");
        }
        drop(inner);
        // Build outside the lock — the whole point of single-flight is
        // that concurrent *distinct* programs build in parallel.
        let valid = match source {
            Some(_) => Ok(()),
            None => keyed.program.validate().map_err(SessionError::Invalid),
        };
        let result = valid
            .and_then(|()| Session::with_key(Arc::clone(&keyed.program), key, self.rec.clone()))
            .map(|session| (session.approx_bytes(), Arc::new(session)));
        let mut inner = self.inner.lock().expect("store lock");
        match result {
            Ok((bytes, session)) => {
                inner.tick += 1;
                let tick = inner.tick;
                inner.builds += 1;
                inner.entries.insert(
                    keyed,
                    Slot::Ready {
                        session: Arc::clone(&session),
                        bytes,
                        last_used: tick,
                    },
                );
                let evicted = settle(&mut inner, self.budget, &session, source);
                drop(inner);
                self.built.notify_all();
                self.reap(evicted);
                Ok(session)
            }
            Err(e) => {
                inner.entries.remove(&keyed);
                drop(inner);
                self.built.notify_all();
                Err(e)
            }
        }
    }

    /// Hand `evicted` to the reaper, spawning it at the first eviction.
    fn reap(&self, evicted: Evicted) {
        if evicted.is_empty() {
            return;
        }
        let reaper = self.reaper.get_or_init(|| {
            let queue = Channel::bounded(REAPER_QUEUE);
            let rx = queue.clone();
            let thread = std::thread::Builder::new()
                .name("pspdg-reaper".to_string())
                .spawn(move || {
                    while let Some(evicted) = rx.recv() {
                        drop(evicted);
                    }
                })
                .expect("spawn reaper thread");
            Reaper { queue, thread }
        });
        // Only `Drop` closes the queue, so this send never fails.
        let _ = reaper.queue.send(evicted);
    }
}

impl Drop for PlanStore {
    fn drop(&mut self) {
        if let Some(reaper) = self.reaper.take() {
            reaper.queue.close();
            let _ = reaper.thread.join();
        }
    }
}

impl Inner {
    /// `keyed`'s ready session, touched for LRU and counted as a hit;
    /// `None` if it is absent or still building.
    fn hit(&mut self, keyed: &Keyed) -> Option<Arc<Session>> {
        self.tick += 1;
        let Some(Slot::Ready {
            session, last_used, ..
        }) = self.entries.get_mut(keyed)
        else {
            return None;
        };
        *last_used = self.tick;
        self.hits += 1;
        Some(Arc::clone(session))
    }

    /// Bytes charged by the ready entries, and how many there are.
    fn ready(&self) -> (usize, usize) {
        self.entries
            .values()
            .fold((0, 0), |(b, n), slot| match slot {
                Slot::Ready { bytes, .. } => (b + bytes, n + 1),
                Slot::Building => (b, n),
            })
    }
}

impl Default for PlanStore {
    fn default() -> PlanStore {
        PlanStore::new()
    }
}

/// Remember that `source`, if any, compiles to `session`'s entry while
/// that entry is cached, charging its bytes once (a concurrent miss on the
/// same bytes finds it remembered). Then evict least-recently-used ready
/// entries, with their sources, until the charged bytes fit `budget`;
/// `session`'s entry and in-flight builds are never evicted. Returns the
/// evicted entries, for the caller to hand to the reaper once the lock is
/// released.
fn settle(inner: &mut Inner, budget: usize, session: &Session, source: Option<&str>) -> Evicted {
    // The slot's own program, so the memo holds no second copy of it.
    let keyed = &Keyed {
        key: session.key(),
        program: Arc::clone(session.program()),
    };
    if let Some(source) = source.filter(|s| !inner.sources.contains_key(*s)) {
        if let Some(Slot::Ready { bytes, .. }) = inner.entries.get_mut(keyed) {
            *bytes += source.len();
            inner.sources.insert(Arc::from(source), keyed.clone());
        }
    }
    let mut evicted = Vec::new();
    let mut charged = inner.ready().0;
    while charged > budget {
        let victim = inner
            .entries
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Ready {
                    last_used, bytes, ..
                } if k != keyed => Some((*last_used, *bytes, k)),
                _ => None,
            })
            .min_by_key(|&(last_used, ..)| last_used)
            .map(|(_, bytes, k)| (bytes, k.clone()));
        let Some((bytes, k)) = victim else { break };
        charged -= bytes;
        evicted.extend(inner.entries.remove_entry(&k));
        inner.sources.retain(|_, entry| *entry != k);
        inner.evictions += 1;
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::tests::returns_float;

    #[test]
    fn a_nan_constant_hits_its_own_session() {
        let store = PlanStore::new();
        let first = store.get_or_build(returns_float(f64::NAN)).unwrap();
        let again = store.get_or_build(returns_float(f64::NAN)).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let stats = store.stats();
        assert_eq!((stats.builds, stats.hits), (1, 1));
    }

    #[test]
    fn programs_forced_onto_one_key_get_a_session_each() {
        let store = PlanStore::new();
        let programs = [returns_float(1.0), returns_float(2.0)];
        let lookup = |p: &ParallelProgram| store.lookup(p.clone(), 7, None).unwrap();
        let first: Vec<_> = programs.iter().map(lookup).collect();
        for (p, session) in programs.iter().zip(&first) {
            let again = lookup(p);
            assert!(
                Arc::ptr_eq(&again, session),
                "a repeat hits its own session"
            );
            assert_eq!(**again.program(), *p);
            assert_eq!(again.key(), 7);
        }
        let stats = store.stats();
        assert_eq!((stats.builds, stats.entries, stats.hits), (2, 2, 2));
    }

    #[test]
    fn evicting_one_of_two_colliding_programs_keeps_the_other() {
        let store = PlanStore::with_budget(1);
        let (a, b) = (returns_float(1.0), returns_float(2.0));
        store.lookup(a.clone(), 7, None).unwrap();
        let kept = store.lookup(b.clone(), 7, None).unwrap();
        assert_eq!(store.stats().evictions, 1);
        assert!(Arc::ptr_eq(&store.lookup(b, 7, None).unwrap(), &kept));
        assert_eq!(**store.lookup(a.clone(), 7, None).unwrap().program(), a);
        let stats = store.stats();
        assert_eq!((stats.builds, stats.hits, stats.entries), (3, 1, 1));
    }
}
