//! The content-addressed session cache with an LRU byte budget.
//!
//! [`PlanStore`] maps [`content_key`]s to `Arc<Session>`s — the cached
//! suffix of the Fig. 2 pipeline (profile, PDGs, overlay-assembled
//! PS-PDGs, per-abstraction plans). Lookups are **single-flight**: when
//! N threads request the same unseen program concurrently, exactly one
//! builds the session while the rest block on a condvar and then share
//! the result, so the store never builds the same module twice (the
//! concurrent-hammer test pins this through the recorder's
//! `pspdg/pdg_build` span counts).
//!
//! A second map remembers the exact source text behind each ready
//! session, so a byte-identical repeat of [`PlanStore::get_source`] skips
//! the compile and the hash (a memo hit is string equality, never a hash
//! match); a reformatted source still compiles and converges on its key.
//!
//! Entries are charged their [`Session::approx_bytes`] plus their
//! remembered sources against a byte budget; insertion beyond the budget
//! evicts least-recently-used ready entries and their sources (never the
//! entry being returned, never an in-flight build).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use pspdg_frontend::compile;
use pspdg_obs::Recorder;
use pspdg_parallel::ParallelProgram;

use crate::hash::content_key;
use crate::session::{Session, SessionError};

/// Default [`PlanStore`] byte budget: plenty for every NAS kernel and a
/// long tail of ad-hoc requests, small enough that a runaway corpus
/// recycles memory instead of growing without bound.
pub const DEFAULT_BUDGET_BYTES: usize = 64 << 20;

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
    entries: HashMap<u64, Slot>,
    /// Source text → the key of the ready session it compiled to. Only
    /// ready keys appear here: eviction drops a key's sources with it.
    sources: HashMap<Arc<str>, u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    builds: u64,
}

/// The content-addressed, byte-budgeted, single-flight session cache.
pub struct PlanStore {
    budget: usize,
    rec: Option<Arc<Recorder>>,
    inner: Mutex<Inner>,
    built: Condvar,
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
        }
    }

    /// Attach a recorder: cache hits/misses/evictions become counters
    /// (`service/cache_*`) and every session built through the store
    /// records its pipeline spans (`pspdg/pdg_build`, `plan/enumerate`,
    /// …) — which is how tests prove a warm request rebuilds nothing.
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
        let mut bytes = 0;
        let mut entries = 0;
        for slot in inner.entries.values() {
            if let Slot::Ready { bytes: b, .. } = slot {
                bytes += b;
                entries += 1;
            }
        }
        StoreStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            builds: inner.builds,
            bytes,
            entries,
        }
    }

    /// Whether `key` is cached and ready (does not touch recency).
    pub fn contains(&self, key: u64) -> bool {
        matches!(
            self.inner.lock().expect("store lock").entries.get(&key),
            Some(Slot::Ready { .. })
        )
    }

    /// The cached (or freshly built) session for ParC `source`. A source
    /// byte-identical to one that built or hit a still-cached session is
    /// answered without compiling or hashing; any other source compiles to
    /// find its content key, so a reformatted program still shares the
    /// session (profile, PDG build, plans) of the one it parses to.
    ///
    /// # Errors
    ///
    /// See [`SessionError`]; a failed compile or build is not remembered.
    pub fn get_source(&self, source: &str) -> Result<Arc<Session>, SessionError> {
        let mut inner = self.inner.lock().expect("store lock");
        let memo = inner.sources.get(source).copied();
        if let Some(out) = memo.and_then(|k| inner.hit(k)) {
            drop(inner);
            self.count("service/cache_hit", 1);
            return Ok(out);
        }
        drop(inner);
        let session = self.lookup(compile(source)?, true)?;
        let key = session.key();
        let mut guard = self.inner.lock().expect("store lock");
        let inner = &mut *guard;
        let mut evicted = 0;
        // Remember the source only while its session is still cached, and
        // charge it once: a concurrent miss on the same bytes finds it here.
        if let Some(Slot::Ready { bytes, .. }) = inner.entries.get_mut(&key) {
            if !inner.sources.contains_key(source) {
                *bytes += source.len();
                inner.sources.insert(Arc::from(source), key);
                evicted = evict_over_budget(inner, self.budget, key);
            }
        }
        drop(guard);
        self.count("service/cache_eviction", evicted);
        Ok(session)
    }

    /// The cached session for `program`, building it (exactly once, even
    /// under concurrency) on a miss.
    ///
    /// # Errors
    ///
    /// See [`SessionError`]. A failed build is not cached; the next
    /// request retries.
    pub fn get_or_build(&self, program: ParallelProgram) -> Result<Arc<Session>, SessionError> {
        self.lookup(program, false)
    }

    /// [`PlanStore::get_or_build`]; a miss validates `program` first unless
    /// the caller says it is `validated` (the frontend's output is).
    fn lookup(
        &self,
        program: ParallelProgram,
        validated: bool,
    ) -> Result<Arc<Session>, SessionError> {
        let key = content_key(&program);
        {
            let mut inner = self.inner.lock().expect("store lock");
            loop {
                if let Some(out) = inner.hit(key) {
                    drop(inner);
                    self.count("service/cache_hit", 1);
                    return Ok(out);
                }
                if let Entry::Vacant(slot) = inner.entries.entry(key) {
                    slot.insert(Slot::Building);
                    inner.misses += 1;
                    break;
                }
                inner = self.built.wait(inner).expect("store lock");
            }
        }
        self.count("service/cache_miss", 1);
        // Build outside the lock — the whole point of single-flight is
        // that concurrent *distinct* programs build in parallel.
        let valid = if validated {
            Ok(())
        } else {
            program.validate().map_err(SessionError::Invalid)
        };
        let result = valid.and_then(|()| Session::with_key(program, key, self.rec.clone()));
        let mut inner = self.inner.lock().expect("store lock");
        match result {
            Ok(session) => {
                let session = Arc::new(session);
                let bytes = session.approx_bytes();
                inner.tick += 1;
                let tick = inner.tick;
                inner.builds += 1;
                inner.entries.insert(
                    key,
                    Slot::Ready {
                        session: Arc::clone(&session),
                        bytes,
                        last_used: tick,
                    },
                );
                let evicted = evict_over_budget(&mut inner, self.budget, key);
                drop(inner);
                self.count("service/cache_eviction", evicted);
                self.built.notify_all();
                Ok(session)
            }
            Err(e) => {
                inner.entries.remove(&key);
                drop(inner);
                self.built.notify_all();
                Err(e)
            }
        }
    }

    fn count(&self, name: &'static str, n: u64) {
        if let Some(r) = &self.rec {
            r.add(name, n);
        }
    }
}

impl Inner {
    /// `key`'s ready session, touched for LRU and counted as a hit;
    /// `None` if it is absent or still building.
    fn hit(&mut self, key: u64) -> Option<Arc<Session>> {
        self.tick += 1;
        let Some(Slot::Ready {
            session, last_used, ..
        }) = self.entries.get_mut(&key)
        else {
            return None;
        };
        *last_used = self.tick;
        self.hits += 1;
        Some(Arc::clone(session))
    }
}

impl Default for PlanStore {
    fn default() -> PlanStore {
        PlanStore::new()
    }
}

/// Evict least-recently-used ready entries, with the sources remembered
/// for them, until the charged bytes fit the budget; `keep` (the entry
/// being returned) and in-flight builds are never evicted. Returns how
/// many entries were dropped.
fn evict_over_budget(inner: &mut Inner, budget: usize, keep: u64) -> u64 {
    let mut evicted = 0;
    loop {
        let total: usize = inner
            .entries
            .values()
            .map(|s| match s {
                Slot::Ready { bytes, .. } => *bytes,
                Slot::Building => 0,
            })
            .sum();
        if total <= budget {
            break;
        }
        let victim = inner
            .entries
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Ready { last_used, .. } if *k != keep => Some((*last_used, *k)),
                _ => None,
            })
            .min();
        let Some((_, k)) = victim else { break };
        inner.entries.remove(&k);
        inner.sources.retain(|_, key| *key != k);
        inner.evictions += 1;
        evicted += 1;
    }
    evicted
}
