//! PlanStore behavior: content-hash keying, the source memo and its
//! eviction, LRU eviction under a byte budget, single-flight builds
//! under a concurrent hammer, and the pipeline spans a recorded store
//! takes. Whether an entry is cached is read from the stats delta of a
//! follow-up lookup ([`cached`]).

use std::collections::HashSet;
use std::sync::Arc;

use pspdg_nas::synth;
use pspdg_obs::Recorder;
use pspdg_parallelizer::Abstraction;
use pspdg_service::{content_key, PlanStore, Session};

/// A kernel with real parallel structure (so plans/executions are
/// non-trivial) formatted one way...
const DENSE: &str = r#"
int v[64]; int s;
void k() { int i;
#pragma omp parallel for reduction(+: s)
for (i = 0; i < 64; i++) { v[i] = i * 2; s += i; } }
int main() { k(); return s; }
"#;

/// ...and the same program with different whitespace, comments, and
/// line structure: the parsed module is identical.
const AIRY: &str = r#"
int v[64];
int s;

void k() {
    int i;
    /* the hot loop */
    #pragma omp parallel for reduction(+: s)
    for (i = 0; i < 64; i++) {
        v[i] = i * 2;
        s += i;
    }
}

int main() {
    k();
    return s;
}
"#;

/// Semantically different (the multiplier changed).
const CHANGED: &str = r#"
int v[64]; int s;
void k() { int i;
#pragma omp parallel for reduction(+: s)
for (i = 0; i < 64; i++) { v[i] = i * 3; s += i; } }
int main() { k(); return s; }
"#;

/// A family of distinct programs for eviction / hammer tests.
fn variant(n: usize) -> String {
    format!(
        r#"
int v[{len}]; int s;
void k() {{ int i;
#pragma omp parallel for reduction(+: s)
for (i = 0; i < {len}; i++) {{ v[i] = i * 2; s += i; }} }}
int main() {{ k(); return s; }}
"#,
        len = 32 + 8 * n
    )
}

#[test]
fn formatting_only_change_hits_semantic_change_misses() {
    let store = PlanStore::new();
    let a = store.get_source(DENSE).unwrap();
    assert_eq!(store.stats().misses, 1);
    // A miss hashes once: the session carries the key the store filed it
    // under (checked by the lookup at the end), and that key is the
    // program's content key.
    assert_eq!(
        a.key(),
        content_key(&pspdg_frontend::compile(DENSE).unwrap())
    );

    let b = store.get_source(AIRY).unwrap();
    assert!(
        Arc::ptr_eq(&a, &b),
        "formatting-only reformat must return the same cached session"
    );
    assert_eq!(store.stats().hits, 1);
    assert_eq!(store.stats().builds, 1);

    let c = store.get_source(CHANGED).unwrap();
    assert!(!Arc::ptr_eq(&a, &c), "semantic change must miss");
    assert_eq!(store.stats().misses, 2);
    assert_eq!(store.stats().builds, 2);
    assert_ne!(a.key(), c.key());
    assert_eq!(a.key(), b.key());

    // The entry is filed under the program's content key: a lookup by the
    // compiled program, which skips the source memo, hits it.
    let program = pspdg_frontend::compile(DENSE).unwrap();
    assert!(Arc::ptr_eq(&store.get_or_build(program).unwrap(), &a));
    assert_eq!(store.stats().builds, 2);
}

#[test]
fn content_key_is_stable_across_recompiles() {
    let p1 = pspdg_frontend::compile(DENSE).unwrap();
    let p2 = pspdg_frontend::compile(AIRY).unwrap();
    let p3 = pspdg_frontend::compile(CHANGED).unwrap();
    assert_eq!(content_key(&p1), content_key(&p2));
    assert_ne!(content_key(&p1), content_key(&p3));
}

#[test]
fn lru_evicts_oldest_under_byte_budget() {
    // Budget sized from a real session so the store holds ~2 entries.
    let probe = Session::compile(&variant(0)).unwrap();
    let budget = probe.approx_bytes() * 5 / 2;
    let store = PlanStore::with_budget(budget);

    for n in 0..4 {
        store.get_source(&variant(n)).unwrap();
    }
    let stats = store.stats();
    assert!(
        stats.evictions >= 1,
        "4 sessions into a ~2-session budget must evict (stats: {stats:?})"
    );
    assert!(stats.bytes <= budget, "charged bytes exceed the budget");
    assert!(
        cached(&store, &variant(3)),
        "the just-inserted entry must survive eviction"
    );
    // A miss: variant 0 comes back as the newest entry.
    assert!(
        !cached(&store, &variant(0)),
        "the least-recently-used entry goes first"
    );

    // Touching an entry protects it: re-request variant 3, insert a new
    // one, and the victim must be variant 0 (now the oldest), not 3.
    store.get_source(&variant(3)).unwrap();
    store.get_source(&variant(4)).unwrap();
    assert!(
        cached(&store, &variant(3)),
        "recently-touched entry evicted"
    );
    assert!(!cached(&store, &variant(0)), "the oldest entry survived");
}

#[test]
fn hammer_same_program_builds_once_and_answers_identically() {
    let rec = Arc::new(Recorder::new());
    let store = Arc::new(PlanStore::new().with_recorder(Arc::clone(&rec)));
    const THREADS: usize = 8;

    let sessions: Vec<Arc<Session>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let store = Arc::clone(&store);
                // Half the threads use the dense formatting, half airy:
                // same content key either way.
                s.spawn(move || {
                    let src = if i % 2 == 0 { DENSE } else { AIRY };
                    store.get_source(src).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly one build; everyone shares it.
    let stats = store.stats();
    assert_eq!(stats.builds, 1, "single-flight violated: {stats:?}");
    assert_eq!(stats.hits + stats.misses, THREADS as u64);
    for s in &sessions[1..] {
        assert!(Arc::ptr_eq(&sessions[0], s));
    }

    // The recorder saw the PDG build exactly once — a second build
    // anywhere would double this count.
    let pdg_builds = span_count(&rec, "pspdg/pdg_build");
    assert!(pdg_builds > 0, "the one build must record pdg_build spans");

    // Now execute from every thread concurrently: results must be
    // bit-identical to each other and to the sequential baseline.
    let execs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let session = Arc::clone(&sessions[0]);
                s.spawn(move || session.execute(Abstraction::PsPdg, 2).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let baseline = sessions[0].baseline();
    for e in &execs {
        assert_eq!(e.globals_mismatch, None);
        assert!(e.matches_baseline(baseline));
        assert_eq!(e.ret, execs[0].ret);
        assert_eq!(e.output, execs[0].output);
    }

    // Executing did not rebuild anything.
    assert_eq!(span_count(&rec, "pspdg/pdg_build"), pdg_builds);
    assert_eq!(store.stats().builds, 1);
}

#[test]
fn hammer_distinct_programs_build_in_parallel_exactly_once_each() {
    let store = Arc::new(PlanStore::new());
    const PROGRAMS: usize = 4;
    const THREADS_PER: usize = 3;

    let keys: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..PROGRAMS * THREADS_PER)
            .map(|i| {
                let store = Arc::clone(&store);
                s.spawn(move || store.get_source(&variant(i % PROGRAMS)).unwrap().key())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let distinct: HashSet<u64> = keys.iter().copied().collect();
    assert_eq!(distinct.len(), PROGRAMS);
    let stats = store.stats();
    assert_eq!(
        stats.builds, PROGRAMS as u64,
        "each distinct program must build exactly once: {stats:?}"
    );
    assert_eq!(stats.hits + stats.misses, (PROGRAMS * THREADS_PER) as u64);
}

#[test]
fn store_results_match_direct_single_threaded_path() {
    // The cached path must be observably identical to building a fresh
    // session by hand (the single-threaded CLI path).
    let store = PlanStore::new();
    let cached = store.get_source(DENSE).unwrap();
    let direct = Session::compile(DENSE).unwrap();

    let a = cached.execute(Abstraction::PsPdg, 4).unwrap();
    let b = direct.execute(Abstraction::PsPdg, 4).unwrap();
    assert_eq!(a.ret, b.ret);
    assert_eq!(a.output, b.output);
    assert_eq!(a.globals_mismatch, None);
    assert_eq!(b.globals_mismatch, None);
    assert_eq!(cached.baseline().ret, direct.baseline().ret);
    assert_eq!(cached.key(), direct.key());
}

#[test]
fn eviction_drops_the_sessions_remembered_sources() {
    // Room for one session and its source, not two.
    let budget = Session::compile(&variant(1)).unwrap().approx_bytes() * 3 / 2;
    let store = PlanStore::with_budget(budget);
    let first = store.get_source(&variant(0)).unwrap();
    store.get_source(&variant(1)).unwrap();
    // Variant 1 is the entry being returned, so the one eviction is 0.
    assert_eq!(store.stats().evictions, 1, "variant 0 must be evicted");

    let again = store.get_source(&variant(0)).unwrap();
    assert!(!Arc::ptr_eq(&first, &again), "an evicted session came back");
    let stats = store.stats();
    assert_eq!((stats.misses, stats.builds, stats.entries), (3, 3, 1));
    // A memo entry that outlived its session would skip this charge.
    assert_eq!(stats.bytes, again.approx_bytes() + variant(0).len());
}

#[test]
fn an_evicted_session_is_freed_by_the_reaper_the_store_joins() {
    // Room for one session and its source, not two.
    let budget = Session::compile(&variant(1)).unwrap().approx_bytes() * 3 / 2;
    let store = PlanStore::with_budget(budget);
    let first = Arc::downgrade(&store.get_source(&variant(0)).unwrap());
    store.get_source(&variant(1)).unwrap();
    assert_eq!(store.stats().evictions, 1);
    assert!(
        cached(&store, &variant(1)),
        "the returned entry was evicted"
    );
    // The reaper may or may not have freed it yet; once the store is
    // dropped it has, because dropping joins the reaper.
    drop(store);
    assert!(
        first.upgrade().is_none(),
        "the evicted session outlived its store"
    );
}

#[test]
fn failed_builds_are_not_cached() {
    let store = PlanStore::new();
    // Runs off the end of the array: the sequential profiling run faults,
    // so no baseline exists and the session must not be cached.
    let faults = r#"
int v[4];
void k() { int i; for (i = 0; i <= 4; i++) { v[i] = i; } }
int main() { k(); return 0; }
"#;
    // Every retry fails again (deterministically) rather than deadlocking
    // on a poisoned Building slot or answering from the source memo.
    for _ in 0..3 {
        assert!(store.get_source("int main( {").is_err());
        assert!(store.get_source(faults).is_err());
    }
    let stats = store.stats();
    assert_eq!((stats.entries, stats.builds, stats.misses), (0, 0, 3));
}

#[test]
fn byte_identical_requests_build_once_then_hit_the_source_memo() {
    const THREADS: usize = 8;
    let store = PlanStore::new();
    let sessions: Vec<Arc<Session>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| s.spawn(|| store.get_source(DENSE).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let stats = store.stats();
    assert_eq!(stats.builds, 1, "single-flight violated: {stats:?}");
    assert_eq!(stats.hits + stats.misses, THREADS as u64);
    assert!(sessions.iter().all(|s| Arc::ptr_eq(s, &sessions[0])));
    // The source is charged to its session once, next to its estimate.
    assert_eq!(stats.bytes, sessions[0].approx_bytes() + DENSE.len());
    assert!(Arc::ptr_eq(&store.get_source(DENSE).unwrap(), &sessions[0]));
    let after = store.stats();
    assert_eq!((after.hits, after.builds), (stats.hits + 1, 1));
    assert_eq!(after.bytes, stats.bytes);
}

/// The session spans take the pipeline's phases on the calling thread: a
/// cold build of a many-function module is one `pspdg/pdg_build` span,
/// and each plan miss one `plan/enumerate` and one `plan/schedule` span,
/// however many pool jobs the phase fans out to. The build covers only
/// the functions that ran: `main` calls `f0` alone.
#[test]
fn a_recorded_store_spans_each_phase_once() {
    let rec = Arc::new(Recorder::new());
    let store = PlanStore::new().with_recorder(Arc::clone(&rec));
    let session = store.get_source(&synth::module(8, 8).source).unwrap();
    let module = &session.program().module;
    assert!(module.functions.len() > 8, "a many-function module");
    let built: Vec<&str> = session
        .built()
        .iter()
        .map(|b| module.function(b.func).name.as_str())
        .collect();
    assert_eq!(built, ["f0", "main"]);
    session.plan(Abstraction::PsPdg);
    session.plan(Abstraction::Jk);
    let counts =
        ["pspdg/pdg_build", "plan/enumerate", "plan/schedule"].map(|name| span_count(&rec, name));
    assert_eq!(counts, [1, 2, 2]);
}

/// Whether `source` is cached, read from the stats delta of a follow-up
/// lookup: a hit builds nothing (and touches the entry's recency); a
/// miss builds the session and inserts it.
fn cached(store: &PlanStore, source: &str) -> bool {
    let builds = store.stats().builds;
    store.get_source(source).unwrap();
    store.stats().builds == builds
}

fn span_count(rec: &Recorder, name: &str) -> u64 {
    rec.totals()
        .span_summary()
        .iter()
        .find(|(n, ..)| n == name)
        .map(|(_, count, ..)| *count)
        .unwrap_or(0)
}
