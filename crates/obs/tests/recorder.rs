//! Recorder contract tests: concurrent-shard conservation, the
//! zero-allocation disabled path (pinned with a counting global
//! allocator), and a Chrome-trace round trip through the crate's own
//! JSON parser.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pspdg_obs::{json, Opcode, Recorder};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per-thread so sibling tests
    /// allocating concurrently cannot trip the zero-allocation check;
    /// `const`-initialised and destructor-free so the allocator hooks can
    /// touch it without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// The disabled recorder's public surface allocates nothing: this is
/// the overhead contract that lets the engines keep the recorder
/// attached permanently and toggle it per run.
#[test]
fn disabled_path_allocates_nothing() {
    let rec = Recorder::disabled();
    // Warm any lazy statics outside the measured window.
    rec.add("warmup", 1);

    let before = ALLOCS.get();
    for _ in 0..100 {
        let mut s = rec.span("runtime/activation", "runtime");
        s.arg("trip", 64u64);
        drop(s);
        rec.instant("fault/worker_panic", "fault");
        rec.add("pool/dispatches", 3);
        rec.observe("runtime/activation_ns", 12345);
    }
    let after = ALLOCS.get();
    assert_eq!(after - before, 0, "disabled recorder must not allocate");
}

/// Counts recorded by shards on many threads are conserved: the merged
/// totals equal exactly what the threads put in, no loss, no double
/// counting.
#[test]
fn concurrent_shard_merge_conserves_counts() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;

    let rec = Arc::new(Recorder::new());
    let shared_ctx = rec.context("shared");
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let rec = Arc::clone(&rec);
            s.spawn(move || {
                let mut h = rec.attach(&format!("worker{t}"));
                for i in 0..PER_THREAD {
                    h.op(if i % 2 == 0 {
                        Opcode::Load
                    } else {
                        Opcode::Store
                    });
                }
                // Half the threads also attribute into a shared context.
                if t % 2 == 0 {
                    h.set_context(shared_ctx);
                    for _ in 0..PER_THREAD {
                        h.op(Opcode::Binary);
                    }
                }
                h.count("jobs", 1);
                // Drop flushes the shard into the recorder.
            });
        }
    });

    let snap = rec.snapshot();
    let total = snap.total_opcodes();
    let expect = THREADS as u64 * PER_THREAD + (THREADS as u64 / 2) * PER_THREAD;
    assert_eq!(
        total.total(),
        expect,
        "opcode totals conserved across threads"
    );
    assert_eq!(
        total.counts[Opcode::Load.index()],
        THREADS as u64 * PER_THREAD / 2
    );
    let shared = &snap.contexts.iter().find(|(n, _)| n == "shared").unwrap().1;
    assert_eq!(shared.total(), (THREADS as u64 / 2) * PER_THREAD);
    let jobs = snap.counters.iter().find(|(n, _)| n == "jobs").unwrap().1;
    assert_eq!(jobs, THREADS as u64);
}

/// The emitted Chrome trace parses with the crate's own JSON parser,
/// spans nest properly per thread lane, and names/args survive the
/// round trip.
#[test]
fn chrome_trace_round_trips_and_nests() {
    let rec = Arc::new(Recorder::new());
    {
        let mut top = rec.span("pipeline/kernel", "pipeline");
        top.arg("kernel", "IS");
        {
            let _plan = rec.span("pipeline/plan", "pipeline");
            let _inner = rec.span("pipeline/enumerate", "pipeline");
        }
        let _run = rec.span("runtime/run", "runtime");
        rec.instant("fault/worker_panic", "fault");
    }
    // A second lane: spans on another thread land on their own tid.
    std::thread::scope(|s| {
        s.spawn(|| {
            let _w = rec.span("runtime/chunk_worker", "runtime");
        });
    });

    let trace = rec.snapshot().chrome_trace_json();
    let check = json::validate_chrome_trace(&trace).expect("trace must parse and nest");
    assert_eq!(check.spans, 5);
    assert_eq!(check.instants, 1);
    assert!(
        check.max_depth >= 3,
        "kernel > plan > enumerate nesting visible"
    );

    // Round-trip the args of the top-level span.
    let doc = json::parse(&trace).unwrap();
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    let top = events
        .iter()
        .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("pipeline/kernel"))
        .unwrap();
    assert_eq!(
        top.get("args").unwrap().get("kernel").unwrap().as_str(),
        Some("IS")
    );
    // Two distinct lanes were used.
    let mut tids: Vec<i64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .map(|e| e.get("tid").unwrap().as_f64().unwrap() as i64)
        .collect();
    tids.sort_unstable();
    tids.dedup();
    assert_eq!(tids.len(), 2);
}

/// Enabled-state flips take effect mid-stream: spans opened while
/// disabled record nothing even if the recorder is re-enabled before
/// they close.
#[test]
fn toggle_is_sampled_at_span_open() {
    let rec = Recorder::new();
    rec.set_enabled(false);
    let s = rec.span("ghost", "test");
    rec.set_enabled(true);
    drop(s);
    let _live = rec.span("live", "test");
    drop(_live);
    let snap = rec.snapshot();
    assert_eq!(snap.events.len(), 1);
    assert_eq!(snap.events[0].name, "live");
}
