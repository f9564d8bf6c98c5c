//! Recorder contract tests: the zero-allocation disabled path (pinned
//! with a counting global allocator), conservation of what many threads
//! record at once, and a Chrome-trace round trip through the crate's own
//! JSON parser.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pspdg_obs::{json, Recorder};

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
        rec.add("pool/dispatches", 3);
        rec.observe("runtime/activation_ns", 12345);
    }
    let after = ALLOCS.get();
    assert_eq!(after - before, 0, "disabled recorder must not allocate");
}

/// What many threads record at once is conserved: every counter bump,
/// histogram sample and span lands exactly once, each thread's spans on
/// a lane of its own.
#[test]
fn concurrent_recording_conserves_counts() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 1_000;

    let rec = Recorder::new();
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                start.wait();
                for i in 0..PER_THREAD {
                    rec.add("jobs", 1);
                    rec.observe("sample", i);
                    let _span = rec.span("work", "test");
                }
            });
        }
    });

    let snap = rec.snapshot();
    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(snap.counters, [("jobs".to_string(), total)]);
    assert_eq!(snap.histograms[0].1.count, total);
    assert_eq!(snap.events.len() as u64, total);
    let mut lanes: Vec<u32> = snap.events.iter().map(|e| e.tid).collect();
    lanes.sort_unstable();
    lanes.dedup();
    assert_eq!(lanes.len(), THREADS);
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
        let _worker = rec.span("runtime/chunk_worker", "runtime");
    }
    // A second lane: spans on another thread land on their own tid.
    std::thread::scope(|s| {
        s.spawn(|| {
            let _w = rec.span("runtime/chunk_worker", "runtime");
        });
    });

    let trace = rec.snapshot().chrome_trace_json();
    let check = json::validate_chrome_trace(&trace).expect("trace must parse and nest");
    assert_eq!(check.spans, 6);
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
