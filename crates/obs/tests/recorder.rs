//! Recorder contract tests: conservation of what many threads record at
//! once, a trace bounded to the newest events while the span totals stay
//! exact, and a Chrome-trace round trip through the crate's own JSON
//! parser.

use std::collections::BTreeMap;
use std::sync::Arc;

use pspdg_obs::{json, ArgVal, Recorder, DROPPED_EVENTS, TRACE_EVENTS};

/// What many threads record at once is conserved: every counter bump
/// and span lands exactly once, each thread's spans on a lane of its
/// own.
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
                    rec.add("sample", i);
                    let _span = rec.span("work", "test");
                }
            });
        }
    });

    let snap = rec.snapshot();
    let total = THREADS as u64 * PER_THREAD;
    let sample_sum = THREADS as u64 * PER_THREAD * (PER_THREAD - 1) / 2;
    assert_eq!(
        snap.counters,
        [
            ("jobs".to_string(), total),
            ("sample".to_string(), sample_sum)
        ]
    );
    assert_eq!(snap.span_summary()[0].1, total);
    assert_eq!(snap.events.len() as u64, total);
    let mut lanes: Vec<u32> = snap.events.iter().map(|e| e.tid).collect();
    lanes.sort_unstable();
    lanes.dedup();
    assert_eq!(lanes.len(), THREADS);
}

/// Past `TRACE_EVENTS` spans the trace keeps the newest ones and counts
/// each one it overwrites, while the span totals still count every
/// span. A span joins the trace when it closes, after its children, so
/// each thread's outer `worker` span survives with the newest of its
/// `work` children, and the trace still nests.
#[test]
fn trace_keeps_the_newest_events_and_totals_stay_exact() {
    const THREADS: usize = 8;
    const DROPPED: usize = 1_000;
    // Per thread: one `worker` span around `WORK` `work` spans.
    const WORK: u64 = ((TRACE_EVENTS + DROPPED) / THREADS - 1) as u64;
    assert_eq!(THREADS * (WORK as usize + 1), TRACE_EVENTS + DROPPED);

    let rec = Recorder::new();
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                start.wait();
                let _worker = rec.span("worker", "test");
                for i in 0..WORK {
                    let mut span = rec.span("work", "test");
                    span.arg("i", i);
                }
            });
        }
    });

    let snap = rec.snapshot();
    assert_eq!(snap.events.len(), TRACE_EVENTS);
    let count = |name: &str| {
        snap.span_summary()
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, c, ..)| *c)
    };
    assert_eq!(count("work"), Some(THREADS as u64 * WORK));
    assert_eq!(count("worker"), Some(THREADS as u64));
    assert_eq!(
        snap.counters,
        [(DROPPED_EVENTS.to_string(), DROPPED as u64)]
    );

    // Each lane kept a suffix of its own `work` spans, in order, then its
    // `worker` span last.
    let mut lanes: BTreeMap<u32, Vec<&pspdg_obs::TraceEvent>> = BTreeMap::new();
    for e in &snap.events {
        lanes.entry(e.tid).or_default().push(e);
    }
    assert_eq!(lanes.len(), THREADS);
    let mut kept_work = 0;
    for (tid, events) in &lanes {
        let (worker, work) = events.split_last().unwrap();
        assert_eq!(worker.name, "worker", "lane {tid}");
        let first = WORK - work.len() as u64;
        for (k, e) in work.iter().enumerate() {
            assert_eq!(e.name, "work", "lane {tid}");
            assert!(
                matches!(e.args[..], [("i", ArgVal::U(i))] if i == first + k as u64),
                "lane {tid}: {:?} is not work span {}",
                e.args,
                first + k as u64
            );
        }
        kept_work += work.len();
    }
    assert_eq!(kept_work + THREADS, TRACE_EVENTS);

    let check = json::validate_chrome_trace(&snap.chrome_trace_json())
        .expect("a bounded trace must still parse and nest");
    assert_eq!(check.spans, TRACE_EVENTS);
    assert_eq!(check.max_depth, 2, "work inside worker");
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
