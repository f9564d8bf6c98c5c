//! Recorder contract test: what many threads record at once is conserved
//! in the counters and the exact span totals.

use pspdg_obs::Recorder;

/// What many threads record at once is conserved: every counter bump
/// and span lands exactly once.
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
                    let _span = rec.span("work");
                }
            });
        }
    });

    let snap = rec.totals();
    let total = THREADS as u64 * PER_THREAD;
    let sample_sum = THREADS as u64 * PER_THREAD * (PER_THREAD - 1) / 2;
    assert_eq!(
        snap.counters,
        [
            ("jobs".to_string(), total),
            ("sample".to_string(), sample_sum)
        ]
    );
    let [(name, count, total_ns, max_ns)] = snap.span_summary() else {
        panic!("one span name: {snap:?}");
    };
    assert_eq!((name.as_str(), *count), ("work", total));
    assert!(max_ns <= total_ns);
}
