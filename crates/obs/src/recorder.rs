//! The thread-safe [`Recorder`], RAII [`SpanGuard`]s, and the drained
//! [`Snapshot`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket `i` holds samples with `i` significant bits: bucket 0 holds
/// the value 0, bucket 1 holds 1, bucket 2 holds 2–3, bucket 3 holds
/// 4–7, … bucket 64 holds the top half of the `u64` range.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Per-bucket sample counts.
    pub buckets: [u64; 65],
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples (for means).
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for `value` (its significant-bit count).
    #[inline]
    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `i`.
    pub(crate) fn bucket_floor(i: usize) -> u64 {
        match i {
            0 => 0,
            1 => 1,
            _ => 1u64 << (i - 1),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// One span argument value.
#[derive(Debug, Clone)]
pub enum ArgVal {
    /// Signed integer.
    I(i64),
    /// Unsigned integer.
    U(u64),
    /// Float.
    F(f64),
    /// String.
    S(String),
}

impl From<i64> for ArgVal {
    fn from(v: i64) -> Self {
        ArgVal::I(v)
    }
}
impl From<u64> for ArgVal {
    fn from(v: u64) -> Self {
        ArgVal::U(v)
    }
}
impl From<usize> for ArgVal {
    fn from(v: usize) -> Self {
        ArgVal::U(v as u64)
    }
}
impl From<f64> for ArgVal {
    fn from(v: f64) -> Self {
        ArgVal::F(v)
    }
}
impl From<&str> for ArgVal {
    fn from(v: &str) -> Self {
        ArgVal::S(v.to_string())
    }
}
impl From<String> for ArgVal {
    fn from(v: String) -> Self {
        ArgVal::S(v)
    }
}

/// One trace event: a Chrome trace-event `"X"` complete span, timed in
/// nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (span taxonomy: `pipeline/…`, `runtime/…`, …).
    pub name: String,
    /// Category (`"pipeline"`, `"runtime"`, `"pool"`, …).
    pub cat: &'static str,
    /// Start, nanoseconds since the recorder epoch (monotonic).
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Interned thread lane (index into [`Snapshot::threads`]).
    pub tid: u32,
    /// Structured arguments.
    pub args: Vec<(&'static str, ArgVal)>,
}

#[derive(Default)]
struct Inner {
    events: Vec<TraceEvent>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    threads: Vec<(ThreadId, String)>,
}

impl Inner {
    fn tid(&mut self) -> u32 {
        let cur = std::thread::current();
        let id = cur.id();
        if let Some(i) = self.threads.iter().position(|(t, _)| *t == id) {
            return i as u32;
        }
        let name = cur.name().unwrap_or("thread").to_string();
        self.threads.push((id, name));
        (self.threads.len() - 1) as u32
    }
}

/// Thread-safe recording sink: spans, counters and histograms,
/// timed against one monotonic epoch.
///
/// Cheap when disabled: every recording entry point checks one relaxed
/// atomic and returns without locking or allocating. Share it as
/// `Arc<Recorder>` (the engines and the worker pool hold clones).
pub struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A new, enabled recorder.
    pub fn new() -> Recorder {
        Recorder {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A new recorder in the disabled state (attachable but inert).
    pub fn disabled() -> Recorder {
        let r = Recorder::new();
        r.set_enabled(false);
        r
    }

    /// Whether recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off. Off = every entry point is a
    /// zero-allocation early return.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the recorder epoch (monotonic).
    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a timed span; it records itself when dropped. No-op (and
    /// allocation-free) when disabled.
    #[must_use = "a span records when dropped; binding it to _ closes it immediately"]
    pub fn span<'r>(&'r self, name: &str, cat: &'static str) -> SpanGuard<'r> {
        if !self.enabled() {
            return SpanGuard {
                rec: None,
                name: String::new(),
                cat,
                start_ns: 0,
                args: Vec::new(),
            };
        }
        SpanGuard {
            rec: Some(self),
            name: name.to_string(),
            cat,
            start_ns: self.now_ns(),
            args: Vec::new(),
        }
    }

    /// Bump a named counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        if !self.enabled() || delta == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        *inner.counters.entry(name).or_insert(0) += delta;
    }

    /// Record a sample into a named log2 histogram.
    pub fn observe(&self, name: &'static str, value: u64) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.histograms.entry(name).or_default().observe(value);
    }

    /// Clone out everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        Snapshot {
            events: inner.events.clone(),
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            threads: inner.threads.iter().map(|(_, n)| n.clone()).collect(),
        }
    }

    /// Take everything recorded so far, leaving the recorder empty (the
    /// thread interning table survives so lane ids stay stable).
    pub fn drain(&self) -> Snapshot {
        let mut inner = self.inner.lock().unwrap();
        let events = std::mem::take(&mut inner.events);
        let counters = std::mem::take(&mut inner.counters);
        let histograms = std::mem::take(&mut inner.histograms);
        Snapshot {
            events,
            counters: counters
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            histograms: histograms
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            threads: inner.threads.iter().map(|(_, n)| n.clone()).collect(),
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

/// RAII span: times from creation to drop, then records one `"X"`
/// complete event. Obtained from [`Recorder::span`].
pub struct SpanGuard<'r> {
    rec: Option<&'r Recorder>,
    name: String,
    cat: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, ArgVal)>,
}

impl SpanGuard<'_> {
    /// Attach a structured argument (shown in the Perfetto side panel).
    pub fn arg(&mut self, key: &'static str, val: impl Into<ArgVal>) {
        if self.rec.is_some() {
            self.args.push((key, val.into()));
        }
    }

    /// Nanoseconds elapsed since the span opened (0 when disabled).
    pub fn elapsed_ns(&self) -> u64 {
        self.rec
            .map_or(0, |r| r.now_ns().saturating_sub(self.start_ns))
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(rec) = self.rec else { return };
        let dur = rec.now_ns().saturating_sub(self.start_ns);
        let mut inner = rec.inner.lock().unwrap();
        let tid = inner.tid();
        inner.events.push(TraceEvent {
            name: std::mem::take(&mut self.name),
            cat: self.cat,
            ts_ns: self.start_ns,
            dur_ns: dur,
            tid,
            args: std::mem::take(&mut self.args),
        });
    }
}

/// Everything a recorder captured: the drained/cloned view the
/// exporters ([`chrome_trace_json`](Snapshot::chrome_trace_json),
/// [`metrics_json`](Snapshot::metrics_json),
/// [`text_report`](Snapshot::text_report)) work from.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All spans, in recording order.
    pub events: Vec<TraceEvent>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
    /// Thread-lane names; index = `TraceEvent::tid`.
    pub threads: Vec<String>,
}

impl Snapshot {
    /// Per-span-name aggregates: `(name, count, total_ns, max_ns)`,
    /// sorted by total time descending.
    pub fn span_summary(&self) -> Vec<(String, u64, u64, u64)> {
        let mut agg: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for e in &self.events {
            let s = agg.entry(e.name.as_str()).or_insert((0, 0, 0));
            s.0 += 1;
            s.1 += e.dur_ns;
            s.2 = s.2.max(e.dur_ns);
        }
        let mut v: Vec<(String, u64, u64, u64)> = agg
            .into_iter()
            .map(|(n, (c, t, m))| (n.to_string(), c, t, m))
            .collect();
        v.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(1), 1);
        assert_eq!(Histogram::bucket_floor(5), 16);
        let mut h = Histogram::default();
        h.observe(6);
        h.observe(2);
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 8);
        assert_eq!(h.mean(), 4.0);
    }

    #[test]
    fn spans_nest_and_record() {
        let rec = Recorder::new();
        {
            let mut outer = rec.span("outer", "test");
            outer.arg("k", 3u64);
            let _inner = rec.span("inner", "test");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 2);
        // Inner closes first (drop order), outer encloses it.
        let inner = snap.events.iter().find(|e| e.name == "inner").unwrap();
        let outer = snap.events.iter().find(|e| e.name == "outer").unwrap();
        assert!(outer.ts_ns <= inner.ts_ns);
        assert!(outer.ts_ns + outer.dur_ns >= inner.ts_ns + inner.dur_ns);
    }

    #[test]
    fn disabled_records_nothing() {
        let rec = Recorder::disabled();
        {
            let mut s = rec.span("x", "test");
            s.arg("k", 1u64);
        }
        rec.add("c", 5);
        rec.observe("h", 9);
        let snap = rec.snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn drain_resets_but_keeps_interning() {
        let rec = Recorder::new();
        drop(rec.span("first", "test"));
        rec.add("jobs", 2);
        let first = rec.drain();
        assert_eq!(first.events.len(), 1);
        assert_eq!(first.counters, [("jobs".to_string(), 2)]);
        let second = rec.snapshot();
        assert!(second.events.is_empty());
        assert!(second.counters.is_empty());
        // The lane this thread was given before the drain is still its lane.
        drop(rec.span("second", "test"));
        let third = rec.snapshot();
        assert_eq!(third.events[0].tid, first.events[0].tid);
        assert_eq!(third.threads, first.threads);
    }
}
