//! The thread-safe [`Recorder`], RAII [`SpanGuard`]s, and the cloned
//! [`Snapshot`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

/// How many span events the trace keeps: the newest ones. A span that
/// closes on a full trace overwrites the oldest event and bumps the
/// [`DROPPED_EVENTS`] counter; the per-name span totals stay exact.
pub const TRACE_EVENTS: usize = 1 << 14;

/// The counter of trace events overwritten by newer ones.
pub const DROPPED_EVENTS: &str = "trace/dropped_events";

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

/// A span kept in the trace. Its arguments are the next `args` entries
/// of [`Inner::trace_args`], and its name and string arguments the next
/// bytes of [`Inner::trace_text`], so a kept span owns no allocation of
/// its own and the trace's memory is three ring buffers. Kept spans that
/// owned their strings cost the daemon about four times their bytes in
/// resident memory: each pinned the allocator pages around it.
struct Kept {
    cat: &'static str,
    ts_ns: u64,
    dur_ns: u64,
    tid: u32,
    name_len: usize,
    args: usize,
}

/// A kept argument; a string is its byte length in [`Inner::trace_text`].
enum KeptArg {
    I(i64),
    U(u64),
    F(f64),
    S(usize),
}

#[derive(Default)]
struct Inner {
    /// The newest [`TRACE_EVENTS`] spans in closing order, oldest first.
    trace: VecDeque<Kept>,
    trace_args: VecDeque<(&'static str, KeptArg)>,
    trace_text: VecDeque<u8>,
    /// Every span ever closed, per name: `(count, total_ns, max_ns)`.
    spans: BTreeMap<String, (u64, u64, u64)>,
    counters: BTreeMap<&'static str, u64>,
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

    /// Add a closed span to its name's total, then to the trace.
    fn close(&mut self, span: &mut SpanGuard<'_>, dur_ns: u64) {
        let name = span.name.as_str();
        match self.spans.get_mut(name) {
            Some((count, total, max)) => {
                *count += 1;
                *total += dur_ns;
                *max = (*max).max(dur_ns);
            }
            None => {
                self.spans.insert(name.to_string(), (1, dur_ns, dur_ns));
            }
        }
        if self.trace.len() == TRACE_EVENTS {
            self.drop_oldest();
            *self.counters.entry(DROPPED_EVENTS).or_insert(0) += 1;
        }
        self.trace_text.extend(name.as_bytes());
        let args = span.args.len();
        for (key, val) in span.args.drain(..) {
            let kept = match val {
                ArgVal::I(i) => KeptArg::I(i),
                ArgVal::U(u) => KeptArg::U(u),
                ArgVal::F(f) => KeptArg::F(f),
                ArgVal::S(s) => {
                    self.trace_text.extend(s.as_bytes());
                    KeptArg::S(s.len())
                }
            };
            self.trace_args.push_back((key, kept));
        }
        let tid = self.tid();
        self.trace.push_back(Kept {
            cat: span.cat,
            ts_ns: span.start_ns,
            dur_ns,
            tid,
            name_len: name.len(),
            args,
        });
    }

    fn drop_oldest(&mut self) {
        let Some(oldest) = self.trace.pop_front() else {
            return;
        };
        let mut text = oldest.name_len;
        for (_, arg) in self.trace_args.drain(..oldest.args) {
            if let KeptArg::S(len) = arg {
                text += len;
            }
        }
        self.trace_text.drain(..text);
    }

    /// The trace as events, oldest first.
    fn events(&self) -> Vec<TraceEvent> {
        let mut args = self.trace_args.iter();
        let mut text = self.trace_text.iter().copied();
        let mut string = |len: usize| {
            String::from_utf8(text.by_ref().take(len).collect())
                .expect("the trace keeps whole strings")
        };
        self.trace
            .iter()
            .map(|k| TraceEvent {
                name: string(k.name_len),
                cat: k.cat,
                ts_ns: k.ts_ns,
                dur_ns: k.dur_ns,
                tid: k.tid,
                args: args
                    .by_ref()
                    .take(k.args)
                    .map(|(key, arg)| {
                        let val = match *arg {
                            KeptArg::I(i) => ArgVal::I(i),
                            KeptArg::U(u) => ArgVal::U(u),
                            KeptArg::F(f) => ArgVal::F(f),
                            KeptArg::S(len) => ArgVal::S(string(len)),
                        };
                        (*key, val)
                    })
                    .collect(),
            })
            .collect()
    }

    /// Counters and span totals, with no trace.
    fn totals(&self) -> Snapshot {
        let mut spans: Vec<(String, u64, u64, u64)> = self
            .spans
            .iter()
            .map(|(n, &(c, t, m))| (n.clone(), c, t, m))
            .collect();
        spans.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        Snapshot {
            events: Vec::new(),
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            spans,
            threads: Vec::new(),
        }
    }
}

/// Thread-safe recording sink: spans and counters, timed against one
/// monotonic epoch.
///
/// Its memory is bounded: counters and per-name span totals, plus a
/// trace of the newest [`TRACE_EVENTS`] spans. There is no off state:
/// a run that should record nothing carries no recorder. Share it as
/// `Arc<Recorder>` (the engines and the plan store hold clones).
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A new, empty recorder.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            // Each ring starts with room for `TRACE_EVENTS` entries: a
            // short run never grows one, and room not yet written is not
            // resident.
            inner: Mutex::new(Inner {
                trace: VecDeque::with_capacity(TRACE_EVENTS),
                trace_args: VecDeque::with_capacity(TRACE_EVENTS),
                trace_text: VecDeque::with_capacity(TRACE_EVENTS),
                ..Inner::default()
            }),
        }
    }

    /// The recorded state. A thread that panicked while holding the lock
    /// left it valid: each update is one counter, total or trace step.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Nanoseconds since the recorder epoch (monotonic).
    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a timed span; it records itself when dropped.
    #[must_use = "a span records when dropped; binding it to _ closes it immediately"]
    pub fn span<'r>(&'r self, name: &str, cat: &'static str) -> SpanGuard<'r> {
        SpanGuard {
            rec: self,
            name: name.to_string(),
            cat,
            start_ns: self.now_ns(),
            args: Vec::new(),
        }
    }

    /// Bump a named counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        if delta == 0 {
            return;
        }
        *self.lock().counters.entry(name).or_insert(0) += delta;
    }

    /// Clone out the counters, the span totals and the trace.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            events: inner.events(),
            threads: inner.threads.iter().map(|(_, n)| n.clone()).collect(),
            ..inner.totals()
        }
    }

    /// Clone out the counters and the span totals only: the snapshot's
    /// trace (`events`, `threads`) is empty.
    pub fn totals(&self) -> Snapshot {
        self.lock().totals()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

/// RAII span: times from creation to drop, then records one `"X"`
/// complete event. Obtained from [`Recorder::span`].
pub struct SpanGuard<'r> {
    rec: &'r Recorder,
    name: String,
    cat: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, ArgVal)>,
}

impl SpanGuard<'_> {
    /// Attach a structured argument (shown in the Perfetto side panel).
    pub fn arg(&mut self, key: &'static str, val: impl Into<ArgVal>) {
        self.args.push((key, val.into()));
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur_ns = self.rec.now_ns().saturating_sub(self.start_ns);
        self.rec.lock().close(self, dur_ns);
    }
}

/// What a recorder holds, cloned out: the view the exporters
/// ([`chrome_trace_json`](Snapshot::chrome_trace_json),
/// [`metrics_json`](Snapshot::metrics_json),
/// [`text_report`](Snapshot::text_report)) work from.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// The trace: the newest [`TRACE_EVENTS`] spans in closing order
    /// (a parent after its children). Empty from [`Recorder::totals`].
    pub events: Vec<TraceEvent>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Exact per-name span totals, sorted by total time descending.
    spans: Vec<(String, u64, u64, u64)>,
    /// Thread-lane names; index = `TraceEvent::tid`.
    pub threads: Vec<String>,
}

impl Snapshot {
    /// Per-span-name totals over every span ever closed, dropped trace
    /// events included: `(name, count, total_ns, max_ns)`, sorted by
    /// total time descending.
    pub fn span_summary(&self) -> &[(String, u64, u64, u64)] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
