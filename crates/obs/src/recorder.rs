//! The thread-safe [`Recorder`], RAII [`SpanGuard`]s, and the cloned
//! [`Snapshot`].

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

#[derive(Default)]
struct Inner {
    /// Every span ever closed, per name: `(count, total_ns, max_ns)`.
    spans: BTreeMap<String, (u64, u64, u64)>,
    counters: BTreeMap<&'static str, u64>,
}

/// Thread-safe recording sink: named counters and exact per-name span
/// totals.
///
/// Its memory is one entry per distinct counter or span name, however
/// long it records. There is no off state: a run that should record
/// nothing carries no recorder. Share it as `Arc<Recorder>` (the engines
/// and the plan store hold clones).
#[derive(Default)]
pub struct Recorder {
    inner: Mutex<Inner>,
}

impl Recorder {
    /// A new, empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// The recorded state. A thread that panicked while holding the lock
    /// left it valid: each update is one counter or total.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open a timed span; it adds to its name's total when dropped. The
    /// name is borrowed or handed over (a `&str` or a `String`): a closing
    /// span copies a borrowed name only when the name has no total yet.
    #[must_use = "a span records when dropped; binding it to _ closes it immediately"]
    pub fn span<'r>(&'r self, name: impl Into<Cow<'r, str>>) -> SpanGuard<'r> {
        SpanGuard {
            rec: self,
            name: name.into(),
            start: Instant::now(),
        }
    }

    /// Bump a named counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        if delta == 0 {
            return;
        }
        *self.lock().counters.entry(name).or_insert(0) += delta;
    }

    /// Clone out the counters and the span totals.
    pub fn totals(&self) -> Snapshot {
        let inner = self.lock();
        let mut spans: Vec<(String, u64, u64, u64)> = inner
            .spans
            .iter()
            .map(|(n, &(c, t, m))| (n.clone(), c, t, m))
            .collect();
        spans.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            spans,
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

/// RAII span: times from creation to drop, then adds the duration to its
/// name's total. Obtained from [`Recorder::span`].
pub struct SpanGuard<'r> {
    rec: &'r Recorder,
    name: Cow<'r, str>,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        let mut inner = self.rec.lock();
        match inner.spans.get_mut(&*self.name) {
            Some((count, total, max)) => {
                *count += 1;
                *total += dur_ns;
                *max = (*max).max(dur_ns);
            }
            None => {
                let name = std::mem::take(&mut self.name).into_owned();
                inner.spans.insert(name, (1, dur_ns, dur_ns));
            }
        }
    }
}

/// What a recorder holds, cloned out by [`Recorder::totals`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Exact per-name span totals, sorted by total time descending.
    spans: Vec<(String, u64, u64, u64)>,
}

impl Snapshot {
    /// Per-span-name totals over every span ever closed:
    /// `(name, count, total_ns, max_ns)`, sorted by total time descending.
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
        for _ in 0..3 {
            let _outer = rec.span("outer");
            let _inner = rec.span("inner");
        }
        rec.add("hits", 2);
        rec.add("hits", 0);
        rec.add("hits", 5);
        let snap = rec.totals();
        assert_eq!(snap.counters, vec![("hits".to_string(), 7)]);
        let row = |name: &str| {
            let row = snap.span_summary().iter().find(|s| s.0 == name);
            let &(_, count, total, max) = row.expect("span recorded");
            assert!(max <= total);
            (count, total)
        };
        let (outer, inner) = (row("outer"), row("inner"));
        assert_eq!((outer.0, inner.0), (3, 3));
        // Each outer span encloses its inner one.
        assert!(outer.1 >= inner.1);
    }
}
