//! A tiny bounded MPSC channel (used SPSC) for the DSWP stage pipeline.
//!
//! `std::sync::mpsc` channels are unbounded; a DSWP pipeline needs
//! *bounded* stage queues so a fast producer stage cannot run arbitrarily
//! far ahead of a slow consumer (the paper's decoupling buffers are finite
//! hardware queues). Implemented with a `Mutex<VecDeque>` plus two
//! condition variables — enough for the stage-to-stage hop rate, which is
//! one packet per loop iteration.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a watchdog receive ([`Channel::recv_deadline`]) returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeout {
    /// The channel closed (and drained) — the normal end of a stream.
    Closed,
    /// The deadline passed with no item and no close: the peer stage is
    /// presumed dead or wedged.
    TimedOut,
}

struct Shared<T> {
    queue: Mutex<State<T>>,
    /// Signalled when the queue gains an item or closes.
    not_empty: Condvar,
    /// Signalled when the queue loses an item or closes.
    not_full: Condvar,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// One endpoint of a bounded channel (clone for the other side).
pub struct Channel<T> {
    shared: Arc<Shared<T>>,
    capacity: usize,
}

impl<T> Clone for Channel<T> {
    fn clone(&self) -> Channel<T> {
        Channel {
            shared: Arc::clone(&self.shared),
            capacity: self.capacity,
        }
    }
}

impl<T> Channel<T> {
    /// A channel holding at most `capacity` in-flight items.
    pub fn bounded(capacity: usize) -> Channel<T> {
        Channel {
            shared: Arc::new(Shared {
                queue: Mutex::new(State {
                    items: VecDeque::new(),
                    closed: false,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Block until space is available, then enqueue. Returns `Err(item)`
    /// if the channel was closed by the receiver.
    pub fn send(&self, item: T) -> Result<(), T> {
        let mut state = self.shared.queue.lock().expect("channel lock");
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            state = self.shared.not_full.wait(state).expect("channel lock");
        }
    }

    /// Like [`send`](Channel::send), but give up after `timeout` if no
    /// space frees: the consumer stage is presumed dead. Returns the item
    /// back in both failure modes, with `timed_out` distinguishing them.
    ///
    /// # Errors
    ///
    /// `Err((item, false))` if the channel closed, `Err((item, true))` if
    /// the watchdog expired while the queue stayed full.
    pub fn send_timeout(&self, item: T, timeout: Duration) -> Result<(), (T, bool)> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.queue.lock().expect("channel lock");
        loop {
            if state.closed {
                return Err((item, false));
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err((item, true));
            }
            let (s, _) = self
                .shared
                .not_full
                .wait_timeout(state, deadline - now)
                .expect("channel lock");
            state = s;
        }
    }

    /// Like [`recv`](Channel::recv), but give up after `timeout` if no
    /// item arrives and the channel stays open: the producer stage is
    /// presumed dead.
    ///
    /// # Errors
    ///
    /// [`RecvTimeout::Closed`] once closed and drained (the normal end of
    /// stream), [`RecvTimeout::TimedOut`] when the watchdog expires.
    pub fn recv_deadline(&self, timeout: Duration) -> Result<T, RecvTimeout> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.queue.lock().expect("channel lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.shared.not_full.notify_one();
                return Ok(item);
            }
            if state.closed {
                return Err(RecvTimeout::Closed);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeout::TimedOut);
            }
            let (s, _) = self
                .shared
                .not_empty
                .wait_timeout(state, deadline - now)
                .expect("channel lock");
            state = s;
        }
    }

    /// Block until an item arrives; `None` once the channel is closed and
    /// drained.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.shared.queue.lock().expect("channel lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                self.shared.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.shared.not_empty.wait(state).expect("channel lock");
        }
    }

    /// Items currently queued (a racy snapshot — backpressure telemetry,
    /// not synchronization).
    pub fn len(&self) -> usize {
        self.shared.queue.lock().expect("channel lock").items.len()
    }

    /// Whether the queue is momentarily empty (racy snapshot, see
    /// [`len`](Channel::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the channel: senders fail fast, receivers drain then stop.
    pub fn close(&self) {
        let mut state = self.shared.queue.lock().expect("channel lock");
        state.closed = true;
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_fifo_roundtrip() {
        let ch: Channel<u32> = Channel::bounded(2);
        let tx = ch.clone();
        let handle = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            tx.close();
        });
        let mut got = Vec::new();
        while let Some(v) = ch.recv() {
            got.push(v);
        }
        handle.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn close_unblocks_sender() {
        let ch: Channel<u32> = Channel::bounded(1);
        ch.send(1).unwrap();
        let tx = ch.clone();
        let handle = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(std::time::Duration::from_millis(10));
        ch.close();
        assert!(handle.join().unwrap().is_err());
    }

    #[test]
    fn recv_deadline_times_out_then_delivers() {
        let ch: Channel<u32> = Channel::bounded(2);
        // No producer: the watchdog must trip instead of blocking forever.
        let start = std::time::Instant::now();
        assert_eq!(
            ch.recv_deadline(Duration::from_millis(20)),
            Err(RecvTimeout::TimedOut)
        );
        assert!(start.elapsed() >= Duration::from_millis(20));
        // A late producer is still served by the next call.
        ch.send(9).unwrap();
        assert_eq!(ch.recv_deadline(Duration::from_secs(5)), Ok(9));
        ch.close();
        assert_eq!(
            ch.recv_deadline(Duration::from_secs(5)),
            Err(RecvTimeout::Closed)
        );
    }

    #[test]
    fn send_timeout_distinguishes_full_from_closed() {
        let ch: Channel<u32> = Channel::bounded(1);
        ch.send(1).unwrap();
        // Full with a live (absent) consumer: watchdog trips.
        assert_eq!(
            ch.send_timeout(2, Duration::from_millis(20)),
            Err((2, true))
        );
        // Closed: fails fast with the non-timeout flavor.
        ch.close();
        assert_eq!(ch.send_timeout(3, Duration::from_secs(5)), Err((3, false)));
    }

    #[test]
    fn recv_after_close_drains() {
        let ch: Channel<u32> = Channel::bounded(4);
        ch.send(7).unwrap();
        ch.close();
        assert_eq!(ch.recv(), Some(7));
        assert_eq!(ch.recv(), None);
    }
}
