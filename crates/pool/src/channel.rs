//! A tiny bounded multi-producer multi-consumer channel: the plan
//! daemon's job queue.
//!
//! `std::sync::mpsc` receivers are single-consumer; the daemon's handlers
//! all pull from one queue, which must be *bounded*, so a flood of
//! requests blocks the readers instead of growing memory, and must
//! **drain after close**, so shutdown answers every request already
//! accepted. Implemented with a `Mutex<VecDeque>` plus two condition
//! variables — enough for one hop per request.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

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
    fn recv_after_close_drains() {
        let ch: Channel<u32> = Channel::bounded(4);
        ch.send(7).unwrap();
        ch.close();
        assert_eq!(ch.recv(), Some(7));
        assert_eq!(ch.recv(), None);
    }
}
