//! Bounded MPMC queue with backpressure — the software analogue of the
//! fixed-depth hardware FIFOs between Darwin-WGA's D-SOFT, BSW and
//! GACT-X arrays.
//!
//! Built on the crate's non-poisoning `sync::Mutex` and `std::sync::Condvar`.
//! Lock poisoning is deliberately ignored (there, and on the two
//! `Condvar::wait` returns here): a worker panic is already contained by
//! the executor's `catch_unwind` layers, and the queue's state — a
//! `VecDeque` plus two flags — is valid after any interleaving of pushes
//! and pops.

use crate::sync::Mutex;
use std::collections::VecDeque;
use std::sync::Condvar;

/// A blocking bounded FIFO shared by producers and consumers.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    /// Signalled when an item is pushed or the queue closes (wakes `pop`).
    not_empty: Condvar,
    /// Signalled when an item is popped or the queue closes (wakes `push`).
    not_full: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// High-water mark: the tests' check that the queue stays bounded.
    #[cfg(test)]
    max_occupancy: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a zero-capacity rendezvous channel
    /// is not supported; the executor's queue is
    /// [`QUEUE_DEPTH`](super::QUEUE_DEPTH) deep).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                #[cfg(test)]
                max_occupancy: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Pushes an item, blocking while the queue is full (backpressure).
    ///
    /// Returns `Err(item)` when the queue has been closed — the caller
    /// is racing a shutdown and should drop the work.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock();
        while state.items.len() >= self.capacity && !state.closed {
            state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        #[cfg(test)]
        {
            state.max_occupancy = state.max_occupancy.max(state.items.len());
        }
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pops the oldest item, blocking while the queue is empty.
    ///
    /// Returns `None` once the queue is closed *and* drained — consumers
    /// use this as their termination signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: blocked pushers fail, and poppers drain the
    /// remaining items before seeing `None`. Idempotent.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Highest number of items the queue ever held at once.
    #[cfg(test)]
    fn max_occupancy(&self) -> usize {
        self.state.lock().max_occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_preserved() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = BoundedQueue::<u32>::new(0);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        // Idempotent close, and pushes after close are refused.
        q.close();
        assert_eq!(q.push(3), Err(3));
    }

    #[test]
    fn push_blocks_at_capacity_until_pop() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(10).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(20));
        // The pusher must be blocked: the queue is at capacity.
        std::thread::sleep(Duration::from_millis(30));
        assert!(!pusher.is_finished(), "push should block while full");
        assert_eq!(q.pop(), Some(10));
        pusher.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.max_occupancy(), 1);
    }

    #[test]
    fn close_unblocks_waiting_pusher_and_popper() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let qp = Arc::clone(&q);
        let pusher = std::thread::spawn(move || qp.push(2));
        let qc = Arc::clone(&q);
        let closer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            qc.close();
        });
        assert_eq!(pusher.join().unwrap(), Err(2));
        closer.join().unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn concurrent_producers_consumers_deliver_everything() {
        const PER_PRODUCER: usize = 500;
        let q = Arc::new(BoundedQueue::new(4));
        let mut handles = Vec::new();
        for p in 0..3 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    q.push(p * PER_PRODUCER + i).unwrap();
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let q = Arc::clone(&q);
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = q.pop() {
                    got.push(item);
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..3 * PER_PRODUCER).collect::<Vec<_>>());
        assert!(q.max_occupancy() <= 4);
    }
}
