//! Bounded queue with backpressure, one producer and many consumers —
//! the software analogue of the fixed-depth hardware FIFOs between
//! Darwin-WGA's D-SOFT, BSW and GACT-X arrays.
//!
//! [`bounded`] makes the queue's two sides. The [`PushHalf`] is the one
//! way to push: neither `Send` nor `Sync`, it never leaves the thread
//! that made it, and dropping it closes the queue. The shared
//! [`BoundedQueue`] only pops and closes, so a consumer cannot feed the
//! queue it drains: that cycle does not compile.
//!
//! Built on the crate's non-poisoning `sync::Mutex` and `std::sync::Condvar`.
//! Lock poisoning is deliberately ignored (there, and on the two
//! `Condvar::wait` returns here): a worker panic is already contained by
//! the executor's `catch_unwind` layers, and the queue's state — a
//! `VecDeque` plus two flags — is valid after any interleaving of pushes
//! and pops.

use crate::sync::Mutex;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::{Arc, Condvar};

/// The shared pop side of a blocking bounded FIFO.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    /// Signalled when an item is pushed or the queue closes (wakes `pop`).
    not_empty: Condvar,
    /// Signalled when an item is popped or the queue closes (wakes `push`).
    not_full: Condvar,
    capacity: usize,
}

/// The queue's one push half. A raw pointer is neither `Send` nor
/// `Sync`, so neither is the half.
pub(crate) struct PushHalf<T> {
    queue: Arc<BoundedQueue<T>>,
    _this_thread: PhantomData<*const ()>,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// High-water mark: the tests' check that the queue stays bounded.
    #[cfg(test)]
    max_occupancy: usize,
}

/// Makes a queue holding at most `capacity` items: its push half and its
/// pop side.
///
/// # Panics
///
/// Panics if `capacity` is zero (a zero-capacity rendezvous channel
/// is not supported; the executor's queue is
/// [`QUEUE_DEPTH`](super::QUEUE_DEPTH) deep).
pub(crate) fn bounded<T>(capacity: usize) -> (PushHalf<T>, Arc<BoundedQueue<T>>) {
    assert!(capacity >= 1, "queue capacity must be at least 1");
    let queue = Arc::new(BoundedQueue {
        state: Mutex::new(State {
            items: VecDeque::with_capacity(capacity),
            closed: false,
            #[cfg(test)]
            max_occupancy: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity,
    });
    let half = PushHalf {
        queue: Arc::clone(&queue),
        _this_thread: PhantomData,
    };
    (half, queue)
}

impl<T> PushHalf<T> {
    /// Pushes an item, blocking while the queue is full (backpressure).
    ///
    /// Returns `Err(item)` when the queue has been closed — the caller
    /// is racing a shutdown and should drop the work.
    pub(crate) fn push(&self, item: T) -> Result<(), T> {
        let queue = &*self.queue;
        let mut state = queue.state.lock();
        while state.items.len() >= queue.capacity && !state.closed {
            state = queue
                .not_full
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
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
        queue.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Drop for PushHalf<T> {
    /// Closes the queue, however the producer ends.
    fn drop(&mut self) {
        self.queue.close();
    }
}

impl<T> BoundedQueue<T> {
    /// Pops the oldest item, blocking while the queue is empty.
    ///
    /// Returns `None` once the queue is closed *and* drained — consumers
    /// use this as their termination signal.
    pub(crate) fn pop(&self) -> Option<T> {
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

    /// Closes the queue: a blocked or later push fails, and poppers
    /// drain the remaining items before seeing `None`. Idempotent.
    pub(crate) fn close(&self) {
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
    //! Every push below happens on the test's own thread, the one the
    //! push half cannot leave, and every pop on a spawned thread.

    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;
    use std::time::Duration;

    /// Pops on a new thread until the queue ends.
    fn drain<T: Send + 'static>(queue: &Arc<BoundedQueue<T>>) -> thread::JoinHandle<Vec<T>> {
        let queue = Arc::clone(queue);
        thread::spawn(move || std::iter::from_fn(|| queue.pop()).collect())
    }

    #[test]
    fn fifo_order_preserved() {
        let (push, queue) = bounded(8);
        for i in 0..5 {
            push.push(i).unwrap();
        }
        drop(push);
        assert_eq!(drain(&queue).join().unwrap(), [0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = bounded::<u32>(0);
    }

    #[test]
    fn dropping_the_push_half_closes_the_queue() {
        // A popper blocked on the empty queue wakes with `None`.
        let (push, queue) = bounded::<u32>(4);
        let popper = drain(&queue);
        thread::sleep(Duration::from_millis(20));
        assert!(!popper.is_finished(), "pop should block while empty");
        drop(push);
        assert!(popper.join().unwrap().is_empty());
        // Items queued before the drop are drained first.
        let (push, queue) = bounded(4);
        push.push(1).unwrap();
        push.push(2).unwrap();
        drop(push);
        assert_eq!(drain(&queue).join().unwrap(), [1, 2]);
    }

    #[test]
    fn close_drains_then_ends() {
        let (push, queue) = bounded(4);
        push.push(1).unwrap();
        push.push(2).unwrap();
        let consumer = Arc::clone(&queue);
        let popped = thread::spawn(move || {
            consumer.close();
            let popped = std::iter::from_fn(|| consumer.pop()).collect::<Vec<_>>();
            // Idempotent close.
            consumer.close();
            popped
        });
        assert_eq!(popped.join().unwrap(), [1, 2]);
        assert_eq!(push.push(3), Err(3), "a closed queue hands the item back");
    }

    #[test]
    fn push_blocks_at_capacity_until_pop() {
        let (push, queue) = bounded(1);
        push.push(10).unwrap();
        let about_to_pop = Arc::new(AtomicBool::new(false));
        let (consumer, flag) = (Arc::clone(&queue), Arc::clone(&about_to_pop));
        let popper = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            flag.store(true, Ordering::Release);
            std::iter::from_fn(|| consumer.pop()).collect::<Vec<_>>()
        });
        push.push(20).unwrap();
        assert!(
            about_to_pop.load(Ordering::Acquire),
            "push should block while full"
        );
        drop(push);
        assert_eq!(popper.join().unwrap(), [10, 20]);
        assert_eq!(queue.max_occupancy(), 1);
    }

    #[test]
    fn a_pop_side_close_fails_a_blocked_push_and_hands_its_item_back() {
        let (push, queue) = bounded(1);
        push.push(1).unwrap();
        let closer = Arc::clone(&queue);
        let closer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            closer.close();
        });
        assert_eq!(push.push(2), Err(2));
        closer.join().unwrap();
        assert_eq!(push.push(3), Err(3));
        assert_eq!(drain(&queue).join().unwrap(), [1]);
    }

    #[test]
    fn one_producer_many_consumers_deliver_everything() {
        const ITEMS: usize = 1_500;
        let (push, queue) = bounded(4);
        let consumers: Vec<_> = (0..3).map(|_| drain(&queue)).collect();
        for i in 0..ITEMS {
            push.push(i).unwrap();
        }
        drop(push);
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..ITEMS).collect::<Vec<_>>());
        assert!(queue.max_occupancy() <= 4);
    }
}
