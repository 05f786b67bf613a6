//! The crate's one mutex: `lock()` returns the guard and cannot poison.
//!
//! Every mutex in this crate guards state that is valid after any
//! interleaving (a span list, a pair's cell, a queue's `VecDeque`, the
//! fault injector's counters), and every holder that can panic is
//! already contained by an executor's `catch_unwind`, so a panicked
//! holder must not wedge the rest of the run. Poison is absorbed here
//! and nowhere else.

use std::sync::MutexGuard;

/// `std::sync::Mutex` with the poison flag ignored.
#[derive(Debug)]
pub(crate) struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub(crate) fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::Mutex;

    #[test]
    fn lock_survives_a_panicked_holder() {
        let m = std::sync::Arc::new(Mutex::new(1u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }
}
