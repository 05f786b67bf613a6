//! The I/O fault sites of a run: each is one [`supervised`] call, which
//! passes the chaos run's fault gate and then runs its operation once.
//!
//! This module is deliberately panic-free (`wga-lint` fails any panic site):
//! a fault site must never take down the run it sits in. Nothing here
//! retries: a failed operation fails its pair or its command, and the
//! checkpoint journal is the one recovery mechanism (see
//! [`crate::faultsim`]).
//!
//! The sites are journal appends, dataflow queue operations and the
//! CLI's FASTA reads. A sink's gate sits inside
//! `durable::write_atomic_gated`, where a short write stages half the
//! bytes.

use crate::error::WgaResult;
use crate::faultsim::Hook;
use crate::obs::Obs;

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// One fault site — a journal append, a queue operation, a FASTA read —
/// at `obs`'s pair: in a chaos run the site first passes
/// [`FaultInjector::gate_io`](crate::faultsim::FaultInjector::gate_io)
/// at `hook`, so an injected error fails it like a real one; then `op`
/// runs once.
///
/// # Errors
///
/// The gate's injected error, or `op`'s.
pub fn supervised<T>(hook: Hook, obs: &Obs<'_>, op: impl FnOnce() -> WgaResult<T>) -> WgaResult<T> {
    if let Some(injector) = obs.injector() {
        injector.gate_io(hook, obs)?;
    }
    op()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WgaError;
    use crate::faultsim::{FaultInjector, FaultPlan};
    use std::cell::Cell;

    #[test]
    fn supervised_gates_then_runs_once() {
        let plan = FaultPlan::parse(
            "{\"format\":\"wga-fault-plan\",\"version\":1,\"faults\":[\
             {\"hook\":\"queue.pop\",\"kind\":\"error\",\"at\":[0]},\
             {\"hook\":\"queue.pop\",\"kind\":\"panic\",\"at\":[1]}]}",
        )
        .unwrap();
        let injector = FaultInjector::new(plan);
        let obs = Obs::off().with_pair(4).with_injector(&injector);
        let ran = Cell::new(0);
        let op = || {
            ran.set(ran.get() + 1);
            Ok(())
        };
        // An injected error, then a queue panic that fails like one: the
        // operation never runs behind a failed gate, and is not retried.
        assert!(supervised(Hook::QueuePop, &obs, op).is_err());
        assert!(supervised(Hook::QueuePop, &obs, op).is_err());
        assert_eq!(ran.get(), 0);
        assert!(supervised(Hook::QueuePop, &obs, op).is_ok());
        assert_eq!(ran.get(), 1);
        assert_eq!(injector.injected(), 2);
    }

    #[test]
    fn supervised_returns_the_first_error_of_its_operation() {
        let attempts = Cell::new(0);
        let out: WgaResult<()> = supervised(Hook::JournalAppend, &Obs::off(), || {
            attempts.set(attempts.get() + 1);
            Err(WgaError::config("permanent"))
        });
        assert!(out.is_err());
        assert_eq!(attempts.get(), 1, "one try, no retry");
    }
}
