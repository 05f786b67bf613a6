//! A run's supervision: capped-exponential retry with deterministic
//! jitter and the fault injector of a chaos run — one [`Supervision`]
//! a run, carried by its [`Obs`] handle.
//!
//! This module is deliberately panic-free (`wga-lint` fails any panic site):
//! the supervisor must never take down the run it is supervising. It is
//! also integer-only — backoff jitter is drawn from a splitmix64 hash of
//! `(seed, site, attempt)` instead of a float RNG, so a chaos run under
//! a given `--fault-plan` retries with exactly the same delays every
//! time, on every executor.
//!
//! `wga align` and `wga many` build one [`Supervision`] a command and
//! reach it through one [`Obs`] for their FASTA reads, the matrix run
//! and their output sinks; a library caller whose `Obs` carries none
//! gets one built from its `AlignOptions`. Two consumers:
//!
//! * [`crate::faultsim::FaultInjector::gate`] paces its internal retry
//!   loop for injected errors with the supervision's [`RetryPolicy`].
//! * Every I/O fault site — journal appends, dataflow queue operations,
//!   the CLI's FASTA reads and output sinks — is one [`supervised`]
//!   call, which gates it, retries *real* and injected transient
//!   failures with the same policy and counts the retries.

use crate::error::WgaResult;
use crate::faultsim::{FaultInjector, FaultPlan, Hook};
use crate::obs::Obs;
use std::thread;
use std::time::Duration;

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

/// How a supervised operation retries: attempt count, base/cap of the
/// capped-exponential backoff, and the seed the deterministic jitter is
/// drawn from (the fault plan's seed, or 0 without a plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail on first error).
    pub max_retries: u32,
    /// Backoff before retry 0, milliseconds; doubles per retry.
    pub base_ms: u64,
    /// Upper bound on any single backoff, milliseconds.
    pub cap_ms: u64,
    /// Seed mixed into the jitter hash.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 1,
            base_ms: 2,
            cap_ms: 100,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` at call site `site`:
    /// `base * 2^attempt` capped at `cap_ms`, then jittered down to
    /// `[delay/2, delay]` by a splitmix64 hash — deterministic in
    /// `(seed, site, attempt)`, so chaos runs replay byte-for-byte.
    pub fn backoff_ms(&self, site: u64, attempt: u32) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.cap_ms);
        let half = exp / 2;
        let jitter_span = exp - half;
        if jitter_span == 0 {
            return exp;
        }
        let h = mix64(self.seed ^ site.rotate_left(17) ^ u64::from(attempt).wrapping_mul(0x9E37));
        half + (h % (jitter_span + 1))
    }

    /// Sleeps the backoff for retry `attempt` at `site`.
    pub fn sleep_backoff(&self, site: u64, attempt: u32) {
        let ms = self.backoff_ms(site, attempt);
        if ms > 0 {
            thread::sleep(Duration::from_millis(ms));
        }
    }
}

/// splitmix64 finalizer — the integer hash behind the jitter. Public so
/// `faultsim` can key per-site decisions off the same mixer.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The supervision of one run: the [`RetryPolicy`] every supervised
/// site runs under and a chaos run's [`FaultInjector`].
/// [`Obs::with_supervision`] carries it to every hook.
#[derive(Debug)]
pub struct Supervision {
    policy: RetryPolicy,
    injector: Option<FaultInjector>,
}

impl Supervision {
    /// Retries each site `max_retries` times; a fault `plan` adds the
    /// injector and seeds the backoff jitter.
    pub fn new(plan: Option<FaultPlan>, max_retries: u32) -> Supervision {
        let policy = RetryPolicy {
            max_retries,
            seed: plan.as_ref().map_or(0, |plan| plan.seed),
            ..RetryPolicy::default()
        };
        Supervision {
            policy,
            injector: plan.map(FaultInjector::new),
        }
    }

    /// The retry policy of every supervised site.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// The fault injector of a chaos run.
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }
}

/// One supervised fault site — a journal append, a queue operation, a
/// FASTA read, an output sink — at `obs`'s pair. `op` runs under the
/// supervision's policy ([`RetryPolicy::default`] without one): an
/// `Err` is retried up to `max_retries` times after the backoff keyed to
/// `(hook, pair)`, each retry counted against the pair in the injector's
/// totals. In a chaos run every attempt first passes
/// [`FaultInjector::gate_io`] at `hook`, so an injected error fails the
/// attempt like a real one — except a sink's, which gates inside `op`
/// (`durable::write_atomic_gated`, where a short write stages half the
/// bytes), so each attempt probes its hook once.
pub fn supervised<T>(
    hook: Hook,
    obs: &Obs<'_>,
    mut op: impl FnMut() -> WgaResult<T>,
) -> WgaResult<T> {
    let (pair, sup) = (obs.pair(), obs.supervision());
    let policy = sup.map_or_else(RetryPolicy::default, Supervision::policy);
    let injector = sup.and_then(Supervision::injector);
    let gate = injector.filter(|_| !matches!(hook, Hook::MetricsSink | Hook::TraceSink));
    let site = (hook.code() << 32) | (pair & 0xFFFF_FFFF);
    let mut attempt = 0u32;
    loop {
        let result = match gate {
            Some(injector) => injector.gate_io(hook, obs).and_then(|()| op()),
            None => op(),
        };
        match result {
            Err(_) if attempt < policy.max_retries => {
                if let Some(injector) = injector {
                    injector.count_retry(pair);
                }
                policy.sleep_backoff(site, attempt);
                attempt += 1;
            }
            result => return result,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WgaError;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn backoff_is_capped_and_deterministic() {
        let p = RetryPolicy {
            max_retries: 5,
            base_ms: 2,
            cap_ms: 10,
            seed: 42,
        };
        for attempt in 0..8 {
            let a = p.backoff_ms(7, attempt);
            let b = p.backoff_ms(7, attempt);
            assert_eq!(a, b, "jitter must be deterministic");
            assert!(a <= p.cap_ms, "attempt {attempt}: {a} > cap");
        }
        // Different sites draw different jitter (with overwhelming
        // probability for these constants).
        let draws: Vec<u64> = (0..64).map(|site| p.backoff_ms(site, 2)).collect();
        assert!(draws.iter().any(|&d| d != draws[0]));
        // The un-jittered floor grows until the cap.
        assert!(p.backoff_ms(0, 0) <= p.backoff_ms(0, 5).max(p.cap_ms));
    }

    #[test]
    fn zero_base_never_sleeps() {
        let p = RetryPolicy {
            base_ms: 0,
            cap_ms: 0,
            ..RetryPolicy::default()
        };
        for attempt in 0..4 {
            assert_eq!(p.backoff_ms(3, attempt), 0);
        }
    }

    const NO_SLEEP: RetryPolicy = RetryPolicy {
        max_retries: 3,
        base_ms: 0,
        cap_ms: 0,
        seed: 1,
    };

    fn no_sleep(plan: Option<FaultPlan>) -> Supervision {
        Supervision {
            policy: NO_SLEEP,
            ..Supervision::new(plan, 0)
        }
    }

    #[test]
    fn supervised_succeeds_after_transient_failures() {
        let failures = AtomicUsize::new(2);
        let sup = no_sleep(None);
        let obs = Obs::off().with_pair(9).with_supervision(&sup);
        let out = supervised(Hook::JournalAppend, &obs, || {
            if failures.load(Ordering::Relaxed) > 0 {
                failures.fetch_sub(1, Ordering::Relaxed);
                Err(WgaError::config("transient"))
            } else {
                Ok(99)
            }
        });
        assert_eq!(out.ok(), Some(99));
    }

    #[test]
    fn supervised_exhausts_and_returns_last_error() {
        let sup = Supervision {
            policy: RetryPolicy {
                max_retries: 2,
                ..NO_SLEEP
            },
            ..no_sleep(None)
        };
        let obs = Obs::off().with_pair(9).with_supervision(&sup);
        let attempts = AtomicUsize::new(0);
        let out: WgaResult<()> = supervised(Hook::JournalAppend, &obs, || {
            attempts.fetch_add(1, Ordering::Relaxed);
            Err(WgaError::config("permanent"))
        });
        assert!(out.is_err());
        assert_eq!(attempts.load(Ordering::Relaxed), 3, "1 try + 2 retries");
    }

    #[test]
    fn supervised_gates_every_attempt_and_counts_the_retries() {
        let plan = FaultPlan::parse(
            "{\"format\":\"wga-fault-plan\",\"version\":1,\"faults\":[\
             {\"hook\":\"queue.pop\",\"kind\":\"error\",\"at\":[0]},\
             {\"hook\":\"queue.pop\",\"kind\":\"panic\",\"at\":[1]}]}",
        )
        .unwrap();
        let sup = no_sleep(Some(plan));
        let obs = Obs::off().with_pair(4).with_supervision(&sup);
        let ran = AtomicUsize::new(0);
        let out = supervised(Hook::QueuePop, &obs, || {
            ran.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert!(out.is_ok());
        // An injected error, then a queue panic that fails like one, then
        // a clean gate: the operation ran once, after two retries.
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        let injector = sup.injector().unwrap();
        assert_eq!(injector.totals(), (2, 2));
        assert_eq!(injector.take_pair(4).retries, 2);
    }
}
