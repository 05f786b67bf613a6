//! Deterministic, seedable fault injection for chaos testing.
//!
//! A [`FaultPlan`] (`--fault-plan plan.json`) names *hook points* in
//! the pipeline — FASTA reads, journal appends/fsyncs,
//! bounded-queue pushes/pops, filter batches, extension tiles, and the
//! metrics/trace sinks — and for each hook lists which occurrences to
//! fail and how: an error return, an injected panic, artificial
//! latency, or a short write. The [`FaultInjector`] built from the plan
//! is threaded through both schedules via [`crate::obs::Obs`], so the
//! same plan perturbs the one-thread pair loop and the dataflow
//! executor at the same logical points.
//!
//! # Determinism
//!
//! Occurrences are counted per `(hook, pair)`, and the retry budget for
//! injected errors is shared per `(hook, pair)` across *all* worker
//! threads touching that pair. Given the same plan and seed, every
//! thread count therefore injects the same number of faults, burns the
//! same number of retries, and fails the same pairs — the
//! chaos-determinism acceptance gate (`tests/chaos.rs`) compares
//! `canonical_text` across thread counts byte for byte. Backoff delays come from
//! [`crate::supervise::RetryPolicy`] (integer-only splitmix64 jitter);
//! this module never reads a wall clock, so it sits in the linter's
//! `[determinism]` set.
//!
//! Every injection is recorded as a [`crate::obs::SpanName::Fault`]
//! span (`seq` = hook code, `items` = occurrence index, `cells` = kind
//! code), so a chaos run is auditable from its trace.

use crate::error::{WgaError, WgaResult};
use crate::json::{self, Json};
use crate::obs::Obs;
use crate::supervise::RetryPolicy;
use crate::sync::Mutex;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

/// Pair id used for hooks with no chromosome-pair context (FASTA reads,
/// metrics/trace sinks).
pub const PAIRLESS: u64 = u64::MAX;

/// The named points where faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hook {
    /// Opening/parsing an input FASTA (CLI `read_assembly`).
    FastaRead,
    /// Appending a pair record to the checkpoint journal.
    JournalAppend,
    /// Fsyncing the checkpoint journal after an append.
    JournalSync,
    /// Pushing into a dataflow bounded queue.
    QueuePush,
    /// Popping from a dataflow bounded queue.
    QueuePop,
    /// Opening one query strand for filtering: one occurrence per
    /// (pair, strand) on both schedules, never one per query range.
    FilterBatch,
    /// Extending one anchor in the extension stage.
    ExtendTile,
    /// Writing the `--metrics-out` artifact.
    MetricsSink,
    /// Writing the `--trace-out` artifact.
    TraceSink,
}

impl Hook {
    /// Every hook, in wire-code order.
    pub const ALL: [Hook; 9] = [
        Hook::FastaRead,
        Hook::JournalAppend,
        Hook::JournalSync,
        Hook::QueuePush,
        Hook::QueuePop,
        Hook::FilterBatch,
        Hook::ExtendTile,
        Hook::MetricsSink,
        Hook::TraceSink,
    ];

    /// The plan-file spelling of the hook.
    pub fn as_str(self) -> &'static str {
        match self {
            Hook::FastaRead => "fasta.read",
            Hook::JournalAppend => "journal.append",
            Hook::JournalSync => "journal.sync",
            Hook::QueuePush => "queue.push",
            Hook::QueuePop => "queue.pop",
            Hook::FilterBatch => "filter.batch",
            Hook::ExtendTile => "extend.tile",
            Hook::MetricsSink => "metrics.sink",
            Hook::TraceSink => "trace.sink",
        }
    }

    /// Parses the plan-file spelling.
    pub fn parse(s: &str) -> Option<Hook> {
        Hook::ALL.into_iter().find(|h| h.as_str() == s)
    }

    /// Stable numeric code (index into [`Hook::ALL`]), used as the
    /// `seq` field of fault spans and as the backoff site key.
    pub fn code(self) -> u64 {
        Hook::ALL
            .iter()
            .position(|h| *h == self)
            .map_or(0, |i| i as u64)
    }
}

/// What an injected fault does at its hook point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation returns an error (supervised: retried with
    /// backoff, then the pair fails).
    Error,
    /// The operation panics (exercises the batch/pair panic
    /// containment of the executors).
    Panic,
    /// The operation stalls for `ms` milliseconds before succeeding
    /// (exercises the watchdog; interruptible via [`FaultInjector::request_abort`]).
    Latency,
    /// A sink write stops halfway through (exercises atomic-write
    /// crash safety); behaves like [`FaultKind::Error`] elsewhere.
    ShortWrite,
}

impl FaultKind {
    /// Every kind, in wire-code order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Error,
        FaultKind::Panic,
        FaultKind::Latency,
        FaultKind::ShortWrite,
    ];

    /// The plan-file spelling of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Error => "error",
            FaultKind::Panic => "panic",
            FaultKind::Latency => "latency",
            FaultKind::ShortWrite => "short-write",
        }
    }

    /// Parses the plan-file spelling.
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// Stable numeric code (index into [`FaultKind::ALL`]), the
    /// `cells` field of fault spans.
    pub fn code(self) -> u64 {
        FaultKind::ALL
            .iter()
            .position(|k| *k == self)
            .map_or(0, |i| i as u64)
    }
}

/// One rule of a fault plan: inject `kind` at `hook` for the listed
/// `(hook, pair)` occurrence indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Where to inject.
    pub hook: Hook,
    /// What to inject.
    pub kind: FaultKind,
    /// Which occurrences of the hook (per pair) to hit, 0-based.
    pub at: Vec<u64>,
    /// Restrict to one pair id, an index over the run's whole pair
    /// matrix (`None` = every pair, including [`PAIRLESS`] hooks).
    pub pair: Option<u64>,
    /// Stall duration for [`FaultKind::Latency`], milliseconds.
    pub ms: u64,
}

/// A parsed `--fault-plan` document.
///
/// ```json
/// {"format":"wga-fault-plan","version":1,"seed":42,"faults":[
///   {"hook":"filter.batch","kind":"error","at":[0],"pair":1},
///   {"hook":"journal.append","kind":"latency","at":[0],"ms":25}
/// ]}
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Injection rules, evaluated in order (first match wins).
    pub rules: Vec<FaultRule>,
}

/// Document format tag of a fault-plan file.
pub const PLAN_FORMAT: &str = "wga-fault-plan";
/// Fault-plan schema version this build reads and writes.
pub const PLAN_VERSION: u64 = 1;

impl FaultPlan {
    /// Parses a fault-plan JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`WgaError::Config`] on malformed JSON, a wrong
    /// format/version tag, or an unknown hook/kind name.
    pub fn parse(text: &str) -> WgaResult<FaultPlan> {
        let bad = |msg: String| WgaError::config(format!("fault plan: {msg}"));
        let doc = json::parse(text).map_err(bad)?;
        if doc.get("format").and_then(Json::as_str) != Some(PLAN_FORMAT) {
            return Err(bad(format!("missing format tag {PLAN_FORMAT:?}")));
        }
        match doc.get_u64("version").map_err(bad)? {
            Some(PLAN_VERSION) => {}
            other => return Err(bad(format!("unsupported version {other:?}"))),
        }
        let rule = |f: &Json| -> Result<FaultRule, String> {
            let hook = f.str("hook")?;
            let kind = f.str("kind")?;
            Ok(FaultRule {
                hook: Hook::parse(hook).ok_or_else(|| format!("unknown hook {hook:?}"))?,
                kind: FaultKind::parse(kind).ok_or_else(|| format!("unknown kind {kind:?}"))?,
                at: f
                    .arr("at")?
                    .iter()
                    .map(|a| a.as_u64().ok_or("non-u64 \"at\" entry"))
                    .collect::<Result<_, _>>()?,
                pair: f.get_u64("pair")?,
                ms: f.get_u64("ms")?.unwrap_or(10),
            })
        };
        let rules = doc
            .arr("faults")
            .map_err(bad)?
            .iter()
            .enumerate()
            .map(|(i, f)| rule(f).map_err(|e| bad(format!("fault #{i}: {e}"))))
            .collect::<WgaResult<_>>()?;
        Ok(FaultPlan {
            seed: doc.get_u64("seed").map_err(bad)?.unwrap_or(0),
            rules,
        })
    }

    /// Reads and parses a fault-plan file.
    ///
    /// # Errors
    ///
    /// [`WgaError::Io`] if the file is unreadable, otherwise as
    /// [`FaultPlan::parse`].
    pub fn from_file(path: &Path) -> WgaResult<FaultPlan> {
        let text = fs::read_to_string(path)
            .map_err(|e| WgaError::io(format!("fault plan {}", path.display()), e))?;
        FaultPlan::parse(&text)
    }
}

/// Per-pair fault accounting, surfaced into the pair's
/// [`crate::report::FunnelCounters`] (and from there into the journal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairFaults {
    /// Faults injected while computing this pair.
    pub injected: u64,
    /// Supervised retries burned by this pair.
    pub retries: u64,
}

/// Run-scoped injector built from a [`FaultPlan`].
///
/// Shared by reference (via [`Obs`]) across every executor thread; all
/// interior state is behind atomics or mutexes, and lock poisoning is
/// absorbed (by `crate::sync::Mutex`) so an injected panic cannot
/// wedge the injector itself.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    policy: RetryPolicy,
    /// Occurrence counters per `(hook code, pair)`.
    occurrences: Mutex<HashMap<(u64, u64), u64>>,
    /// Injected-error attempts per `(hook code, pair)` — shared across
    /// worker threads so the retry budget is executor-independent.
    attempts: Mutex<HashMap<(u64, u64), u32>>,
    /// Per-pair accounting for the journal counters.
    per_pair: Mutex<HashMap<u64, PairFaults>>,
    /// Pairs whose retry budget is exhausted: every further gate on
    /// them aborts immediately, so outer batch-retry machinery cannot
    /// mask the failure.
    poisoned: Mutex<HashSet<u64>>,
    injected_total: AtomicU64,
    retries_total: AtomicU64,
    /// Set by the watchdog (or a test) to cut injected latency short.
    abort: AtomicBool,
}

impl FaultInjector {
    /// Builds an injector for one run. `max_retries` comes from
    /// `--max-retries`; the backoff seed comes from the plan.
    pub fn new(plan: FaultPlan, max_retries: u32) -> FaultInjector {
        let policy = RetryPolicy {
            max_retries,
            seed: plan.seed,
            ..RetryPolicy::default()
        };
        FaultInjector {
            plan,
            policy,
            occurrences: Mutex::new(HashMap::new()),
            attempts: Mutex::new(HashMap::new()),
            per_pair: Mutex::new(HashMap::new()),
            poisoned: Mutex::new(HashSet::new()),
            injected_total: AtomicU64::new(0),
            retries_total: AtomicU64::new(0),
            abort: AtomicBool::new(false),
        }
    }

    /// The retry policy (shared with the journal/sink `supervised`
    /// wrappers so all supervised retries pace identically).
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Consumes the next `(hook, pair)` occurrence and returns the
    /// matching fault, if any. Counts the injection.
    ///
    /// This is the raw primitive; most callers want [`FaultInjector::gate`]
    /// or [`FaultInjector::gate_io`]. `durable` uses it directly to
    /// implement short writes.
    pub fn probe(&self, hook: Hook, pair: u64) -> Option<(FaultKind, u64)> {
        let occ = {
            let mut occs = self.occurrences.lock();
            let slot = occs.entry((hook.code(), pair)).or_insert(0);
            let occ = *slot;
            *slot += 1;
            occ
        };
        let hit =
            self.plan.rules.iter().find(|r| {
                r.hook == hook && r.pair.unwrap_or(pair) == pair && r.at.contains(&occ)
            })?;
        self.injected_total.fetch_add(1, Ordering::Relaxed);
        Some((hit.kind, hit.ms))
    }

    /// Records one injection against `pair`'s journal counters.
    fn count_pair_injection(&self, pair: u64) {
        self.per_pair.lock().entry(pair).or_default().injected += 1;
    }

    /// Counts one supervised retry (global + per-pair).
    pub fn count_retry(&self, pair: u64) {
        self.retries_total.fetch_add(1, Ordering::Relaxed);
        self.per_pair.lock().entry(pair).or_default().retries += 1;
    }

    /// Whether `pair`'s injected-error retry budget is exhausted.
    pub fn is_poisoned(&self, pair: u64) -> bool {
        self.poisoned.lock().contains(&pair)
    }

    fn poison(&self, pair: u64) {
        self.poisoned.lock().insert(pair);
    }

    /// Takes (and clears) the per-pair fault accounting for `pair`.
    pub fn take_pair(&self, pair: u64) -> PairFaults {
        self.per_pair.lock().remove(&pair).unwrap_or_default()
    }

    /// Run totals: `(faults_injected, retries)`.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.injected_total.load(Ordering::Relaxed),
            self.retries_total.load(Ordering::Relaxed),
        )
    }

    /// Asks in-flight injected latency to end early (the watchdog's
    /// escalation path; sleeping hooks then abort their pair).
    pub fn request_abort(&self) {
        self.abort.store(true, Ordering::Relaxed);
    }

    /// Whether [`FaultInjector::request_abort`] has fired.
    pub fn abort_requested(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    /// Sleeps `ms` in slices, returning `true` if cut short by
    /// [`FaultInjector::request_abort`].
    fn sleep_sliced(&self, ms: u64) -> bool {
        let mut remaining = ms;
        while remaining > 0 {
            if self.abort_requested() {
                return true;
            }
            let slice = remaining.min(10);
            thread::sleep(Duration::from_millis(slice));
            remaining -= slice;
        }
        self.abort_requested()
    }

    /// Compute-stage gate (filter batches, extension tiles). Injected
    /// errors are retried internally with the supervised backoff; when
    /// the shared `(hook, pair)` retry budget is exhausted the pair is
    /// poisoned and the gate aborts it by panicking — both schedules
    /// already contain pair-level panics, so the pair lands as `Failed`
    /// identically at every thread count.
    ///
    /// # Panics
    ///
    /// By design: for [`FaultKind::Panic`] injections, on retry-budget
    /// exhaustion, and when the watchdog aborts an injected stall.
    pub fn gate(&self, hook: Hook, obs: &Obs<'_>) {
        let pair = obs.pair();
        if self.is_poisoned(pair) {
            // lint: allow(panics): poisoned-pair gates must abort the pair like the original exhaustion did, or outer batch retries would mask it
            panic!(
                "injected fault: {} pair {pair}: retries exhausted",
                hook.as_str()
            );
        }
        loop {
            let Some((kind, ms)) = self.probe(hook, pair) else {
                return;
            };
            self.count_pair_injection(pair);
            obs.fault_span(hook.code(), kind.code());
            match kind {
                FaultKind::Latency => {
                    if self.sleep_sliced(ms) {
                        self.poison(pair);
                        // lint: allow(panics): watchdog-aborted stall — the pair must fail, not resume half-stalled
                        panic!(
                            "injected fault: {} pair {pair}: stall aborted by watchdog",
                            hook.as_str()
                        );
                    }
                    return;
                }
                FaultKind::Panic => {
                    // lint: allow(panics): the injected panic itself — exercises the executors' panic containment
                    panic!("injected fault: {} pair {pair}: panic", hook.as_str());
                }
                FaultKind::Error | FaultKind::ShortWrite => {
                    let attempt = {
                        let mut attempts = self.attempts.lock();
                        let slot = attempts.entry((hook.code(), pair)).or_insert(0);
                        let attempt = *slot;
                        *slot += 1;
                        attempt
                    };
                    if attempt >= self.policy.max_retries {
                        self.poison(pair);
                        // lint: allow(panics): retry budget exhausted — escalate to a pair-level failure on every executor
                        panic!(
                            "injected fault: {} pair {pair}: retries exhausted",
                            hook.as_str()
                        );
                    }
                    self.count_retry(pair);
                    self.policy
                        .sleep_backoff((hook.code() << 32) | (pair & 0xFFFF_FFFF), attempt);
                }
            }
        }
    }

    /// I/O gate (journal appends/fsyncs, queue operations, FASTA reads),
    /// the one [`crate::supervise::supervised`] runs before each attempt:
    /// injected faults surface as an error return for its retries;
    /// latency sleeps in place. Never panics except for explicit
    /// [`FaultKind::Panic`] rules, and not for those on a queue
    /// operation either, which fails like an error instead: a worker
    /// parked on a queue must not unwind out of its pool.
    ///
    /// # Errors
    ///
    /// [`WgaError::Io`] for `error`/`short-write` injections, queue
    /// panics and watchdog-aborted stalls.
    ///
    /// # Panics
    ///
    /// Only for [`FaultKind::Panic`] injections off the queues.
    pub fn gate_io(&self, hook: Hook, pair: u64, obs: Option<&Obs<'_>>) -> WgaResult<()> {
        let Some((kind, ms)) = self.probe(hook, pair) else {
            return Ok(());
        };
        if let Some(obs) = obs {
            obs.fault_span(hook.code(), kind.code());
        }
        let injected =
            |msg: &str| WgaError::io(hook.as_str(), io::Error::other(format!("injected {msg}")));
        match kind {
            FaultKind::Latency => {
                if self.sleep_sliced(ms) {
                    return Err(injected("stall aborted by watchdog"));
                }
                Ok(())
            }
            FaultKind::Panic if matches!(hook, Hook::QueuePush | Hook::QueuePop) => Err(injected(
                &format!("fault: {} pair {pair}: panic", hook.as_str()),
            )),
            FaultKind::Panic => {
                // lint: allow(panics): the injected panic itself — exercises the executors' panic containment
                panic!("injected fault: {} pair {pair}: panic", hook.as_str());
            }
            FaultKind::Error => Err(injected("I/O error")),
            FaultKind::ShortWrite => Err(injected("short write")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(rules: &str) -> FaultPlan {
        FaultPlan::parse(&format!(
            "{{\"format\":\"wga-fault-plan\",\"version\":1,\"seed\":7,\"faults\":[{rules}]}}"
        ))
        .expect("plan parses")
    }

    #[test]
    fn plan_parses_and_rejects() {
        let p = plan(
            "{\"hook\":\"filter.batch\",\"kind\":\"error\",\"at\":[0,2],\"pair\":1},\
             {\"hook\":\"journal.append\",\"kind\":\"latency\",\"at\":[0],\"ms\":25}",
        );
        assert_eq!(p.seed, 7);
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].hook, Hook::FilterBatch);
        assert_eq!(p.rules[0].kind, FaultKind::Error);
        assert_eq!(p.rules[0].at, vec![0, 2]);
        assert_eq!(p.rules[0].pair, Some(1));
        assert_eq!(p.rules[1].ms, 25);
        assert_eq!(p.rules[1].pair, None);

        assert!(FaultPlan::parse("{}").is_err());
        assert!(
            FaultPlan::parse("{\"format\":\"wga-fault-plan\",\"version\":9,\"faults\":[]}")
                .is_err()
        );
        assert!(FaultPlan::parse(
            "{\"format\":\"wga-fault-plan\",\"version\":1,\"faults\":[{\"hook\":\"nope\",\"kind\":\"error\",\"at\":[0]}]}"
        )
        .is_err());
    }

    #[test]
    fn hook_and_kind_names_round_trip() {
        for h in Hook::ALL {
            assert_eq!(Hook::parse(h.as_str()), Some(h));
        }
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(Hook::parse("bogus"), None);
    }

    #[test]
    fn probe_counts_occurrences_per_pair() {
        let inj = FaultInjector::new(
            plan("{\"hook\":\"extend.tile\",\"kind\":\"error\",\"at\":[1]}"),
            1,
        );
        // Occurrence 0 misses, occurrence 1 hits — independently per pair.
        assert!(inj.probe(Hook::ExtendTile, 0).is_none());
        assert!(inj.probe(Hook::ExtendTile, 3).is_none());
        assert_eq!(inj.probe(Hook::ExtendTile, 0), Some((FaultKind::Error, 10)));
        assert_eq!(inj.probe(Hook::ExtendTile, 3), Some((FaultKind::Error, 10)));
        assert!(inj.probe(Hook::ExtendTile, 0).is_none());
        assert_eq!(inj.totals(), (2, 0));
    }

    #[test]
    fn gate_io_errors_then_clears() {
        let inj = FaultInjector::new(
            plan("{\"hook\":\"journal.append\",\"kind\":\"error\",\"at\":[0],\"pair\":2}"),
            1,
        );
        assert!(inj.gate_io(Hook::JournalAppend, 2, None).is_err());
        assert!(inj.gate_io(Hook::JournalAppend, 2, None).is_ok());
        assert!(inj.gate_io(Hook::JournalAppend, 1, None).is_ok());
    }

    #[test]
    fn gate_retries_then_survives() {
        let mut inj = FaultInjector::new(
            plan("{\"hook\":\"filter.batch\",\"kind\":\"error\",\"at\":[0]}"),
            2,
        );
        // No-sleep policy keeps the test fast.
        inj.policy.base_ms = 0;
        inj.policy.cap_ms = 0;
        let obs = Obs::off().with_pair(5).with_fault(Some(&inj));
        obs.fault_gate(Hook::FilterBatch);
        assert_eq!(inj.totals(), (1, 1));
        assert!(!inj.is_poisoned(5));
        assert_eq!(
            inj.take_pair(5),
            PairFaults {
                injected: 1,
                retries: 1
            }
        );
    }

    #[test]
    fn gate_exhaustion_poisons_and_panics() {
        let mut inj = FaultInjector::new(
            plan("{\"hook\":\"filter.batch\",\"kind\":\"error\",\"at\":[0,1]}"),
            1,
        );
        inj.policy.base_ms = 0;
        inj.policy.cap_ms = 0;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let obs = Obs::off().with_pair(0).with_fault(Some(&inj));
            obs.fault_gate(Hook::FilterBatch);
        }));
        assert!(caught.is_err(), "exhaustion must abort the pair");
        assert!(inj.is_poisoned(0));
        assert_eq!(inj.totals(), (2, 1), "two injections, one retry");
        // A later gate on the poisoned pair aborts immediately.
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let obs = Obs::off().with_pair(0).with_fault(Some(&inj));
            obs.fault_gate(Hook::FilterBatch);
        }));
        assert!(again.is_err());
        assert_eq!(inj.totals(), (2, 1), "poisoned fast path injects nothing");
    }

    #[test]
    fn latency_gate_sleeps_and_can_abort() {
        let inj = FaultInjector::new(
            plan("{\"hook\":\"queue.pop\",\"kind\":\"latency\",\"at\":[0],\"ms\":5}"),
            1,
        );
        assert!(inj.gate_io(Hook::QueuePop, 0, None).is_ok());
        let inj2 = FaultInjector::new(
            plan("{\"hook\":\"queue.pop\",\"kind\":\"latency\",\"at\":[0],\"ms\":60000}"),
            1,
        );
        inj2.request_abort();
        assert!(inj2.gate_io(Hook::QueuePop, 0, None).is_err());
    }
}
