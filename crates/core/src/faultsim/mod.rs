//! Deterministic, seedable fault injection for chaos testing.
//!
//! A [`FaultPlan`] (`--fault-plan plan.json`) names *hook points* in
//! the pipeline — FASTA reads, journal appends/fsyncs,
//! bounded-queue pushes/pops, filter batches, extension tiles, and the
//! metrics/trace sinks — and for each hook lists which occurrences to
//! fail and how: an error return, an injected panic, a short write, or
//! a crash of the whole process. The [`FaultInjector`] built from the
//! plan rides on [`crate::obs::Obs`] to every hook — the CLI's FASTA
//! reads and sinks as well as both schedules — so the same plan perturbs
//! the one-thread pair loop and the dataflow executor at the same
//! logical points, and one total counts every injection of a command.
//!
//! # Crash-only recovery
//!
//! Nothing is retried. A fault at a compute gate or a queue operation
//! fails its pair; one at a journal append or fsync, a FASTA read or a
//! sink ends the command with an error; a `crash` aborts the process at
//! the hook. The checkpoint journal is the one recovery mechanism: a
//! rerun with the same `--checkpoint` replays every pair made durable
//! before the fault and computes the rest.
//!
//! # Determinism
//!
//! Occurrences are counted per `(hook, pair)`. Given the same plan,
//! every thread count therefore injects the same faults and fails the
//! same pairs — the chaos-determinism acceptance gate (`tests/chaos.rs`)
//! compares `canonical_text` across thread counts byte for byte. This
//! module never reads a wall clock, so it sits in the linter's
//! `[determinism]` set.
//!
//! Every injection at a gate is recorded as a
//! [`crate::obs::SpanName::Fault`] span (`seq` = hook code, `items` =
//! kind code, `cells` = 0, `pair` = the handle's pair, [`NO_PAIR`](crate::obs::NO_PAIR)
//! for a FASTA read), so a chaos run is auditable from its trace. A sink's
//! fault is probed by `durable` after the trace and the metrics are
//! rendered, so neither artifact counts it.

use crate::error::{WgaError, WgaResult};
use crate::json::{self, Json};
use crate::obs::Obs;
use crate::sync::Mutex;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// `seq` field of fault spans.
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
    /// The operation returns an error: at a compute gate or a queue
    /// operation the pair fails, elsewhere the command does.
    Error = 0,
    /// The operation panics (exercises the batch/pair panic
    /// containment of the executors).
    Panic = 1,
    /// A sink write stops halfway through (exercises atomic-write
    /// crash safety); behaves like [`FaultKind::Error`] elsewhere.
    ShortWrite = 3,
    /// The process aborts at the hook (`SIGABRT`): the crash a rerun
    /// with the same `--checkpoint` recovers from.
    Crash = 4,
}

impl FaultKind {
    /// Every kind, in wire-code order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Error,
        FaultKind::Panic,
        FaultKind::ShortWrite,
        FaultKind::Crash,
    ];

    /// The plan-file spelling of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Error => "error",
            FaultKind::Panic => "panic",
            FaultKind::ShortWrite => "short-write",
            FaultKind::Crash => "crash",
        }
    }

    /// Parses the plan-file spelling.
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// Stable numeric code, the `items` field of fault spans. Code 2
    /// was the retired `latency` kind.
    pub fn code(self) -> u64 {
        self as u64
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
    /// matrix (`None` = every pair, including the
    /// [`NO_PAIR`](crate::obs::NO_PAIR) of FASTA reads and sinks).
    pub pair: Option<u64>,
}

/// A parsed `--fault-plan` document. A plan written for an older build
/// may carry a `"seed"` or a rule's `"ms"`; neither is read.
///
/// ```json
/// {"format":"wga-fault-plan","version":1,"faults":[
///   {"hook":"filter.batch","kind":"error","at":[0],"pair":1},
///   {"hook":"journal.sync","kind":"crash","at":[0],"pair":2}
/// ]}
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
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
            })
        };
        let rules = doc
            .arr("faults")
            .map_err(bad)?
            .iter()
            .enumerate()
            .map(|(i, f)| rule(f).map_err(|e| bad(format!("fault #{i}: {e}"))))
            .collect::<WgaResult<_>>()?;
        Ok(FaultPlan { rules })
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

/// Run-scoped injector built from a [`FaultPlan`].
///
/// Shared by reference (via [`Obs`]) across every executor thread; its
/// occurrence counters sit behind a mutex whose poisoning is absorbed
/// (by `crate::sync::Mutex`), so an injected panic cannot wedge the
/// injector itself.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Occurrence counters per `(hook code, pair)`.
    occurrences: Mutex<HashMap<(u64, u64), u64>>,
    injected: AtomicU64,
}

impl FaultInjector {
    /// Builds an injector for one run.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            occurrences: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Consumes the next `(hook, pair)` occurrence and returns the
    /// matching fault, if any, counting the injection. A `crash` aborts
    /// the process here, so no caller sees one.
    ///
    /// This is the raw primitive; most callers want [`FaultInjector::gate`]
    /// or [`FaultInjector::gate_io`]. `durable` uses it directly to
    /// implement short writes.
    pub fn probe(&self, hook: Hook, pair: u64) -> Option<FaultKind> {
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
        if hit.kind == FaultKind::Crash {
            std::process::abort();
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(hit.kind)
    }

    /// Faults injected so far in the run.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Compute-stage gate (filter batches, extension tiles) at `obs`'s
    /// pair. Any injection fails the pair by panicking: both schedules
    /// already contain pair-level panics, so the pair lands as `Failed`
    /// identically at every thread count.
    ///
    /// # Panics
    ///
    /// By design, on every injection.
    pub fn gate(&self, hook: Hook, obs: &Obs<'_>) {
        let pair = obs.pair();
        if let Some(kind) = self.probe(hook, pair) {
            obs.fault_span(hook.code(), kind.code());
            // lint: allow(panics): an injected fault fails its pair — the executors' pair-level containment catches it
            panic!(
                "injected fault: {} pair {pair}: {}",
                hook.as_str(),
                kind.as_str()
            );
        }
    }

    /// I/O gate (journal appends/fsyncs, queue operations, FASTA reads) at
    /// `obs`'s pair, the one [`crate::supervise::supervised`] runs before
    /// its operation: injected faults surface as an error return. Never
    /// panics except for explicit [`FaultKind::Panic`] rules, and not for
    /// those on a queue operation either, which fails like an error
    /// instead: a worker parked on a queue must not unwind out of its
    /// pool.
    ///
    /// # Errors
    ///
    /// [`WgaError::Io`] for `error`/`short-write` injections and queue
    /// panics.
    ///
    /// # Panics
    ///
    /// Only for [`FaultKind::Panic`] injections off the queues.
    pub fn gate_io(&self, hook: Hook, obs: &Obs<'_>) -> WgaResult<()> {
        let pair = obs.pair();
        let Some(kind) = self.probe(hook, pair) else {
            return Ok(());
        };
        obs.fault_span(hook.code(), kind.code());
        let injected =
            |msg: &str| WgaError::io(hook.as_str(), io::Error::other(format!("injected {msg}")));
        match kind {
            FaultKind::Panic if matches!(hook, Hook::QueuePush | Hook::QueuePop) => Err(injected(
                &format!("fault: {} pair {pair}: panic", hook.as_str()),
            )),
            FaultKind::Panic => {
                // lint: allow(panics): the injected panic itself — exercises the executors' panic containment
                panic!("injected fault: {} pair {pair}: panic", hook.as_str());
            }
            FaultKind::ShortWrite => Err(injected("short write")),
            _ => Err(injected("I/O error")),
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
        // An older plan's `seed` and `ms` are accepted and ignored.
        let p = plan(
            "{\"hook\":\"filter.batch\",\"kind\":\"error\",\"at\":[0,2],\"pair\":1},\
             {\"hook\":\"journal.sync\",\"kind\":\"crash\",\"at\":[0],\"ms\":25}",
        );
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].hook, Hook::FilterBatch);
        assert_eq!(p.rules[0].kind, FaultKind::Error);
        assert_eq!(p.rules[0].at, vec![0, 2]);
        assert_eq!(p.rules[0].pair, Some(1));
        assert_eq!(p.rules[1].kind, FaultKind::Crash);
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
    fn a_latency_rule_is_a_config_error_naming_the_kind() {
        let err = FaultPlan::parse(
            "{\"format\":\"wga-fault-plan\",\"version\":1,\"faults\":[\
             {\"hook\":\"journal.append\",\"kind\":\"latency\",\"at\":[0],\"ms\":25}]}",
        )
        .expect_err("latency is retired");
        assert!(matches!(err, WgaError::Config(_)), "{err:?}");
        assert!(
            err.to_string().contains("unknown kind \"latency\""),
            "{err}"
        );
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
        let codes = FaultKind::ALL.map(FaultKind::code);
        assert_eq!(codes, [0, 1, 3, 4], "wire codes outlive a retired kind");
    }

    #[test]
    fn probe_counts_occurrences_per_pair() {
        let inj = FaultInjector::new(plan(
            "{\"hook\":\"extend.tile\",\"kind\":\"error\",\"at\":[1]}",
        ));
        // Occurrence 0 misses, occurrence 1 hits — independently per pair.
        assert!(inj.probe(Hook::ExtendTile, 0).is_none());
        assert!(inj.probe(Hook::ExtendTile, 3).is_none());
        assert_eq!(inj.probe(Hook::ExtendTile, 0), Some(FaultKind::Error));
        assert_eq!(inj.probe(Hook::ExtendTile, 3), Some(FaultKind::Error));
        assert!(inj.probe(Hook::ExtendTile, 0).is_none());
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn gate_io_errors_then_clears() {
        let inj = FaultInjector::new(plan(
            "{\"hook\":\"journal.append\",\"kind\":\"error\",\"at\":[0],\"pair\":2}",
        ));
        let (two, one) = (Obs::off().with_pair(2), Obs::off().with_pair(1));
        assert!(inj.gate_io(Hook::JournalAppend, &two).is_err());
        assert!(inj.gate_io(Hook::JournalAppend, &two).is_ok());
        assert!(inj.gate_io(Hook::JournalAppend, &one).is_ok());
    }

    #[test]
    fn an_injected_error_at_a_compute_gate_fails_the_pair() {
        let inj = FaultInjector::new(plan(
            "{\"hook\":\"filter.batch\",\"kind\":\"error\",\"at\":[0]}",
        ));
        let obs = Obs::off().with_pair(5).with_injector(&inj);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            obs.fault_gate(Hook::FilterBatch);
        }));
        let payload = caught.expect_err("an injected error fails the pair");
        let message = crate::supervise::panic_message(payload.as_ref());
        assert_eq!(message, "injected fault: filter.batch pair 5: error");
        // Nothing is retried: the next occurrence passes untouched.
        obs.fault_gate(Hook::FilterBatch);
        assert_eq!(inj.injected(), 1);
    }
}
