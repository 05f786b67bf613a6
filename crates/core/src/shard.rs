//! Intra-pair sharding: the query ranges a strand is seeded and filtered
//! in, and the self-scheduled pool every fan-out in the crate runs on,
//! so one large chromosome pair no longer serialises a thread pool.
//!
//! The unit of work inside a pair is a *query range* ([`QueryRanges`]):
//! `--shard-size` bases rounded up to whole D-SOFT chunks, so every
//! diagonal band stays inside one range and the cuts depend on the
//! parameters alone — not on the thread count, not on the schedule. A
//! range is seeded, its hits are filtered, and only the survivors
//! outlive it: no schedule holds a strand's hit list (DESIGN.md, "Seed →
//! filter streaming"). One thread walks the ranges in a plain loop; the
//! barrier schedule hands them to [`run_sharded`], whose workers claim
//! indices off a shared cursor in ascending position order, each with
//! its own D-SOFT scratch and filter engine; the dataflow producer seeds
//! them one after another and queues each range's hits for the filter
//! pool. Neither the seed table (one thread's count, scatter and sort)
//! nor the extension is sharded: whether an anchor is extended at all
//! depends on what the better-scoring anchors before it absorbed
//! (EXPERIMENTS.md, "Speculative-extension waste").
//!
//! # Determinism and fault containment
//!
//! Sharding never reaches canonical output: survivors are put back in
//! hit order before the extension sees them, whatever range size cut
//! them. A panic inside any shard worker is caught, mapped to the
//! lowest-failing-shard message deterministically, and re-raised on the
//! calling thread via [`resume_unwind`] — exactly where the serial code
//! would have panicked — so pair-level supervision (retry, `Failed`
//! escalation) composes unchanged with shard-level parallelism.

use crate::supervise::panic_message;
use crate::sync::Mutex;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The chunk-aligned ranges one query strand is seeded and filtered in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueryRanges {
    /// Bases per range: `shard_bases` rounded up to whole D-SOFT chunks.
    size: usize,
    /// Query length.
    len: usize,
}

impl QueryRanges {
    pub(crate) fn new(shard_bases: usize, chunk_size: usize, len: usize) -> QueryRanges {
        let chunk = chunk_size.max(1);
        let size = shard_bases.max(1).div_ceil(chunk).saturating_mul(chunk);
        QueryRanges { size, len }
    }

    /// Number of ranges; none for an empty query.
    pub(crate) fn count(&self) -> usize {
        self.len.div_ceil(self.size)
    }

    /// Range `idx`, the last one cut short at the query's end.
    pub(crate) fn get(&self, idx: usize) -> Range<usize> {
        let start = idx.saturating_mul(self.size).min(self.len);
        start..start.saturating_add(self.size).min(self.len)
    }

    /// The range holding query position `pos`.
    pub(crate) fn index_of(&self, pos: usize) -> usize {
        pos / self.size
    }
}

/// Runs `work(0..count)` across up to `threads` workers claiming shard
/// indices off a shared cursor, returning results in index order. Each
/// worker (the calling thread, at one thread) makes itself one `state`
/// and hands it to every shard it claims.
///
/// Panics inside `work` are caught per shard; after the pool drains,
/// the lowest-indexed failure is re-raised on the calling thread (claims
/// follow the monotonic cursor, so a deterministic panic in shard *i*
/// always reports shard *i*'s message regardless of interleaving).
pub(crate) fn run_sharded<S, T>(
    count: usize,
    threads: usize,
    state: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T>
where
    T: Send,
{
    if threads <= 1 || count <= 1 {
        let mut state = state();
        return (0..count).map(|idx| work(&mut state, idx)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<T, String>>>> =
        (0..count).map(|_| Mutex::new(None)).collect();
    let workers = threads.min(count);
    std::thread::scope(|scope| {
        let pool: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = state();
                    while !stop.load(Ordering::Relaxed) {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= count {
                            break;
                        }
                        let outcome = catch_unwind(AssertUnwindSafe(|| work(&mut state, idx)))
                            .map_err(|payload| panic_message(payload.as_ref()));
                        if outcome.is_err() {
                            stop.store(true, Ordering::Relaxed);
                        }
                        *slots[idx].lock() = Some(outcome);
                    }
                })
            })
            .collect();
        // Joined by hand so a worker that died outside `catch_unwind`
        // is an `Err` here, not a panic out of the scope; the shard it
        // was holding is the empty slot reported below.
        for worker in pool {
            let _ = worker.join();
        }
    });
    let mut values = Vec::with_capacity(count);
    for slot in slots {
        match slot.into_inner() {
            Some(Ok(value)) => values.push(value),
            Some(Err(message)) => resume_unwind(Box::new(message)),
            // Unclaimed shards are a suffix left behind by the stop
            // flag; the failure that set it sits at a lower index and
            // was re-raised above — reaching here means a worker died
            // outside `catch_unwind`, which still must escalate.
            None => resume_unwind(Box::new(
                "sharded worker vanished before completing".to_string(),
            )),
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_ranges_cover_and_align() {
        for (len, shard, chunk) in
            [(100_000, 2048, 128), (5_000, 2048, 1), (129, 1, 64), (0, 2048, 128), (4096, 2048, 128)]
        {
            let ranges = QueryRanges::new(shard, chunk, len);
            let mut expect = 0usize;
            for idx in 0..ranges.count() {
                let r = ranges.get(idx);
                assert_eq!(r.start, expect, "contiguous");
                assert!(r.end > r.start, "non-empty");
                assert_eq!(r.start % chunk, 0, "aligned cut");
                if r.end != len {
                    assert!(r.end - r.start >= shard, "respects floor");
                }
                assert_eq!(ranges.index_of(r.start), idx);
                assert_eq!(ranges.index_of(r.end - 1), idx);
                expect = r.end;
            }
            assert_eq!(expect, len, "covers 0..len");
        }
    }

    #[test]
    fn run_sharded_matches_serial_map() {
        let squares: Vec<usize> = run_sharded(37, 4, || (), |(), i| i * i);
        assert_eq!(squares, (0..37).map(|i| i * i).collect::<Vec<_>>());
        let empty: Vec<usize> = run_sharded(0, 4, || (), |(), i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn run_sharded_makes_one_state_per_worker() {
        for threads in [1, 3] {
            let made = AtomicUsize::new(0);
            let state = || made.fetch_add(1, Ordering::Relaxed);
            let by: Vec<usize> = run_sharded(40, threads, state, |worker, _| *worker);
            let workers = made.load(Ordering::Relaxed);
            assert!((1..=threads).contains(&workers), "{workers} states at {threads} threads");
            assert!(by.iter().all(|&worker| worker < workers));
        }
    }

    #[test]
    fn run_sharded_reports_lowest_failing_shard() {
        for _ in 0..16 {
            let err = catch_unwind(AssertUnwindSafe(|| {
                run_sharded(64, 4, || (), |(), i| {
                    if i == 7 || i == 40 {
                        panic!("shard {i} poisoned");
                    }
                    i
                })
            }))
            .expect_err("must escalate");
            assert_eq!(panic_message(err.as_ref()), "shard 7 poisoned");
        }
    }
}
