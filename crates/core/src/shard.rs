//! Intra-pair sharding: position-space decomposition of D-SOFT and the
//! self-scheduled pool every fan-out in the crate runs on, so one large
//! chromosome pair no longer serialises a thread pool.
//!
//! Before this module the unit of scheduled work was a whole chromosome
//! pair: the D-SOFT walk ran on one thread, so a single 120 kbp pair
//! pinned one worker while the rest idled. Here D-SOFT binning is split
//! along the query into *shards* ([`seed::dsoft::dsoft_seeds_range`],
//! cuts aligned to `chunk_size` so every diagonal band stays inside one
//! shard) — independent work items a small self-scheduling pool
//! ([`run_sharded`]) claims off a shared cursor (smallest remaining work
//! first, since claims follow ascending position order). `--shard-size`
//! is the floor on a shard's bases. The seed table is *not* built from
//! shards: its count, scatter and sort are one thread's, and the words
//! the shards once extracted for them are now read straight from the
//! target (DESIGN.md, "Seed index").
//!
//! The barrier schedule fans its filter batches out through the same
//! [`run_sharded`]. Extension is *not* sharded either: whether an anchor is
//! extended at all depends on what the better-scoring anchors before it
//! absorbed, so workers running ahead of the commit loop mostly computed
//! extensions it then discarded (EXPERIMENTS.md, "Speculative-extension
//! waste").
//!
//! # Determinism and fault containment
//!
//! Sharding never reaches canonical output: merges reproduce the serial
//! result bit for bit (see the merge rules on the seed-crate
//! primitives). A panic inside any shard worker is caught, mapped to
//! the lowest-failing-shard message deterministically, and re-raised on
//! the calling thread via [`resume_unwind`] — exactly where the serial
//! code would have panicked — so pair-level supervision (retry,
//! `Failed` escalation) composes unchanged with shard-level
//! parallelism.

use crate::supervise::panic_message;
use crate::sync::Mutex;
use genome::Sequence;
use seed::dsoft::{dsoft_seeds, dsoft_seeds_range, merge_dsoft_results, DsoftParams, DsoftResult};
use seed::SeedTable;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Cuts `0..len` into contiguous shards for `threads` workers.
///
/// Targets ~4 shards per worker (self-scheduling slack so a slow shard
/// does not straggle the pool) but never below `min_bases` per shard
/// (tiny shards are all merge overhead), and rounds the shard size up to
/// a multiple of `align` — D-SOFT requires chunk-aligned cuts.
pub(crate) fn shard_ranges(
    len: usize,
    threads: usize,
    min_bases: usize,
    align: usize,
) -> Vec<Range<usize>> {
    let align = align.max(1);
    if len == 0 {
        return Vec::new();
    }
    let raw = len.div_ceil(threads.max(1) * 4).max(min_bases.max(1));
    let size = raw.div_ceil(align) * align;
    let mut ranges = Vec::new();
    let mut start = 0usize;
    while start < len {
        let end = start.saturating_add(size).min(len);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Runs `work(0..count)` across up to `threads` workers claiming shard
/// indices off a shared cursor, returning results in index order.
///
/// Panics inside `work` are caught per shard; after the pool drains,
/// the lowest-indexed failure is re-raised on the calling thread (claims
/// follow the monotonic cursor, so a deterministic panic in shard *i*
/// always reports shard *i*'s message regardless of interleaving).
pub(crate) fn run_sharded<T, F>(count: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || count <= 1 {
        return (0..count).map(work).collect();
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
                    while !stop.load(Ordering::Relaxed) {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= count {
                            break;
                        }
                        let outcome = catch_unwind(AssertUnwindSafe(|| work(idx)))
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

/// Sharded D-SOFT seeding over chunk-aligned query ranges; bit-identical
/// to [`dsoft_seeds`] for any thread count (cuts land on `chunk_size`
/// boundaries, so every diagonal band is confined to one shard).
pub(crate) fn sharded_dsoft(
    table: &SeedTable,
    query: &Sequence,
    dsoft: &DsoftParams,
    shard_bases: usize,
    threads: usize,
) -> DsoftResult {
    if threads <= 1 {
        return dsoft_seeds(table, query, dsoft);
    }
    let shards = shard_ranges(query.len(), threads, shard_bases, dsoft.chunk_size);
    if shards.len() <= 1 {
        return dsoft_seeds(table, query, dsoft);
    }
    let parts = run_sharded(shards.len(), threads, |i| {
        dsoft_seeds_range(table, query, dsoft, shards[i].clone())
    });
    merge_dsoft_results(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WgaParams;
    use crate::stages::timed_seed_table;
    use genome::evolve::{EvolutionParams, SyntheticPair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shard_ranges_cover_and_align() {
        for (len, threads, min, align) in
            [(100_000, 8, 2048, 128), (5_000, 2, 2048, 1), (129, 8, 1, 64), (0, 4, 2048, 128)]
        {
            let ranges = shard_ranges(len, threads, min, align);
            let mut expect = 0usize;
            for r in &ranges {
                assert_eq!(r.start, expect, "contiguous");
                assert!(r.end > r.start, "non-empty");
                if r.end != len {
                    assert_eq!(r.end % align.max(1), 0, "aligned cut");
                    assert!(r.end - r.start >= min.min(len), "respects floor");
                }
                expect = r.end;
            }
            assert_eq!(expect, len, "covers 0..len");
        }
    }

    #[test]
    fn run_sharded_matches_serial_map() {
        let squares: Vec<usize> = run_sharded(37, 4, |i| i * i);
        assert_eq!(squares, (0..37).map(|i| i * i).collect::<Vec<_>>());
        let empty: Vec<usize> = run_sharded(0, 4, |i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn run_sharded_reports_lowest_failing_shard() {
        for _ in 0..16 {
            let err = catch_unwind(AssertUnwindSafe(|| {
                run_sharded(64, 4, |i| {
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

    #[test]
    fn sharded_seeding_matches_serial() {
        let mut rng = StdRng::seed_from_u64(23);
        let pair = SyntheticPair::generate(30_000, &EvolutionParams::at_distance(0.2), &mut rng);
        let params = WgaParams::darwin_wga();
        let (table, _) = timed_seed_table(&params, &pair.target.sequence);
        let whole = dsoft_seeds(&table, &pair.query.sequence, &params.dsoft);
        // 512 bases a shard: many shards.
        let split = sharded_dsoft(&table, &pair.query.sequence, &params.dsoft, 512, 4);
        assert_eq!(whole, split);
    }
}
