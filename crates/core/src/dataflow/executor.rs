//! The streaming executor: the calling thread plans, and one worker
//! pool seeds, filters, extends and commits, over one bounded queue.
//!
//! # Topology
//!
//! ```text
//! calling thread (producer) ──filter_q──▶ worker pool
//!                            (bounded)    (N threads: seed, filter, extend, commit)
//! ```
//!
//! The producer walks the target rows one at a time, smallest first,
//! and builds each row's seed table once. For each pair it opens both
//! strands ([`seed_lane`]: the strand's `filter.batch` gate, and a
//! budgeted strand's whole walk, keeping what the shared clamp of
//! [`crate::budget`] lets through), registers the pair's cell with every
//! range of both strands outstanding, and queues one task per query
//! range into `filter_q`. A worker seeds its range ([`seed_range`]),
//! lets go of the row's table, filters the hits through the strand's
//! shared [`FilterContext`] and deposits the result into the pair's
//! cell, so no strand's hit list exists. The worker whose deposit
//! leaves no range outstanding extends the pair on the spot; a pair with
//! no range (an empty query) the producer finishes itself. Extension
//! runs the sequential anchor-absorption stage per pair — a pair is one
//! *stream*, so absorption state never crosses threads — and the thread
//! that finishes or fails a pair journals it ([`Journals::commit`]) under
//! the commit lock, in completion order (the pair is the checkpoint
//! unit, as in the one-thread loop).
//!
//! The producer waits until every task it has queued is seeded at two
//! points: before it builds a row's table, so one table is alive at a
//! time, and before it opens a reverse strand, so the strand's
//! `filter.batch` gate fires after the forward strand is seeded, as in
//! the one-thread loop.
//!
//! Only the queue, the pool, the commit lock and the pool's guard live
//! here. Every step a pair goes through — [`row_seed_table`],
//! [`seed_lane`], [`seed_range`], [`filter_batch`], [`fold_batches`],
//! [`extend_anchors`], [`Journals::commit`], [`assemble`] — is the
//! function the one-thread loop calls (see [`crate::stages`]).
//!
//! # Determinism
//!
//! Ranges execute and deposit in arbitrary order, each under its index;
//! [`fold_batches`] takes them in range order and puts their survivors
//! back in hit order, so anchors reach [`extend_anchors`] in the order
//! the one-thread loop produces. Commits store per-pair results by pair
//! id and the final report is assembled in canonical pair order, making
//! the output byte-identical to `--threads 1` at any thread count
//! (`tests/golden_report.rs` pins this).
//!
//! # Shutdown protocol (deadlock freedom)
//!
//! The calling thread owns `filter_q`'s one push half ([`PushHalf`],
//! neither `Send` nor `Sync`) and the pool holds only its pop side, so
//! no worker pushes into the queue it pops: that would not compile. No
//! thread holds the commit lock or a pair's cell across a queue
//! operation. The push half is moved into the producer and dropped as
//! it returns or unwinds, which closes `filter_q`; the first journal
//! error closes it too, once the commit lock is let go, so the producer
//! stops planning and the pool drains what is in flight. The last worker
//! to exit drops what `filter_q` still holds, which ends any wait of the
//! producer's, and a worker unwinding closes it. Both are a `Drop`
//! guard, so even a panic that escapes a worker's `catch_unwind` layers
//! — one out of a journal commit, say — releases the producer instead of
//! deadlocking the scope. If the OS refuses a worker thread, the calling
//! thread starts no more, plans nothing and drops the push half, so the
//! workers already started exit, and the run returns the refusal as an
//! error.

use crate::config::WgaParams;
use crate::obs::{strand_code, Obs};

/// `seq` codes on `queue.wait` spans, naming what a thread blocked on
/// (see `SpanName::QueueWait`). Code 2 named the retired extension
/// queue and code 3 the retired collector's queue; neither is reused,
/// so old traces read the same.
pub const QUEUE_SEED_PUSH: u64 = 0;
/// Worker blocked popping `filter_q`.
pub const QUEUE_FILTER_POP: u64 = 1;
/// Producer waiting for the range tasks it queued to seed
/// ([`wait_seeded`]).
pub const QUEUE_SEEDED: u64 = 4;
use crate::dataflow::queue::{self, BoundedQueue, PushHalf};
use crate::error::{panic_message, WgaError, WgaResult};
use crate::filter_engine::FilterContext;
use crate::genome_pipeline::{assemble, AssemblyReport, MatrixPair, PairMatrix};
use crate::journal::PairRecord;
use crate::report::{Strand, WgaReport};
use crate::shard::QueryRanges;
use crate::stages::{
    extend_anchors, filter_batch, fold_batches, row_seed_table, seed_lane, seed_range, BatchResult,
    Journals, LaneCost,
};
use crate::sync::Mutex;
use genome::Sequence;
use seed::dsoft::DsoftScratch;
use seed::{SeedHit, SeedTable};
use std::borrow::Cow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;

/// What the range tasks of one (pair, strand) share, up to the pair's
/// extension. The reverse strand owns its reverse-complemented query.
struct Stream<'a> {
    pair_id: usize,
    lane_idx: usize,
    strand: Strand,
    target: &'a Sequence,
    query: Cow<'a, Sequence>,
    ctx: FilterContext,
}

/// What the range tasks of one strand seed from, shared until the last
/// of them is seeded.
struct SeedSource {
    table: Arc<SeedTable>,
    ranges: QueryRanges,
    /// A budgeted strand's kept hits, grouped by range ([`seed_lane`]).
    kept: Option<Vec<SeedHit>>,
    /// Declared after the table, so dropped after it: once
    /// [`wait_seeded`] sees the last token go, the table is released.
    _token: Sender<()>,
}

/// One query range of one strand: the pool's only task.
struct RangeTask<'a> {
    stream: Arc<Stream<'a>>,
    source: Arc<SeedSource>,
    idx: usize,
}

/// One (pair, strand) stream opened by the producer.
struct Lane<'a> {
    stream: Arc<Stream<'a>>,
    /// What opening the strand cost: a budgeted strand's walk and clamps.
    opened: LaneCost,
    /// Range results in the order they were deposited.
    batches: Vec<BatchResult>,
}

/// All filter-stage state of one chromosome pair in flight.
struct PairJob<'a> {
    pair_id: usize,
    lanes: Vec<Lane<'a>>,
    /// Range tasks not yet deposited, both strands' counted up front.
    outstanding: usize,
}

/// Journals one finished or failed pair: the calling thread's commit
/// lock over the journals, every pair's record by pair id and the first
/// journal error, taken by whichever thread finishes the pair.
type Commit<'c> = dyn Fn(usize, Result<WgaReport, String>) + Sync + 'c;

/// Decrements the pool's live-worker count on drop. The last worker out
/// drops every task left in `filter_q`, and a worker unwinding closes
/// it, so the shutdown cascade survives even a panic that escapes a
/// worker's `catch_unwind`.
struct PoolGuard<'q, 'a> {
    alive: &'q AtomicUsize,
    filter_q: &'q BoundedQueue<RangeTask<'a>>,
}

impl Drop for PoolGuard<'_, '_> {
    fn drop(&mut self) {
        let last = self.alive.fetch_sub(1, Ordering::AcqRel) == 1;
        if last || std::thread::panicking() {
            self.filter_q.close();
        }
        if last {
            while self.filter_q.pop().is_some() {}
        }
    }
}

/// Runs every pair of `matrix` through the streaming executor, a pool of
/// `threads` workers fed through a queue `queue_depth` deep. Called by
/// [`crate::genome_pipeline::align_matrix`] once parameters are
/// validated and the journals have replayed their pairs into `records`;
/// the producer skips those.
///
/// # Errors
///
/// The first journal error, or [`WgaError::Io`] if the OS refuses a
/// worker thread.
pub(crate) fn execute(
    params: &WgaParams,
    matrix: &PairMatrix<'_>,
    threads: usize,
    queue_depth: usize,
    records: Vec<Option<PairRecord>>,
    (journals, builds): (&mut Journals, &AtomicU64),
    obs: Obs<'_>,
) -> WgaResult<Vec<AssemblyReport>> {
    let resumed: Vec<bool> = records.iter().map(Option::is_some).collect();

    let (push_half, filter_q) = queue::bounded(queue_depth);
    let cells: Vec<Mutex<Option<PairJob<'_>>>> =
        matrix.pairs.iter().map(|_| Mutex::new(None)).collect();
    let cells = &cells[..];
    let alive = AtomicUsize::new(threads);
    let commits = Mutex::new((&mut *journals, records, None));
    let commit = |pair_id: usize, result| {
        let mut commits = commits.lock();
        let (journals, records, journal_err) = &mut *commits;
        let pair_obs = obs.with_pair(pair_id as u64);
        match journals.commit(matrix, pair_id, result, pair_obs) {
            Ok(record) => records[pair_id] = Some(record),
            Err(e) => {
                // The journal is broken: stop feeding the pipeline, drain
                // what's in flight, and surface the error after the scope
                // ends. The queue closes once the lock is let go.
                journal_err.get_or_insert(e);
                drop(commits);
                filter_q.close();
            }
        }
    };

    let (escaped, refused) = std::thread::scope(|scope| {
        let mut refused = None;
        let pool: Vec<_> = (0..threads)
            .map_while(|_| {
                let (filter_q, alive, commit) = (&filter_q, &alive, &commit);
                let work = move || worker(params, filter_q, cells, commit, alive, obs);
                let spawned = std::thread::Builder::new().spawn_scoped(scope, work);
                spawned.map_err(|error| refused = Some(error)).ok()
            })
            .collect();
        // The producer plans on this thread, unless the OS refused a
        // worker; however it ends, the push half goes, which closes the
        // queue and releases the pool.
        let produced = match refused {
            None => catch_unwind(AssertUnwindSafe(|| {
                produce(
                    params, matrix, &resumed, cells, push_half, &commit, builds, obs,
                )
            })),
            Some(_) => {
                drop(push_half);
                Ok(())
            }
        };
        let mut escaped = produced.err();
        // Every worker is joined by hand, so a panic that escaped its
        // containment layers arrives here as an `Err` instead of
        // unwinding out of the scope.
        for thread in pool {
            if let Err(payload) = thread.join() {
                escaped.get_or_insert(payload);
            }
        }
        (escaped, refused)
    });
    if let Some(payload) = escaped {
        // An executor bug or a panic out of a commit, not a pair failure;
        // surface it like the one-thread loop would.
        resume_unwind(payload);
    }
    if let Some(error) = refused {
        return Err(WgaError::io("starting a worker thread", error));
    }
    let (records, journal_err) = {
        let mut commits = commits.lock();
        (std::mem::take(&mut commits.1), commits.2.take())
    };
    if let Some(e) = journal_err {
        return Err(e);
    }

    // --- Deterministic assembly in canonical pair order -----------------
    let records = records
        .into_iter()
        .zip(&matrix.pairs)
        .map(|(record, pair)| {
            record.unwrap_or_else(|| {
                let dropped = "pair dropped: dataflow run aborted".to_string();
                PairRecord::failed(&pair.target.name, &pair.query.name, dropped)
            })
        });
    Ok(assemble(matrix, records, &resumed, journals))
}

/// The planning producer: dispatches target genomes smallest remaining
/// work first, a genome's rows the same way and a row's pairs smallest
/// first (ties broken by pair id, so uniform matrices keep the old FIFO
/// walk), and plans each non-resumed pair's range tasks under panic
/// isolation ([`plan_pair`]), blocking on the queue's backpressure. A
/// row's pairs go back to back, so one row's seed table is alive at a
/// time, across every block of the row; a genome's rows go back to
/// back, so only its blocks' journals are open. Dispatch order never
/// reaches canonical output: the results are assembled in pair-id
/// order, and fault occurrences are counted per `(hook, pair)`. A pair
/// it finishes or fails it hands to `commit` itself. It owns the queue's
/// push half, so the queue closes as it returns or unwinds.
#[allow(clippy::too_many_arguments)]
fn produce<'a>(
    params: &WgaParams,
    matrix: &'a PairMatrix<'a>,
    resumed: &[bool],
    cells: &[Mutex<Option<PairJob<'a>>>],
    filter_q: PushHalf<RangeTask<'a>>,
    commit: &Commit<'_>,
    builds: &AtomicU64,
    obs: Obs<'_>,
) {
    // Small work drains first so the long tail of one big pair overlaps
    // the rest of the matrix instead of serialising ahead of it (a pair's
    // work estimate is the bases on both sides — every pipeline stage
    // scales with it; a row's or a genome's, the sum over its pairs left
    // to run). Rows are never interleaved: that would hold several rows'
    // tables.
    let mut order: Vec<usize> = (0..matrix.pairs.len())
        .filter(|&pair_id| !resumed[pair_id])
        .collect();
    let estimate = |pair_id: usize| {
        let pair = &matrix.pairs[pair_id];
        pair.target.sequence.len() + pair.query.sequence.len()
    };
    let mut row_estimate: Vec<usize> = vec![0; matrix.rows.len()];
    let mut genome_estimate: Vec<usize> = vec![0; matrix.checkpoints.len()];
    for &pair_id in &order {
        let pair = &matrix.pairs[pair_id];
        row_estimate[pair.row] += estimate(pair_id);
        genome_estimate[pair.genome] += estimate(pair_id);
    }
    order.sort_by_key(|&pair_id| {
        let MatrixPair { genome, row, .. } = matrix.pairs[pair_id];
        let genome_key = (genome_estimate[genome], genome);
        let row_key = (row_estimate[row], row);
        (genome_key, row_key, estimate(pair_id), pair_id)
    });

    // The current row's seed table: built lazily at the row's first
    // dispatched pair (a fully-journaled row never builds), and built
    // for the next row only once the range tasks holding this one have
    // all seeded.
    let mut row_table: Option<(usize, Result<Arc<SeedTable>, String>)> = None;
    let mut seeding = mpsc::channel();

    for pair_id in order {
        let pair = &matrix.pairs[pair_id];
        let pair_obs = obs.with_pair(pair_id as u64);
        if row_table.as_ref().is_some_and(|&(row, _)| row != pair.row) {
            row_table = None;
            wait_seeded(&mut seeding, pair_obs);
        }
        // Queues one task: `false` means the queue closed under us
        // (shutdown) and the producer is done.
        let push = |task: RangeTask<'a>| -> bool {
            let mut wait_buf = obs.buffer();
            let wait_timer = wait_buf.start();
            if filter_q.push(task).is_err() {
                return false;
            }
            wait_buf.finish_wait(wait_timer, pair_id as u64, QUEUE_SEED_PUSH);
            true
        };
        let (target, query) = (&pair.target.sequence, &pair.query.sequence);
        let ranges = QueryRanges::new(params.shard_bases, params.dsoft.chunk_size, query.len());
        let strands = 1 + usize::from(params.both_strands);
        *cells[pair_id].lock() = Some(PairJob {
            pair_id,
            lanes: Vec::new(),
            outstanding: strands * ranges.count(),
        });
        let planned = catch_unwind(AssertUnwindSafe(|| {
            let (_, table) = row_table.get_or_insert_with(|| {
                let table = row_seed_table(params, target, pair.row, builds, pair_obs);
                (pair.row, table)
            });
            let table = table.as_ref().map_err(String::clone)?;
            let pair = (target, query, ranges);
            Ok(plan_pair(
                params,
                table,
                pair,
                pair_id,
                cells,
                &mut seeding,
                push,
                pair_obs,
            ))
        }))
        .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())));
        // Commits stay outside the containment: a panic out of one is
        // the run's, not the pair's.
        match planned {
            Ok(false) => break,
            // Nothing to filter or extend: the pair is finished here.
            Ok(true) if ranges.count() == 0 => {
                if let Some(job) = cells[pair_id].lock().take() {
                    finish_pair(params, job, commit, obs);
                }
            }
            Ok(true) => {}
            Err(error) => fail_pair(cells, pair_id, error, commit),
        }
    }
}

/// Blocks until every range task queued so far has seeded or been
/// dropped, under a `queue.wait` span (code [`QUEUE_SEEDED`]): each
/// task's [`SeedSource`] holds a clone of the sender and nothing is ever
/// sent, so the receive returns once the last clone is gone. The tasks
/// to come get a new channel.
fn wait_seeded(seeding: &mut (Sender<()>, Receiver<()>), obs: Obs<'_>) {
    let mut buf = obs.buffer();
    let wait_timer = buf.start();
    let (token, seeded) = std::mem::replace(seeding, mpsc::channel());
    drop(token);
    let _ = seeded.recv();
    buf.finish_wait(wait_timer, obs.pair(), QUEUE_SEEDED);
}

/// Plans one pair's range tasks: opens each strand ([`seed_lane`]: its
/// chaos gate, and a budgeted strand's walk, charged for the tiles the
/// forward strand kept), files its lane in the pair's cell and queues a
/// task per query range through `push`. `false` is `push`'s
/// (shutdown). On a panic (a `filter.batch` gate's injection, say) the
/// caller fails the pair: workers find its cell empty and drop their
/// deposits.
#[allow(clippy::too_many_arguments)]
fn plan_pair<'a>(
    params: &WgaParams,
    table: &Arc<SeedTable>,
    (target, query, ranges): (&'a Sequence, &'a Sequence, QueryRanges),
    pair_id: usize,
    cells: &[Mutex<Option<PairJob<'a>>>],
    seeding: &mut (Sender<()>, Receiver<()>),
    push: impl Fn(RangeTask<'a>) -> bool,
    obs: Obs<'_>,
) -> bool {
    let mut strands = vec![(Cow::Borrowed(query), Strand::Forward)];
    if params.both_strands {
        strands.push((Cow::Owned(query.reverse_complement()), Strand::Reverse));
    }
    let mut tiles_kept = 0u64;
    for (lane_idx, (query, strand)) in strands.into_iter().enumerate() {
        if lane_idx > 0 {
            wait_seeded(seeding, obs);
        }
        let (opened, kept) = seed_lane(params, table, &query, strand, ranges, tiles_kept, obs);
        tiles_kept += kept.as_ref().map_or(0, |kept| kept.len() as u64);
        let ctx = FilterContext::new(params, target, &query);
        let stream = Arc::new(Stream {
            pair_id,
            lane_idx,
            strand,
            target,
            query,
            ctx,
        });
        if let Some(job) = cells[pair_id].lock().as_mut() {
            let (stream, batches) = (Arc::clone(&stream), Vec::new());
            job.lanes.push(Lane {
                stream,
                opened,
                batches,
            });
        }
        let (table, _token) = (Arc::clone(table), seeding.0.clone());
        let source = Arc::new(SeedSource {
            table,
            ranges,
            kept,
            _token,
        });
        for idx in 0..ranges.count() {
            let (stream, source) = (Arc::clone(&stream), Arc::clone(&source));
            if !push(RangeTask {
                stream,
                source,
                idx,
            }) {
                return false;
            }
        }
    }
    true
}

/// One pool worker: pops range tasks off `filter_q` until it closes,
/// and runs each through the one-thread loop's step — [`seed_range`],
/// then [`filter_batch`] — letting go of the row's table in between,
/// then deposits the result in the pair's cell; a panic in either step
/// fails the pair. Its D-SOFT scratch
/// serves every range it seeds, and a run of tasks of one strand shares
/// one engine, so its DP scratch is drawn per worker and strand. The
/// worker whose deposit completes a pair extends and commits it
/// ([`finish_pair`]). The last of the pool's `alive` workers out —
/// normally or unwinding — empties `filter_q`.
fn worker<'a>(
    params: &WgaParams,
    filter_q: &BoundedQueue<RangeTask<'a>>,
    cells: &[Mutex<Option<PairJob<'a>>>],
    commit: &Commit<'_>,
    alive: &AtomicUsize,
    obs: Obs<'_>,
) {
    let _guard = PoolGuard { alive, filter_q };
    let mut wait_buf = obs.buffer();
    // The next task, its wait a `queue.wait` span.
    let mut pop = || {
        let wait_timer = wait_buf.start();
        let task = filter_q.pop()?;
        wait_buf.finish_wait(wait_timer, task.stream.pair_id as u64, QUEUE_FILTER_POP);
        Some(task)
    };
    let mut scratch = DsoftScratch::default();
    let mut next = pop();
    while let Some(first) = next.take() {
        let stream = Arc::clone(&first.stream);
        let mut engine = stream.ctx.engine();
        let pair_obs = obs.with_pair(stream.pair_id as u64);
        let mut same_stream = Some(first);
        while let Some(RangeTask { source, idx, .. }) = same_stream.take() {
            let filtered = catch_unwind(AssertUnwindSafe(|| {
                let (cost, hits) = seed_range(
                    params,
                    &source.table,
                    &stream.query,
                    stream.strand,
                    source.ranges,
                    idx,
                    source.kept.as_deref(),
                    &mut scratch,
                    pair_obs,
                );
                // Before filtering: the row's table goes as its last
                // range is seeded.
                drop(source);
                filter_batch(
                    params,
                    &mut engine,
                    stream.target,
                    &stream.query,
                    &hits,
                    cost,
                    strand_code(stream.strand),
                    idx,
                    pair_obs,
                )
            }));
            match filtered {
                Ok(result) => {
                    if let Some(job) = deposit(cells, &stream, result) {
                        finish_pair(params, job, commit, obs);
                    }
                }
                // A seeding or filtering panic fails the pair, as in the
                // one-thread loop.
                Err(payload) => fail_pair(
                    cells,
                    stream.pair_id,
                    panic_message(payload.as_ref()),
                    commit,
                ),
            }
            next = pop();
            match next.take() {
                Some(task) if Arc::ptr_eq(&task.stream, &stream) => same_stream = Some(task),
                other => next = other,
            }
        }
    }
}

/// Deposits a range's result in its pair's cell (nothing, if the pair
/// failed) and returns the job if that left no range outstanding: the
/// pair is complete, and the caller extends it.
fn deposit<'a>(
    cells: &[Mutex<Option<PairJob<'a>>>],
    stream: &Stream<'a>,
    result: BatchResult,
) -> Option<PairJob<'a>> {
    let mut slot = cells[stream.pair_id].lock();
    let job = slot.as_mut()?;
    job.lanes[stream.lane_idx].batches.push(result);
    job.outstanding -= 1;
    if job.outstanding == 0 {
        slot.take()
    } else {
        None
    }
}

/// Fails a pair: empties its cell, so the pool drops its deposits, and
/// commits `error`, once however many of its steps fail.
fn fail_pair(
    cells: &[Mutex<Option<PairJob<'_>>>],
    pair_id: usize,
    error: String,
    commit: &Commit<'_>,
) {
    if cells[pair_id].lock().take().is_some() {
        commit(pair_id, Err(error));
    }
}

/// Extends a complete pair under panic containment and commits the
/// outcome.
fn finish_pair(params: &WgaParams, job: PairJob<'_>, commit: &Commit<'_>, obs: Obs<'_>) {
    let pair_id = job.pair_id;
    let pair_obs = obs.with_pair(pair_id as u64);
    let result = catch_unwind(AssertUnwindSafe(|| extend_pair(params, job, pair_obs)))
        .map_err(|payload| panic_message(payload.as_ref()));
    commit(pair_id, result);
}

/// The extension stage of one pair: folds each lane's deposited batches
/// and runs the anchor-absorption extension per lane, through the same
/// accounting as every other schedule.
fn extend_pair(params: &WgaParams, job: PairJob<'_>, obs: Obs<'_>) -> WgaReport {
    let mut report = WgaReport::default();
    for Lane {
        stream,
        opened,
        batches,
    } in job.lanes
    {
        let anchors = fold_batches(opened, batches, &mut report);
        let (target, query, strand) = (stream.target, &stream.query, stream.strand);
        extend_anchors(params, target, query, strand, anchors, &mut report, obs);
    }
    report
        .alignments
        .sort_by_key(|a| std::cmp::Reverse(a.alignment.score));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::QUEUE_DEPTH;
    use crate::genome_pipeline::{align_matrix, AlignOptions};
    use crate::obs::{SpanName, TraceRecorder, STRAND_FWD};
    use crate::report::RunOutcome;
    use genome::assembly::Assembly;
    use genome::Base;

    /// `len` pseudo-random bases, the same for the same `seed`.
    fn bases(len: usize, seed: u64) -> Sequence {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Base::from_code((x >> 60) as u8 & 3)
            })
            .collect()
    }

    /// Rows of 2 000 and 1 000 bases against query chromosomes of 100
    /// and 5 000, in two blocks with one target: smallest pair first
    /// would run (1,0), (0,0), (1,1), (0,1) and build a row's table
    /// again or hold both. The producer walks a row's pairs of every
    /// block back to back, the smaller row first: the trace's
    /// `seed.table` spans name row 1, then row 0, once each. That two
    /// rows' tables are never live together is `tests/alloc_rows.rs`'s
    /// to show, under a counting allocator.
    #[test]
    fn the_producer_builds_the_smaller_row_first_and_each_row_once() {
        let params = WgaParams::darwin_wga();
        let mut target = Assembly::new("t");
        target.push("t0", bases(2_000, 1));
        target.push("t1", bases(1_000, 2));
        let mut query = Assembly::new("q");
        query.push("q0", bases(100, 3));
        query.push("q1", bases(5_000, 4));
        let mut other = Assembly::new("r");
        other.push("r0", bases(300, 5));
        let matrix = PairMatrix::new([(&target, &query, None), (&target, &other, None)]);
        assert_eq!(matrix.rows, [vec![0, 1, 4], vec![2, 3, 5]]);
        let options = AlignOptions {
            threads: 2,
            ..AlignOptions::default()
        };
        let recorder = TraceRecorder::new();
        let obs = Obs::new(&recorder);
        let (blocks, tables_built) =
            align_matrix(&params, &matrix, &options, QUEUE_DEPTH, obs).expect("the run completes");
        assert_eq!(
            blocks
                .iter()
                .map(AssemblyReport::failed_pairs)
                .sum::<usize>(),
            0
        );
        assert_eq!(
            (blocks[0].pairs.len(), blocks[1].pairs.len(), tables_built),
            (4, 2, 2)
        );
        let spans = recorder.spans();
        let rows: Vec<u64> = spans
            .iter()
            .filter(|span| span.name == SpanName::SeedTable)
            .map(|span| span.seq)
            .collect();
        assert_eq!(rows, [1, 0], "the smaller row first, each built once");
    }

    /// A panic in a filter batch fails its pair on every schedule, and a
    /// failed pair is rerun, never replayed: the same poisoned hit list,
    /// cut into the same query ranges, panics in range 4's batch whether
    /// the ranges run inline under the one-thread loop's pair-level
    /// containment or as the dataflow pool's range tasks (which slice it
    /// as a budget's kept list). Either way the pair is `Failed` and not
    /// journaled, and a rerun on the same checkpoint computes it.
    #[test]
    fn panicking_batch_fails_its_pair_on_every_schedule() {
        let core = "ACGGTCAGTCGATTGCAGTCCATGGACTGATC".repeat(40); // 1280 bp
        let t: Sequence = core.parse().unwrap();
        let q = t.clone();
        let mut params = WgaParams::darwin_wga();
        params.shard_bases = 256;
        let ranges = QueryRanges::new(params.shard_bases, params.dsoft.chunk_size, q.len());
        assert_eq!(ranges.count(), 5);
        // A hit every 320 bp — ranges 0, 1, 2 and 3 — then one in range 4
        // that panics its batch.
        let mut hits: Vec<SeedHit> = (0..4).map(|i| SeedHit::new(i * 320, i * 320)).collect();
        hits.push(SeedHit::new(u32::MAX as usize, 1100));
        let in_range = |hits: &[SeedHit], idx: usize| -> Vec<SeedHit> {
            let of = |hit: &&SeedHit| ranges.index_of(hit.query_pos as usize) == idx;
            hits.iter().filter(of).copied().collect()
        };
        let stream = Arc::new(Stream {
            pair_id: 0,
            lane_idx: 0,
            strand: Strand::Forward,
            target: &t,
            query: Cow::Borrowed(&q),
            ctx: FilterContext::new(&params, &t, &q),
        });
        let job = |batches, outstanding| PairJob {
            pair_id: 0,
            lanes: vec![Lane {
                stream: Arc::clone(&stream),
                opened: LaneCost::default(),
                batches,
            }],
            outstanding,
        };

        let inline = |hits: &[SeedHit]| {
            catch_unwind(AssertUnwindSafe(|| {
                let mut engine = stream.ctx.engine();
                let batches = (0..ranges.count()).map(|i| {
                    let batch = in_range(hits, i);
                    filter_batch(
                        &params,
                        &mut engine,
                        &t,
                        &q,
                        &batch,
                        LaneCost::default(),
                        STRAND_FWD,
                        i,
                        Obs::off(),
                    )
                });
                extend_pair(&params, job(batches.collect(), 0), Obs::off())
            }))
            .map_err(|payload| panic_message(payload.as_ref()))
        };
        let pooled = |hits: &[SeedHit]| {
            let (push_half, filter_q) = queue::bounded(2);
            let cells = [Mutex::new(Some(job(Vec::new(), ranges.count())))];
            let source = Arc::new(SeedSource {
                table: Arc::new(SeedTable::build(&t, &params.seed_pattern, 1)),
                ranges,
                kept: Some(hits.to_vec()),
                _token: mpsc::channel().0,
            });
            let alive = AtomicUsize::new(2);
            let committed = Mutex::new(Vec::new());
            let commit = |pair_id: usize, result: Result<WgaReport, String>| {
                committed.lock().push((pair_id, result));
            };
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let obs = Obs::off();
                        worker(&params, &filter_q, &cells, &commit, &alive, obs)
                    });
                }
                for idx in 0..ranges.count() {
                    let (stream, source) = (Arc::clone(&stream), Arc::clone(&source));
                    let task = RangeTask {
                        stream,
                        source,
                        idx,
                    };
                    assert!(push_half.push(task).is_ok());
                }
                drop(push_half);
            });
            let mut committed = committed.lock();
            let (pair_id, result) = committed.pop().expect("the pair is committed");
            assert!(committed.is_empty() && pair_id == 0, "one commit");
            result
        };

        let clean = inline(&hits[..4]).expect("a clean pair completes");
        assert!(clean.events.is_empty());
        assert!(!clean.alignments.is_empty());
        let mut target = Assembly::new("t");
        target.push("t0", t.clone());
        let mut query = Assembly::new("q");
        query.push("q0", q.clone());
        for (schedule, threads, result) in [
            ("inline", 1, inline(&hits)),
            ("dataflow pool", 2, pooled(&hits)),
        ] {
            let error = result.expect_err(schedule);
            assert!(error.contains("poisoned"), "{schedule}: {error}");
            let path = std::env::temp_dir().join(format!(
                "wga-poisoned-batch-{}-{threads}.jsonl",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            let matrix = PairMatrix::new([(&target, &query, Some(path.clone()))]);
            let (mut journals, replayed) = Journals::replay(&params, &matrix, Obs::off()).unwrap();
            assert_eq!(replayed, [None]);
            let record = journals.commit(&matrix, 0, Err(error), Obs::off()).unwrap();
            assert!(
                matches!(record.outcome, RunOutcome::Failed { .. }),
                "{schedule}"
            );
            let lines = |path| std::fs::read_to_string(path).unwrap().lines().count();
            assert_eq!(lines(&path), 1, "{schedule}: only the header is journaled");
            // The rerun computes the pair, which is then journaled.
            let options = AlignOptions {
                threads,
                ..AlignOptions::default()
            };
            let (blocks, _) = align_matrix(&params, &matrix, &options, QUEUE_DEPTH, Obs::off())
                .expect("the rerun completes");
            assert_eq!(blocks[0].resumed_pairs, 0, "{schedule}: nothing replays");
            assert_eq!(blocks[0].failed_pairs(), 0, "{schedule}");
            assert_eq!(lines(&path), 2, "{schedule}: the rerun journals the pair");
            let _ = std::fs::remove_file(&path);
        }
    }
}
