//! The streaming executor: a planning producer feeds one worker pool
//! over bounded queues.
//!
//! # Topology
//!
//! ```text
//! producer ──filter_q──▶ workers ──done_q──▶ collector
//! (1 thread)  (bounded)  (N threads) (bounded) (main thread)
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
//! *stream*, so absorption state never crosses threads — and the
//! finished [`WgaReport`] goes into `done_q`, where the collector
//! journals it (the pair is the checkpoint unit, as in the one-thread
//! loop).
//!
//! The producer waits until every task it has queued is seeded at two
//! points: before it builds a row's table, so one table is alive at a
//! time, and before it opens a reverse strand, so the strand's
//! `filter.batch` gate fires after the forward strand is seeded, as in
//! the one-thread loop.
//!
//! Only the queues, the pool and its guards live here.
//! Every step a pair goes through — [`row_seed_table`], [`seed_lane`],
//! [`seed_range`], [`filter_batch`], [`fold_batches`],
//! [`extend_anchors`], [`Journals::commit`], [`assemble`] — is the
//! function the one-thread loop calls (see [`crate::stages`]).
//!
//! # Determinism
//!
//! Ranges execute and deposit in arbitrary order, each under its index;
//! [`fold_batches`] takes them in range order and puts their survivors
//! back in hit order, so anchors reach [`extend_anchors`] in the order
//! the one-thread loop produces. The collector stores per-pair results
//! by pair id and the final report is assembled in canonical pair
//! order, making the output byte-identical to `--threads 1` at any
//! thread count (`tests/golden_report.rs` pins this).
//!
//! # Shutdown protocol (deadlock freedom)
//!
//! Queues form an acyclic chain — no worker pushes into the queue it
//! pops — and each stage closes its *downstream* queue when it
//! finishes: the producer closes `filter_q` when all pairs are planned;
//! the last worker to exit closes `done_q`, which ends the collector
//! loop, and drops what `filter_q` still holds, which ends any wait of
//! the producer's. The close-on-exit is a `Drop` guard, so even a worker
//! panicking outside its `catch_unwind` layers still releases the
//! producer and the collector instead of deadlocking the scope; and the
//! collector closes both queues when it exits, so a panic out of a
//! journal commit releases the producer and the pool the same way.

use crate::config::WgaParams;
use crate::dataflow::metrics::{ExecutorMetrics, StageMeter};
use crate::obs::{strand_code, Obs, SpanBuf, SpanName, STRAND_NA};

/// `seq` codes on `queue.wait` spans, naming the queue a thread blocked
/// on (see `SpanName::QueueWait`). Code 2 named the retired extension
/// queue and is not reused, so old traces read the same.
pub const QUEUE_SEED_PUSH: u64 = 0;
/// Worker blocked popping `filter_q`.
pub const QUEUE_FILTER_POP: u64 = 1;
/// Collector blocked popping `done_q`.
pub const QUEUE_DONE_POP: u64 = 3;
use crate::dataflow::queue::BoundedQueue;
use crate::error::{WgaError, WgaResult};
use crate::faultsim::Hook;
use crate::filter_engine::FilterContext;
use crate::genome_pipeline::{assemble, AlignOptions, AssemblyReport, MatrixPair, PairMatrix};
use crate::journal::PairRecord;
use crate::report::{Strand, WgaReport};
use crate::shard::QueryRanges;
use crate::stages::{
    extend_anchors, filter_batch, fold_batches, row_seed_table, seed_lane, seed_range, BatchResult,
    Journals, SeededLane, TableBuilds,
};
use crate::supervise::{self, panic_message};
use crate::sync::Mutex;
use genome::Sequence;
use seed::dsoft::DsoftScratch;
use seed::{SeedHit, SeedTable};
use std::borrow::Cow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    seeded: SeededLane,
    /// [`FilterContext`] build wall-clock (counted as filtering time,
    /// matching the one-thread loop's accounting).
    ctx_time: Duration,
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

/// Terminal result of one pair, headed for the collector.
struct PairDone {
    pair_id: usize,
    result: Result<WgaReport, String>,
}

/// Decrements the pool's live-worker count on drop. The last worker out
/// closes `done_q` and drops every task left in `filter_q`, so the
/// shutdown cascade survives even a panic that escapes a worker's
/// `catch_unwind`.
struct PoolGuard<'q, 'a> {
    alive: &'q AtomicUsize,
    filter_q: &'q BoundedQueue<RangeTask<'a>>,
    done_q: &'q BoundedQueue<PairDone>,
}

impl Drop for PoolGuard<'_, '_> {
    fn drop(&mut self) {
        if self.alive.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.filter_q.close();
            while self.filter_q.pop().is_some() {}
            self.done_q.close();
        }
    }
}

/// Closes both queues when the collector exits, however it exits: a
/// panic out of a commit (an injected `journal.append` one, say) then
/// releases the producer and the pool, whose joins the scope would
/// otherwise wait on forever. On a clean exit both are closed already.
struct CloseOnExit<'q, 'a>(&'q BoundedQueue<RangeTask<'a>>, &'q BoundedQueue<PairDone>);

impl Drop for CloseOnExit<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
        self.1.close();
    }
}

/// Runs every pair of `matrix` through the streaming executor. Called
/// by [`crate::genome_pipeline::align_matrix`] once parameters are
/// validated and the journals have replayed their pairs into `records`;
/// the producer skips those.
pub(crate) fn execute(
    params: &WgaParams,
    matrix: &PairMatrix<'_>,
    options: &AlignOptions,
    mut records: Vec<Option<PairRecord>>,
    (journals, builds): (&mut Journals, &TableBuilds),
    obs: Obs<'_>,
) -> WgaResult<Vec<AssemblyReport>> {
    let threads = options.threads;
    let queue_depth = options.queue_depth;
    let resumed: Vec<bool> = records.iter().map(Option::is_some).collect();

    let filter_q: BoundedQueue<RangeTask<'_>> = BoundedQueue::new(queue_depth);
    let done_q: BoundedQueue<PairDone> = BoundedQueue::new(queue_depth);
    let cells: Vec<Mutex<Option<PairJob<'_>>>> =
        matrix.pairs.iter().map(|_| Mutex::new(None)).collect();
    let cells = &cells[..];

    let seed_meter = StageMeter::default();
    let filter_meter = StageMeter::default();
    let alive = AtomicUsize::new(threads);

    let (journal_err, escaped) = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        // --- Planning producer -----------------------------------------
        {
            let (filter_q, done_q) = (&filter_q, &done_q);
            let (seed_meter, resumed) = (&seed_meter, &resumed);
            workers.push(scope.spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    produce(
                        params, matrix, resumed, cells, filter_q, done_q, seed_meter, builds, obs,
                    )
                }));
                // Whatever happened, release the pool.
                filter_q.close();
            }));
        }

        // --- Worker pool ----------------------------------------------
        for _ in 0..threads {
            let (filter_q, done_q) = (&filter_q, &done_q);
            let (filter_meter, alive) = (&filter_meter, &alive);
            workers.push(
                scope.spawn(move || {
                    worker(params, filter_q, done_q, cells, alive, filter_meter, obs)
                }),
            );
        }

        // --- Collector (this thread): journal + gather -----------------
        let _close = CloseOnExit(&filter_q, &done_q);
        let mut journal_err: Option<WgaError> = None;
        let mut collector_buf = obs.buffer();
        loop {
            let wait_timer = collector_buf.start();
            let Some(done) = done_q.pop() else { break };
            collector_buf.finish_for_pair(
                wait_timer,
                SpanName::QueueWait,
                done.pair_id as u64,
                STRAND_NA,
                QUEUE_DONE_POP,
                0,
                0,
            );
            let pair_obs = obs.with_pair(done.pair_id as u64);
            match journals.commit(matrix, done.pair_id, done.result, pair_obs) {
                Ok(record) => records[done.pair_id] = Some(record),
                Err(e) => {
                    // The journal is broken: stop feeding the pipeline,
                    // drain what's in flight, and surface the error
                    // after the scope ends.
                    journal_err = Some(e);
                    filter_q.close();
                }
            }
        }
        collector_buf.flush();
        // Every handle is joined by hand, so a panic that escaped a
        // worker's containment layers arrives here as an `Err` instead
        // of unwinding out of the scope.
        let mut escaped = None;
        for worker in workers {
            if let Err(payload) = worker.join() {
                escaped.get_or_insert(payload);
            }
        }
        (journal_err, escaped)
    });
    if let Some(payload) = escaped {
        // An executor bug, not a pair failure; surface it like the
        // one-thread loop would.
        resume_unwind(payload);
    }
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
    let metrics = |total: &AssemblyReport| {
        let mut metrics = ExecutorMetrics::from_report(threads, total, obs);
        metrics.queue_depth = queue_depth;
        seed_meter.fill(&mut metrics.seeding, 0);
        filter_meter.fill(&mut metrics.filtering, filter_q.max_occupancy());
        metrics
    };
    let run = (&*journals, builds);
    Ok(assemble(matrix, records, &resumed, run, metrics))
}

/// The planning producer: dispatches target genomes smallest remaining
/// work first, a genome's rows the same way and a row's pairs smallest
/// first (ties broken by pair id, so uniform matrices keep the old FIFO
/// walk), and plans each non-resumed pair's range tasks under panic
/// isolation ([`plan_pair`]), blocking on `filter_q`'s backpressure. A
/// row's pairs go back to back, so one row's seed table is alive at a
/// time, across every block of the row; a genome's rows go back to
/// back, so only its blocks' journals are open. Dispatch order never
/// reaches canonical output: the results are assembled in pair-id
/// order, and fault occurrences are counted per `(hook, pair)`.
#[allow(clippy::too_many_arguments)]
fn produce<'a>(
    params: &WgaParams,
    matrix: &'a PairMatrix<'a>,
    resumed: &[bool],
    cells: &[Mutex<Option<PairJob<'a>>>],
    filter_q: &BoundedQueue<RangeTask<'a>>,
    done_q: &BoundedQueue<PairDone>,
    seed_meter: &StageMeter,
    builds: &TableBuilds,
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
            wait_seeded(&mut seeding, seed_meter);
        }
        // Queues one task: `Err` fails the pair, `Ok(false)` means a
        // queue closed under us (shutdown) and the producer is done.
        let push = |task: RangeTask<'a>| -> Result<bool, String> {
            supervise::supervised(Hook::QueuePush, &pair_obs, || Ok(()))
                .map_err(|error| format!("queue.push fault: {error}"))?;
            let mut wait_buf = obs.buffer();
            let wait_timer = wait_buf.start();
            let wait = Instant::now();
            if filter_q.push(task).is_err() {
                return Ok(false);
            }
            seed_meter.add_idle(wait.elapsed());
            wait_buf.finish_for_pair(
                wait_timer,
                SpanName::QueueWait,
                pair_id as u64,
                STRAND_NA,
                QUEUE_SEED_PUSH,
                0,
                0,
            );
            Ok(true)
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
            let planned = plan_pair(
                params,
                table,
                pair,
                pair_id,
                cells,
                &mut seeding,
                seed_meter,
                push,
                pair_obs,
            )?;
            if !planned || ranges.count() > 0 {
                return Ok(planned);
            }
            // Nothing to filter or extend: the pair is finished here.
            let job = cells[pair_id].lock().take();
            Ok(job.is_none_or(|job| finish_pair(params, job, done_q, obs)))
        }))
        .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())));
        let keep_going = planned.unwrap_or_else(|error| fail_pair(cells, pair_id, error, done_q));
        if !keep_going {
            return;
        }
    }
}

/// Blocks until every range task queued so far has seeded or been
/// dropped, metered as the producer's idle time: each task's
/// [`SeedSource`] holds a clone of the sender and nothing is ever sent,
/// so the receive returns once the last clone is gone. The tasks to
/// come get a new channel.
fn wait_seeded(seeding: &mut (Sender<()>, Receiver<()>), meter: &StageMeter) {
    let start = Instant::now();
    let (token, seeded) = std::mem::replace(seeding, mpsc::channel());
    drop(token);
    let _ = seeded.recv();
    meter.add_idle(start.elapsed());
}

/// Plans one pair's range tasks: opens each strand ([`seed_lane`]: its
/// chaos gate, and a budgeted strand's walk, charged for the tiles the
/// forward strand kept), files its lane in the pair's cell and queues a
/// task per query range through `push`. `Ok(false)` is `push`'s
/// (shutdown). On `push`'s `Err` — an injected queue fault — or a
/// panic (a `filter.batch` gate's injection) the caller fails the pair:
/// workers find its cell empty and drop their deposits.
#[allow(clippy::too_many_arguments)]
fn plan_pair<'a>(
    params: &WgaParams,
    table: &Arc<SeedTable>,
    (target, query, ranges): (&'a Sequence, &'a Sequence, QueryRanges),
    pair_id: usize,
    cells: &[Mutex<Option<PairJob<'a>>>],
    seeding: &mut (Sender<()>, Receiver<()>),
    meter: &StageMeter,
    push: impl Fn(RangeTask<'a>) -> Result<bool, String>,
    obs: Obs<'_>,
) -> Result<bool, String> {
    let mut strands = vec![(Cow::Borrowed(query), Strand::Forward)];
    if params.both_strands {
        strands.push((Cow::Owned(query.reverse_complement()), Strand::Reverse));
    }
    let mut tiles_kept = 0u64;
    for (lane_idx, (query, strand)) in strands.into_iter().enumerate() {
        if lane_idx > 0 {
            wait_seeded(seeding, meter);
        }
        let (seeded, kept) = seed_lane(params, table, &query, strand, ranges, tiles_kept, obs);
        tiles_kept += kept.as_ref().map_or(0, |kept| kept.len() as u64);
        let ctx_start = Instant::now();
        let ctx = FilterContext::new(params, target, &query);
        let ctx_time = ctx_start.elapsed();
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
                seeded,
                ctx_time,
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
            })? {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// One pool worker: pops range tasks off `filter_q` until it closes,
/// and runs each through the one-thread loop's step — [`seed_range`],
/// then [`filter_batch`] — letting go of the row's table in between,
/// then deposits the result in the pair's cell. Its D-SOFT scratch
/// serves every range it seeds, and a run of tasks of one strand shares
/// one engine, so its DP scratch is drawn per worker and strand. The
/// worker whose deposit completes a pair extends it ([`finish_pair`]).
/// The last of the pool's `alive` workers out — normally or unwinding —
/// closes `done_q`.
fn worker<'a>(
    params: &WgaParams,
    filter_q: &BoundedQueue<RangeTask<'a>>,
    done_q: &BoundedQueue<PairDone>,
    cells: &[Mutex<Option<PairJob<'a>>>],
    alive: &AtomicUsize,
    meter: &StageMeter,
    obs: Obs<'_>,
) {
    let _guard = PoolGuard {
        alive,
        filter_q,
        done_q,
    };
    let mut wait_buf = obs.buffer();
    // The next task, with the wait for it metered (a named fn, so
    // `wga-lint` sees this stage's pop beside its push).
    fn pop<'a>(
        filter_q: &BoundedQueue<RangeTask<'a>>,
        meter: &StageMeter,
        buf: &mut SpanBuf<'_>,
    ) -> Option<RangeTask<'a>> {
        let wait_timer = buf.start();
        let wait = Instant::now();
        let task = filter_q.pop()?;
        meter.add_idle(wait.elapsed());
        buf.finish_for_pair(
            wait_timer,
            SpanName::QueueWait,
            task.stream.pair_id as u64,
            STRAND_NA,
            QUEUE_FILTER_POP,
            0,
            0,
        );
        Some(task)
    }
    let mut pop = || pop(filter_q, meter, &mut wait_buf);
    let mut scratch = DsoftScratch::default();
    let mut next = pop();
    while let Some(first) = next.take() {
        let stream = Arc::clone(&first.stream);
        let mut engine = stream.ctx.engine();
        let pair_obs = obs.with_pair(stream.pair_id as u64);
        let mut same_stream = Some(first);
        while let Some(RangeTask { source, idx, .. }) = same_stream.take() {
            let gate = supervise::supervised(Hook::QueuePop, &pair_obs, || Ok(()));
            let seeded = gate.map(|()| {
                catch_unwind(AssertUnwindSafe(|| {
                    seed_range(
                        params,
                        &source.table,
                        &stream.query,
                        stream.strand,
                        source.ranges,
                        idx,
                        source.kept.as_deref(),
                        &mut scratch,
                        pair_obs,
                    )
                }))
            });
            // Before filtering: the row's table goes as its last range is
            // seeded.
            drop(source);
            let result = match seeded {
                Ok(Ok((cost, hits))) => Ok(filter_batch(
                    params,
                    &mut engine,
                    stream.target,
                    &stream.query,
                    &hits,
                    cost,
                    strand_code(stream.strand),
                    idx,
                    pair_obs,
                )),
                // A seeding panic fails the pair, as in the one-thread loop.
                Ok(Err(payload)) => Err(panic_message(payload.as_ref())),
                // A queue fault fails the range (and, downstream, degrades
                // the pair).
                Err(error) => Ok(BatchResult::failed(
                    idx,
                    0,
                    format!("queue.pop fault: {error}"),
                )),
            };
            let moved_on = match result {
                Ok(result) => deposit(cells, &stream, result)
                    .is_none_or(|job| finish_pair(params, job, done_q, obs)),
                Err(error) => fail_pair(cells, stream.pair_id, error, done_q),
            };
            // `false`: `done_q` closed, the run is shutting down.
            if !moved_on {
                return;
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
/// hands `error` to the collector, once however many of its steps fail.
/// `false` if `done_q` had closed.
fn fail_pair(
    cells: &[Mutex<Option<PairJob<'_>>>],
    pair_id: usize,
    error: String,
    done_q: &BoundedQueue<PairDone>,
) -> bool {
    if cells[pair_id].lock().take().is_none() {
        return true;
    }
    let result = Err(error);
    done_q.push(PairDone { pair_id, result }).is_ok()
}

/// Extends a complete pair under panic containment and hands the
/// outcome to the collector. `false` if `done_q` had closed.
fn finish_pair(
    params: &WgaParams,
    job: PairJob<'_>,
    done_q: &BoundedQueue<PairDone>,
    obs: Obs<'_>,
) -> bool {
    let pair_id = job.pair_id;
    let pair_obs = obs.with_pair(pair_id as u64);
    let result = catch_unwind(AssertUnwindSafe(|| extend_pair(params, job, pair_obs)))
        .map_err(|payload| panic_message(payload.as_ref()));
    done_q.push(PairDone { pair_id, result }).is_ok()
}

/// The extension stage of one pair: folds each lane's deposited batches
/// and runs the anchor-absorption extension per lane, through the same
/// accounting as every other schedule.
fn extend_pair(params: &WgaParams, job: PairJob<'_>, obs: Obs<'_>) -> WgaReport {
    let mut report = WgaReport::default();
    for Lane {
        stream,
        seeded,
        ctx_time,
        batches,
    } in job.lanes
    {
        let anchors = fold_batches(seeded, ctx_time, batches, &mut report);
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
    use crate::obs::{TraceRecorder, STRAND_FWD};
    use crate::report::RunEvent;
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
        let (blocks, tables_built) =
            crate::genome_pipeline::align_matrix(&params, &matrix, &options, Obs::new(&recorder))
                .expect("the run completes");
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

    /// Batch containment is one piece of code ([`filter_batch`] +
    /// [`fold_batches`]), so it is tested once: the same poisoned hit
    /// list, cut into the same query ranges, keeps every healthy range's
    /// anchors and records exactly one failed batch — the poisoned hit's
    /// range, by the same index — whether the ranges run inline (the
    /// one-thread schedule) or as the dataflow pool's range tasks, which
    /// slice it as a budget's kept list; the worker that deposits the
    /// last range extends the pair.
    #[test]
    fn panicking_batch_is_isolated_on_every_schedule() {
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
                seeded: SeededLane::default(),
                ctx_time: Duration::ZERO,
                batches,
            }],
            outstanding,
        };

        let inline = |hits: &[SeedHit]| {
            let mut engine = stream.ctx.engine();
            let batches = (0..ranges.count()).map(|i| {
                let batch = in_range(hits, i);
                let scode = STRAND_FWD;
                filter_batch(
                    &params,
                    &mut engine,
                    &t,
                    &q,
                    &batch,
                    SeededLane::default(),
                    scode,
                    i,
                    Obs::off(),
                )
            });
            extend_pair(&params, job(batches.collect(), 0), Obs::off())
        };
        let pooled = |hits: &[SeedHit]| {
            let filter_q = BoundedQueue::new(2);
            let done_q = BoundedQueue::new(1);
            let cells = [Mutex::new(Some(job(Vec::new(), ranges.count())))];
            let source = Arc::new(SeedSource {
                table: Arc::new(SeedTable::build(&t, &params.seed_pattern, 1)),
                ranges,
                kept: Some(hits.to_vec()),
                _token: mpsc::channel().0,
            });
            let alive = AtomicUsize::new(2);
            let meter = StageMeter::default();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let obs = Obs::off();
                        worker(&params, &filter_q, &done_q, &cells, &alive, &meter, obs)
                    });
                }
                for idx in 0..ranges.count() {
                    let (stream, source) = (Arc::clone(&stream), Arc::clone(&source));
                    let task = RangeTask {
                        stream,
                        source,
                        idx,
                    };
                    assert!(filter_q.push(task).is_ok());
                }
                filter_q.close();
            });
            let done = done_q
                .pop()
                .expect("the worker that completes the pair extends it");
            assert!(done_q.pop().is_none(), "the last worker out closes done_q");
            done.result.expect("a failed batch does not fail the pair")
        };

        let clean = inline(&hits[..4]);
        assert!(clean.events.is_empty());
        assert!(!clean.alignments.is_empty());
        for (schedule, report) in [("inline", inline(&hits)), ("dataflow pool", pooled(&hits))] {
            assert_eq!(
                (report.counters.anchors_passed, &report.alignments),
                (clean.counters.anchors_passed, &clean.alignments),
                "{schedule}: healthy batches keep their anchors"
            );
            assert_eq!(report.workload.filter_tiles, 4, "{schedule}");
            let cells = clean.counters.filter_cells;
            assert_eq!(
                report.counters.filter_cells, cells,
                "{schedule}: the failed batch's cells stay out"
            );
            match &report.events[..] {
                [RunEvent::BatchFailed {
                    batch,
                    items,
                    message,
                }] => {
                    assert_eq!((*batch, *items), (4, 1), "{schedule}");
                    assert!(message.contains("poisoned"), "{schedule}: {message}");
                }
                other => panic!("{schedule}: expected one failed batch, got {other:?}"),
            }
        }
    }
}
