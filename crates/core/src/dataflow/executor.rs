//! The streaming executor: a seeding producer feeds one worker pool
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
//! builds each row's seed table once and runs D-SOFT one
//! query range at a time, moving each range's hits into a task pushed
//! into `filter_q` — the hits in flight are bounded by the queue, no
//! strand's list exists (a budgeted strand is seeded whole first, by
//! [`seed_lane`], keeping only what the shared clamp of
//! [`crate::budget`] lets through). Workers run batches through the
//! strand's shared [`FilterContext`] and deposit results into the
//! pair's cell. Once the producer has sealed the pair, the worker whose
//! deposit leaves it with no batch outstanding extends it on the spot;
//! if none is outstanding at the seal, the producer queues the pair as
//! an extension task instead of extending it itself, which would stall
//! seeding behind it. Extension runs the sequential anchor-absorption
//! stage per pair — a pair is one *stream*, so absorption state never
//! crosses threads — and the finished [`WgaReport`] goes into `done_q`,
//! where the collector journals it (the pair is the checkpoint unit,
//! exactly as in the one-thread loop).
//!
//! Only the queues, the pool, its guard and the watchdog live here.
//! Every step a pair goes through — [`row_seed_table`], [`seed_lane`],
//! [`seed_range`], [`filter_batch`], [`fold_batches`],
//! [`extend_anchors`], [`Journals::commit`], [`assemble`] — is the
//! function the one-thread loop calls (see [`crate::stages`]).
//!
//! # Determinism
//!
//! Batches execute and deposit in arbitrary order, each under its
//! range index; [`fold_batches`] takes them in range order and puts
//! their survivors back in hit order, so anchors reach
//! [`extend_anchors`] in the order the one-thread loop produces. The
//! collector stores per-pair results by pair id and the final report is
//! assembled in canonical pair order, making the output byte-identical to
//! `--threads 1` at any thread count (`tests/golden_report.rs` pins
//! this).
//!
//! # Shutdown protocol (deadlock freedom)
//!
//! Queues form an acyclic chain — no worker pushes into the queue it
//! pops — and each stage closes its *downstream* queue when it
//! finishes: the producer closes `filter_q` when all pairs are planned;
//! the last worker to exit closes `done_q`, which ends the collector
//! loop. The close-on-exit is a `Drop` guard, so even a worker panicking
//! outside its `catch_unwind` layers still releases the collector
//! instead of deadlocking the scope.

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
use crate::supervise::{self, panic_message, RetryPolicy};
use crate::sync::Mutex;
use genome::Sequence;
use seed::dsoft::DsoftScratch;
use seed::{SeedHit, SeedTable};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A query strand's sequence: the forward strand borrows the assembly,
/// the reverse strand owns its reverse complement.
enum StrandSeq<'a> {
    Forward(&'a Sequence),
    Reverse(Sequence),
}

impl StrandSeq<'_> {
    fn seq(&self) -> &Sequence {
        match self {
            StrandSeq::Forward(s) => s,
            StrandSeq::Reverse(s) => s,
        }
    }
}

/// What the filter tasks of one (pair, strand) stream share.
struct Stream<'a> {
    pair_id: usize,
    lane_idx: usize,
    strand: Strand,
    pair_start: Instant,
    target: &'a Sequence,
    query: StrandSeq<'a>,
    ctx: FilterContext,
}

/// One (pair, strand) stream opened by the producer.
struct Lane<'a> {
    stream: Arc<Stream<'a>>,
    /// The strand's seeding accounting, written when its last range is
    /// seeded.
    seeded: SeededLane,
    /// [`FilterContext`] build wall-clock (counted as filtering time,
    /// matching the one-thread loop's accounting).
    ctx_time: Duration,
    /// Filter results in the order they were deposited.
    batches: Vec<BatchResult>,
}

/// All filter-stage state of one chromosome pair in flight.
#[derive(Default)]
struct PairJob<'a> {
    pair_id: usize,
    lanes: Vec<Lane<'a>>,
    /// Filter tasks queued and not yet deposited.
    outstanding: usize,
    /// The producer has queued the pair's last task.
    sealed: bool,
}

/// One query range's seed hits for the pool.
struct FilterTask<'a> {
    stream: Arc<Stream<'a>>,
    batch_idx: usize,
    hits: Vec<SeedHit>,
}

/// What the pool pops: a range to filter, or a pair that no batch was
/// outstanding for when the producer sealed it.
enum Task<'a> {
    Batch(FilterTask<'a>),
    Extend(PairJob<'a>),
}

/// Terminal result of one pair, headed for the collector.
struct PairDone {
    pair_id: usize,
    result: Result<WgaReport, String>,
}

/// Decrements the pool's live-worker count on drop and closes `done_q`
/// when this was the last worker — the shutdown cascade survives even a
/// panic that escapes a worker's `catch_unwind`.
struct PoolGuard<'q> {
    alive: &'q AtomicUsize,
    done_q: &'q BoundedQueue<PairDone>,
}

impl Drop for PoolGuard<'_> {
    fn drop(&mut self) {
        if self.alive.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.done_q.close();
        }
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
    retry_policy: &RetryPolicy,
    obs: Obs<'_>,
) -> WgaResult<Vec<AssemblyReport>> {
    let threads = options.threads;
    let queue_depth = options.queue_depth;
    let resumed: Vec<bool> = records.iter().map(Option::is_some).collect();

    let filter_q: BoundedQueue<Task<'_>> = BoundedQueue::new(queue_depth);
    let done_q: BoundedQueue<PairDone> = BoundedQueue::new(queue_depth);
    let cells: Vec<Mutex<Option<PairJob<'_>>>> =
        matrix.pairs.iter().map(|_| Mutex::new(None)).collect();
    let cells = &cells[..];

    let seed_meter = StageMeter::default();
    let filter_meter = StageMeter::default();
    let alive = AtomicUsize::new(threads);

    // Supervision state: the fault injector rides in on `obs` (built by
    // `align_matrix`), every stage bumps the heartbeat on
    // each unit of progress, and — when `--stall-timeout-ms` is set — a
    // watchdog thread escalates a flat heartbeat by closing every queue,
    // so a wedged run drains into `Failed` pairs instead of hanging.
    let injector = obs.fault();
    let heartbeat = AtomicU64::new(0);
    let watchdog_stop = AtomicBool::new(false);
    let stalls = AtomicU64::new(0);

    let (journal_err, escaped) = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        // --- Stall watchdog --------------------------------------------
        if options.stall_timeout_ms > 0 {
            let (filter_q, done_q) = (&filter_q, &done_q);
            let (watchdog_stop, heartbeat, stalls) = (&watchdog_stop, &heartbeat, &stalls);
            let timeout_ms = options.stall_timeout_ms;
            workers.push(scope.spawn(move || {
                supervise::watch_heartbeat(watchdog_stop, heartbeat, timeout_ms, || {
                    stalls.fetch_add(1, Ordering::Relaxed);
                    if let Some(inj) = injector {
                        inj.request_abort();
                    }
                    filter_q.close();
                    done_q.close();
                });
            }));
        }
        // --- Seeding producer ------------------------------------------
        {
            let (filter_q, done_q) = (&filter_q, &done_q);
            let (seed_meter, resumed, heartbeat) = (&seed_meter, &resumed, &heartbeat);
            workers.push(scope.spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    produce(
                        params,
                        matrix,
                        resumed,
                        cells,
                        filter_q,
                        done_q,
                        seed_meter,
                        builds,
                        heartbeat,
                        retry_policy,
                        obs,
                    )
                }));
                // Whatever happened, release the pool.
                filter_q.close();
            }));
        }

        // --- Worker pool ----------------------------------------------
        for _ in 0..threads {
            let (filter_q, done_q) = (&filter_q, &done_q);
            let (filter_meter, alive, heartbeat) = (&filter_meter, &alive, &heartbeat);
            workers.push(scope.spawn(move || {
                worker(
                    params,
                    filter_q,
                    done_q,
                    cells,
                    alive,
                    filter_meter,
                    heartbeat,
                    retry_policy,
                    obs,
                )
            }));
        }

        // --- Collector (this thread): journal + gather -----------------
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
            heartbeat.fetch_add(1, Ordering::Relaxed);
            let pair_obs = obs.with_pair(done.pair_id as u64);
            match journals.commit(matrix, done.pair_id, done.result, retry_policy, pair_obs) {
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
        watchdog_stop.store(true, Ordering::Relaxed);
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
    let stalls = stalls.load(Ordering::Relaxed);
    let dropped = if stalls > 0 {
        format!(
            "pair stalled: no progress for {}ms; aborted by watchdog",
            options.stall_timeout_ms
        )
    } else {
        "pair dropped: dataflow run aborted".to_string()
    };
    let records = records
        .into_iter()
        .zip(&matrix.pairs)
        .map(|(record, pair)| {
            record.unwrap_or_else(|| {
                PairRecord::failed(&pair.target.name, &pair.query.name, dropped.clone())
            })
        });
    let metrics = |total: &AssemblyReport| {
        let mut metrics = ExecutorMetrics::from_report(threads, total, injector);
        metrics.queue_depth = queue_depth;
        metrics.stalls_detected = stalls;
        seed_meter.fill(&mut metrics.seeding, 0);
        filter_meter.fill(&mut metrics.filtering, filter_q.max_occupancy());
        metrics
    };
    let run = (&*journals, builds);
    Ok(assemble(matrix, records, &resumed, run, stalls, metrics))
}

/// The seeding producer: dispatches target genomes smallest remaining
/// work first, a genome's rows the same way and a row's pairs smallest
/// first (ties broken by pair id, so uniform matrices keep the old FIFO
/// walk), registers each non-resumed pair's cell and streams both its
/// strands under panic isolation, a range's hits at a time, into
/// `filter_q` (blocking on backpressure), then the pair itself if no
/// batch of it is outstanding by then. A row's pairs go back to back,
/// so one row's seed table is alive at a time, across every block of
/// the row; a genome's rows go back to back, so only its blocks'
/// journals are open. Dispatch order never reaches canonical output: the
/// results are assembled in pair-id order, and fault occurrences are
/// counted per `(hook, pair)`.
#[allow(clippy::too_many_arguments)]
fn produce<'a>(
    params: &WgaParams,
    matrix: &'a PairMatrix<'a>,
    resumed: &[bool],
    cells: &[Mutex<Option<PairJob<'a>>>],
    filter_q: &BoundedQueue<Task<'a>>,
    done_q: &BoundedQueue<PairDone>,
    seed_meter: &StageMeter,
    builds: &TableBuilds,
    heartbeat: &AtomicU64,
    retry_policy: &RetryPolicy,
    obs: Obs<'_>,
) {
    let injector = obs.fault();

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
    // dispatched pair (a fully-journaled row never builds) and dropped
    // before the next row's is built.
    let mut row_table: Option<(usize, Result<Arc<SeedTable>, String>)> = None;

    for pair_id in order {
        let pair = &matrix.pairs[pair_id];
        let pair_obs = obs.with_pair(pair_id as u64);
        if row_table.as_ref().is_some_and(|&(row, _)| row != pair.row) {
            row_table = None;
        }

        // `Err` fails this pair; `Ok(false)` means a queue closed under
        // us (shutdown in progress) and the producer is done.
        let mut dispatch = || -> Result<bool, String> {
            let (_, table) = row_table.get_or_insert_with(|| {
                let target = &pair.target.sequence;
                (
                    pair.row,
                    row_seed_table(params, target, pair.row, builds, pair_obs),
                )
            });
            let table = table.as_ref().map_err(|message| message.clone())?;
            // Queues one task: `Err` fails the pair, `Ok(false)` means
            // shutdown is in progress (journal failure). A batch passes
            // the `queue.push` gate; a sealed pair does not, since
            // whether the producer or a worker moves it on is timing.
            let push = |task: Task<'a>| -> Result<bool, String> {
                if let Task::Batch(_) = task {
                    supervise::supervised(
                        retry_policy,
                        injector,
                        Hook::QueuePush,
                        pair_obs.pair(),
                        Some(&pair_obs),
                        || Ok(()),
                    )
                    .map_err(|error| format!("queue.push fault: {error}"))?;
                }
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
                heartbeat.fetch_add(1, Ordering::Relaxed);
                Ok(true)
            };
            let (target, query) = (&pair.target.sequence, &pair.query.sequence);
            let streamed =
                stream_pair(params, table, target, query, pair_id, cells, push, pair_obs);
            heartbeat.fetch_add(1, Ordering::Relaxed);
            streamed
        };
        let keep_going = dispatch().unwrap_or_else(|error| {
            let result = Err(error);
            done_q.push(PairDone { pair_id, result }).is_ok()
        });
        if !keep_going {
            return;
        }
    }
}

/// One pool worker: pops tasks off `filter_q` until it closes. A batch
/// runs through [`filter_batch`] and is deposited in the pair's cell; a
/// run of tasks of one strand shares one engine — its DP scratch is
/// drawn per worker and strand, not per range. The worker whose deposit
/// completes a sealed pair extends it, as does the worker that pops a
/// pair ([`finish_pair`]). The last of the pool's `alive` workers out —
/// normally or unwinding — closes `done_q`.
#[allow(clippy::too_many_arguments)]
fn worker<'a>(
    params: &WgaParams,
    filter_q: &BoundedQueue<Task<'a>>,
    done_q: &BoundedQueue<PairDone>,
    cells: &[Mutex<Option<PairJob<'a>>>],
    alive: &AtomicUsize,
    meter: &StageMeter,
    heartbeat: &AtomicU64,
    retry_policy: &RetryPolicy,
    obs: Obs<'_>,
) {
    let _guard = PoolGuard { alive, done_q };
    let mut wait_buf = obs.buffer();
    // The next task, with the wait for it metered (a named fn, so
    // `wga-lint` sees this stage's pop beside its push).
    fn pop<'a>(
        filter_q: &BoundedQueue<Task<'a>>,
        meter: &StageMeter,
        buf: &mut SpanBuf<'_>,
    ) -> Option<Task<'a>> {
        let wait_timer = buf.start();
        let wait = Instant::now();
        let task = filter_q.pop()?;
        meter.add_idle(wait.elapsed());
        let pair = match &task {
            Task::Batch(task) => task.stream.pair_id,
            Task::Extend(job) => job.pair_id,
        };
        buf.finish_for_pair(
            wait_timer,
            SpanName::QueueWait,
            pair as u64,
            STRAND_NA,
            QUEUE_FILTER_POP,
            0,
            0,
        );
        Some(task)
    }
    let mut pop = || pop(filter_q, meter, &mut wait_buf);
    let mut next = pop();
    while let Some(task) = next.take() {
        let first = match task {
            Task::Batch(first) => first,
            Task::Extend(job) => {
                // `false`: `done_q` closed, the watchdog is shutting down.
                if !finish_pair(params, job, done_q, heartbeat, retry_policy, obs) {
                    return;
                }
                next = pop();
                continue;
            }
        };
        let stream = Arc::clone(&first.stream);
        let mut engine = stream.ctx.engine();
        let pair_obs = obs.with_pair(stream.pair_id as u64);
        let mut same_stream = Some(first);
        while let Some(FilterTask {
            batch_idx, hits, ..
        }) = same_stream.take()
        {
            let pair = pair_obs.pair();
            let gate = supervise::supervised(
                retry_policy,
                obs.fault(),
                Hook::QueuePop,
                pair,
                Some(&pair_obs),
                || Ok(()),
            );
            let result = match gate {
                Ok(()) => filter_batch(
                    params,
                    &mut engine,
                    stream.target,
                    stream.query.seq(),
                    &hits,
                    stream.pair_start,
                    strand_code(stream.strand),
                    batch_idx,
                    pair_obs,
                ),
                // A queue fault that survives its retry budget fails the
                // batch (and, downstream, the pair).
                Err(error) => {
                    let message = format!("queue.pop fault: {error}");
                    BatchResult::failed(batch_idx, hits.len() as u64, message)
                }
            };
            let complete = update_cell(cells, stream.pair_id, |job| {
                job.lanes[stream.lane_idx].batches.push(result);
                job.outstanding -= 1;
            });
            heartbeat.fetch_add(1, Ordering::Relaxed);
            if let Some(job) = complete {
                if !finish_pair(params, job, done_q, heartbeat, retry_policy, obs) {
                    return;
                }
            }
            next = pop();
            match next.take() {
                Some(Task::Batch(task)) if Arc::ptr_eq(&task.stream, &stream) => {
                    same_stream = Some(task);
                }
                other => next = other,
            }
        }
    }
}

/// Extends a pair with every batch deposited — under its `queue.pop`
/// gate and panic containment — and hands the outcome to the collector.
/// `false` if `done_q` had closed.
fn finish_pair(
    params: &WgaParams,
    job: PairJob<'_>,
    done_q: &BoundedQueue<PairDone>,
    heartbeat: &AtomicU64,
    retry_policy: &RetryPolicy,
    obs: Obs<'_>,
) -> bool {
    let injector = obs.fault();
    let pair_id = job.pair_id;
    let pair_obs = obs.with_pair(pair_id as u64);
    let pair = pair_obs.pair();
    let gate = supervise::supervised(
        retry_policy,
        injector,
        Hook::QueuePop,
        pair,
        Some(&pair_obs),
        || Ok(()),
    );
    // A pair whose retry budget an earlier stage already exhausted
    // fails here instead of burning extension work — the same `Failed`
    // the one-thread loop reaches through its pair-level panic
    // containment.
    let result = match gate {
        Err(error) => Err(format!("queue.pop fault: {error}")),
        Ok(()) if injector.is_some_and(|inj| inj.is_poisoned(pair_id as u64)) => {
            Err(format!("injected fault: pair {pair_id}: retries exhausted"))
        }
        Ok(()) => catch_unwind(AssertUnwindSafe(|| extend_pair(params, job, pair_obs)))
            .map_err(|payload| panic_message(payload.as_ref())),
    };
    heartbeat.fetch_add(1, Ordering::Relaxed);
    done_q.push(PairDone { pair_id, result }).is_ok()
}

/// Applies `update` to a pair's job under its cell's lock (nothing, if
/// the pair was cancelled) and returns the job if that left it sealed
/// with no batch outstanding: the pair is complete, and the caller
/// moves it on to extension.
fn update_cell<'a>(
    cells: &[Mutex<Option<PairJob<'a>>>],
    pair_id: usize,
    update: impl FnOnce(&mut PairJob<'a>),
) -> Option<PairJob<'a>> {
    let mut slot = cells[pair_id].lock();
    let job = slot.as_mut()?;
    update(job);
    if job.sealed && job.outstanding == 0 {
        slot.take()
    } else {
        None
    }
}

/// Streams both strands of one pair into the pool: registers the pair's
/// cell, opens each strand ([`seed_lane`]: its chaos gate, and a
/// budgeted strand's clamp, which charges the tiles queued so far),
/// then seeds range after range, moving each range's hits into a task
/// for `push`, and seals the pair — pushing it too if no batch is
/// outstanding. `Ok(false)` is `push`'s (shutdown). On `push`'s `Err` — a fault that survived its retry
/// budget — or a panic (a `filter.batch` gate's escalation) the pair is
/// cancelled: workers find its cell empty and drop their deposits, and
/// the caller fails it through `done_q`.
#[allow(clippy::too_many_arguments)]
fn stream_pair<'a>(
    params: &WgaParams,
    table: &SeedTable,
    target: &'a Sequence,
    query: &'a Sequence,
    pair_id: usize,
    cells: &[Mutex<Option<PairJob<'a>>>],
    push: impl Fn(Task<'a>) -> Result<bool, String>,
    obs: Obs<'_>,
) -> Result<bool, String> {
    let pair_start = Instant::now();
    *cells[pair_id].lock() = Some(PairJob {
        pair_id,
        ..PairJob::default()
    });
    let streamed = catch_unwind(AssertUnwindSafe(|| {
        let mut scratch = DsoftScratch::default();
        let mut tiles_queued = 0u64;
        let mut strands = vec![(StrandSeq::Forward(query), Strand::Forward)];
        if params.both_strands {
            strands.push((
                StrandSeq::Reverse(query.reverse_complement()),
                Strand::Reverse,
            ));
        }
        for (lane_idx, (query, strand)) in strands.into_iter().enumerate() {
            let ranges = QueryRanges::new(
                params.shard_bases,
                params.dsoft.chunk_size,
                query.seq().len(),
            );
            let (mut seeded, kept) = seed_lane(
                params,
                table,
                query.seq(),
                strand,
                ranges,
                tiles_queued,
                obs,
            );
            let ctx_start = Instant::now();
            let ctx = FilterContext::new(params, target, query.seq());
            let ctx_time = ctx_start.elapsed();
            let stream = Arc::new(Stream {
                pair_id,
                lane_idx,
                strand,
                pair_start,
                target,
                query,
                ctx,
            });
            // The strand's accounting is filed when its last range is seeded.
            let lane = Lane {
                stream: Arc::clone(&stream),
                seeded: SeededLane::default(),
                ctx_time,
                batches: Vec::new(),
            };
            update_cell(cells, pair_id, |job| job.lanes.push(lane));
            let query = stream.query.seq();
            for batch_idx in 0..ranges.count() {
                let kept = kept.as_deref();
                let (cost, hits) = seed_range(
                    params,
                    table,
                    query,
                    strand,
                    ranges,
                    batch_idx,
                    kept,
                    &mut scratch,
                    obs,
                );
                seeded.add(cost);
                if hits.is_empty() {
                    continue;
                }
                tiles_queued += hits.len() as u64;
                update_cell(cells, pair_id, |job| job.outstanding += 1);
                if !push(Task::Batch(FilterTask {
                    stream: Arc::clone(&stream),
                    batch_idx,
                    hits,
                }))? {
                    return Ok(false);
                }
            }
            update_cell(cells, pair_id, |job| job.lanes[lane_idx].seeded = seeded);
        }
        // No hits anywhere, or every batch already deposited: the pair goes
        // to the pool for extension (it still carries seeding counters and
        // clamp events).
        match update_cell(cells, pair_id, |job| job.sealed = true) {
            Some(job) => push(Task::Extend(job)),
            None => Ok(true),
        }
    }))
    .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())));
    if streamed.is_err() {
        *cells[pair_id].lock() = None;
    }
    streamed
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
        let (start, query) = (stream.pair_start, stream.query.seq());
        let anchors = fold_batches(params, seeded, ctx_time, batches, start, &mut report);
        extend_anchors(
            params,
            stream.target,
            query,
            stream.strand,
            anchors,
            start,
            &mut report,
            obs,
        );
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
    use crate::report::{RunEvent, StageKind};
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
    /// one-thread schedule) or through the dataflow pool, whose worker
    /// that deposits the last batch extends the pair.
    #[test]
    fn panicking_batch_is_isolated_on_every_schedule() {
        let core = "ACGGTCAGTCGATTGCAGTCCATGGACTGATC".repeat(40); // 1280 bp
        let t: Sequence = core.parse().unwrap();
        let q = t.clone();
        let mut params = WgaParams::darwin_wga();
        params.shard_bases = 256;
        let ranges = QueryRanges::new(params.shard_bases, params.dsoft.chunk_size, q.len());
        assert_eq!(ranges.count(), 5);
        let pair_start = Instant::now();
        // A hit every 320 bp — ranges 0, 1, 2 and 3 — then one in range 4
        // that panics its batch (and the batch's one retry).
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
            pair_start,
            target: &t,
            query: StrandSeq::Forward(&q),
            ctx: FilterContext::new(&params, &t, &q),
        });
        let job = |batches| PairJob {
            lanes: vec![Lane {
                stream: Arc::clone(&stream),
                seeded: SeededLane::default(),
                ctx_time: Duration::ZERO,
                batches,
            }],
            ..PairJob::default()
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
                    pair_start,
                    scode,
                    i,
                    Obs::off(),
                )
            });
            extend_pair(&params, job(batches.collect()), Obs::off())
        };
        let pooled = |hits: &[SeedHit]| {
            let filter_q = BoundedQueue::new(2);
            let done_q = BoundedQueue::new(1);
            let cells = [Mutex::new(Some(job(Vec::new())))];
            let alive = AtomicUsize::new(2);
            let (meter, heartbeat) = (StageMeter::default(), AtomicU64::new(0));
            let policy = RetryPolicy::default();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let obs = Obs::off();
                        worker(
                            &params, &filter_q, &done_q, &cells, &alive, &meter, &heartbeat,
                            &policy, obs,
                        )
                    });
                }
                for batch_idx in 0..ranges.count() {
                    let task = FilterTask {
                        stream: Arc::clone(&stream),
                        batch_idx,
                        hits: in_range(hits, batch_idx),
                    };
                    update_cell(&cells, 0, |job| job.outstanding += 1);
                    assert!(filter_q.push(Task::Batch(task)).is_ok());
                }
                // A worker may have deposited every batch already: then
                // the seal completes the pair, and it goes to the pool.
                if let Some(job) = update_cell(&cells, 0, |job| job.sealed = true) {
                    assert!(filter_q.push(Task::Extend(job)).is_ok());
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
                    stage,
                    batch,
                    items,
                    message,
                }] => {
                    assert_eq!(
                        (*stage, *batch, *items),
                        (StageKind::Filtering, 4, 1),
                        "{schedule}"
                    );
                    assert!(message.contains("poisoned"), "{schedule}: {message}");
                }
                other => panic!("{schedule}: expected one failed batch, got {other:?}"),
            }
        }
    }
}
