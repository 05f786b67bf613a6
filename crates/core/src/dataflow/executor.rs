//! The streaming executor: seeding producer → filter pool → extension
//! pool over bounded queues.
//!
//! # Topology
//!
//! ```text
//! producer ──filter_q──▶ filter workers ──extend_q──▶ extension workers ──done_q──▶ collector
//! (1 thread)  (bounded)   (N threads)     (bounded)    (N threads)        (bounded)  (main thread)
//! ```
//!
//! The producer walks chromosome pairs in canonical (target × query)
//! order, builds each target row's seed table once and runs D-SOFT one
//! query range at a time, moving each range's hits into a task pushed
//! into `filter_q` — the hits in flight are bounded by the queue, no
//! strand's list exists (a budgeted strand is seeded whole first, by
//! [`seed_lane`], keeping only what the shared clamp of
//! [`crate::budget`] lets through). Filter workers run batches through
//! the strand's shared [`FilterContext`] and deposit results into the
//! pair's cell; once the producer has sealed the pair, whoever leaves it
//! with no batch outstanding promotes the whole pair into `extend_q`. Extension workers run the sequential anchor-absorption
//! stage per pair — a pair is one *stream*, so absorption state never
//! crosses threads — and emit the finished [`WgaReport`] into `done_q`,
//! where the collector journals it (the pair is the checkpoint unit,
//! exactly as in the barrier executor).
//!
//! Only the queues, pools, guards and watchdog live here. Every step a
//! pair goes through — [`row_seed_table`], [`seed_lane`], [`seed_range`],
//! [`filter_batch`], [`fold_batches`], [`extend_anchors`],
//! [`commit_pair`], [`replay_pair`] — is the function the one-thread
//! and barrier schedules call (see [`crate::stages`]).
//!
//! # Determinism
//!
//! Batches execute and deposit in arbitrary order, each under its
//! range index; [`fold_batches`] takes them in range order and puts
//! their survivors back in hit order, so anchors reach
//! [`extend_anchors`] in the order the barrier executor produces. The collector stores per-pair results by pair id
//! and the final report is assembled in canonical pair order, making the
//! output byte-identical to the barrier executor at any thread count
//! (`tests/golden_report.rs` pins this).
//!
//! # Shutdown protocol (deadlock freedom)
//!
//! Queues form an acyclic chain, and each stage closes its *downstream*
//! queue when it finishes: the producer closes `filter_q` when all pairs
//! are planned; the last filter worker to exit closes `extend_q`; the
//! last extension worker closes `done_q`, which ends the collector loop.
//! The close-on-exit is a `Drop` guard, so even a worker panicking
//! outside its `catch_unwind` layers still releases the downstream
//! stages instead of deadlocking the scope.
//!
//! # Known divergence from the barrier executor
//!
//! The producer applies the filter-tile budget *statically* (the reverse
//! strand's clamp assumes every queued forward tile executes). Absent a
//! deadline or a double-panicked batch, planned == executed and the
//! clamp is identical to the barrier's; under a mid-pair deadline or a
//! failed batch with `max_filter_tiles` set on a both-strand run, the
//! reverse strand may be clamped slightly tighter than the barrier
//! executor would. Deadline runs are inherently timing-dependent, so no
//! golden test covers that combination.

use crate::config::WgaParams;
use crate::dataflow::metrics::{ExecutorMetrics, StageMeter};
use crate::dataflow::ExecutorKind;
use crate::obs::{strand_code, Obs, SpanBuf, SpanName, STRAND_NA};

/// `seq` codes on `queue.wait` spans, naming the queue the worker
/// blocked on (see `SpanName::QueueWait`).
pub const QUEUE_SEED_PUSH: u64 = 0;
/// Filter worker blocked popping `filter_q`.
pub const QUEUE_FILTER_POP: u64 = 1;
/// Extension worker blocked popping `extend_q`.
pub const QUEUE_EXTEND_POP: u64 = 2;
/// Collector blocked popping `done_q`.
pub const QUEUE_DONE_POP: u64 = 3;
use crate::dataflow::queue::BoundedQueue;
use crate::error::{WgaError, WgaResult};
use crate::faultsim::Hook;
use crate::filter_engine::FilterContext;
use crate::genome_pipeline::{AlignOptions, AssemblyReport, SeedTableFn};
use crate::journal::{Journal, PairRecord};
use crate::report::{Strand, WgaReport};
use crate::shard::QueryRanges;
use crate::stages::{
    commit_pair, extend_anchors, filter_batch, fold_batches, fold_pair, replay_pair,
    row_seed_table, seed_lane, seed_range, BatchResult, SeededLane,
};
use crate::supervise::{self, panic_message, RetryPolicy};
use crate::sync::Mutex;
use genome::assembly::Assembly;
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
    /// matching the barrier executor's accounting).
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

/// One query range's seed hits for the filter pool.
struct FilterTask<'a> {
    stream: Arc<Stream<'a>>,
    batch_idx: usize,
    hits: Vec<SeedHit>,
}

/// Terminal result of one pair, headed for the collector.
struct PairDone {
    pair_id: usize,
    result: Result<WgaReport, String>,
}

/// Decrements the pool's live-worker count on drop and closes the
/// downstream queue when this was the last worker — the stage-shutdown
/// cascade survives even a panic that escapes a worker's `catch_unwind`.
struct PoolGuard<'q, T> {
    alive: &'q AtomicUsize,
    downstream: &'q BoundedQueue<T>,
}

impl<T> Drop for PoolGuard<'_, T> {
    fn drop(&mut self) {
        if self.alive.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.downstream.close();
        }
    }
}

/// Runs the full assembly-vs-assembly alignment through the streaming
/// executor. Called by [`crate::genome_pipeline::align_assemblies_with`]
/// once parameters are validated and the journal (if any) is open.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute(
    params: &WgaParams,
    target: &Assembly,
    query: &Assembly,
    options: &AlignOptions,
    mut journal: Option<Journal>,
    retry_policy: &RetryPolicy,
    obs: Obs<'_>,
    tables: Option<&SeedTableFn<'_>>,
) -> WgaResult<AssemblyReport> {
    let threads = options.threads;
    let queue_depth = options.queue_depth;
    let tchroms = target.chromosomes();
    let qchroms = query.chromosomes();
    let qn = qchroms.len();
    let npairs = tchroms.len() * qn;

    // Take journaled pairs up front; the producer skips them entirely.
    obs.set_total_pairs(npairs as u64);
    let mut resumed: Vec<Option<PairRecord>> = Vec::with_capacity(npairs);
    for tchrom in tchroms {
        for qchrom in qchroms {
            let record = journal.as_mut().and_then(|j| j.take(&tchrom.name, &qchrom.name));
            if let Some(record) = &record {
                obs.pair_done(record);
            }
            resumed.push(record);
        }
    }
    let resumed_flags: Vec<bool> = resumed.iter().map(Option::is_some).collect();

    let filter_q: BoundedQueue<FilterTask<'_>> = BoundedQueue::new(queue_depth);
    let extend_q: BoundedQueue<PairJob<'_>> = BoundedQueue::new(queue_depth);
    let done_q: BoundedQueue<PairDone> = BoundedQueue::new(queue_depth);
    let mut cells: Vec<Mutex<Option<PairJob<'_>>>> = Vec::with_capacity(npairs);
    cells.resize_with(npairs, || Mutex::new(None));
    let cells = &cells[..];

    let seed_meter = StageMeter::default();
    let filter_meter = StageMeter::default();
    let ext_meter = StageMeter::default();
    let table_build_ns = AtomicU64::new(0);
    let filter_alive = AtomicUsize::new(threads);
    let ext_alive = AtomicUsize::new(threads);

    // Supervision state: the fault injector rides in on `obs` (built by
    // `align_assemblies_observed`), every stage bumps the heartbeat on
    // each unit of progress, and — when `--stall-timeout-ms` is set — a
    // watchdog thread escalates a flat heartbeat by closing every queue,
    // so a wedged run drains into `Failed` pairs instead of hanging.
    let injector = obs.fault();
    let heartbeat = AtomicU64::new(0);
    let watchdog_stop = AtomicBool::new(false);
    let stalls = AtomicU64::new(0);

    let (mut slots, journal_err, escaped) = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        // --- Stall watchdog --------------------------------------------
        if options.stall_timeout_ms > 0 {
            let (filter_q, extend_q, done_q) = (&filter_q, &extend_q, &done_q);
            let (watchdog_stop, heartbeat, stalls) = (&watchdog_stop, &heartbeat, &stalls);
            let timeout_ms = options.stall_timeout_ms;
            workers.push(scope.spawn(move || {
                supervise::watch_heartbeat(watchdog_stop, heartbeat, timeout_ms, || {
                    stalls.fetch_add(1, Ordering::Relaxed);
                    if let Some(inj) = injector {
                        inj.request_abort();
                    }
                    filter_q.close();
                    extend_q.close();
                    done_q.close();
                });
            }));
        }
        // --- Seeding producer ------------------------------------------
        {
            let (filter_q, extend_q, done_q) = (&filter_q, &extend_q, &done_q);
            let (seed_meter, table_build_ns) = (&seed_meter, &table_build_ns);
            let (resumed_flags, heartbeat) = (&resumed_flags, &heartbeat);
            workers.push(scope.spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    produce(
                        params,
                        tchroms,
                        qchroms,
                        resumed_flags,
                        cells,
                        filter_q,
                        extend_q,
                        done_q,
                        seed_meter,
                        table_build_ns,
                        heartbeat,
                        retry_policy,
                        obs,
                        tables,
                    )
                }));
                // Whatever happened, release the filter pool.
                filter_q.close();
            }));
        }

        // --- Filter and extension worker pools -------------------------
        for _ in 0..threads {
            let (filter_q, extend_q, done_q) = (&filter_q, &extend_q, &done_q);
            let (filter_meter, filter_alive) = (&filter_meter, &filter_alive);
            let (ext_meter, ext_alive) = (&ext_meter, &ext_alive);
            let heartbeat = &heartbeat;
            workers.push(scope.spawn(move || {
                filter_worker(
                    params,
                    filter_q,
                    extend_q,
                    cells,
                    filter_alive,
                    filter_meter,
                    heartbeat,
                    retry_policy,
                    obs,
                )
            }));
            workers.push(scope.spawn(move || {
                extend_worker(params, extend_q, done_q, ext_alive, ext_meter, heartbeat, retry_policy, obs)
            }));
        }

        // --- Collector (this thread): journal + gather -----------------
        let mut slots: Vec<Option<PairRecord>> = vec![None; npairs];
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
            let names = (
                tchroms[done.pair_id / qn].name.as_str(),
                qchroms[done.pair_id % qn].name.as_str(),
            );
            // Once an append has failed the journal is left alone.
            let journal = journal.as_mut().filter(|_| journal_err.is_none());
            let pair_obs = obs.with_pair(done.pair_id as u64);
            match commit_pair(names, done.result, journal, retry_policy, pair_obs) {
                Ok(record) => slots[done.pair_id] = Some(record),
                Err(e) => {
                    // The journal is broken: stop feeding the pipeline,
                    // drain what's in flight, and surface the error
                    // after the scope ends.
                    journal_err = Some(e);
                    filter_q.close();
                    extend_q.close();
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
        (slots, journal_err, escaped)
    });
    if let Some(payload) = escaped {
        // An executor bug, not a pair failure; surface it like the
        // barrier executor would.
        resume_unwind(payload);
    }
    if let Some(e) = journal_err {
        return Err(e);
    }

    // --- Deterministic assembly in canonical pair order -----------------
    let mut out = AssemblyReport::default();
    out.timings.seeding += Duration::from_nanos(table_build_ns.load(Ordering::Relaxed));
    let stalls_detected = stalls.load(Ordering::Relaxed);
    for (pair_id, record) in resumed.into_iter().enumerate() {
        if let Some(record) = record {
            replay_pair(&mut out, record);
            continue;
        }
        let record = slots[pair_id].take().unwrap_or_else(|| {
            let error = if stalls_detected > 0 {
                format!(
                    "pair stalled: no progress for {}ms; aborted by watchdog",
                    options.stall_timeout_ms
                )
            } else {
                "pair dropped: dataflow run aborted".to_string()
            };
            PairRecord::failed(&tchroms[pair_id / qn].name, &qchroms[pair_id % qn].name, error)
        });
        fold_pair(&mut out, record);
    }
    out.alignments
        .sort_by_key(|a| std::cmp::Reverse(a.aligned.alignment.score));
    out.counters.stalls_detected += stalls_detected;
    let mut metrics = ExecutorMetrics::from_report(ExecutorKind::Dataflow, threads, &out, injector);
    metrics.queue_depth = queue_depth;
    metrics.stalls_detected = stalls_detected;
    metrics.extension.workers = threads;
    seed_meter.fill(&mut metrics.seeding, 0);
    filter_meter.fill(&mut metrics.filtering, filter_q.max_occupancy());
    ext_meter.fill(&mut metrics.extension, extend_q.max_occupancy());
    out.stage_metrics = Some(metrics);
    Ok(out)
}

/// The seeding producer: dispatches pairs smallest-remaining-work-first
/// (ties broken by pair id, so uniform matrices keep the old FIFO
/// walk), registers each non-resumed pair's cell and streams both its
/// strands under panic isolation, a range's hits at a time, into
/// `filter_q` (blocking on backpressure). Dispatch order never reaches
/// canonical output: the collector assembles results in pair-id order,
/// and fault occurrences are counted per `(hook, pair)`.
#[allow(clippy::too_many_arguments)]
fn produce<'a>(
    params: &WgaParams,
    tchroms: &'a [genome::assembly::Chromosome],
    qchroms: &'a [genome::assembly::Chromosome],
    resumed_flags: &[bool],
    cells: &[Mutex<Option<PairJob<'a>>>],
    filter_q: &BoundedQueue<FilterTask<'a>>,
    extend_q: &BoundedQueue<PairJob<'a>>,
    done_q: &BoundedQueue<PairDone>,
    seed_meter: &StageMeter,
    table_build_ns: &AtomicU64,
    heartbeat: &AtomicU64,
    retry_policy: &RetryPolicy,
    obs: Obs<'_>,
    tables: Option<&SeedTableFn<'_>>,
) {
    let qn = qchroms.len();
    let injector = obs.fault();

    // Smallest pairs drain first so the long tail of one big pair
    // overlaps the rest of the matrix instead of serialising ahead of
    // it (the work estimate is the bases on both sides — every pipeline
    // stage scales with it).
    let mut order: Vec<usize> = (0..tchroms.len() * qn)
        .filter(|&pair_id| !resumed_flags[pair_id])
        .collect();
    order.sort_by_key(|&pair_id| {
        let estimate =
            tchroms[pair_id / qn].sequence.len() + qchroms[pair_id % qn].sequence.len();
        (estimate, pair_id)
    });

    // A target row's seed table lives from the row's first dispatched
    // pair to its last, then drops — built lazily (a fully-journaled
    // row never builds), at most once per run.
    let mut row_remaining: Vec<usize> = vec![0; tchroms.len()];
    for &pair_id in &order {
        row_remaining[pair_id / qn] += 1;
    }
    let mut row_tables: Vec<Option<Result<Arc<SeedTable>, String>>> = vec![None; tchroms.len()];

    for pair_id in order {
        let ti = pair_id / qn;
        let tchrom = &tchroms[ti];
        let qchrom = &qchroms[pair_id % qn];
        let pair_obs = obs.with_pair(pair_id as u64);
        row_remaining[ti] -= 1;

        // `Err` fails this pair; `Ok(false)` means a queue closed under
        // us (shutdown in progress) and the producer is done.
        let mut dispatch = || -> Result<bool, String> {
            let table = row_tables[ti].get_or_insert_with(|| {
                row_seed_table(params, &tchrom.sequence, ti, tables, pair_obs).map(
                    |(table, build_time)| {
                        table_build_ns.fetch_add(build_time.as_nanos() as u64, Ordering::Relaxed);
                        table
                    },
                )
            });
            let table = table.as_ref().map_err(|message| message.clone())?;

            // Queues one filter task: `Err` fails the pair, `Ok(false)`
            // means shutdown is in progress (journal failure).
            let push = |task: FilterTask<'a>| -> Result<bool, String> {
                let pair = pair_obs.pair();
                supervise::supervised(retry_policy, injector, Hook::QueuePush, pair, Some(&pair_obs), || Ok(()))
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
                heartbeat.fetch_add(1, Ordering::Relaxed);
                Ok(true)
            };
            let (target, query) = (&tchrom.sequence, &qchrom.sequence);
            let streamed =
                stream_pair(params, table, target, query, pair_id, cells, extend_q, push, pair_obs);
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

        // Row finished: release its table before moving to the next
        // dispatched pair, bounding live tables by the number of
        // in-progress rows (one, since dispatch is sequential).
        if row_remaining[ti] == 0 {
            row_tables[ti] = None;
        }
    }
}

/// One filter-pool worker: pops range batches off `filter_q` until it
/// closes, runs each through [`filter_batch`] and deposits the result
/// in the pair's cell. A run of tasks of one strand shares one engine —
/// its DP scratch is drawn per worker and strand, not per range. The
/// last of the pool's `alive` workers out — normally or unwinding —
/// closes `extend_q`.
#[allow(clippy::too_many_arguments)]
fn filter_worker<'a>(
    params: &WgaParams,
    filter_q: &BoundedQueue<FilterTask<'a>>,
    extend_q: &BoundedQueue<PairJob<'a>>,
    cells: &[Mutex<Option<PairJob<'a>>>],
    alive: &AtomicUsize,
    meter: &StageMeter,
    heartbeat: &AtomicU64,
    retry_policy: &RetryPolicy,
    obs: Obs<'_>,
) {
    let _guard = PoolGuard {
        alive,
        downstream: extend_q,
    };
    let mut wait_buf = obs.buffer();
    // The next task, with the wait for it metered (a named fn, so
    // `wga-lint` sees this stage's pop beside its push).
    fn pop<'a>(
        filter_q: &BoundedQueue<FilterTask<'a>>,
        meter: &StageMeter,
        buf: &mut SpanBuf<'_>,
    ) -> Option<FilterTask<'a>> {
        let wait_timer = buf.start();
        let wait = Instant::now();
        let task = filter_q.pop()?;
        meter.add_idle(wait.elapsed());
        let pair = task.stream.pair_id as u64;
        buf.finish_for_pair(wait_timer, SpanName::QueueWait, pair, STRAND_NA, QUEUE_FILTER_POP, 0, 0);
        Some(task)
    }
    let mut pop = || pop(filter_q, meter, &mut wait_buf);
    let mut next = pop();
    while let Some(first) = next.take() {
        let stream = Arc::clone(&first.stream);
        let mut engine = stream.ctx.engine();
        let pair_obs = obs.with_pair(stream.pair_id as u64);
        let mut same_stream = Some(first);
        while let Some(FilterTask { batch_idx, hits, .. }) = same_stream.take() {
            let pair = pair_obs.pair();
            let gate =
                supervise::supervised(retry_policy, obs.fault(), Hook::QueuePop, pair, Some(&pair_obs), || Ok(()));
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
            // `false` only while a shutdown is racing us; the pair is
            // then reported as dropped by the final assembly.
            update_cell(cells, extend_q, stream.pair_id, |job| {
                job.lanes[stream.lane_idx].batches.push(result);
                job.outstanding -= 1;
            });
            heartbeat.fetch_add(1, Ordering::Relaxed);
            next = pop();
            if next.as_ref().is_some_and(|task| Arc::ptr_eq(&task.stream, &stream)) {
                same_stream = next.take();
            }
        }
    }
}

/// One extension-pool worker: pops whole pairs off `extend_q` until it
/// closes, runs [`extend_pair`] under panic containment and hands the
/// outcome to the collector. The last of the pool's `alive` workers
/// out closes `done_q`.
#[allow(clippy::too_many_arguments)]
fn extend_worker(
    params: &WgaParams,
    extend_q: &BoundedQueue<PairJob<'_>>,
    done_q: &BoundedQueue<PairDone>,
    alive: &AtomicUsize,
    meter: &StageMeter,
    heartbeat: &AtomicU64,
    retry_policy: &RetryPolicy,
    obs: Obs<'_>,
) {
    let _guard = PoolGuard {
        alive,
        downstream: done_q,
    };
    let injector = obs.fault();
    let mut wait_buf = obs.buffer();
    loop {
        let wait_timer = wait_buf.start();
        let wait = Instant::now();
        let Some(job) = extend_q.pop() else { break };
        meter.add_idle(wait.elapsed());
        wait_buf.finish_for_pair(
            wait_timer,
            SpanName::QueueWait,
            job.pair_id as u64,
            STRAND_NA,
            QUEUE_EXTEND_POP,
            0,
            0,
        );
        let pair_id = job.pair_id;
        let pair_obs = obs.with_pair(pair_id as u64);
        let pair = pair_obs.pair();
        let gate =
            supervise::supervised(retry_policy, injector, Hook::QueuePop, pair, Some(&pair_obs), || Ok(()));
        // A pair whose retry budget an earlier stage already exhausted
        // fails here instead of burning extension work — the same
        // `Failed` the other schedules reach through their pair-level
        // panic containment.
        let result = match gate {
            Err(error) => Err(format!("queue.pop fault: {error}")),
            Ok(()) if injector.is_some_and(|inj| inj.is_poisoned(pair_id as u64)) => {
                Err(format!("injected fault: pair {pair_id}: retries exhausted"))
            }
            Ok(()) => catch_unwind(AssertUnwindSafe(|| extend_pair(params, job, pair_obs)))
                .map_err(|payload| panic_message(payload.as_ref())),
        };
        heartbeat.fetch_add(1, Ordering::Relaxed);
        if done_q.push(PairDone { pair_id, result }).is_err() {
            break;
        }
    }
}

/// Applies `update` to a pair's job under its cell's lock (nothing, if
/// the pair was cancelled) and then, if the producer has sealed the pair
/// and no queued batch is outstanding, promotes the job to the extension
/// queue. `false` if that queue had closed.
fn update_cell<'a>(
    cells: &[Mutex<Option<PairJob<'a>>>],
    extend_q: &BoundedQueue<PairJob<'a>>,
    pair_id: usize,
    update: impl FnOnce(&mut PairJob<'a>),
) -> bool {
    let mut slot = cells[pair_id].lock();
    let Some(job) = slot.as_mut() else {
        return true;
    };
    update(job);
    if !job.sealed || job.outstanding > 0 {
        return true;
    }
    let job = slot.take();
    drop(slot);
    job.is_none_or(|job| extend_q.push(job).is_ok())
}

/// Streams both strands of one pair into the filter pool: registers the
/// pair's cell, opens each strand ([`seed_lane`]: its chaos gate, and a
/// budgeted strand's clamp — the reverse strand's charges the forward
/// strand's *queued* tiles, see module docs for the single divergence
/// this implies), then seeds range after range, moving each range's hits
/// into a task for `push`, and seals the pair. `Ok(false)` is `push`'s
/// (shutdown). On `push`'s `Err` — a fault that survived its retry
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
    extend_q: &BoundedQueue<PairJob<'a>>,
    push: impl Fn(FilterTask<'a>) -> Result<bool, String>,
    obs: Obs<'_>,
) -> Result<bool, String> {
    let pair_start = Instant::now();
    *cells[pair_id].lock() = Some(PairJob { pair_id, ..PairJob::default() });
    let streamed = catch_unwind(AssertUnwindSafe(|| {
        let mut scratch = DsoftScratch::default();
        let mut tiles_queued = 0u64;
        let mut strands = vec![(StrandSeq::Forward(query), Strand::Forward)];
        if params.both_strands {
            strands.push((StrandSeq::Reverse(query.reverse_complement()), Strand::Reverse));
        }
        for (lane_idx, (query, strand)) in strands.into_iter().enumerate() {
            let ranges = QueryRanges::new(params.shard_bases, params.dsoft.chunk_size, query.seq().len());
            let (mut seeded, kept) =
                seed_lane(params, table, query.seq(), strand, ranges, 1, tiles_queued, obs);
            let ctx_start = Instant::now();
            let ctx = FilterContext::new(params, target, query.seq());
            let ctx_time = ctx_start.elapsed();
            let stream = Arc::new(Stream { pair_id, lane_idx, strand, pair_start, target, query, ctx });
            // The strand's accounting is filed when its last range is seeded.
            let lane = Lane { stream: Arc::clone(&stream), seeded: SeededLane::default(), ctx_time, batches: Vec::new() };
            update_cell(cells, extend_q, pair_id, |job| job.lanes.push(lane));
            let query = stream.query.seq();
            for batch_idx in 0..ranges.count() {
                let kept = kept.as_deref();
                let (cost, hits) =
                    seed_range(params, table, query, strand, ranges, batch_idx, kept, &mut scratch, obs);
                seeded.add(cost);
                if hits.is_empty() {
                    continue;
                }
                tiles_queued += hits.len() as u64;
                update_cell(cells, extend_q, pair_id, |job| job.outstanding += 1);
                if !push(FilterTask { stream: Arc::clone(&stream), batch_idx, hits })? {
                    return Ok(false);
                }
            }
            update_cell(cells, extend_q, pair_id, |job| job.lanes[lane_idx].seeded = seeded);
        }
        // No hits anywhere, or every batch already deposited: the pair goes
        // straight to extension (it still carries seeding counters and
        // clamp events).
        Ok(update_cell(cells, extend_q, pair_id, |job| job.sealed = true))
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
    for Lane { stream, seeded, ctx_time, batches } in job.lanes {
        let (start, query) = (stream.pair_start, stream.query.seq());
        let anchors = fold_batches(params, seeded, ctx_time, batches, start, &mut report);
        extend_anchors(params, stream.target, query, stream.strand, anchors, start, &mut report, obs);
    }
    report
        .alignments
        .sort_by_key(|a| std::cmp::Reverse(a.alignment.score));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::STRAND_FWD;
    use crate::report::{RunEvent, StageKind};
    use crate::shard::run_sharded;

    /// Batch containment is one piece of code ([`filter_batch`] +
    /// [`fold_batches`]), so it is tested once: the same poisoned hit
    /// list, cut into the same query ranges, keeps every healthy range's
    /// anchors and records exactly one failed batch — the poisoned hit's
    /// range, by the same index — whether the ranges run inline (the
    /// one-thread schedule), through [`run_sharded`] (barrier) or through
    /// the dataflow filter pool.
    #[test]
    fn panicking_batch_is_isolated_on_every_schedule() {
        let core = "ACGGTCAGTCGATTGCAGTCCATGGACTGATC".repeat(40); // 1280 bp
        let t: Sequence = core.parse().unwrap();
        let q = t.clone();
        let mut params = WgaParams::darwin_wga();
        params.shard_bases = 256;
        let ranges = QueryRanges::new(params.shard_bases, params.dsoft.chunk_size, q.len());
        assert_eq!(ranges.count(), 5);
        let ctx = FilterContext::new(&params, &t, &q);
        let pair_start = Instant::now();
        // A hit every 320 bp — ranges 0, 1, 2 and 3 — then one in range 4
        // that panics its batch (and the batch's one retry).
        let mut hits: Vec<SeedHit> = (0..4).map(|i| SeedHit::new(i * 320, i * 320)).collect();
        hits.push(SeedHit::new(u32::MAX as usize, 1100));
        let in_range = |hits: &[SeedHit], idx: usize| -> Vec<SeedHit> {
            let of = |hit: &&SeedHit| ranges.index_of(hit.query_pos as usize) == idx;
            hits.iter().filter(of).copied().collect()
        };

        let fold = |batches: Vec<BatchResult>| {
            let mut report = WgaReport::default();
            let lane = SeededLane::default();
            let anchors =
                fold_batches(&params, lane, Duration::ZERO, batches, pair_start, &mut report);
            (anchors, report)
        };
        let sharded = |hits: &[SeedHit], threads: usize| {
            fold(run_sharded(ranges.count(), threads, || ctx.engine(), |engine, i| {
                let batch = in_range(hits, i);
                filter_batch(&params, engine, &t, &q, &batch, pair_start, STRAND_FWD, i, Obs::off())
            }))
        };
        let pooled = |hits: &[SeedHit]| {
            let filter_q = BoundedQueue::new(2);
            let extend_q = BoundedQueue::new(1);
            let stream = Arc::new(Stream {
                pair_id: 0,
                lane_idx: 0,
                strand: Strand::Forward,
                pair_start,
                target: &t,
                query: StrandSeq::Forward(&q),
                ctx: FilterContext::new(&params, &t, &q),
            });
            let (seeded, ctx_time) = (SeededLane::default(), Duration::ZERO);
            let lane = Lane { stream: Arc::clone(&stream), seeded, ctx_time, batches: Vec::new() };
            let cells = [Mutex::new(Some(PairJob { lanes: vec![lane], ..PairJob::default() }))];
            let alive = AtomicUsize::new(2);
            let (meter, heartbeat) = (StageMeter::default(), AtomicU64::new(0));
            let policy = RetryPolicy::default();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let obs = Obs::off();
                        filter_worker(&params, &filter_q, &extend_q, &cells, &alive, &meter, &heartbeat, &policy, obs)
                    });
                }
                for batch_idx in 0..ranges.count() {
                    let task = FilterTask { stream: Arc::clone(&stream), batch_idx, hits: in_range(hits, batch_idx) };
                    update_cell(&cells, &extend_q, 0, |job| job.outstanding += 1);
                    assert!(filter_q.push(task).is_ok());
                }
                assert!(update_cell(&cells, &extend_q, 0, |job| job.sealed = true));
                filter_q.close();
            });
            let mut job = extend_q.pop().expect("the last deposit, or the seal, promotes the pair");
            assert!(extend_q.pop().is_none(), "the last worker out closes extend_q");
            fold(job.lanes.remove(0).batches)
        };

        let (clean, clean_report) = sharded(&hits[..4], 1);
        assert!(clean_report.events.is_empty());
        assert!(!clean.is_empty());
        for (schedule, (anchors, report)) in [
            ("inline", sharded(&hits, 1)),
            ("run_sharded", sharded(&hits, 4)),
            ("dataflow pool", pooled(&hits)),
        ] {
            assert_eq!(anchors, clean, "{schedule}: healthy batches keep their anchors");
            assert_eq!(report.workload.filter_tiles, 4, "{schedule}");
            let cells = clean_report.counters.filter_cells;
            assert_eq!(report.counters.filter_cells, cells, "{schedule}: the failed batch's cells stay out");
            match &report.events[..] {
                [RunEvent::BatchFailed { stage, batch, items, message }] => {
                    assert_eq!((*stage, *batch, *items), (StageKind::Filtering, 4, 1), "{schedule}");
                    assert!(message.contains("poisoned"), "{schedule}: {message}");
                }
                other => panic!("{schedule}: expected one failed batch, got {other:?}"),
            }
        }
    }
}
