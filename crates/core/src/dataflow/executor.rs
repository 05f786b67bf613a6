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
//! order, builds each target row's seed table once, runs D-SOFT per
//! strand, applies the shared budget clamp ([`crate::budget`]) and cuts
//! the clamped hit list into fixed-size tile batches pushed into
//! `filter_q`. Filter workers run batches through the pair's shared
//! [`FilterContext`] and deposit results into the pair's cell; the
//! worker that deposits a pair's last batch promotes the whole pair into
//! `extend_q`. Extension workers run the sequential anchor-absorption
//! stage per pair — a pair is one *stream*, so absorption state never
//! crosses threads — and emit the finished [`WgaReport`] into `done_q`,
//! where the collector journals it (the pair is the checkpoint unit,
//! exactly as in the barrier executor).
//!
//! Only the queues, pools, guards and watchdog live here. Every step a
//! pair goes through — [`row_seed_table`], [`seed_lane`],
//! [`filter_batch`], [`fold_batches`], [`extend_anchors`],
//! [`commit_pair`], [`replay_pair`] — is the function the one-thread
//! and barrier schedules call (see [`crate::stages`]).
//!
//! # Determinism
//!
//! Batches execute in arbitrary order but deposit into index-addressed
//! slots; the extension stage reads them back in batch order, so anchors
//! reach [`extend_anchors`] in hit order — the same order the barrier
//! executor produces. The collector stores per-pair results by pair id
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
//! strand's clamp assumes every planned forward tile executes). Absent a
//! deadline or a double-panicked batch, planned == executed and the
//! clamp is identical to the barrier's; under a mid-pair deadline or a
//! failed batch with `max_filter_tiles` set on a both-strand run, the
//! reverse strand may be clamped slightly tighter than the barrier
//! executor would. Deadline runs are inherently timing-dependent, so no
//! golden test covers that combination.

use crate::config::WgaParams;
use crate::dataflow::metrics::{ExecutorMetrics, StageMeter};
use crate::dataflow::ExecutorKind;
use crate::obs::{strand_code, Counter, Obs, SpanName, STRAND_NA};

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
use crate::faultsim::{FaultInjector, Hook};
use crate::filter_engine::FilterContext;
use crate::genome_pipeline::{AlignOptions, AssemblyReport, SeedTableFn};
use crate::journal::{Journal, PairRecord};
use crate::report::{Strand, WgaReport};
use crate::stages::{
    commit_pair, extend_anchors, filter_batch, fold_batches, fold_pair, replay_pair,
    row_seed_table, seed_lane, BatchResult, SeededLane,
};
use crate::supervise::{self, panic_message, RetryPolicy};
use crate::sync::Mutex;
use genome::assembly::Assembly;
use genome::Sequence;
use seed::{SeedHit, SeedTable};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed hits per filter task. Small enough that a pair's tiles spread
/// across the pool, large enough to amortise queue traffic and engine
/// scratch reuse (the hardware streams tiles through its arrays in
/// batches for the same reason).
const FILTER_BATCH_TILES: usize = 64;

/// A query strand's sequence: the forward strand borrows the assembly,
/// the reverse strand owns its reverse complement behind an `Arc` shared
/// by every task of the lane.
#[derive(Clone)]
enum StrandSeq<'a> {
    Forward(&'a Sequence),
    Reverse(Arc<Sequence>),
}

impl StrandSeq<'_> {
    fn seq(&self) -> &Sequence {
        match self {
            StrandSeq::Forward(s) => s,
            StrandSeq::Reverse(s) => s,
        }
    }
}

/// One (pair, strand) stream planned by the producer.
struct Lane<'a> {
    strand: Strand,
    query: StrandSeq<'a>,
    /// The strand's seeding accounting.
    seeded: SeededLane,
    /// [`FilterContext`] build wall-clock (counted as filtering time,
    /// matching the barrier executor's accounting).
    ctx_time: Duration,
    /// Filter results, index-addressed by batch; `deposited` counts how
    /// many are in.
    batches: Vec<Option<BatchResult>>,
    deposited: usize,
}

/// All filter-stage state of one chromosome pair in flight.
struct PairJob<'a> {
    pair_id: usize,
    pair_start: Instant,
    target: &'a Sequence,
    lanes: Vec<Lane<'a>>,
}

/// One batch of seed hits for the filter pool.
struct FilterTask<'a> {
    pair_id: usize,
    lane_idx: usize,
    strand: Strand,
    batch_idx: usize,
    hits: Vec<SeedHit>,
    ctx: Arc<FilterContext>,
    target: &'a Sequence,
    query: StrandSeq<'a>,
    pair_start: Instant,
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
    let mut resumed: Vec<Option<PairRecord>> = Vec::with_capacity(npairs);
    for tchrom in tchroms {
        for qchrom in qchroms {
            resumed.push(
                journal
                    .as_mut()
                    .and_then(|j| j.take(&tchrom.name, &qchrom.name)),
            );
        }
    }
    let resumed_flags: Vec<bool> = resumed.iter().map(Option::is_some).collect();
    obs.set_total_pairs(npairs as u64);
    obs.add(
        Counter::PairsDone,
        resumed_flags.iter().filter(|f| **f).count() as u64,
    );

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
                        threads,
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
/// walk), plans both strands of each non-resumed pair under panic
/// isolation, registers the pair's cell and feeds tile batches into
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
    threads: usize,
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

            let planned = catch_unwind(AssertUnwindSafe(|| {
                plan_pair(params, table, &tchrom.sequence, &qchrom.sequence, pair_id, threads, pair_obs)
            }));
            heartbeat.fetch_add(1, Ordering::Relaxed);
            // The job and its tasks are complete *before* registration,
            // so a worker depositing the last batch always finds
            // complete batch counts.
            let (job, tasks) = planned.map_err(|payload| panic_message(payload.as_ref()))?;
            if tasks.is_empty() {
                // No hits anywhere: nothing for the filter pool, hand the
                // pair straight to extension (it still carries seeding
                // counters and clamp events).
                return Ok(extend_q.push(job).is_ok());
            }
            set_cell(cells, pair_id, Some(job));
            for task in tasks {
                if let Err(error) =
                    gate_queue(injector, retry_policy, Hook::QueuePush, pair_id as u64, &pair_obs)
                {
                    // The push fault survived its retry budget: cancel
                    // the pair (workers find its cell empty and drop
                    // their deposits) and fail it through `done_q`.
                    set_cell(cells, pair_id, None);
                    return Err(format!("queue.push fault: {error}"));
                }
                let mut wait_buf = obs.buffer();
                let wait_timer = wait_buf.start();
                let wait = Instant::now();
                if filter_q.push(task).is_err() {
                    return Ok(false); // shutdown in progress (journal failure)
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
            }
            Ok(true)
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

/// One filter-pool worker: pops tile batches off `filter_q` until it
/// closes, runs each through [`filter_batch`] and deposits the result
/// in the pair's cell. The last of the pool's `alive` workers out —
/// normally or unwinding — closes `extend_q`.
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
    loop {
        let wait_timer = wait_buf.start();
        let wait = Instant::now();
        let Some(task) = filter_q.pop() else { break };
        meter.add_idle(wait.elapsed());
        wait_buf.finish_for_pair(
            wait_timer,
            SpanName::QueueWait,
            task.pair_id as u64,
            STRAND_NA,
            QUEUE_FILTER_POP,
            0,
            0,
        );
        let pair_obs = obs.with_pair(task.pair_id as u64);
        let gate = gate_queue(obs.fault(), retry_policy, Hook::QueuePop, task.pair_id as u64, &pair_obs);
        let result = match gate {
            Ok(()) => filter_batch(
                params,
                &task.ctx,
                task.target,
                task.query.seq(),
                &task.hits,
                task.pair_start,
                strand_code(task.strand),
                task.batch_idx,
                pair_obs,
            ),
            // A queue fault that survives its retry budget fails the
            // batch (and, downstream, the pair).
            Err(error) => {
                BatchResult::failed(task.hits.len() as u64, format!("queue.pop fault: {error}"))
            }
        };
        deposit(cells, extend_q, &task, result);
        heartbeat.fetch_add(1, Ordering::Relaxed);
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
        let gate = gate_queue(injector, retry_policy, Hook::QueuePop, pair_id as u64, &pair_obs);
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

/// Registers a planned pair's cell for the filter pool's deposits, or
/// (with `None`) cancels it.
fn set_cell<'a>(cells: &[Mutex<Option<PairJob<'a>>>], pair_id: usize, job: Option<PairJob<'a>>) {
    *cells[pair_id].lock() = job;
}

/// Supervised chaos gate on a queue operation: injected errors are
/// retried with the run's backoff policy (counted into the injector's
/// totals), injected panics are contained to an error, and the failure
/// that survives the budget is returned for the caller to escalate.
fn gate_queue(
    injector: Option<&FaultInjector>,
    policy: &RetryPolicy,
    hook: Hook,
    pair: u64,
    obs: &Obs<'_>,
) -> Result<(), String> {
    let Some(inj) = injector else {
        return Ok(());
    };
    let site = (hook.code() << 32) | (pair & 0xFFFF_FFFF);
    supervise::retry_io(
        policy,
        site,
        |_| inj.count_retry(pair),
        || match catch_unwind(AssertUnwindSafe(|| inj.gate_io(hook, pair, Some(obs)))) {
            Ok(result) => result,
            Err(payload) => Err(WgaError::io(
                hook.as_str(),
                std::io::Error::other(panic_message(payload.as_ref())),
            )),
        },
    )
    .map_err(|e| e.to_string())
}

/// Seeds and clamps both strands of one pair and cuts each strand's
/// hits into filter tasks. The reverse strand's tile clamp charges the
/// forward strand's *planned* tiles (see module docs for the single
/// divergence this implies).
fn plan_pair<'a>(
    params: &WgaParams,
    table: &SeedTable,
    target: &'a Sequence,
    query: &'a Sequence,
    pair_id: usize,
    threads: usize,
    obs: Obs<'_>,
) -> (PairJob<'a>, Vec<FilterTask<'a>>) {
    let pair_start = Instant::now();
    let mut lanes: Vec<Lane<'a>> = Vec::with_capacity(2);
    let mut tasks: Vec<FilterTask<'a>> = Vec::new();
    let mut tiles_planned = 0u64;
    let mut plan_lane = |query: StrandSeq<'a>, strand: Strand| {
        let (hits, seeded) =
            seed_lane(params, table, query.seq(), strand, threads, tiles_planned, obs);
        tiles_planned += hits.len() as u64;
        let ctx_start = Instant::now();
        let ctx = Arc::new(FilterContext::new(params, target, query.seq()));
        let ctx_time = ctx_start.elapsed();
        for (batch_idx, chunk) in hits.chunks(FILTER_BATCH_TILES).enumerate() {
            tasks.push(FilterTask {
                pair_id,
                lane_idx: lanes.len(),
                strand,
                batch_idx,
                hits: chunk.to_vec(),
                ctx: Arc::clone(&ctx),
                target,
                query: query.clone(),
                pair_start,
            });
        }
        let mut batches = Vec::new();
        batches.resize_with(hits.len().div_ceil(FILTER_BATCH_TILES), || None);
        lanes.push(Lane {
            strand,
            query,
            seeded,
            ctx_time,
            batches,
            deposited: 0,
        });
    };
    plan_lane(StrandSeq::Forward(query), Strand::Forward);
    if params.both_strands {
        let rc = Arc::new(query.reverse_complement());
        plan_lane(StrandSeq::Reverse(rc), Strand::Reverse);
    }
    let job = PairJob {
        pair_id,
        pair_start,
        target,
        lanes,
    };
    (job, tasks)
}

/// Files one batch result into its pair's cell; the worker that
/// completes the pair's last outstanding batch promotes the job to the
/// extension queue.
fn deposit<'a>(
    cells: &[Mutex<Option<PairJob<'a>>>],
    extend_q: &BoundedQueue<PairJob<'a>>,
    task: &FilterTask<'a>,
    result: BatchResult,
) {
    let mut slot = cells[task.pair_id].lock();
    let Some(job) = slot.as_mut() else {
        return; // pair was cancelled by a shutdown
    };
    let lane = &mut job.lanes[task.lane_idx];
    lane.batches[task.batch_idx] = Some(result);
    lane.deposited += 1;
    let complete = job.lanes.iter().all(|l| l.deposited == l.batches.len());
    if complete {
        // The slot is still `Some`: we just deposited into it above.
        if let Some(job) = slot.take() {
            drop(slot);
            // Err only while a shutdown is racing us; the pair is then
            // reported as dropped by the final assembly.
            let _ = extend_q.push(job);
        }
    }
}

/// The extension stage of one pair: reassembles each lane's anchors in
/// hit order from the deposited batches and runs the anchor-absorption
/// extension per lane, through the same accounting as every other
/// schedule.
fn extend_pair(params: &WgaParams, job: PairJob<'_>, obs: Obs<'_>) -> WgaReport {
    let mut report = WgaReport::default();
    for lane in job.lanes {
        // Every batch is deposited before a job is dispatched; an empty
        // slot means accounting went wrong, so surface it as a failed
        // batch instead of crashing the worker.
        let batches = lane.batches.into_iter().map(|slot| {
            slot.unwrap_or_else(|| BatchResult::failed(0, "batch missing at extension".into()))
        });
        let anchors =
            fold_batches(params, lane.seeded, lane.ctx_time, batches, job.pair_start, &mut report);
        extend_anchors(
            params,
            job.target,
            lane.query.seq(),
            lane.strand,
            anchors,
            job.pair_start,
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
    use crate::obs::STRAND_FWD;
    use crate::report::{RunEvent, StageKind};
    use crate::shard::run_sharded;

    /// Batch containment is one piece of code ([`filter_batch`] +
    /// [`fold_batches`]), so it is tested once: the same poisoned hit
    /// list, cut into the same one-hit batches, keeps every healthy
    /// batch's anchors and records exactly one failed batch whether the
    /// batches run inline (the one-thread schedule), through
    /// [`run_sharded`] (barrier) or through the dataflow filter pool.
    #[test]
    fn panicking_batch_is_isolated_on_every_schedule() {
        let core = "ACGGTCAGTCGATTGCAGTCCATGGACTGATC".repeat(40); // 1280 bp
        let t: Sequence = core.parse().unwrap();
        let q = t.clone();
        let params = WgaParams::darwin_wga();
        let ctx = Arc::new(FilterContext::new(&params, &t, &q));
        let pair_start = Instant::now();
        // A hit every 320 bp, then one that panics its batch (and the
        // batch's one retry).
        let mut hits: Vec<SeedHit> = (0..4).map(|i| SeedHit::new(i * 320, i * 320)).collect();
        hits.push(SeedHit::new(u32::MAX as usize, 0));

        let fold = |batches: Vec<BatchResult>| {
            let mut report = WgaReport::default();
            let lane = SeededLane::default();
            let anchors =
                fold_batches(&params, lane, Duration::ZERO, batches, pair_start, &mut report);
            (anchors, report)
        };
        let sharded = |hits: &[SeedHit], threads: usize| {
            fold(run_sharded(hits.len(), threads, |i| {
                let batch = &hits[i..=i];
                filter_batch(&params, &ctx, &t, &q, batch, pair_start, STRAND_FWD, i, Obs::off())
            }))
        };
        let pooled = |hits: &[SeedHit]| {
            let filter_q = BoundedQueue::new(2);
            let extend_q = BoundedQueue::new(1);
            let mut batches = Vec::new();
            batches.resize_with(hits.len(), || None);
            let cells = [Mutex::new(Some(PairJob {
                pair_id: 0,
                pair_start,
                target: &t,
                lanes: vec![Lane {
                    strand: Strand::Forward,
                    query: StrandSeq::Forward(&q),
                    seeded: SeededLane::default(),
                    ctx_time: Duration::ZERO,
                    batches,
                    deposited: 0,
                }],
            }))];
            let alive = AtomicUsize::new(2);
            let (meter, heartbeat) = (StageMeter::default(), AtomicU64::new(0));
            let policy = RetryPolicy::default();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        filter_worker(
                            &params,
                            &filter_q,
                            &extend_q,
                            &cells,
                            &alive,
                            &meter,
                            &heartbeat,
                            &policy,
                            Obs::off(),
                        )
                    });
                }
                for (batch_idx, &hit) in hits.iter().enumerate() {
                    let task = FilterTask {
                        pair_id: 0,
                        lane_idx: 0,
                        strand: Strand::Forward,
                        batch_idx,
                        hits: vec![hit],
                        ctx: Arc::clone(&ctx),
                        target: &t,
                        query: StrandSeq::Forward(&q),
                        pair_start,
                    };
                    assert!(filter_q.push(task).is_ok());
                }
                filter_q.close();
            });
            let mut job = extend_q.pop().expect("the last deposit promotes the pair");
            assert!(extend_q.pop().is_none(), "the last worker out closes extend_q");
            let lane = job.lanes.remove(0);
            fold(lane.batches.into_iter().map(|b| b.expect("deposited")).collect())
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
            assert_eq!(report.counters.hits_filtered, 4, "{schedule}");
            match &report.events[..] {
                [RunEvent::BatchFailed { stage, batch, items, message }] => {
                    assert_eq!((*stage, *batch, *items), (StageKind::Filtering, 4, 1));
                    assert!(message.contains("poisoned"), "{schedule}: {message}");
                }
                other => panic!("{schedule}: expected one failed batch, got {other:?}"),
            }
        }
    }
}
