//! The stage functions every schedule runs.
//!
//! The paper's machine has each stage once — D-SOFT in software, one
//! kind of BSW array, one kind of GACT-X array — and only the FIFOs
//! between them differ. So here: seeding (`seed_lane`, `seed_range`),
//! filtering (`filter_batch`, `fold_batches`), extension
//! (`extend_anchors`) and the per-run pair bookkeeping
//! (`row_seed_table`, `Journals`, `fold_pair`) each exist once, and the
//! thread count picks one of two *schedules* over them, both walking one
//! pair matrix (`genome_pipeline::PairMatrix`). The unit between seeding
//! and filtering is one query range ([`QueryRanges`]) on both: no
//! schedule holds a strand's hits.
//!
//! | step | 1 thread ([`crate::pipeline::run_pair`]) | N threads ([`crate::dataflow`]) |
//! |---|---|---|
//! | `Journals::replay` | before the walk, a block's journal at a time | before the pool starts, the same |
//! | `row_seed_table` | pair loop, once per row of the matrix | producer, once per row |
//! | `seed_lane` | per strand: the chaos gate; a reverse strand's budget is charged for what the forward strand kept | producer, per strand; the same |
//! | `seed_range` → `filter_batch` | per range, in a plain loop | per range, a pool task; the producer only queues it |
//! | `fold_batches` + `extend_anchors` | the calling thread | the pool worker that deposits the pair's last range; the producer, for a pair with none |
//! | `Journals::commit` | pair loop, row order, into the pair's block's journal | collector, completion order, the same |
//! | `fold_pair` | canonical-order assembly into block reports | the same |
//!
//! Budgets, deadlines, batch containment, fault gates, fault-accounting
//! freeze and journaling therefore cannot drift between the schedules.

use crate::absorb::{merge_into_kept, AbsorptionGrid};
use crate::budget::{deadline_event, SmallestHits};
use crate::config::WgaParams;
use crate::error::WgaResult;
use crate::faultsim::Hook;
use crate::filter_engine::FilterEngine;
use crate::genome_pipeline::{AssemblyReport, LocatedAlignment, PairMatrix};
use crate::journal::{params_fingerprint, Journal, JournalStats, PairRecord};
use crate::obs::{strand_code, HistKind, Obs, SpanName, STRAND_NA};
use crate::report::{
    BudgetKind, PairOutcome, RunEvent, StageKind, Strand, WgaAlignment, WgaReport,
};
use crate::shard::QueryRanges;
use crate::supervise::{self, panic_message, RetryPolicy};
use align::gactx::{self, ExtendedAlignment};
use genome::Sequence;
use seed::dsoft::{dsoft_seeds_range_in, DsoftScratch};
use seed::{Anchor, SeedHit, SeedTable};
use std::collections::btree_map::{BTreeMap, Entry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builds the seed table for `target`, returning it with the wall-clock
/// the build took.
///
/// Every schedule times the table build through this one helper and
/// adds only the returned duration to `timings.seeding` — measuring it
/// around a larger span (the old pattern) silently folded filtering and
/// extension time into the seeding figure.
pub(crate) fn timed_seed_table(params: &WgaParams, target: &Sequence) -> (SeedTable, Duration) {
    let start = Instant::now();
    let table = SeedTable::build(target, &params.seed_pattern, params.max_seed_occurrences);
    (table, start.elapsed())
}

/// Runs the configured extension from one anchor.
pub fn run_extension(
    params: &WgaParams,
    target: &Sequence,
    query: &Sequence,
    anchor: Anchor,
) -> Option<ExtendedAlignment> {
    gactx::extend_alignment(
        target,
        query,
        anchor.target_pos.min(target.len()),
        anchor.query_pos.min(query.len()),
        &params.scoring,
        &params.gaps,
        &params.extension.tiling(),
    )
}

/// Seeding accounting — a range's or a strand's, which [`fold_batches`]
/// sums and writes into the pair's report.
#[derive(Debug, Default)]
pub(crate) struct SeededLane {
    /// Seed positions D-SOFT queried.
    seeds_queried: u64,
    raw_hits: u64,
    /// D-SOFT wall-clock, range by range.
    seed_time: Duration,
    clamp_events: Vec<RunEvent>,
}

impl SeededLane {
    pub(crate) fn add(&mut self, range: &SeededLane) {
        self.seeds_queried += range.seeds_queried;
        self.raw_hits += range.raw_hits;
        self.seed_time += range.seed_time;
    }
}

/// The hits to filter in query range `idx` of a strand, in (target,
/// query) order, with what seeding them cost: the range's share of what
/// the budget `kept` ([`seed_lane`] has seeded the strand already), or,
/// streaming, a D-SOFT walk of the range, recorded as a `seed` span with
/// the range index as its `seq`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn seed_range(
    params: &WgaParams,
    table: &SeedTable,
    query: &Sequence,
    strand: Strand,
    ranges: QueryRanges,
    idx: usize,
    kept: Option<&[SeedHit]>,
    scratch: &mut DsoftScratch,
    obs: Obs<'_>,
) -> (SeededLane, Vec<SeedHit>) {
    if let Some(kept) = kept {
        let range_of = |hit: &SeedHit| ranges.index_of(hit.query_pos as usize);
        let start = kept.partition_point(|hit| range_of(hit) < idx);
        let len = kept[start..].partition_point(|hit| range_of(hit) == idx);
        return (SeededLane::default(), kept[start..start + len].to_vec());
    }
    let mut buf = obs.buffer();
    let seed_timer = buf.start();
    let start = Instant::now();
    let seeding = dsoft_seeds_range_in(table, query, &params.dsoft, ranges.get(idx), scratch);
    let seed_time = start.elapsed();
    let (found, seeds_queried) = (seeding.hits.len() as u64, seeding.seeds_queried);
    buf.finish(
        seed_timer,
        SpanName::Seed,
        strand_code(strand),
        idx as u64,
        found,
        seeds_queried,
    );
    let cost = SeededLane {
        seeds_queried,
        raw_hits: seeding.raw_hits,
        seed_time,
        ..SeededLane::default()
    };
    (cost, seeding.hits)
}

/// Opens one query strand: fires the strand's `filter.batch` chaos gate
/// and, when a seed-hit or filter-tile budget is set, settles what the
/// budget keeps. Returns the strand's accounting and, for a budgeted
/// strand, the hits to filter, grouped by range and in hit order inside
/// one; `None` means the caller streams. Either way the caller then
/// takes [`seed_range`] → [`filter_batch`] one range at a time.
///
/// The gate fires once per (pair, strand) on the thread driving the
/// pair, so `filter.batch` occurrence indices are the same on every
/// schedule; its escalation panic fails just this pair.
///
/// A budget keeps the first `take` hits of the strand in (target,
/// query) order and reports how many there were, which only the whole
/// walk can say: the strand is seeded here, range after range, holding
/// no more than [`SmallestHits`] does.
pub(crate) fn seed_lane(
    params: &WgaParams,
    table: &SeedTable,
    query: &Sequence,
    strand: Strand,
    ranges: QueryRanges,
    tiles_used: u64,
    obs: Obs<'_>,
) -> (SeededLane, Option<Vec<SeedHit>>) {
    obs.fault_gate(Hook::FilterBatch);
    let mut lane = SeededLane::default();
    if params.budget.max_seed_hits.is_none() && params.budget.max_filter_tiles.is_none() {
        return (lane, None);
    }
    let mut smallest = SmallestHits::new(params, tiles_used);
    let mut scratch = DsoftScratch::default();
    for idx in 0..ranges.count() {
        let (cost, hits) = seed_range(
            params,
            table,
            query,
            strand,
            ranges,
            idx,
            None,
            &mut scratch,
            obs,
        );
        smallest.absorb(&hits);
        lane.add(&cost);
    }
    let (clamp, mut kept) = smallest.finish(params, tiles_used);
    lane.clamp_events = clamp.events;
    kept.sort_by_key(|hit| ranges.index_of(hit.query_pos as usize));
    (lane, Some(kept))
}

/// What filtering one batch of seed hits — one query range's — produced.
#[derive(Debug, Default)]
pub(crate) struct BatchResult {
    /// The batch's range index.
    batch: usize,
    /// What seeding the range cost.
    seeded: SeededLane,
    /// The hits that passed, each with its anchor, in hit order within
    /// the batch. The hit is kept so [`fold_batches`] can put a strand's
    /// anchors back in hit order.
    survivors: Vec<(SeedHit, Anchor)>,
    /// Hits actually filtered (< `items` when the pair deadline stopped
    /// the batch early; 0 for a failed batch).
    processed: u64,
    /// Hits the batch carried.
    items: u64,
    /// DP cells evaluated.
    cells: u64,
    /// Filter wall-clock of the batch.
    busy: Duration,
    /// Why the batch produced nothing: the message of its second panic,
    /// or of the scheduling fault that kept it from running.
    failed: Option<String>,
}

impl BatchResult {
    /// Batch `batch` of `items` hits that produced nothing.
    pub(crate) fn failed(batch: usize, items: u64, message: String) -> BatchResult {
        BatchResult {
            batch,
            items,
            failed: Some(message),
            ..BatchResult::default()
        }
    }
}

/// Filters one range's hits, seeded at cost `seeded`, with the worker's
/// `engine` (drawn once per worker and strand from the strand's shared
/// [`FilterContext`], so its DP scratch serves every batch the worker
/// runs), stopping early if the pair deadline passes.
///
/// A panic inside the batch is contained: the batch is retried once
/// (transient poison often clears; a deterministic panic simply fires
/// again), and a second panic yields a failed result that
/// [`fold_batches`] records as [`RunEvent::BatchFailed`] while every
/// other batch's anchors are kept. The `filter.batch` span carries
/// `batch_idx` as its `seq`.
///
/// [`FilterContext`]: crate::filter_engine::FilterContext
#[allow(clippy::too_many_arguments)]
pub(crate) fn filter_batch(
    params: &WgaParams,
    engine: &mut FilterEngine<'_>,
    target: &Sequence,
    query: &Sequence,
    hits: &[SeedHit],
    seeded: SeededLane,
    pair_start: Instant,
    strand: u8,
    batch_idx: usize,
    obs: Obs<'_>,
) -> BatchResult {
    let mut attempt = || {
        catch_unwind(AssertUnwindSafe(|| {
            let start = Instant::now();
            let mut buf = obs.buffer();
            let batch_timer = buf.start();
            let mut survivors = Vec::new();
            let mut processed = 0u64;
            let mut cells = 0u64;
            for &hit in hits {
                if params.budget.deadline_exceeded(pair_start) {
                    break;
                }
                #[cfg(test)]
                poison_check(hit);
                let tile_timer = obs.timer();
                let outcome = engine.filter_hit(params, target, query, hit);
                obs.filter_tile(&tile_timer, outcome.cells);
                cells += outcome.cells;
                survivors.extend(outcome.anchor.map(|anchor| (hit, anchor)));
                processed += 1;
            }
            buf.finish(
                batch_timer,
                SpanName::FilterBatch,
                strand,
                batch_idx as u64,
                processed,
                cells,
            );
            BatchResult {
                batch: batch_idx,
                survivors,
                processed,
                items: hits.len() as u64,
                cells,
                busy: start.elapsed(),
                ..BatchResult::default()
            }
        }))
    };
    let result = attempt().or_else(|_| attempt()).unwrap_or_else(|payload| {
        BatchResult::failed(
            batch_idx,
            hits.len() as u64,
            panic_message(payload.as_ref()),
        )
    });
    BatchResult { seeded, ..result }
}

/// Test-only fault injection: a hit at `u32::MAX` (unreachable from
/// real seeding: the seed table's last position is one below it) panics
/// inside the filter batch.
#[cfg(test)]
fn poison_check(hit: SeedHit) {
    if hit.target_pos == u32::MAX {
        panic!("poisoned filter hit");
    }
}

/// Folds one strand's seeding accounting (`lane`'s and each batch's)
/// and its filter batches into `report`, and returns the strand's
/// anchors in hit order — (target, query), the order one D-SOFT walk of
/// the whole strand emits — so that neither the range size nor the order
/// batches finished in reaches the extension's stable score sort.
///
/// Event order is the same on every schedule: the strand's budget
/// clamps, one [`RunEvent::BatchFailed`] per failed batch in range
/// order, then a filtering-deadline event if any batch stopped short.
/// Filtering time is `ctx_time` (the filter context's build) plus every
/// batch's own wall-clock: time spent filtering, which at more than one
/// thread is more than the stage's elapsed time.
pub(crate) fn fold_batches(
    params: &WgaParams,
    mut lane: SeededLane,
    ctx_time: Duration,
    mut batches: Vec<BatchResult>,
    pair_start: Instant,
    report: &mut WgaReport,
) -> Vec<Anchor> {
    report.events.append(&mut lane.clamp_events);
    batches.sort_by_key(|batch| batch.batch);
    let mut survivors: Vec<(SeedHit, Anchor)> = Vec::new();
    let mut deadline_hit = false;
    let mut filter_time = ctx_time;
    for batch in batches {
        lane.add(&batch.seeded);
        if let Some(message) = batch.failed {
            report.events.push(RunEvent::BatchFailed {
                stage: StageKind::Filtering,
                batch: batch.batch,
                items: batch.items,
                message,
            });
            continue;
        }
        report.workload.filter_tiles += batch.processed;
        report.counters.filter_cells += batch.cells;
        deadline_hit |= batch.processed < batch.items;
        filter_time += batch.busy;
        survivors.extend(batch.survivors);
    }
    if deadline_hit {
        report.events.push(deadline_event(
            &params.budget,
            StageKind::Filtering,
            pair_start,
        ));
    }
    report.timings.seeding += lane.seed_time;
    report.workload.seeds += lane.seeds_queried;
    report.counters.raw_seed_hits += lane.raw_hits;
    report.timings.filtering += filter_time;
    report.counters.anchors_passed += survivors.len() as u64;
    survivors.sort_unstable_by_key(|&(hit, _)| hit);
    survivors.into_iter().map(|(_, anchor)| anchor).collect()
}

/// Extends `anchors` best-scoring-first with anchor absorption, budget
/// enforcement and deadline checks, appending results into `report`.
///
/// One thread extends a pair on every schedule: whether an anchor is
/// extended at all depends on what the better-scoring anchors before it
/// absorbed, so extensions run ahead of this loop are mostly thrown
/// away (EXPERIMENTS.md, "Speculative-extension waste"). The
/// extension-cell budget and the pair deadline are checked before each
/// anchor; on a trip a [`RunEvent::BudgetExceeded`] is recorded and the
/// remaining (worse-scoring) anchors are skipped.
///
/// `pair_start` anchors the per-pair wall-clock deadline.
#[allow(clippy::too_many_arguments)]
pub(crate) fn extend_anchors(
    params: &WgaParams,
    target: &Sequence,
    query: &Sequence,
    strand: Strand,
    mut anchors: Vec<Anchor>,
    pair_start: Instant,
    report: &mut WgaReport,
    obs: Obs<'_>,
) {
    let ext_start = Instant::now();
    let anchors_in = anchors.len() as u64;
    let scode = strand_code(strand);
    let mut buf = obs.buffer();
    // Lane-level `extend` span enclosing the whole commit loop; its id
    // is allocated up front so each `extend.tile` child can carry it
    // as `parent` before the lane span itself finishes.
    let lane_timer = buf.start();
    let lane_id = buf.alloc_id();
    buf.set_parent(lane_id);
    let mut lane_cells = 0u64;
    // Extend best-scoring anchors first so absorption favours strong
    // alignments — and so budget truncation drops the weakest work.
    anchors.sort_by_key(|a| std::cmp::Reverse(a.filter_score));
    let mut grid = AbsorptionGrid::new();
    let mut kept: Vec<align::Alignment> = Vec::new();
    for (seq, anchor) in anchors.into_iter().enumerate() {
        if let Some(limit) = params.budget.max_extension_cells {
            if report.workload.extension_cells >= limit {
                report.events.push(RunEvent::BudgetExceeded {
                    budget: BudgetKind::ExtensionCells,
                    stage: StageKind::Extension,
                    limit,
                    observed: report.workload.extension_cells,
                });
                break;
            }
        }
        if params.budget.deadline_exceeded(pair_start) {
            report.events.push(deadline_event(
                &params.budget,
                StageKind::Extension,
                pair_start,
            ));
            break;
        }
        if grid.covers(anchor.target_pos, anchor.query_pos) {
            report.counters.anchors_absorbed += 1;
            continue;
        }
        // Chaos hook: per-pair extension is serial on every schedule,
        // so `extend.tile` occurrence indices line up across them.
        obs.fault_gate(Hook::ExtendTile);
        let anchor_timer = buf.start();
        let Some(ext) = run_extension(params, target, query, anchor) else {
            continue;
        };
        obs.observe(HistKind::ExtendTilesPerAnchor, ext.stats.tiles);
        lane_cells += ext.stats.cells;
        buf.finish(
            anchor_timer,
            SpanName::ExtendTile,
            scode,
            seq as u64,
            ext.stats.tiles,
            ext.stats.cells,
        );
        report.workload.extension_tiles += ext.stats.tiles;
        report.workload.extension_cells += ext.stats.cells;
        report.workload.extension_rows += ext.stats.rows;
        if ext.alignment.score >= params.extension_threshold {
            grid.insert_alignment(&ext.alignment);
            // Resolve staggered re-extensions (an anchor just past an
            // X-drop stopping point re-aligns the same region).
            if !merge_into_kept(&mut kept, ext.alignment) {
                report.counters.anchors_absorbed += 1;
            }
        }
    }
    buf.set_parent(crate::obs::NO_SPAN);
    buf.finish_with_id(
        lane_timer,
        lane_id,
        SpanName::Extend,
        scode,
        0,
        anchors_in,
        lane_cells,
    );
    report.counters.alignments_kept += kept.len() as u64;
    report.alignments.extend(
        kept.into_iter()
            .map(|alignment| WgaAlignment { alignment, strand }),
    );
    report.timings.extension += ext_start.elapsed();
}

/// The seed tables a run built and their build wall-clock, which no
/// pair's record holds: relaxed atomics, since the dataflow producer
/// builds on its own thread.
#[derive(Debug, Default)]
pub(crate) struct TableBuilds {
    pub(crate) count: AtomicU64,
    pub(crate) ns: AtomicU64,
}

/// The seed table of target row `row`, built by the calling thread under
/// a `seed.table` span and counted into `builds`. A panic is contained
/// to an error message that fails every pair of the row.
pub(crate) fn row_seed_table(
    params: &WgaParams,
    target: &Sequence,
    row: usize,
    builds: &TableBuilds,
    obs: Obs<'_>,
) -> Result<Arc<SeedTable>, String> {
    let mut buf = obs.buffer();
    let table_timer = buf.start();
    catch_unwind(AssertUnwindSafe(|| {
        let (table, build_time) = timed_seed_table(params, target);
        let bases = target.len() as u64;
        buf.finish(
            table_timer,
            SpanName::SeedTable,
            STRAND_NA,
            row as u64,
            1,
            bases,
        );
        builds.count.fetch_add(1, Ordering::Relaxed);
        builds
            .ns
            .fetch_add(build_time.as_nanos() as u64, Ordering::Relaxed);
        Arc::new(table)
    }))
    .map_err(|payload| {
        format!(
            "seed table build panicked: {}",
            panic_message(payload.as_ref())
        )
    })
}

/// The checkpoint journals of a run's blocks. [`Journals::replay`] reads
/// each in turn up front; afterwards a block's journal is open for
/// appends from its first commit to its last. Both schedules walk one
/// target genome's rows together, so only the blocks of the target
/// genomes in flight hold a file, however many genome pairs the matrix
/// has.
#[derive(Debug)]
pub(crate) struct Journals {
    fingerprint: String,
    /// What recovery found in each block's journal.
    pub(crate) stats: Vec<Option<JournalStats>>,
    /// Each block's pairs left to commit.
    left: Vec<usize>,
    open: BTreeMap<usize, Journal>,
    /// An append or a reopen failed: no journal is touched again.
    broken: bool,
}

impl Journals {
    /// Opens every block's journal in turn, takes its pairs' records
    /// (announcing each to `obs` as replayed) and closes it again.
    /// Returns the router and every pair's replayed record, by pair id.
    ///
    /// # Errors
    ///
    /// A journal that cannot be opened, or that another parameter set
    /// wrote.
    pub(crate) fn replay(
        params: &WgaParams,
        matrix: &PairMatrix<'_>,
        obs: Obs<'_>,
    ) -> WgaResult<(Journals, Vec<Option<PairRecord>>)> {
        let fingerprint = params_fingerprint(params);
        let (mut records, mut stats, mut left) = (Vec::new(), Vec::new(), Vec::new());
        let mut pairs = matrix.pairs.iter().peekable();
        for (block, checkpoint) in matrix.checkpoints.iter().enumerate() {
            let open = |path| Journal::open(path, &fingerprint);
            let mut journal = checkpoint.as_deref().map(open).transpose()?;
            stats.push(journal.as_ref().map(Journal::stats));
            left.push(0);
            while let Some(pair) = pairs.next_if(|pair| pair.block == block) {
                let (target, query) = (&pair.target.name, &pair.query.name);
                let record = journal.as_mut().and_then(|j| j.take(target, query));
                match &record {
                    Some(record) => obs.pair_replayed(record),
                    None => left[block] += 1,
                }
                records.push(record);
            }
        }
        let (open, broken) = (BTreeMap::new(), false);
        Ok((
            Journals {
                fingerprint,
                stats,
                left,
                open,
                broken,
            },
            records,
        ))
    }

    /// Finishes computed pair `pair_id`: freezes the pair's fault
    /// accounting into its counters *before* the record is journaled so
    /// a resumed run replays the same numbers, folds the record into the
    /// trace's counters ([`Obs::pair_done`]; failed or not, so a progress
    /// meter reaches `pairs N/N` on a run that is over), and appends it
    /// under supervision to its block's journal.
    ///
    /// A failed pair (`Err` carrying the panic or fault message) is not
    /// journaled, so a rerun retries it, and its per-pair fault
    /// accounting is dropped (the run totals keep it).
    ///
    /// # Errors
    ///
    /// The block's journal would not reopen, or the append failed beyond
    /// its retry budget.
    pub(crate) fn commit(
        &mut self,
        matrix: &PairMatrix<'_>,
        pair_id: usize,
        result: Result<WgaReport, String>,
        policy: &RetryPolicy,
        obs: Obs<'_>,
    ) -> WgaResult<PairRecord> {
        let pair = &matrix.pairs[pair_id];
        let faults = obs
            .fault()
            .map(|injector| injector.take_pair(obs.pair()))
            .unwrap_or_default();
        let journaled = result.is_ok() && !self.broken;
        let record = match result {
            Ok(mut report) => {
                report.counters.faults_injected += faults.injected;
                report.counters.retries += faults.retries;
                PairRecord {
                    target_chrom: pair.target.name.clone(),
                    query_chrom: pair.query.name.clone(),
                    outcome: report.outcome(),
                    workload: report.workload,
                    timings: report.timings,
                    counters: report.counters,
                    alignments: report.alignments,
                }
            }
            Err(error) => PairRecord::failed(&pair.target.name, &pair.query.name, error),
        };
        obs.pair_done(&record);
        let path = matrix.checkpoints[pair.block].as_ref();
        if let Some(path) = path.filter(|_| journaled) {
            // Broken until the append is through.
            self.broken = true;
            let journal = match self.open.entry(pair.block) {
                Entry::Occupied(open) => open.into_mut(),
                Entry::Vacant(slot) => slot.insert(Journal::open(path, &self.fingerprint)?),
            };
            let mut buf = obs.buffer();
            let ckpt_timer = buf.start();
            // Chaos runs inject `journal.append` faults before the append
            // and `journal.sync` faults after it. Retries count into the
            // injector's run totals: the pair's own are frozen in `record`.
            let (id, injector) = (obs.pair(), obs.fault());
            supervise::supervised(
                policy,
                injector,
                Hook::JournalAppend,
                id,
                Some(&obs),
                || {
                    journal.append(&record)?;
                    injector.map_or(Ok(()), |inj| inj.gate_io(Hook::JournalSync, id, Some(&obs)))
                },
            )?;
            buf.finish(ckpt_timer, SpanName::Checkpoint, STRAND_NA, 0, 1, 0);
            self.broken = false;
        }
        self.left[pair.block] = self.left[pair.block].saturating_sub(1);
        if self.left[pair.block] == 0 {
            self.open.remove(&pair.block);
        }
        Ok(record)
    }
}

/// Folds one pair — just committed, or replayed — into its block's
/// report. Callers fold in canonical (target × query) order.
pub(crate) fn fold_pair(out: &mut AssemblyReport, record: PairRecord) {
    out.workload.merge(&record.workload);
    out.timings.merge(&record.timings);
    out.counters.merge(&record.counters);
    out.alignments.extend(
        record
            .alignments
            .into_iter()
            .map(|aligned| LocatedAlignment {
                target_chrom: record.target_chrom.clone(),
                query_chrom: record.query_chrom.clone(),
                aligned,
            }),
    );
    out.pairs.push(PairOutcome {
        target_chrom: record.target_chrom,
        query_chrom: record.query_chrom,
        outcome: record.outcome,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WgaParams;

    fn sequences() -> (Sequence, Sequence) {
        // 128 bp shared core with long distinct flanks (longer than the
        // 320-base filter tile, so a hit in the flank sees no homology).
        let core = "ACGGTCAGTCGATTGCAGTCCATGGACTGATC".repeat(4);
        let t: Sequence = format!("{}{}{}", "T".repeat(400), core, "T".repeat(400))
            .parse()
            .unwrap();
        let q: Sequence = format!("{}{}{}", "G".repeat(400), core, "G".repeat(400))
            .parse()
            .unwrap();
        (t, q)
    }

    #[test]
    fn extension_produces_full_alignment() {
        let (t, q) = sequences();
        let params = WgaParams::darwin_wga();
        let anchor = Anchor {
            target_pos: 460,
            query_pos: 460,
            filter_score: 5000,
        };
        let ext = run_extension(&params, &t, &q, anchor).expect("alignment");
        assert!(ext.alignment.matches() >= 120);
    }
}
