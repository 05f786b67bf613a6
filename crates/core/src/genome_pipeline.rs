//! Assembly-level (genome-vs-genome) alignment driver.
//!
//! Whole-genome alignment runs every query chromosome against every
//! target chromosome (LASTZ is invoked per chromosome pair and the
//! results are chained together, §V-B). This driver does the same over
//! [`genome::assembly::Assembly`] inputs, tagging each alignment with its
//! chromosome pair.
//!
//! Assembly-scale runs take hours, so the driver is fault tolerant: a
//! panic inside one chromosome pair is contained ([`RunOutcome::Failed`]
//! for that pair, the rest of the run continues), and an optional
//! checkpoint journal ([`AlignOptions::checkpoint`]) makes completed
//! pairs durable so an interrupted run resumes where it left off with a
//! byte-identical final report (see [`AssemblyReport::canonical_text`]).
//!
//! The filter stage of every pair runs through the engine selected by
//! [`WgaParams::filter_engine`] (the scalar reference or the wavefront
//! batch, see [`crate::filter_engine`]); every schedule builds
//! one shared [`crate::filter_engine::FilterContext`] per pair/strand
//! and feeds whole batches of tiles to an engine drawn from it
//! (`stages::filter_batch`). The thread count picks the schedule: one
//! thread runs the pair loop on the calling thread, more run the
//! [`crate::dataflow`] executor. Neither engine nor schedule changes
//! results — the golden-file regression test pins the canonical report
//! byte-identical across engines and thread counts.

use crate::config::WgaParams;
use crate::dataflow::{ExecutorKind, ExecutorMetrics, DEFAULT_QUEUE_DEPTH};
use crate::error::{WgaError, WgaResult};
use crate::faultsim::{FaultInjector, FaultPlan};
use crate::journal::{JournalStats, PairRecord};
use crate::obs::Obs;
use crate::pipeline::run_pair;
use crate::report::{FunnelCounters, PairOutcome, RunOutcome, StageTimings, Strand, WgaAlignment};
use crate::stages::{fold_pair, row_seed_table, Journals, TableBuilds};
use crate::supervise::{panic_message, RetryPolicy};
use genome::assembly::{Assembly, Chromosome};
use hwsim::Workload;
use seed::table::MAX_TARGET_LEN;
use seed::SeedTable;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// One alignment located on a chromosome pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocatedAlignment {
    /// Target chromosome name.
    pub target_chrom: String,
    /// Query chromosome name.
    pub query_chrom: String,
    /// The alignment (coordinates within the named chromosomes).
    pub aligned: WgaAlignment,
}

/// Execution options for [`align_assemblies_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignOptions {
    /// Worker threads, and with them the schedule: `1` runs the pair loop
    /// on the calling thread; more run the dataflow executor
    /// ([`crate::dataflow`]) with a pool of this many workers, each of
    /// which filters batches and extends the pairs it completes.
    pub threads: usize,
    /// Checkpoint journal path. When set, completed pairs are made
    /// durable as they finish and a rerun with the same parameters skips
    /// them (see [`crate::journal`]).
    pub checkpoint: Option<PathBuf>,
    /// Read by nothing: [`AlignOptions::threads`] alone picks the
    /// schedule. Kept so callers that still name an executor compile.
    pub executor: ExecutorKind,
    /// Capacity of the dataflow executor's two bounded queues, producer
    /// → pool and pool → collector (ignored at one thread). Must be at
    /// least 1.
    pub queue_depth: usize,
    /// Supervised retries per fault site (`--max-retries`): how many
    /// times a transient journal/sink failure — or an injected error —
    /// is retried with capped-exponential backoff before escalating.
    pub max_retries: u32,
    /// Dataflow stall watchdog timeout (`--stall-timeout-ms`): when a
    /// dataflow run makes no progress for this long, its queues are
    /// closed and unfinished pairs fail instead of hanging. `0` (the
    /// default) disables the watchdog; ignored at one thread.
    pub stall_timeout_ms: u64,
    /// Fault-injection plan (`--fault-plan`). `None` outside chaos runs.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for AlignOptions {
    fn default() -> Self {
        AlignOptions {
            threads: 1,
            checkpoint: None,
            executor: ExecutorKind::Barrier,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            max_retries: 1,
            stall_timeout_ms: 0,
            fault_plan: None,
        }
    }
}

impl AlignOptions {
    /// Rejects zero threads, and a zero queue depth above one thread, so a
    /// caller can check before it reads any input.
    ///
    /// # Errors
    ///
    /// [`WgaError::Config`] naming the option.
    pub fn validate(&self) -> WgaResult<()> {
        if self.threads == 0 {
            return Err(WgaError::config("threads must be at least 1"));
        }
        if self.threads > 1 && self.queue_depth == 0 {
            return Err(WgaError::config("queue depth must be at least 1"));
        }
        Ok(())
    }
}

/// Assembly-level run output.
#[derive(Debug, Clone, Default)]
pub struct AssemblyReport {
    /// All alignments across chromosome pairs.
    pub alignments: Vec<LocatedAlignment>,
    /// Aggregate workload.
    pub workload: Workload,
    /// Aggregate stage timings.
    pub timings: StageTimings,
    /// Aggregate funnel counters across all pairs. Excluded from
    /// [`AssemblyReport::canonical_text`], like timings.
    pub counters: FunnelCounters,
    /// Per-pair outcomes, in canonical (target × query) order.
    pub pairs: Vec<PairOutcome>,
    /// Pairs replayed from the checkpoint journal instead of recomputed.
    pub resumed_pairs: u64,
    /// Per-stage telemetry of the schedule that ran this report (set by
    /// both). Excluded from
    /// [`AssemblyReport::canonical_text`], like timings: telemetry varies
    /// run to run, results do not.
    pub stage_metrics: Option<ExecutorMetrics>,
    /// What journal recovery found when this run resumed from a
    /// checkpoint (`None` without a checkpoint). Excluded from
    /// [`AssemblyReport::canonical_text`]: recovery circumstances vary,
    /// results do not.
    pub journal_stats: Option<JournalStats>,
}

impl AssemblyReport {
    /// Total matched base pairs.
    pub fn total_matches(&self) -> u64 {
        self.alignments
            .iter()
            .map(|a| a.aligned.alignment.matches())
            .sum()
    }

    /// Alignments on one chromosome pair.
    pub fn for_pair(&self, target_chrom: &str, query_chrom: &str) -> Vec<&LocatedAlignment> {
        self.alignments
            .iter()
            .filter(|a| a.target_chrom == target_chrom && a.query_chrom == query_chrom)
            .collect()
    }

    /// Pairs that ran with budget trips or failed worker batches.
    pub fn degraded_pairs(&self) -> usize {
        self.pairs
            .iter()
            .filter(|p| matches!(p.outcome, RunOutcome::Degraded { .. }))
            .count()
    }

    /// Pairs that produced no results because their worker panicked.
    pub fn failed_pairs(&self) -> usize {
        self.pairs
            .iter()
            .filter(|p| matches!(p.outcome, RunOutcome::Failed { .. }))
            .count()
    }

    /// A deterministic rendering of everything except wall-clock timings,
    /// for equivalence checks between runs (e.g. interrupted-and-resumed
    /// vs uninterrupted). Two runs over the same inputs with the same
    /// parameters and budgets produce identical text regardless of thread
    /// count or how many pairs were replayed from a journal — timings and
    /// [`AssemblyReport::resumed_pairs`] are the only fields excluded.
    pub fn canonical_text(&self) -> String {
        let mut out = String::new();
        for pair in &self.pairs {
            let tag = match &pair.outcome {
                RunOutcome::Completed => "completed".to_string(),
                RunOutcome::Degraded { events } => format!("degraded({})", events.len()),
                RunOutcome::Failed { .. } => "failed".to_string(),
            };
            out.push_str(&format!(
                "pair\t{}\t{}\t{}\n",
                pair.target_chrom, pair.query_chrom, tag
            ));
        }
        for a in &self.alignments {
            out.push_str(&format!(
                "aln\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                a.target_chrom,
                a.query_chrom,
                match a.aligned.strand {
                    Strand::Forward => '+',
                    Strand::Reverse => '-',
                },
                a.aligned.alignment.target_start,
                a.aligned.alignment.query_start,
                a.aligned.alignment.score,
                a.aligned.alignment.cigar
            ));
        }
        let w = &self.workload;
        out.push_str(&format!(
            "workload\t{}\t{}\t{}\t{}\t{}\n",
            w.seeds, w.filter_tiles, w.extension_tiles, w.extension_cells, w.extension_rows
        ));
        out
    }
}

/// Aligns every query chromosome against every target chromosome.
///
/// The seed table is built once per target chromosome and reused across
/// query chromosomes, as a production aligner would. Serial, no
/// checkpointing; see [`align_assemblies_with`] for the full-featured
/// entry point with typed errors.
///
/// # Panics
///
/// Panics when the parameters fail [`WgaParams::validate`].
///
/// # Examples
///
/// ```
/// use genome::assembly::Assembly;
/// use wga_core::{config::WgaParams, genome_pipeline::align_assemblies};
///
/// let mut target = Assembly::new("t");
/// target.push("chrI", "TTTTACGGTCAGTCGATTGCAGTCCATGGACTGATCTTTT".repeat(20).parse()?);
/// let mut query = Assembly::new("q");
/// query.push("chr1", "GGGGACGGTCAGTCGATTGCAGTCCATGGACTGATCGGGG".repeat(20).parse()?);
///
/// let report = align_assemblies(&WgaParams::darwin_wga(), &target, &query);
/// assert!(report.total_matches() > 500);
/// assert_eq!(report.alignments[0].target_chrom, "chrI");
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
pub fn align_assemblies(params: &WgaParams, target: &Assembly, query: &Assembly) -> AssemblyReport {
    // With default options the only failure mode is degenerate
    // parameters — a caller bug at this convenience entry point.
    // `align_assemblies_with` is the typed-error path.
    let result = align_assemblies_with(params, target, query, &AlignOptions::default());
    assert!(
        result.is_ok(),
        "{}",
        result
            .as_ref()
            .err()
            .map(|e| e.to_string())
            .unwrap_or_default()
    );
    result.unwrap_or_default()
}

/// Aligns two assemblies with fault tolerance, parallelism and optional
/// checkpoint/resume.
///
/// Per chromosome pair: the pipeline runs under panic isolation — a
/// panicking pair is recorded as [`RunOutcome::Failed`] and the run
/// continues with the next pair. With a checkpoint journal configured,
/// every completed (or degraded) pair is fsync'd to the journal before
/// the driver moves on, and a rerun pointing at the same journal replays
/// those pairs instead of recomputing them; failed pairs are *not*
/// journaled, so a rerun retries them.
///
/// # Errors
///
/// [`WgaError::Config`] when the parameters are degenerate or
/// `options.threads` is zero; [`WgaError::Checkpoint`] /
/// [`WgaError::Io`] when the journal is unusable.
pub fn align_assemblies_with(
    params: &WgaParams,
    target: &Assembly,
    query: &Assembly,
    options: &AlignOptions,
) -> WgaResult<AssemblyReport> {
    align_assemblies_observed(params, target, query, options, Obs::off())
}

/// [`align_assemblies_with`] with an observability hook: spans, counters
/// and histograms flow into `obs` (see [`crate::obs`]). Passing
/// [`Obs::off`] makes this identical to the plain entry point — the
/// disabled path costs one branch per instrumentation site and never
/// changes results.
pub fn align_assemblies_observed(
    params: &WgaParams,
    target: &Assembly,
    query: &Assembly,
    options: &AlignOptions,
    obs: Obs<'_>,
) -> WgaResult<AssemblyReport> {
    let matrix = PairMatrix::new([(target, query, options.checkpoint.clone())]);
    let (mut blocks, _) = align_matrix(params, &matrix, options, obs)?;
    Ok(blocks.pop().unwrap_or_default())
}

/// Rejects a chromosome longer than a `u32` seed position can address —
/// a target's in the seed table, a query's in a seed hit — here, with
/// the configuration errors, rather than by seeding a truncated
/// chromosome.
fn check_indexable(name: &str, len: usize) -> WgaResult<()> {
    if len > MAX_TARGET_LEN {
        return Err(WgaError::input(
            name,
            format!("{len} bases exceed the {MAX_TARGET_LEN} a seed position can address"),
        ));
    }
    Ok(())
}

/// One chromosome pair of a [`PairMatrix`].
#[derive(Debug)]
pub(crate) struct MatrixPair<'a> {
    /// The block it belongs to.
    pub(crate) block: usize,
    /// Its target genome, named by the genome's first block: the blocks
    /// of one target share its rows.
    pub(crate) genome: usize,
    /// The row whose seed table it looks up.
    pub(crate) row: usize,
    pub(crate) target: &'a Chromosome,
    pub(crate) query: &'a Chromosome,
}

/// The chromosome pairs of one run, as Darwin-WGA's host walks them
/// (§IV, §V-B): a target chromosome's seed table is built once and every
/// query chromosome streams past it.
///
/// A *block* is a genome pair with its own journal. A *row* is a (target
/// genome, chromosome): its columns are the query chromosomes of every
/// block with that target (blocks sharing a target are consecutive), in
/// block order. A pair id is the pair's canonical index — block-major,
/// then target chromosome, then query chromosome — so a one-block run
/// numbers its pairs `ti * qn + qi`.
#[derive(Debug)]
pub(crate) struct PairMatrix<'a> {
    /// Each block's journal path.
    pub(crate) checkpoints: Vec<Option<PathBuf>>,
    /// Every pair, by pair id.
    pub(crate) pairs: Vec<MatrixPair<'a>>,
    /// Each row's pair ids, in column order.
    pub(crate) rows: Vec<Vec<usize>>,
}

impl<'a> PairMatrix<'a> {
    /// The matrix of `blocks`, each a (target, query, journal path).
    pub(crate) fn new(
        blocks: impl IntoIterator<Item = (&'a Assembly, &'a Assembly, Option<PathBuf>)>,
    ) -> PairMatrix<'a> {
        let mut matrix = PairMatrix {
            checkpoints: Vec::new(),
            pairs: Vec::new(),
            rows: Vec::new(),
        };
        let (mut last_target, mut genome, mut first_row): (Option<&Assembly>, _, _) = (None, 0, 0);
        for (block, (target, query, checkpoint)) in blocks.into_iter().enumerate() {
            if last_target.is_none_or(|last| !std::ptr::eq(last, target)) {
                (last_target, genome, first_row) = (Some(target), block, matrix.rows.len());
                matrix
                    .rows
                    .resize_with(first_row + target.chromosomes().len(), Vec::new);
            }
            for (row, tchrom) in (first_row..).zip(target.chromosomes()) {
                for query in query.chromosomes() {
                    matrix.rows[row].push(matrix.pairs.len());
                    matrix.pairs.push(MatrixPair {
                        block,
                        genome,
                        row,
                        target: tchrom,
                        query,
                    });
                }
            }
            matrix.checkpoints.push(checkpoint);
        }
        matrix
    }
}

/// Aligns every pair of `matrix` in one executor run: one fault injector
/// (a fault plan's `"pair"` is a pair id), one announced pair total, one
/// seed table a row. Each block's journal replays its pairs and takes
/// its new ones; `options.checkpoint` is not read. Returns each block's
/// report — its pairs in canonical order, its alignments stably sorted
/// by score — and the number of rows that built a table.
///
/// # Errors
///
/// As [`align_assemblies_with`], for any block.
pub(crate) fn align_matrix(
    params: &WgaParams,
    matrix: &PairMatrix<'_>,
    options: &AlignOptions,
    obs: Obs<'_>,
) -> WgaResult<(Vec<AssemblyReport>, u64)> {
    params.validate()?;
    for chrom in matrix
        .pairs
        .iter()
        .flat_map(|pair| [pair.target, pair.query])
    {
        check_indexable(&chrom.name, chrom.sequence.len())?;
    }
    options.validate()?;
    let injector = options
        .fault_plan
        .as_ref()
        .map(|plan| FaultInjector::new((**plan).clone(), options.max_retries));
    let obs = obs.with_fault(injector.as_ref());
    let retry_policy = injector.as_ref().map_or(
        RetryPolicy {
            max_retries: options.max_retries,
            ..RetryPolicy::default()
        },
        FaultInjector::policy,
    );

    obs.set_total_pairs(matrix.pairs.len() as u64);
    let (mut journals, records) = Journals::replay(params, matrix, obs)?;
    let builds = TableBuilds::default();
    let run = (&mut journals, &builds);
    let blocks = if options.threads > 1 {
        crate::dataflow::execute(params, matrix, options, records, run, &retry_policy, obs)?
    } else {
        pair_loop(params, matrix, records, run, &retry_policy, obs)?
    };
    Ok((blocks, builds.count.load(Ordering::Relaxed)))
}

/// The one-thread schedule: rows in order, a row's pairs in column
/// order, each run whole by [`run_pair`] and committed before the next
/// starts. A
/// row's table is built lazily, so a fully-journaled row skips the
/// build, and handed over whole to the row's last pair, which frees it
/// at its last lookup.
fn pair_loop(
    params: &WgaParams,
    matrix: &PairMatrix<'_>,
    mut records: Vec<Option<PairRecord>>,
    (journals, builds): (&mut Journals, &TableBuilds),
    retry_policy: &RetryPolicy,
    obs: Obs<'_>,
) -> WgaResult<Vec<AssemblyReport>> {
    let resumed: Vec<bool> = records.iter().map(Option::is_some).collect();
    for row in &matrix.rows {
        let mut row_table: Option<Result<Arc<SeedTable>, String>> = None;
        for (col, &pair_id) in row.iter().enumerate() {
            if resumed[pair_id] {
                continue;
            }
            let pair = &matrix.pairs[pair_id];
            let pair_obs = obs.with_pair(pair_id as u64);
            let table = row_table.take().unwrap_or_else(|| {
                row_seed_table(params, &pair.target.sequence, pair.row, builds, pair_obs)
            });
            if col + 1 < row.len() {
                row_table = Some(table.clone());
            }
            // A panicking pair is contained: it fails, the run goes on.
            let (target, query) = (&pair.target.sequence, &pair.query.sequence);
            let result = table.and_then(|table| {
                catch_unwind(AssertUnwindSafe(|| {
                    run_pair(params, table, target, query, pair_obs)
                }))
                .map_err(|payload| panic_message(payload.as_ref()))
            });
            records[pair_id] =
                Some(journals.commit(matrix, pair_id, result, retry_policy, pair_obs)?);
        }
    }
    // Every pair was replayed or committed: a failed commit returned.
    let records = records.into_iter().flatten();
    let metrics = |total: &AssemblyReport| ExecutorMetrics::from_report(1, total, obs.fault());
    Ok(assemble(
        matrix,
        records,
        &resumed,
        (journals, builds),
        0,
        metrics,
    ))
}

/// Folds `records`, one a pair in pair-id order, into their blocks'
/// reports — a `resumed` one counted as replayed — and sorts each
/// block's alignments by score, stably. The run's seeding time outside
/// any pair (its table `builds`) and its watchdog `stalls` go to the
/// first block; every block carries its journal's recovery stats and
/// the run's `metrics`, read off the blocks' sum.
pub(crate) fn assemble(
    matrix: &PairMatrix<'_>,
    records: impl IntoIterator<Item = PairRecord>,
    resumed: &[bool],
    (journals, builds): (&Journals, &TableBuilds),
    stalls: u64,
    metrics: impl FnOnce(&AssemblyReport) -> ExecutorMetrics,
) -> Vec<AssemblyReport> {
    let mut blocks: Vec<AssemblyReport> = (journals.stats.iter())
        .map(|&journal_stats| AssemblyReport {
            journal_stats,
            ..AssemblyReport::default()
        })
        .collect();
    for ((pair, record), &resumed) in matrix.pairs.iter().zip(records).zip(resumed) {
        blocks[pair.block].resumed_pairs += u64::from(resumed);
        fold_pair(&mut blocks[pair.block], record);
    }
    if let Some(first) = blocks.first_mut() {
        first.timings.seeding += Duration::from_nanos(builds.ns.load(Ordering::Relaxed));
        first.counters.stalls_detected += stalls;
    }
    let mut total = AssemblyReport::default();
    for block in &mut blocks {
        block
            .alignments
            .sort_by_key(|a| std::cmp::Reverse(a.aligned.alignment.score));
        total.workload.merge(&block.workload);
        total.timings.merge(&block.timings);
        total.counters.merge(&block.counters);
    }
    let metrics = metrics(&total);
    for block in &mut blocks {
        block.stage_metrics = Some(metrics);
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::evolve::{EvolutionParams, SyntheticPair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seed::SeedHit;

    fn two_chrom_assemblies() -> (Assembly, Assembly) {
        let mut rng = StdRng::seed_from_u64(21);
        let p1 = SyntheticPair::generate(15_000, &EvolutionParams::at_distance(0.15), &mut rng);
        let p2 = SyntheticPair::generate(12_000, &EvolutionParams::at_distance(0.15), &mut rng);
        let mut target = Assembly::new("targ1");
        target.push("chrI", p1.target.sequence.clone());
        target.push("chrII", p2.target.sequence.clone());
        let mut query = Assembly::new("quer1");
        query.push("chr1", p1.query.sequence.clone());
        query.push("chr2", p2.query.sequence.clone());
        (target, query)
    }

    #[test]
    fn homologous_chromosomes_attract_the_alignments() {
        let (target, query) = two_chrom_assemblies();
        let report = align_assemblies(&WgaParams::darwin_wga(), &target, &query);
        assert!(report.total_matches() > 15_000);
        let homologous: u64 = report
            .for_pair("chrI", "chr1")
            .iter()
            .chain(report.for_pair("chrII", "chr2").iter())
            .map(|a| a.aligned.alignment.matches())
            .sum();
        let paralogous: u64 = report
            .for_pair("chrI", "chr2")
            .iter()
            .chain(report.for_pair("chrII", "chr1").iter())
            .map(|a| a.aligned.alignment.matches())
            .sum();
        assert!(
            homologous > 20 * paralogous.max(1),
            "homologous {homologous} vs cross {paralogous}"
        );
    }

    /// One check for both sides of a pair: a target position sits in the
    /// seed table as a `u32`, a query position in a seed hit.
    #[test]
    fn chromosome_beyond_u32_positions_is_a_typed_error() {
        assert_eq!(
            MAX_TARGET_LEN,
            SeedHit::new(usize::MAX, usize::MAX).query_pos as usize
        );
        assert!(check_indexable("chr1", MAX_TARGET_LEN).is_ok());
        let err = check_indexable("chr1", MAX_TARGET_LEN + 1).expect_err("must reject");
        assert!(matches!(err, WgaError::Input { .. }), "{err:?}");
        assert!(err.to_string().contains("chr1"), "{err}");
        assert!(err.to_string().contains("4294967296 bases"), "{err}");
    }

    #[test]
    fn alignments_validate_within_their_chromosomes() {
        let (target, query) = two_chrom_assemblies();
        let report = align_assemblies(&WgaParams::darwin_wga(), &target, &query);
        for la in &report.alignments {
            let t = &target.chromosome(&la.target_chrom).unwrap().sequence;
            let q = &query.chromosome(&la.query_chrom).unwrap().sequence;
            la.aligned.alignment.validate(t, q).unwrap();
        }
        assert_eq!(report.pairs.len(), 4);
        assert_eq!(report.failed_pairs(), 0);
        assert_eq!(report.resumed_pairs, 0);
    }

    #[test]
    fn empty_assemblies_produce_empty_report() {
        let report = align_assemblies(
            &WgaParams::darwin_wga(),
            &Assembly::new("a"),
            &Assembly::new("b"),
        );
        assert!(report.alignments.is_empty());
        assert_eq!(report.total_matches(), 0);
        assert!(report.pairs.is_empty());
    }

    #[test]
    fn zero_threads_is_a_config_error() {
        let (target, query) = two_chrom_assemblies();
        let err = align_assemblies_with(
            &WgaParams::darwin_wga(),
            &target,
            &query,
            &AlignOptions {
                threads: 0,
                ..AlignOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, WgaError::Config(_)), "{err}");
    }

    #[test]
    fn degenerate_params_are_a_config_error() {
        let mut params = WgaParams::darwin_wga();
        params.max_seed_occurrences = 0;
        let err = align_assemblies_with(
            &params,
            &Assembly::new("a"),
            &Assembly::new("b"),
            &AlignOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, WgaError::Config(_)), "{err}");
    }

    #[test]
    fn parallel_assembly_matches_serial_canonically() {
        let (target, query) = two_chrom_assemblies();
        let params = WgaParams::darwin_wga();
        let serial = align_assemblies(&params, &target, &query);
        let parallel = align_assemblies_with(
            &params,
            &target,
            &query,
            &AlignOptions {
                threads: 3,
                ..AlignOptions::default()
            },
        )
        .unwrap();
        assert_eq!(serial.canonical_text(), parallel.canonical_text());
    }

    #[test]
    fn checkpointed_rerun_replays_all_pairs() {
        let (target, query) = two_chrom_assemblies();
        let params = WgaParams::darwin_wga();
        let path = std::env::temp_dir().join(format!(
            "wga-genome-pipeline-ckpt-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let opts = AlignOptions {
            threads: 1,
            checkpoint: Some(path.clone()),
            ..AlignOptions::default()
        };
        let first = align_assemblies_with(&params, &target, &query, &opts).unwrap();
        assert_eq!(first.resumed_pairs, 0);
        let second = align_assemblies_with(&params, &target, &query, &opts).unwrap();
        assert_eq!(second.resumed_pairs, 4);
        assert_eq!(first.canonical_text(), second.canonical_text());
        assert_eq!(first.workload, second.workload);
        let _ = std::fs::remove_file(&path);
    }
}
