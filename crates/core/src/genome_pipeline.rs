//! Assembly-level (genome-vs-genome) alignment driver.
//!
//! Whole-genome alignment runs every query chromosome against every
//! target chromosome (LASTZ is invoked per chromosome pair and the
//! results are chained together, §V-B). This driver does the same over
//! [`genome::assembly::Assembly`] inputs. A finished chromosome pair is
//! one [`PairRecord`] — its outcome, sums and alignments — from the
//! journal to every output: [`AssemblyReport::pairs`] holds them in
//! pair-id order, and [`by_score`] alone orders alignments across pairs.
//!
//! Assembly-scale runs take hours, so the driver is fault tolerant: a
//! panic inside one chromosome pair is contained ([`RunOutcome::Failed`]
//! for that pair, the rest of the run continues), and an optional
//! checkpoint journal ([`AlignOptions::checkpoint`]) makes completed
//! pairs durable so an interrupted run resumes where it left off with a
//! byte-identical final report (see [`AssemblyReport::canonical_text`]).
//!
//! A two-assembly run ([`align_assemblies_observed`]) and a many-genome
//! one ([`crate::pangenome::align_many_observed`]) are one call of
//! `align_matrix` each, under one [`AlignOptions`]: one validation, one
//! fault injector (the caller's, on its [`Obs`]:
//! [`Obs::with_injector`]) and one trace for the whole matrix.
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
use crate::dataflow::{ExecutorKind, QUEUE_DEPTH};
use crate::error::{panic_message, WgaError, WgaResult};
use crate::journal::{JournalStats, PairRecord};
use crate::obs::Obs;
use crate::pipeline::run_pair;
use crate::report::{FunnelCounters, RunOutcome, Strand, WgaAlignment};
use crate::stages::{fold_pair, row_seed_table, Journals};
use genome::assembly::{Assembly, Chromosome};
use hwsim::Workload;
use seed::table::MAX_TARGET_LEN;
use seed::SeedTable;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Execution options of a run over the pair matrix: one chromosome-pair
/// matrix for [`align_assemblies_observed`], one a scheduled genome pair
/// for [`crate::pangenome::align_many_observed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignOptions {
    /// Worker threads, and with them the schedule: `1` runs the pair loop
    /// on the calling thread; more run the dataflow executor
    /// ([`crate::dataflow`]) with a pool of this many workers, each of
    /// which filters batches and extends the pairs it completes.
    pub threads: usize,
    /// Where completed pairs are made durable as they finish, so a rerun
    /// with the same parameters skips them (see [`crate::journal`]): the
    /// journal file of a two-assembly run, or the directory of a
    /// many-genome run, one `pair_<a>_<b>.journal` a genome pair,
    /// created as the run starts.
    pub checkpoint: Option<PathBuf>,
    /// Read by nothing: [`AlignOptions::threads`] alone picks the
    /// schedule. Kept so callers that still name an executor compile.
    pub executor: ExecutorKind,
    /// Many-genome runs only: keep the genome pairs where either genome
    /// ranks the other among its `k` nearest by sketch distance; `None`
    /// aligns all pairs.
    pub knn: Option<usize>,
}

impl Default for AlignOptions {
    fn default() -> Self {
        AlignOptions {
            threads: 1,
            checkpoint: None,
            executor: ExecutorKind::Barrier,
            knn: None,
        }
    }
}

/// The most worker threads a run may ask for: a fixed bound, not a
/// knob, so a mistyped `--threads` is a configuration error before any
/// input is read, not a pool the OS refuses halfway.
pub const MAX_THREADS: usize = 1_024;

impl AlignOptions {
    /// Rejects zero threads, more than [`MAX_THREADS`] and a zero `knn`,
    /// so a caller can check before it reads any input.
    ///
    /// # Errors
    ///
    /// [`WgaError::Config`] naming the option.
    pub fn validate(&self) -> WgaResult<()> {
        if self.threads == 0 {
            return Err(WgaError::config("threads must be at least 1"));
        }
        if self.threads > MAX_THREADS {
            return Err(WgaError::config(format!(
                "threads must be at most {MAX_THREADS}"
            )));
        }
        if self.knn == Some(0) {
            return Err(WgaError::config(
                "knn must be at least 1 (omit it to align all pairs)",
            ));
        }
        Ok(())
    }
}

/// Assembly-level run output.
#[derive(Debug, Clone, Default)]
pub struct AssemblyReport {
    /// Every chromosome pair's record — outcome, sums and alignments,
    /// best score first — in pair-id (target × query) order.
    pub pairs: Vec<PairRecord>,
    /// Aggregate workload.
    pub workload: Workload,
    /// Aggregate funnel counters across all pairs. Excluded from
    /// [`AssemblyReport::canonical_text`].
    pub counters: FunnelCounters,
    /// Pairs replayed from the checkpoint journal instead of recomputed.
    pub resumed_pairs: u64,
    /// What journal recovery found when this run resumed from a
    /// checkpoint (`None` without a checkpoint). Excluded from
    /// [`AssemblyReport::canonical_text`]: recovery circumstances vary,
    /// results do not.
    pub journal_stats: Option<JournalStats>,
}

impl AssemblyReport {
    /// Total matched base pairs.
    pub fn total_matches(&self) -> u64 {
        (self.pairs.iter().flat_map(|pair| &pair.alignments))
            .map(|a| a.alignment.matches())
            .sum()
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

    /// A deterministic rendering of the run's results, for equivalence
    /// checks between runs (e.g. interrupted-and-resumed vs
    /// uninterrupted): each pair's outcome, the alignments in
    /// [`by_score`] order and the workload. Two runs over the same inputs
    /// with the same parameters and budgets produce identical text
    /// regardless of thread count or how many pairs were replayed from a
    /// journal: counters, [`AssemblyReport::resumed_pairs`]
    /// and journal stats stay out.
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
        for (pair, a) in by_score(&self.pairs) {
            out.push_str(&format!(
                "aln\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                pair.target_chrom,
                pair.query_chrom,
                match a.strand {
                    Strand::Forward => '+',
                    Strand::Reverse => '-',
                },
                a.alignment.target_start,
                a.alignment.query_start,
                a.alignment.score,
                a.alignment.cigar
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

/// The alignments of `pairs`, each beside its pair's record, best score
/// first; a tie keeps pair-id order, then the record's own. This is the
/// one order across chromosome pairs: both canonical reports and the PAF
/// list alignments in it.
pub fn by_score(pairs: &[PairRecord]) -> Vec<(&PairRecord, &WgaAlignment)> {
    let mut all: Vec<_> = (pairs.iter())
        .flat_map(|pair| pair.alignments.iter().map(move |a| (pair, a)))
        .collect();
    all.sort_by_key(|(_, a)| std::cmp::Reverse(a.alignment.score));
    all
}

/// Aligns every query chromosome against every target chromosome.
///
/// The seed table is built once per target chromosome and reused across
/// query chromosomes, as a production aligner would. Serial, no
/// checkpointing; see [`align_assemblies_observed`] for the
/// full-featured entry point with typed errors.
///
/// # Panics
///
/// Panics when the parameters fail [`WgaParams::validate`].
///
/// # Examples
///
/// ```
/// use genome::assembly::Assembly;
/// use wga_core::config::WgaParams;
/// use wga_core::genome_pipeline::{align_assemblies, by_score};
///
/// let mut target = Assembly::new("t");
/// target.push("chrI", "TTTTACGGTCAGTCGATTGCAGTCCATGGACTGATCTTTT".repeat(20).parse()?);
/// let mut query = Assembly::new("q");
/// query.push("chr1", "GGGGACGGTCAGTCGATTGCAGTCCATGGACTGATCGGGG".repeat(20).parse()?);
///
/// let report = align_assemblies(&WgaParams::darwin_wga(), &target, &query);
/// assert!(report.total_matches() > 500);
/// let (best_pair, _) = by_score(&report.pairs)[0];
/// assert_eq!(best_pair.target_chrom, "chrI");
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
pub fn align_assemblies(params: &WgaParams, target: &Assembly, query: &Assembly) -> AssemblyReport {
    // With default options the only failure mode is degenerate
    // parameters — a caller bug at this convenience entry point.
    // `align_assemblies_observed` is the typed-error path.
    let result =
        align_assemblies_observed(params, target, query, &AlignOptions::default(), Obs::off());
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
/// checkpoint/resume; spans and counters flow into `obs`
/// (see [`crate::obs`]), and [`Obs::off`] costs one branch per
/// instrumentation site and never changes results.
///
/// Per chromosome pair: the pipeline runs under panic isolation — a
/// panicking pair is recorded as [`RunOutcome::Failed`] and the run
/// continues with the next pair. With a checkpoint journal configured,
/// every completed (or degraded) pair is fsync'd to the journal before
/// the driver moves on, and a rerun pointing at the same journal replays
/// those pairs instead of recomputing them; failed pairs are *not*
/// journaled, so a rerun computes them again.
///
/// # Errors
///
/// [`WgaError::Config`] when the parameters or `options` are degenerate
/// (see [`AlignOptions::validate`]); [`WgaError::Checkpoint`] /
/// [`WgaError::Io`] when the journal is unusable.
pub fn align_assemblies_observed(
    params: &WgaParams,
    target: &Assembly,
    query: &Assembly,
    options: &AlignOptions,
    obs: Obs<'_>,
) -> WgaResult<AssemblyReport> {
    let matrix = PairMatrix::new([(target, query, options.checkpoint.clone())]);
    let (mut blocks, _) = align_matrix(params, &matrix, options, QUEUE_DEPTH, obs)?;
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
/// (`obs`'s, if any; a fault plan's `"pair"` is a pair id), one
/// announced pair total, one seed table a row. Above
/// one thread the dataflow executor's queue holds `queue_depth` tasks:
/// [`QUEUE_DEPTH`] in every production run, other depths only in the
/// executor's own tests. Each block's journal replays its pairs and
/// takes its new ones; `options.checkpoint` is not read. Returns each
/// block's report, its pairs' records in pair-id order, and the number
/// of rows that built a table.
///
/// # Errors
///
/// As [`align_assemblies_observed`], for any block.
pub(crate) fn align_matrix(
    params: &WgaParams,
    matrix: &PairMatrix<'_>,
    options: &AlignOptions,
    queue_depth: usize,
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
    obs.set_total_pairs(matrix.pairs.len() as u64);
    let (mut journals, records) = Journals::replay(params, matrix, obs)?;
    let builds = AtomicU64::new(0);
    let run = (&mut journals, &builds);
    let blocks = if options.threads > 1 {
        let threads = options.threads;
        crate::dataflow::execute(params, matrix, threads, queue_depth, records, run, obs)?
    } else {
        pair_loop(params, matrix, records, run, obs)?
    };
    Ok((blocks, builds.load(Ordering::Relaxed)))
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
    (journals, builds): (&mut Journals, &AtomicU64),
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
            records[pair_id] = Some(journals.commit(matrix, pair_id, result, pair_obs)?);
        }
    }
    // Every pair was replayed or committed: a failed commit returned.
    let records = records.into_iter().flatten();
    Ok(assemble(matrix, records, &resumed, journals))
}

/// Folds `records`, one a pair in pair-id order, into their blocks'
/// reports, a `resumed` one counted as replayed. Every block carries
/// its journal's recovery stats.
pub(crate) fn assemble(
    matrix: &PairMatrix<'_>,
    records: impl IntoIterator<Item = PairRecord>,
    resumed: &[bool],
    journals: &Journals,
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
        // Pair ids: chrI × {chr1, chr2}, then chrII × {chr1, chr2}.
        let matches = |ids: [usize; 2]| -> u64 {
            (ids.iter().flat_map(|&id| &report.pairs[id].alignments))
                .map(|a| a.alignment.matches())
                .sum()
        };
        let (homologous, paralogous) = (matches([0, 3]), matches([1, 2]));
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
        for (pair, a) in by_score(&report.pairs) {
            let t = &target.chromosome(&pair.target_chrom).unwrap().sequence;
            let q = &query.chromosome(&pair.query_chrom).unwrap().sequence;
            a.alignment.validate(t, q).unwrap();
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
        assert_eq!(report.total_matches(), 0);
        assert!(report.pairs.is_empty());
    }

    /// Zero threads and more than the cap are rejected by `validate`,
    /// before any input is read or any thread is started.
    #[test]
    fn threads_outside_one_to_the_cap_are_a_config_error() {
        let (target, query) = two_chrom_assemblies();
        let options = |threads| AlignOptions {
            threads,
            ..AlignOptions::default()
        };
        assert!(options(MAX_THREADS).validate().is_ok());
        for (threads, named) in [(0, "at least 1"), (1_000_000, "at most 1024")] {
            let (params, options) = (WgaParams::darwin_wga(), options(threads));
            let err = align_assemblies_observed(&params, &target, &query, &options, Obs::off())
                .unwrap_err();
            assert!(matches!(err, WgaError::Config(_)), "{err}");
            assert!(err.to_string().contains(named), "{err}");
        }
    }

    #[test]
    fn degenerate_params_are_a_config_error() {
        let mut params = WgaParams::darwin_wga();
        params.max_seed_occurrences = 0;
        let err = align_assemblies_observed(
            &params,
            &Assembly::new("a"),
            &Assembly::new("b"),
            &AlignOptions::default(),
            Obs::off(),
        )
        .unwrap_err();
        assert!(matches!(err, WgaError::Config(_)), "{err}");
    }

    #[test]
    fn parallel_assembly_matches_serial_canonically() {
        let (target, query) = two_chrom_assemblies();
        let params = WgaParams::darwin_wga();
        let serial = align_assemblies(&params, &target, &query);
        let parallel = align_assemblies_observed(
            &params,
            &target,
            &query,
            &AlignOptions {
                threads: 3,
                ..AlignOptions::default()
            },
            Obs::off(),
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
        let first = align_assemblies_observed(&params, &target, &query, &opts, Obs::off()).unwrap();
        assert_eq!(first.resumed_pairs, 0);
        let second =
            align_assemblies_observed(&params, &target, &query, &opts, Obs::off()).unwrap();
        assert_eq!(second.resumed_pairs, 4);
        assert_eq!(first.canonical_text(), second.canonical_text());
        assert_eq!(first.workload, second.workload);
        let _ = std::fs::remove_file(&path);
    }
}
