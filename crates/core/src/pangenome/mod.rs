//! Many-genome mode: the pairwise aligner as a pangenome engine.
//!
//! `wga many` aligns every (or every *near*, under `--knn`) unordered
//! pair of an N-genome set as **one** run over the pair matrix
//! (`genome_pipeline::PairMatrix`): each scheduled genome pair
//! is a block, and each (target genome, chromosome) a row whose seed
//! table is built once, for every block with that target, and freed at
//! the row's last lookup:
//!
//! * [`index::scaled_params`] — the k-mer frequency cap scaled by genome
//!   count, the one parameter set of the run;
//! * [`mash`] / [`joblist`] — integer-only bottom-k sketches and the
//!   all-vs-all joblist, optionally kNN-sparsified;
//! * the orchestrator ([`align_many`]) — builds the matrix over the
//!   scheduled joblist pairs and runs it on the thread count's schedule, with
//!   budgets, fault injection, retry, watchdog and a *per-genome-pair*
//!   checkpoint journal, so an N-genome run resumes at chromosome-pair
//!   granularity;
//! * [`plane_sweep`] — dedups overlapping alignments across the merged
//!   result set;
//! * [`paf`] — renders the survivors as PAF.
//!
//! Determinism contract: [`ManyReport::canonical_text`] and the PAF are
//! byte-identical across thread counts and shard sizes.
//! Everything order-sensitive walks the joblist's canonical `(a, b)`
//! order; everything timed or scheduled stays out of the canonical
//! surfaces.

pub mod index;
pub mod joblist;
pub mod mash;
pub mod paf;
pub mod plane_sweep;

use crate::config::WgaParams;
use crate::dataflow::{ExecutorKind, DEFAULT_QUEUE_DEPTH};
use crate::error::{WgaError, WgaResult};
use crate::faultsim::FaultPlan;
use crate::genome_pipeline::{align_matrix, AlignOptions, PairMatrix};
use crate::obs::Obs;
use crate::report::{FunnelCounters, StageTimings, WgaAlignment};
use genome::assembly::Assembly;
use hwsim::Workload;
use joblist::PairPlan;
use mash::Sketch;
use plane_sweep::SweepStats;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// Options of a many-genome run. The executor knobs mirror
/// [`AlignOptions`]; `checkpoint_dir` replaces the single journal path
/// with a directory holding one journal per genome pair.
#[derive(Debug, Clone)]
pub struct ManyOptions {
    /// Worker threads of the run, and with them its schedule (see
    /// [`AlignOptions::threads`]).
    pub threads: usize,
    /// Read by nothing, as [`AlignOptions::executor`].
    pub executor: ExecutorKind,
    /// Dataflow queue depth.
    pub queue_depth: usize,
    /// Supervised-retry budget per I/O site.
    pub max_retries: u32,
    /// Watchdog stall timeout (0 = disabled).
    pub stall_timeout_ms: u64,
    /// Fault plan of the run (chaos testing); its `"pair"` is a pair id
    /// of the whole matrix.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Checkpoint directory: one `pair_<a>_<b>.journal` per scheduled
    /// pair, created as the run starts. A rerun pointing at the same
    /// directory replays completed pairs and recomputes the rest.
    pub checkpoint_dir: Option<PathBuf>,
    /// Keep only pairs where either genome ranks the other in its `k`
    /// nearest by sketch distance; `None` = all pairs.
    pub knn: Option<usize>,
}

impl Default for ManyOptions {
    fn default() -> Self {
        ManyOptions {
            threads: 1,
            executor: ExecutorKind::default(),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            max_retries: 1,
            stall_timeout_ms: 0,
            fault_plan: None,
            checkpoint_dir: None,
            knn: None,
        }
    }
}

impl ManyOptions {
    /// The options of the run's one executor run over the pair matrix.
    fn align_options(&self) -> AlignOptions {
        AlignOptions {
            threads: self.threads,
            queue_depth: self.queue_depth,
            max_retries: self.max_retries,
            stall_timeout_ms: self.stall_timeout_ms,
            fault_plan: self.fault_plan.clone(),
            ..AlignOptions::default()
        }
    }

    /// [`AlignOptions::validate`], and a `knn` of at least 1 where set.
    ///
    /// # Errors
    ///
    /// [`WgaError::Config`] naming the option.
    pub fn validate(&self) -> WgaResult<()> {
        if self.knn == Some(0) {
            return Err(WgaError::config(
                "knn must be at least 1 (omit it to align all pairs)",
            ));
        }
        self.align_options().validate()
    }
}

/// One genome of the input set, as the canonical report describes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenomeSummary {
    /// Assembly name.
    pub name: String,
    /// Chromosome count.
    pub chromosomes: u64,
    /// Total bases.
    pub bases: u64,
}

/// One unordered genome pair's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManyPair {
    /// Target-side genome name (lower index).
    pub target_genome: String,
    /// Query-side genome name (higher index).
    pub query_genome: String,
    /// False when kNN sparsification skipped the pair.
    pub scheduled: bool,
    /// Sketch hashes the genomes share (the kNN ranking signal).
    pub shared: u64,
    /// Chromosome pairs that completed cleanly.
    pub completed: u64,
    /// Chromosome pairs that completed degraded (budget exceeded).
    pub degraded: u64,
    /// Chromosome pairs that failed.
    pub failed: u64,
}

/// One alignment of the merged, deduplicated set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManyAlignment {
    /// Target genome name.
    pub target_genome: String,
    /// Target chromosome name.
    pub target_chrom: String,
    /// Query genome name.
    pub query_genome: String,
    /// Query chromosome name.
    pub query_chrom: String,
    /// The alignment, coordinates as the pairwise pipeline reports them
    /// (reverse-strand query coordinates on the reverse complement).
    pub aligned: WgaAlignment,
}

/// Result of a many-genome run.
#[derive(Debug, Clone, Default)]
pub struct ManyReport {
    /// The input genome set, in input order.
    pub genomes: Vec<GenomeSummary>,
    /// Every unordered pair in canonical `(a, b)` order.
    pub pairs: Vec<ManyPair>,
    /// Surviving alignments after the plane sweep, grouped by pair in
    /// canonical order, score-descending within a pair.
    pub alignments: Vec<ManyAlignment>,
    /// Plane-sweep kept/dropped statistics.
    pub sweep: SweepStats,
    /// Aggregate pipeline workload over all scheduled pairs.
    pub workload: Workload,
    /// Aggregate stage timings (telemetry; excluded from canonical
    /// output).
    pub timings: StageTimings,
    /// Aggregate funnel counters (telemetry; excluded from canonical
    /// output).
    pub counters: FunnelCounters,
    /// Chromosome pairs replayed from checkpoint journals.
    pub resumed_pairs: u64,
    /// The kNN setting the run used.
    pub knn: Option<usize>,
    /// Rows of the pair matrix that built a seed table: each target
    /// chromosome at most once, for every scheduled pair that aligns
    /// against it.
    pub tables_built: u64,
}

impl ManyReport {
    /// The deterministic comparison surface: genome roster, pair
    /// outcomes, surviving alignments, workload and sweep statistics.
    /// Byte-identical across thread counts and shard sizes;
    /// timings, counters and resume provenance stay out.
    pub fn canonical_text(&self) -> String {
        let mut out = String::new();
        for genome in &self.genomes {
            out.push_str(&format!(
                "genome\t{}\t{}\t{}\n",
                genome.name, genome.chromosomes, genome.bases
            ));
        }
        for pair in &self.pairs {
            let status = if pair.scheduled {
                format!("c{}d{}f{}", pair.completed, pair.degraded, pair.failed)
            } else {
                "skipped".to_string()
            };
            out.push_str(&format!(
                "mpair\t{}\t{}\t{}\t{}\n",
                pair.target_genome, pair.query_genome, pair.shared, status
            ));
        }
        for a in &self.alignments {
            out.push_str(&format!(
                "aln\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                a.target_genome,
                a.target_chrom,
                a.query_genome,
                a.query_chrom,
                match a.aligned.strand {
                    crate::report::Strand::Forward => '+',
                    crate::report::Strand::Reverse => '-',
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
        out.push_str(&format!(
            "sweep\t{}\t{}\n",
            self.sweep.kept, self.sweep.dropped
        ));
        out
    }

    /// One-paragraph human summary for CLI output.
    pub fn summary(&self) -> String {
        let scheduled = self.pairs.iter().filter(|p| p.scheduled).count();
        let skipped = self.pairs.len() - scheduled;
        let failed: u64 = self.pairs.iter().map(|p| p.failed).sum();
        format!(
            "many-genome run: {} genomes, {} pairs ({} aligned, {} skipped by knn), \
             {} alignments kept, {} dropped as overlaps, {} tables built, \
             {} chromosome pairs resumed, {} failed",
            self.genomes.len(),
            self.pairs.len(),
            scheduled,
            skipped,
            self.sweep.kept,
            self.sweep.dropped,
            self.tables_built,
            self.resumed_pairs,
            failed
        )
    }
}

/// Aligns every scheduled genome pair; see the module docs.
///
/// # Errors
///
/// [`WgaError::Config`] on degenerate parameters, fewer than two
/// genomes, duplicate genome names or zero threads; journal errors
/// ([`WgaError::Checkpoint`] / [`WgaError::Io`]) from any pair
/// propagate.
pub fn align_many(
    params: &WgaParams,
    genomes: &[Assembly],
    options: &ManyOptions,
) -> WgaResult<ManyReport> {
    align_many_observed(params, genomes, options, Obs::off())
}

/// [`align_many`] with an observability hook threaded through its one
/// executor run.
pub fn align_many_observed(
    params: &WgaParams,
    genomes: &[Assembly],
    options: &ManyOptions,
    obs: Obs<'_>,
) -> WgaResult<ManyReport> {
    if genomes.len() < 2 {
        return Err(WgaError::config(
            "many-genome mode needs at least two genomes",
        ));
    }
    options.validate()?;
    let names: BTreeSet<&str> = genomes.iter().map(|g| g.name.as_str()).collect();
    if names.len() != genomes.len() {
        return Err(WgaError::config("genome names must be unique"));
    }
    if let Some(dir) = &options.checkpoint_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| WgaError::io(format!("checkpoint dir {}", dir.display()), e))?;
    }

    // One scaled parameter set for the whole run.
    let scaled = index::scaled_params(params, genomes.len());
    let sketches: Vec<Sketch> = genomes.iter().map(Sketch::of_assembly).collect();
    let plans: Vec<PairPlan> = joblist::build_joblist(&sketches, options.knn);

    // The scheduled genome pairs are the blocks of one run: the joblist
    // is in `(a, b)` order, so the blocks of one target genome are
    // consecutive and share its rows, one seed table a chromosome.
    let scheduled = plans.iter().filter(|plan| plan.scheduled);
    let matrix = PairMatrix::new(scheduled.map(|plan| {
        let checkpoint = options
            .checkpoint_dir
            .as_ref()
            .map(|dir| dir.join(format!("pair_{:03}_{:03}.journal", plan.a, plan.b)));
        (&genomes[plan.a], &genomes[plan.b], checkpoint)
    }));
    let (blocks, tables_built) = align_matrix(&scaled, &matrix, &options.align_options(), obs)?;

    let mut report = ManyReport {
        genomes: genomes
            .iter()
            .map(|g| GenomeSummary {
                name: g.name.clone(),
                chromosomes: g.chromosomes().len() as u64,
                bases: g.total_bases() as u64,
            })
            .collect(),
        knn: options.knn,
        tables_built,
        ..ManyReport::default()
    };
    let mut merged: Vec<ManyAlignment> = Vec::new();
    let mut blocks = blocks.into_iter();
    for plan in &plans {
        let (target, query) = (&genomes[plan.a], &genomes[plan.b]);
        // One block a scheduled plan, in joblist order; a skipped plan
        // aligned nothing.
        let inner = plan
            .scheduled
            .then(|| blocks.next())
            .flatten()
            .unwrap_or_default();
        let (degraded, failed) = (inner.degraded_pairs() as u64, inner.failed_pairs() as u64);
        report.pairs.push(ManyPair {
            target_genome: target.name.clone(),
            query_genome: query.name.clone(),
            scheduled: plan.scheduled,
            shared: plan.shared,
            completed: inner.pairs.len() as u64 - degraded - failed,
            degraded,
            failed,
        });
        report.workload.merge(&inner.workload);
        report.timings.merge(&inner.timings);
        report.counters.merge(&inner.counters);
        report.resumed_pairs += inner.resumed_pairs;
        merged.extend(inner.alignments.into_iter().map(|located| ManyAlignment {
            target_genome: target.name.clone(),
            target_chrom: located.target_chrom,
            query_genome: query.name.clone(),
            query_chrom: located.query_chrom,
            aligned: located.aligned,
        }));
    }

    let (kept, sweep) = plane_sweep::plane_sweep(merged);
    report.alignments = kept;
    report.sweep = sweep;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::evolve::{EvolutionParams, SyntheticPair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn genome_set() -> Vec<Assembly> {
        let mut rng = StdRng::seed_from_u64(31);
        let p1 = SyntheticPair::generate(6_000, &EvolutionParams::at_distance(0.15), &mut rng);
        let p2 = SyntheticPair::generate(6_000, &EvolutionParams::at_distance(0.15), &mut rng);
        let mut g0 = Assembly::new("g0");
        g0.push("chr", p1.target.sequence.clone());
        let mut g1 = Assembly::new("g1");
        g1.push("chr", p1.query.sequence.clone());
        let mut g2 = Assembly::new("g2");
        g2.push("chr", p2.target.sequence.clone());
        vec![g0, g1, g2]
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let params = WgaParams::darwin_wga();
        let genomes = genome_set();
        let err = align_many(&params, &genomes[..1], &ManyOptions::default());
        assert!(err.is_err(), "one genome must be rejected");
        let mut dup = genome_set();
        dup[1].name = "g0".into();
        assert!(align_many(&params, &dup, &ManyOptions::default()).is_err());
        let zero = ManyOptions {
            threads: 0,
            ..ManyOptions::default()
        };
        assert!(align_many(&params, &genomes, &zero).is_err());
        let knn_zero = ManyOptions {
            knn: Some(0),
            ..ManyOptions::default()
        };
        assert!(align_many(&params, &genomes, &knn_zero).is_err());
    }

    #[test]
    fn canonical_text_shape() {
        let params = WgaParams::darwin_wga();
        let genomes = genome_set();
        let report = align_many(&params, &genomes, &ManyOptions::default()).unwrap();
        let text = report.canonical_text();
        assert_eq!(text.matches("genome\t").count(), 3);
        assert_eq!(text.matches("mpair\t").count(), 3);
        assert_eq!(text.matches("workload\t").count(), 1);
        assert_eq!(text.matches("sweep\t").count(), 1);
        assert!(report.summary().contains("3 genomes"));
    }
}
