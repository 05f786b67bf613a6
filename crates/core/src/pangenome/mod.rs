//! Many-genome mode: the pairwise aligner as a pangenome engine.
//!
//! `wga many` aligns every (or every *near*, under `--knn`) unordered
//! pair of an N-genome set through the existing pairwise pipeline,
//! sharing each target genome's lazily-built seed index across its row
//! of the pair matrix:
//!
//! * [`index::RowIndex`] — one target genome's seed tables, keyed by
//!   chromosome, built once with the k-mer
//!   frequency cap scaled by genome count ([`index::scaled_params`])
//!   and dropped when the matrix moves on to the next target;
//! * [`mash`] / [`joblist`] — integer-only bottom-k sketches and the
//!   all-vs-all joblist, optionally kNN-sparsified;
//! * the orchestrator ([`align_many`]) — runs each scheduled pair
//!   through [`crate::genome_pipeline::align_assemblies_provided`] on
//!   the configured executor, with budgets, fault injection, retry,
//!   watchdog and a *per-genome-pair* checkpoint journal, so an
//!   N-genome run resumes at pair granularity;
//! * [`plane_sweep`] — dedups overlapping alignments across the merged
//!   result set;
//! * [`paf`] — renders the survivors as PAF.
//!
//! Determinism contract: [`ManyReport::canonical_text`] and the PAF are
//! byte-identical across executors, thread counts, shard sizes and
//! shared-index vs per-pair-index modes. Everything order-sensitive
//! walks the joblist's canonical `(a, b)` order; everything timed or
//! scheduled stays out of the canonical surfaces.

pub mod index;
pub mod joblist;
pub mod mash;
pub mod paf;
pub mod plane_sweep;

use crate::config::WgaParams;
use crate::dataflow::{ExecutorKind, DEFAULT_QUEUE_DEPTH};
use crate::error::{WgaError, WgaResult};
use crate::faultsim::FaultPlan;
use crate::genome_pipeline::{align_assemblies_provided, AlignOptions, SeedTableFn};
use crate::obs::Obs;
use crate::report::{FunnelCounters, RunOutcome, StageTimings, WgaAlignment};
use genome::assembly::Assembly;
use hwsim::Workload;
use index::RowIndex;
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
    /// Worker threads for every inner pairwise run.
    pub threads: usize,
    /// Executor driving each pair.
    pub executor: ExecutorKind,
    /// Dataflow queue depth.
    pub queue_depth: usize,
    /// Supervised-retry budget per I/O site.
    pub max_retries: u32,
    /// Watchdog stall timeout (0 = disabled).
    pub stall_timeout_ms: u64,
    /// Fault plan applied to every inner run (chaos testing).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Checkpoint directory: one `pair_<a>_<b>.journal` per scheduled
    /// pair, created on demand. A rerun pointing at the same directory
    /// replays completed pairs and recomputes the rest.
    pub checkpoint_dir: Option<PathBuf>,
    /// Keep only pairs where either genome ranks the other in its `k`
    /// nearest by sketch distance; `None` = all pairs.
    pub knn: Option<usize>,
    /// Share a target genome's seed index across its pairs (default).
    /// `false` rebuilds tables per pair — same bytes out, slower; exists
    /// so the equivalence is testable.
    pub shared_index: bool,
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
            shared_index: true,
        }
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
    /// Seed tables built (shared-index mode builds each at most once,
    /// for the row of pairs that aligns against it).
    pub tables_built: u64,
}

impl ManyReport {
    /// The deterministic comparison surface: genome roster, pair
    /// outcomes, surviving alignments, workload and sweep statistics.
    /// Byte-identical across executors, thread counts, shard sizes and
    /// index modes; timings, counters and resume provenance stay out.
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
        out.push_str(&format!("sweep\t{}\t{}\n", self.sweep.kept, self.sweep.dropped));
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

/// [`align_many`] with an observability hook threaded into every inner
/// pairwise run.
pub fn align_many_observed(
    params: &WgaParams,
    genomes: &[Assembly],
    options: &ManyOptions,
    obs: Obs<'_>,
) -> WgaResult<ManyReport> {
    params.validate()?;
    if genomes.len() < 2 {
        return Err(WgaError::config("many-genome mode needs at least two genomes"));
    }
    if options.threads == 0 {
        return Err(WgaError::config("threads must be at least 1"));
    }
    if options.knn == Some(0) {
        return Err(WgaError::config("knn must be at least 1 (omit it to align all pairs)"));
    }
    let names: BTreeSet<&str> = genomes.iter().map(|g| g.name.as_str()).collect();
    if names.len() != genomes.len() {
        return Err(WgaError::config("genome names must be unique"));
    }
    if let Some(dir) = &options.checkpoint_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| WgaError::io(format!("checkpoint dir {}", dir.display()), e))?;
    }

    // One scaled parameter set for the whole run — both index modes use
    // it, which is what makes them byte-identical.
    let scaled = index::scaled_params(params, genomes.len());
    let sketches: Vec<Sketch> = genomes.iter().map(Sketch::of_assembly).collect();
    let plans: Vec<PairPlan> = joblist::build_joblist(&sketches, options.knn);

    // Announce the matrix-wide chromosome-pair total once, up front, so
    // a progress meter shows run-level completion; the per-pair
    // pipelines get a muted handle below so their own per-run totals
    // cannot clobber it.
    let total_chrom_pairs: u64 = plans
        .iter()
        .filter(|p| p.scheduled)
        .map(|p| (genomes[p.a].chromosomes().len() * genomes[p.b].chromosomes().len()) as u64)
        .sum();
    obs.set_total_pairs(total_chrom_pairs);
    let pair_obs = obs.with_muted_totals();

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
        ..ManyReport::default()
    };

    let mut merged: Vec<ManyAlignment> = Vec::new();
    // The joblist is in `(a, b)` order, so a target genome's pairs are
    // one run of it: its seed tables live for that run and no longer.
    for row in plans.chunk_by(|x, y| x.a == y.a) {
        let target = &genomes[row[0].a];
        let row_index = RowIndex::new(&scaled, target);
        let provider = |chrom| row_index.table(chrom);
        let tables: Option<&SeedTableFn<'_>> = options.shared_index.then_some(&provider);
        for plan in row {
            let query = &genomes[plan.b];
            let mut pair = ManyPair {
                target_genome: target.name.clone(),
                query_genome: query.name.clone(),
                scheduled: plan.scheduled,
                shared: plan.shared,
                completed: 0,
                degraded: 0,
                failed: 0,
            };
            if !plan.scheduled {
                report.pairs.push(pair);
                continue;
            }

            let align_options = AlignOptions {
                threads: options.threads,
                checkpoint: options
                    .checkpoint_dir
                    .as_ref()
                    .map(|dir| dir.join(format!("pair_{:03}_{:03}.journal", plan.a, plan.b))),
                executor: options.executor,
                queue_depth: options.queue_depth,
                max_retries: options.max_retries,
                stall_timeout_ms: options.stall_timeout_ms,
                fault_plan: options.fault_plan.clone(),
            };
            let inner = align_assemblies_provided(
                &scaled,
                target,
                query,
                &align_options,
                pair_obs,
                tables,
            )?;

            for outcome in &inner.pairs {
                match &outcome.outcome {
                    RunOutcome::Completed => pair.completed += 1,
                    RunOutcome::Degraded { .. } => pair.degraded += 1,
                    RunOutcome::Failed { .. } => pair.failed += 1,
                }
            }
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
            report.pairs.push(pair);
        }
        report.tables_built += row_index.builds();
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
    fn shared_and_per_pair_index_agree() {
        let params = WgaParams::darwin_wga();
        let genomes = genome_set();
        let shared = align_many(&params, &genomes, &ManyOptions::default()).unwrap();
        let per_pair = align_many(
            &params,
            &genomes,
            &ManyOptions {
                shared_index: false,
                ..ManyOptions::default()
            },
        )
        .unwrap();
        assert_eq!(shared.canonical_text(), per_pair.canonical_text());
        // The shared index really shared: only target sides need tables,
        // and g0 is the target of two pairs — two builds, not three.
        assert_eq!(shared.tables_built, 2);
        assert_eq!(per_pair.tables_built, 0);
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
