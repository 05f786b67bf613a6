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
//! * the orchestrator ([`align_many_observed`]) — builds the matrix over
//!   the scheduled joblist pairs and runs it on the thread count's
//!   schedule under the [`AlignOptions`] of any matrix run — budgets,
//!   fault injection, and a checkpoint that is a
//!   directory of *per-genome-pair* journals, so an N-genome run resumes
//!   at chromosome-pair granularity — with the same tracing as a
//!   two-assembly run;
//! * [`plane_sweep`] — dedups overlapping alignments within each
//!   chromosome pair's record, strand by strand;
//! * [`paf`] — renders the survivors as PAF.
//!
//! A genome pair's result is its block's [`PairRecord`]s, kept whole in
//! [`ManyPair::records`]; nothing regroups them, and [`by_score`] alone
//! orders alignments across a genome pair's chromosome pairs.
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
use crate::dataflow::QUEUE_DEPTH;
use crate::durable;
use crate::error::{WgaError, WgaResult};
use crate::genome_pipeline::{align_matrix, by_score, AlignOptions, PairMatrix};
use crate::journal::PairRecord;
use crate::obs::Obs;
use crate::report::{FunnelCounters, RunOutcome, Strand};
use genome::assembly::Assembly;
use hwsim::Workload;
use joblist::PairPlan;
use mash::Sketch;
use plane_sweep::SweepStats;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The options of a many-genome run are those of any run over the pair
/// matrix. Kept, hidden, for callers that still name it.
#[doc(hidden)]
pub type ManyOptions = AlignOptions;

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
#[derive(Debug, Clone, PartialEq)]
pub struct ManyPair {
    /// Target-side genome name (lower index).
    pub target_genome: String,
    /// Query-side genome name (higher index).
    pub query_genome: String,
    /// False when kNN sparsification skipped the pair.
    pub scheduled: bool,
    /// Sketch hashes the genomes share (the kNN ranking signal).
    pub shared: u64,
    /// Its chromosome pairs' records in pair-id order, each holding the
    /// alignments that survived the plane sweep (reverse-strand query
    /// coordinates on the reverse complement). Empty for a skipped pair.
    pub records: Vec<PairRecord>,
}

impl ManyPair {
    fn count(&self, outcome: impl Fn(&RunOutcome) -> bool) -> u64 {
        self.records.iter().filter(|r| outcome(&r.outcome)).count() as u64
    }

    /// Chromosome pairs that completed cleanly.
    pub fn completed(&self) -> u64 {
        self.count(|o| matches!(o, RunOutcome::Completed))
    }

    /// Chromosome pairs that completed degraded (budget exceeded).
    pub fn degraded(&self) -> u64 {
        self.count(|o| matches!(o, RunOutcome::Degraded { .. }))
    }

    /// Chromosome pairs that failed.
    pub fn failed(&self) -> u64 {
        self.count(|o| matches!(o, RunOutcome::Failed { .. }))
    }
}

/// Result of a many-genome run.
#[derive(Debug, Clone, Default)]
pub struct ManyReport {
    /// The input genome set, in input order.
    pub genomes: Vec<GenomeSummary>,
    /// Every unordered pair in canonical `(a, b)` order.
    pub pairs: Vec<ManyPair>,
    /// Plane-sweep kept/dropped statistics.
    pub sweep: SweepStats,
    /// Aggregate pipeline workload over all scheduled pairs.
    pub workload: Workload,
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
    /// counters and resume provenance stay out.
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
                format!(
                    "c{}d{}f{}",
                    pair.completed(),
                    pair.degraded(),
                    pair.failed()
                )
            } else {
                "skipped".to_string()
            };
            out.push_str(&format!(
                "mpair\t{}\t{}\t{}\t{}\n",
                pair.target_genome, pair.query_genome, pair.shared, status
            ));
        }
        for pair in &self.pairs {
            for (record, a) in by_score(&pair.records) {
                out.push_str(&format!(
                    "aln\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                    pair.target_genome,
                    record.target_chrom,
                    pair.query_genome,
                    record.query_chrom,
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
        let failed: u64 = self.pairs.iter().map(ManyPair::failed).sum();
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

/// The journal of genome pair `a`-`b` (indices into the run's genomes)
/// in checkpoint directory `dir`: `pair_<a>_<b>.journal`, three digits
/// each at least.
pub fn pair_journal(dir: &Path, a: usize, b: usize) -> PathBuf {
    dir.join(format!("pair_{a:03}_{b:03}.journal"))
}

/// Aligns every scheduled genome pair in one executor run threaded
/// through `obs`; see the module docs. `options.checkpoint` is a
/// directory of one journal a genome pair ([`pair_journal`]).
///
/// # Errors
///
/// [`WgaError::Config`] on degenerate parameters or options (see
/// [`AlignOptions::validate`]), fewer than two genomes or duplicate
/// genome names; journal errors ([`WgaError::Checkpoint`] /
/// [`WgaError::Io`]) from any pair propagate.
pub fn align_many_observed(
    params: &WgaParams,
    genomes: &[Assembly],
    options: &AlignOptions,
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
    if let Some(dir) = &options.checkpoint {
        std::fs::create_dir_all(dir)
            .map_err(|e| WgaError::io(format!("checkpoint dir {}", dir.display()), e))?;
        durable::sync_parent_dir(dir)?;
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
        let checkpoint = (options.checkpoint.as_ref()).map(|dir| pair_journal(dir, plan.a, plan.b));
        (&genomes[plan.a], &genomes[plan.b], checkpoint)
    }));
    let (blocks, tables_built) = align_matrix(&scaled, &matrix, options, QUEUE_DEPTH, obs)?;

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
    let mut blocks = blocks.into_iter();
    for plan in &plans {
        // One block a scheduled plan, in joblist order; a skipped plan
        // aligned nothing.
        let inner = plan
            .scheduled
            .then(|| blocks.next())
            .flatten()
            .unwrap_or_default();
        report.workload.merge(&inner.workload);
        report.counters.merge(&inner.counters);
        report.resumed_pairs += inner.resumed_pairs;
        let mut records = inner.pairs;
        for record in &mut records {
            plane_sweep::plane_sweep(&mut record.alignments, &mut report.sweep);
        }
        report.pairs.push(ManyPair {
            target_genome: genomes[plan.a].name.clone(),
            query_genome: genomes[plan.b].name.clone(),
            scheduled: plan.scheduled,
            shared: plan.shared,
            records,
        });
    }
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
        let run = |genomes: &[Assembly], options: &AlignOptions| {
            align_many_observed(&params, genomes, options, Obs::off())
        };
        let err = run(&genomes[..1], &AlignOptions::default());
        assert!(err.is_err(), "one genome must be rejected");
        let mut dup = genome_set();
        dup[1].name = "g0".into();
        assert!(run(&dup, &AlignOptions::default()).is_err());
        let zero = AlignOptions {
            threads: 0,
            ..AlignOptions::default()
        };
        assert!(run(&genomes, &zero).is_err());
        let knn_zero = AlignOptions {
            knn: Some(0),
            ..AlignOptions::default()
        };
        assert!(run(&genomes, &knn_zero).is_err());
    }

    #[test]
    fn canonical_text_shape() {
        let params = WgaParams::darwin_wga();
        let genomes = genome_set();
        let report =
            align_many_observed(&params, &genomes, &AlignOptions::default(), Obs::off()).unwrap();
        let text = report.canonical_text();
        assert_eq!(text.matches("genome\t").count(), 3);
        assert_eq!(text.matches("mpair\t").count(), 3);
        assert_eq!(text.matches("workload\t").count(), 1);
        assert_eq!(text.matches("sweep\t").count(), 1);
        assert!(report.summary().contains("3 genomes"));
    }
}
