//! Shared harness utilities for regenerating the paper's tables and
//! figures.
//!
//! Each table/figure is a subcommand of the `repro` binary
//! (`src/bin/repro/`); the functions here generate the synthetic species
//! pairs, run a configured pipeline, chain its output and compute the
//! Table III metric set.

#![warn(missing_docs)]

use chain::chainer::{chain_alignments, Chain};
use chain::metrics::{self, TruthScore};
use genome::evolve::{EvolutionParams, SpeciesPair, SyntheticPair};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wga_core::{config::WgaParams, pipeline::WgaPipeline, Strand, WgaReport};

/// Minimum chain score used throughout (the LASTZ default threshold).
pub const CHAIN_MIN_SCORE: i64 = 3000;

/// Generates the synthetic stand-in for one of the paper's species pairs.
pub fn paper_pair(species: &SpeciesPair, len: usize, seed: u64) -> SyntheticPair {
    let mut rng = StdRng::seed_from_u64(seed);
    SyntheticPair::generate(len, &species.evolution_params(), &mut rng)
}

/// Generates a pair at an arbitrary distance.
pub fn pair_at_distance(distance: f64, len: usize, seed: u64) -> SyntheticPair {
    let mut rng = StdRng::seed_from_u64(seed);
    SyntheticPair::generate(len, &EvolutionParams::at_distance(distance), &mut rng)
}

/// Everything the Table III columns need from one pipeline run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// The raw pipeline report (workload, timings, alignments).
    pub report: WgaReport,
    /// Chains over the forward-strand alignments.
    pub chains: Vec<Chain>,
    /// Matched bp across all chains (the paper's metric; overlapping
    /// chains may count a position twice).
    pub matched: u64,
    /// Unique matched target positions (inflation-proof variant).
    pub unique_matched: u64,
    /// Sum of the top-10 chain scores.
    pub top10_score: i64,
    /// Conserved elements ("exons") recovered at ≥50% coverage.
    pub exons_found: usize,
    /// Conserved elements assessed.
    pub exons_total: usize,
    /// Every alignment, either strand, scored against the ortholog runs.
    pub truth: TruthScore,
}

/// Runs `params` on a pair and computes chains + metrics.
pub fn run_and_measure(params: WgaParams, pair: &SyntheticPair) -> RunMetrics {
    let report = WgaPipeline::new(params).run(&pair.target.sequence, &pair.query.sequence);
    let alignments = report.forward_alignments();
    let chains = chain_alignments(&alignments, CHAIN_MIN_SCORE);
    let matched = metrics::matched_bases(&chains, &alignments);
    let unique_matched = metrics::unique_matched_bases(&chains, &alignments);
    let top10_score = metrics::top_k_total(&chains, 10);
    let exons = metrics::exon_recovery(&chains, &alignments, &pair.target.conserved, 0.5);
    let truth = metrics::truth_score(
        &pair.orthologous_runs(),
        (report.alignments.iter()).map(|a| (&a.alignment, a.strand == Strand::Forward)),
    );
    RunMetrics {
        report,
        chains,
        matched,
        unique_matched,
        top10_score,
        exons_found: exons.found,
        exons_total: exons.total,
        truth,
    }
}

/// Percentage-difference helper for table printing.
pub fn pct(new: f64, old: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (new - old) / old * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_and_measure_produces_consistent_metrics() {
        let pair = pair_at_distance(0.2, 20_000, 7);
        let m = run_and_measure(WgaParams::darwin_wga(), &pair);
        assert!(m.matched >= m.unique_matched);
        assert!(m.top10_score > 0);
        assert!(m.exons_total > 0);
        assert!(0 < m.truth.correct_bp && m.truth.correct_bp <= m.truth.aligned_bp);
        assert!(!m.chains.is_empty());
    }

    #[test]
    fn pct_helper() {
        assert!((pct(110.0, 100.0) - 10.0).abs() < 1e-12);
        assert_eq!(pct(5.0, 0.0), 0.0);
    }
}
