//! The seed index of a many-genome run, one matrix row at a time.
//!
//! The joblist walks the pair matrix in `(a, b)` order, so every pair
//! that aligns against target genome `a` is consecutive: a [`RowIndex`]
//! holds that one genome's seed tables, keyed by chromosome and built at
//! most once, shared across the row's pairs and dropped when the row
//! ends. This is the sweepga/FastGA unlock — a
//! genome appearing in `N-1` pairs pays for its index once, not `N-1`
//! times — at the memory of one genome's index, not `N`. The tables are
//! built *lazily*, so a kNN-sparsified or resumed run never indexes a
//! chromosome none of whose pairs is computed.
//!
//! Frequency scaling: with `H` genomes in play, a k-mer present once
//! per haplotype legitimately occurs `H` times across the index, so
//! [`scaled_params`] multiplies `max_seed_occurrences` by the genome
//! count (sweepga scales its adaptive frequency threshold by haplotype
//! count the same way). Both the shared-index and per-pair-index modes
//! align with the *scaled* parameters, which is what makes their
//! outputs byte-identical: the table build is a function of the target
//! and the parameters, so equal parameters mean equal tables mean equal
//! reports.

use crate::config::WgaParams;
use crate::stages::timed_seed_table;
use genome::assembly::Assembly;
use seed::SeedTable;
use std::sync::{Arc, OnceLock};

/// Scales the k-mer frequency threshold for a many-genome run: a seed
/// may legitimately occur once per genome, so the per-table occurrence
/// cap grows linearly with genome count.
pub fn scaled_params(params: &WgaParams, genome_count: usize) -> WgaParams {
    let mut scaled = params.clone();
    scaled.max_seed_occurrences = scaled
        .max_seed_occurrences
        .saturating_mul(genome_count.max(1));
    scaled
}

/// The lazily-built seed tables of one target genome: what every pair
/// of one row of the pair matrix aligns against.
#[derive(Debug)]
pub struct RowIndex<'g> {
    target: &'g Assembly,
    params: &'g WgaParams,
    /// One slot per chromosome of `target`.
    tables: Vec<OnceLock<Arc<SeedTable>>>,
}

impl<'g> RowIndex<'g> {
    /// An empty index over `target`'s chromosomes. `params` must already
    /// be scaled (see [`scaled_params`]).
    pub fn new(params: &'g WgaParams, target: &'g Assembly) -> RowIndex<'g> {
        RowIndex {
            target,
            params,
            tables: target.chromosomes().iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// The seed table of the target's chromosome `chrom`, built on first
    /// use — the shape [`crate::genome_pipeline::SeedTableFn`] expects
    /// of a provider.
    pub fn table(&self, chrom: usize) -> Arc<SeedTable> {
        let table = self.tables[chrom].get_or_init(|| {
            let sequence = &self.target.chromosomes()[chrom].sequence;
            let (built, _build_time) = timed_seed_table(self.params, sequence);
            Arc::new(built)
        });
        Arc::clone(table)
    }

    /// Tables built so far (each chromosome at most once).
    pub fn builds(&self) -> u64 {
        self.tables.iter().filter(|table| table.get().is_some()).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::evolve::{EvolutionParams, SyntheticPair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_chromosomes() -> Assembly {
        let mut rng = StdRng::seed_from_u64(2);
        let pair = SyntheticPair::generate(5_000, &EvolutionParams::at_distance(0.15), &mut rng);
        let mut a = Assembly::new("a");
        a.push("chrI", pair.target.sequence.clone());
        a.push("chrII", pair.query.sequence.clone());
        a
    }

    #[test]
    fn scaling_multiplies_occurrence_cap() {
        let base = WgaParams::darwin_wga();
        let scaled = scaled_params(&base, 7);
        assert_eq!(scaled.max_seed_occurrences, base.max_seed_occurrences * 7);
        // Everything else unchanged.
        assert_eq!(scaled.seed_pattern, base.seed_pattern);
        assert_eq!(scaled.dsoft, base.dsoft);
    }

    #[test]
    fn tables_build_once_and_only_when_asked_for() {
        let genome = two_chromosomes();
        let params = scaled_params(&WgaParams::darwin_wga(), 2);
        let row = RowIndex::new(&params, &genome);
        assert_eq!(row.builds(), 0);
        let t1 = row.table(1);
        let t2 = row.table(1);
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(row.builds(), 1);
        let _ = row.table(0);
        assert_eq!(row.builds(), 2);
    }

    #[test]
    fn shared_table_matches_fresh_build() {
        let genome = two_chromosomes();
        let params = scaled_params(&WgaParams::darwin_wga(), 2);
        let shared = RowIndex::new(&params, &genome).table(0);
        let (fresh, _) = timed_seed_table(&params, &genome.chromosomes()[0].sequence);
        let seq = &genome.chromosomes()[1].sequence;
        for pos in (0..seq.len().saturating_sub(32)).step_by(97) {
            let word = seq
                .iter()
                .skip(pos)
                .take(16)
                .fold(0u64, |w, b| (w << 2) | u64::from(b.code() & 3));
            assert!(shared.lookup(word).eq(fresh.lookup(word)), "word at {pos}");
        }
    }
}
