//! The seed-index parameters of a many-genome run.
//!
//! With `H` genomes in play, a k-mer present once per haplotype
//! legitimately occurs `H` times across the index, so [`scaled_params`]
//! multiplies `max_seed_occurrences` by the genome count (sweepga scales
//! its adaptive frequency threshold by haplotype count the same way).
//! The whole pair matrix aligns with these scaled parameters, so every
//! row's table is built from them.

use crate::config::WgaParams;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_multiplies_occurrence_cap() {
        let base = WgaParams::darwin_wga();
        let scaled = scaled_params(&base, 7);
        assert_eq!(scaled.max_seed_occurrences, base.max_seed_occurrences * 7);
        // Everything else unchanged.
        assert_eq!(scaled.seed_pattern, base.seed_pattern);
        assert_eq!(scaled.dsoft, base.dsoft);
    }
}
