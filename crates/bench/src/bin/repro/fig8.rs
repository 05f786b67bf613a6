//! Figure 8 — phylogenetic distances, recovered from our own alignments.
//!
//! The paper computes its species-pair distances with PHAST from the
//! whole-genome alignments. We close the same loop: generate each pair
//! *at* a known distance, align it with Darwin-WGA, and estimate the
//! distance back from the chained alignments with Jukes-Cantor and
//! Kimura-2P corrections (`chain::phylo`).
//!
//! Expected shape: at moderate distances the estimate recovers the
//! generating value; at deep distances only the conserved fraction still
//! aligns, so estimates are downward-biased (ascertainment) — the same
//! bias real WGA-based distance estimates carry. The K2P ts/tv ratio
//! reflects the model's transition bias.

use chain::phylo::SubstitutionCounts;
use genome::evolve::SpeciesPair;
use wga_bench::{paper_pair, run_and_measure};
use wga_core::config::WgaParams;

pub fn run(genome_len: usize) {
    println!("Fig. 8 — distances re-estimated from Darwin-WGA alignments ({genome_len} bp)\n");
    println!(
        "{:<14} {:>10} | {:>8} {:>8} {:>8} {:>7}",
        "pair", "true dist", "p-dist", "JC", "K2P", "ts/tv"
    );
    for (i, sp) in SpeciesPair::paper_pairs().iter().enumerate() {
        let pair = paper_pair(sp, genome_len, 5000 + i as u64);
        let m = run_and_measure(WgaParams::darwin_wga(), &pair);
        let alignments = m.report.forward_alignments();
        let counts = SubstitutionCounts::from_chains(
            &m.chains,
            &alignments,
            &pair.target.sequence,
            &pair.query.sequence,
        );
        println!(
            "{:<14} {:>10.2} | {:>8.3} {:>8} {:>8} {:>7.2}",
            sp.name(),
            sp.distance,
            counts.p_distance(),
            counts
                .jukes_cantor()
                .map(|d| format!("{d:.3}"))
                .unwrap_or_else(|| "sat.".into()),
            counts
                .kimura_2p()
                .map(|d| format!("{d:.3}"))
                .unwrap_or_else(|| "sat.".into()),
            counts.ts_tv_ratio(),
        );
    }
    println!("\nNotes: estimates measure the *alignable* fraction, exactly as PHAST-");
    println!("from-WGA does on real genomes. At moderate distance (droYak2) the neutral");
    println!("fraction still aligns and the estimate recovers the generating value; at");
    println!("deep distances (dp4, cb4) only conserved islands — evolving ~4x slower —");
    println!("survive alignment, so the estimates drop below the moderate pair: the");
    println!("classic ascertainment bias of alignment-based distances. The ts/tv ratio");
    println!("reflects the model's transition bias, compressed toward 1 by multiple");
    println!("hits as divergence grows.");
}
