//! Table III — sensitivity comparison of Darwin-WGA and LASTZ.
//!
//! For each of the paper's four species pairs (synthetic stand-ins at the
//! Fig. 8 phylogenetic distances, Table I sizes scaled down) we run both
//! pipelines, chain the outputs, and print the paper's three sensitivity
//! metrics: top-10 chain score improvement, matched base pairs (and the
//! inflation-proof unique variant), and conserved-exon recovery (against
//! the evolution model's ground truth instead of TBLASTX).
//!
//! Expected shape (paper): Darwin-WGA ≥ LASTZ everywhere; improvements
//! grow with phylogenetic distance (up to 3.12× matched bp for ce11-cb4).

use genome::evolve::SpeciesPair;
use wga_bench::{paper_pair, pct, run_and_measure};
use wga_core::config::WgaParams;

pub fn run(genome_len: usize, replicates: u64) {
    println!("Table III — sensitivity comparison (synthetic pairs, {genome_len} bp, {replicates} replicates)\n");
    println!("Species pairs (Table I / Fig. 8 stand-ins):");
    for sp in SpeciesPair::paper_pairs() {
        println!(
            "  {:<14} distance {:.2} subst/site (real target size {:.1} Mbp)",
            sp.name(),
            sp.distance,
            sp.real_size_mbp
        );
    }

    println!(
        "\n{:<14} | {:>9} | {:>11} {:>11} {:>7} | {:>11} {:>11} {:>7} | {:>11} {:>11}",
        "pair",
        "top10 Δ%",
        "LASTZ bp",
        "Darwin bp",
        "ratio",
        "LZ uniq",
        "DW uniq",
        "ratio",
        "LZ exons",
        "DW exons"
    );

    for (i, sp) in SpeciesPair::paper_pairs().iter().enumerate() {
        let mut lastz_bp = 0u64;
        let mut darwin_bp = 0u64;
        let mut lastz_uniq = 0u64;
        let mut darwin_uniq = 0u64;
        let mut lastz_top10 = 0i64;
        let mut darwin_top10 = 0i64;
        let (mut lz_exons, mut dw_exons, mut total_exons) = (0usize, 0usize, 0usize);
        for rep in 0..replicates {
            let pair = paper_pair(sp, genome_len, 1000 + 17 * i as u64 + rep);
            let lz = run_and_measure(WgaParams::lastz_baseline(), &pair);
            let dw = run_and_measure(WgaParams::darwin_wga(), &pair);
            lastz_bp += lz.matched;
            darwin_bp += dw.matched;
            lastz_uniq += lz.unique_matched;
            darwin_uniq += dw.unique_matched;
            lastz_top10 += lz.top10_score;
            darwin_top10 += dw.top10_score;
            lz_exons += lz.exons_found;
            dw_exons += dw.exons_found;
            total_exons += lz.exons_total;
        }
        println!(
            "{:<14} | {:>+8.2}% | {:>11} {:>11} {:>6.2}x | {:>11} {:>11} {:>6.2}x | {:>6}/{:<4} {:>6}/{:<4}",
            sp.name(),
            pct(darwin_top10 as f64, lastz_top10 as f64),
            lastz_bp,
            darwin_bp,
            darwin_bp as f64 / lastz_bp.max(1) as f64,
            lastz_uniq,
            darwin_uniq,
            darwin_uniq as f64 / lastz_uniq.max(1) as f64,
            lz_exons,
            total_exons,
            dw_exons,
            total_exons,
        );
    }

    println!(
        "\nPaper (Table III): top10 +5.73/+1.86/+0.05/+0.03%, matched-bp 3.12/1.42/1.41/1.25x,"
    );
    println!(
        "exons +2.70/+0.41/+0.09/+0.20%. Expected reproduction shape: Darwin ≥ LASTZ on every"
    );
    println!(
        "metric, improvements growing with phylogenetic distance. Close pairs approach parity"
    );
    println!("here because baseline and Darwin-WGA share seeding and extension exactly (see");
    println!("EXPERIMENTS.md for the discussion).");
}
