//! Exon recovery with a TBLASTX-defined oracle — the paper's §V-E
//! methodology, made possible by the `protein` crate (§IX future work).
//!
//! The paper could not know which exons were genuinely alignable, so it
//! used TBLASTX (protein-space search, far more sensitive for coding
//! sequence) to define the "Total" column of Table III, then counted how
//! many of those exons each DNA aligner's chains covered. We replicate
//! that exact protocol: our translated search defines the alignable exon
//! set; both pipelines are scored against it; ground truth (which the
//! paper lacked) is printed alongside for calibration.

use genome::annotation::Interval;
use genome::evolve::SpeciesPair;
use protein::search::{tblastx, TblastxParams};
use wga_bench::{paper_pair, run_and_measure};
use wga_core::config::WgaParams;

pub fn run(genome_len: usize) {
    println!("Exon recovery with a TBLASTX-like oracle ({genome_len}-bp pairs)\n");
    println!(
        "{:<14} | {:>6} {:>10} | {:>9} {:>9} | {:>9} {:>9}",
        "pair", "exons", "tblastx-ok", "LZ found", "LZ %", "DW found", "DW %"
    );

    for (i, sp) in SpeciesPair::paper_pairs().iter().enumerate() {
        let pair = paper_pair(sp, genome_len, 3000 + i as u64);

        // Oracle: an exon is "alignable" when the translated search finds
        // a hit overlapping it. Run tblastx per exon window (plus margin)
        // to keep the search tractable and targeted, as the paper ran
        // TBLASTX per annotated exon.
        let params = TblastxParams::default();
        let mut alignable: Vec<&Interval> = Vec::new();
        for exon in &pair.target.conserved {
            let margin = 60usize;
            let t0 = exon.start.saturating_sub(margin);
            let t1 = (exon.end + margin).min(pair.target.sequence.len());
            let window = pair.target.sequence.subsequence(t0..t1);
            // Search the window against the whole query genome.
            let hits = tblastx(&window, &pair.query.sequence, &params);
            if !hits.is_empty() {
                alignable.push(exon);
            }
        }

        // DNA pipelines, scored against the tblastx-alignable set.
        let score = |params: WgaParams| {
            let m = run_and_measure(params, &pair);
            let alignments = m.report.forward_alignments();
            let exons: Vec<Interval> = alignable.iter().map(|&e| e.clone()).collect();
            chain::metrics::exon_recovery(&m.chains, &alignments, &exons, 0.5).found
        };
        let lz = score(WgaParams::lastz_baseline());
        let dw = score(WgaParams::darwin_wga());
        let denom = alignable.len().max(1);
        println!(
            "{:<14} | {:>6} {:>10} | {:>9} {:>8.1}% | {:>9} {:>8.1}%",
            sp.name(),
            pair.target.conserved.len(),
            alignable.len(),
            lz,
            lz as f64 / denom as f64 * 100.0,
            dw,
            dw as f64 / denom as f64 * 100.0,
        );
    }

    println!("\nPaper (Table III exon columns): Darwin-WGA covers more TBLASTX-confirmed");
    println!("exons than LASTZ on every pair (+2.70% for ce11-cb4 down to +0.09%).");
    println!("Expected shape: DW% ≥ LZ%, with the gap growing with distance; the");
    println!("tblastx-ok column shrinks with distance as exons diverge beyond even");
    println!("protein-level detection (the paper's 'Total' column behaves the same).");
}
