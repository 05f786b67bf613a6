//! Fig. 9 case study: an exon alignment that ungapped filtering misses.
//!
//! The paper's browser shot (Fig. 9) shows a single-exon gene in dm6 whose
//! dp4 alignment contains seed hits flanked by indels on both sides: the
//! ungapped extension stage of LASTZ cannot cross the indels and drops the
//! region, while Darwin-WGA's banded Smith-Waterman filter absorbs them
//! and extends the hit to a >400 bp alignment.
//!
//! This artefact reconstructs that situation synthetically: a conserved
//! "exon" whose only seed hits sit in short conserved islets separated by
//! indels, embedded in unrelated flanks. It then runs both filters on the
//! same seed hit and both full pipelines on the region.

use align::{banded, ungapped};
use genome::{markov::MarkovModel, Base, GapPenalties, Sequence, SubstitutionMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wga_core::{config::WgaParams, pipeline::WgaPipeline};

/// Mutates ~`rate` of bases.
fn mutate(s: &Sequence, rate: f64, rng: &mut StdRng) -> Sequence {
    s.iter()
        .map(|b| {
            if rng.gen::<f64>() < rate {
                Base::from_code(rng.gen_range(0..4u8))
            } else {
                b
            }
        })
        .collect()
}

pub fn run() {
    let mut rng = StdRng::seed_from_u64(9);
    let model = MarkovModel::genome_like();

    // The "exon": five ~25-bp conserved islets separated by indel-bearing
    // spacers — every gap-free block is < 30 bp, the LASTZ cutoff.
    let islets: Vec<Sequence> = (0..5).map(|_| model.generate(25, &mut rng)).collect();
    let spacers_t: Vec<Sequence> = (0..4).map(|_| model.generate(12, &mut rng)).collect();

    let mut exon_t = Sequence::new();
    let mut exon_q = Sequence::new();
    for (i, islet) in islets.iter().enumerate() {
        exon_t.extend(islet.iter());
        exon_q.extend(mutate(islet, 0.04, &mut rng).iter());
        if i < 4 {
            let sp = &spacers_t[i];
            exon_t.extend(sp.iter());
            // Query spacer: a diverged copy with an indel (3 bases shorter).
            let sp_q = mutate(&sp.subsequence(0..9), 0.3, &mut rng);
            exon_q.extend(sp_q.iter());
        }
    }

    // Embed in unrelated flanks.
    let flank = 2_000usize;
    let mut target = model.generate(flank, &mut rng);
    let exon_t_start = target.len();
    target.extend(exon_t.iter());
    target.extend(model.generate(flank, &mut rng).iter());
    let mut query = model.generate(flank, &mut rng);
    let exon_q_start = query.len();
    query.extend(exon_q.iter());
    query.extend(model.generate(flank, &mut rng).iter());

    println!("Constructed a Fig. 9-style region:");
    println!("  exon: 5 conserved islets of 25 bp separated by indel spacers");
    println!("  every gap-free block < 30 bp (the LASTZ ungapped cutoff)\n");

    // --- Compare the two filters on the same seed hit ------------------
    let w = SubstitutionMatrix::darwin_wga();
    let g = GapPenalties::darwin_wga();
    let (seed_t, seed_q) = (exon_t_start + 5, exon_q_start + 5);

    let ug = ungapped::ungapped_extend(&target, &query, seed_t, seed_q, 12, &w, 910);
    println!("Ungapped X-drop filter (LASTZ stage):");
    println!(
        "  best segment {}..{} on the seed diagonal, score {} (threshold 3000) → {}",
        ug.target_start,
        ug.target_end,
        ug.score,
        if ug.score >= 3000 { "PASS" } else { "REJECTED" }
    );

    let (tr, qr) = banded::tile_around(seed_t, seed_q, 320, target.len(), query.len());
    let bsw =
        banded::banded_smith_waterman(&target.to_bases()[tr], &query.to_bases()[qr], &w, &g, 32);
    println!("Gapped BSW filter (Darwin-WGA stage):");
    println!(
        "  tile Vmax {} (threshold 4000) → {}\n",
        bsw.max_score,
        if bsw.max_score >= 4000 {
            "PASS"
        } else {
            "REJECTED"
        }
    );

    // --- Run both complete pipelines on the region ----------------------
    let lastz = WgaPipeline::new(WgaParams::lastz_baseline()).run(&target, &query);
    let darwin = WgaPipeline::new(WgaParams::darwin_wga()).run(&target, &query);
    println!("Full pipelines over the {}-bp region:", target.len());
    println!(
        "  LASTZ-like : {} alignments, {} matched bp",
        lastz.alignments.len(),
        lastz.total_matches()
    );
    println!(
        "  Darwin-WGA : {} alignments, {} matched bp",
        darwin.alignments.len(),
        darwin.total_matches()
    );

    if darwin.total_matches() > lastz.total_matches() {
        println!("\n→ The gapped filter recovered the exon that ungapped filtering lost —");
        println!("  the Fig. 9 phenomenon.");
    } else {
        println!(
            "\n(unexpected: gapped filtering did not win on this seed — rerun with another seed)"
        );
    }
}
