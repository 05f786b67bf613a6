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

const ISLETS: usize = 5;
const ISLET_LEN: usize = 25;
const SPACER_T: usize = 12;
/// The query spacer is the target's minus a 3-base indel.
const SPACER_Q: usize = 9;
/// LASTZ's ungapped stage needs a gap-free block at least this long.
const LASTZ_BLOCK: usize = 30;

/// A random base unlike every one of `taken`.
fn unlike(taken: &[Option<Base>], rng: &mut StdRng) -> Base {
    loop {
        let b = Base::from_code(rng.gen_range(0..4u8));
        if !taken.contains(&Some(b)) {
            break b;
        }
    }
}

/// The query side of a target spacer: `SPACER_Q` bases, each unlike the
/// target base beside it on both neighbouring islets' diagonals (the
/// indel sits at the islet boundary on either reading).
fn query_spacer(sp_t: &Sequence, rng: &mut StdRng) -> Sequence {
    (0..SPACER_Q)
        .map(|j| unlike(&[sp_t.get(j), sp_t.get(j + SPACER_T - SPACER_Q)], rng))
        .collect()
}

/// Length of the gap-free block holding the islet at `(t, q)`: the islet
/// plus the identical bases that continue its diagonal on either side.
fn gap_free_block(target: &Sequence, query: &Sequence, t: usize, q: usize) -> usize {
    let same = |(a, b): (Base, Base)| a == b;
    let left = (target.iter().take(t).rev())
        .zip(query.iter().take(q).rev())
        .take_while(|&p| same(p))
        .count();
    let right = (target.iter().skip(t + ISLET_LEN))
        .zip(query.iter().skip(q + ISLET_LEN))
        .take_while(|&p| same(p))
        .count();
    left + ISLET_LEN + right
}

/// Builds the region from `seed` and runs both filters and both
/// pipelines on it.
///
/// # Errors
///
/// A gap-free block of `LASTZ_BLOCK` bases or more, or a region on which
/// the Fig. 9 phenomenon is absent: the ungapped filter passes, the BSW
/// filter rejects, or Darwin-WGA matches no more bases than LASTZ-like.
pub fn run(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = MarkovModel::genome_like();

    // The "exon": five ~25-bp conserved islets separated by indel-bearing
    // spacers.
    let islets: Vec<Sequence> = (0..ISLETS)
        .map(|_| model.generate(ISLET_LEN, &mut rng))
        .collect();

    // Embed in unrelated flanks whose bases beside the exon differ, so
    // every islet's diagonal meets a mismatch on both sides.
    let flank = 2_000usize;
    let mut target = model.generate(flank, &mut rng);
    let mut query = model.generate(flank - 1, &mut rng);
    query.push(unlike(&[target.get(flank - 1)], &mut rng));
    let (exon_t_start, exon_q_start) = (target.len(), query.len());
    let mut islet_at = Vec::new();
    for (i, islet) in islets.iter().enumerate() {
        islet_at.push((target.len(), query.len()));
        target.extend(islet.iter());
        query.extend(mutate(islet, 0.04, &mut rng).iter());
        if i + 1 < ISLETS {
            let sp_t = model.generate(SPACER_T, &mut rng);
            query.extend(query_spacer(&sp_t, &mut rng).iter());
            target.extend(sp_t.iter());
        }
    }
    let tail = model.generate(flank, &mut rng);
    query.push(unlike(&[tail.get(0)], &mut rng));
    query.extend(model.generate(flank - 1, &mut rng).iter());
    target.extend(tail.iter());

    // Checked at every junction, not assumed from the construction.
    let longest = (islet_at.iter())
        .map(|&(t, q)| gap_free_block(&target, &query, t, q))
        .max()
        .unwrap_or(0);
    if longest >= LASTZ_BLOCK {
        return Err(format!(
            "fig9 seed {seed}: a {longest}-bp gap-free block reaches the LASTZ cutoff"
        ));
    }

    println!("Constructed a Fig. 9-style region (seed {seed}):");
    println!("  exon: {ISLETS} conserved islets of {ISLET_LEN} bp separated by indel spacers");
    println!(
        "  longest gap-free block {longest} bp (< {LASTZ_BLOCK}, the LASTZ ungapped cutoff)\n"
    );

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

    if ug.score >= 3000 || bsw.max_score < 4000 || darwin.total_matches() <= lastz.total_matches() {
        return Err(format!("fig9 seed {seed}: the Fig. 9 phenomenon is absent"));
    }
    println!("\n→ The gapped filter recovered the exon that ungapped filtering lost —");
    println!("  the Fig. 9 phenomenon.");
    Ok(())
}
