//! §VI-B noise analysis — false-positive rate against a shuffled genome.
//!
//! The paper builds a "random" target by shuffling the 2-mers of ce11
//! (preserving dinucleotide statistics), aligns cb4 against it, and
//! counts every matched base pair as a false positive: FPR 0.0007% for
//! Darwin-WGA at Hf=4000 vs 0.0002% for LASTZ — and a dramatic 1.48% if
//! Hf is lowered to LASTZ's default 3000. The experiment is repeated 3
//! times with different shuffles.

use chain::metrics::false_positive_rate;
use genome::evolve::SpeciesPair;
use genome::shuffle::shuffle_dinucleotides;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wga_bench::{paper_pair, run_and_measure};
use wga_core::config::WgaParams;

pub fn run(genome_len: usize, replicates: u64) {
    let sp = &SpeciesPair::paper_pairs()[0]; // ce11-cb4, as in the paper
    let mut pair = paper_pair(sp, genome_len, 77);
    println!(
        "Noise analysis on the {} stand-in ({genome_len} bp, {replicates} shuffles)\n",
        sp.name()
    );

    let configs = [
        ("Darwin-WGA Hf=4000", WgaParams::darwin_wga()),
        (
            "Darwin-WGA Hf=3000",
            WgaParams::darwin_wga().with_filter_threshold(3000),
        ),
        ("LASTZ-like", WgaParams::lastz_baseline()),
    ];

    println!(
        "{:<20} {:>14} {:>16} {:>12}",
        "pipeline", "real matched", "shuffled matched", "FPR"
    );
    for (label, params) in configs {
        let real = run_and_measure(params.clone(), &pair).matched;
        let mut shuffled_total = 0u64;
        for rep in 0..replicates {
            let mut rng = StdRng::seed_from_u64(500 + rep);
            let shuffled_target = shuffle_dinucleotides(&pair.target.sequence, &mut rng);
            let original = std::mem::replace(&mut pair.target.sequence, shuffled_target);
            shuffled_total += run_and_measure(params.clone(), &pair).matched;
            pair.target.sequence = original;
        }
        let shuffled_avg = shuffled_total / replicates;
        let fpr = false_positive_rate(real, shuffled_avg);
        println!(
            "{:<20} {:>14} {:>16} {:>11.4}%",
            label,
            real,
            shuffled_avg,
            fpr * 100.0
        );
    }

    println!("\nPaper: Darwin-WGA Hf=4000 FPR 0.0007%, LASTZ 0.0002%, Darwin-WGA Hf=3000 1.48%.");
    println!("Expected shape: FPR tiny at Hf=4000 and for LASTZ; orders of magnitude larger");
    println!("when the gapped-filter threshold is lowered to 3000 — the reason the paper's");
    println!("default adopts Hf=4000 (§VI-B).");

    // The maximum random-alignment score grows with log(search space); the
    // paper's genomes span a ~1e16-cell space where random scores exceed
    // 3000, while this laptop-scale run spans ~1e9 where they cannot. To
    // exhibit the *mechanism* at this scale we sweep the thresholds down:
    // the gapped filter, which tolerates indels, admits spurious chains
    // well before the ungapped filter does.
    println!("\nThreshold sweep (both Hf and He set to the sweep value, shuffled target):");
    println!(
        "{:<12} {:>22} {:>22}",
        "threshold", "gapped false bp", "ungapped false bp"
    );
    let mut rng = StdRng::seed_from_u64(900);
    let shuffled_target = shuffle_dinucleotides(&pair.target.sequence, &mut rng);
    let original = std::mem::replace(&mut pair.target.sequence, shuffled_target);
    for threshold in [1200i64, 1500, 1800, 2200, 2600, 3000] {
        let mut gapped = WgaParams::darwin_wga().with_filter_threshold(threshold);
        gapped.extension_threshold = threshold;
        let mut ungapped = WgaParams::lastz_baseline().with_filter_threshold(threshold);
        ungapped.extension_threshold = threshold;
        let g = run_and_measure(gapped, &pair).matched;
        let u = run_and_measure(ungapped, &pair).matched;
        println!("{:<12} {:>22} {:>22}", threshold, g, u);
    }
    pair.target.sequence = original;
    println!("\nExpected shape: spurious matched bp appear for the gapped filter at a higher");
    println!("threshold than for the ungapped filter — the scale-reduced analogue of the");
    println!("paper's 1.48% at Hf=3000.");
}
