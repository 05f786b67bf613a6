//! Quickstart: align a synthetic species pair with Darwin-WGA.
//!
//! Generates a small synthetic genome pair (standing in for ce11/cb4 at a
//! configurable phylogenetic distance), runs the full Darwin-WGA pipeline
//! (D-SOFT seeding → gapped BSW filtering → GACT-X extension), chains the
//! output, and prints a summary plus the first MAF block.
//!
//! Run with: `cargo run --release --example quickstart`

use darwin_wga::chain::{chainer::chain_alignments, metrics};
use darwin_wga::core::{config::WgaParams, maf, pipeline::WgaPipeline};
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use rand::SeedableRng;

fn main() {
    let genome_len = 100_000;
    let distance = 0.25;

    println!("Generating a {genome_len}-bp synthetic pair at distance {distance} subst/site...");
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let pair = SyntheticPair::generate(
        genome_len,
        &EvolutionParams::at_distance(distance),
        &mut rng,
    );
    println!(
        "  target: {} bp, query: {} bp, ground-truth orthologous bases: {}",
        pair.target.sequence.len(),
        pair.query.sequence.len(),
        pair.orthologous_runs()
            .iter()
            .map(|run| run.2)
            .sum::<usize>()
    );

    println!("\nRunning the Darwin-WGA pipeline...");
    let pipeline = WgaPipeline::new(WgaParams::darwin_wga());
    let report = pipeline.run(&pair.target.sequence, &pair.query.sequence);

    println!("  seeds queried:      {}", report.workload.seeds);
    println!("  raw seed hits:      {}", report.counters.raw_seed_hits);
    println!("  filter tiles:       {}", report.workload.filter_tiles);
    println!("  anchors passed:     {}", report.counters.anchors_passed);
    println!("  anchors absorbed:   {}", report.counters.anchors_absorbed);
    println!("  alignments kept:    {}", report.alignments.len());
    println!("  matched base pairs: {}", report.total_matches());
    println!(
        "  stage times: run `wga align --trace-out t.jsonl`, then `wga profile report t.jsonl`"
    );

    let alignments = report.forward_alignments();
    let chains = chain_alignments(&alignments, 3000);
    println!(
        "\nChains (AXTCHAIN-style, linearGap=loose): {}",
        chains.len()
    );
    for (i, score) in metrics::top_k_scores(&chains, 5).iter().enumerate() {
        println!("  chain {}: score {}", i + 1, score);
    }

    if !report.alignments.is_empty() {
        let mut maf_out = Vec::new();
        maf::write_maf(
            &mut maf_out,
            "synthetic_target",
            &pair.target.sequence,
            "synthetic_query",
            &pair.query.sequence,
            &report.alignments[..1],
        )
        .expect("in-memory write cannot fail");
        let text = String::from_utf8(maf_out).unwrap();
        println!("\nBest alignment as MAF (first 3 lines):");
        for line in text.lines().take(3) {
            let shown: String = line.chars().take(100).collect();
            println!("  {shown}{}", if line.len() > 100 { "..." } else { "" });
        }
    }
}
