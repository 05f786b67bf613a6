//! Figure 10 — GACT vs GACT-X: alignment quality and throughput vs
//! traceback memory.
//!
//! The paper feeds the same anchors (from the Darwin-WGA seeding+filter
//! stages on ce11/cb4 chromosome X) to GACT at 512 KB / 1 MB / 2 MB of
//! traceback memory and to GACT-X at its default (1 MB, tile 1920), and
//! plots matched base pairs and base pairs aligned per second, both
//! normalised to GACT-X.
//!
//! Expected shape: GACT quality grows with memory but stays below GACT-X
//! even at 2 MB; GACT throughput is well below GACT-X at equal memory
//! (paper: 0.56× matched bp and 0.66× throughput at 1 MB). The DP cells
//! each extension fills, an exact count, back §III-D's claim that
//! GACT-X needs about half GACT's cycles at equal memory.

use align::cigar::AlignOp;
use align::gactx::{extend_alignment, TilingParams};
use genome::evolve::SpeciesPair;
use genome::Sequence;
use hwsim::gactx_array::GactXBank;
use seed::Anchor;
use std::time::Instant;
use wga_bench::paper_pair;
use wga_core::config::WgaParams;
use wga_core::filter_engine::run_filter;

struct Outcome {
    label: &'static str,
    tile: usize,
    extensions: u64,
    cells: u64,
    matched: u64,
    true_matched: u64,
    precision: f64,
    bp_per_sec: f64,
    hw_tiles_per_sec: f64,
    peak_traceback: u64,
}

/// Counts aligned pairs of an alignment that are ground-truth orthologous.
fn true_pairs(
    alignment: &align::Alignment,
    truth: &std::collections::HashSet<(usize, usize)>,
) -> u64 {
    let (mut t, mut q) = (alignment.target_start, alignment.query_start);
    let mut hits = 0u64;
    for op in alignment.cigar.iter_ops() {
        match op {
            AlignOp::Match | AlignOp::Subst => {
                if truth.contains(&(t, q)) {
                    hits += 1;
                }
                t += 1;
                q += 1;
            }
            AlignOp::Insert => q += 1,
            AlignOp::Delete => t += 1,
        }
    }
    hits
}

fn run_extender(
    label: &'static str,
    params: &TilingParams,
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    truth: &std::collections::HashSet<(usize, usize)>,
) -> Outcome {
    let w = genome::SubstitutionMatrix::darwin_wga();
    let g = genome::GapPenalties::darwin_wga();
    let start = Instant::now();
    let mut matched = 0u64;
    let mut truem = 0u64;
    let mut aligned_bp = 0u64;
    let (mut extensions, mut tiles, mut cells, mut rows) = (0u64, 0u64, 0u64, 0u64);
    let mut peak = 0u64;
    for anchor in anchors {
        if let Some(ext) = extend_alignment(
            target,
            query,
            anchor.target_pos,
            anchor.query_pos,
            &w,
            &g,
            params,
        ) {
            matched += ext.alignment.matches();
            truem += true_pairs(&ext.alignment, truth);
            aligned_bp += ext.alignment.cigar.aligned_pairs();
            extensions += 1;
            tiles += ext.stats.tiles;
            cells += ext.stats.cells;
            rows += ext.stats.rows;
            peak = peak.max(ext.stats.peak_traceback_bytes);
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    // Hardware throughput for this workload on one FPGA GACT-X-style array.
    let bank = GactXBank {
        num_arrays: 1,
        ..GactXBank::fpga()
    };
    let hw_seconds = bank.seconds_for_workload(tiles, cells, rows).max(1e-12);
    Outcome {
        label,
        tile: params.tile_size,
        extensions,
        cells,
        matched,
        true_matched: truem,
        precision: truem as f64 / aligned_bp.max(1) as f64,
        bp_per_sec: aligned_bp as f64 / elapsed,
        hw_tiles_per_sec: tiles as f64 / hw_seconds,
        peak_traceback: peak,
    }
}

pub fn run(genome_len: usize) {
    // Anchors from the Darwin-WGA seeding + gapped filtering stages on the
    // ce11-cb4 stand-in, exactly as in the paper's methodology (§V-B).
    let sp = &SpeciesPair::paper_pairs()[0];
    let pair = paper_pair(sp, genome_len, 31);
    let params = WgaParams::darwin_wga();
    let table = seed::SeedTable::build(
        &pair.target.sequence,
        &params.seed_pattern,
        params.max_seed_occurrences,
    );
    let seeding = seed::dsoft_seeds(&table, &pair.query.sequence, &params.dsoft);
    let mut anchors: Vec<Anchor> = seeding
        .hits
        .iter()
        .filter_map(|&hit| {
            run_filter(&params, &pair.target.sequence, &pair.query.sequence, hit).anchor
        })
        .collect();
    anchors.sort_by_key(|a| std::cmp::Reverse(a.filter_score));
    anchors.truncate(200);
    println!(
        "Figure 10 — GACT vs GACT-X on {} anchors from the {} stand-in (Hf={})\n",
        anchors.len(),
        sp.name(),
        params.filter.threshold()
    );

    let truth: std::collections::HashSet<(usize, usize)> =
        pair.orthologous_pairs().into_iter().collect();
    let extend = |label, tiling| {
        run_extender(
            label,
            &tiling,
            &pair.target.sequence,
            &pair.query.sequence,
            &anchors,
            &truth,
        )
    };
    let gact = [
        extend("GACT 512KB", TilingParams::gact_with_memory(512 * 1024)),
        extend("GACT 1MB", TilingParams::gact_with_memory(1024 * 1024)),
        extend("GACT 2MB", TilingParams::gact_with_memory(2 * 1024 * 1024)),
    ];
    let reference = extend("GACT-X (1MB)", TilingParams::gactx_default());

    println!(
        "{:<14} {:>6} {:>11} {:>10} {:>10} {:>10} {:>12} {:>14}",
        "extender",
        "tile",
        "matched bp",
        "true bp",
        "norm.true",
        "precision",
        "norm.sw-bps",
        "norm.hw-tiles"
    );
    for o in gact.iter().chain([&reference]) {
        println!(
            "{:<14} {:>6} {:>11} {:>10} {:>10.2} {:>9.1}% {:>12.2} {:>14.2}",
            o.label,
            o.tile,
            o.matched,
            o.true_matched,
            o.true_matched as f64 / reference.true_matched.max(1) as f64,
            o.precision * 100.0,
            o.bp_per_sec / reference.bp_per_sec.max(1e-9),
            o.hw_tiles_per_sec / reference.hw_tiles_per_sec.max(1e-9),
        );
    }
    println!(
        "\nPeak traceback memory actually used by GACT-X: {} KB of its 1 MB budget",
        reference.peak_traceback / 1024
    );
    let [_, gact_1mb, _] = &gact;
    let cells_per_extension = |o: &Outcome| o.cells as f64 / o.extensions.max(1) as f64;
    println!(
        "DP cells per extension: GACT 1MB {:.0}, GACT-X {:.0} — {:.2}x as many for GACT",
        cells_per_extension(gact_1mb),
        cells_per_extension(&reference),
        cells_per_extension(gact_1mb) / cells_per_extension(&reference).max(1.0)
    );
    println!("(paper §III-D: GACT-X needs about 2x fewer cycles than GACT at equal memory).");
    println!("\nPaper (Fig. 10): GACT at 1MB reaches only 0.56x matched bp and 0.66x the");
    println!("throughput of GACT-X; even at 2MB (tile 2048 > GACT-X's 1920) GACT stays below.");
    println!("Expected shape here: GACT's unconstrained tiles wander off-diagonal (its raw");
    println!("matched-bp count is inflated by spurious pairs — low precision), its ground-");
    println!("truth quality never exceeds GACT-X's, and its modelled hardware throughput");
    println!("falls well below GACT-X at equal (1MB) and even double (2MB) memory.");
}
