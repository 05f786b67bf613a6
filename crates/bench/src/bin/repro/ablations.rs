//! Ablations over Darwin-WGA's design choices (Table II parameters).
//!
//! The paper fixes its parameters (§V-B, Table II) after design-space
//! exploration it does not show. This harness regenerates the trade-off
//! curves behind each choice on one synthetic pair:
//!
//! 1. **BSW band width `B`** — sensitivity vs filter-tile cost;
//! 2. **filter threshold `H_f`** — sensitivity vs anchors passed
//!    (the FPR trade-off of §VI-B);
//! 3. **GACT-X tile size `T_e`** — sensitivity vs extension cells and
//!    traceback memory;
//! 4. **D-SOFT seeding** — transition seeds and band threshold `h` vs
//!    seeds queried and filter workload;
//! 5. **seed pattern** — spaced 12-of-19 vs contiguous 12-mer.

use align::gactx::TilingParams;
use genome::evolve::SpeciesPair;
use seed::SeedPattern;
use wga_bench::{paper_pair, run_and_measure};
use wga_core::config::{FilterStage, WgaParams};

pub fn run(genome_len: usize) {
    // The dm6-dp4 stand-in: distant enough that filtering choices matter.
    let sp = &SpeciesPair::paper_pairs()[1];
    let pair = paper_pair(sp, genome_len, 4242);
    println!(
        "Design ablations on the {} stand-in ({genome_len} bp, distance {})\n",
        sp.name(),
        sp.distance
    );

    // ------------------------------------------------------------------
    println!("1. BSW band width B (Table II: B = 32)");
    println!(
        "   {:>6} {:>12} {:>12} {:>14}",
        "B", "matched bp", "anchors", "tile cells (M)"
    );
    for band in [4usize, 8, 16, 32, 64, 128] {
        let mut params = WgaParams::darwin_wga();
        if let FilterStage::Gapped(ref mut f) = params.filter {
            f.band = band;
        }
        let m = run_and_measure(params, &pair);
        // Cells per 320-tile ≈ 320·(2B+1); report the aggregate.
        let cells = m.report.workload.filter_tiles * 320 * (2 * band as u64 + 1);
        println!(
            "   {:>6} {:>12} {:>12} {:>14.1}",
            band,
            m.unique_matched,
            m.report.counters.anchors_passed,
            cells as f64 / 1e6
        );
    }
    println!("   → sensitivity saturates near B=32 while cost keeps doubling.\n");

    // ------------------------------------------------------------------
    println!("2. Filter threshold Hf (Table II: 3000; §VI-B adopts 4000)");
    println!(
        "   {:>6} {:>12} {:>12} {:>12}",
        "Hf", "matched bp", "anchors", "ext tiles"
    );
    for hf in [2000i64, 3000, 4000, 5000, 7000, 10000] {
        let params = WgaParams::darwin_wga().with_filter_threshold(hf);
        let m = run_and_measure(params, &pair);
        println!(
            "   {:>6} {:>12} {:>12} {:>12}",
            hf,
            m.unique_matched,
            m.report.counters.anchors_passed,
            m.report.workload.extension_tiles
        );
    }
    println!("   → anchors (and noise risk) grow fast below 4000 for little sensitivity.\n");

    // ------------------------------------------------------------------
    println!("3. GACT-X tile size Te (Table II: 1920, overlap 128)");
    println!(
        "   {:>6} {:>12} {:>12} {:>16}",
        "Te", "matched bp", "ext cells(M)", "peak traceback"
    );
    for te in [320usize, 640, 1280, 1920, 3840] {
        let mut params = WgaParams::darwin_wga();
        params.extension = TilingParams {
            tile_size: te,
            overlap: 128.min(te / 4),
            y: 9430,
            edge_traceback: false,
        };
        let m = run_and_measure(params, &pair);
        println!(
            "   {:>6} {:>12} {:>12.1} {:>13} KB",
            te,
            m.unique_matched,
            m.report.workload.extension_cells as f64 / 1e6,
            peak_traceback_kb(te)
        );
    }
    println!("   → quality is flat once the tile exceeds the Y-band; memory grows linearly.\n");

    // ------------------------------------------------------------------
    println!("4. D-SOFT seeding (defaults: transitions on, h = 1)");
    println!(
        "   {:<26} {:>12} {:>12} {:>12}",
        "variant", "seeds", "filt tiles", "matched bp"
    );
    for (label, transitions, threshold) in [
        ("transitions, h=1", true, 1u32),
        ("no transitions, h=1", false, 1),
        ("transitions, h=2", true, 2),
        ("transitions, h=4", true, 4),
    ] {
        let mut params = WgaParams::darwin_wga();
        params.dsoft.transitions = transitions;
        params.dsoft.threshold = threshold;
        let m = run_and_measure(params, &pair);
        println!(
            "   {:<26} {:>12} {:>12} {:>12}",
            label, m.report.workload.seeds, m.report.workload.filter_tiles, m.unique_matched
        );
    }
    println!("   → transition seeds cost 13x the lookups (§III-B) and buy sensitivity;");
    println!("     raising h sheds filter tiles at a sensitivity price.\n");

    // ------------------------------------------------------------------
    println!("5. Seed pattern (default: spaced 12-of-19)");
    println!(
        "   {:<22} {:>12} {:>12}",
        "pattern", "filt tiles", "matched bp"
    );
    for (label, pattern) in [
        ("spaced 12-of-19", SeedPattern::lastz_default()),
        ("contiguous 12-mer", SeedPattern::exact(12)),
        ("contiguous 14-mer", SeedPattern::exact(14)),
    ] {
        let mut params = WgaParams::darwin_wga();
        params.seed_pattern = pattern;
        let m = run_and_measure(params, &pair);
        println!(
            "   {:<22} {:>12} {:>12}",
            label, m.report.workload.filter_tiles, m.unique_matched
        );
    }
    println!("   → the spaced seed finds more than a contiguous seed of equal weight");
    println!("     (mismatches fall into don't-care positions).");
}

/// Peak traceback bytes for the given tile size under the Y=9430 band
/// (analytic: rows × band columns at 4 bits/cell).
fn peak_traceback_kb(te: usize) -> u64 {
    let band_cols = (2 * (9430 - 430) / 30 + 64) as u64; // ≈ both gap directions
    (te as u64 * band_cols.min(te as u64) / 2) / 1024
}
