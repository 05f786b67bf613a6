//! Figure 1 — growth of genome assemblies and WGA species pairs.
//!
//! The paper's Fig. 1 plots the cumulative number of genome assemblies in
//! the NCBI genome database by year (a) and the quadratic number of
//! species pairs available for pairwise WGA (b). The assembly counts are
//! embedded here as approximate values digitised from the public NCBI
//! growth curve; the pair counts follow from `n·(n−1)/2`.

/// Approximate cumulative eukaryote assembly counts (one per species) in
/// the NCBI genome database per year, digitised from the public growth
/// statistics the paper's Fig. 1a is based on.
const ASSEMBLIES_BY_YEAR: [(u32, u64); 18] = [
    (2001, 30),
    (2002, 50),
    (2003, 80),
    (2004, 130),
    (2005, 200),
    (2006, 290),
    (2007, 400),
    (2008, 540),
    (2009, 700),
    (2010, 900),
    (2011, 1200),
    (2012, 1600),
    (2013, 2100),
    (2014, 2700),
    (2015, 3400),
    (2016, 4300),
    (2017, 5400),
    (2018, 6700),
];

fn pairs(n: u64) -> u64 {
    n * n.saturating_sub(1) / 2
}

fn bar(value: u64, max: u64, width: usize) -> String {
    let filled = ((value as f64 / max as f64) * width as f64).round() as usize;
    "#".repeat(filled)
}

pub fn run() {
    println!("Figure 1 — cumulative genome assemblies (a) and WGA species pairs (b)\n");
    let (y0, n0) = ASSEMBLIES_BY_YEAR[9];
    let (y1, n1) = ASSEMBLIES_BY_YEAR[ASSEMBLIES_BY_YEAR.len() - 1];
    let (max_assemblies, max_pairs) = (n1, pairs(n1));

    println!(
        "{:<6} {:>10}  {:<30} {:>14}  {:<30}",
        "year", "assemblies", "(a)", "pairs", "(b)"
    );
    for &(year, n) in &ASSEMBLIES_BY_YEAR {
        println!(
            "{:<6} {:>10}  {:<30} {:>14}  {:<30}",
            year,
            n,
            bar(n, max_assemblies, 30),
            pairs(n),
            bar(pairs(n), max_pairs, 30)
        );
    }

    // The quadratic blow-up the introduction argues from:
    println!(
        "\nFrom {y0} to {y1} assemblies grew {:.1}x but candidate pairwise WGAs grew {:.1}x —",
        n1 as f64 / n0 as f64,
        pairs(n1) as f64 / pairs(n0) as f64
    );
    println!("the computational load of comparative genomics grows quadratically (§I).");
    println!(
        "At 10,000 genomes (Genome 10K), {} pairwise WGAs are possible (§VII).",
        pairs(10_000)
    );

    // §VII cost projection, from the paper's Table V runtimes and prices.
    // ce11-cb4 (the cheapest pair): iso-sensitive software 64,960 s on a
    // $1.59/h instance; Darwin-WGA FPGA 3,823 s at $1.65/h; ASIC 219 s at
    // 43.34 W.
    let n_pairs = 1_000_000u64; // "even for a small fraction" of 50M pairs
    let sw_cost = 64_960.0 / 3600.0 * 1.59 * n_pairs as f64;
    let fpga_cost = 3_823.0 / 3600.0 * 1.65 * n_pairs as f64;
    let asic_kwh = 219.0 * 43.34 / 3.6e6 * n_pairs as f64;
    println!("\n§VII projection for 1M sensitive pairwise WGAs (paper Table V rates):");
    println!("  iso-sensitive software: ${:.1}M", sw_cost / 1e6);
    println!(
        "  Darwin-WGA FPGA:        ${:.1}M  ({:.0}x cheaper)",
        fpga_cost / 1e6,
        sw_cost / fpga_cost
    );
    println!(
        "  Darwin-WGA ASIC:        {:.0} MWh of energy (~${:.1}M at $0.1/kWh + chip NRE)",
        asic_kwh / 1000.0,
        asic_kwh * 0.1 / 1e6
    );
    println!("Sensitive WGA at biobank scale is only economical with acceleration (§VII).");
}
