//! Table V — runtimes, workload, and accelerator improvements.
//!
//! For each species pair we run the LASTZ-like baseline and the
//! Darwin-WGA pipeline in software under a trace recorder, read their
//! stage times off the trace's spans and their workloads off the report,
//! then roll up:
//!
//! * LASTZ runtime — the baseline's measured software time;
//! * workload — seeds / filter tiles / extension tiles (paper columns);
//! * iso-sensitive software runtime — the gapped pipeline's measured
//!   software time (our BSW kernel plays the Parasail role);
//! * Darwin-WGA FPGA & ASIC runtimes — the `hwsim` cycle models fed with
//!   the measured workload;
//! * FPGA performance/$ and ASIC performance/W improvements over the
//!   iso-sensitive software, using the paper's prices and powers.
//!
//! Expected shape: iso-sensitive software is orders of magnitude slower
//! than LASTZ (the paper's ~200×); the FPGA recovers a 19–24× perf/$
//! improvement and the ASIC a ~1,500× perf/W improvement.
//!
//! Below the table: each pair's iso-sensitive time by stage, the
//! accelerators' filter throughput, and the per-hit cost of the two
//! software filters on one tile, timed in-process — the gapped/ungapped
//! ratio is §I's "200×", the BSW tile rate the software side of §VI-C.

use align::banded::banded_smith_waterman;
use align::ungapped::ungapped_extend;
use genome::evolve::{SpeciesPair, SyntheticPair};
use genome::markov::MarkovModel;
use genome::{GapPenalties, SubstitutionMatrix};
use hwsim::perf::{
    accelerated_runtime, perf_per_dollar_improvement, perf_per_watt_improvement, software_runtime,
    SoftwareThroughput,
};
use hwsim::platform::{AcceleratorConfig, CpuConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use wga_bench::paper_pair;
use wga_core::config::WgaParams;
use wga_core::obs::{Obs, SpanName, TraceRecorder};
use wga_core::pipeline::WgaPipeline;
use wga_core::WgaReport;

/// Calls of each filter timed for the per-hit cost.
const UNGAPPED_CALLS: u32 = 200_000;
const GAPPED_CALLS: u32 = 2_000;

pub fn run(genome_len: usize) {
    println!("Table V — runtime and workload comparison ({genome_len}-bp synthetic pairs)\n");
    println!(
        "{:<14} {:>9} | {:>9} {:>11} {:>9} | {:>10} {:>9} {:>9} | {:>9} {:>11}",
        "pair",
        "LASTZ(s)",
        "seeds",
        "filt.tiles",
        "ext.tiles",
        "iso-sw(s)",
        "FPGA(s)",
        "ASIC(s)",
        "perf/$",
        "perf/W"
    );

    let cpu = CpuConfig::c4_8xlarge();
    let fpga = AcceleratorConfig::fpga();
    let asic = AcceleratorConfig::asic();
    let mut by_stage = Vec::new();

    for (i, sp) in SpeciesPair::paper_pairs().iter().enumerate() {
        let pair = paper_pair(sp, genome_len, 2000 + i as u64);

        let (_, lastz) = traced_run(WgaParams::lastz_baseline(), &pair);
        let (darwin, [seeding_s, filtering_s, extension_s]) =
            traced_run(WgaParams::darwin_wga(), &pair);

        let lastz_s: f64 = lastz.iter().sum();
        let iso_sw_s = seeding_s + filtering_s + extension_s;
        let w = darwin.workload;

        // Software throughputs measured from this very run.
        let sw = SoftwareThroughput {
            seeds_per_second: w.seeds as f64 / seeding_s.max(1e-9),
            filter_tiles_per_second: w.filter_tiles as f64 / filtering_s.max(1e-9),
            ungapped_filters_per_second: 0.0,
            extension_tiles_per_second: w.extension_tiles as f64 / extension_s.max(1e-9),
        };

        by_stage.push((sp.name(), software_runtime(&w, &sw)));
        let fpga_rt = accelerated_runtime(&w, &sw, &fpga).total_s();
        let asic_rt = accelerated_runtime(&w, &sw, &asic).total_s();
        let perf_dollar = perf_per_dollar_improvement(iso_sw_s, &cpu, fpga_rt, &fpga);
        let perf_watt = perf_per_watt_improvement(iso_sw_s, &cpu, asic_rt, &asic);

        println!(
            "{:<14} {:>9.2} | {:>9} {:>11} {:>9} | {:>10.2} {:>9.4} {:>9.4} | {:>8.1}x {:>10.0}x",
            sp.name(),
            lastz_s,
            w.seeds,
            w.filter_tiles,
            w.extension_tiles,
            iso_sw_s,
            fpga_rt,
            asic_rt,
            perf_dollar,
            perf_watt
        );
    }

    println!("\nNotes:");
    println!(" * 'LASTZ(s)' and 'iso-sw(s)' are measured single-thread software times on THIS");
    println!("   machine; the paper's absolute seconds used 36 threads on a c4.8xlarge.");
    println!(" * the filter-tile count dwarfs the extension-tile count — filtering dominates");
    println!("   WGA runtime (§III-A), which is why the paper accelerates that stage first.");
    println!(" * FPGA perf/$ uses $1.59/h (c4.8xlarge) vs $1.65/h (f1.2xlarge); ASIC perf/W");
    println!("   uses 215 W vs 43.34 W (Tables V & VI). Paper: 19–24x perf/$, ~1,500x perf/W.");

    println!("\nIso-sensitive software time by stage (workload / this run's stage rates):");
    for (name, rt) in &by_stage {
        println!(
            "  {:<14} seeding {:>7.3} s  filtering {:>7.3} s  extension {:>7.3} s  total {:>7.3} s",
            name,
            rt.seeding_s,
            rt.filtering_s,
            rt.extension_s,
            rt.total_s()
        );
    }

    println!("\nAccelerator filter throughput (memory-capped):");
    println!(
        "  FPGA (50 × 32-PE arrays @150 MHz): {:.2}M tiles/s",
        fpga.filter_tiles_per_second() / 1e6
    );
    println!(
        "  ASIC (64 × 64-PE arrays @1 GHz):   {:.1}M tiles/s",
        asic.filter_tiles_per_second() / 1e6
    );
    println!("  (paper: 6.25M and 70M respectively)");

    // The headline software-only observation: gapped vs ungapped filter cost.
    let (ungapped_s, gapped_s) = filter_cost_per_hit();
    println!("\nSoftware filter cost per seed hit (one 320-bp tile, this machine, 1 thread):");
    println!(
        "  ungapped X-drop (LASTZ): {:>9.0} ns  (mean of {UNGAPPED_CALLS} calls)",
        ungapped_s * 1e9
    );
    println!(
        "  gapped BSW, band 32:     {:>9.0} ns  (mean of {GAPPED_CALLS} calls): {:.0} tiles/s",
        gapped_s * 1e9,
        1.0 / gapped_s
    );
    println!(
        "  gapped / ungapped:       {:>9.0}x  (paper §I: ungapped filtering is 200x faster)",
        gapped_s / ungapped_s
    );
    println!(
        "  FPGA filter perf/$ over this BSW tile rate: {:.0}x (paper §VI-C: 27x over Parasail's",
        perf_per_dollar_improvement(gapped_s, &cpu, 1.0 / fpga.filter_tiles_per_second(), &fpga)
    );
    println!("  225K tiles/s, which ran on 36 threads).");
}

/// Runs `params` on `pair` under a [`TraceRecorder`] and returns the
/// report with the run's seconds by stage: the summed `dur_us` of its
/// `seed.table` + `seed`, `filter.batch` and `extend` spans.
fn traced_run(params: WgaParams, pair: &SyntheticPair) -> (WgaReport, [f64; 3]) {
    let recorder = TraceRecorder::new();
    let (target, query) = (&pair.target.sequence, &pair.query.sequence);
    let report = WgaPipeline::new(params).run_observed(target, query, Obs::new(&recorder));
    let mut stage_us = [0u64; 3];
    for span in recorder.spans() {
        let stage = match span.name {
            SpanName::SeedTable | SpanName::Seed => 0,
            SpanName::FilterBatch => 1,
            SpanName::Extend => 2,
            _ => continue,
        };
        stage_us[stage] += span.dur_us;
    }
    (report, stage_us.map(|us| us as f64 / 1e6))
}

/// Mean seconds per call of the ungapped and of the gapped filter on one
/// seed hit: two 320-base sequences sharing a 200-base core around the
/// hit, so the ungapped filter extends for real before it drops.
fn filter_cost_per_hit() -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(3);
    let model = MarkovModel::genome_like();
    let core = model.generate(200, &mut rng);
    let mut flanked = || {
        let mut s = model.generate(60, &mut rng);
        s.extend(core.iter());
        s.extend(model.generate(60, &mut rng).iter());
        s
    };
    let (target, query) = (flanked(), flanked());
    let (target_bases, query_bases) = (target.to_bases(), query.to_bases());
    let w = SubstitutionMatrix::darwin_wga();
    let g = GapPenalties::darwin_wga();
    let ungapped = mean_seconds(UNGAPPED_CALLS, || {
        ungapped_extend(black_box(&target), black_box(&query), 100, 100, 19, &w, 910)
    });
    let gapped = mean_seconds(GAPPED_CALLS, || {
        banded_smith_waterman(
            black_box(&target_bases),
            black_box(&query_bases),
            &w,
            &g,
            32,
        )
    });
    (ungapped, gapped)
}

fn mean_seconds<R>(calls: u32, mut call: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        black_box(call());
    }
    start.elapsed().as_secs_f64() / f64::from(calls)
}
