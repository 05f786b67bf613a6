//! Integration tests of the hardware model against the paper's published
//! numbers and internal consistency rules.

use darwin_wga::hwsim::area::AsicProvisioning;
use darwin_wga::hwsim::bsw_array::BswBank;
use darwin_wga::hwsim::gactx_array::GactXBank;
use darwin_wga::hwsim::perf::{
    accelerated_runtime, perf_per_dollar_improvement, perf_per_watt_improvement, software_runtime,
    SoftwareThroughput, Workload,
};
use darwin_wga::hwsim::platform::{AcceleratorConfig, CpuConfig};

/// A Table V-like workload: filter tiles dominate, scaled down from the
/// paper's billions to something proportional.
fn paper_like_workload() -> Workload {
    Workload {
        seeds: 1_400_000_000,
        filter_tiles: 14_585_000_000, // ce11-cb4 row of Table V
        extension_tiles: 4_400_000,
        extension_cells: 4_400_000 * 1920 * 600,
        extension_rows: 4_400_000 * 1920,
    }
}

/// The paper's software rates: Parasail at 225K tiles/s (36 threads).
fn paper_software() -> SoftwareThroughput {
    SoftwareThroughput {
        seeds_per_second: 50.0e6,
        filter_tiles_per_second: 225.0e3,
        ungapped_filters_per_second: 45.0e6,
        extension_tiles_per_second: 1.2e3,
    }
}

#[test]
fn fpga_perf_per_dollar_matches_paper_band() {
    let w = paper_like_workload();
    let sw = paper_software();
    let cpu = CpuConfig::c4_8xlarge();
    let fpga = AcceleratorConfig::fpga();
    let sw_s = software_runtime(&w, &sw).total_s();
    let hw_s = accelerated_runtime(&w, &sw, &fpga).total_s();
    let perf = perf_per_dollar_improvement(sw_s, &cpu, hw_s, &fpga);
    // Paper: 19.1–24.3×. Allow a generous modelling band.
    assert!((8.0..80.0).contains(&perf), "perf/$ {perf}");
}

#[test]
fn asic_perf_per_watt_matches_paper_band() {
    let w = paper_like_workload();
    let sw = paper_software();
    let cpu = CpuConfig::c4_8xlarge();
    let asic = AcceleratorConfig::asic();
    let sw_s = software_runtime(&w, &sw).total_s();
    let hw_s = accelerated_runtime(&w, &sw, &asic).total_s();
    let perf = perf_per_watt_improvement(sw_s, &cpu, hw_s, &asic);
    // Paper: ~1,478–1,553×. Our seeding stays in software with an assumed
    // rate, so accept an order-of-magnitude band centred on the paper.
    assert!((300.0..6000.0).contains(&perf), "perf/W {perf}");
}

#[test]
fn iso_sensitive_software_is_much_slower_than_ungapped() {
    // The paper's ~200× software slowdown from gapped filtering.
    let w = paper_like_workload();
    let sw = paper_software();
    let gapped_filter_s = w.filter_tiles as f64 / sw.filter_tiles_per_second;
    let ungapped_filter_s = w.filter_tiles as f64 / sw.ungapped_filters_per_second;
    let ratio = gapped_filter_s / ungapped_filter_s;
    assert!((100.0..400.0).contains(&ratio), "slowdown {ratio}");
}

#[test]
fn asic_filter_throughput_an_order_above_fpga() {
    let fpga = BswBank::fpga().tiles_per_second();
    let asic = BswBank::asic().tiles_per_second();
    // Paper: 6.25M vs 70M — about 11×.
    let ratio = asic / fpga;
    assert!((6.0..16.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn gactx_asic_throughput_band() {
    let bank = GactXBank::asic();
    let tps = bank.tiles_per_second(1920.0 * 600.0, 1920.0);
    // Paper: ~300K tiles/s for 12 arrays.
    assert!((1.5e5..7.0e5).contains(&tps), "{tps}");
}

#[test]
fn table4_totals_hold() {
    let p = AsicProvisioning::darwin_wga();
    assert!((p.total_area_mm2() - 35.92).abs() < 0.05);
    assert!((p.total_power_w() - 43.34).abs() < 0.05);
}

#[test]
fn asic_is_faster_than_lastz_at_lower_power() {
    // §VI-C: "at 5× lower power, Darwin-WGA ASIC is 1.3–2× faster than
    // LASTZ". LASTZ's runtime ≈ ungapped filtering at 45M filters/s.
    let w = paper_like_workload();
    let sw = paper_software();
    let asic = AcceleratorConfig::asic();
    let lastz_s = w.seeds as f64 / sw.seeds_per_second
        + w.filter_tiles as f64 / sw.ungapped_filters_per_second
        + w.extension_tiles as f64 / sw.extension_tiles_per_second;
    let asic_s = accelerated_runtime(&w, &sw, &asic).total_s();
    assert!(asic_s < lastz_s, "asic {asic_s} vs lastz {lastz_s}");
    let cpu = CpuConfig::c4_8xlarge();
    assert!(cpu.power_w / asic.power_w > 4.0);
}
