//! Table IV (+ Table VI) — ASIC area/power breakdown and platform power.
//!
//! Prints the per-component breakdown of the Darwin-WGA ASIC at TSMC
//! 40 nm from the published per-unit constants, an ablation over array
//! provisioning (the paper sizes the chip so DRAM bandwidth is the
//! bottleneck, §VI-A), and the Table VI platform power summary.

use hwsim::area::AsicProvisioning;
use hwsim::platform::{AcceleratorConfig, CpuConfig};

fn print_breakdown(p: &AsicProvisioning) {
    println!(
        "  {:<16} {:<28} {:>10} {:>9}",
        "Component", "Configuration", "Area(mm2)", "Power(W)"
    );
    for row in p.breakdown() {
        println!(
            "  {:<16} {:<28} {:>10.2} {:>9.2}",
            row.component, row.configuration, row.area_mm2, row.power_w
        );
    }
    println!(
        "  {:<16} {:<28} {:>10.2} {:>9.2}",
        "Total",
        "",
        p.total_area_mm2(),
        p.total_power_w()
    );
}

pub fn run() {
    println!("Table IV — Darwin-WGA ASIC breakdown (TSMC 40nm, 1 GHz)\n");
    let default = AsicProvisioning::darwin_wga();
    print_breakdown(&default);
    println!("\nPaper: 35.92 mm², 43.34 W. BSW logic dominates power (~59%),");
    println!("traceback SRAM is ~42% of the area.\n");

    // Ablation: provisioning vs the DRAM bandwidth wall.
    println!("Provisioning ablation (BSW arrays vs DRAM bottleneck):");
    println!(
        "  {:>10} {:>12} {:>12} {:>14} {:>12}",
        "BSW arrays", "area (mm2)", "power (W)", "tiles/s (M)", "DRAM-capped"
    );
    for arrays in [16usize, 32, 64, 128, 256] {
        let mut prov = AsicProvisioning::darwin_wga();
        prov.bsw_arrays = arrays;
        let mut acc = AcceleratorConfig::asic();
        acc.bsw.num_arrays = arrays;
        let uncapped = acc.bsw.tiles_per_second();
        let capped = acc.filter_tiles_per_second();
        println!(
            "  {:>10} {:>12.2} {:>12.2} {:>14.1} {:>12}",
            arrays,
            prov.total_area_mm2(),
            prov.total_power_w(),
            uncapped / 1e6,
            if capped < uncapped * 0.999 {
                "yes"
            } else {
                "no"
            }
        );
    }
    println!("\nThe paper provisions 64 arrays: close to the point where four");
    println!("DDR4-2400 channels become the bottleneck (§VI-A).\n");

    // Table VI.
    let cpu = CpuConfig::c4_8xlarge();
    let fpga = AcceleratorConfig::fpga();
    let asic = AcceleratorConfig::asic();
    println!("Table VI — platform power (W, including DRAM):");
    println!("  {:<28} {:>8}", "CPU (c4.8xlarge)", cpu.power_w);
    println!("  {:<28} {:>8}", "FPGA (Virtex UltraScale+)", fpga.power_w);
    println!("  {:<28} {:>8}", "ASIC (TSMC 40nm)", asic.power_w);
    println!("\nPaper: 215 / 65 / 43 W.");
}
