//! End-to-end runtime and efficiency roll-ups (Table V).
//!
//! A whole-genome alignment run produces a [`Workload`] (seeds, filter
//! tiles, extension work). Combined with measured software throughputs
//! and the accelerator cycle models this yields the Table V columns:
//! LASTZ-style runtime, iso-sensitive software runtime, Darwin-WGA
//! hardware runtime, and the performance/$ and performance/W improvement
//! factors.

use crate::platform::{AcceleratorConfig, CpuConfig};

/// Workload counters of one whole-genome alignment run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Workload {
    /// Seed words queried (the paper's "Seeds" column).
    pub seeds: u64,
    /// Gapped filter tiles executed (the "Filter tiles" column).
    pub filter_tiles: u64,
    /// Extension tiles executed (the "Extension tiles" column).
    pub extension_tiles: u64,
    /// Total live DP cells across extension tiles.
    pub extension_cells: u64,
    /// Total DP rows across extension tiles.
    pub extension_rows: u64,
}

impl Workload {
    /// Merges another workload into this one.
    pub fn merge(&mut self, other: &Workload) {
        self.seeds += other.seeds;
        self.filter_tiles += other.filter_tiles;
        self.extension_tiles += other.extension_tiles;
        self.extension_cells += other.extension_cells;
        self.extension_rows += other.extension_rows;
    }
}

/// Measured single-machine software throughputs, used both for the
/// software rows of Table V and for the stage that stays in software on
/// the accelerated platform (seeding).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftwareThroughput {
    /// Seed lookups per second (all threads).
    pub seeds_per_second: f64,
    /// Software BSW filter tiles per second (all threads) — the Parasail
    /// role: this rate defines the *iso-sensitive software* baseline.
    pub filter_tiles_per_second: f64,
    /// Software ungapped filter hits per second (all threads) — the
    /// LASTZ-style filter rate.
    pub ungapped_filters_per_second: f64,
    /// Software extension tiles per second (all threads).
    pub extension_tiles_per_second: f64,
}

/// Runtime breakdown of one platform on one workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RuntimeBreakdown {
    /// Seeding seconds (always software).
    pub seeding_s: f64,
    /// Filtering seconds.
    pub filtering_s: f64,
    /// Extension seconds.
    pub extension_s: f64,
}

impl RuntimeBreakdown {
    /// Total seconds.
    pub fn total_s(&self) -> f64 {
        self.seeding_s + self.filtering_s + self.extension_s
    }
}

/// Runtime of the iso-sensitive *software* pipeline (gapped filtering in
/// software, as Parasail would run it).
pub fn software_runtime(workload: &Workload, sw: &SoftwareThroughput) -> RuntimeBreakdown {
    RuntimeBreakdown {
        seeding_s: safe_div(workload.seeds as f64, sw.seeds_per_second),
        filtering_s: safe_div(workload.filter_tiles as f64, sw.filter_tiles_per_second),
        extension_s: safe_div(workload.extension_tiles as f64, sw.extension_tiles_per_second),
    }
}

/// Runtime of the accelerated pipeline: seeding in software, filtering on
/// the BSW bank, extension on the GACT-X bank.
pub fn accelerated_runtime(
    workload: &Workload,
    sw: &SoftwareThroughput,
    acc: &AcceleratorConfig,
) -> RuntimeBreakdown {
    let filter_tps = acc.filter_tiles_per_second();
    let extension_s = acc.gactx.seconds_for_workload(
        workload.extension_tiles,
        workload.extension_cells,
        workload.extension_rows,
    );
    RuntimeBreakdown {
        seeding_s: safe_div(workload.seeds as f64, sw.seeds_per_second),
        filtering_s: safe_div(workload.filter_tiles as f64, filter_tps),
        extension_s,
    }
}

/// Performance-per-dollar improvement of an accelerator run over a
/// software run: `(T_sw · price_sw) / (T_hw · price_hw)`.
///
/// # Panics
///
/// Panics if the accelerator has no hourly price (ASIC configs).
pub fn perf_per_dollar_improvement(
    sw_seconds: f64,
    cpu: &CpuConfig,
    hw_seconds: f64,
    acc: &AcceleratorConfig,
) -> f64 {
    assert!(
        acc.price_per_hour.is_some(),
        "accelerator has no hourly price; use perf/W for ASICs"
    );
    let hw_price = acc.price_per_hour.unwrap_or_default();
    (sw_seconds * cpu.price_per_hour) / (hw_seconds * hw_price)
}

/// Performance-per-watt improvement: `(T_sw · P_sw) / (T_hw · P_hw)`.
pub fn perf_per_watt_improvement(
    sw_seconds: f64,
    cpu: &CpuConfig,
    hw_seconds: f64,
    acc: &AcceleratorConfig,
) -> f64 {
    (sw_seconds * cpu.power_w) / (hw_seconds * acc.power_w)
}

/// Modeled accelerator cycle counts for one workload, one figure per
/// offloaded stage. Integer by construction, so trace consumers can diff
/// them across runs; the observability layer emits them as `hwsim.bsw` /
/// `hwsim.gactx` trace spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeledCycles {
    /// Filter tiles offloaded to the BSW bank.
    pub bsw_tiles: u64,
    /// Single-array cycles the BSW bank spends on them.
    pub bsw_cycles: u64,
    /// Extension tiles offloaded to the GACT-X bank.
    pub gactx_tiles: u64,
    /// Single-array cycles the GACT-X bank spends on them.
    pub gactx_cycles: u64,
}

/// Replays a workload summary extracted from a trace through the
/// accelerator cycle models — the entry point behind `wga profile`'s
/// modeled-vs-measured drift engine.
///
/// The five integers are exactly what a schema-2 trace carries: `seeds`
/// from the `seed` spans' `cells`, `filter_tiles` from the
/// `filter.tiles` counter, `extension_tiles` from the `extend.tile`
/// spans' `items`, and `extension_cells`/`extension_rows` from the
/// `extend.cells`/`extend.rows` counters. Returns the assembled
/// [`Workload`] alongside its [`ModeledCycles`] so callers can report
/// both; the cycle figures are identical to what the run itself would
/// have recorded as `hwsim.bsw`/`hwsim.gactx` spans, making any gap a
/// pure model/extraction drift signal (never timing noise).
pub fn replay_trace_workload(
    seeds: u64,
    filter_tiles: u64,
    extension_tiles: u64,
    extension_cells: u64,
    extension_rows: u64,
    acc: &AcceleratorConfig,
) -> (Workload, ModeledCycles) {
    let workload = Workload {
        seeds,
        filter_tiles,
        extension_tiles,
        extension_cells,
        extension_rows,
    };
    let modeled = modeled_cycles(&workload, acc);
    (workload, modeled)
}

/// Rolls a measured [`Workload`] through the accelerator cycle models.
pub fn modeled_cycles(workload: &Workload, acc: &AcceleratorConfig) -> ModeledCycles {
    ModeledCycles {
        bsw_tiles: workload.filter_tiles,
        bsw_cycles: acc.bsw.cycles_for_workload(workload.filter_tiles),
        gactx_tiles: workload.extension_tiles,
        gactx_cycles: acc.gactx.cycles_for_workload(
            workload.extension_tiles,
            workload.extension_cells,
            workload.extension_rows,
        ),
    }
}

fn safe_div(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_workload() -> Workload {
        Workload {
            seeds: 1_000_000_000,
            filter_tiles: 10_000_000_000, // filter dominates, as in Table V
            extension_tiles: 3_000_000,
            extension_cells: 3_000_000 * 1920 * 600,
            extension_rows: 3_000_000 * 1920,
        }
    }

    fn sample_sw() -> SoftwareThroughput {
        SoftwareThroughput {
            seeds_per_second: 50.0e6,
            filter_tiles_per_second: 225.0e3, // the paper's Parasail rate
            ungapped_filters_per_second: 45.0e6,
            extension_tiles_per_second: 1.0e3,
        }
    }

    #[test]
    fn software_filtering_dominates() {
        let rt = software_runtime(&sample_workload(), &sample_sw());
        assert!(rt.filtering_s > 0.8 * rt.total_s());
    }

    #[test]
    fn fpga_accelerates_by_orders_of_magnitude() {
        let w = sample_workload();
        let sw = sample_sw();
        let fpga = AcceleratorConfig::fpga();
        let sw_rt = software_runtime(&w, &sw);
        let hw_rt = accelerated_runtime(&w, &sw, &fpga);
        assert!(hw_rt.total_s() < sw_rt.total_s() / 10.0);
        let cpu = CpuConfig::c4_8xlarge();
        let perf = perf_per_dollar_improvement(sw_rt.total_s(), &cpu, hw_rt.total_s(), &fpga);
        assert!(perf > 5.0, "{perf}");
    }

    #[test]
    fn asic_perf_per_watt_is_large() {
        let w = sample_workload();
        let sw = sample_sw();
        let asic = AcceleratorConfig::asic();
        let sw_rt = software_runtime(&w, &sw);
        let hw_rt = accelerated_runtime(&w, &sw, &asic);
        let cpu = CpuConfig::c4_8xlarge();
        let perf = perf_per_watt_improvement(sw_rt.total_s(), &cpu, hw_rt.total_s(), &asic);
        // Paper: ~1500×. Our sample workload should land in the hundreds
        // to thousands.
        assert!(perf > 100.0, "{perf}");
    }

    #[test]
    #[should_panic(expected = "no hourly price")]
    fn asic_has_no_dollar_price() {
        let asic = AcceleratorConfig::asic();
        perf_per_dollar_improvement(1.0, &CpuConfig::c4_8xlarge(), 1.0, &asic);
    }

    #[test]
    fn modeled_cycles_track_the_bank_models() {
        let w = sample_workload();
        let acc = AcceleratorConfig::fpga();
        let m = modeled_cycles(&w, &acc);
        assert_eq!(m.bsw_tiles, w.filter_tiles);
        assert_eq!(m.bsw_cycles, acc.bsw.cycles_for_workload(w.filter_tiles));
        assert_eq!(
            m.gactx_cycles,
            acc.gactx
                .cycles_for_workload(w.extension_tiles, w.extension_cells, w.extension_rows)
        );
        assert!(m.bsw_cycles > 0 && m.gactx_cycles > 0);
        assert_eq!(modeled_cycles(&Workload::default(), &acc), ModeledCycles::default());
    }

    #[test]
    fn replay_matches_direct_model() {
        let w = sample_workload();
        let acc = AcceleratorConfig::fpga();
        let (replayed_w, replayed) = replay_trace_workload(
            w.seeds,
            w.filter_tiles,
            w.extension_tiles,
            w.extension_cells,
            w.extension_rows,
            &acc,
        );
        assert_eq!(replayed_w, w);
        assert_eq!(replayed, modeled_cycles(&w, &acc));
    }

    #[test]
    fn workload_merge() {
        let mut a = sample_workload();
        let before = a.filter_tiles;
        a.merge(&sample_workload());
        assert_eq!(a.filter_tiles, 2 * before);
    }

    #[test]
    fn zero_throughput_is_zero_time() {
        let rt = software_runtime(
            &Workload::default(),
            &SoftwareThroughput {
                seeds_per_second: 0.0,
                filter_tiles_per_second: 0.0,
                ungapped_filters_per_second: 0.0,
                extension_tiles_per_second: 0.0,
            },
        );
        assert_eq!(rt.total_s(), 0.0);
    }
}
