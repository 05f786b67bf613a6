//! Stage scheduling and provisioning balance (Fig. 6).
//!
//! Darwin-WGA pipelines its stages: software D-SOFT feeds seed hits to
//! the BSW filter bank, whose passing anchors feed the GACT-X extension
//! bank. Steady-state throughput is set by the slowest stage relative to
//! its demand, which is how the paper provisions 50 BSW : 2 GACT-X arrays
//! on the FPGA (and 64 : 12 on the ASIC): the filter sees every seed hit
//! but passes only a small fraction, so few extension arrays keep up.

use crate::platform::{AcceleratorConfig, CpuConfig};

/// Per-stage demand of a run, in units each stage processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageDemand {
    /// Seed lookups per output unit of work (fed by software).
    pub seeds: f64,
    /// Filter tiles (one per seed hit surviving D-SOFT banding).
    pub filter_tiles: f64,
    /// Extension tiles (several per passing anchor).
    pub extension_tiles: f64,
    /// Mean live DP cells per extension tile.
    pub cells_per_extension_tile: f64,
    /// Mean rows per extension tile.
    pub rows_per_extension_tile: f64,
}

impl StageDemand {
    /// Demand ratios measured from a pipeline run's workload counters.
    pub fn from_workload(w: &crate::Workload) -> StageDemand {
        let ext = w.extension_tiles.max(1) as f64;
        StageDemand {
            seeds: w.seeds as f64,
            filter_tiles: w.filter_tiles as f64,
            extension_tiles: w.extension_tiles as f64,
            cells_per_extension_tile: w.extension_cells as f64 / ext,
            rows_per_extension_tile: w.extension_rows as f64 / ext,
        }
    }
}

/// Steady-state utilisation of every stage when the pipeline runs at the
/// bottleneck's rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineBalance {
    /// Whole-run completions per second at steady state.
    pub runs_per_second: f64,
    /// Seeding (software) utilisation in [0, 1].
    pub seeding_util: f64,
    /// Filter bank utilisation.
    pub filter_util: f64,
    /// Extension bank utilisation.
    pub extension_util: f64,
    /// Which stage is the bottleneck.
    pub bottleneck: Stage,
}

/// Pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Software seeding.
    Seeding,
    /// BSW filter bank.
    Filter,
    /// GACT-X extension bank.
    Extension,
}

/// Computes the steady-state balance of an accelerator pipeline for a
/// given demand profile and software seeding rate.
///
/// # Examples
///
/// ```
/// use hwsim::platform::AcceleratorConfig;
/// use hwsim::schedule::{pipeline_balance, StageDemand};
///
/// // A filter-dominated demand (the WGA regime, §III-A).
/// let demand = StageDemand {
///     seeds: 1.0e9,
///     filter_tiles: 1.0e10,
///     extension_tiles: 3.0e6,
///     cells_per_extension_tile: 1920.0 * 600.0,
///     rows_per_extension_tile: 1920.0,
/// };
/// let b = pipeline_balance(&AcceleratorConfig::fpga(), &demand, 50.0e6);
/// assert!(b.runs_per_second > 0.0);
/// ```
pub fn pipeline_balance(
    acc: &AcceleratorConfig,
    demand: &StageDemand,
    seeds_per_second_software: f64,
) -> PipelineBalance {
    // Per-run seconds each stage would need running alone.
    let seed_s = if seeds_per_second_software > 0.0 {
        demand.seeds / seeds_per_second_software
    } else {
        0.0
    };
    let filter_s = if acc.filter_tiles_per_second() > 0.0 {
        demand.filter_tiles / acc.filter_tiles_per_second()
    } else {
        0.0
    };
    let ext_tps = acc.gactx.tiles_per_second(
        demand.cells_per_extension_tile,
        demand.rows_per_extension_tile,
    );
    let ext_s = if ext_tps > 0.0 {
        demand.extension_tiles / ext_tps
    } else {
        0.0
    };

    let slowest = seed_s.max(filter_s).max(ext_s).max(f64::MIN_POSITIVE);
    let bottleneck = if slowest == seed_s {
        Stage::Seeding
    } else if slowest == filter_s {
        Stage::Filter
    } else {
        Stage::Extension
    };
    PipelineBalance {
        runs_per_second: 1.0 / slowest,
        seeding_util: seed_s / slowest,
        filter_util: filter_s / slowest,
        extension_util: ext_s / slowest,
        bottleneck,
    }
}

/// Finds the smallest extension-array count whose utilisation stays below
/// `max_util` for the given demand — the provisioning question the paper
/// answers with "2 on the FPGA, 12 on the ASIC".
pub fn provision_extension_arrays(
    base: &AcceleratorConfig,
    demand: &StageDemand,
    seeds_per_second_software: f64,
    max_util: f64,
) -> usize {
    for n in 1..=256 {
        let mut acc = *base;
        acc.gactx.num_arrays = n;
        let b = pipeline_balance(&acc, demand, seeds_per_second_software);
        if b.extension_util <= max_util {
            return n;
        }
    }
    256
}

/// CPU-only balance for comparison: everything in software.
pub fn software_balance(
    cpu: &CpuConfig,
    demand: &StageDemand,
    sw: &crate::SoftwareThroughput,
) -> f64 {
    let _ = cpu;
    let seed_s = demand.seeds / sw.seeds_per_second.max(f64::MIN_POSITIVE);
    let filter_s = demand.filter_tiles / sw.filter_tiles_per_second.max(f64::MIN_POSITIVE);
    let ext_s = demand.extension_tiles / sw.extension_tiles_per_second.max(f64::MIN_POSITIVE);
    1.0 / (seed_s + filter_s + ext_s).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::AcceleratorConfig;

    /// Demand mirroring Table V's ce11-cb4 row: 14,585M filter tiles,
    /// 4.4M extension tiles.
    fn paper_demand() -> StageDemand {
        StageDemand {
            seeds: 1.362e9,
            filter_tiles: 1.4585e10,
            extension_tiles: 4.4e6,
            cells_per_extension_tile: 1920.0 * 600.0,
            rows_per_extension_tile: 1920.0,
        }
    }

    #[test]
    fn fpga_filter_is_the_accelerated_bottleneck() {
        // With generous software seeding, the filter bank should be the
        // busiest hardware stage — it is what the paper sized the design
        // around.
        let b = pipeline_balance(&AcceleratorConfig::fpga(), &paper_demand(), 2.0e9);
        assert_eq!(b.bottleneck, Stage::Filter);
        assert!(b.extension_util < 0.9, "{}", b.extension_util);
    }

    #[test]
    fn two_gactx_arrays_suffice_on_the_fpga() {
        // The paper maps 50 BSW + 2 GACT-X arrays; for Table V demand the
        // provisioning search must agree that ~2 arrays keep extension
        // from throttling the filter bank.
        let needed = provision_extension_arrays(
            &AcceleratorConfig::fpga(),
            &paper_demand(),
            2.0e9,
            0.95,
        );
        assert!(needed <= 3, "needed {needed}");
    }

    #[test]
    fn utilisations_are_normalised() {
        let b = pipeline_balance(&AcceleratorConfig::asic(), &paper_demand(), 2.0e9);
        for util in [b.seeding_util, b.filter_util, b.extension_util] {
            assert!((0.0..=1.0 + 1e-9).contains(&util), "{util}");
        }
        let max = b
            .seeding_util
            .max(b.filter_util)
            .max(b.extension_util);
        assert!((max - 1.0).abs() < 1e-9, "bottleneck must be saturated");
    }

    #[test]
    fn slow_software_seeding_becomes_the_bottleneck() {
        let b = pipeline_balance(&AcceleratorConfig::asic(), &paper_demand(), 1.0e6);
        assert_eq!(b.bottleneck, Stage::Seeding);
    }

    #[test]
    fn software_balance_is_far_below_accelerated() {
        let cpu = CpuConfig::c4_8xlarge();
        let sw = crate::SoftwareThroughput {
            seeds_per_second: 50.0e6,
            filter_tiles_per_second: 225.0e3,
            ungapped_filters_per_second: 45.0e6,
            extension_tiles_per_second: 1.2e3,
        };
        let sw_rate = software_balance(&cpu, &paper_demand(), &sw);
        let hw = pipeline_balance(&AcceleratorConfig::fpga(), &paper_demand(), 2.0e9);
        assert!(hw.runs_per_second > 10.0 * sw_rate);
    }
}
