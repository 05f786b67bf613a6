//! The three computing platforms compared in the paper (Tables V and VI).

use crate::bsw_array::BswBank;
use crate::dram::DramConfig;
use crate::gactx_array::GactXBank;

/// The software baseline platform: an AWS c4.8xlarge instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Hardware threads available (the paper uses all 36).
    pub threads: usize,
    /// Instance price, $/hour (at time of writing of the paper).
    pub price_per_hour: f64,
    /// Measured package + DRAM power, watts (Table VI).
    pub power_w: f64,
}

impl CpuConfig {
    /// c4.8xlarge: 36 threads, $1.59/h, 215 W.
    pub fn c4_8xlarge() -> CpuConfig {
        CpuConfig {
            threads: 36,
            price_per_hour: 1.59,
            power_w: 215.0,
        }
    }
}

/// An accelerator platform: BSW bank + GACT-X bank + DRAM + cost/power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// Banded Smith-Waterman filter arrays.
    pub bsw: BswBank,
    /// GACT-X extension arrays.
    pub gactx: GactXBank,
    /// Memory system.
    pub dram: DramConfig,
    /// Platform price, $/hour (None for the ASIC, which the paper prices
    /// by watts instead).
    pub price_per_hour: Option<f64>,
    /// Total platform power, watts (Table VI).
    pub power_w: f64,
}

impl AcceleratorConfig {
    /// The paper's FPGA platform: AWS f1.2xlarge (Xilinx VU9P), 50 BSW +
    /// 2 GACT-X arrays of 32 PEs at 150 MHz, $1.65/h, 65 W.
    pub fn fpga() -> AcceleratorConfig {
        AcceleratorConfig {
            bsw: BswBank::fpga(),
            gactx: GactXBank::fpga(),
            dram: DramConfig::fpga_ddr4(),
            price_per_hour: Some(1.65),
            power_w: 65.0,
        }
    }

    /// The paper's ASIC: TSMC 40 nm, 64 BSW + 12 GACT-X arrays of 64 PEs
    /// at 1 GHz, 35.92 mm², 43.34 W (Table IV).
    pub fn asic() -> AcceleratorConfig {
        AcceleratorConfig {
            bsw: BswBank::asic(),
            gactx: GactXBank::asic(),
            dram: DramConfig::asic_ddr4(),
            price_per_hour: None,
            power_w: 43.34,
        }
    }

    /// Filter throughput, memory-capped, tiles/second.
    pub fn filter_tiles_per_second(&self) -> f64 {
        self.dram.cap_throughput(
            self.bsw.tiles_per_second(),
            self.bsw.geometry.bytes_per_tile() as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let cpu = CpuConfig::c4_8xlarge();
        assert_eq!(cpu.threads, 36);
        assert!((cpu.price_per_hour - 1.59).abs() < 1e-9);
        let fpga = AcceleratorConfig::fpga();
        assert_eq!(fpga.bsw.num_arrays, 50);
        assert_eq!(fpga.gactx.num_arrays, 2);
        assert_eq!(fpga.price_per_hour, Some(1.65));
        let asic = AcceleratorConfig::asic();
        assert_eq!(asic.bsw.num_arrays, 64);
        assert_eq!(asic.gactx.num_arrays, 12);
        assert!((asic.power_w - 43.34).abs() < 1e-9);
    }

    #[test]
    fn asic_filter_is_memory_capped() {
        // 70M tiles/s × 640 B/tile ≈ 45 GB/s < 76.8 GB/s: just under the
        // cap with the default geometry — the paper's "provisioned so DRAM
        // is the bottleneck" statement holds within a factor ~1.7.
        let asic = AcceleratorConfig::asic();
        let capped = asic.filter_tiles_per_second();
        let uncapped = asic.bsw.tiles_per_second();
        assert!(capped <= uncapped);
        assert!(capped > 0.5 * uncapped);
    }

    #[test]
    fn fpga_filter_not_memory_bound() {
        let fpga = AcceleratorConfig::fpga();
        let capped = fpga.filter_tiles_per_second();
        let uncapped = fpga.bsw.tiles_per_second();
        assert!((capped - uncapped).abs() / uncapped < 1e-9);
    }
}
