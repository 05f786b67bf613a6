//! DRAM bandwidth and power model.
//!
//! The paper provisions the ASIC so that DRAM bandwidth is the bottleneck
//! (§VI-A, "The performance of this chip is limited by the available
//! memory bandwidth") with four DDR4-2400 channels; DRAMPower supplied
//! the 3.1 W estimate of Table IV. We model channels as a flat aggregate
//! bandwidth and expose the min(compute, memory) arbitration.

/// A DRAM subsystem: some number of identical channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Number of channels.
    pub channels: usize,
    /// Peak bandwidth per channel, bytes/second.
    pub bandwidth_per_channel: f64,
    /// Total DRAM power, watts.
    pub power_w: f64,
}

impl DramConfig {
    /// The ASIC's memory system: 4 × DDR4-2400 x8 (≈19.2 GB/s each),
    /// 3.1 W total (Table IV).
    pub fn asic_ddr4() -> DramConfig {
        DramConfig {
            channels: 4,
            bandwidth_per_channel: 19.2e9,
            power_w: 3.10,
        }
    }

    /// The FPGA instance's single 64 GB DDR4 DIMM.
    pub fn fpga_ddr4() -> DramConfig {
        DramConfig {
            channels: 1,
            bandwidth_per_channel: 19.2e9,
            power_w: 4.0,
        }
    }

    /// Aggregate peak bandwidth, bytes/second.
    pub fn total_bandwidth(&self) -> f64 {
        self.channels as f64 * self.bandwidth_per_channel
    }

    /// Caps a compute-bound tile throughput by memory bandwidth.
    ///
    /// # Examples
    ///
    /// ```
    /// let dram = hwsim::dram::DramConfig::asic_ddr4();
    /// // 1 KB/tile: memory alone would allow 76.8M tiles/s.
    /// let capped = dram.cap_throughput(200.0e6, 1024.0);
    /// assert!(capped < 80.0e6);
    /// ```
    pub fn cap_throughput(&self, compute_tiles_per_s: f64, bytes_per_tile: f64) -> f64 {
        if bytes_per_tile <= 0.0 {
            return compute_tiles_per_s;
        }
        compute_tiles_per_s.min(self.total_bandwidth() / bytes_per_tile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_bandwidth() {
        let d = DramConfig::asic_ddr4();
        assert!((d.total_bandwidth() - 76.8e9).abs() < 1e6);
    }

    #[test]
    fn cap_passes_through_when_memory_is_ample() {
        let d = DramConfig::asic_ddr4();
        assert_eq!(d.cap_throughput(1.0e6, 100.0), 1.0e6);
    }

    #[test]
    fn cap_limits_when_memory_is_scarce() {
        let d = DramConfig::fpga_ddr4();
        // 1 MB per tile: only ~18K tiles/s possible.
        let capped = d.cap_throughput(1.0e6, 1.0e6);
        assert!((capped - 19.2e3).abs() < 1.0);
    }

    #[test]
    fn zero_bytes_never_caps() {
        let d = DramConfig::asic_ddr4();
        assert_eq!(d.cap_throughput(5.0, 0.0), 5.0);
    }
}
