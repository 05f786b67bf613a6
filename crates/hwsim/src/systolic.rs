//! Linear systolic-array timing model (§IV, Fig. 7).
//!
//! Both accelerator arrays are linear chains of `Npe` processing elements
//! exploiting wavefront parallelism along a *stripe* of `Npe` query rows:
//! the query characters of the stripe are loaded into the PEs and the
//! target characters stream through, one column per cycle once the
//! pipeline is full. A stripe over `c` columns therefore takes
//! `c + Npe` cycles (fill + drain), and a tile takes the sum over its
//! stripes plus a fixed per-tile configuration overhead.

/// Configuration of one linear systolic array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayConfig {
    /// Number of processing elements (`Npe`).
    pub num_pe: usize,
    /// Clock frequency in Hz.
    pub freq_hz: f64,
    /// Fixed per-tile overhead cycles (configuration, launch, drain).
    pub tile_overhead_cycles: u64,
}

impl ArrayConfig {
    /// The FPGA array of the paper: 32 PEs at 150 MHz.
    pub fn fpga() -> ArrayConfig {
        ArrayConfig {
            num_pe: 32,
            freq_hz: 150.0e6,
            tile_overhead_cycles: 64,
        }
    }

    /// The ASIC array of the paper: 64 PEs at 1 GHz.
    pub fn asic() -> ArrayConfig {
        ArrayConfig {
            num_pe: 64,
            freq_hz: 1.0e9,
            tile_overhead_cycles: 64,
        }
    }

    /// Cycles for one stripe spanning `columns` matrix columns: pipeline
    /// fill/drain of `num_pe` plus one column per cycle.
    pub fn stripe_cycles(&self, columns: u64) -> u64 {
        columns + self.num_pe as u64
    }

    /// Number of stripes needed for `rows` query rows.
    pub fn stripes(&self, rows: u64) -> u64 {
        rows.div_ceil(self.num_pe as u64)
    }

    /// Converts a cycle count to seconds at this array's clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero PE count or non-positive frequency.
    pub fn validate(&self) {
        assert!(self.num_pe > 0, "array needs at least one PE");
        assert!(self.freq_hz > 0.0, "frequency must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_and_stripes() {
        let a = ArrayConfig::fpga();
        assert_eq!(a.stripe_cycles(100), 132);
        assert_eq!(a.stripes(320), 10);
        assert_eq!(a.stripes(1), 1);
        assert_eq!(a.stripes(33), 2);
    }

    #[test]
    fn cycles_to_seconds() {
        let a = ArrayConfig::fpga();
        assert!((a.cycles_to_seconds(150_000_000) - 1.0).abs() < 1e-9);
        let b = ArrayConfig::asic();
        assert!((b.cycles_to_seconds(1_000_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn validate_rejects_zero_pe() {
        ArrayConfig {
            num_pe: 0,
            freq_hz: 1.0,
            tile_overhead_cycles: 0,
        }
        .validate();
    }
}
