//! Cycle model of the Banded Smith-Waterman filter array (§IV).
//!
//! The BSW array is "a subset of the GACT-X array": no traceback, fixed
//! band. Per stripe `n` the start and stop columns follow equations 4–5
//! of the paper, so a stripe spans roughly `Npe + 2B` columns and a tile
//! of `T_f` bases takes `⌈T_f/Npe⌉` stripes.

use crate::systolic::ArrayConfig;

/// Geometry of one BSW filter tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BswTileGeometry {
    /// Tile size `T_f` in bases (target and query window).
    pub tile_size: usize,
    /// Band half-width `B`.
    pub band: usize,
}

impl BswTileGeometry {
    /// The paper's defaults: `T_f = 320`, `B = 32` (Table IIb).
    pub fn darwin_wga() -> BswTileGeometry {
        BswTileGeometry {
            tile_size: 320,
            band: 32,
        }
    }

    /// Start column of stripe `n` (1-based), equation 4:
    /// `jstart = max(0, (n−1)·Npe + 1 − B)`.
    pub fn jstart(&self, stripe: u64, num_pe: usize) -> u64 {
        ((stripe - 1) * num_pe as u64 + 1).saturating_sub(self.band as u64)
    }

    /// Stop column of stripe `n` (1-based), equation 5:
    /// `jstop = min(rlen − 1, n·Npe + B)`.
    pub fn jstop(&self, stripe: u64, num_pe: usize) -> u64 {
        (stripe * num_pe as u64 + self.band as u64).min(self.tile_size as u64 - 1)
    }

    /// Cycles one array needs for one tile.
    pub fn cycles_per_tile(&self, array: &ArrayConfig) -> u64 {
        array.validate();
        let stripes = array.stripes(self.tile_size as u64);
        let mut cycles = array.tile_overhead_cycles;
        for n in 1..=stripes {
            let cols = self.jstop(n, array.num_pe) - self.jstart(n, array.num_pe) + 1;
            cycles += array.stripe_cycles(cols);
        }
        cycles
    }

    /// DRAM bytes fetched per tile (both sequence windows, one byte per
    /// base as stored in DRAM).
    pub fn bytes_per_tile(&self) -> u64 {
        2 * self.tile_size as u64
    }
}

impl Default for BswTileGeometry {
    fn default() -> Self {
        BswTileGeometry::darwin_wga()
    }
}

/// A bank of identical BSW arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BswBank {
    /// Per-array configuration.
    pub array: ArrayConfig,
    /// Number of arrays operating in parallel.
    pub num_arrays: usize,
    /// Tile geometry.
    pub geometry: BswTileGeometry,
}

impl BswBank {
    /// The paper's FPGA configuration: 50 arrays × 32 PEs at 150 MHz.
    pub fn fpga() -> BswBank {
        BswBank {
            array: ArrayConfig::fpga(),
            num_arrays: 50,
            geometry: BswTileGeometry::darwin_wga(),
        }
    }

    /// The paper's ASIC configuration: 64 arrays × 64 PEs at 1 GHz.
    pub fn asic() -> BswBank {
        BswBank {
            array: ArrayConfig::asic(),
            num_arrays: 64,
            geometry: BswTileGeometry::darwin_wga(),
        }
    }

    /// Aggregate filter throughput in tiles/second (compute-bound).
    ///
    /// # Examples
    ///
    /// ```
    /// // The paper reports ~6.25M tiles/s on the FPGA and ~70M on the ASIC;
    /// // the model lands in the same range from first principles.
    /// let fpga = hwsim::bsw_array::BswBank::fpga().tiles_per_second();
    /// assert!((4.0e6..9.0e6).contains(&fpga));
    /// let asic = hwsim::bsw_array::BswBank::asic().tiles_per_second();
    /// assert!((50.0e6..90.0e6).contains(&asic));
    /// ```
    pub fn tiles_per_second(&self) -> f64 {
        let cycles = self.geometry.cycles_per_tile(&self.array);
        self.num_arrays as f64 * self.array.freq_hz / cycles as f64
    }

    /// Total cycles *one* array would spend filtering `tiles` tiles —
    /// the modeled-cycle figure the observability layer reports for the
    /// BSW stage. Divide by `num_arrays` for bank wall-clock cycles.
    pub fn cycles_for_workload(&self, tiles: u64) -> u64 {
        tiles * self.geometry.cycles_per_tile(&self.array)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_columns_follow_equations() {
        let g = BswTileGeometry::darwin_wga();
        // Stripe 1 with Npe=32, B=32: jstart = max(0, 1-32) = 0,
        // jstop = min(319, 32+32) = 64.
        assert_eq!(g.jstart(1, 32), 0);
        assert_eq!(g.jstop(1, 32), 64);
        // Middle stripe: ~Npe + 2B wide.
        assert_eq!(g.jstart(5, 32), 97);
        assert_eq!(g.jstop(5, 32), 192);
        // Last stripe clipped at the tile edge.
        assert_eq!(g.jstop(10, 32), 319);
    }

    #[test]
    fn fpga_tile_cycles_in_expected_range() {
        let g = BswTileGeometry::darwin_wga();
        let cycles = g.cycles_per_tile(&ArrayConfig::fpga());
        // 10 stripes × (~96 cols + 32 fill) + overhead ≈ 1.3K cycles.
        assert!((1_000..1_700).contains(&cycles), "{cycles}");
    }

    #[test]
    fn fpga_throughput_near_paper() {
        // Paper: 50 arrays → 6.25M tiles/s. Accept a generous band; the
        // *ratios* between platforms are what the tables use.
        let tps = BswBank::fpga().tiles_per_second();
        assert!((4.0e6..9.0e6).contains(&tps), "{tps}");
    }

    #[test]
    fn asic_throughput_near_paper() {
        // Paper: 70M tiles/s for 64 arrays at 1 GHz.
        let tps = BswBank::asic().tiles_per_second();
        assert!((5.0e7..9.0e7).contains(&tps), "{tps}");
    }

    #[test]
    fn workload_cycles_are_tiles_times_tile_cycles() {
        let bank = BswBank::fpga();
        let per_tile = bank.geometry.cycles_per_tile(&bank.array);
        assert_eq!(bank.cycles_for_workload(0), 0);
        assert_eq!(bank.cycles_for_workload(1000), 1000 * per_tile);
    }

    #[test]
    fn more_arrays_scale_linearly() {
        let mut bank = BswBank::fpga();
        let one = BswBank {
            num_arrays: 1,
            ..bank
        }
        .tiles_per_second();
        bank.num_arrays = 10;
        assert!((bank.tiles_per_second() / one - 10.0).abs() < 1e-9);
    }
}
