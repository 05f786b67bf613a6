//! Cycle model of the GACT-X extension array (§IV, Fig. 7).
//!
//! A GACT-X tile is processed in stripes of `Npe` rows; within a stripe
//! the computed column range follows the X-drop band, so cycles track the
//! number of live DP cells rather than the full tile area. After score
//! computation the traceback logic walks the stored pointers at one step
//! per cycle, and the sequences for the tile are fetched from DRAM.
//!
//! The model consumes the *measured* cell/row counts produced by the
//! software kernel ([`align::gactx::ExtensionStats`]), so hardware time
//! reflects the actual workload of the run being simulated.

use crate::systolic::ArrayConfig;

/// Per-tile traceback SRAM provisioned in hardware (Table IV: 16 KB per
/// PE; 64 PEs × 16 KB = 1 MB per array).
pub const TRACEBACK_BYTES_PER_PE: u64 = 16 * 1024;

/// A bank of GACT-X extension arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GactXBank {
    /// Per-array configuration.
    pub array: ArrayConfig,
    /// Number of arrays operating in parallel.
    pub num_arrays: usize,
}

impl GactXBank {
    /// The paper's FPGA configuration: 2 arrays × 32 PEs at 150 MHz.
    pub fn fpga() -> GactXBank {
        GactXBank {
            array: ArrayConfig::fpga(),
            num_arrays: 2,
        }
    }

    /// The paper's ASIC configuration: 12 arrays × 64 PEs at 1 GHz.
    pub fn asic() -> GactXBank {
        GactXBank {
            array: ArrayConfig::asic(),
            num_arrays: 12,
        }
    }

    /// Cycles one array spends on a tile with the given measured DP
    /// workload.
    ///
    /// * compute: live cells stream through `Npe` PEs (`cells / Npe`), and
    ///   every stripe pays a pipeline fill of `Npe` cycles;
    /// * traceback: one pointer per cycle along the alignment path, bounded
    ///   by the number of rows;
    /// * DRAM fetch: the two sequence windows at one byte per cycle
    ///   (the sequences stream in while the first stripe loads).
    pub fn cycles_for_tile(&self, cells: u64, rows: u64) -> u64 {
        self.array.validate();
        let npe = self.array.num_pe as u64;
        let compute = cells.div_ceil(npe) + self.array.stripes(rows) * npe;
        let traceback = 2 * rows; // path length ≤ rows + cols ≈ 2·rows
        let fetch = 2 * rows; // both windows, 1 B/cycle, ≈ rows bases each
        compute + traceback + fetch + self.array.tile_overhead_cycles
    }

    /// Aggregate extension throughput in tiles/second for the *average*
    /// tile of a measured workload.
    pub fn tiles_per_second(&self, avg_cells_per_tile: f64, avg_rows_per_tile: f64) -> f64 {
        let cycles = self.cycles_for_tile(avg_cells_per_tile as u64, avg_rows_per_tile as u64);
        self.num_arrays as f64 * self.array.freq_hz / cycles as f64
    }

    /// Total cycles *one* array would spend on a whole extension
    /// workload (total cells/rows over all tiles) — the modeled-cycle
    /// figure the observability layer reports for the GACT-X stage.
    /// An empty workload (zero tiles) is zero cycles.
    pub fn cycles_for_workload(&self, tiles: u64, total_cells: u64, total_rows: u64) -> u64 {
        if tiles == 0 {
            return 0;
        }
        let per_tile_overhead =
            self.array.tile_overhead_cycles + 4 * (total_rows / tiles) + self.array.num_pe as u64;
        let npe = self.array.num_pe as u64;
        total_cells.div_ceil(npe) + self.array.stripes(total_rows) * npe + tiles * per_tile_overhead
    }

    /// Seconds to process a whole extension workload (total cells/rows
    /// over all tiles), perfectly balanced across arrays.
    pub fn seconds_for_workload(&self, tiles: u64, total_cells: u64, total_rows: u64) -> f64 {
        if tiles == 0 {
            return 0.0;
        }
        let cycles = self.cycles_for_workload(tiles, total_cells, total_rows);
        self.array.cycles_to_seconds(cycles) / self.num_arrays as f64
    }

    /// DRAM bytes per tile for sequence fetch (~2 windows of `rows` bases).
    pub fn bytes_per_tile(&self, avg_rows_per_tile: f64) -> f64 {
        2.0 * avg_rows_per_tile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's default tile: Te = 1920, Y-drop band ≈ 600 columns.
    fn paper_tile() -> (u64, u64) {
        let rows = 1920u64;
        let cells = rows * 600;
        (cells, rows)
    }

    #[test]
    fn fpga_tile_cycles_near_paper() {
        let (cells, rows) = paper_tile();
        let cycles = GactXBank::fpga().cycles_for_tile(cells, rows);
        // Paper: 2 arrays at 150 MHz give 4.6K tiles/s → ~65K cycles/tile.
        // First-principles model lands within ~1.5×.
        assert!((30_000..90_000).contains(&cycles), "{cycles}");
    }

    #[test]
    fn fpga_throughput_near_paper() {
        let (cells, rows) = paper_tile();
        let tps = GactXBank::fpga().tiles_per_second(cells as f64, rows as f64);
        assert!((3.0e3..1.2e4).contains(&tps), "{tps}");
    }

    #[test]
    fn asic_throughput_near_paper() {
        // Paper: 12 arrays at 1 GHz give ~300K tiles/s.
        let (cells, rows) = paper_tile();
        let tps = GactXBank::asic().tiles_per_second(cells as f64, rows as f64);
        assert!((1.5e5..7.0e5).contains(&tps), "{tps}");
    }

    #[test]
    fn workload_seconds_scale_inverse_with_arrays() {
        let bank = GactXBank::fpga();
        let double = GactXBank {
            num_arrays: 4,
            ..bank
        };
        let t1 = bank.seconds_for_workload(1000, 1_000_000_000, 1_000_000);
        let t2 = double.seconds_for_workload(1000, 1_000_000_000, 1_000_000);
        assert!((t1 / t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_workload_is_free() {
        assert_eq!(GactXBank::fpga().seconds_for_workload(0, 0, 0), 0.0);
        assert_eq!(GactXBank::fpga().cycles_for_workload(0, 0, 0), 0);
    }

    #[test]
    fn seconds_follow_from_workload_cycles() {
        let bank = GactXBank::fpga();
        let (tiles, cells, rows) = (1000u64, 1_000_000_000u64, 1_000_000u64);
        let cycles = bank.cycles_for_workload(tiles, cells, rows);
        let expect = bank.array.cycles_to_seconds(cycles) / bank.num_arrays as f64;
        assert_eq!(bank.seconds_for_workload(tiles, cells, rows), expect);
    }
}
