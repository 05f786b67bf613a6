//! FPGA resource model — why "50 BSW and 2 GACT-X arrays" fit (§V-C).
//!
//! The paper maps its design onto the Xilinx Virtex UltraScale+ VU9P of
//! an AWS f1.2xlarge and reports the array counts that fit at 150 MHz.
//! This model budgets LUTs and BRAM per processing element (calibrated
//! so the paper's configuration lands at a realistic ~70–85% device
//! utilisation, past which routing congestion breaks timing closure) and
//! answers provisioning questions like "how many arrays would a bigger
//! part take?".

/// An FPGA part's usable resources (after shell/DMA overhead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaPart {
    /// Part name.
    pub name: &'static str,
    /// LUTs available to user logic.
    pub luts: u64,
    /// BRAM36 blocks available (36 Kb each).
    pub bram36: u64,
    /// Fraction of the device usable before routing congestion breaks
    /// timing at the target clock (0–1).
    pub max_utilisation: f64,
}

impl FpgaPart {
    /// The VU9P on an f1.2xlarge, minus the AWS shell (~20% of the part).
    pub fn vu9p_f1() -> FpgaPart {
        FpgaPart {
            name: "VU9P (f1.2xlarge, shell excluded)",
            luts: 945_000,
            bram36: 1_680,
            max_utilisation: 0.85,
        }
    }
}

/// Per-PE resource costs for the two array types.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeCosts {
    /// LUTs per BSW PE (score-only datapath).
    pub bsw_luts_per_pe: u64,
    /// LUTs per GACT-X PE (adds pointer generation and control).
    pub gactx_luts_per_pe: u64,
    /// BRAM36 blocks per GACT-X PE (16 KB traceback = 4 × 36 Kb blocks
    /// with ECC/width padding).
    pub gactx_bram_per_pe: u64,
    /// BRAM36 blocks per array for sequence buffers.
    pub seq_bram_per_array: u64,
}

impl PeCosts {
    /// Calibrated defaults: with these, the paper's 50 × 32-PE BSW +
    /// 2 × 32-PE GACT-X configuration uses ~79% of the VU9P's LUTs.
    pub fn calibrated() -> PeCosts {
        PeCosts {
            bsw_luts_per_pe: 430,
            gactx_luts_per_pe: 900,
            gactx_bram_per_pe: 4,
            seq_bram_per_array: 4,
        }
    }
}

/// A candidate mapping of arrays onto a part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// BSW arrays.
    pub bsw_arrays: usize,
    /// GACT-X arrays.
    pub gactx_arrays: usize,
    /// PEs per array (both kinds).
    pub pes_per_array: usize,
}

impl Mapping {
    /// The paper's FPGA mapping.
    pub fn darwin_wga_fpga() -> Mapping {
        Mapping {
            bsw_arrays: 50,
            gactx_arrays: 2,
            pes_per_array: 32,
        }
    }

    /// LUTs this mapping consumes.
    pub fn luts(&self, costs: &PeCosts) -> u64 {
        let bsw = self.bsw_arrays as u64 * self.pes_per_array as u64 * costs.bsw_luts_per_pe;
        let gactx =
            self.gactx_arrays as u64 * self.pes_per_array as u64 * costs.gactx_luts_per_pe;
        bsw + gactx
    }

    /// BRAM36 blocks this mapping consumes.
    pub fn bram(&self, costs: &PeCosts) -> u64 {
        let tb = self.gactx_arrays as u64 * self.pes_per_array as u64 * costs.gactx_bram_per_pe;
        let seq = (self.bsw_arrays + self.gactx_arrays) as u64 * costs.seq_bram_per_array;
        tb + seq
    }

    /// Whether the mapping fits the part within its utilisation ceiling.
    pub fn fits(&self, part: &FpgaPart, costs: &PeCosts) -> bool {
        (self.luts(costs) as f64) <= part.luts as f64 * part.max_utilisation
            && (self.bram(costs) as f64) <= part.bram36 as f64 * part.max_utilisation
    }

    /// LUT utilisation fraction on the part.
    pub fn lut_utilisation(&self, part: &FpgaPart, costs: &PeCosts) -> f64 {
        self.luts(costs) as f64 / part.luts as f64
    }
}

/// The largest BSW array count that fits alongside `gactx_arrays` at the
/// given PE width.
pub fn max_bsw_arrays(
    part: &FpgaPart,
    costs: &PeCosts,
    gactx_arrays: usize,
    pes_per_array: usize,
) -> usize {
    let mut best = 0;
    for n in 0..=4096 {
        let m = Mapping {
            bsw_arrays: n,
            gactx_arrays,
            pes_per_array,
        };
        if m.fits(part, costs) {
            best = n;
        } else {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mapping_fits_the_vu9p() {
        let part = FpgaPart::vu9p_f1();
        let costs = PeCosts::calibrated();
        let m = Mapping::darwin_wga_fpga();
        assert!(m.fits(&part, &costs));
        let util = m.lut_utilisation(&part, &costs);
        assert!((0.6..0.85).contains(&util), "LUT utilisation {util}");
    }

    #[test]
    fn paper_mapping_is_near_the_ceiling() {
        // The paper reports 50 as what they "were able to map": materially
        // more should NOT fit.
        let part = FpgaPart::vu9p_f1();
        let costs = PeCosts::calibrated();
        let max = max_bsw_arrays(&part, &costs, 2, 32);
        assert!((50..=60).contains(&max), "max {max}");
    }

    #[test]
    fn bram_budget_covers_the_traceback() {
        let part = FpgaPart::vu9p_f1();
        let costs = PeCosts::calibrated();
        let m = Mapping::darwin_wga_fpga();
        // 2 arrays × 32 PEs × 16 KB = 1 MB of traceback must fit easily.
        assert!(m.bram(&costs) < part.bram36 / 2);
    }

    #[test]
    fn doubling_pe_width_halves_array_count() {
        let part = FpgaPart::vu9p_f1();
        let costs = PeCosts::calibrated();
        let at32 = max_bsw_arrays(&part, &costs, 2, 32);
        let at64 = max_bsw_arrays(&part, &costs, 2, 64);
        let ratio = at32 as f64 / at64.max(1) as f64;
        assert!((1.8..=2.3).contains(&ratio), "ratio {ratio}");
    }
}
