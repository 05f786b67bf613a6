//! ASIC area/power breakdown (Table IV).
//!
//! The paper's place-and-route produced per-component area and power at
//! TSMC 40 nm for the default provisioning (64 BSW arrays, 12 GACT-X
//! arrays of 64 PEs, 16 KB traceback SRAM per PE, 4 DDR4 channels). We
//! take those published constants per unit and scale linearly when the
//! provisioning changes, which is how the paper itself sizes the chip
//! ("scaled the area and power estimates accordingly").

/// Published Table IV constants (per component, at the default config).
mod constants {
    /// BSW logic: 64 × 64-PE arrays → 16.6 mm², 25.6 W.
    pub const BSW_AREA_PER_PE_MM2: f64 = 16.6 / (64.0 * 64.0);
    pub const BSW_POWER_PER_PE_W: f64 = 25.6 / (64.0 * 64.0);
    /// GACT-X logic: 12 × 64-PE arrays → 4.2 mm², 6.72 W.
    pub const GACTX_AREA_PER_PE_MM2: f64 = 4.2 / (12.0 * 64.0);
    pub const GACTX_POWER_PER_PE_W: f64 = 6.72 / (12.0 * 64.0);
    /// Traceback SRAM: 12 MB → 15.12 mm², 7.92 W.
    pub const SRAM_AREA_PER_KB_MM2: f64 = 15.12 / (12.0 * 64.0 * 16.0);
    pub const SRAM_POWER_PER_KB_W: f64 = 7.92 / (12.0 * 64.0 * 16.0);
    /// DRAM: 4 × DDR4-2400 channels → 3.10 W (off-chip, no die area).
    pub const DRAM_POWER_PER_CHANNEL_W: f64 = 3.10 / 4.0;
}

/// One row of the breakdown table.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentRow {
    /// Component name.
    pub component: String,
    /// Configuration description.
    pub configuration: String,
    /// Die area in mm² (0 for off-chip components).
    pub area_mm2: f64,
    /// Power in watts.
    pub power_w: f64,
}

/// ASIC provisioning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsicProvisioning {
    /// Number of BSW arrays.
    pub bsw_arrays: usize,
    /// PEs per BSW array.
    pub bsw_pes: usize,
    /// Number of GACT-X arrays.
    pub gactx_arrays: usize,
    /// PEs per GACT-X array.
    pub gactx_pes: usize,
    /// Traceback SRAM per GACT-X PE, KB.
    pub traceback_kb_per_pe: usize,
    /// DDR4 channels.
    pub dram_channels: usize,
}

impl AsicProvisioning {
    /// The paper's chip (Table IV).
    pub fn darwin_wga() -> AsicProvisioning {
        AsicProvisioning {
            bsw_arrays: 64,
            bsw_pes: 64,
            gactx_arrays: 12,
            gactx_pes: 64,
            traceback_kb_per_pe: 16,
            dram_channels: 4,
        }
    }

    /// Full per-component breakdown, in Table IV order.
    pub fn breakdown(&self) -> Vec<ComponentRow> {
        use constants::*;
        let bsw_pes = (self.bsw_arrays * self.bsw_pes) as f64;
        let gactx_pes = (self.gactx_arrays * self.gactx_pes) as f64;
        let sram_kb = gactx_pes * self.traceback_kb_per_pe as f64;
        vec![
            ComponentRow {
                component: "BSW Logic".into(),
                configuration: format!("{} × ({}PE array)", self.bsw_arrays, self.bsw_pes),
                area_mm2: bsw_pes * BSW_AREA_PER_PE_MM2,
                power_w: bsw_pes * BSW_POWER_PER_PE_W,
            },
            ComponentRow {
                component: "GACT-X Logic".into(),
                configuration: format!("{} × ({}PE array)", self.gactx_arrays, self.gactx_pes),
                area_mm2: gactx_pes * GACTX_AREA_PER_PE_MM2,
                power_w: gactx_pes * GACTX_POWER_PER_PE_W,
            },
            ComponentRow {
                component: "Traceback SRAM".into(),
                configuration: format!(
                    "{} × ({}PE × {}KB/PE)",
                    self.gactx_arrays, self.gactx_pes, self.traceback_kb_per_pe
                ),
                area_mm2: sram_kb * SRAM_AREA_PER_KB_MM2,
                power_w: sram_kb * SRAM_POWER_PER_KB_W,
            },
            ComponentRow {
                component: "DRAM".into(),
                configuration: format!("{} × DDR4-2400", self.dram_channels),
                area_mm2: 0.0,
                power_w: self.dram_channels as f64 * DRAM_POWER_PER_CHANNEL_W,
            },
        ]
    }

    /// Total die area, mm².
    pub fn total_area_mm2(&self) -> f64 {
        self.breakdown().iter().map(|r| r.area_mm2).sum()
    }

    /// Total power, watts.
    pub fn total_power_w(&self) -> f64 {
        self.breakdown().iter().map(|r| r.power_w).sum()
    }
}

impl Default for AsicProvisioning {
    fn default() -> Self {
        AsicProvisioning::darwin_wga()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reproduces_table_4_totals() {
        let p = AsicProvisioning::darwin_wga();
        assert!(
            (p.total_area_mm2() - 35.92).abs() < 0.01,
            "{}",
            p.total_area_mm2()
        );
        assert!(
            (p.total_power_w() - 43.34).abs() < 0.01,
            "{}",
            p.total_power_w()
        );
    }

    #[test]
    fn default_reproduces_table_4_rows() {
        let rows = AsicProvisioning::darwin_wga().breakdown();
        assert_eq!(rows.len(), 4);
        assert!((rows[0].area_mm2 - 16.6).abs() < 1e-9);
        assert!((rows[0].power_w - 25.6).abs() < 1e-9);
        assert!((rows[1].area_mm2 - 4.2).abs() < 1e-9);
        assert!((rows[2].area_mm2 - 15.12).abs() < 1e-9);
        assert!((rows[2].power_w - 7.92).abs() < 1e-9);
        assert_eq!(rows[3].area_mm2, 0.0);
        assert!((rows[3].power_w - 3.10).abs() < 1e-9);
    }

    #[test]
    fn scaling_is_linear() {
        let mut p = AsicProvisioning::darwin_wga();
        p.bsw_arrays = 128;
        let rows = p.breakdown();
        assert!((rows[0].area_mm2 - 2.0 * 16.6).abs() < 1e-9);
        // GACT-X unchanged.
        assert!((rows[1].area_mm2 - 4.2).abs() < 1e-9);
    }

    #[test]
    fn bsw_dominates_logic_area_and_power() {
        // §VI-A: "BSW arrays dominate the logic area of the ASIC and
        // consume almost 60% of the chip power."
        let p = AsicProvisioning::darwin_wga();
        let rows = p.breakdown();
        assert!(rows[0].area_mm2 > rows[1].area_mm2);
        assert!(rows[0].power_w / p.total_power_w() > 0.55);
    }

    #[test]
    fn sram_is_about_half_the_area() {
        // §VI-A: traceback pointers "take up nearly half of the chip area".
        let p = AsicProvisioning::darwin_wga();
        let rows = p.breakdown();
        let frac = rows[2].area_mm2 / p.total_area_mm2();
        assert!((0.35..0.55).contains(&frac), "{frac}");
    }
}
