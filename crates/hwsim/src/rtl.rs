//! Cycle-by-cycle simulation of the BSW systolic array (§IV, Fig. 7).
//!
//! Where the rest of this crate *models* cycle counts analytically, this
//! module actually simulates the array: `Npe` processing elements in a
//! chain, query characters loaded one per PE per stripe, target
//! characters streaming through, every PE computing one DP cell per
//! cycle along the anti-diagonal wavefront. It exists to validate the
//! analytic model and the software kernel against each other:
//!
//! * the simulated array's `Vmax` must equal
//!   [`align::banded::banded_smith_waterman`]'s (same band geometry), and
//! * its cycle count must match [`crate::bsw_array`]'s analytic formula.
//!
//! Dataflow, mirroring the hardware: within a stripe, PE `k` owns query
//! row `stripe·Npe + k`; at stripe cycle `c`, PE `k` computes column
//! `c − k` (pipeline skew). Its inputs are registers written on earlier
//! cycles: its own previous outputs (`E` chain along the row), its left
//! neighbour's previous outputs (`V`/`F` from the row above; the
//! neighbour's one-older `V` for the diagonal), and — for PE 0 — the
//! stripe-boundary row buffer (the paper's dual-port BRAM) written by the
//! previous stripe's last PE.

use crate::bsw_array::BswTileGeometry;
use crate::systolic::ArrayConfig;
use genome::{Base, GapPenalties, SubstitutionMatrix};

const NEG_INF: i64 = i64::MIN / 4;

/// One processing element's registers.
#[derive(Debug, Clone)]
struct Pe {
    /// Query base held for the stripe (`None` past the query end).
    query_base: Option<Base>,
    /// Query row owned this stripe.
    row: usize,
    /// `V` of the cell computed last cycle.
    v_out: i64,
    /// `V` of the cell computed two cycles ago (the neighbour's diagonal).
    v_prev: i64,
    /// `E` of the cell computed last cycle (own left-chain).
    e_out: i64,
    /// `F` of the cell computed last cycle (the neighbour's F chain).
    f_out: i64,
    /// Running per-PE maximum (systolic `Vmax` reduction).
    vmax: i64,
    /// Position of the per-PE maximum.
    vmax_pos: (usize, usize),
}

impl Pe {
    fn fresh(row: usize, query_base: Option<Base>) -> Pe {
        Pe {
            query_base,
            row,
            v_out: NEG_INF,
            v_prev: NEG_INF,
            e_out: NEG_INF,
            f_out: NEG_INF,
            vmax: 0,
            vmax_pos: (0, 0),
        }
    }

    fn advance(&mut self, v: i64, e: i64, f: i64) {
        self.v_prev = self.v_out;
        self.v_out = v;
        self.e_out = e;
        self.f_out = f;
    }

    /// Past the row's band: outputs are dead from here on.
    fn drain(&mut self) {
        self.advance(NEG_INF, NEG_INF, NEG_INF);
    }
}

/// Result of a simulated BSW tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOutcome {
    /// Maximum cell score (`Vmax`, clamped at 0).
    pub max_score: i64,
    /// Target (column) position of the maximum (0-based).
    pub target_pos: usize,
    /// Query (row) position of the maximum (0-based).
    pub query_pos: usize,
    /// Exact cycles the array spent, including pipeline fill/drain and
    /// the configured per-tile overhead.
    pub cycles: u64,
    /// DP cells computed (cross-check against the software kernel).
    pub cells: u64,
}

/// Simulates one banded Smith-Waterman filter tile on a linear systolic
/// array, cycle by cycle.
///
/// `target` is streamed (columns), `query` is loaded into PEs (rows);
/// the band follows the tile geometry. Sequences longer than
/// `geometry.tile_size` are truncated to the tile window, exactly as the
/// hardware DMA fetches only the tile.
///
/// # Examples
///
/// ```
/// use genome::{GapPenalties, Sequence, SubstitutionMatrix};
/// use hwsim::bsw_array::BswTileGeometry;
/// use hwsim::rtl::simulate_bsw_tile;
/// use hwsim::systolic::ArrayConfig;
///
/// let s: Sequence = "ACGTACGTACGT".parse()?;
/// let geometry = BswTileGeometry { tile_size: 12, band: 4 };
/// let out = simulate_bsw_tile(
///     &s.to_bases(), &s.to_bases(),
///     &SubstitutionMatrix::darwin_wga(), &GapPenalties::darwin_wga(),
///     &geometry, &ArrayConfig::fpga(),
/// );
/// assert_eq!(out.max_score, 3 * (91 + 100 + 100 + 91));
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
pub fn simulate_bsw_tile(
    target: &[Base],
    query: &[Base],
    w: &SubstitutionMatrix,
    gaps: &GapPenalties,
    geometry: &BswTileGeometry,
    array: &ArrayConfig,
) -> SimOutcome {
    array.validate();
    let npe = array.num_pe;
    let target = &target[..target.len().min(geometry.tile_size)];
    let query = &query[..query.len().min(geometry.tile_size)];
    let n = target.len();
    let m = query.len();
    let (open, extend) = (gaps.open as i64, gaps.extend as i64);

    let mut cycles = array.tile_overhead_cycles;
    let mut cells = 0u64;

    // Stripe-boundary row buffer, 1-indexed by column: boundary_v[j+1] is
    // V of the previous stripe's last row at column j; index 0 is the
    // empty left edge (a 0 "restart" cell under SW clamping).
    let mut boundary_v = vec![0i64; n + 1];
    let mut boundary_f = vec![NEG_INF; n + 1];

    let mut global_vmax = 0i64;
    let mut global_pos = (0usize, 0usize);

    let stripes = m.div_ceil(npe.max(1));
    for stripe in 0..stripes {
        // Columns this stripe touches: the union of its rows' bands
        // (the 0-based equivalent of equations 4–5).
        let first_row = stripe * npe;
        let last_row = (first_row + npe - 1).min(m.saturating_sub(1));
        let jstart = first_row.saturating_sub(geometry.band);
        let jstop = (last_row + geometry.band).min(n.saturating_sub(1));
        if jstart > jstop {
            continue;
        }
        let stripe_cols = jstop - jstart + 1;
        cycles += array.stripe_cycles(stripe_cols as u64);

        let mut pes: Vec<Pe> = (0..npe)
            .map(|k| {
                let row = stripe * npe + k;
                Pe::fresh(row, query.get(row).copied())
            })
            .collect();
        // Index of the stripe's last live PE (writes the boundary row).
        let last_live = (0..npe)
            .rev()
            .find(|&k| pes[k].query_base.is_some())
            .unwrap_or(0);

        let mut next_boundary_v = vec![0i64; n + 1];
        let mut next_boundary_f = vec![NEG_INF; n + 1];

        for cycle in 0..stripe_cols + npe {
            // Reverse order: each PE reads its left neighbour's registers
            // *before* the neighbour overwrites them this cycle.
            for k in (0..npe).rev() {
                let Some(cycle_col) = cycle.checked_sub(k) else {
                    continue; // pipeline not yet filled for this PE
                };
                if cycle_col >= stripe_cols {
                    continue; // drained
                }
                let j = jstart + cycle_col;
                let (row, qbase) = {
                    let pe = &pes[k];
                    (pe.row, pe.query_base)
                };
                let Some(qbase) = qbase else { continue };
                if j + geometry.band < row {
                    continue; // left of this row's band: not started yet
                }
                if j > row + geometry.band {
                    pes[k].drain();
                    continue; // right of this row's band: dead outputs
                }

                // Row-above inputs.
                let (up_v, up_f, diag_v) = if k == 0 {
                    (boundary_v[j + 1], boundary_f[j + 1], boundary_v[j])
                } else {
                    let left = &pes[k - 1];
                    (left.v_out, left.f_out, left.v_prev)
                };
                // Own-row inputs (previous cycle).
                let (left_v, left_e) = {
                    let pe = &pes[k];
                    (pe.v_out, pe.e_out)
                };

                let e_val = (left_v.saturating_sub(open + extend))
                    .max(left_e.saturating_sub(extend));
                let f_val =
                    (up_v.saturating_sub(open + extend)).max(up_f.saturating_sub(extend));
                let sub = if diag_v > NEG_INF / 2 {
                    diag_v + w.score(target[j], qbase) as i64
                } else {
                    // Out-of-band diagonal: SW restart from 0.
                    w.score(target[j], qbase) as i64
                };
                let v = 0i64.max(sub).max(e_val).max(f_val);

                cells += 1;
                let pe = &mut pes[k];
                pe.advance(v, e_val, f_val);
                if v > pe.vmax {
                    pe.vmax = v;
                    pe.vmax_pos = (j, row);
                }
                if k == last_live {
                    next_boundary_v[j + 1] = v;
                    next_boundary_f[j + 1] = f_val;
                }
            }
        }

        for pe in &pes {
            if pe.vmax > global_vmax {
                global_vmax = pe.vmax;
                global_pos = pe.vmax_pos;
            }
        }
        boundary_v = next_boundary_v;
        boundary_f = next_boundary_f;
    }

    SimOutcome {
        max_score: global_vmax,
        target_pos: global_pos.0,
        query_pos: global_pos.1,
        cycles,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use align::banded::banded_smith_waterman;
    use genome::markov::MarkovModel;
    use genome::Sequence;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dw() -> (SubstitutionMatrix, GapPenalties) {
        (SubstitutionMatrix::darwin_wga(), GapPenalties::darwin_wga())
    }

    fn mutated(s: &Sequence, rate: f64, rng: &mut StdRng) -> Sequence {
        s.iter()
            .map(|b| {
                if rng.gen::<f64>() < rate {
                    Base::from_code(rng.gen_range(0..4u8))
                } else {
                    b
                }
            })
            .collect()
    }

    #[test]
    fn simulation_matches_software_kernel_on_related_tiles() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(2);
        let model = MarkovModel::genome_like();
        let geometry = BswTileGeometry::darwin_wga();
        for trial in 0..8 {
            let t = model.generate(320, &mut rng);
            let q = mutated(&t, 0.05 * trial as f64 / 8.0 + 0.02, &mut rng);
            let sim = simulate_bsw_tile(
                &t.to_bases(),
                &q.to_bases(),
                &w,
                &g,
                &geometry,
                &ArrayConfig::fpga(),
            );
            let sw = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, geometry.band);
            assert_eq!(sim.max_score, sw.max_score, "trial {trial}");
            assert!(sim.max_score > 4000, "tile should pass the filter");
        }
    }

    #[test]
    fn simulation_matches_software_kernel_on_random_tiles() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(5);
        let model = MarkovModel::genome_like();
        let geometry = BswTileGeometry {
            tile_size: 96,
            band: 12,
        };
        for trial in 0..20 {
            let t = model.generate(96, &mut rng);
            let q = model.generate(96, &mut rng);
            let sim = simulate_bsw_tile(
                &t.to_bases(),
                &q.to_bases(),
                &w,
                &g,
                &geometry,
                &ArrayConfig {
                    num_pe: 8,
                    freq_hz: 1.0e8,
                    tile_overhead_cycles: 0,
                },
            );
            let sw = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, geometry.band);
            assert_eq!(sim.max_score, sw.max_score, "trial {trial}");
        }
    }

    #[test]
    fn simulation_handles_indels_within_band() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(7);
        let model = MarkovModel::genome_like();
        let t = model.generate(320, &mut rng);
        // 10-base deletion in the query at position 150.
        let mut q = t.subsequence(0..150);
        q.extend(t.iter().skip(160).take(320 - 160));
        let geometry = BswTileGeometry::darwin_wga();
        let sim = simulate_bsw_tile(
            &t.to_bases(),
            &q.to_bases(),
            &w,
            &g,
            &geometry,
            &ArrayConfig::fpga(),
        );
        let sw = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, geometry.band);
        assert_eq!(sim.max_score, sw.max_score);
    }

    #[test]
    fn simulation_cycles_match_analytic_model() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(3);
        let model = MarkovModel::genome_like();
        let t = model.generate(320, &mut rng);
        let q = model.generate(320, &mut rng);
        let geometry = BswTileGeometry::darwin_wga();
        let array = ArrayConfig::fpga();
        let sim = simulate_bsw_tile(&t.to_bases(), &q.to_bases(), &w, &g, &geometry, &array);
        // The analytic formula uses the paper's 1-based equations 4–5; the
        // simulator computes the exact 0-based band union, which differs
        // by at most one column per stripe.
        let analytic = geometry.cycles_per_tile(&array);
        let stripes = array.stripes(320) as i64;
        let delta = sim.cycles as i64 - analytic as i64;
        assert!(
            delta.abs() <= stripes,
            "sim {} vs analytic {analytic}",
            sim.cycles
        );
    }

    #[test]
    fn short_sequences_are_clipped_not_panicking() {
        let (w, g) = dw();
        let s: Sequence = "ACGTACGT".parse().unwrap();
        let geometry = BswTileGeometry::darwin_wga();
        let sim = simulate_bsw_tile(
            &s.to_bases(),
            &s.to_bases(),
            &w,
            &g,
            &geometry,
            &ArrayConfig::fpga(),
        );
        assert_eq!(sim.max_score, 2 * (91 + 100 + 100 + 91));
    }

    #[test]
    fn empty_inputs() {
        let (w, g) = dw();
        let geometry = BswTileGeometry::darwin_wga();
        let sim = simulate_bsw_tile(&[], &[], &w, &g, &geometry, &ArrayConfig::fpga());
        assert_eq!(sim.max_score, 0);
        assert_eq!(sim.cells, 0);
    }
}
