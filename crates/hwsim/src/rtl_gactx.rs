//! Cycle-by-cycle simulation of the GACT-X extension array (§IV, Fig. 7).
//!
//! Like [`crate::rtl`] for the BSW array, but with the GACT-X specifics:
//!
//! * Needleman-Wunsch scoring (negative scores allowed; the tile path is
//!   anchored at the origin);
//! * X-drop stripe control: a stripe starts at the first column whose
//!   boundary-row score exceeded `Vmax − Y`, and stops issuing columns
//!   once an entire column of the stripe scores below `Vmax − Y`
//!   ("the scores of all the cells in a column fall below");
//! * 4-bit direction pointers written to a traceback BRAM, with start/
//!   stop column registers per stripe (the paper's position BRAMs), and a
//!   traceback walk of one pointer per cycle from the maximum cell.
//!
//! Validation: the walked-back path must be a valid alignment whose
//! rescore equals the simulated `Vmax`, and — because stripe-granular
//! pruning is slightly *more* permissive than the software kernel's
//! row-granular pruning — the simulated `Vmax` must be at least the
//! software kernel's and equal to it whenever the optimum is comfortably
//! inside the band.

use crate::systolic::ArrayConfig;
use align::cigar::{AlignOp, Cigar};
use genome::{Base, GapPenalties, SubstitutionMatrix};

const NEG_INF: i64 = i64::MIN / 4;

/// Direction-pointer encoding (2 direction bits + 2 affine bits), as the
/// hardware stores per cell.
mod ptr {
    pub const STOP: u8 = 0;
    pub const DIAG: u8 = 1;
    pub const LEFT: u8 = 2;
    pub const UP: u8 = 3;
    pub const DIR_MASK: u8 = 0b0011;
    pub const E_OPEN: u8 = 0b0100;
    pub const F_OPEN: u8 = 0b1000;
}

/// Result of one simulated GACT-X tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GactxSimOutcome {
    /// Tile `Vmax`.
    pub max_score: i64,
    /// Target bases to the maximum cell.
    pub max_target: usize,
    /// Query bases to the maximum cell.
    pub max_query: usize,
    /// Path from the tile origin to the maximum cell, rebuilt by walking
    /// the traceback BRAM.
    pub cigar: Cigar,
    /// Score-phase cycles (stripes × (columns + fill) + overhead).
    pub compute_cycles: u64,
    /// Traceback-walk cycles (one pointer per cycle).
    pub traceback_cycles: u64,
    /// 4-bit pointer words written to the traceback BRAM.
    pub bram_words: u64,
    /// Bytes of BRAM used (2 pointers per byte).
    pub bram_bytes: u64,
}

/// One stored stripe: its column window and per-cell data.
#[derive(Debug)]
struct Stripe {
    first_row: usize,
    jstart: usize,
    /// Per column (from `jstart`): the `Npe` (or fewer) cells' pointers,
    /// and the boundary (last-row) V/F for the next stripe.
    ptrs: Vec<Vec<u8>>,
}

/// Simulates one GACT-X tile on a linear systolic array.
///
/// `y` is the X-drop threshold; `array.num_pe` rows are processed per
/// stripe. Scores follow equations 1–3 with Needleman-Wunsch boundary
/// conditions (leading gaps charged).
pub fn simulate_gactx_tile(
    target: &[Base],
    query: &[Base],
    w: &SubstitutionMatrix,
    gaps: &GapPenalties,
    y: i64,
    array: &ArrayConfig,
) -> GactxSimOutcome {
    array.validate();
    let npe = array.num_pe;
    let n = target.len();
    let m = query.len();
    let (open, extend) = (gaps.open as i64, gaps.extend as i64);

    let mut compute_cycles = array.tile_overhead_cycles;
    let mut bram_words = 0u64;
    let mut vmax = 0i64;
    let (mut max_i, mut max_j) = (0usize, 0usize); // 1-based DP coords

    // Boundary row (the row above the current stripe), 0-indexed by
    // column 0..=n: V and F values. Starts as DP row 0 (leading-deletion
    // costs).
    let mut boundary_v: Vec<i64> = (0..=n)
        .map(|j| {
            if j == 0 {
                0
            } else {
                -(open + extend * j as i64)
            }
        })
        .collect();
    let mut boundary_f: Vec<i64> = vec![NEG_INF; n + 1];

    let mut stripes: Vec<Stripe> = Vec::new();
    let total_stripes = m.div_ceil(npe.max(1));

    for s in 0..total_stripes {
        let first_row = s * npe; // 0-based query row of PE 0
        let rows_live = npe.min(m - first_row);

        // jstart: first column (1-based) whose boundary V is live, i.e.
        // can feed this stripe; column 0 (the left edge) is live while the
        // pure-insertion cost is above the drop line.
        let col0_score = -(open + extend * (first_row as i64 + 1));
        let col0_live = col0_score >= vmax - y;
        let jstart = if col0_live {
            1
        } else {
            match (0..=n).find(|&j| boundary_v[j] >= vmax - y && boundary_v[j] > NEG_INF / 2) {
                Some(j) => j.max(1),
                None => break, // nothing can feed this stripe
            }
        };
        if jstart > n {
            break;
        }

        // Per-PE registers: committed values of the previous column.
        let mut v_out = vec![NEG_INF; npe];
        let mut e_out = vec![NEG_INF; npe];
        // Current-column scratch (written during the column, committed
        // after it — emulating the register timing of the wavefront).
        let mut cur_v = vec![NEG_INF; npe];
        let mut cur_e = vec![NEG_INF; npe];
        let mut cur_f = vec![NEG_INF; npe];

        let mut next_boundary_v = vec![NEG_INF; n + 1];
        let mut next_boundary_f = vec![NEG_INF; n + 1];

        let mut stripe = Stripe {
            first_row,
            jstart,
            ptrs: Vec::new(),
        };

        // Last column that can still receive up/diag input from the
        // boundary row; beyond it only the in-stripe E chain can feed.
        let boundary_live_end = (0..=n)
            .rev()
            .find(|&j| boundary_v[j] >= vmax - y && boundary_v[j] > NEG_INF / 2)
            .unwrap_or(0);

        // Column issue loop with the X-drop stop rule (§IV): stop once a
        // fully evaluated column past the boundary's live region has no
        // live cell ("the scores of all the cells in a column fall
        // below").
        let mut j = jstart;
        while j <= n {
            let mut col_ptrs = vec![ptr::STOP; rows_live];
            let mut col_live = false;
            for k in 0..rows_live {
                let row = first_row + k; // 0-based
                let qbase = query[row];
                // Left inputs: own previous column (committed registers).
                let (left_v, left_e) = if j == jstart {
                    if jstart == 1 {
                        // True left edge: the NW column-0 boundary.
                        let edge = -(open + extend * (row as i64 + 1));
                        if edge >= vmax - y {
                            (edge, NEG_INF)
                        } else {
                            (NEG_INF, NEG_INF)
                        }
                    } else {
                        (NEG_INF, NEG_INF) // cells left of jstart are pruned
                    }
                } else {
                    (v_out[k], e_out[k])
                };
                // Up/diag inputs: PE k-1's current column / previous
                // column, or the stripe-boundary BRAM for PE 0.
                let (up_v, up_f, diag_v) = if k == 0 {
                    (boundary_v[j], boundary_f[j], boundary_v[j - 1])
                } else {
                    let diag = if j == jstart {
                        if jstart == 1 {
                            let edge = -(open + extend * (row as i64));
                            if edge >= vmax - y {
                                edge
                            } else {
                                NEG_INF
                            }
                        } else {
                            NEG_INF
                        }
                    } else {
                        v_out[k - 1] // committed = column j-1
                    };
                    (cur_v[k - 1], cur_f[k - 1], diag)
                };

                let e_from_open = left_v.saturating_sub(open + extend);
                let e_from_ext = left_e.saturating_sub(extend);
                let e_val = e_from_open.max(e_from_ext);
                let f_from_open = up_v.saturating_sub(open + extend);
                let f_from_ext = up_f.saturating_sub(extend);
                let f_val = f_from_open.max(f_from_ext);
                let sub = if diag_v > NEG_INF / 2 {
                    diag_v + w.score(target[j - 1], qbase) as i64
                } else {
                    NEG_INF
                };
                let mut best = sub;
                let mut dir = ptr::DIAG;
                if e_val > best {
                    best = e_val;
                    dir = ptr::LEFT;
                }
                if f_val > best {
                    best = f_val;
                    dir = ptr::UP;
                }
                let mut p = dir;
                if e_from_open >= e_from_ext {
                    p |= ptr::E_OPEN;
                }
                if f_from_open >= f_from_ext {
                    p |= ptr::F_OPEN;
                }

                let live = best >= vmax - y && best > NEG_INF / 2;
                if live {
                    col_live = true;
                    cur_v[k] = best;
                    cur_e[k] = e_val;
                    cur_f[k] = f_val;
                    col_ptrs[k] = p;
                    if best > vmax {
                        vmax = best;
                        max_i = row + 1;
                        max_j = j;
                    }
                } else {
                    cur_v[k] = NEG_INF;
                    cur_e[k] = NEG_INF;
                    cur_f[k] = NEG_INF;
                }
                if k == rows_live - 1 {
                    next_boundary_v[j] = cur_v[k];
                    next_boundary_f[j] = cur_f[k];
                }
            }
            // Commit column registers.
            v_out[..rows_live].copy_from_slice(&cur_v[..rows_live]);
            e_out[..rows_live].copy_from_slice(&cur_e[..rows_live]);
            bram_words += rows_live as u64;
            stripe.ptrs.push(col_ptrs);
            if !col_live && j > boundary_live_end {
                break; // X-drop: every further cell is unreachable.
            }
            j += 1;
        }
        let cols = stripe.ptrs.len() as u64;
        compute_cycles += array.stripe_cycles(cols);
        let stripe_dead = stripe
            .ptrs
            .iter()
            .all(|col| col.iter().all(|&p| p == ptr::STOP));
        stripes.push(stripe);
        boundary_v = next_boundary_v;
        boundary_f = next_boundary_f;
        if stripe_dead {
            break;
        }
    }

    // Traceback walk: one pointer read per cycle.
    let (cigar, traceback_cycles) = walk_traceback(&stripes, max_i, max_j, target, query, npe);

    GactxSimOutcome {
        max_score: vmax,
        max_target: max_j,
        max_query: max_i,
        cigar,
        compute_cycles,
        traceback_cycles,
        bram_words,
        bram_bytes: bram_words.div_ceil(2),
    }
}

fn walk_traceback(
    stripes: &[Stripe],
    max_i: usize,
    max_j: usize,
    target: &[Base],
    query: &[Base],
    npe: usize,
) -> (Cigar, u64) {
    let lookup = |i: usize, j: usize| -> u8 {
        if i == 0 || j == 0 {
            return ptr::STOP;
        }
        let s = (i - 1) / npe;
        let Some(stripe) = stripes.get(s) else {
            return ptr::STOP;
        };
        let k = (i - 1) - stripe.first_row;
        if j < stripe.jstart {
            return ptr::STOP;
        }
        let col = j - stripe.jstart;
        stripe
            .ptrs
            .get(col)
            .and_then(|c| c.get(k))
            .copied()
            .unwrap_or(ptr::STOP)
    };

    let mut ops_rev: Vec<AlignOp> = Vec::new();
    let (mut i, mut j) = (max_i, max_j);
    let mut cycles = 0u64;
    let mut state = 0u8;
    while i > 0 || j > 0 {
        cycles += 1;
        match state {
            0 => {
                let p = lookup(i, j);
                match p & ptr::DIR_MASK {
                    ptr::STOP => {
                        // Origin-adjacent edges: emit the leading gap.
                        while j > 0 {
                            ops_rev.push(AlignOp::Delete);
                            j -= 1;
                        }
                        while i > 0 {
                            ops_rev.push(AlignOp::Insert);
                            i -= 1;
                        }
                        break;
                    }
                    ptr::DIAG => {
                        let op = if target[j - 1] == query[i - 1] && target[j - 1] != Base::N {
                            AlignOp::Match
                        } else {
                            AlignOp::Subst
                        };
                        ops_rev.push(op);
                        i -= 1;
                        j -= 1;
                    }
                    ptr::LEFT => state = 2,
                    ptr::UP => state = 3,
                    _ => unreachable!(), // lint: allow(panics): a two-bit direction field has these four values only
                }
            }
            2 => {
                let p = lookup(i, j);
                ops_rev.push(AlignOp::Delete);
                j -= 1;
                if p & ptr::E_OPEN != 0 {
                    state = 0;
                }
            }
            3 => {
                let p = lookup(i, j);
                ops_rev.push(AlignOp::Insert);
                i -= 1;
                if p & ptr::F_OPEN != 0 {
                    state = 0;
                }
            }
            _ => unreachable!(), // lint: allow(panics): `state` is only ever set to 0, 2 or 3
        }
    }
    let mut cigar = Cigar::new();
    for op in ops_rev.into_iter().rev() {
        cigar.push(op, 1);
    }
    (cigar, cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use align::alignment::Alignment;
    use align::xdrop::xdrop_tile;
    use genome::markov::MarkovModel;
    use genome::Sequence;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dw() -> (SubstitutionMatrix, GapPenalties) {
        (SubstitutionMatrix::darwin_wga(), GapPenalties::darwin_wga())
    }

    fn fpga() -> ArrayConfig {
        ArrayConfig::fpga()
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
    fn matches_software_kernel_on_related_tiles() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(1);
        let model = MarkovModel::genome_like();
        for trial in 0..6 {
            let t = model.generate(400, &mut rng);
            let q = mutated(&t, 0.02 + 0.02 * trial as f64, &mut rng);
            let sim = simulate_gactx_tile(&t.to_bases(), &q.to_bases(), &w, &g, 9430, &fpga());
            let sw = xdrop_tile(&t.to_bases(), &q.to_bases(), &w, &g, 9430);
            assert_eq!(sim.max_score, sw.max_score, "trial {trial}");
            assert_eq!(sim.max_target, sw.max_target, "trial {trial}");
            assert_eq!(sim.max_query, sw.max_query, "trial {trial}");
        }
    }

    #[test]
    fn traceback_bram_path_is_valid_and_scores_to_vmax() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(2);
        let model = MarkovModel::genome_like();
        let t = model.generate(500, &mut rng);
        // Insert a 15-base deletion so the path has a real gap.
        let mut q = t.subsequence(0..230);
        q.extend(t.iter().skip(245).take(500 - 245));
        let q = mutated(&q, 0.05, &mut rng);
        let sim = simulate_gactx_tile(&t.to_bases(), &q.to_bases(), &w, &g, 9430, &fpga());
        let a = Alignment::new(0, 0, sim.cigar.clone(), sim.max_score);
        a.validate(&t, &q).unwrap();
        assert_eq!(sim.max_score, a.rescore(&t, &q, &w, &g));
        assert_eq!(a.target_span(), sim.max_target);
        assert_eq!(a.query_span(), sim.max_query);
        assert!(sim.cigar.count(AlignOp::Delete) >= 15);
    }

    #[test]
    fn xdrop_prunes_bram_words() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(3);
        let model = MarkovModel::genome_like();
        let t = model.generate(512, &mut rng);
        let q = mutated(&t, 0.05, &mut rng);
        let tight = simulate_gactx_tile(&t.to_bases(), &q.to_bases(), &w, &g, 2000, &fpga());
        let loose = simulate_gactx_tile(&t.to_bases(), &q.to_bases(), &w, &g, 1 << 40, &fpga());
        assert!(
            tight.bram_words < loose.bram_words,
            "tight {} vs loose {}",
            tight.bram_words,
            loose.bram_words
        );
        assert_eq!(tight.max_score, loose.max_score);
        assert!(tight.compute_cycles <= loose.compute_cycles);
    }

    #[test]
    fn traceback_cycles_bounded_by_path_length() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(4);
        let model = MarkovModel::genome_like();
        let t = model.generate(300, &mut rng);
        let sim = simulate_gactx_tile(&t.to_bases(), &t.to_bases(), &w, &g, 9430, &fpga());
        // Perfect self-alignment: the walk is exactly 300 diagonal steps.
        assert_eq!(sim.traceback_cycles, 300);
        assert_eq!(sim.cigar.to_string(), "300=");
    }

    #[test]
    fn default_tile_fits_the_hardware_bram() {
        // A paper-default tile (1920, Y=9430) must fit in the 1 MB per-
        // array traceback SRAM of Table IV.
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(5);
        let model = MarkovModel::genome_like();
        let t = model.generate(1920, &mut rng);
        let q = mutated(&t, 0.15, &mut rng);
        let sim = simulate_gactx_tile(&t.to_bases(), &q.to_bases(), &w, &g, 9430, &fpga());
        assert!(
            sim.bram_bytes <= 64 * crate::gactx_array::TRACEBACK_BYTES_PER_PE,
            "{} bytes",
            sim.bram_bytes
        );
        assert!(sim.max_score > 50_000);
    }

    #[test]
    fn empty_inputs() {
        let (w, g) = dw();
        let sim = simulate_gactx_tile(&[], &[], &w, &g, 9430, &fpga());
        assert_eq!(sim.max_score, 0);
        assert!(sim.cigar.is_empty());
    }
}
