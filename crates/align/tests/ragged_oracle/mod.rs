//! The reference oracle for the X-drop tile kernel: the ragged-row kernel
//! `crates/align/src/xdrop.rs` held until the rolling-row kernel replaced
//! it, moved here unchanged (only the `use` lines and the shared
//! [`TileResult`] import differ). It keeps V, F and a pointer for every
//! computed cell in freshly allocated per-row `Vec`s and scores in `i64`
//! — slow and large, and for exactly that reason easy to believe. The
//! kernel under test must reproduce its `TileResult` field for field.

use align::cigar::{AlignOp, Cigar};
use align::xdrop::TileResult;
use genome::{Base, GapPenalties, SubstitutionMatrix};

const NEG_INF: i64 = i64::MIN / 4;

/// Direction-pointer encoding: 2 bits of direction plus the two affine
/// "came from gap-open" flags, as in the hardware's 4-bit pointers.
mod ptr {
    pub const STOP: u8 = 0;
    pub const DIAG: u8 = 1;
    pub const LEFT: u8 = 2; // from E: gap in query, consumes target
    pub const UP: u8 = 3; // from F: gap in target, consumes query
    pub const DIR_MASK: u8 = 0b0011;
    pub const E_OPEN: u8 = 0b0100;
    pub const F_OPEN: u8 = 0b1000;
}

/// One stored row of the ragged DP matrix.
#[derive(Debug, Clone)]
struct Row {
    /// First stored column (inclusive, 0-based including the boundary
    /// column 0).
    jstart: usize,
    /// V scores for stored columns.
    v: Vec<i64>,
    /// F scores (gap-in-target, moving top→down) for stored columns; E is
    /// consumed within its own row and never stored across rows.
    f: Vec<i64>,
    /// 4-bit pointers for stored columns.
    ptrs: Vec<u8>,
}

impl Row {
    fn jend(&self) -> usize {
        self.jstart + self.v.len()
    }

    fn v_at(&self, j: usize) -> i64 {
        if j >= self.jstart && j < self.jend() {
            self.v[j - self.jstart]
        } else {
            NEG_INF
        }
    }

    fn f_at(&self, j: usize) -> i64 {
        if j >= self.jstart && j < self.jend() {
            self.f[j - self.jstart]
        } else {
            NEG_INF
        }
    }

    fn ptr_at(&self, j: usize) -> u8 {
        if j >= self.jstart && j < self.jend() {
            self.ptrs[j - self.jstart]
        } else {
            ptr::STOP
        }
    }
}

/// One tile of the ragged kernel, with a choice of traceback origin.
///
/// With `edge_traceback` the path is traced from the best cell on the
/// tile's far edge (last computed row, or final column) instead of the
/// global maximum — the GACT tile behaviour (every tile makes
/// edge-to-edge progress). The returned `max_score`/`max_target`/
/// `max_query` then describe the chosen edge cell.
pub fn xdrop_tile_with_mode(
    target: &[Base],
    query: &[Base],
    w: &SubstitutionMatrix,
    gaps: &GapPenalties,
    y: i64,
    edge_traceback: bool,
) -> TileResult {
    let (n, m) = (target.len(), query.len());
    let (open, extend) = (gaps.open as i64, gaps.extend as i64);

    let mut rows: Vec<Row> = Vec::with_capacity(m + 1);
    let mut vmax = 0i64;
    let (mut max_i, mut max_j) = (0usize, 0usize);
    let mut cells = 0u64;

    // Row 0: origin plus leading deletions while above the drop threshold.
    {
        let mut v = vec![0i64];
        let mut f = vec![NEG_INF];
        let mut ptrs = vec![ptr::STOP];
        let mut j = 1usize;
        while j <= n {
            let score = -(open + extend * j as i64);
            if score < vmax - y {
                break;
            }
            v.push(score);
            f.push(NEG_INF);
            ptrs.push(ptr::LEFT | if j == 1 { ptr::E_OPEN } else { 0 });
            j += 1;
        }
        cells += v.len() as u64;
        rows.push(Row {
            jstart: 0,
            v,
            f,
            ptrs,
        });
    }

    for i in 1..=m {
        let prev = &rows[i - 1];
        // First live column of the previous row (pruned cells were stored
        // as NEG_INF, so "live" ⇔ score survived the drop test).
        let prev_first_live = (prev.jstart..prev.jend()).find(|&j| prev.v_at(j) > NEG_INF / 2);
        // Column 0 (left boundary: a pure leading insertion) is live while
        // its score is above the drop threshold.
        let col0 = -(open + extend * i as i64);
        let col0_live = col0 >= vmax - y;
        let jstart = match (col0_live, prev_first_live) {
            (true, _) => 0,
            (false, Some(first)) => first.max(1),
            (false, None) => break, // nothing can feed this row
        };
        if jstart > n {
            break;
        }

        let mut v: Vec<i64> = Vec::new();
        let mut e: Vec<i64> = Vec::new();
        let mut f: Vec<i64> = Vec::new();
        let mut ptrs: Vec<u8> = Vec::new();
        let row_jstart = jstart;
        let prev_jend = prev.jend();
        let mut any_live = false;

        let mut j = jstart;
        while j <= n {
            let (val, e_val, f_val, p);
            if j == 0 {
                val = col0;
                e_val = NEG_INF;
                f_val = col0;
                p = ptr::UP | if i == 1 { ptr::F_OPEN } else { 0 };
            } else {
                // E: from the left neighbour in this row.
                let (left_v, left_e) = if j > row_jstart {
                    let k = j - 1 - row_jstart;
                    (v[k], e[k])
                } else {
                    (NEG_INF, NEG_INF)
                };
                let e_from_open = left_v.saturating_sub(open + extend);
                let e_from_ext = left_e.saturating_sub(extend);
                let (e_best, e_open_flag) = if e_from_open >= e_from_ext {
                    (e_from_open, true)
                } else {
                    (e_from_ext, false)
                };
                // F: from above.
                let f_from_open = prev.v_at(j).saturating_sub(open + extend);
                let f_from_ext = prev.f_at(j).saturating_sub(extend);
                let (f_best, f_open_flag) = if f_from_open >= f_from_ext {
                    (f_from_open, true)
                } else {
                    (f_from_ext, false)
                };
                // Diagonal.
                let diag = prev.v_at(j - 1);
                let sub = if diag > NEG_INF / 2 {
                    diag + w.score(target[j - 1], query[i - 1]) as i64
                } else {
                    NEG_INF
                };

                let mut best = sub;
                let mut dir = ptr::DIAG;
                if e_best > best {
                    best = e_best;
                    dir = ptr::LEFT;
                }
                if f_best > best {
                    best = f_best;
                    dir = ptr::UP;
                }
                val = best;
                e_val = e_best;
                f_val = f_best;
                p = dir
                    | if e_open_flag { ptr::E_OPEN } else { 0 }
                    | if f_open_flag { ptr::F_OPEN } else { 0 };
            }

            cells += 1;
            if val > vmax {
                vmax = val;
                max_i = i;
                max_j = j;
            }
            // V dominates E and F, so a pruned V implies dead gap chains
            // too; storing NEG_INF everywhere keeps the invariant simple.
            let live = val >= vmax - y && val > NEG_INF / 2;
            if live {
                any_live = true;
                v.push(val);
                e.push(e_val);
                f.push(f_val);
                ptrs.push(p);
            } else {
                v.push(NEG_INF);
                e.push(NEG_INF);
                f.push(NEG_INF);
                ptrs.push(ptr::STOP);
            }

            // Beyond the previous row's reach (no up/diag inputs), only the
            // in-row E chain can keep cells alive; once it dies, stop.
            let next_has_prev_input = j < prev_jend;
            j += 1;
            if !next_has_prev_input && !live {
                break;
            }
        }

        if !any_live {
            break;
        }
        // Trim trailing dead cells (nothing below can use them).
        while v.len() > 1 && matches!(v.last(), Some(&x) if x <= NEG_INF / 2) {
            v.pop();
            f.pop();
            ptrs.pop();
        }
        rows.push(Row {
            jstart: row_jstart,
            v,
            f,
            ptrs,
        });
    }

    // Traceback: from the global maximum (GACT-X), or from the best cell
    // on the tile's far edge (GACT — the hardware tracebacks from the
    // last row/column so tiles always make edge-to-edge progress, which
    // is exactly what lets a wandering path terminate an alignment early,
    // §VI-D).
    if edge_traceback {
        if let Some((ei, ej, escore)) = best_edge_cell(&rows, n) {
            max_i = ei;
            max_j = ej;
            vmax = escore;
        }
    }
    let cigar = traceback(&rows, max_i, max_j, target, query);
    let stored_cells: u64 = rows.iter().map(|r| r.v.len() as u64).sum();
    let max_row_width = rows.iter().map(|r| r.v.len()).max().unwrap_or(0);

    TileResult {
        max_score: vmax,
        max_target: max_j,
        max_query: max_i,
        cigar,
        cells,
        traceback_bytes: stored_cells.div_ceil(2),
        rows: rows.len(),
        max_row_width,
    }
}

/// The best live cell on the far edge of the computed region: the last
/// computed row, plus every row's cell in the final column `n`.
fn best_edge_cell(rows: &[Row], n: usize) -> Option<(usize, usize, i64)> {
    let mut best: Option<(usize, usize, i64)> = None;
    let mut consider = |i: usize, j: usize, score: i64| {
        if score > NEG_INF / 2 && best.is_none_or(|(_, _, s)| score > s) {
            best = Some((i, j, score));
        }
    };
    if let Some(last) = rows.last() {
        let i = rows.len() - 1;
        for j in last.jstart..last.jend() {
            consider(i, j, last.v_at(j));
        }
    }
    for (i, row) in rows.iter().enumerate() {
        if row.jend() == n + 1 {
            consider(i, n, row.v_at(n));
        }
    }
    best
}

fn traceback(rows: &[Row], max_i: usize, max_j: usize, target: &[Base], query: &[Base]) -> Cigar {
    let mut ops_rev: Vec<AlignOp> = Vec::new();
    let (mut i, mut j) = (max_i, max_j);
    let mut state = 0u8; // 0 = V, 2 = E, 3 = F
    while i > 0 || j > 0 {
        let p = rows[i].ptr_at(j);
        match state {
            0 => match p & ptr::DIR_MASK {
                ptr::STOP => break,
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
                // DIR_MASK is two bits; STOP/DIAG/LEFT/UP cover all four
                // values, so any other pattern means a corrupt pointer
                // table — stop the traceback rather than crash.
                _ => break,
            },
            2 => {
                ops_rev.push(AlignOp::Delete);
                let was_open = p & ptr::E_OPEN != 0;
                j -= 1;
                if was_open {
                    state = 0;
                }
            }
            3 => {
                ops_rev.push(AlignOp::Insert);
                let was_open = p & ptr::F_OPEN != 0;
                i -= 1;
                if was_open {
                    state = 0;
                }
            }
            // `state` is only ever assigned 0, 2 or 3 above; treat any
            // other value as a finished traceback.
            _ => break,
        }
    }
    let mut cigar = Cigar::new();
    for op in ops_rev.into_iter().rev() {
        cigar.push(op, 1);
    }
    cigar
}
