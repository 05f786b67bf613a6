//! The X-drop tile kernel underlying GACT-X (§III-D, §IV).
//!
//! One tile aligns a target window (columns) against a query window (rows)
//! with Needleman-Wunsch scoring (negative scores allowed), affine gaps,
//! and X-drop row clipping: row `i` starts at the first column where the
//! previous row's score exceeded `Vmax − Y` and stops once every further
//! cell falls below it.
//!
//! The kernel keeps per-cell state **only for traceback**, which is what
//! gives GACT-X its constant, small traceback memory:
//!
//! * scores live in two rolling rows (V and F of the previous and the
//!   current row) indexed by absolute column, with a `NEG_INF` sentinel
//!   one past either end of the stored range, so the inner loop reads its
//!   up/diagonal inputs without a range check; E is carried along the row
//!   in two registers and never stored;
//! * direction pointers are 4 bits per cell, as in the hardware: the row
//!   being computed writes one byte per cell into a reused row buffer, and
//!   once the row is finalised its live cells are packed two to a byte
//!   into one flat arena, row after row with no padding, under a per-row
//!   `(jstart, offset, len)` table — the only thing traceback reads;
//! * GACT-X traces back from the tile's maximum, so the arena keeps the
//!   rows traceback can read plus one gap's worth of rows: a row more
//!   than `⌊(y − open) / extend⌋` rows past the best so far is packed
//!   only while the arena stays inside the bytes it has already reached.
//!   Past that, rows are computed unpacked from a one-row checkpoint of
//!   the last packed row, and a later row that raises `Vmax` restores the
//!   checkpoint and replays them, packing them. Edge traceback (GACT)
//!   packs every row;
//! * all of it lives in a reusable [`TileScratch`], so a run of tiles
//!   allocates nothing per row and nothing per tile except the CIGAR it
//!   returns.
//!
//! Scores are `i32`; [`scores_fit_i32`] is the bound that makes that exact.
//!
//! Setting `y` very large disables clipping, which turns the kernel into a
//! full-tile Needleman-Wunsch — exactly the GACT tile (Darwin, ASPLOS
//! 2018) that Fig. 10 compares against.

// No allocation per DP row is this kernel's memory claim;
// `crates/align/tests/alloc_bound.rs` counts them.

use crate::cigar::{AlignOp, Cigar};
use genome::{Base, GapPenalties, SubstitutionMatrix};

/// Score of a cell no path reaches (pruned, or outside the stored range).
const NEG_INF: i32 = i32::MIN / 4;
/// A score is *live* (a real path score) iff it is above this.
const DEAD: i32 = NEG_INF / 2;
/// Every real score of an accepted tile lies within `±SCORE_LIMIT`.
const SCORE_LIMIT: i64 = 1 << 27;
/// `y` is clamped here: no two real scores are further apart.
const Y_MAX: i64 = 2 * SCORE_LIMIT;

/// Direction-pointer encoding: 2 bits of direction plus the two affine
/// "came from gap-open" flags, as in the hardware's 4-bit pointers. Every
/// pointer fits a nibble, which is what the arena stores.
mod ptr {
    pub const STOP: u8 = 0;
    pub const DIAG: u8 = 1;
    pub const LEFT: u8 = 2; // from E: gap in query, consumes target
    pub const UP: u8 = 3; // from F: gap in target, consumes query
    pub const DIR_MASK: u8 = 0b0011;
    pub const E_OPEN: u8 = 0b0100;
    pub const F_OPEN: u8 = 0b1000;
}

/// Where one packed row's pointers live in the arena.
#[derive(Debug, Clone, Copy)]
struct RowSpan {
    /// Arena index of the row's first pointer, in nibbles: nibble `k` is
    /// the low (even `k`) or high (odd `k`) half of arena byte `k / 2`.
    offset: usize,
    /// First stored column (0 is the boundary column), and the stored
    /// columns, the last of which is always live. Both are at most
    /// `n + 1`, which `scores_fit_i32` holds under 2^27.
    jstart: u32,
    len: u32,
}

impl RowSpan {
    /// The arena nibble of column `j`'s pointer, if the row stored it.
    fn nibble(&self, j: usize) -> Option<usize> {
        let k = j.checked_sub(self.jstart as usize)?;
        (k < self.len as usize).then(|| self.offset + k)
    }
}

/// V and F (gap-in-target, moving top→down) of one cell of a rolling row;
/// E is consumed within its own row and never stored.
#[derive(Debug, Clone, Copy)]
struct Scores {
    v: i32,
    f: i32,
}

/// What a pruned cell, or a sentinel, holds.
const PRUNED: Scores = Scores {
    v: NEG_INF,
    f: NEG_INF,
};

/// Reusable buffers of the tile kernel; one instance serves any sequence
/// of tiles of any sizes.
///
/// Nothing in here carries meaning from one tile to the next: every row
/// writes the sentinels its successor will read, so stale contents of a
/// larger earlier tile are never observed.
#[derive(Debug, Default)]
pub struct TileScratch {
    /// The last stored row; column `j` is at index `j + 1`.
    prev: Vec<Scores>,
    /// The row being computed, same indexing.
    cur: Vec<Scores>,
    /// Pointers of the row being computed, one byte each, from the row's
    /// first column on. Only the cells a row wrote are ever packed.
    row_buf: Vec<u8>,
    /// Pointer arena: the stored cells of every row back to back, two to
    /// a byte, low nibble first; an odd total leaves the last high nibble
    /// zero. Its capacity is the largest window's cell count, reserved
    /// in one piece.
    ptrs: Vec<u8>,
    /// One entry per packed row.
    rows: Vec<RowSpan>,
    /// V and F of the last packed row over its stored range and the
    /// sentinels around it, while the rows after it go unpacked.
    checkpoint: Vec<Scores>,
    /// The longest the arena has been: the bytes whose pages are resident
    /// already, which rows past the best may fill for free.
    high_water: usize,
    /// Rows computed a second time, from a checkpoint.
    #[cfg(test)]
    replayed_rows: u64,
}

impl TileScratch {
    /// Empty scratch; buffers grow to the largest tile they meet.
    pub fn new() -> TileScratch {
        TileScratch::default()
    }

    /// Bytes of pointers the last tile packed: at most its
    /// `traceback_bytes`, and all of them when it packed every row.
    pub(crate) fn packed_bytes(&self) -> usize {
        self.ptrs.len()
    }
}

/// The last packed row and the DP state after it: what the rows that
/// follow it unpacked are replayed from.
#[derive(Debug, Clone, Copy, Default)]
struct Checkpoint {
    row: usize,
    /// First stored column, end of the stored range and first live column.
    jstart: usize,
    jend: usize,
    first_live: usize,
    /// `Vmax` and the live threshold after the row.
    vmax: i32,
    live_from: i32,
}

/// Result of one X-drop tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileResult {
    /// Maximum cell score in the tile (`Vmax`). May be ≤ 0 when the window
    /// contains no alignment; extension terminates on such tiles.
    pub max_score: i64,
    /// Target bases consumed by the path from the tile origin to the
    /// maximum cell.
    pub max_target: usize,
    /// Query bases consumed by the path to the maximum cell.
    pub max_query: usize,
    /// Alignment path from the tile origin `(0,0)` to the maximum cell.
    pub cigar: Cigar,
    /// DP cells computed.
    pub cells: u64,
    /// Bytes of traceback memory the tile's band needs at 4 bits/cell —
    /// the hardware BRAM requirement this tile would impose, and the most
    /// the software's pointer arena holds for it.
    pub traceback_bytes: u64,
    /// Number of rows that had at least one live cell.
    pub rows: usize,
    /// Widest stored row (columns).
    pub max_row_width: usize,
}

/// Whether the kernel's 32-bit arithmetic is exact for a
/// `target_len × query_len` window under this scoring.
///
/// A path to any cell has at most `target_len + query_len` steps, each
/// worth at most the largest `|substitution score|` or `open + extend`,
/// so every real score stays within `±2^27`: far from the `i32::MIN / 4`
/// sentinel, and never more than the clamp of `y` apart. Gap penalties
/// must be non-negative magnitudes (the X-drop window only ever moves
/// right because the boundary column's score falls row by row).
pub fn scores_fit_i32(
    target_len: usize,
    query_len: usize,
    w: &SubstitutionMatrix,
    gaps: &GapPenalties,
) -> bool {
    if gaps.open < 0 || gaps.extend < 0 {
        return false;
    }
    let mut step = (gaps.open as i64 + gaps.extend as i64).max(1);
    for code in 0..5u8 {
        for other in 0..5u8 {
            let s = w.score(Base::from_code(code), Base::from_code(other)) as i64;
            step = step.max(s.abs());
        }
    }
    let steps = (target_len as u64)
        .saturating_add(query_len as u64)
        .saturating_add(2);
    i64::try_from(steps).is_ok_and(|steps| steps.saturating_mul(step) <= SCORE_LIMIT)
}

/// Runs one GACT-X tile: global-start X-drop DP from the tile origin.
///
/// `target` are the columns, `query` the rows. The path is anchored at
/// `(0, 0)` — leading gaps are charged and retained, which is what lets
/// neighbouring tiles be stitched (§III-D).
///
/// # Panics
///
/// Panics unless [`scores_fit_i32`] holds for the window.
///
/// # Examples
///
/// ```
/// use genome::{GapPenalties, Sequence, SubstitutionMatrix};
///
/// let t: Sequence = "ACGTACGTACGT".parse()?;
/// let q: Sequence = "ACGTACGGACGT".parse()?;
/// let r = align::xdrop::xdrop_tile(
///     &t.to_bases(),
///     &q.to_bases(),
///     &SubstitutionMatrix::darwin_wga(),
///     &GapPenalties::darwin_wga(),
///     9_430,
/// );
/// assert!(r.max_score > 900);
/// assert_eq!(r.max_target, 12);
/// assert_eq!(r.max_query, 12);
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
pub fn xdrop_tile(
    target: &[Base],
    query: &[Base],
    w: &SubstitutionMatrix,
    gaps: &GapPenalties,
    y: i64,
) -> TileResult {
    xdrop_tile_with_mode(target, query, w, gaps, y, false)
}

/// Like [`xdrop_tile`], with a choice of traceback origin.
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
    xdrop_tile_scratch(
        target,
        query,
        w,
        gaps,
        y,
        edge_traceback,
        &mut TileScratch::new(),
    )
}

/// [`xdrop_tile_with_mode`] over caller-owned buffers: the form the tiling
/// driver uses, one scratch for every tile of an extension.
///
/// `y` is clamped to `0..=2^28`; no two real scores are further apart, so
/// anything larger already disables the drop test.
pub fn xdrop_tile_scratch(
    target: &[Base],
    query: &[Base],
    w: &SubstitutionMatrix,
    gaps: &GapPenalties,
    y: i64,
    edge_traceback: bool,
    scratch: &mut TileScratch,
) -> TileResult {
    let (n, m) = (target.len(), query.len());
    assert!(
        scores_fit_i32(n, m, w, gaps),
        "a {n}x{m} tile under this scoring does not fit the kernel's 32-bit scores"
    );
    let y = y.clamp(0, Y_MAX) as i32;

    let TileScratch {
        prev,
        cur,
        row_buf,
        ptrs,
        rows,
        checkpoint,
        high_water,
        #[cfg(test)]
        replayed_rows,
    } = scratch;
    // Columns −1..=n+1 at indices 0..=n+2; whatever an earlier tile left
    // behind is never read (see the sentinel writes below).
    for row in [&mut *prev, &mut *cur] {
        if row.len() < n + 3 {
            row.resize(n + 3, PRUNED);
        }
    }
    // A row packs exactly the cells it wrote, so no fill between rows.
    if row_buf.len() < n + 1 {
        row_buf.resize(n + 1, ptr::STOP);
    }
    ptrs.clear();
    rows.clear();
    // The arena is reserved once, at what the window could store with no
    // cell pruned: growing it by doubling would leave each outgrown copy
    // behind in the heap, under the extension's high-water, while pages
    // of a reservation cost nothing until a row is packed into them. If
    // the reservation fails, `pack_row` grows the arena as it goes.
    let _ = ptrs.try_reserve_exact(((n + 1) * (m + 1)).div_ceil(2));
    // So is the row table, at one entry a row: grown by doubling, it too
    // left its outgrown copies behind.
    let _ = rows.try_reserve_exact(m + 1);

    // Row 0: origin plus leading deletions while above the drop threshold.
    prev[1] = Scores { v: 0, f: NEG_INF };
    row_buf[0] = ptr::STOP;
    let mut jend = 1usize;
    while jend <= n {
        let score = -(gaps.open + gaps.extend * jend as i32);
        if score < -y {
            break;
        }
        prev[jend + 1] = Scores {
            v: score,
            f: NEG_INF,
        };
        row_buf[jend] = ptr::LEFT | if jend == 1 { ptr::E_OPEN } else { 0 };
        jend += 1;
    }
    prev[0] = PRUNED;
    prev[jend + 1] = PRUNED;
    pack_row(ptrs, 0, &row_buf[..jend]);
    rows.push(RowSpan {
        offset: 0,
        jstart: 0,
        len: jend as u32,
    });
    let mut cells = jend as u64;
    // Cells packed so far: the arena's length in nibbles.
    let mut stored_cells = jend;
    // Cells of the band, packed or not: what the hardware stores.
    let mut band_cells = jend;
    let mut max_row_width = jend;
    // Best cell of the final column over the rows that reach it (edge
    // traceback), earliest row first on ties.
    let mut best_in_last_col = (jend == n + 1).then(|| (0usize, prev[n + 1].v));
    // The stored range of the previous row ends at `prev_jend`
    // (exclusive); its first live column is `prev_first_live`.
    let mut prev_jstart = 0usize;
    let mut prev_jend = jend;
    let mut prev_first_live = 0usize;

    // GACT-X's traceback reads no row below its maximum's, so a row more
    // than `reach` rows below the best so far is packed only while the
    // arena stays under its high-water. `packing` is false from the
    // first row that is not until a row raises `Vmax`; then the rows
    // after the checkpoint are replayed. Rows 1 to `counted` have been
    // counted into the result; each had a live cell, so with row 0 they
    // are the tile's `rows`.
    let reach = if edge_traceback {
        usize::MAX
    } else {
        gap_reach(gaps, y)
    };
    let mut packing = true;
    let mut saved = Checkpoint::default();
    let mut counted = 0usize;

    let (mut max_i, mut max_j) = (0usize, 0usize);
    let mut row = RowState {
        open_extend: gaps.open + gaps.extend,
        extend: gaps.extend,
        y,
        vmax: 0,
        live_from: (-y).max(DEAD + 1),
        max_j: None,
        left_v: NEG_INF,
        left_e: NEG_INF,
    };

    let mut i = 1;
    while i <= m {
        // Column 0 (left boundary: a pure leading insertion) is live while
        // its score is above the drop threshold. That score falls and Vmax
        // rises row by row, so once dead it stays dead and `jstart` never
        // decreases: a row reads its predecessor from `jstart − 1` on,
        // which is inside that row's stored range or its left sentinel.
        let col0 = -(gaps.open + gaps.extend * i as i32);
        let jstart = if col0 >= row.vmax - y {
            0
        } else {
            prev_first_live.max(1)
        };
        if jstart > n {
            break;
        }
        // The five substitution scores this row's query base can meet.
        let mut scores = [0i32; 8];
        for code in 0..5u8 {
            scores[code as usize] = w.score(Base::from_code(code), query[i - 1]);
        }
        let row_ptrs = &mut row_buf[..n + 1 - jstart];

        (row.left_v, row.left_e, row.max_j) = (NEG_INF, NEG_INF, None);
        let mut j = jstart;
        if j == 0 {
            cur[1] = Scores { v: col0, f: col0 };
            row_ptrs[0] = ptr::UP | if i == 1 { ptr::F_OPEN } else { 0 };
            row.left_v = col0;
            j = 1;
        }
        // Columns the previous row feeds: up and diagonal inputs come from
        // its stored range or the sentinels around it, no range check.
        let fed_end = prev_jend.min(n);
        if j <= fed_end {
            row.fed_cells(
                j,
                &prev[j..fed_end + 2],
                &target[j - 1..fed_end],
                &scores,
                &mut cur[j + 1..fed_end + 2],
                &mut row_ptrs[j - jstart..fed_end + 1 - jstart],
            );
            j = fed_end + 1;
        }
        // Beyond the previous row's reach only the in-row E chain can keep
        // cells alive; once it dies, stop.
        while j <= n && row.left_v > DEAD {
            (cur[j + 1], row_ptrs[j - jstart]) = row.cell(j, NEG_INF, PRUNED, 0);
            j += 1;
        }
        let first_pass = i > counted;
        if first_pass {
            cells += (j - jstart) as u64;
        }
        #[cfg(test)]
        if !first_pass {
            *replayed_rows += 1;
        }
        if let Some(j) = row.max_j {
            (max_i, max_j) = (i, j);
        }

        // Pruned cells were stored as NEG_INF, so "live" ⇔ V survived.
        let computed = &cur[jstart + 1..j + 1];
        let Some(first_live) = computed.iter().position(|c| c.v > DEAD) else {
            break;
        };
        let last_live = computed
            .iter()
            .rposition(|c| c.v > DEAD)
            .unwrap_or(first_live);
        // Keep the row up to its last live cell (nothing below can use the
        // dead tail) and fence it for the next row's reads. The right
        // fence is already there: a row only stops on a pruned cell or at
        // column n, beyond which the next row never looks.
        jend = jstart + last_live + 1;
        let len = jend - jstart;
        cur[jstart] = PRUNED;
        debug_assert!(jend == n + 1 || cur[jend + 1].v == NEG_INF);
        if first_pass {
            counted = i;
            band_cells += len;
            max_row_width = max_row_width.max(len);
            if jend == n + 1 && best_in_last_col.is_none_or(|(_, s)| cur[n + 1].v > s) {
                best_in_last_col = Some((i, cur[n + 1].v));
            }
        }
        // A replayed row lies above the row that raised `Vmax` (`max_i`
        // is not rolled back), so it is always packed. The first row left
        // unpacked did not raise `Vmax` either, so the checkpoint's `Vmax`
        // and threshold are the ones every unpacked row is computed under.
        if packing
            && (i.saturating_sub(max_i) <= reach || (stored_cells + len).div_ceil(2) <= *high_water)
        {
            pack_row(ptrs, stored_cells, &row_ptrs[..len]);
            rows.push(RowSpan {
                offset: stored_cells,
                jstart: jstart as u32,
                len: len as u32,
            });
            stored_cells += len;
        } else if packing {
            packing = false;
            checkpoint.clear();
            checkpoint.extend_from_slice(&prev[prev_jstart..prev_jend + 2]);
            saved = Checkpoint {
                row: i - 1,
                jstart: prev_jstart,
                jend: prev_jend,
                first_live: prev_first_live,
                vmax: row.vmax,
                live_from: row.live_from,
            };
        } else if row.max_j.is_some() {
            // Traceback will read this row and every unpacked one before
            // it: replay them from the checkpoint, packing them.
            packing = true;
            prev[saved.jstart..saved.jend + 2].copy_from_slice(checkpoint);
            (prev_jstart, prev_jend, prev_first_live) =
                (saved.jstart, saved.jend, saved.first_live);
            (row.vmax, row.live_from) = (saved.vmax, saved.live_from);
            i = saved.row + 1;
            continue;
        }
        std::mem::swap(prev, cur);
        prev_jstart = jstart;
        prev_jend = jend;
        prev_first_live = jstart + first_live;
        i += 1;
    }
    *high_water = (*high_water).max(ptrs.len());
    let mut vmax = row.vmax;

    // Traceback: from the global maximum (GACT-X), or from the best cell
    // on the tile's far edge (GACT — the hardware tracebacks from the
    // last row/column so tiles always make edge-to-edge progress, which
    // is exactly what lets a wandering path terminate an alignment early,
    // §VI-D): the last stored row left to right, then the final column
    // top to bottom, first best wins.
    if edge_traceback {
        let mut best: Option<(usize, usize, i32)> = None;
        if let Some(last) = rows.last() {
            let first = last.jstart as usize;
            for j in first..first + last.len as usize {
                let score = prev[j + 1].v;
                if score > DEAD && best.is_none_or(|(_, _, s)| score > s) {
                    best = Some((rows.len() - 1, j, score));
                }
            }
        }
        if let Some((i, score)) = best_in_last_col {
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((i, n, score));
            }
        }
        if let Some((i, j, score)) = best {
            (max_i, max_j, vmax) = (i, j, score);
        }
    }
    let cigar = traceback(rows, ptrs, max_i, max_j, target, query);

    TileResult {
        max_score: vmax as i64,
        max_target: max_j,
        max_query: max_i,
        cigar,
        cells,
        traceback_bytes: (band_cells as u64).div_ceil(2),
        rows: counted + 1,
        max_row_width,
    }
}

/// Rows past the best so far that are packed whatever the arena's
/// high-water: the most rows one gap can span before the drop test ends
/// it, `⌊(y − open) / extend⌋` (300 under Table II). A later maximum
/// further down than that is rare, and is replayed from the checkpoint.
fn gap_reach(gaps: &GapPenalties, y: i32) -> usize {
    if gaps.extend > 0 {
        ((y - gaps.open).max(0) / gaps.extend) as usize
    } else {
        usize::MAX
    }
}

/// What the DP carries from cell to cell along a row, and the constants
/// the recurrences need.
struct RowState {
    /// Charge of a gap's first base (`open + extend`) and of each further.
    open_extend: i32,
    extend: i32,
    y: i32,
    /// Running `Vmax`, and the lowest score that survives it:
    /// `max(Vmax − Y, DEAD + 1)`, the whole drop test in one compare.
    vmax: i32,
    live_from: i32,
    /// Column that last raised `Vmax` in this row.
    max_j: Option<usize>,
    /// V and E of the cell to the left as stored (`NEG_INF` when pruned).
    left_v: i32,
    left_e: i32,
}

impl RowState {
    /// Computes the cell in column `j` from its diagonal, upper and
    /// (carried) left neighbours, applies the drop test, and returns the
    /// scores and pointer to store — `PRUNED`/`STOP` for a pruned cell.
    /// V dominates E and F, so a pruned V implies dead gap chains too.
    #[inline(always)]
    fn cell(&mut self, j: usize, diag: i32, up: Scores, score: i32) -> (Scores, u8) {
        // E: from the left neighbour in this row.
        let e_open = self.left_v - self.open_extend;
        let e_ext = self.left_e - self.extend;
        let (e, e_flag) = if e_open >= e_ext {
            (e_open, ptr::E_OPEN)
        } else {
            (e_ext, 0)
        };
        // F: from above.
        let f_open = up.v - self.open_extend;
        let f_ext = up.f - self.extend;
        let (f, f_flag) = if f_open >= f_ext {
            (f_open, ptr::F_OPEN)
        } else {
            (f_ext, 0)
        };
        // Diagonal.
        let sub = if diag > DEAD { diag + score } else { NEG_INF };

        let (mut v, mut dir) = (sub, ptr::DIAG);
        if e > v {
            (v, dir) = (e, ptr::LEFT);
        }
        if f > v {
            (v, dir) = (f, ptr::UP);
        }
        if v > self.vmax {
            (self.vmax, self.max_j) = (v, Some(j));
            self.live_from = (v - self.y).max(DEAD + 1);
        }
        if v >= self.live_from {
            (self.left_v, self.left_e) = (v, e);
            (Scores { v, f }, dir | e_flag | f_flag)
        } else {
            (self.left_v, self.left_e) = (NEG_INF, NEG_INF);
            (PRUNED, ptr::STOP)
        }
    }

    /// The run of cells from column `j0` on that the previous row feeds:
    /// `prev` holds that row from column `j0 − 1`, one entry more than the
    /// cells to compute, `bases` the target bases under them. Out of line
    /// so the loop gets the registers to itself.
    #[inline(never)]
    fn fed_cells(
        &mut self,
        j0: usize,
        prev: &[Scores],
        bases: &[Base],
        scores: &[i32; 8],
        out: &mut [Scores],
        out_ptrs: &mut [u8],
    ) {
        let len = bases.len();
        let (prev, out, out_ptrs) = (&prev[..len + 1], &mut out[..len], &mut out_ptrs[..len]);
        for k in 0..len {
            let score = scores[(bases[k].code() & 7) as usize];
            (out[k], out_ptrs[k]) = self.cell(j0 + k, prev[k].v, prev[k + 1], score);
        }
    }
}

/// Appends one finalised row's pointers to the arena, which holds `stored`
/// nibbles so far. An odd `stored` left the last byte's high nibble open:
/// the row's first pointer goes there, the rest two to a byte, and an odd
/// tail leaves its own high nibble zero for the next row. Out of line so
/// the pair loop is compiled where its chunk size is known: inlined into
/// the kernel, the compiler may leave `extend` out of line with the
/// chunk size as an argument, a scalar loop with a division.
#[inline(never)]
fn pack_row(arena: &mut Vec<u8>, stored: usize, mut row: &[u8]) {
    debug_assert_eq!(arena.len(), stored.div_ceil(2));
    if stored % 2 == 1 {
        if let (Some(open), Some((first, rest))) = (arena.last_mut(), row.split_first()) {
            *open |= first << 4;
            row = rest;
        }
    }
    let pairs = row.chunks_exact(2);
    let tail = pairs.remainder().first().copied();
    // Taken as one `u16` the pair packs with a shift and an or, which the
    // compiler turns into vector shifts and packs; written byte by byte
    // (`pair[0] | pair[1] << 4`) the loop stays scalar, and that shows in
    // the kernel's cells/s.
    arena.extend(pairs.map(|pair| {
        let both = u16::from_le_bytes([pair[0], pair[1]]);
        (both | both >> 4) as u8
    }));
    arena.extend(tail);
}

/// Walks the pointer arena back from `(max_i, max_j)` to the tile origin.
fn traceback(
    rows: &[RowSpan],
    ptrs: &[u8],
    max_i: usize,
    max_j: usize,
    target: &[Base],
    query: &[Base],
) -> Cigar {
    let ptr_at = |i: usize, j: usize| -> u8 {
        rows.get(i)
            .and_then(|row| row.nibble(j))
            .and_then(|nibble| {
                ptrs.get(nibble / 2)
                    .map(|byte| byte >> (4 * (nibble % 2)) & 0xF)
            })
            .unwrap_or(ptr::STOP)
    };
    // Built back to front, reversed at the end.
    let mut cigar = Cigar::new();
    let (mut i, mut j) = (max_i, max_j);
    let mut state = 0u8; // 0 = V, 2 = E, 3 = F
    while i > 0 || j > 0 {
        let p = ptr_at(i, j);
        match state {
            0 => match p & ptr::DIR_MASK {
                ptr::DIAG if i > 0 && j > 0 => {
                    let op = if target[j - 1] == query[i - 1] && target[j - 1] != Base::N {
                        AlignOp::Match
                    } else {
                        AlignOp::Subst
                    };
                    cigar.push(op, 1);
                    i -= 1;
                    j -= 1;
                }
                ptr::LEFT if j > 0 => state = 2,
                ptr::UP if i > 0 => state = 3,
                // STOP, or a pointer off the matrix edge: only a corrupt
                // pointer table gets here before the origin — stop the
                // traceback rather than crash.
                _ => break,
            },
            2 if j > 0 => {
                cigar.push(AlignOp::Delete, 1);
                j -= 1;
                if p & ptr::E_OPEN != 0 {
                    state = 0;
                }
            }
            3 if i > 0 => {
                cigar.push(AlignOp::Insert, 1);
                i -= 1;
                if p & ptr::F_OPEN != 0 {
                    state = 0;
                }
            }
            // `state` is only ever 0, 2 or 3, and a gap state never sits
            // on the boundary it would cross; treat anything else as a
            // finished traceback.
            _ => break,
        }
    }
    cigar.reverse();
    cigar
}

// The ragged-row kernel `tests/xdrop_differential.rs` holds this one to.
#[cfg(test)]
#[path = "../tests/ragged_oracle/mod.rs"]
mod ragged_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nw::needleman_wunsch;
    use genome::Sequence;

    fn dw() -> (SubstitutionMatrix, GapPenalties) {
        (SubstitutionMatrix::darwin_wga(), GapPenalties::darwin_wga())
    }

    fn tile(t: &str, q: &str, y: i64) -> TileResult {
        let t: Sequence = t.parse().unwrap();
        let q: Sequence = q.parse().unwrap();
        xdrop_tile(&t.to_bases(), &q.to_bases(), &dw().0, &dw().1, y)
    }

    #[test]
    fn perfect_match_reaches_corner() {
        let r = tile("ACGTACGTACGT", "ACGTACGTACGT", 9430);
        assert_eq!(r.max_target, 12);
        assert_eq!(r.max_query, 12);
        assert_eq!(r.cigar.to_string(), "12=");
        assert_eq!(r.max_score, 3 * (91 + 100 + 100 + 91));
    }

    #[test]
    fn path_is_valid_and_scores_consistently() {
        let (w, g) = dw();
        let t: Sequence = "ACGGTCAGTCGATTGCAGTCAGCTAGCTAGGATCGGA".parse().unwrap();
        let q: Sequence = "ACGGTCAGTTTCGATTGCAGTCTGCTAGCTAGGGA".parse().unwrap();
        let r = xdrop_tile(&t.to_bases(), &q.to_bases(), &w, &g, 9430);
        let a = crate::alignment::Alignment::new(0, 0, r.cigar.clone(), r.max_score);
        a.validate(&t, &q).unwrap();
        assert_eq!(r.max_score, a.rescore(&t, &q, &w, &g));
    }

    #[test]
    fn huge_y_matches_full_needleman_wunsch_to_max() {
        // With an effectively infinite Y the kernel computes the full
        // matrix; its Vmax must dominate the (m,n)-constrained NW score.
        let (w, g) = dw();
        let t: Sequence = "ACGGTCAGTCGATTGCAGTC".parse().unwrap();
        let q: Sequence = "ACGGTCAGTCGATTGCAGTC".parse().unwrap();
        let full = needleman_wunsch(&t.to_bases(), &q.to_bases(), &w, &g);
        let r = xdrop_tile(&t.to_bases(), &q.to_bases(), &w, &g, 1 << 40);
        assert_eq!(r.max_score, full.score);
        assert_eq!(r.cells, 21 * 21); // the full (n+1)×(m+1) matrix
    }

    #[test]
    fn xdrop_prunes_cells() {
        let t = "ACGT".repeat(64);
        let q = "ACGT".repeat(64);
        let tight = tile(&t, &q, 1000);
        let loose = tile(&t, &q, 1 << 40);
        assert!(
            tight.cells < loose.cells / 2,
            "{} vs {}",
            tight.cells,
            loose.cells
        );
        // Same optimal path found regardless.
        assert_eq!(tight.max_score, loose.max_score);
        assert_eq!(tight.cigar, loose.cigar);
    }

    #[test]
    fn crosses_moderate_gap_when_y_allows() {
        // 20-base deletion in the query: gap cost 430 + 20*30 = 1030 < Y.
        let arm = "ACGGTCAGTCGATTGCAGTC";
        let t = format!("{arm}{}{arm}", "ACGTACGTACGTACGTACGT");
        let q = format!("{arm}{arm}");
        let r = tile(&t, &q, 9430);
        assert_eq!(r.cigar.count(AlignOp::Delete), 20);
        assert_eq!(r.max_target, 60);
        assert_eq!(r.max_query, 40);
    }

    #[test]
    fn tight_y_cannot_cross_long_gap() {
        // 60-base gap costs 430 + 60·30 = 2230; the 60-base second arm
        // gains ~5700, so crossing pays off — but only when Y ≥ the drop.
        let arm = "ACGGTCAGTCGATTGCAGTC".repeat(3);
        let gap = "C".repeat(60);
        let t = format!("{arm}{gap}{arm}");
        let q = format!("{arm}{arm}");
        let crossing = tile(&t, &q, 9430);
        let stuck = tile(&t, &q, 1000);
        assert_eq!(crossing.max_target, 180);
        assert_eq!(crossing.max_query, 120);
        // With a tight Y the drop test kills the extension inside the gap;
        // a handful of spurious C matches may stretch it slightly past the
        // arm but never across.
        assert!(stuck.max_target < arm.len() + 30, "{}", stuck.max_target);
        assert!(crossing.max_score > stuck.max_score);
    }

    #[test]
    fn leading_gap_is_kept() {
        // Query = target minus its first 3 bases: optimal path opens with a
        // deletion at the tile origin, which must survive in the CIGAR.
        let r = tile("ACGTGCAGTCAGTCAA", "TGCAGTCAGTCAA", 9430);
        assert_eq!(r.cigar.runs().next(), Some((AlignOp::Delete, 3)));
    }

    #[test]
    fn empty_inputs() {
        let r = tile("", "", 9430);
        assert_eq!(r.max_score, 0);
        assert!(r.cigar.is_empty());
        let r = tile("ACGT", "", 9430);
        assert_eq!(r.max_score, 0);
        assert_eq!(r.max_target, 0);
    }

    #[test]
    fn traceback_memory_smaller_with_tight_y() {
        let t = "ACGT".repeat(128);
        let q = "ACGT".repeat(128);
        let tight = tile(&t, &q, 2000);
        let loose = tile(&t, &q, 1 << 40);
        assert!(tight.traceback_bytes < loose.traceback_bytes / 2);
    }

    #[test]
    fn half_a_byte_per_stored_cell_and_nothing_else_grows() {
        // The arena is the only per-cell state and it is exactly the
        // 4-bit figure reported: rows back to back in nibbles, no padding,
        // an odd total's last high nibble zero. The row buffer and the
        // rolling rows are O(tile width) whatever the number of rows.
        let (w, g) = dw();
        let t: Sequence = "ACGT".repeat(100).parse().unwrap();
        let mut scratch = TileScratch::new();
        let (mut odd_len, mut even_len, mut odd_jstart, mut odd_total) =
            (false, false, false, false);
        for (q_len, y) in [(400, 9430), (399, 700), (123, 1 << 40)] {
            let r = xdrop_tile_scratch(
                &t.to_bases(),
                &t.to_bases()[..q_len],
                &w,
                &g,
                y,
                false,
                &mut scratch,
            );
            let mut stored = 0;
            for row in &scratch.rows {
                assert_eq!(row.offset, stored);
                stored += row.len as usize;
                odd_len |= row.len % 2 == 1;
                even_len |= row.len % 2 == 0;
                odd_jstart |= row.jstart % 2 == 1;
            }
            assert_eq!(scratch.ptrs.len() as u64, r.traceback_bytes);
            assert_eq!(scratch.ptrs.len(), stored.div_ceil(2));
            if stored % 2 == 1 {
                assert_eq!(scratch.ptrs[stored / 2] >> 4, ptr::STOP);
                odd_total = true;
            }
            assert_eq!(scratch.rows.len(), r.rows);
            assert_eq!(scratch.row_buf.len(), t.len() + 1);
            assert_eq!(scratch.prev.len(), t.len() + 3);
        }
        // Every shape that decides which half of a byte a pointer takes.
        assert!(odd_len && even_len && odd_jstart && odd_total);
    }

    #[test]
    fn a_maximum_past_an_unpacked_stretch_replays_it_from_the_checkpoint() {
        // Identity, then 100 rows that lose score along the diagonal (a
        // transition at every base but each fifth, an A match: −9 net),
        // then identity again. At y = 1000 rows more than 19 past the
        // best go unpacked in a cold scratch until a later row raises
        // Vmax and they are replayed; traceback then walks through them.
        let (w, g) = dw();
        let arm = "ACGGTCAGTCGATTGCAGTCTTAGCCATGA";
        let lossy_t = concat!(
            "GGATACACAAGTCTAACACATGCTACACTACCAAACCCCAGGCCACCTGA",
            "AGTCACGAGAGAGAAGGGTAGCTTACAGAAGTATAGTATAACCAACTGGA",
        );
        let lossy_q = concat!(
            "AAGCATGTGAACTCAGTGTACATCATGTCATTGGATTTTAAATTATTCAA",
            "GACTATAGAAAGAGAAAACAATCCATGAGAACGCAACGCAGTTGATCAAA",
        );
        let t: Sequence = format!("{arm}{lossy_t}{arm}").parse().unwrap();
        let q: Sequence = format!("{arm}{lossy_q}{arm}").parse().unwrap();
        let (t, q) = (t.to_bases(), q.to_bases());
        let y = 1000;
        assert_eq!(gap_reach(&g, y as i32), 19);
        for edge in [false, true] {
            let scratch = &mut TileScratch::new();
            let r = xdrop_tile_scratch(&t, &q, &w, &g, y, edge, scratch);
            let oracle = super::ragged_oracle::xdrop_tile_with_mode(&t, &q, &w, &g, y, edge);
            assert_eq!(r, oracle, "edge {edge}");
            assert_eq!((r.max_target, r.max_query), (t.len(), q.len()));
            let replayed = scratch.replayed_rows;
            if edge {
                assert_eq!(replayed, 0, "edge traceback packs every row");
            } else {
                assert!(replayed > 60, "{replayed} rows replayed");
            }
            // Every row is packed in the end, so the arena is the band.
            assert_eq!(scratch.ptrs.len() as u64, r.traceback_bytes);
            // Warm, the arena's high-water covers the stretch: no replay.
            assert_eq!(xdrop_tile_scratch(&t, &q, &w, &g, y, edge, scratch), oracle);
            assert_eq!(scratch.replayed_rows, replayed);
        }
    }

    #[test]
    fn oversized_tile_is_rejected_not_wrapped() {
        let (w, g) = dw();
        assert!(scores_fit_i32(8192, 8192, &w, &g));
        assert!(!scores_fit_i32(1 << 17, 1 << 17, &w, &g));
        assert!(!scores_fit_i32(usize::MAX, usize::MAX, &w, &g));
        let negative = GapPenalties {
            open: -1,
            extend: 30,
        };
        assert!(!scores_fit_i32(10, 10, &w, &negative));
    }
}
