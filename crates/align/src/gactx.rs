//! GACT-X — tiled extension with constant traceback memory (§III-D).
//!
//! The extension stage walks outward from a filter anchor in overlapping
//! tiles of size `Te` (default 1920 bp). Each tile runs the X-drop kernel
//! ([`crate::xdrop::xdrop_tile`]); the path committed from a tile stops at
//! the overlap boundary (`O`, default 128 bp) so neighbouring tiles can be
//! stitched without boundary artefacts. Extension in a direction ends when
//! a tile's `Vmax` is not positive.
//!
//! With `y` set effectively infinite the same driver becomes plain GACT
//! ([`TilingParams::gact_with_memory`]), which Fig. 10 compares against.

use crate::alignment::Alignment;
use crate::cigar::Cigar;
use crate::xdrop::{scores_fit_i32, xdrop_tile_scratch, TileScratch};
use genome::{Base, GapPenalties, Sequence, SubstitutionMatrix};
use std::cell::RefCell;

/// Tiling parameters for GACT-X / GACT extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilingParams {
    /// Tile size `Te` in bases (target and query window length).
    pub tile_size: usize,
    /// Overlap `O` between consecutive tiles, in bases.
    pub overlap: usize,
    /// X-drop threshold `Y`; cells more than `y` below `Vmax` are pruned.
    pub y: i64,
    /// Trace each tile from its far edge (GACT hardware behaviour) rather
    /// than from the global maximum (GACT-X). See
    /// [`crate::xdrop::xdrop_tile_with_mode`].
    pub edge_traceback: bool,
}

impl TilingParams {
    /// The paper's default GACT-X configuration (Table IIb):
    /// `Te = 1920`, `O = 128`, `Y = 9430`.
    pub fn gactx_default() -> TilingParams {
        TilingParams {
            tile_size: 1920,
            overlap: 128,
            y: 9430,
            edge_traceback: false,
        }
    }

    /// A GACT configuration fitting the given traceback memory: tile size
    /// `⌊√(2·bytes)⌋` (4 bits per cell over the full tile), no X-drop.
    ///
    /// The Fig. 10 sweep uses 512 KB, 1 MB and 2 MB, giving tile sizes
    /// 1024, 1448 and 2048.
    pub fn gact_with_memory(bytes: u64) -> TilingParams {
        let tile = (2.0 * bytes as f64).sqrt().floor() as usize;
        TilingParams {
            tile_size: tile.max(64),
            overlap: 128.min(tile / 4),
            y: i64::MAX / 8, // effectively disables the drop test
            edge_traceback: true,
        }
    }

    /// Validates parameter sanity, once per extension: the tile geometry,
    /// and that a full tile under this scoring stays inside the kernel's
    /// 32-bit scores (see [`scores_fit_i32`]), so no tile has to fall back
    /// to a wider type.
    ///
    /// # Panics
    ///
    /// Panics if `overlap >= tile_size`, `tile_size == 0`, or the scores
    /// of a `tile_size × tile_size` window could leave the `i32` range
    /// the kernel keeps clear.
    pub fn validate(&self, w: &SubstitutionMatrix, gaps: &GapPenalties) {
        assert!(self.tile_size > 0, "tile size must be positive");
        assert!(
            self.overlap < self.tile_size,
            "overlap {} must be smaller than tile size {}",
            self.overlap,
            self.tile_size
        );
        assert!(
            scores_fit_i32(self.tile_size, self.tile_size, w, gaps),
            "tile size {} is too large for 32-bit scores under this scoring",
            self.tile_size
        );
    }
}

impl Default for TilingParams {
    fn default() -> Self {
        TilingParams::gactx_default()
    }
}

/// Workload counters accumulated over an extension.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtensionStats {
    /// Tiles processed.
    pub tiles: u64,
    /// DP cells computed across all tiles.
    pub cells: u64,
    /// DP rows processed across all tiles.
    pub rows: u64,
    /// Peak per-tile traceback memory (bytes at 4 bits/cell): the largest
    /// band a tile's pointers cover, what the hardware stores.
    pub peak_traceback_bytes: u64,
    /// The longest the kernel's pointer arena was over the extension's
    /// tiles: the rows traceback could read plus one gap's worth, at most
    /// `peak_traceback_bytes`.
    pub peak_arena_bytes: u64,
}

impl ExtensionStats {
    /// Accumulates another stats record.
    pub fn merge(&mut self, other: &ExtensionStats) {
        self.tiles += other.tiles;
        self.cells += other.cells;
        self.rows += other.rows;
        self.peak_traceback_bytes = self.peak_traceback_bytes.max(other.peak_traceback_bytes);
        self.peak_arena_bytes = self.peak_arena_bytes.max(other.peak_arena_bytes);
    }
}

/// A one-directional extension result (path leading away from the anchor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extension {
    /// Path in forward orientation starting at the anchor.
    pub cigar: Cigar,
    /// Target bases consumed.
    pub target_advance: usize,
    /// Query bases consumed.
    pub query_advance: usize,
    /// Workload counters.
    pub stats: ExtensionStats,
}

/// Which way an extension walks from the anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Increasing coordinates, from the anchor inclusive.
    Right,
    /// Decreasing coordinates, from the anchor exclusive.
    Left,
}

/// Buffers every tile of an extension reuses, in both directions: the
/// kernel's scratch and the current tile's two windows, unpacked a byte a
/// base — never more than one tile of either sequence.
#[derive(Debug, Default)]
struct ExtendScratch {
    tile: TileScratch,
    target: Vec<Base>,
    query: Vec<Base>,
}

thread_local! {
    /// One scratch per worker thread, shared by all the extensions the
    /// thread runs: after its largest tile a worker allocates nothing but
    /// the CIGARs it returns, and keeps resident the most pointers any
    /// tile packed (at most that tile's `traceback_bytes`) plus a few
    /// rows. Its contents never carry meaning from one tile to the next,
    /// so results do not depend on what ran before.
    static SCRATCH: RefCell<ExtendScratch> = RefCell::new(ExtendScratch::default());
}

/// The next tile's window of `seq`, unpacked into `out`: up to `len`
/// bases starting `done` bases away from the anchor `at`, in walking
/// order. Walking left that is the reverse of the bases before the anchor.
fn window<'a>(
    seq: &Sequence,
    at: usize,
    done: usize,
    len: usize,
    direction: Direction,
    out: &'a mut Vec<Base>,
) -> &'a [Base] {
    match direction {
        Direction::Right => seq.window(at + done..at + done + len, false, out),
        Direction::Left => seq.window(at - done - len..at - done, true, out),
    }
}

/// One anchor's extension problem: what the tiles of both directions share.
struct Anchored<'a> {
    target: &'a Sequence,
    query: &'a Sequence,
    /// The anchor, clamped to the sequence ends.
    t0: usize,
    q0: usize,
    w: &'a SubstitutionMatrix,
    gaps: &'a GapPenalties,
    params: &'a TilingParams,
}

impl<'a> Anchored<'a> {
    /// Validates `params` under the scoring, once for the whole extension.
    fn new(
        target: &'a Sequence,
        query: &'a Sequence,
        t0: usize,
        q0: usize,
        w: &'a SubstitutionMatrix,
        gaps: &'a GapPenalties,
        params: &'a TilingParams,
    ) -> Anchored<'a> {
        params.validate(w, gaps);
        Anchored {
            target,
            query,
            t0: t0.min(target.len()),
            q0: q0.min(query.len()),
            w,
            gaps,
            params,
        }
    }

    /// Walks tile by tile away from the anchor; the returned CIGAR is in
    /// walking order (a left extension's is still back to front).
    fn walk(&self, direction: Direction, scratch: &mut ExtendScratch) -> Extension {
        let params = self.params;
        // Bases available in the walking direction, and consumed so far.
        let (avail_t, avail_q) = match direction {
            Direction::Right => (self.target.len() - self.t0, self.query.len() - self.q0),
            Direction::Left => (self.t0, self.q0),
        };
        let (mut t, mut q) = (0usize, 0usize);
        let mut cigar = Cigar::new();
        let mut stats = ExtensionStats::default();

        loop {
            let win_t = params.tile_size.min(avail_t - t);
            let win_q = params.tile_size.min(avail_q - q);
            if win_t == 0 || win_q == 0 {
                break;
            }
            let tile = xdrop_tile_scratch(
                window(
                    self.target,
                    self.t0,
                    t,
                    win_t,
                    direction,
                    &mut scratch.target,
                ),
                window(self.query, self.q0, q, win_q, direction, &mut scratch.query),
                self.w,
                self.gaps,
                params.y,
                params.edge_traceback,
                &mut scratch.tile,
            );
            stats.tiles += 1;
            stats.cells += tile.cells;
            stats.rows += tile.rows as u64;
            stats.peak_traceback_bytes = stats.peak_traceback_bytes.max(tile.traceback_bytes);
            stats.peak_arena_bytes = stats
                .peak_arena_bytes
                .max(scratch.tile.packed_bytes() as u64);
            if tile.max_score <= 0 {
                break;
            }

            // A dimension constrains the commit point only when more
            // sequence exists beyond this window; the overlap region next
            // to such an edge is discarded and recomputed by the
            // following tile.
            let lim_t = if win_t < avail_t - t {
                win_t.saturating_sub(params.overlap)
            } else {
                usize::MAX
            };
            let lim_q = if win_q < avail_q - q {
                win_q.saturating_sub(params.overlap)
            } else {
                usize::MAX
            };
            let at_edge = tile.max_target >= lim_t || tile.max_query >= lim_q;
            if !at_edge {
                // The maximum sits strictly inside the tile: the X-drop
                // wall (or both sequence ends) finished the alignment here.
                cigar.extend_cigar(&tile.cigar);
                t += tile.max_target;
                q += tile.max_query;
                break;
            }
            let (dt, dq) = commit_until_boundary(&mut cigar, &tile.cigar, lim_t, lim_q);
            if dt == 0 && dq == 0 {
                break;
            }
            t += dt;
            q += dq;
        }

        Extension {
            target_advance: t,
            query_advance: q,
            cigar,
            stats,
        }
    }
}

/// Extends to the left (decreasing coordinates) from `(t0, q0)` exclusive.
///
/// The returned CIGAR is already in forward orientation, covering
/// `[t0 - target_advance, t0)` × `[q0 - query_advance, q0)`. Only one
/// tile window at a time is unpacked, so the cost does not depend on how
/// much sequence lies before the anchor.
pub fn extend_left(
    target: &Sequence,
    query: &Sequence,
    t0: usize,
    q0: usize,
    w: &SubstitutionMatrix,
    gaps: &GapPenalties,
    params: &TilingParams,
) -> Extension {
    let anchored = Anchored::new(target, query, t0, q0, w, gaps, params);
    let mut ext = SCRATCH.with_borrow_mut(|scratch| anchored.walk(Direction::Left, scratch));
    ext.cigar.reverse();
    ext
}

/// Extends an anchor in both directions and assembles the final local
/// alignment, as the Darwin-WGA extension stage does (Fig. 4c).
///
/// Returns `None` when neither direction produced any aligned base.
/// The final `score` is the exact rescore of the stitched path. One
/// scratch serves every tile of both directions (and the thread's later
/// extensions), so beyond the returned alignment the call holds one
/// tile's pointer arena and a few rows, however long the alignment grows.
///
/// # Examples
///
/// ```
/// use align::gactx::{extend_alignment, TilingParams};
/// use genome::{GapPenalties, Sequence, SubstitutionMatrix};
///
/// let t: Sequence = "TTTTACGTACGTACGTTTTT".parse()?;
/// let q: Sequence = "GGGGACGTACGTACGTGGGG".parse()?;
/// let a = extend_alignment(
///     &t, &q, 10, 10,
///     &SubstitutionMatrix::darwin_wga(),
///     &GapPenalties::darwin_wga(),
///     &TilingParams::gactx_default(),
/// ).expect("alignment");
/// assert!(a.alignment.matches() >= 12);
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
pub fn extend_alignment(
    target: &Sequence,
    query: &Sequence,
    anchor_t: usize,
    anchor_q: usize,
    w: &SubstitutionMatrix,
    gaps: &GapPenalties,
    params: &TilingParams,
) -> Option<ExtendedAlignment> {
    let anchored = Anchored::new(target, query, anchor_t, anchor_q, w, gaps, params);
    let (right, left) = SCRATCH.with_borrow_mut(|scratch| {
        (
            anchored.walk(Direction::Right, scratch),
            anchored.walk(Direction::Left, scratch),
        )
    });

    let mut cigar = left.cigar;
    cigar.reverse();
    cigar.extend_cigar(&right.cigar);
    if cigar.aligned_pairs() == 0 {
        return None;
    }
    let t_start = anchored.t0 - left.target_advance;
    let q_start = anchored.q0 - left.query_advance;
    let mut alignment = Alignment::new(t_start, q_start, cigar, 0);
    alignment.score = alignment.rescore(target, query, w, gaps);
    let mut stats = left.stats;
    stats.merge(&right.stats);
    Some(ExtendedAlignment { alignment, stats })
}

/// An assembled two-sided extension with its workload counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtendedAlignment {
    /// The stitched alignment.
    pub alignment: Alignment,
    /// Workload across both directions.
    pub stats: ExtensionStats,
}

/// Appends `tile` to `out` up to the first point where the target advance
/// reaches `lim_t` or the query advance reaches `lim_q`; returns the
/// `(dt, dq)` advance of what was appended.
fn commit_until_boundary(
    out: &mut Cigar,
    tile: &Cigar,
    lim_t: usize,
    lim_q: usize,
) -> (usize, usize) {
    let (mut dt, mut dq) = (0usize, 0usize);
    for (op, count) in tile.runs() {
        if dt >= lim_t || dq >= lim_q {
            break;
        }
        let (on_t, on_q) = (op.consumes_target(), op.consumes_query());
        let room_t = if on_t { lim_t - dt } else { usize::MAX };
        let room_q = if on_q { lim_q - dq } else { usize::MAX };
        let take = (count as usize).min(room_t).min(room_q);
        dt += if on_t { take } else { 0 };
        dq += if on_q { take } else { 0 };
        out.push(op, take as u32);
    }
    (dt, dq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cigar::AlignOp;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dw() -> (SubstitutionMatrix, GapPenalties) {
        (SubstitutionMatrix::darwin_wga(), GapPenalties::darwin_wga())
    }

    fn small_params() -> TilingParams {
        TilingParams {
            tile_size: 64,
            overlap: 16,
            y: 9430,
            edge_traceback: false,
        }
    }

    /// The right walk from the origin, as `extend_alignment` runs it.
    fn walk_right(t: &Sequence, q: &Sequence, params: &TilingParams) -> Extension {
        let (w, g) = dw();
        let anchored = Anchored::new(t, q, 0, 0, &w, &g, params);
        SCRATCH.with_borrow_mut(|scratch| anchored.walk(Direction::Right, scratch))
    }

    fn random_seq(len: usize, rng: &mut StdRng) -> Sequence {
        (0..len)
            .map(|_| Base::from_code(rng.gen_range(0..4u8)))
            .collect()
    }

    #[test]
    fn extends_identical_sequences_end_to_end() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(1);
        let s = random_seq(500, &mut rng);
        let a = extend_alignment(&s, &s, 250, 250, &w, &g, &small_params()).unwrap();
        assert_eq!(a.alignment.target_start, 0);
        assert_eq!(a.alignment.target_end, 500);
        assert_eq!(a.alignment.matches(), 500);
        a.alignment.validate(&s, &s).unwrap();
        assert!(a.stats.tiles >= 10); // both directions, several tiles
    }

    #[test]
    fn stitches_across_tile_boundaries_with_indels() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(2);
        let base = random_seq(600, &mut rng);
        // Query: same sequence with a 12-base deletion at position 300.
        let mut q = base.subsequence(0..300);
        q.extend(base.iter().skip(312).take(600 - 312));
        let a = extend_alignment(&base, &q, 100, 100, &w, &g, &small_params()).unwrap();
        a.alignment.validate(&base, &q).unwrap();
        assert_eq!(a.alignment.cigar.count(AlignOp::Delete), 12);
        assert!(a.alignment.matches() > 550);
    }

    #[test]
    fn stops_when_similarity_ends() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(3);
        let shared = random_seq(200, &mut rng);
        let mut t = shared.clone();
        t.extend(random_seq(200, &mut rng).iter());
        let mut q = shared.clone();
        q.extend(random_seq(200, &mut rng).iter());
        let a = extend_alignment(&t, &q, 100, 100, &w, &g, &small_params()).unwrap();
        // Should cover the shared 200 bases and not much more.
        assert!(a.alignment.target_start < 5);
        assert!(
            a.alignment.target_end < 260,
            "end {}",
            a.alignment.target_end
        );
    }

    #[test]
    fn left_extension_matches_right_on_mirrored_input() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(4);
        let s = random_seq(300, &mut rng);
        let right = walk_right(&s, &s, &small_params());
        let left = extend_left(&s, &s, 300, 300, &w, &g, &small_params());
        assert_eq!(right.target_advance, left.target_advance);
        assert_eq!(right.cigar.matches(), left.cigar.matches());
    }

    #[test]
    fn score_is_exact_rescore() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(5);
        let t = random_seq(400, &mut rng);
        // ~10% mutated copy
        let q: Sequence = t
            .iter()
            .map(|b| {
                if rng.gen::<f64>() < 0.1 {
                    Base::from_code(rng.gen_range(0..4u8))
                } else {
                    b
                }
            })
            .collect();
        if let Some(a) = extend_alignment(&t, &q, 200, 200, &w, &g, &small_params()) {
            assert_eq!(a.alignment.score, a.alignment.rescore(&t, &q, &w, &g));
            a.alignment.validate(&t, &q).unwrap();
        }
    }

    #[test]
    fn anchor_at_sequence_edges() {
        let (w, g) = dw();
        let s: Sequence = "ACGTACGTACGT".parse().unwrap();
        let a = extend_alignment(&s, &s, 0, 0, &w, &g, &small_params()).unwrap();
        assert_eq!(a.alignment.matches(), 12);
        let b = extend_alignment(&s, &s, 12, 12, &w, &g, &small_params());
        // Anchor at the very end: only left extension contributes.
        assert_eq!(b.unwrap().alignment.matches(), 12);
    }

    #[test]
    fn gact_memory_to_tile_size() {
        assert_eq!(TilingParams::gact_with_memory(512 * 1024).tile_size, 1024);
        assert_eq!(
            TilingParams::gact_with_memory(2 * 1024 * 1024).tile_size,
            2048
        );
        let t1m = TilingParams::gact_with_memory(1024 * 1024).tile_size;
        assert!((1440..=1456).contains(&t1m));
    }

    #[test]
    fn gact_aligns_clean_sequences() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(1);
        let s = random_seq(800, &mut rng);
        // 128 KB → tile 512; plenty for a clean 800 bp alignment.
        let gact = TilingParams::gact_with_memory(128 * 1024);
        let a = extend_alignment(&s, &s, 400, 400, &w, &g, &gact).unwrap();
        assert_eq!(a.alignment.matches(), 800);
    }

    #[test]
    fn gact_costs_more_cells_than_gactx_for_same_alignment() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(2);
        let s = random_seq(1200, &mut rng);
        let gact_params = TilingParams::gact_with_memory(128 * 1024);
        let gact = extend_alignment(&s, &s, 600, 600, &w, &g, &gact_params).unwrap();
        // Same 512-base tile, but a Y tight enough that the band (~70
        // columns) is far narrower than the tile. On identical sequences
        // the optimal path is the main diagonal, so quality is unchanged.
        let gactx_params = TilingParams {
            tile_size: 512,
            overlap: 128,
            y: 1500,
            edge_traceback: false,
        };
        let gactx = extend_alignment(&s, &s, 600, 600, &w, &g, &gactx_params).unwrap();
        assert_eq!(gact.alignment.matches(), gactx.alignment.matches());
        assert!(
            gact.stats.cells > 2 * gactx.stats.cells,
            "GACT {} cells vs GACT-X {}",
            gact.stats.cells,
            gactx.stats.cells
        );
        assert!(
            gact.stats.peak_traceback_bytes > 2 * gactx.stats.peak_traceback_bytes,
            "GACT {} bytes vs GACT-X {}",
            gact.stats.peak_traceback_bytes,
            gactx.stats.peak_traceback_bytes
        );
    }

    #[test]
    fn gact_with_small_memory_cannot_cross_long_gaps() {
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(3);
        let left_arm = random_seq(400, &mut rng);
        let right_arm = random_seq(400, &mut rng);
        let gap = random_seq(250, &mut rng);
        // Target has a 250-base insertion between the arms.
        let mut target = left_arm.clone();
        target.extend(gap.iter());
        target.extend(right_arm.iter());
        let mut query = left_arm.clone();
        query.extend(right_arm.iter());

        // GACT with a tiny memory budget (tile 181 < gap) stalls inside the
        // gap; GACT-X with an equally small *memory* crosses it because its
        // banded tile is larger.
        let gact_params = TilingParams::gact_with_memory(16 * 1024);
        let small = extend_alignment(&target, &query, 100, 100, &w, &g, &gact_params).unwrap();
        let gactx_params = TilingParams {
            tile_size: 720, // what ~16 KB buys at a ~45-col band
            overlap: 128,
            y: 9430,
            edge_traceback: false,
        };
        let gactx = extend_alignment(&target, &query, 100, 100, &w, &g, &gactx_params).unwrap();
        assert!(
            gactx.alignment.matches() > small.alignment.matches(),
            "GACT-X {} vs GACT {}",
            gactx.alignment.matches(),
            small.alignment.matches()
        );
        assert!(gactx.alignment.matches() >= 700);
    }

    #[test]
    fn returns_none_on_garbage_anchor() {
        let (w, g) = dw();
        let t: Sequence = "AAAAAAAAAA".parse().unwrap();
        let q: Sequence = "CCCCCCCCCC".parse().unwrap();
        let gactx = TilingParams::gactx_default();
        assert!(extend_alignment(&t, &q, 5, 5, &w, &g, &gactx).is_none());
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn rejects_overlap_larger_than_tile() {
        let p = TilingParams {
            tile_size: 64,
            overlap: 64,
            y: 100,
            edge_traceback: false,
        };
        p.validate(&dw().0, &dw().1);
    }

    #[test]
    #[should_panic(expected = "32-bit scores")]
    fn rejects_tile_too_large_for_i32_scores() {
        let p = TilingParams {
            tile_size: 1 << 20,
            overlap: 128,
            y: 9430,
            edge_traceback: false,
        };
        p.validate(&dw().0, &dw().1);
    }

    #[test]
    fn commit_until_boundary_splits_runs() {
        let mut c = Cigar::new();
        c.push(AlignOp::Match, 10);
        c.push(AlignOp::Delete, 5);
        c.push(AlignOp::Match, 10);
        let mut prefix = Cigar::new();
        assert_eq!(commit_until_boundary(&mut prefix, &c, 12, 12), (12, 10));
        assert_eq!(prefix.to_string(), "10=2D");
        // A limit already reached stops the walk even before an op that
        // would not move along that axis.
        let mut c = Cigar::new();
        c.push(AlignOp::Match, 4);
        c.push(AlignOp::Insert, 3);
        let mut prefix = Cigar::new();
        assert_eq!(
            commit_until_boundary(&mut prefix, &c, 4, usize::MAX),
            (4, 4)
        );
        assert_eq!(prefix.to_string(), "4=");
        // Appending merges with what the extension already holds.
        assert_eq!(
            commit_until_boundary(&mut prefix, &c, usize::MAX, 6),
            (4, 6)
        );
        assert_eq!(prefix.to_string(), "8=2I");
    }

    /// A ~10 % mutated copy with indels, so paths wander between tiles.
    fn noisy_copy(s: &Sequence, rng: &mut StdRng) -> Sequence {
        let mut out = Sequence::new();
        for b in s.iter() {
            match rng.gen_range(0..40) {
                0 => {}
                1 => {
                    out.push(Base::from_code(rng.gen_range(0..4u8)));
                    out.push(b);
                }
                2..=4 => out.push(Base::from_code(rng.gen_range(0..4u8))),
                _ => out.push(b),
            }
        }
        out
    }

    #[test]
    fn left_extension_equals_right_extension_of_the_reversed_prefixes() {
        // The definition the windowed walk must reproduce: reverse
        // everything before the anchor, extend right, reverse the path.
        let (w, g) = dw();
        let mut tiles = 0;
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(40 + seed);
            let t = random_seq(700, &mut rng);
            let q = noisy_copy(&t, &mut rng);
            let (t0, q0) = (t.len(), q.len());
            let rev_t: Sequence = t.iter().rev().collect();
            let rev_q: Sequence = q.iter().rev().collect();
            let mut expected = walk_right(&rev_t, &rev_q, &small_params());
            expected.cigar.reverse();
            let left = extend_left(&t, &q, t0, q0, &w, &g, &small_params());
            assert_eq!(left, expected, "seed {seed}");
            tiles += left.stats.tiles;
        }
        assert!(
            tiles > 40,
            "walks too short to cross windows: {tiles} tiles"
        );
    }

    #[test]
    fn left_extension_unpacks_one_tile_window_at_a_time() {
        // Deep inside a long sequence the walk unpacks a tile, not the
        // prefix: the window buffers end no larger than a tile.
        let (w, g) = dw();
        let mut rng = StdRng::seed_from_u64(6);
        let t = random_seq(20_000, &mut rng);
        let scratch = &mut ExtendScratch::default();
        let (t0, p) = (t.len() - 100, small_params());
        let left = Anchored::new(&t, &t, t0, t0, &w, &g, &p).walk(Direction::Left, scratch);
        assert!(left.stats.tiles > 100 && left.target_advance == t0);
        assert!(scratch.target.capacity() <= 2 * p.tile_size);
        assert!(scratch.query.capacity() <= 2 * p.tile_size);
    }
}
