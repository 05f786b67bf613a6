//! The memory claim, asserted rather than assumed.
//!
//! GACT-X's case is constant, small traceback memory: 4 bits per computed
//! cell of one tile, however long the alignment. The software kernel
//! spends the same half byte per stored cell in a reused arena plus a few
//! rolling rows, and this binary holds it to that with a counting
//! `#[global_allocator]` (std only, its own test binary so no other suite
//! pays for it): peak live heap during an extension is bounded by the
//! largest window the tiling can cut — the arena is reserved once, at
//! half a byte for every cell of that window, so that it never moves —
//! does not follow the alignment's length, and the number of
//! allocations does not follow the number of DP rows or of tiles. The
//! kernel this one replaced kept 17 B per cell in four fresh `Vec`s
//! per row, and its left extension copied the whole prefix of both
//! sequences; both would fail here, as does an arena of one byte per cell.
//!
//! The allocator counts what was *asked for*. Of a reserved arena only
//! the pages rows were packed into are ever resident — at most
//! `traceback_bytes` of them: GACT-X packs the rows traceback can read
//! plus one gap's worth past the best, and `xdrop`'s unit tests pin the
//! arena's length to `traceback_bytes`, 4 bits a stored cell, for a tile
//! that packs every row. EXPERIMENTS.md has the measured savings of the
//! one reservation and of the packing ("Traceback memory: rows past a
//! tile's best").
//!
//! The filter kernels are held to the same rule: a warm scratch filters
//! tile after tile without allocating, a tile window unpacks into a warm
//! buffer without allocating, and the scalar banded kernel allocates per
//! tile, never per row.

use align::banded::banded_smith_waterman;
use align::bsw_fast::{BswBatch, BswScratch};
use align::gactx::{
    extend_alignment, extend_left, ExtendedAlignment, ExtensionStats, TilingParams,
};
use align::xdrop::{xdrop_tile_scratch, TileScratch};
use genome::evolve::{EvolutionParams, SyntheticPair};
use genome::{Base, GapPenalties, Sequence, SubstitutionMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not yet freed (signed: a thread
    /// may free what another allocated).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// High-water mark of `LIVE` since the last [`measure`] began.
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// `alloc`/`realloc` calls since the last [`measure`] began.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Those of them that asked for [`ARENA_SIZED`] bytes or more.
    static ARENA_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Nothing but the pointer arena of a full-size tile is this large: the
/// rolling rows of a 1920-column tile are 15 KiB each, and a CIGAR of
/// this size would hold 65 000 runs.
const ARENA_SIZED: usize = 1024 * KIB;

/// The system allocator with per-thread accounting. Tests run on threads
/// of their own, so concurrent tests do not see each other.
struct Counting;

fn allocated(bytes: usize) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes as isize);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    if bytes >= ARENA_SIZED {
        let _ = ARENA_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

fn freed(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as isize));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds, and returns its result;
// the accounting touches only `Cell`s in const-initialised thread locals,
// which neither allocate nor run destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded; see the impl comment.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded; see the impl comment.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.dealloc(ptr, layout) };
        freed(layout.size());
    }

    // Counted as the block changing size, not as a second block: that is
    // what the system `realloc` does for the large blocks that matter here
    // (it remaps them), and the bound below is on what stays live.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded; see the impl comment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            freed(layout.size());
            allocated(new_size);
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What running `f` cost this thread's heap.
struct Measured<T> {
    value: T,
    /// Peak live bytes above what was live when `f` started.
    peak: usize,
    /// Allocator calls that returned memory.
    allocs: u64,
    /// Those that returned [`ARENA_SIZED`] bytes or more.
    arena_allocs: u64,
}

fn measure<T>(f: impl FnOnce() -> T) -> Measured<T> {
    let base = LIVE.get();
    PEAK.set(base);
    ALLOCS.set(0);
    ARENA_ALLOCS.set(0);
    let value = f();
    Measured {
        value,
        peak: (PEAK.get() - base).max(0) as usize,
        allocs: ALLOCS.get(),
        arena_allocs: ARENA_ALLOCS.get(),
    }
}

const KIB: usize = 1024;

fn scoring() -> (SubstitutionMatrix, GapPenalties) {
    (SubstitutionMatrix::darwin_wga(), GapPenalties::darwin_wga())
}

/// The bound: the nibble arena at its one reservation — half a byte for
/// every cell of the largest window `params` can cut, stored or pruned —
/// plus 256 KiB for rows, row buffer, row table, window buffers and
/// CIGARs. It depends on the tiling alone, not on the sequences.
fn bound(params: &TilingParams) -> usize {
    (params.tile_size + 1).pow(2).div_ceil(2) + 256 * KIB
}

/// An evolved pair at distance 0.30 with no turnover insertions, so one
/// extension from its middle walks the whole pair; measured on a thread
/// of its own, so the extension meets a fresh per-thread scratch.
fn extension_cost(len: usize) -> Measured<ExtendedAlignment> {
    std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(30);
        let mut evolution = EvolutionParams::at_distance(0.30);
        evolution.turnover_per_kb = 0.0;
        let pair = SyntheticPair::generate(len, &evolution, &mut rng);
        let (t, q) = (&pair.target.sequence, &pair.query.sequence);
        let anchors: Vec<(usize, usize)> = (pair.orthologous_runs().into_iter())
            .flat_map(|(t, q, len)| (0..len).map(move |i| (t + i, q + i)))
            .collect();
        let (at, aq) = anchors[anchors.len() / 2];
        let (w, g) = scoring();
        measure(|| {
            extend_alignment(t, q, at, aq, &w, &g, &TilingParams::gactx_default())
                .expect("homologous pair")
        })
    })
    .join()
    .expect("measurement thread")
}

#[test]
fn extension_peak_heap_is_one_window_of_nibbles_and_constant_in_length() {
    let bound = bound(&TilingParams::gactx_default());
    let cost = extension_cost(6_000);
    let (stats, span) = (cost.value.stats, cost.value.alignment.target_span());
    assert!(
        span > 4_000 && stats.tiles >= 4,
        "span {span}, {} tiles",
        stats.tiles
    );
    let stored = 2 * stats.peak_traceback_bytes as usize;
    assert!(stored > 500_000, "largest tile stores only {stored} cells");
    assert!(
        cost.peak <= bound,
        "peak {} B over {bound} B for {stored} stored cells",
        cost.peak
    );
    // The ragged kernel held V (8 B), F (8 B) and a pointer per cell.
    assert!(17 * stored > 2 * bound);
    // One arena for the whole extension, both directions: never regrown,
    // so no outgrown copy is left behind in the heap.
    assert_eq!(cost.arena_allocs, 1);

    // Four times the alignment, the same memory: what is held follows the
    // largest tile, not the path (whose CIGAR is the only thing to grow).
    let long_cost = extension_cost(24_000);
    let (long_stats, long_span) = (
        long_cost.value.stats,
        long_cost.value.alignment.target_span(),
    );
    assert!(long_span > 3 * span, "span {long_span} against {span}");
    assert!(long_stats.rows > 3 * stats.rows);
    assert!(long_cost.peak <= bound + 256 * KIB);
    assert!(
        long_cost.peak <= cost.peak + 256 * KIB,
        "peak grew with length: {} B against {} B",
        long_cost.peak,
        cost.peak
    );
    assert_eq!(long_cost.arena_allocs, 1);

    // Nothing is allocated per DP row: the kernel it replaced made four
    // allocations a row; this one's count follows tiles (a CIGAR each).
    for (name, s, c) in [("short", &stats, &cost), ("long", &long_stats, &long_cost)] {
        assert!(
            c.allocs <= 40 * s.tiles + 40,
            "{name}: {} allocations for {} tiles",
            c.allocs,
            s.tiles
        );
        assert!(
            c.allocs * 8 < s.rows,
            "{name}: {} allocations for {} rows",
            c.allocs,
            s.rows
        );
    }
}

#[test]
fn far_extensions_pack_a_fraction_of_the_band() {
    // At distance 1.3 the X-drop band outlives the alignment by most of
    // a tile, and traceback reads no row past a tile's maximum. From
    // seven anchors on one thread, as a worker runs them: the arena
    // packs at most the band of any tile, a cold one a sixth of it, and
    // over all seven its high-water stays under 70 % of the largest band
    // (63 %, EXPERIMENTS.md "Traceback memory: rows past a tile's best").
    let extensions = std::thread::spawn(|| {
        let mut rng = StdRng::seed_from_u64(13);
        let evolution = EvolutionParams::at_distance(1.30);
        let pair = SyntheticPair::generate(20_000, &evolution, &mut rng);
        let (t, q) = (&pair.target.sequence, &pair.query.sequence);
        let runs = pair.orthologous_runs();
        let (w, g) = scoring();
        let params = TilingParams::gactx_default();
        (1..8)
            .filter_map(|k| {
                let (at, aq, _) = runs[k * runs.len() / 8];
                extend_alignment(t, q, at, aq, &w, &g, &params).map(|ext| ext.stats)
            })
            .collect::<Vec<_>>()
    })
    .join()
    .expect("measurement thread");
    assert_eq!(extensions.len(), 6);
    let mut all = ExtensionStats::default();
    for stats in &extensions {
        assert!(stats.peak_arena_bytes <= stats.peak_traceback_bytes);
        all.merge(stats);
    }
    let (cold, band) = (
        extensions[0].peak_arena_bytes,
        extensions[0].peak_traceback_bytes,
    );
    assert!(6 * cold < band, "cold: {cold} B packed of a {band} B band");
    let (packed, band) = (all.peak_arena_bytes, all.peak_traceback_bytes);
    assert!(band > 600_000, "largest band {band} B");
    assert!(
        10 * packed < 7 * band,
        "{packed} B packed of a {band} B band"
    );
}

#[test]
fn a_warm_scratch_allocates_the_same_for_eight_times_the_rows() {
    let (w, g) = scoring();
    let mut rng = StdRng::seed_from_u64(31);
    let s: Vec<Base> = (0..1600)
        .map(|_| Base::from_code(rng.gen_range(0u8..4)))
        .collect();
    let scratch = &mut TileScratch::new();
    xdrop_tile_scratch(&s, &s, &w, &g, 9430, false, scratch); // warm
    let few = measure(|| xdrop_tile_scratch(&s, &s[..200], &w, &g, 9430, false, scratch));
    let many = measure(|| xdrop_tile_scratch(&s, &s, &w, &g, 9430, false, scratch));
    assert_eq!((few.value.rows, many.value.rows), (201, 1601));
    // One run of matches each: the CIGAR's first push, and nothing else.
    assert_eq!((few.allocs, many.allocs), (1, 1));
    assert!(many.peak <= 64, "{} B live beyond the scratch", many.peak);
}

#[test]
fn the_arena_is_allocated_once_over_tiles_no_larger_than_the_first() {
    let (w, g) = scoring();
    let mut rng = StdRng::seed_from_u64(33);
    let s: Vec<Base> = (0..1600)
        .map(|_| Base::from_code(rng.gen_range(0u8..4)))
        .collect();
    let scratch = &mut TileScratch::new();
    let arena = (s.len() + 1).pow(2).div_ceil(2);
    // Cold: the arena arrives in one piece, at the window's bound, not by
    // doubling towards the fraction of it this diagonal stores.
    let first = measure(|| xdrop_tile_scratch(&s, &s, &w, &g, 9430, false, scratch));
    assert!(4 * (first.value.traceback_bytes as usize) < arena);
    assert_eq!(first.arena_allocs, 1);
    assert!(
        (arena..arena + 128 * KIB).contains(&first.peak),
        "{} B",
        first.peak
    );
    // Then never again, whatever the later tiles store: all of it, with
    // the drop test off, is the most a window can.
    for (cols, rows, y) in [(1600, 200, 9430), (800, 1600, 9430), (1600, 1600, i64::MAX)] {
        let next =
            measure(|| xdrop_tile_scratch(&s[..cols], &s[..rows], &w, &g, y, false, scratch));
        assert_eq!((next.allocs, next.arena_allocs), (1, 0), "{cols}x{rows}");
    }
    // A larger window is the one thing that moves it, once more.
    let wide: Vec<Base> = s.iter().chain(&s).copied().collect();
    let larger = measure(|| xdrop_tile_scratch(&wide, &s, &w, &g, 9430, false, scratch));
    assert_eq!(larger.arena_allocs, 1);
}

#[test]
fn left_extension_deep_in_a_long_sequence_allocates_a_tile_not_the_prefix() {
    // 4 Mbp of unrelated sequence, then 6 kb of homology ending at the
    // anchor. Walking left must cost what the homology's tiles cost; the
    // kernel's old driver first copied and reversed both 4 Mbp prefixes.
    let mut rng = StdRng::seed_from_u64(32);
    let mut random = |len: usize| -> Sequence {
        (0..len)
            .map(|_| Base::from_code(rng.gen_range(0u8..4)))
            .collect()
    };
    let (mut t, mut q, shared) = (random(4_000_000), random(4_000_000), random(6_000));
    t.extend(shared.iter());
    q.extend(shared.iter());
    let (w, g) = scoring();
    let params = TilingParams::gactx_default();
    let cost = measure(|| extend_left(&t, &q, t.len(), q.len(), &w, &g, &params));
    let left = &cost.value;
    assert!(
        (6_000..6_100).contains(&left.target_advance),
        "{}",
        left.target_advance
    );
    assert!(cost.peak <= bound(&params), "peak {} B", cost.peak);
    assert!(
        cost.peak < t.len() / 2,
        "peak {} B follows the prefix",
        cost.peak
    );
}

#[test]
fn filter_kernels_and_tile_windows_allocate_nothing_per_tile_or_row() {
    let (w, g) = scoring();
    let mut rng = StdRng::seed_from_u64(34);
    let seq: Sequence = (0..4_000)
        .map(|_| Base::from_code(rng.gen_range(0u8..4)))
        .collect();
    let bases = seq.to_bases();
    let codes = Base::codes_of(&bases);
    // The pipeline's filter tiles are 320 bases a side with a band of 32;
    // at that size every tile fits the SIMD engine's i16 score bound.
    let (tile, band) = (320, 32);
    let tiles: Vec<(usize, usize, usize, usize)> = (0..200)
        .map(|_| {
            let (n, m) = (rng.gen_range(1..=tile), rng.gen_range(1..=tile));
            (
                rng.gen_range(0..=4_000 - n),
                rng.gen_range(0..=4_000 - m),
                n,
                m,
            )
        })
        .collect();

    // A warm scratch: one full-size tile first, then 200 of any size, on
    // the i16 lanes and, under a gap open past i16, on the i32 kernel.
    let run = |g: &GapPenalties| {
        let batch = BswBatch::new(&w, g, band);
        let scratch = &mut BswScratch::default();
        batch.run_tile(&codes[..tile], &codes[tile..2 * tile], scratch);
        let simd = batch.tile_uses_simd(tile, tile);
        let cells = measure(|| {
            let cells = tiles.iter().map(|&(t, q, n, m)| {
                batch
                    .run_tile(&codes[t..t + n], &codes[q..q + m], scratch)
                    .cells
            });
            cells.sum::<u64>()
        });
        (simd, cells)
    };
    let ((simd, simd_run), (wide, wide_run)) = (run(&g), run(&GapPenalties::new(40_000, 30)));
    assert_eq!(simd, cfg!(target_arch = "x86_64"));
    assert!(!wide);
    assert_eq!(wide_run.value, simd_run.value);
    assert!(wide_run.value > 500_000, "{} cells", wide_run.value);
    assert_eq!(wide_run.allocs, 0, "i32 kernel over {} tiles", tiles.len());
    assert_eq!(simd_run.allocs, 0, "i16 lanes over {} tiles", tiles.len());

    // A tile window unpacks into its warm buffer, either way round.
    let window = &mut Vec::new();
    seq.window(0..tile, false, window);
    let unpacked = measure(|| {
        let lens = tiles.iter().map(|&(t, _, n, _)| {
            seq.window(t..t + n, false, window).len() + seq.window(t..t + n, true, window).len()
        });
        lens.sum::<usize>()
    });
    assert!(unpacked.value > 2 * tiles.len());
    assert_eq!(
        unpacked.allocs,
        0,
        "Sequence::window over {} tiles",
        tiles.len()
    );

    // The scalar kernel's rows are allocated once a tile: a tile twice as
    // long makes no more allocations.
    let scalar =
        |n: usize| measure(|| banded_smith_waterman(&bases[..n], &bases[n..2 * n], &w, &g, band));
    let (short, long) = (scalar(tile), scalar(2 * tile));
    assert!(long.value.cells > short.value.cells);
    assert_eq!(
        short.allocs,
        long.allocs,
        "banded_smith_waterman: {tile} against {} rows",
        2 * tile
    );
}
