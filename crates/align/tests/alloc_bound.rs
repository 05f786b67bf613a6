//! The memory claim, asserted rather than assumed.
//!
//! GACT-X's case is constant, small traceback memory: 4 bits per computed
//! cell of one tile, however long the alignment. The software kernel
//! spends the same half byte per stored cell in a reused arena plus a few
//! rolling rows, and this binary holds it to that with a counting
//! `#[global_allocator]` (std only, its own test binary so no other suite
//! pays for it): peak live heap during an extension is bounded by the
//! largest tile's stored cells, does not follow the alignment's length,
//! and the number of allocations does not follow the number of DP rows.
//! The kernel this one replaced kept 17 B per cell in four fresh `Vec`s
//! per row, and its left extension copied the whole prefix of both
//! sequences; both would fail here, as does an arena of one byte per cell.

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
}

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
}

fn measure<T>(f: impl FnOnce() -> T) -> Measured<T> {
    let base = LIVE.get();
    PEAK.set(base);
    ALLOCS.set(0);
    let value = f();
    Measured {
        value,
        peak: (PEAK.get() - base).max(0) as usize,
        allocs: ALLOCS.get(),
    }
}

const KIB: usize = 1024;

fn scoring() -> (SubstitutionMatrix, GapPenalties) {
    (SubstitutionMatrix::darwin_wga(), GapPenalties::darwin_wga())
}

/// The issue's bound: 1 B per stored cell of the largest tile — the
/// nibble arena, whose length is `peak_traceback_bytes`, at up to twice
/// that in capacity — plus 256 KiB for rows, row buffer, row table,
/// window buffers and CIGARs.
fn bound(stats: &ExtensionStats) -> usize {
    2 * stats.peak_traceback_bytes as usize + 256 * KIB
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
        let anchors = pair.orthologous_pairs();
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
fn extension_peak_heap_is_one_byte_per_stored_cell_and_constant_in_length() {
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
        cost.peak <= bound(&stats),
        "peak {} B over {} B for {stored} stored cells",
        cost.peak,
        bound(&stats)
    );
    // The ragged kernel held V (8 B), F (8 B) and a pointer per cell.
    assert!(17 * stored > 4 * bound(&stats));

    // Four times the alignment, the same memory: what is held follows the
    // largest tile, not the path (whose CIGAR is the only thing to grow).
    let long_cost = extension_cost(24_000);
    let (long_stats, long_span) = (
        long_cost.value.stats,
        long_cost.value.alignment.target_span(),
    );
    assert!(long_span > 3 * span, "span {long_span} against {span}");
    assert!(long_stats.rows > 3 * stats.rows);
    assert!(long_cost.peak <= bound(&long_stats) + 256 * KIB);
    assert!(
        long_cost.peak < 2 * cost.peak,
        "peak grew with length: {} B against {} B",
        long_cost.peak,
        cost.peak
    );

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
    let cost = measure(|| {
        extend_left(
            t.as_slice(),
            q.as_slice(),
            t.len(),
            q.len(),
            &w,
            &g,
            &params,
        )
    });
    let left = &cost.value;
    assert!(
        (6_000..6_100).contains(&left.target_advance),
        "{}",
        left.target_advance
    );
    assert!(cost.peak <= bound(&left.stats), "peak {} B", cost.peak);
    assert!(
        cost.peak < t.len() / 2,
        "peak {} B follows the prefix",
        cost.peak
    );
}
