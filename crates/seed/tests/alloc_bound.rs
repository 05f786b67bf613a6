//! Bytes per base, asserted rather than assumed.
//!
//! The seed table is the largest resident of every workload, and ROADMAP
//! item 1 wants the whole run under `a + b·N`. This binary pins the seed
//! layer's `b` with a counting `#[global_allocator]` (std only, its own
//! test binary so no other suite pays for it; the pattern of
//! `crates/align/tests/alloc_bound.rs`): a built table keeps one `u32`
//! entry per indexed window — the word's key and the position in one
//! integer — plus a directory of one `u32` per 8–16 windows (2^8 entries
//! at least), `SeedTable::heap_bytes` is exactly what it keeps, building
//! one peaks at exactly that (the table is filled and sorted where it
//! will lie; nothing is staged per window), a seed hit is 8 B, and
//! D-SOFT's working set follows the target's bins and one chunk's
//! bands — not the query — with no allocation per query position.

use genome::{Base, Sequence};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seed::dsoft::{dsoft_seeds, DsoftParams, DsoftResult};
use seed::{SeedHit, SeedPattern, SeedTable};
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
    // (it remaps them), and the bounds below are on what stays live.
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
    /// Bytes still live when `f` returned: what `value` holds.
    retained: usize,
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
        retained: (LIVE.get() - base).max(0) as usize,
        allocs: ALLOCS.get(),
    }
}

const KIB: usize = 1024;

/// Directory bits of the default seed's table over `windows` windows:
/// ⌈log2 windows⌉ − 4, at least 8 — 8 to 16 windows a bucket.
fn directory_bits(windows: usize) -> u32 {
    windows
        .next_power_of_two()
        .trailing_zeros()
        .saturating_sub(4)
        .max(8)
}

/// The most the default seed's table over `windows` windows keeps: a
/// `u32` entry a window — key and position in one integer — and
/// 2^d + 1 `u32`s of directory.
fn table_bound(windows: usize) -> usize {
    4 * windows + 4 * ((1 << directory_bits(windows)) + 1)
}

/// What a table's clone of its pattern holds on the heap: all that it
/// keeps besides [`SeedTable::heap_bytes`].
fn pattern_bytes(pattern: &SeedPattern) -> usize {
    measure(|| pattern.clone()).retained
}

fn random_dna(len: usize, seed: u64) -> Sequence {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| Base::from_code(rng.gen_range(0u8..4)))
        .collect()
}

#[test]
fn table_keeps_4_bytes_a_window_behind_a_directory_of_8_to_16_windows_a_bucket() {
    let pattern = SeedPattern::lastz_default();
    let cloned = pattern_bytes(&pattern);
    // The 8-bit floor (1 KiB) below 2^12 windows, ⌈log2⌉ − 4 past it: 60
    // and 2 000 windows sit on the floor, 150 000 behind 14 bits (64 KiB).
    for (windows, seed, bits) in [(60, 45, 8), (2_000, 44, 8), (150_000, 40, 14)] {
        let target = random_dna(windows + pattern.span() - 1, seed);
        let built = measure(|| SeedTable::build(&target, &pattern, 1000));
        let table = &built.value;
        assert_eq!(table.positions_indexed() as usize, windows);
        assert_eq!(directory_bits(windows), bits);
        // Nothing is dropped: every window is an entry.
        assert_eq!(
            table.heap_bytes(),
            table_bound(windows),
            "{windows} windows"
        );
        // `heap_bytes` is the table's heap to the byte.
        assert_eq!(
            built.retained,
            table.heap_bytes() + cloned,
            "{windows} windows"
        );
        eprintln!(
            "build: {:.2} B/window resident, {:.2} B/window peak, {windows} windows of {} distinct words",
            built.retained as f64 / windows as f64,
            built.peak as f64 / windows as f64,
            table.distinct_words()
        );
        // Nothing is staged per window: the build's peak is the table…
        for (what, bytes) in [("resident", built.retained), ("peak", built.peak)] {
            assert!(
                bytes <= table_bound(windows) + cloned,
                "{bytes} B {what} for {windows} windows"
            );
        }
        // …and nothing is allocated per word or per bucket.
        assert!(built.allocs <= 16, "{} allocations to build", built.allocs);
    }
}

#[test]
fn a_seed_hit_is_two_u32s() {
    assert_eq!(size_of::<SeedHit>(), 8);
}

#[test]
fn poly_a_a_crowded_bucket_repeats_and_random_sequence_cost_alike() {
    // Pure poly-A is one bucket of one word; poly-A with a random base
    // every dozen crowds bucket 0 with many words; 8 copies of a 7.5 kb
    // unit put 8 positions under each word. An entry is a window whatever
    // its word — there is no per-word entry to save on, and the sort
    // borrows nothing — so each table is, resident and at its build's
    // peak, byte for byte the table of as many random windows.
    let pattern = SeedPattern::lastz_default();
    let len = 60_000;
    let mut rng = StdRng::seed_from_u64(46);
    let sprinkled: Sequence = (0..len)
        .map(|_| match rng.gen_range(0u8..12) {
            0 => Base::from_code(rng.gen_range(0u8..4)),
            _ => Base::A,
        })
        .collect();
    let pure: Sequence = std::iter::repeat_n(Base::A, len).collect();
    let unit = random_dna(len / 8, 41);
    let repeats: Sequence = (0..8).flat_map(|_| unit.iter()).collect();
    let windows = len - pattern.span() + 1;
    let random = random_dna(len, 47);
    let random = measure(|| SeedTable::build(&random, &pattern, usize::MAX));
    assert_eq!(random.value.positions_indexed() as usize, windows);
    assert!(
        random.peak <= table_bound(windows) + pattern_bytes(&pattern),
        "{} B",
        random.peak
    );
    let crowds = [
        ("sprinkled", sprinkled, windows / 8),
        ("poly-A", pure, windows),
        ("repeats", repeats, 0),
    ];
    for (name, target, crowd) in crowds {
        let built = measure(|| SeedTable::build(&target, &pattern, usize::MAX));
        assert!(
            built.value.lookup(0).len() >= crowd,
            "{name}: the poly-A word crowds bucket 0"
        );
        let words = built.value.distinct_words();
        if name == "repeats" {
            assert!(
                (7_490..=7_500).contains(&words),
                "{name}: {words} distinct words"
            );
        }
        eprintln!(
            "{name}: {} B resident, {} B peak for {windows} windows of {words} words; random: {} B, {} B",
            built.retained, built.peak, random.retained, random.peak
        );
        assert_eq!(
            built.value.heap_bytes(),
            random.value.heap_bytes(),
            "{name}"
        );
        assert_eq!(
            (built.retained, built.peak),
            (random.retained, random.peak),
            "{name}"
        );
    }
}

/// D-SOFT of `query` on a thread of its own.
fn dsoft_cost(table: &SeedTable, query: &Sequence, params: &DsoftParams) -> Measured<DsoftResult> {
    std::thread::scope(|scope| {
        scope
            .spawn(|| measure(|| dsoft_seeds(table, query, params)))
            .join()
            .expect("measurement thread")
    })
}

#[test]
fn dsoft_working_set_follows_a_chunk_not_the_query() {
    let target = random_dna(100_000, 42);
    // The target with a substitution every twenty bases: seeds all along
    // the main diagonal, noise bands everywhere else.
    let mut rng = StdRng::seed_from_u64(43);
    let query: Sequence = target
        .iter()
        .map(|base| match rng.gen_range(0u8..20) {
            0 => base.transition_partner(),
            _ => base,
        })
        .collect();
    let doubled: Sequence = query.iter().chain(query.iter()).collect();
    let table = SeedTable::build(&target, &SeedPattern::lastz_default(), 1000);
    let params = DsoftParams::default();

    let once = dsoft_cost(&table, &query, &params);
    let twice = dsoft_cost(&table, &doubled, &params);
    assert!(once.value.hits.len() > 1_000, "{}", once.value.hits.len());
    assert!(twice.value.seeds_queried > 2 * once.value.seeds_queried - 1_000);
    assert!(twice.value.bands_touched > 2 * once.value.bands_touched - 1_000);

    // Beyond the hits it returns: a `u32` per target bin and the first
    // hits of one chunk's bands.
    let bins = target.len().div_ceil(params.bin_size);
    let bound = 4 * bins + 4 * KIB;
    let working_set = |cost: &Measured<DsoftResult>| {
        cost.peak - cost.value.hits.capacity() * size_of::<SeedHit>()
    };
    eprintln!(
        "dsoft: {} B and {} allocations for {} seeds in {} bands, {} B and {} for {} in {}",
        working_set(&once),
        once.allocs,
        once.value.seeds_queried,
        once.value.bands_touched,
        working_set(&twice),
        twice.allocs,
        twice.value.seeds_queried,
        twice.value.bands_touched
    );
    for (name, cost) in [("query", &once), ("doubled query", &twice)] {
        assert!(
            working_set(cost) <= bound,
            "{name}: {} B live beyond the hits, bound {bound}",
            working_set(cost)
        );
        // A map of every band of the query held 32 B an entry.
        assert!(32 * cost.value.bands_touched as usize > 16 * bound);
    }

    // Nothing is allocated per query position: the band list and the hit
    // list each double a few times, and twice the query doubles the hit
    // list once more.
    assert!(once.allocs <= 40, "{} allocations", once.allocs);
    assert!(
        twice.allocs <= once.allocs + 2,
        "{} allocations for twice the query, {} for once",
        twice.allocs,
        once.allocs
    );
}
