//! Bytes per base, asserted rather than assumed.
//!
//! The seed table is the largest resident of every workload, and ROADMAP
//! item 1 wants the whole run under `a + b·N`. This binary pins the seed
//! layer's `b` with a counting `#[global_allocator]` (std only, its own
//! test binary so no other suite pays for it; the pattern of
//! `crates/align/tests/alloc_bound.rs`): a built table keeps a `u32`
//! position and a key per indexed position — 5 B for the default seed on
//! a target of 2^16 positions or more, 6 B below that — plus its
//! directory, building one peaks at exactly that (the table is filled
//! and sorted where it will lie; the `u64` word staged per window until
//! PR 20 read 13 B here), the directory follows the target (one entry per
//! window or so, 2^8 to 2^16), a seed hit is 8 B, and D-SOFT's working
//! set follows the target's bins and one chunk's bands — not the query —
//! with no allocation per query position. The three arrays this layout
//! replaced stored each
//! distinct word whole beside an offset and kept 16 B per position (20 B
//! at the build's peak); the padded `(u64, u32)` entries before them
//! peaked at 32 B behind a fixed 256 KiB directory and two transient
//! copies of it; the hash map before those kept 74 B per position (99 B
//! at its peak) in one heap `Vec` per word, and the whole-query band map
//! grew with the query, one `Vec` of words per position: all four would
//! fail here.

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

/// Directory bits of a table of `positions` (a pattern of weight above
/// 8): ⌈log2 positions⌉, from 8 to 16.
fn directory_bits(positions: usize) -> u32 {
    positions.next_power_of_two().trailing_zeros().clamp(8, 16)
}

/// The prefix directory of such a table: 2^bits + 1 `u32`s.
fn directory(positions: usize) -> usize {
    4 * ((1 << directory_bits(positions)) + 1)
}

/// What the default seed's table keeps per indexed position: the `u32`
/// position and the 24-bit word's bits below the directory prefix, in
/// one byte when 8 bits or fewer are left, in two otherwise.
fn entry(positions: usize) -> usize {
    4 + if 24 - directory_bits(positions) <= 8 { 1 } else { 2 }
}

/// The pattern clone with its gather runs, a `Vec` header or two.
const SLACK: usize = 4 * KIB;

fn random_dna(len: usize, seed: u64) -> Sequence {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| Base::from_code(rng.gen_range(0u8..4)))
        .collect()
}

#[test]
fn table_keeps_5_bytes_per_position_and_builds_in_no_more() {
    let target = random_dna(150_000, 40);
    let pattern = SeedPattern::lastz_default();

    let built = measure(|| SeedTable::build(&target, &pattern, 1000));
    let positions = built.value.positions_indexed() as usize;
    assert_eq!(positions, target.len() - pattern.span() + 1);
    let directory = directory(positions);
    assert_eq!(directory, 4 * ((1 << 16) + 1));
    assert_eq!(entry(positions), 5);
    eprintln!(
        "build: {:.2} B/position resident, {:.2} B/position peak, {} distinct words",
        (built.retained - directory) as f64 / positions as f64,
        (built.peak - directory) as f64 / positions as f64,
        built.value.distinct_words()
    );
    assert!(
        built.retained <= 5 * positions + directory + SLACK,
        "{} B resident for {positions} positions",
        built.retained
    );
    // Nothing is staged per window: the build's peak is the table.
    assert!(
        built.peak <= 5 * positions + directory + SLACK,
        "build peaked at {} B for {positions} positions",
        built.peak
    );
    // …and nothing is allocated per word or per bucket.
    assert!(built.allocs <= 16, "{} allocations to build", built.allocs);
    // One heap `Vec` per word alone was 24 B of header and 16 B of block.
    assert!(40 * positions > 2 * built.retained);
}

#[test]
fn a_seed_hit_is_two_u32s() {
    assert_eq!(size_of::<SeedHit>(), 8);
}

#[test]
fn a_small_target_builds_in_6_bytes_per_position_behind_a_directory_its_size() {
    // 2 000 positions: 2^11 + 1 entries, 8 KiB, where a fixed 16-bit
    // directory spent 256 KiB — eight times the table behind it — and 13
    // of the word's 24 bits left for the key, so two bytes of it.
    let pattern = SeedPattern::lastz_default();
    let target = random_dna(2_000 + pattern.span() - 1, 44);
    let built = measure(|| SeedTable::build(&target, &pattern, 1000));
    let positions = built.value.positions_indexed() as usize;
    assert_eq!(positions, 2_000);
    assert_eq!(directory(positions), 4 * ((1 << 11) + 1));
    assert_eq!(entry(positions), 6);
    for (what, bytes) in [("resident", built.retained), ("peak", built.peak)] {
        assert!(
            bytes <= 6 * positions + directory(positions) + SLACK,
            "{bytes} B {what} for {positions} positions"
        );
    }
    // Never more entries than twice the positions, never fewer than 2^8
    // (which leaves a 16-bit key).
    assert_eq!(directory(129), 4 * ((1 << 8) + 1));
    assert_eq!(directory(0), 4 * ((1 << 8) + 1));
    assert_eq!(entry(60), 6);
    let sixty = random_dna(60 + pattern.span() - 1, 45);
    let tiny = measure(|| SeedTable::build(&sixty, &pattern, 1000));
    assert_eq!(tiny.value.positions_indexed(), 60);
    assert!(tiny.peak <= 6 * 60 + directory(60) + SLACK, "{} B", tiny.peak);
}

#[test]
fn repeats_cost_what_unique_words_cost() {
    // 40 kb of a 5 kb unit: 8 positions a word, all under the cap. A run
    // of equal keys is the word's position list — there is no entry per
    // word to save on — so the table is byte for byte the size of one
    // over as many positions that all differ.
    let pattern = SeedPattern::lastz_default();
    let unit = random_dna(5_000, 41);
    let target: Sequence = (0..8).flat_map(|_| unit.iter()).collect();
    let repeats = measure(|| SeedTable::build(&target, &pattern, 1000));
    let unique = measure(|| SeedTable::build(&random_dna(target.len(), 47), &pattern, 1000));
    let (positions, words) = (
        repeats.value.positions_indexed() as usize,
        repeats.value.distinct_words(),
    );
    assert!((4_990..=5_000).contains(&words), "{words} distinct words");
    assert_eq!(unique.value.positions_indexed() as usize, positions);
    assert!(unique.value.distinct_words() > 7 * words);
    eprintln!(
        "repeats: {} B for {positions} positions of {words} words, {} B of {} words",
        repeats.retained,
        unique.retained,
        unique.value.distinct_words()
    );
    assert_eq!(repeats.retained, unique.retained);
    assert!(
        repeats.retained <= 5 * positions + directory(positions) + SLACK,
        "{} B resident for {positions} positions of {words} words",
        repeats.retained
    );
}

#[test]
fn a_crowded_bucket_sorts_where_it_lies() {
    // Poly-A with a random base every dozen: most words share their top
    // bits, so one bucket holds most of the table and sorts as a heap
    // rather than by insertion — in place, where a `(key, position)`
    // scratch borrowed 8 B an entry — so even pure poly-A, one bucket of
    // one word, peaks at the table and nothing more.
    let mut rng = StdRng::seed_from_u64(46);
    let sprinkled: Sequence = (0..60_000)
        .map(|_| match rng.gen_range(0u8..12) {
            0 => Base::from_code(rng.gen_range(0u8..4)),
            _ => Base::A,
        })
        .collect();
    let pure: Sequence = std::iter::repeat_n(Base::A, 60_000).collect();
    for (target, crowded) in [(sprinkled, 8), (pure, 1)] {
        let built = measure(|| SeedTable::build(&target, &SeedPattern::lastz_default(), usize::MAX));
        let positions = built.value.positions_indexed() as usize;
        let crowd = built.value.lookup(0).len();
        assert!(crowd >= positions / crowded, "the poly-A word crowds bucket 0");
        eprintln!(
            "crowded: {:.2} B/position peak, {crowd} of {positions} positions under one word",
            (built.peak - directory(positions)) as f64 / positions as f64
        );
        assert!(
            built.peak <= entry(positions) * positions + directory(positions) + SLACK,
            "build peaked at {} B for {positions} positions",
            built.peak
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
