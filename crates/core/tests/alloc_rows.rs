//! Index memory follows one genome, not the genome count — and not the
//! extension.
//!
//! `wga many` keeps the seed tables of the target genome in hand — one
//! row of the pair matrix — and drops them when the matrix moves to the
//! next target. This binary pins that with a counting `#[global_allocator]`
//! (std only, a test binary of its own like `crates/seed/tests/alloc_bound.rs`
//! and `crates/align/tests/alloc_bound.rs`): the live-heap high-water of
//! `align_many` over six genomes is that over three of them plus a slack
//! that does not hold one more table. An index that lives for the run
//! holds five tables at the end of six genomes and two at the end of
//! three, and fails here by three tables.
//!
//! Inside a row a table lives to its last lookup, not to the row's last
//! extension: the row's last pair is handed the row's own handle and
//! drops it after seeding its last strand. The second test pins that by
//! running one pair twice — alone, and with a 400-base second query
//! chromosome that keeps the row's handle alive under the first pair's
//! extension — and asks that the run alone peaks at the larger of the
//! table and the extension, not at their sum. A row loop that frees a
//! table after the row's last extension peaks the same in both, and
//! fails here by half of what the extension holds.
//!
//! Across threads it is the same. The dataflow executor's producer
//! builds a row's table at the row's first pair and drops it before the
//! next row's build, so the third test runs two rows at two threads —
//! long targets, short queries, so the tables dwarf everything else —
//! and asks that the run peak below the larger table plus half the
//! smaller. A producer that holds a table past its row fails by half the
//! smaller table. This one test counts every thread's allocations, not
//! its own, so it runs alone: the others hold [`ALONE`] shared.
//!
//! And beside the table a pair holds no list that follows the *product*
//! of the two lengths: a strand is seeded and filtered one query range
//! at a time, so only the survivors outlive a range. The third test runs
//! a distant pair — at distance 1.3 nearly every D-SOFT hit is noise the
//! filter rejects — and asks that the run peak within 64 KiB of its
//! table and its reverse-complemented query (3/8 B a base), and no
//! higher when the query doubles in unrelated sequence (twice the hits).
//! A pipeline that materialises a strand's hits before filtering them
//! fails both, by 8 B a hit.
//!
//! And a sequence is its two bit planes from the first byte read: the
//! fourth test reads a 200 kb FASTA record and asks that the read peak at
//! 3/8 B a base and end holding the same. A reader that fills a byte
//! vector and packs it afterwards fails by 5/8 B a base.
//!
//! And the generator that makes every input allocates by the lineage, not
//! by the event: the fifth test evolves a 200 kb pair at distance 1.3 —
//! some 20 000 insertions and 40 000 transversions a lineage — and asks
//! for a fixed handful of blocks beside the one `String` a conserved
//! element's label is, and for a peak of 14 B an ancestral base. A loop
//! that builds a sequence per insertion or a vector per transversion
//! fails the first by three orders of magnitude; an 8 B map entry, a
//! membership mask or a descendant grown by doubling fails the second.

use genome::assembly::Assembly;
use genome::evolve::{EvolutionParams, SyntheticPair};
use genome::markov::MarkovModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};
use seed::SeedTable;
use wga_core::config::WgaParams;
use wga_core::dataflow::ExecutorKind;
use wga_core::genome_pipeline::{align_assemblies, align_assemblies_observed, align_assemblies_with, AlignOptions};
use wga_core::obs::{Obs, SpanName, TraceRecorder};
use wga_core::pangenome::{align_many, ManyOptions, ManyReport};

thread_local! {
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// High-water mark of `LIVE` since the last [`measure`] began.
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// Blocks this thread has asked for: every `alloc`, and every
    /// `realloc` that grows.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Bytes every thread has allocated and not yet freed, and their
/// high-water since the last [`measure_all`] began.
static ALL_LIVE: AtomicIsize = AtomicIsize::new(0);
static ALL_PEAK: AtomicIsize = AtomicIsize::new(0);

/// Held exclusively by the one test that reads [`ALL_LIVE`], shared by
/// every other.
static ALONE: RwLock<()> = RwLock::new(());

fn beside_others() -> RwLockReadGuard<'static, ()> {
    ALONE.read().unwrap_or_else(PoisonError::into_inner)
}

/// The system allocator with per-thread accounting — one thread runs the
/// whole of a one-thread `align_many` — and a process-wide count.
struct Counting;

fn resized(from: usize, to: usize) {
    let delta = to as isize - from as isize;
    let all = ALL_LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    ALL_PEAK.fetch_max(all, Ordering::Relaxed);
    // `try_with`: the allocator outlives a thread's locals.
    if to > from {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    }
    let _ = LIVE.try_with(|live| {
        live.set(live.get() - from as isize + to as isize);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
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
            resized(0, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.dealloc(ptr, layout) };
        resized(layout.size(), 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded; see the impl comment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && new_size > layout.size() {
            // Growing may move the block: both are live while it is copied.
            resized(0, new_size);
            resized(layout.size(), 0);
        } else if !p.is_null() {
            // Shrinking gives the tail back where the block lies.
            resized(layout.size(), new_size);
        }
        p
    }

    // `alloc_zeroed` keeps its default, which goes through `alloc`.
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its value with the peak of live bytes above what
/// was live when it started.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.get();
    PEAK.set(base);
    let value = f();
    (value, (PEAK.get() - base).max(0) as usize)
}

/// [`measure`] over every thread: the caller must hold [`ALONE`].
fn measure_all<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = ALL_LIVE.load(Ordering::Relaxed);
    ALL_PEAK.store(base, Ordering::Relaxed);
    let value = f();
    (value, (ALL_PEAK.load(Ordering::Relaxed) - base).max(0) as usize)
}

/// What a sequence of `bases` holds: a 2-bit code and an `N` bit a base,
/// each plane in whole `u64`s.
fn packed_bytes(bases: usize) -> usize {
    8 * (bases.div_ceil(32) + bases.div_ceil(64))
}

/// Three clusters of two ~20 kb genomes: each genome aligns to its
/// cluster mate and to nothing else.
fn six_genomes() -> Vec<Assembly> {
    let mut rng = StdRng::seed_from_u64(61);
    let mut genomes = Vec::new();
    for cluster in 0..3 {
        let pair = SyntheticPair::generate(20_000, &EvolutionParams::at_distance(0.12), &mut rng);
        for (side, sequence) in [("t", pair.target.sequence), ("q", pair.query.sequence)] {
            let mut genome = Assembly::new(format!("c{cluster}{side}"));
            genome.push("chr", sequence);
            genomes.push(genome);
        }
    }
    genomes
}

fn run(genomes: &[Assembly]) -> ManyReport {
    align_many(&WgaParams::darwin_wga(), genomes, &ManyOptions::default()).expect("run succeeds")
}

#[test]
fn live_heap_of_a_many_genome_run_does_not_grow_with_the_genome_count() {
    let _shared = beside_others();
    let genomes = six_genomes();
    // Once unmeasured, so the per-thread kernel scratches are grown.
    run(&genomes);

    let (three, peak_of_three) = measure(|| run(&genomes[..3]));
    let (six, peak_of_six) = measure(|| run(&genomes));
    assert_eq!(three.tables_built, 2);
    assert_eq!(six.tables_built, 5);
    assert!(six.alignments.len() > three.alignments.len());

    // One table of a genome here is 6 B a base and a 2^15-entry
    // directory, some 250 KB. The slack is for what does follow the
    // genome count: six sketches against three, fifteen pair records
    // against three, the alignments of three related pairs against one.
    let slack = 192 * 1024;
    eprintln!("live-heap high-water: {peak_of_three} B over 3 genomes, {peak_of_six} B over 6");
    assert!(
        peak_of_six <= peak_of_three + slack,
        "{peak_of_six} B live over 6 genomes, {peak_of_three} B over 3"
    );
}

#[test]
fn a_table_is_freed_at_its_last_lookup_not_under_the_extension() {
    let _shared = beside_others();
    // Long alignments: what the extension holds (its traceback arena
    // above all) is several times what seeding holds beside the table.
    let mut rng = StdRng::seed_from_u64(62);
    let pair = SyntheticPair::generate(40_000, &EvolutionParams::at_distance(0.30), &mut rng);
    let params = WgaParams::darwin_wga();
    let mut target = Assembly::new("t");
    target.push("chrT", pair.target.sequence.clone());
    let mut alone = Assembly::new("q");
    alone.push("chrQ", pair.query.sequence.clone());
    // The same query, then a chromosome too short to matter: the first
    // pair is no longer the row's last, so it shares the row's table.
    let mut followed = alone.clone();
    followed.push("chrTiny", pair.query.sequence.subsequence(0..400));

    let before = LIVE.get();
    let table = SeedTable::build(&pair.target.sequence, &params.seed_pattern, params.max_seed_occurrences);
    let table_bytes = (LIVE.get() - before) as usize;
    // 4 B a window and the directory: large enough that a table still
    // alive under the extension would show.
    let windows = pair.target.sequence.len() + 1 - params.seed_pattern.span();
    assert!(table.heap_bytes() > 4 * windows, "{} B for {windows} windows", table.heap_bytes());
    assert!(table_bytes >= table.heap_bytes());
    drop(table);

    // Once unmeasured, so the per-thread kernel scratches are grown.
    align_assemblies(&params, &target, &followed);
    let (one, peak_alone) = measure(|| align_assemblies(&params, &target, &alone));
    let (two, peak_followed) = measure(|| align_assemblies(&params, &target, &followed));
    assert_eq!((one.pairs.len(), two.pairs.len()), (1, 2));
    assert!(one.total_matches() > 20_000, "{}", one.total_matches());
    assert_eq!(one.for_pair("chrT", "chrQ").len(), two.for_pair("chrT", "chrQ").len());
    eprintln!(
        "live-heap high-water: {peak_alone} B alone, {peak_followed} B sharing the row's table of {table_bytes} B"
    );
    // Followed, the pair extends over the row's table: the run peaks at
    // the table plus what the extension holds. Alone it peaks at the
    // larger of the two humps — the table with seeding's few tens of KB,
    // or the extension by itself — not at their sum.
    let extension = peak_followed.saturating_sub(table_bytes);
    assert!(extension > 128 * 1024, "the extension holds {extension} B");
    assert!(
        peak_alone <= table_bytes.max(extension) + extension / 2,
        "{peak_alone} B alone, {peak_followed} B under a shared table of {table_bytes} B"
    );

    // Sharing is sharing: the row of two pairs built its table once.
    let recorder = TraceRecorder::new();
    let observed = align_assemblies_observed(&params, &target, &followed, &AlignOptions::default(), Obs::new(&recorder))
        .expect("run succeeds");
    assert_eq!(observed.pairs.len(), 2);
    let builds = recorder.spans().iter().filter(|span| span.name == SpanName::SeedTable).count();
    assert_eq!(builds, 1);
}

#[test]
fn the_dataflow_producer_never_holds_two_rows_tables() {
    let _alone = ALONE.write().unwrap_or_else(PoisonError::into_inner);
    let mut rng = StdRng::seed_from_u64(66);
    let model = MarkovModel::genome_like();
    let params = WgaParams::darwin_wga();
    let mut target = Assembly::new("t");
    target.push("large", model.generate(400_000, &mut rng));
    target.push("small", model.generate(200_000, &mut rng));
    let mut query = Assembly::new("q");
    query.push("q0", model.generate(2_000, &mut rng));
    query.push("q1", model.generate(3_000, &mut rng));
    let table_bytes = |chrom: usize| {
        let sequence = &target.chromosomes()[chrom].sequence;
        measure_all(|| SeedTable::build(sequence, &params.seed_pattern, params.max_seed_occurrences)).1
    };
    let (large, small) = (table_bytes(0), table_bytes(1));
    assert!(small > 400 * 1024, "{small} B for the smaller table");

    let options = AlignOptions { threads: 2, executor: ExecutorKind::Dataflow, ..AlignOptions::default() };
    let run = || align_assemblies_with(&params, &target, &query, &options).expect("run succeeds");
    // Once unmeasured, so the per-thread kernel scratches are grown.
    run();
    let (report, peak) = measure_all(run);
    assert_eq!((report.pairs.len(), report.failed_pairs()), (4, 0));
    eprintln!("live-heap high-water over every thread: {peak} B beside tables of {large} and {small} B");
    assert!(peak >= large, "{peak} B: the larger table was built");
    assert!(peak < large + small / 2, "{peak} B: both rows' tables of {large} and {small} B were live");
}

#[test]
fn a_pair_holds_its_table_and_sequences_not_its_hits() {
    let _shared = beside_others();
    let mut rng = StdRng::seed_from_u64(63);
    let pair = SyntheticPair::generate(40_000, &EvolutionParams::at_distance(1.3), &mut rng);
    let mut params = WgaParams::darwin_wga();
    params.both_strands = true;
    let mut target = Assembly::new("t");
    target.push("chrT", pair.target.sequence.clone());
    let mut query = Assembly::new("q");
    query.push("chrQ", pair.query.sequence.clone());
    // The same query followed by as much sequence again that aligns to
    // nothing: twice the noise hits, no more survivors.
    let mut doubled_sequence = pair.query.sequence.clone();
    doubled_sequence.extend(MarkovModel::genome_like().generate(pair.query.sequence.len(), &mut rng).iter());
    let mut doubled = Assembly::new("q");
    doubled.push("chrQ", doubled_sequence);

    let before = LIVE.get();
    let table = SeedTable::build(&pair.target.sequence, &params.seed_pattern, params.max_seed_occurrences);
    let table_bytes = (LIVE.get() - before) as usize;
    drop(table);

    // Once unmeasured, so the per-thread kernel scratches are grown.
    align_assemblies(&params, &target, &doubled);
    let (one, peak) = measure(|| align_assemblies(&params, &target, &query));
    let (two, peak_doubled) = measure(|| align_assemblies(&params, &target, &doubled));
    let tiles = (one.workload.filter_tiles, two.workload.filter_tiles);
    assert!(tiles.0 > 16_000 && tiles.1 > 2 * tiles.0 - tiles.0 / 4, "{tiles:?} filter tiles");
    // What a materialised hit list would add: 8 B a hit of the larger
    // strand, far outside the slack.
    assert!(8 * tiles.0 / 2 > 64 * 1024);

    // The reverse strand's copy of the query is the one sequence a pair
    // allocates, at 3/8 B a base; the assemblies are the caller's.
    let (query_bytes, doubled_bytes) = (packed_bytes(query.total_bases()), packed_bytes(doubled.total_bases()));
    eprintln!(
        "live-heap high-water: {peak} B for {} tiles, {peak_doubled} B for {}, beside a table of {table_bytes} B and queries of {query_bytes} and {doubled_bytes} B",
        tiles.0, tiles.1
    );
    let slack = 64 * 1024;
    assert!(peak <= table_bytes + query_bytes + slack, "{peak} B for one pair");
    assert!(peak_doubled <= table_bytes + doubled_bytes + slack, "{peak_doubled} B for the doubled query");
}

#[test]
fn a_fasta_record_is_read_straight_into_its_two_planes() {
    let _shared = beside_others();
    let bases = 200_000;
    let record = MarkovModel::genome_like().generate(bases, &mut StdRng::seed_from_u64(64));
    let mut file = Vec::new();
    let fasta = [genome::fasta::Record { name: "chr".into(), description: "chr g".into(), sequence: record.clone() }];
    genome::fasta::write(&mut file, &fasta).expect("a Vec takes every write");
    let mut genome = Assembly::new("g");
    genome.push("chr", record);

    let before = LIVE.get();
    let (read, peak) = measure(|| Assembly::from_fasta_sized("g", &file[..], file.len()).expect("it was just written"));
    let held = (LIVE.get() - before) as usize;
    assert_eq!(read, genome);
    eprintln!("live heap: {peak} B at the peak of the read, {held} B after it, for {} B packed", packed_bytes(bases));
    let slack = 4 * 1024;
    assert!(peak <= packed_bytes(bases) + slack, "{peak} B at the peak of reading {bases} bases");
    assert!(held <= packed_bytes(bases) + slack && held >= packed_bytes(bases), "{held} B held for {bases} bases");
}

#[test]
fn the_generator_allocates_by_the_lineage_not_by_the_event() {
    let _shared = beside_others();
    let bases = 200_000;
    let params = EvolutionParams::at_distance(1.3);
    let blocks_before = ALLOCATIONS.get();
    let (pair, peak) = measure(|| SyntheticPair::generate(bases, &params, &mut StdRng::seed_from_u64(65)));
    let blocks = ALLOCATIONS.get() - blocks_before;
    let events = pair.target.indel_events + pair.query.indel_events + pair.target.substitutions + pair.query.substitutions;
    assert!(events > 150_000, "{events} events");
    // An `Interval` owns its label: one block an element in the ancestor
    // and one in each lineage it survives in. Those follow the elements
    // (176 here), not the events; nothing else may follow either.
    let labels = pair.ancestral_conserved.len() + pair.target.conserved.len() + pair.query.conserved.len();
    eprintln!(
        "generator: {blocks} blocks ({labels} of them labels) for {events} events, {peak} B at the peak = {:.2} B an ancestral base",
        peak as f64 / bases as f64
    );
    assert!(blocks - labels <= 64, "{blocks} blocks beside {labels} labels");
    assert!(peak <= 14 * bases, "{peak} B at the peak of generating from {bases} bases");
}
