//! `layers` — the traced per-layer run of one workload.
//!
//! Two views of the same inputs, printed as `metric<TAB>name<TAB>value`
//! lines for `ledger` to collect:
//!
//! * **Isolated.** A replica of the serial pipeline built from each
//!   layer's public functions, every call into a layer timed from this
//!   file (spans kept in memory, summed at the end): FASTA read, seed
//!   table build, D-SOFT, all three filter engines over the identical hit
//!   list, GACT-X extension inside a copy of the commit loop, chaining,
//!   MAF rendering, journal append.
//! * **In situ.** One pass through the program's own `*_observed` entry
//!   point under its own `TraceRecorder`, attributed by `wga-profile` —
//!   no second set of timers inside the program, so this benchmark and
//!   `wga profile` cannot disagree.
//!
//! The replica must be the program: at one thread its filter tiles,
//! filter cells, extension cells and kept alignments have to equal the
//! trace's counters exactly, and the three engines have to agree on
//! cells and surviving anchors. Otherwise the metrics are still printed
//! and the exit code is 1.

use chain::chain_alignments;
use genome::assembly::Assembly;
use seed::{dsoft_seeds, Anchor, SeedTable};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use wga_core::absorb::{merge_into_kept, AbsorptionGrid};
use wga_core::config::{FilterEngineKind, WgaParams};
use wga_core::dataflow::ExecutorKind;
use wga_core::filter_engine::FilterContext;
use wga_core::genome_pipeline::{align_assemblies_observed, AlignOptions};
use wga_core::journal::{params_fingerprint, Journal, PairRecord};
use wga_core::maf::write_maf;
use wga_core::obs::{Obs, TraceRecorder};
use wga_core::pangenome::{self, ManyOptions};
use wga_core::report::{RunOutcome, Strand, WgaAlignment, WgaReport};
use wga_core::stages::run_extension;
use wga_ledger::{dict, sys};
use wga_profile::{ProfileReport, TraceFile};

/// Chain score floor of the command line's post-pass.
const CHAIN_MIN_SCORE: i64 = 3000;
const ENGINES: [(FilterEngineKind, &str); 3] = [
    (FilterEngineKind::Scalar, "align.bsw_scalar"),
    (FilterEngineKind::Batched, "align.bsw_batched"),
    (FilterEngineKind::Simd, "align.bsw_simd"),
];

/// Spans recorded around calls into a layer: name and duration, kept in
/// memory and summed when the run ends.
#[derive(Default)]
struct Spans {
    records: Vec<(&'static str, Duration)>,
}

impl Spans {
    fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let result = call();
        self.records.push((name, started.elapsed()));
        result
    }

    fn seconds(&self, name: &str) -> f64 {
        self.records
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| d.as_secs_f64())
            .sum()
    }
}

/// Work counts of the replica, summed over every chromosome pair.
#[derive(Default)]
struct Counts {
    fasta_bytes: u64,
    table_bases: u64,
    table_positions: u64,
    tables_built: u64,
    seeds_queried: u64,
    hits: u64,
    /// Per engine of [`ENGINES`]: cells evaluated and anchors passed.
    engine_cells: [u64; 3],
    engine_anchors: [u64; 3],
    engines_disagree: bool,
    anchors_passed: u64,
    grid_absorbed: u64,
    extensions: u64,
    extension_tiles: u64,
    extension_cells: u64,
    kept: u64,
    matched_bp: u64,
    chains_out: u64,
    maf_bytes: u64,
    chrom_pairs: u64,
}

struct Config {
    many: bool,
    threads: usize,
    executor: ExecutorKind,
    files: Vec<String>,
}

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let (mut many, mut threads, mut executor, mut files) =
        (None, 1usize, ExecutorKind::Barrier, Vec::new());
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--kind" => {
                many = Some(match value("--kind")?.as_str() {
                    "align" => false,
                    "many" => true,
                    other => return Err(format!("unknown kind '{other}'")),
                })
            }
            "--threads" => {
                threads = value("--threads")?
                    .parse()
                    .map_err(|_| "bad --threads".to_string())?
            }
            "--executor" => executor = value("--executor")?.parse()?,
            _ => files.push(arg),
        }
    }
    let many = many.ok_or(
        "usage: layers --kind align|many [--threads N] [--executor barrier|dataflow] <fasta>...",
    )?;
    if threads == 0 || files.len() < 2 || (!many && files.len() != 2) {
        return Err(
            "align takes a target and a query FASTA, many at least two; threads start at 1".into(),
        );
    }
    Ok(Config {
        many,
        threads,
        executor,
        files,
    })
}

/// Reads one FASTA file the way the command line does: the assembly is
/// named after the file stem.
fn read_assembly(path: &str, spans: &mut Spans, counts: &mut Counts) -> Result<Assembly, String> {
    let stem = std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.to_string(), |s| s.to_string_lossy().into_owned());
    counts.fasta_bytes += std::fs::metadata(path)
        .map_err(|e| format!("{path}: {e}"))?
        .len();
    spans.time("genome.fasta_read", || {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        Assembly::from_fasta(stem, BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
    })
}

/// The serial pipeline for one chromosome pair, rebuilt from public
/// functions: `wga_core::pipeline`'s strand loop and
/// `wga_core::stages`' commit loop with the observability, budgets and
/// fault gates taken out.
#[allow(clippy::too_many_arguments)]
fn replica_pair(
    params: &WgaParams,
    table: &SeedTable,
    target: &genome::assembly::Chromosome,
    query: &genome::assembly::Chromosome,
    journal: &mut Journal,
    spans: &mut Spans,
    counts: &mut Counts,
) -> Result<(), String> {
    let (t, q) = (&target.sequence, &query.sequence);
    counts.chrom_pairs += 1;

    let seeding = spans.time("seed.dsoft", || dsoft_seeds(table, q, &params.dsoft));
    counts.seeds_queried += seeding.seeds_queried;
    counts.hits += seeding.hits.len() as u64;

    // Every engine over the identical hit list.
    let mut reference: Option<(Vec<Anchor>, u64)> = None;
    let mut anchors: Vec<Anchor> = Vec::new();
    for (index, (kind, span)) in ENGINES.into_iter().enumerate() {
        let engine_params = params.clone().with_filter_engine(kind);
        let encode_span = if kind == params.filter_engine {
            "core.filter_ctx.encode"
        } else {
            "core.filter_ctx.encode_other"
        };
        let context = spans.time(encode_span, || FilterContext::new(&engine_params, t, q));
        let mut engine = context.engine();
        let (passed, cells) = spans.time(span, || {
            let mut passed = Vec::new();
            let mut cells = 0u64;
            for &hit in &seeding.hits {
                let outcome = engine.filter_hit(&engine_params, t, q, hit);
                cells += outcome.cells;
                passed.extend(outcome.anchor);
            }
            (passed, cells)
        });
        counts.engine_cells[index] += cells;
        counts.engine_anchors[index] += passed.len() as u64;
        match &reference {
            None => reference = Some((passed.clone(), cells)),
            Some((expected, expected_cells)) => {
                counts.engines_disagree |= *expected != passed || *expected_cells != cells;
            }
        }
        if kind == params.filter_engine {
            anchors = passed;
        }
    }

    // The commit loop: best filter score first, absorbed anchors skipped.
    counts.anchors_passed += anchors.len() as u64;
    anchors.sort_by_key(|a| std::cmp::Reverse(a.filter_score));
    let mut grid = AbsorptionGrid::new();
    let mut kept: Vec<align::Alignment> = Vec::new();
    for anchor in anchors {
        if grid.covers(anchor.target_pos, anchor.query_pos) {
            counts.grid_absorbed += 1;
            continue;
        }
        counts.extensions += 1;
        let Some(extended) = spans.time("align.gactx", || run_extension(params, t, q, anchor))
        else {
            continue;
        };
        counts.extension_tiles += extended.stats.tiles;
        counts.extension_cells += extended.stats.cells;
        if extended.alignment.score >= params.extension_threshold {
            grid.insert_alignment(&extended.alignment);
            merge_into_kept(&mut kept, extended.alignment);
        }
    }
    kept.sort_by_key(|a| std::cmp::Reverse(a.score));
    counts.kept += kept.len() as u64;
    counts.matched_bp += kept.iter().map(align::Alignment::matches).sum::<u64>();

    // What the command line does with a pair's alignments.
    counts.chains_out += spans
        .time("chain.chainer", || chain_alignments(&kept, CHAIN_MIN_SCORE))
        .len() as u64;
    let alignments: Vec<WgaAlignment> = kept
        .into_iter()
        .map(|alignment| WgaAlignment {
            alignment,
            strand: Strand::Forward,
        })
        .collect();
    let mut maf = Vec::new();
    spans
        .time("core.maf_write", || {
            write_maf(&mut maf, &target.name, t, &query.name, q, &alignments)
        })
        .map_err(|e| format!("MAF rendering: {e}"))?;
    counts.maf_bytes += maf.len() as u64;
    let blank = WgaReport::default();
    let record = PairRecord {
        target_chrom: target.name.clone(),
        query_chrom: query.name.clone(),
        outcome: RunOutcome::Completed,
        workload: blank.workload,
        timings: blank.timings,
        counters: blank.counters,
        alignments,
    };
    spans
        .time("core.journal.append", || journal.append(&record))
        .map_err(|e| format!("journal append: {e}"))
}

/// The replica over a whole workload: one genome pair for `align`, every
/// unordered pair (lower index the target) for `many`, each target
/// chromosome's table built once as the shared index does.
fn replica(
    config: &Config,
    params: &WgaParams,
    genomes: &[Assembly],
    spans: &mut Spans,
    counts: &mut Counts,
) -> Result<(), String> {
    assert!(
        !params.both_strands,
        "the replica covers the forward strand only"
    );
    let journal_path = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join("layers.journal");
    let _ = std::fs::remove_file(&journal_path);
    let mut journal =
        Journal::open(&journal_path, &params_fingerprint(params)).map_err(|e| e.to_string())?;
    let last_target = if config.many { genomes.len() - 1 } else { 1 };
    for (index, target) in genomes.iter().enumerate().take(last_target) {
        for t_chrom in target.chromosomes() {
            let table = spans.time("seed.table_build", || {
                SeedTable::build(
                    &t_chrom.sequence,
                    &params.seed_pattern,
                    params.max_seed_occurrences,
                )
            });
            counts.tables_built += 1;
            counts.table_bases += t_chrom.sequence.len() as u64;
            counts.table_positions += table.positions_indexed();
            for query in &genomes[index + 1..] {
                for q_chrom in query.chromosomes() {
                    replica_pair(
                        params,
                        &table,
                        t_chrom,
                        q_chrom,
                        &mut journal,
                        spans,
                        counts,
                    )?;
                }
            }
        }
    }
    drop(journal);
    let _ = std::fs::remove_file(&journal_path);
    Ok(())
}

/// One pass through the program's own entry point.
struct ProgramPass {
    wall_s: f64,
    cpu_s: f64,
    /// The pass's trace, attributed, when it ran under a recorder.
    profile: Option<ProfileReport>,
    /// `wga many` only.
    many: Option<(u64, u64, u64)>,
}

fn program_pass(
    config: &Config,
    params: &WgaParams,
    genomes: &[Assembly],
    threads: usize,
    executor: ExecutorKind,
    traced: bool,
) -> Result<ProgramPass, String> {
    let recorder = traced.then(TraceRecorder::new);
    let obs = match &recorder {
        Some(recorder) => Obs::new(recorder),
        None => Obs::off(),
    };
    let (cpu_before, started) = (sys::self_cpu_s(), Instant::now());
    let many = if config.many {
        let options = ManyOptions {
            threads,
            executor,
            ..ManyOptions::default()
        };
        let report = pangenome::align_many_observed(params, genomes, &options, obs)
            .map_err(|e| e.to_string())?;
        let scheduled = report.pairs.iter().filter(|p| p.scheduled).count() as u64;
        Some((scheduled, report.tables_built, report.sweep.dropped))
    } else {
        let options = AlignOptions {
            threads,
            executor,
            ..AlignOptions::default()
        };
        align_assemblies_observed(params, &genomes[0], &genomes[1], &options, obs)
            .map_err(|e| e.to_string())?;
        None
    };
    let (wall_s, cpu_s) = (
        started.elapsed().as_secs_f64(),
        sys::self_cpu_s() - cpu_before,
    );
    let profile = match &recorder {
        Some(recorder) => {
            let mut bytes = Vec::new();
            recorder
                .write_trace(&mut bytes)
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
            let trace = TraceFile::parse(&text).map_err(|e| e.to_string())?;
            Some(ProfileReport::build(&trace, 5))
        }
        None => None,
    };
    Ok(ProgramPass {
        wall_s,
        cpu_s,
        profile,
        many,
    })
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part * 100.0 / whole
    } else {
        0.0
    }
}

fn per_second(amount: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        amount / seconds
    } else {
        0.0
    }
}

/// The per-layer metrics by name; a metric nothing sets reads 0.
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn new() -> Values {
        Values(dict::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in the dictionary")) = value;
    }

    /// A duration metric and the rate `amount` per second of it.
    fn set_timed(&mut self, ms: &'static str, rate: &'static str, seconds: f64, amount: f64) {
        self.set(ms, seconds * 1e3);
        self.set(rate, per_second(amount, seconds));
    }
}

/// Index into [`ENGINES`] of the engine the command line runs by default.
fn default_engine(params: &WgaParams) -> usize {
    ENGINES
        .iter()
        .position(|(kind, _)| *kind == params.filter_engine)
        .expect("the default engine is one of the three")
}

/// The isolated numbers: the replica's spans and counts.
fn isolated_metrics(values: &mut Values, spans: &Spans, counts: &Counts, default_engine: usize) {
    let seconds = |name: &str| spans.seconds(name);
    let mega = |count: u64| count as f64 / 1e6;
    values.set_timed(
        "genome.fasta_read.ms",
        "genome.fasta_read.mb_per_s",
        seconds("genome.fasta_read"),
        mega(counts.fasta_bytes),
    );
    values.set_timed(
        "seed.table_build.ms",
        "seed.table_build.mbases_per_s",
        seconds("seed.table_build"),
        mega(counts.table_bases),
    );
    values.set("seed.table.positions", counts.table_positions as f64);
    values.set_timed(
        "seed.dsoft.ms",
        "seed.dsoft.mseeds_per_s",
        seconds("seed.dsoft"),
        mega(counts.seeds_queried),
    );
    values.set("seed.dsoft.seeds_queried", counts.seeds_queried as f64);
    values.set("seed.dsoft.hits", counts.hits as f64);
    let ppm = |part: u64, whole: u64| pct(part as f64, whole as f64) * 1e4;
    values.set(
        "seed.dsoft.hit_yield_ppm",
        ppm(counts.hits, counts.seeds_queried),
    );

    let rate =
        |index: usize| per_second(mega(counts.engine_cells[index]), seconds(ENGINES[index].1));
    values.set("align.bsw_scalar.mcells_per_s", rate(0));
    values.set("align.bsw_batched.mcells_per_s", rate(1));
    values.set("align.bsw_simd.mcells_per_s", rate(2));
    values.set("align.bsw_batched_over_scalar_x100", pct(rate(1), rate(0)));
    values.set("align.bsw_simd_over_batched_x100", pct(rate(2), rate(1)));
    values.set("align.bsw.tiles", counts.hits as f64);
    values.set(
        "align.bsw.cells",
        counts.engine_cells[default_engine] as f64,
    );
    values.set(
        "align.bsw.pass_ppm",
        ppm(counts.anchors_passed, counts.hits),
    );

    values.set_timed(
        "align.gactx.ms",
        "align.gactx.mcells_per_s",
        seconds("align.gactx"),
        mega(counts.extension_cells),
    );
    values.set("align.gactx.extensions", counts.extensions as f64);
    values.set("align.gactx.tiles", counts.extension_tiles as f64);
    values.set("align.gactx.cells", counts.extension_cells as f64);
    values.set(
        "align.gactx.cells_per_matched_bp",
        per_second(counts.extension_cells as f64, counts.matched_bp as f64),
    );

    values.set(
        "core.filter_ctx.encode_ms",
        seconds("core.filter_ctx.encode") * 1e3,
    );
    values.set(
        "core.absorb.absorbed_pct",
        pct(counts.grid_absorbed as f64, counts.anchors_passed as f64),
    );
    values.set(
        "core.extend.kept_pct",
        pct(counts.kept as f64, counts.extensions as f64),
    );
    values.set_timed(
        "core.maf_write.ms",
        "core.maf_write.mb_per_s",
        seconds("core.maf_write"),
        mega(counts.maf_bytes),
    );
    values.set(
        "core.journal.append_ms",
        seconds("core.journal.append") * 1e3,
    );
    values.set("chain.chainer.ms", seconds("chain.chainer") * 1e3);
    values.set("chain.chainer.alignments_in", counts.kept as f64);
    values.set("chain.chainer.chains_out", counts.chains_out as f64);
}

/// The in-situ numbers: `traced`'s trace as `wga-profile` attributes it,
/// against the `untraced` pass of the same configuration.
fn in_situ_metrics(values: &mut Values, traced: &ProgramPass, untraced: &ProgramPass) {
    let profile = traced
        .profile
        .as_ref()
        .expect("the traced pass ran under a recorder");
    let attribution = &profile.attr;
    let stage_us = |stage: &str| {
        attribution
            .stages
            .iter()
            .find(|s| s.stage == stage)
            .map_or(0, |s| s.total_us) as f64
    };
    // The lane-level span where the executor records one, as the
    // profiler's own shares do.
    let extend_us = if stage_us("extend") > 0.0 {
        stage_us("extend")
    } else {
        stage_us("extend.tile")
    };
    values.set("trace.seed_table.us", stage_us("seed.table"));
    values.set("trace.seed.us", stage_us("seed"));
    values.set("trace.filter_batch.us", stage_us("filter.batch"));
    values.set("trace.extend.us", extend_us);
    values.set("trace.queue_wait.us", stage_us("queue.wait"));
    let centi = |value: u64| value as f64 / 100.0;
    values.set("trace.seed_share_pct", centi(attribution.seed_share_centi));
    values.set(
        "trace.filter_share_pct",
        centi(attribution.filter_share_centi),
    );
    values.set(
        "trace.extend_share_pct",
        centi(attribution.extend_share_centi),
    );
    let (busy, wait, idle) = attribution
        .workers
        .iter()
        .fold((0u64, 0u64, 0u64), |sum, w| {
            (sum.0 + w.busy_us, sum.1 + w.wait_us, sum.2 + w.idle_us)
        });
    let lifetime = (busy + wait + idle) as f64;
    values.set("trace.worker_busy_pct", pct(busy as f64, lifetime));
    values.set("trace.worker_wait_pct", pct(wait as f64, lifetime));
    values.set("trace.worker_idle_pct", pct(idle as f64, lifetime));
    values.set(
        "trace.critical_path.us",
        attribution.critical.as_ref().map_or(0, |c| c.total_us) as f64,
    );
    values.set("trace.spec_discard", attribution.spec_discard as f64);
    values.set("trace.discard_pct", centi(attribution.discard_centi));
    values.set(
        "trace.overhead_pct",
        pct(traced.wall_s - untraced.wall_s, untraced.wall_s),
    );
    if let Some((pairs, tables_built, dedup_dropped)) = traced.many {
        values.set("core.pangenome.pairs", pairs as f64);
        values.set("core.pangenome.tables_built", tables_built as f64);
        values.set("core.pangenome.dedup_dropped", dedup_dropped as f64);
        // Wall clock of the call that no top-level stage span covers:
        // sketching, the joblist, index bookkeeping, merge and dedup.
        let call_us = traced.wall_s * 1e6;
        values.set(
            "core.pangenome.orchestration_pct",
            pct(call_us - busy as f64, call_us),
        );
    }
}

/// Whether the replica is the program: its counts against the one-thread
/// trace's counters, and the engines against each other.
fn replica_agrees(
    config: &Config,
    counts: &Counts,
    check: &ProgramPass,
    default_engine: usize,
) -> bool {
    let counters = &check
        .profile
        .as_ref()
        .expect("the check pass ran under a recorder")
        .counters;
    let mut agreed = true;
    for (what, replica_value, trace_name) in [
        ("filter tiles", counts.hits, "filter.tiles"),
        (
            "filter cells",
            counts.engine_cells[default_engine],
            "filter.cells",
        ),
        ("extension cells", counts.extension_cells, "extend.cells"),
        ("kept alignments", counts.kept, "alignments.kept"),
    ] {
        let trace_value = counters.get(trace_name).copied().unwrap_or(0);
        let same = replica_value == trace_value;
        agreed &= same;
        println!(
            "check: {what}: replica {replica_value}, trace {trace_name} {trace_value}: {}",
            if same { "equal" } else { "DIFFERENT" }
        );
    }
    let program_tables = check.many.map(|(_, tables_built, _)| tables_built);
    if config.many && program_tables != Some(counts.tables_built) {
        agreed = false;
        println!(
            "check: the replica built {} tables, the program {program_tables:?}: DIFFERENT",
            counts.tables_built
        );
    }
    println!(
        "check: engines over {} tiles: cells {:?}, anchors {:?}: {}",
        counts.hits,
        counts.engine_cells,
        counts.engine_anchors,
        if counts.engines_disagree {
            "DIFFERENT"
        } else {
            "equal"
        }
    );
    agreed && !counts.engines_disagree
}

fn real_main() -> Result<bool, String> {
    let config = parse_args()?;
    let (mut spans, mut counts) = (Spans::default(), Counts::default());
    let genomes: Vec<Assembly> = config
        .files
        .iter()
        .map(|f| read_assembly(f, &mut spans, &mut counts))
        .collect::<Result<_, _>>()?;
    let base = WgaParams::darwin_wga();
    // `wga many` scales the k-mer frequency cap with the genome count.
    let replica_params = if config.many {
        pangenome::index::scaled_params(&base, genomes.len())
    } else {
        base.clone()
    };
    replica(&config, &replica_params, &genomes, &mut spans, &mut counts)?;

    // In situ. The check pass is serial at one thread. A workload that
    // runs on more threads adds a traced pass of its own configuration,
    // one of the barrier executor at the same thread count, and the
    // one-thread pass both are measured against: untraced like them, so
    // the recorder's overhead is on neither side of the ratio.
    let pass = |threads, executor, traced| {
        program_pass(&config, &base, &genomes, threads, executor, traced)
    };
    let check = pass(1, ExecutorKind::Barrier, true)?;
    let untraced = pass(config.threads, config.executor, false)?;
    let threaded = if config.threads > 1 {
        Some((
            pass(config.threads, config.executor, true)?,
            pass(config.threads, ExecutorKind::Barrier, false)?,
            pass(1, ExecutorKind::Barrier, false)?,
        ))
    } else {
        None
    };

    let mut values = Values::new();
    let default_engine = default_engine(&base);
    isolated_metrics(&mut values, &spans, &counts, default_engine);
    let traced = threaded.as_ref().map_or(&check, |(traced, _, _)| traced);
    in_situ_metrics(&mut values, traced, &untraced);
    if let Some((_, barrier, one_thread)) = &threaded {
        for (wall, cpu, against) in [
            (
                "core.dataflow_t2.wall_pct_of_t1",
                "core.dataflow_t2.cpu_pct_of_t1",
                &untraced,
            ),
            (
                "core.barrier_t2.wall_pct_of_t1",
                "core.barrier_t2.cpu_pct_of_t1",
                barrier,
            ),
        ] {
            values.set(wall, pct(against.wall_s, one_thread.wall_s));
            values.set(cpu, pct(against.cpu_s, one_thread.cpu_s));
        }
    }
    for metric in &dict::PER_LAYER {
        println!("metric\t{}\t{}", metric.name, values.0[metric.name]);
    }
    Ok(replica_agrees(&config, &counts, &check, default_engine))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("layers: {message}");
            ExitCode::from(2)
        }
    }
}
