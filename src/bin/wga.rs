//! `wga` — command-line whole-genome aligner. `USAGE` lists every
//! subcommand's options; what each subcommand does:
//!
//! ```text
//! wga generate <prefix>
//!     Write a synthetic species pair to <prefix>.target.fa /
//!     <prefix>.query.fa plus <prefix>.exons.tsv with the ground-truth
//!     conserved elements. --len is the ancestor's bases over all
//!     chromosomes, split evenly and the remainder dropped (so at least
//!     --chroms); a chromosome whose descendants would pass what a
//!     `u32` position addresses is refused.
//!
//! wga align <target.fa> <query.fa>
//!     Align query to target with Darwin-WGA (or the LASTZ-like baseline
//!     with --baseline); print a run summary and the top chains; write
//!     MAF if requested. --threads picks the schedule: 1 (the default)
//!     is a plain loop on the calling thread; N > 1 runs the dataflow
//!     executor: one producer plans, a pool of N workers seeds, filters
//!     and extends, and pairs stream through bounded queues of capacity
//!     --queue-depth (results are byte-identical either way).
//!     --executor is still accepted and changes nothing. --metrics-out writes the schedule's per-stage
//!     telemetry as JSON (`"executor"` is `barrier` at one thread and
//!     `dataflow` above), with the process's resident
//!     high-water and its anonymous / file-backed split under
//!     `"process"` where `/proc/self/status` is readable. --trace-out
//!     writes one JSON line per pipeline span plus latency histograms (see DESIGN.md
//!     "Observability"). --progress keeps a throttled one-line status on
//!     stderr (pairs done, filter survival, cells/s and ETA of the pairs
//!     this run computes), advancing as each chromosome pair finishes.
//!     Neither flag changes results.
//!     --filter-engine picks the BSW kernel for gapped filtering:
//!     `scalar`, the row-major reference, or `simd` (the default), the
//!     anti-diagonal wavefront, which runs a tile in explicit SSE2/AVX2
//!     16-bit lanes wherever its scores fit them and in exact 32-bit
//!     lanes otherwise. Results are identical either way, and a
//!     --checkpoint journal resumes under either engine. --shard-size sets the
//!     bases per query range (rounded up to whole D-SOFT chunks; default
//!     2048): a strand is seeded and filtered one range at a time on
//!     every schedule, so a range's seed hits are the most a worker ever
//!     holds and no strand-long hit list exists. Purely a scheduling
//!     knob: output is byte-identical for any value. --checkpoint
//!     makes completed pairs durable in a journal so an interrupted run
//!     resumes where it left off (at any --filter-engine and
//!     --shard-size; the other parameters must match). The
//!     --max-*/--deadline-ms budgets
//!     bound work per pair; a tripped budget degrades the run
//!     (truncating the worst-scoring work first) instead of aborting it.
//!     --fault-plan loads a deterministic fault-injection plan for chaos
//!     testing (see DESIGN.md "Fault injection & supervision"). --max-retries sets
//!     the supervised retry budget per fault site (default 1);
//!     --stall-timeout-ms arms the dataflow stall watchdog (0, the
//!     default, disables it). The MAF, metrics and trace artifacts are
//!     written atomically (tmp + fsync + rename), so an interrupted run
//!     never leaves a torn output file.
//!
//! wga exons <alignments.maf> <exons.tsv>
//!     Score exon recovery: which intervals from a `wga generate`
//!     exons.tsv the MAF's alignments cover (≥ --coverage, default 0.5).
//!
//! wga many <genome1.fa> <genome2.fa> [more.fa ...]
//!     Many-genome mode: align every unordered pair of the genome set
//!     as one run of the pairwise pipeline over the pair matrix, each
//!     target chromosome's seed table built once for every genome pair
//!     with that target (the k-mer frequency cap scales with genome
//!     count). --knn K aligns only pairs where either
//!     genome ranks the other among its K nearest by sketch distance.
//!     Overlapping alignments are deduplicated by a plane sweep;
//!     --paf-out writes the survivors as PAF and --report-out the
//!     canonical report, both atomically. --checkpoint names a
//!     *directory* holding one journal per genome pair, so an
//!     interrupted run resumes at chromosome-pair granularity. A
//!     --fault-plan's "pair" is a chromosome pair's id over the whole
//!     matrix. Output is
//!     byte-identical across thread counts and shard sizes.
//!     --progress keeps a throttled matrix-wide status line on stderr
//!     (chromosome pairs done across all genome pairs, ETA), advancing
//!     as each chromosome pair finishes.
//!
//! wga profile report <trace.jsonl>
//!     Analyse a --trace-out artifact: per-stage time attribution,
//!     busy/queue-wait/idle per worker, a critical-path estimate
//!     through seed -> filter -> extend, the K slowest filter batches
//!     and extension tiles, and the workload's modeled FPGA cycles.
//!     --json (or --baseline) writes the integer-only
//!     profile_report.json atomically, byte-identical for one trace.
//!
//! wga profile diff <old.json> <new.json>
//!     Exit nonzero when a stage's share of pipeline time grew by more
//!     than --max-share-regression-centi (default 500 = 5 points).
//!
//! In every subcommand --help (or -h) prints the usage and exits 0, and
//! an argument starting with `--` that is not one of the subcommand's
//! options — or is a second occurrence of one — is an error, never a
//! file name. `align` and `many` check every option and output path
//! before they read the first input byte.
//! ```

use darwin_wga::align::Alignment;
use darwin_wga::chain::chainer::chain_alignments;
use darwin_wga::chain::metrics;
use darwin_wga::core::config::{ResourceBudget, WgaParams};
use darwin_wga::core::dataflow::{ExecutorKind, DEFAULT_QUEUE_DEPTH};
use darwin_wga::core::durable;
use darwin_wga::core::error::WgaError;
use darwin_wga::core::faultsim::{FaultInjector, FaultPlan, Hook, PAIRLESS};
use darwin_wga::core::genome_pipeline::{align_assemblies_observed, AlignOptions};
use darwin_wga::core::json::Json;
use darwin_wga::core::maf;
use darwin_wga::core::obs::{Obs, ProgressMeter, SpanName, TraceRecorder, STRAND_NA};
use darwin_wga::core::report::RunOutcome;
use darwin_wga::core::supervise::{self, RetryPolicy};
use darwin_wga::genome::annotation::CoordinateMap;
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use darwin_wga::genome::{fasta, Sequence};
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage_only = args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h");
    let result = if usage_only {
        eprint!("{}", USAGE);
        Ok(())
    } else {
        match args[0].as_str() {
            "generate" => cmd_generate(&args[1..]),
            "align" => cmd_align(&args[1..]),
            "exons" => cmd_exons(&args[1..]),
            "many" => cmd_many(&args[1..]),
            "profile" => cmd_profile(&args[1..]),
            other => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  wga generate <prefix> [--len N] [--distance D] [--seed S] [--chroms N]
            (--len is split evenly over --chroms, the remainder dropped)
  wga align <target.fa> <query.fa> [--baseline] [--threads N] [--maf out.maf]
            [--queue-depth N]
            [--metrics-out metrics.json] [--trace-out trace.jsonl] [--progress]
            (--progress advances as each chromosome pair finishes)
            [--filter-engine scalar|simd] [--shard-size N]
            [--checkpoint run.journal]
            [--max-seed-hits N] [--max-filter-tiles N]
            [--max-extension-cells N] [--deadline-ms N]
            [--fault-plan plan.json] [--max-retries N] [--stall-timeout-ms N]
  wga exons <alignments.maf> <exons.tsv> [--coverage F]
  wga many <genome1.fa> <genome2.fa> [more.fa ...] [--knn K]
           [--paf-out out.paf] [--report-out report.txt]
           [--baseline] [--threads N] [--queue-depth N]
           [--filter-engine scalar|simd]
           [--shard-size N] [--checkpoint dir] [--fault-plan plan.json]
           [--max-retries N] [--stall-timeout-ms N] [--progress]
  wga profile report <trace.jsonl> [--json out.json] [--baseline out.json]
                     [--top K]
  wga profile diff <old.json> <new.json> [--max-share-regression-centi N]
";

/// Pulls `--flag value` out of an argument list.
fn take_opt(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = args.remove(i + 1);
        args.remove(i);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// What is left once a subcommand has pulled out its options must be
/// positionals: anything still starting with `--` is a misspelt option or
/// the second occurrence of one, and would otherwise be taken for a file.
fn reject_leftover_options(args: &[String]) -> Result<(), String> {
    match args.iter().find(|a| a.starts_with("--")) {
        Some(arg) => Err(format!("unknown or repeated option {arg}\n{USAGE}")),
        None => Ok(()),
    }
}

/// Pulls `--flag value` out of an argument list and parses the value.
fn take_parsed<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, String> {
    let value = take_opt(args, flag)?;
    let parse = |v: String| {
        v.parse()
            .map_err(|_| format!("invalid value for {flag}: {v}"))
    };
    value.map(parse).transpose()
}

fn parse_opt<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    default: T,
) -> Result<T, String> {
    Ok(take_parsed(args, flag)?.unwrap_or(default))
}

/// The options `align` and `many` share, pulled out of the argument list
/// before either takes its own.
struct RunFlags {
    baseline: bool,
    progress: bool,
    threads: usize,
    queue_depth: usize,
    filter_engine: Option<String>,
    shard_size: Option<usize>,
    fault_plan: Option<String>,
    max_retries: u32,
    stall_timeout_ms: u64,
}

impl RunFlags {
    fn take(args: &mut Vec<String>) -> Result<RunFlags, String> {
        // `--threads` picks the schedule; `--executor` is still parsed, so
        // a misspelt one stays an error, and then dropped.
        take_parsed::<ExecutorKind>(args, "--executor")?;
        Ok(RunFlags {
            baseline: take_flag(args, "--baseline"),
            progress: take_flag(args, "--progress"),
            threads: parse_opt(args, "--threads", 1)?,
            queue_depth: parse_opt(args, "--queue-depth", DEFAULT_QUEUE_DEPTH)?,
            filter_engine: take_opt(args, "--filter-engine")?,
            shard_size: take_parsed(args, "--shard-size")?,
            fault_plan: take_opt(args, "--fault-plan")?,
            max_retries: parse_opt(args, "--max-retries", 1)?,
            stall_timeout_ms: parse_opt(args, "--stall-timeout-ms", 0)?,
        })
    }

    /// The run's parameters — the preset, its engine and range size, and
    /// `budget` — validated.
    fn params(&self, budget: ResourceBudget) -> Result<WgaParams, String> {
        let mut params = if self.baseline {
            WgaParams::lastz_baseline()
        } else {
            WgaParams::darwin_wga()
        };
        if let Some(engine) = &self.filter_engine {
            params.filter_engine = engine.parse()?;
        }
        if let Some(shard) = self.shard_size {
            params.shard_bases = shard;
        }
        params.budget = budget;
        params.validate().map_err(|e| e.to_string())?;
        Ok(params)
    }

    /// The `--fault-plan`, read and parsed.
    fn fault_plan(&self) -> Result<Option<Arc<FaultPlan>>, String> {
        let plan = self
            .fault_plan
            .as_ref()
            .map(|p| FaultPlan::from_file(std::path::Path::new(p)));
        plan.transpose()
            .map(|plan| plan.map(Arc::new))
            .map_err(|e| e.to_string())
    }

    /// The supervision of the hooks the CLI fires itself (FASTA reads and
    /// the metrics/trace sinks): an injector drawn from `plan` and the
    /// retry policy they run under. The executors build their own
    /// injector from the same plan; occurrence spaces are disjoint by
    /// hook, so the split never double-injects.
    fn cli_supervision(&self, plan: Option<&FaultPlan>) -> (Option<FaultInjector>, RetryPolicy) {
        let injector = plan.map(|plan| FaultInjector::new(plan.clone(), self.max_retries));
        let policy = injector.as_ref().map_or(
            RetryPolicy {
                max_retries: self.max_retries,
                ..RetryPolicy::default()
            },
            FaultInjector::policy,
        );
        (injector, policy)
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let len: usize = parse_opt(&mut args, "--len", 100_000)?;
    let distance: f64 = parse_opt(&mut args, "--distance", 0.3)?;
    let seed: u64 = parse_opt(&mut args, "--seed", 42)?;
    let chroms: usize = parse_opt(&mut args, "--chroms", 1)?;
    reject_leftover_options(&args)?;
    let prefix = args
        .first()
        .ok_or_else(|| format!("generate needs an output prefix\n{USAGE}"))?;
    if chroms == 0 {
        return Err("--chroms must be at least 1".into());
    }
    // `inf`, `nan` and `-1` all parse as an `f64`; none is a distance.
    if !(distance.is_finite() && distance >= 0.0) {
        return Err(format!("invalid value for --distance: {distance}"));
    }
    // Split evenly, the remainder dropped: fewer bases than chromosomes
    // would be records of none.
    if len < chroms {
        return Err(format!(
            "--len must be at least --chroms ({len} < {chroms})"
        ));
    }
    let params = EvolutionParams::at_distance(distance);
    // Descendant lengths are drawn: leave a quarter over the expectation.
    let expected = params.expected_descendant_len(len / chroms);
    if expected.saturating_add(expected / 4) > CoordinateMap::MAX_DESCENDANT_LEN {
        return Err(format!(
            "--len: a chromosome of {} bases grows to about {expected} at distance {distance}, which exceed the {} a coordinate map can address",
            len / chroms,
            CoordinateMap::MAX_DESCENDANT_LEN
        ));
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut target_records = Vec::new();
    let mut query_records = Vec::new();
    let mut exons = String::from("#chrom\tlabel\tstart\tend\n");
    let (mut t_total, mut q_total, mut exon_total) = (0usize, 0usize, 0usize);
    for c in 0..chroms {
        let pair = SyntheticPair::generate(len / chroms, &params, &mut rng);
        let make = |name: String, sequence: Sequence| fasta::Record {
            description: format!(
                "{name} synthetic len={} distance={distance}",
                sequence.len()
            ),
            name,
            sequence,
        };
        for iv in &pair.target.conserved {
            exons.push_str(&format!(
                "chr{}\t{}\t{}\t{}\n",
                c + 1,
                iv.label,
                iv.start,
                iv.end
            ));
            exon_total += 1;
        }
        t_total += pair.target.sequence.len();
        q_total += pair.query.sequence.len();
        target_records.push(make(format!("chr{}", c + 1), pair.target.sequence));
        query_records.push(make(format!("chr{}", c + 1), pair.query.sequence));
    }

    let write_fa = |path: &str, records: &[fasta::Record]| -> Result<(), String> {
        let file = File::create(path).map_err(|e| format!("{path}: {e}"))?;
        fasta::write(BufWriter::new(file), records).map_err(|e| format!("{path}: {e}"))
    };
    write_fa(&format!("{prefix}.target.fa"), &target_records)?;
    write_fa(&format!("{prefix}.query.fa"), &query_records)?;
    let exon_path = format!("{prefix}.exons.tsv");
    std::fs::write(&exon_path, exons).map_err(|e| format!("{exon_path}: {e}"))?;

    println!(
        "wrote {prefix}.target.fa ({t_total} bp), {prefix}.query.fa ({q_total} bp), {exon_total} exons across {chroms} chromosome(s)"
    );
    Ok(())
}

/// Stages each output's tmp sibling, so an unwritable path fails before
/// the run, not after hours of alignment.
fn pre_open(paths: &[&Option<String>]) -> Result<(), String> {
    for path in paths.iter().copied().flatten() {
        durable::pre_open_check(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Reads one genome FASTA under the run's supervision: every attempt
/// passes the `fasta.read` fault gate, and a failed one is retried under
/// `policy`. The error names the file, an injected fault's too.
fn read_genome(
    path: &str,
    injector: Option<&FaultInjector>,
    policy: &RetryPolicy,
) -> Result<Assembly, String> {
    supervise::supervised(policy, injector, Hook::FastaRead, PAIRLESS, None, || {
        read_assembly(path).map_err(|message| WgaError::input(path, message))
    })
    .map_err(|e| match e {
        WgaError::Input { .. } => e.to_string(),
        injected => format!("{path}: {injected}"),
    })
}

fn read_assembly(path: &str) -> Result<Assembly, String> {
    let file = File::open(path).map_err(|e| e.to_string())?;
    let name = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string());
    // The file's length sizes each chromosome's buffer once.
    let byte_len = file
        .metadata()
        .map_or(0, |m| usize::try_from(m.len()).unwrap_or(0));
    let assembly = Assembly::from_fasta_sized(name, BufReader::new(file), byte_len)
        .map_err(|e| e.to_string())?;
    if assembly.is_empty() {
        return Err("no records".into());
    }
    Ok(assembly)
}

fn cmd_exons(args: &[String]) -> Result<(), String> {
    use darwin_wga::chain::chainer::Chain;
    use darwin_wga::chain::metrics::exon_recovery;
    use darwin_wga::genome::annotation::Interval;

    let mut args = args.to_vec();
    let coverage: f64 = parse_opt(&mut args, "--coverage", 0.5)?;
    reject_leftover_options(&args)?;
    // `nan`, `-1` and `1.5` all parse as an `f64`; none is a share.
    if !(coverage > 0.0 && coverage <= 1.0) {
        return Err(format!("invalid value for --coverage: {coverage}"));
    }
    if args.len() != 2 {
        return Err(format!("exons needs <alignments.maf> <exons.tsv>\n{USAGE}"));
    }
    let maf_file = File::open(&args[0]).map_err(|e| format!("{}: {e}", args[0]))?;
    let blocks =
        maf::read_maf(BufReader::new(maf_file)).map_err(|e| format!("{}: {e}", args[0]))?;

    // Group alignments per target chromosome.
    use std::collections::HashMap;
    let mut per_chrom: HashMap<String, Vec<Alignment>> = HashMap::new();
    for b in blocks {
        per_chrom
            .entry(b.target.name.clone())
            .or_default()
            .push(b.alignment);
    }

    // Parse the exon table: chrom \t label \t start \t end (or the
    // single-chromosome 3-column form: label \t start \t end).
    let text = std::fs::read_to_string(&args[1]).map_err(|e| format!("{}: {e}", args[1]))?;
    let mut exons_per_chrom: HashMap<String, Vec<Interval>> = HashMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let (chrom, label, start, end) = match fields.len() {
            4 => (fields[0].to_string(), fields[1], fields[2], fields[3]),
            3 => ("chr1".to_string(), fields[0], fields[1], fields[2]),
            _ => return Err(format!("{}: bad line: {line}", args[1])),
        };
        let start: usize = start.parse().map_err(|_| format!("bad start in: {line}"))?;
        let end: usize = end.parse().map_err(|_| format!("bad end in: {line}"))?;
        if start > end {
            return Err(format!("{}: bad line: {line}", args[1]));
        }
        exons_per_chrom
            .entry(chrom)
            .or_default()
            .push(Interval::new(start, end, label));
    }

    let (mut found, mut total) = (0usize, 0usize);
    let mut chroms: Vec<&String> = exons_per_chrom.keys().collect();
    chroms.sort();
    for chrom in chroms {
        let exons = &exons_per_chrom[chrom];
        let empty = Vec::new();
        let alignments = per_chrom.get(chrom).unwrap_or(&empty);
        // Treat each alignment as its own chain for coverage purposes.
        let chains: Vec<Chain> = (0..alignments.len())
            .map(|i| Chain {
                members: vec![i],
                score: alignments[i].score,
            })
            .collect();
        let r = exon_recovery(&chains, alignments, exons, coverage);
        println!(
            "{chrom}: {}/{} exons covered at >= {:.0}%",
            r.found,
            r.total,
            coverage * 100.0
        );
        found += r.found;
        total += r.total;
    }
    println!(
        "total: {found}/{total} ({:.1}%)",
        found as f64 / total.max(1) as f64 * 100.0
    );
    Ok(())
}

fn cmd_align(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let run = RunFlags::take(&mut args)?;
    let metrics_out = take_opt(&mut args, "--metrics-out")?;
    let trace_out = take_opt(&mut args, "--trace-out")?;
    let maf_path = take_opt(&mut args, "--maf")?;
    let checkpoint = take_opt(&mut args, "--checkpoint")?;
    let budget = ResourceBudget {
        max_seed_hits: take_parsed(&mut args, "--max-seed-hits")?,
        max_filter_tiles: take_parsed(&mut args, "--max-filter-tiles")?,
        max_extension_cells: take_parsed(&mut args, "--max-extension-cells")?,
        deadline: take_parsed(&mut args, "--deadline-ms")?.map(std::time::Duration::from_millis),
    };
    reject_leftover_options(&args)?;
    if args.len() != 2 {
        return Err(format!("align needs <target.fa> <query.fa>\n{USAGE}"));
    }

    let params = run.params(budget)?;
    let fault_plan = run.fault_plan()?;
    let options = AlignOptions {
        threads: run.threads,
        checkpoint: checkpoint.map(std::path::PathBuf::from),
        queue_depth: run.queue_depth,
        max_retries: run.max_retries,
        stall_timeout_ms: run.stall_timeout_ms,
        fault_plan: fault_plan.clone(),
        ..AlignOptions::default()
    };
    options.validate().map_err(|e| e.to_string())?;
    pre_open(&[&metrics_out, &trace_out, &maf_path])?;

    let (cli_injector, retry_policy) = run.cli_supervision(fault_plan.as_deref());
    let target = read_genome(&args[0], cli_injector.as_ref(), &retry_policy)?;
    let query = read_genome(&args[1], cli_injector.as_ref(), &retry_policy)?;
    let (recorder, meter) = start_recorder(trace_out.is_some(), run.progress);
    let obs = recorder.as_deref().map_or(Obs::off(), Obs::new);
    eprintln!(
        "aligning {} ({} chromosomes, {} bp) vs {} ({} chromosomes, {} bp) with {}...",
        target.name,
        target.len(),
        target.total_bases(),
        query.name,
        query.len(),
        query.total_bases(),
        if run.baseline {
            "LASTZ-like baseline"
        } else {
            "Darwin-WGA"
        },
    );

    let start = std::time::Instant::now();
    let result = align_assemblies_observed(&params, &target, &query, &options, obs);
    drop(meter);
    let report = result.map_err(|e| e.to_string())?;
    let wall = start.elapsed();

    println!("== run summary");
    println!("wall time:          {wall:?}");
    println!("seeds queried:      {}", report.workload.seeds);
    println!("filter tiles:       {}", report.workload.filter_tiles);
    println!("alignments:         {}", report.alignments.len());
    println!("matched base pairs: {}", report.total_matches());
    let completed = report.pairs.len() - report.degraded_pairs() - report.failed_pairs();
    println!(
        "chromosome pairs:   {} completed, {} degraded, {} failed ({} resumed from checkpoint)",
        completed,
        report.degraded_pairs(),
        report.failed_pairs(),
        report.resumed_pairs
    );
    if let Some(metrics) = &report.stage_metrics {
        println!("{}", metrics.summary());
    }
    for pair in &report.pairs {
        match &pair.outcome {
            RunOutcome::Completed => {}
            RunOutcome::Degraded { events } => eprintln!(
                "warning: {} vs {}: degraded ({} budget/batch events)",
                pair.target_chrom,
                pair.query_chrom,
                events.len()
            ),
            RunOutcome::Failed { error } => eprintln!(
                "warning: {} vs {}: failed: {error}",
                pair.target_chrom, pair.query_chrom
            ),
        }
    }

    // Per chromosome pair: chain and summarise.
    let qn = query.chromosomes().len();
    let mut chain_buf = obs.buffer();
    for (ti, tchrom) in target.chromosomes().iter().enumerate() {
        for (qi, qchrom) in query.chromosomes().iter().enumerate() {
            let alignments: Vec<&Alignment> = report
                .for_pair(&tchrom.name, &qchrom.name)
                .iter()
                .map(|la| &la.aligned.alignment)
                .collect();
            if alignments.is_empty() {
                continue;
            }
            let chain_timer = chain_buf.start();
            let chains = chain_alignments(&alignments, 3000);
            chain_buf.finish_for_pair(
                chain_timer,
                SpanName::Chain,
                (ti * qn + qi) as u64,
                STRAND_NA,
                0,
                chains.len() as u64,
                alignments.len() as u64,
            );
            println!(
                "== {} vs {}: {} alignments, {} chains, {} unique matched bp",
                tchrom.name,
                qchrom.name,
                alignments.len(),
                chains.len(),
                metrics::unique_matched_bases(&chains, &alignments)
            );
            for (i, chain) in chains.iter().take(5).enumerate() {
                let (t0, t1) = chain.target_span(&alignments);
                println!(
                    "   chain {:>2}: score {:>10}  members {:>3}  {}:{}..{}",
                    i + 1,
                    chain.score,
                    chain.len(),
                    tchrom.name,
                    t0,
                    t1
                );
            }
        }
    }
    chain_buf.flush();

    if let Some(path) = maf_path {
        // Rendered block by block into the tmp sibling, then placed
        // atomically: a crash mid-run can never leave a torn MAF at the
        // destination, and the file is never held in memory.
        durable::write_atomic_with(std::path::Path::new(&path), |out| {
            writeln!(out, "##maf version=1 scoring=darwin-wga")?;
            for tchrom in target.chromosomes() {
                for qchrom in query.chromosomes() {
                    let located = report.for_pair(&tchrom.name, &qchrom.name);
                    maf::write_maf_blocks(
                        &mut *out,
                        &tchrom.name,
                        &tchrom.sequence,
                        &qchrom.name,
                        &qchrom.sequence,
                        located.iter().map(|la| &la.aligned),
                    )?;
                }
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;
        println!("MAF written to {path}");
    }

    if let (Some(rec), Some(path)) = (&recorder, &trace_out) {
        let mut buf: Vec<u8> = Vec::new();
        rec.write_trace(&mut buf)
            .map_err(|e| format!("{path}: {e}"))?;
        let injector = cli_injector.as_ref();
        write_sink(path, &buf, Hook::TraceSink, injector, &retry_policy)?;
        println!("trace written to {path}");
    }

    // Last, so the `"process"` high-water covers the whole command:
    // chaining, the MAF and the trace included.
    if let (Some(metrics), Some(path)) = (&report.stage_metrics, &metrics_out) {
        let mut json = metrics.to_json();
        if let Some(process) = process_memory() {
            json.push("process", process);
        }
        write_sink(
            path,
            format!("{json}\n").as_bytes(),
            Hook::MetricsSink,
            cli_injector.as_ref(),
            &retry_policy,
        )?;
        println!("stage metrics written to {path}");
    }
    Ok(())
}

fn cmd_many(args: &[String]) -> Result<(), String> {
    use darwin_wga::core::pangenome::{self, ManyOptions};

    let mut args = args.to_vec();
    let run = RunFlags::take(&mut args)?;
    let knn: Option<usize> = take_parsed(&mut args, "--knn")?;
    let paf_out = take_opt(&mut args, "--paf-out")?;
    let report_out = take_opt(&mut args, "--report-out")?;
    let checkpoint_dir = take_opt(&mut args, "--checkpoint")?;
    reject_leftover_options(&args)?;
    if args.len() < 2 {
        return Err(format!("many needs at least two genome FASTAs\n{USAGE}"));
    }

    let params = run.params(ResourceBudget::default())?;
    let fault_plan = run.fault_plan()?;
    let (cli_injector, retry_policy) = run.cli_supervision(fault_plan.as_deref());
    let options = ManyOptions {
        threads: run.threads,
        queue_depth: run.queue_depth,
        max_retries: run.max_retries,
        stall_timeout_ms: run.stall_timeout_ms,
        fault_plan,
        checkpoint_dir: checkpoint_dir.map(std::path::PathBuf::from),
        knn,
        ..ManyOptions::default()
    };
    options.validate().map_err(|e| e.to_string())?;
    pre_open(&[&paf_out, &report_out])?;

    let genomes: Vec<Assembly> = args
        .iter()
        .map(|path| read_genome(path, cli_injector.as_ref(), &retry_policy))
        .collect::<Result<_, _>>()?;
    eprintln!(
        "many-genome alignment: {} genomes, {} total bp, knn={}...",
        genomes.len(),
        genomes.iter().map(Assembly::total_bases).sum::<usize>(),
        knn.map_or("all".to_string(), |k| k.to_string()),
    );

    // --progress runs the whole matrix under a trace recorder: the one
    // run announces the matrix's chromosome-pair total up front and the
    // meter renders pairs-done / ETA across genome pairs.
    let (recorder, meter) = start_recorder(false, run.progress);
    let obs = recorder.as_deref().map_or(Obs::off(), Obs::new);

    let start = std::time::Instant::now();
    let result = pangenome::align_many_observed(&params, &genomes, &options, obs);
    drop(meter);
    let report = result.map_err(|e| e.to_string())?;
    let wall = start.elapsed();

    println!("== many-genome summary");
    println!("wall time: {wall:?}");
    println!("{}", report.summary());
    for pair in report.pairs.iter().filter(|p| p.failed > 0) {
        eprintln!(
            "warning: {} vs {}: {} chromosome pair(s) failed",
            pair.target_genome, pair.query_genome, pair.failed
        );
    }
    if let Some(path) = report_out {
        durable::write_atomic(
            std::path::Path::new(&path),
            report.canonical_text().as_bytes(),
        )
        .map_err(|e| e.to_string())?;
        println!("canonical report written to {path}");
    }
    if let Some(path) = paf_out {
        let paf = pangenome::paf::paf_text(&report, &genomes);
        durable::write_atomic(std::path::Path::new(&path), paf.as_bytes())
            .map_err(|e| e.to_string())?;
        println!("PAF written to {path}");
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    use darwin_wga::profile::{diff as pdiff, ProfileReport, TraceFile};

    match args.first().map(String::as_str) {
        Some("report") => {
            let mut args = args[1..].to_vec();
            let json_out = take_opt(&mut args, "--json")?;
            let baseline_out = take_opt(&mut args, "--baseline")?;
            let top: usize = parse_opt(&mut args, "--top", 5)?;
            reject_leftover_options(&args)?;
            let [trace_path] = args.as_slice() else {
                return Err(format!("profile report needs one <trace.jsonl>\n{USAGE}"));
            };

            let file = File::open(trace_path).map_err(|e| format!("{trace_path}: {e}"))?;
            let trace =
                TraceFile::read(BufReader::new(file)).map_err(|e| format!("{trace_path}: {e}"))?;
            let report = ProfileReport::build(&trace, top);
            print!("{}", report.render_table());
            for path in [&json_out, &baseline_out].into_iter().flatten() {
                durable::write_atomic(std::path::Path::new(path), report.to_json().as_bytes())
                    .map_err(|e| e.to_string())?;
                println!("profile report written to {path}");
            }
            Ok(())
        }
        Some("diff") => {
            let mut args = args[1..].to_vec();
            let thresholds = pdiff::Thresholds {
                share_regression_centi: parse_opt(
                    &mut args,
                    "--max-share-regression-centi",
                    pdiff::Thresholds::default().share_regression_centi,
                )?,
            };
            reject_leftover_options(&args)?;
            let [old_path, new_path] = args.as_slice() else {
                return Err(format!("profile diff needs <old.json> <new.json>\n{USAGE}"));
            };
            let load = |path: &str| -> Result<pdiff::ReportSummary, String> {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                pdiff::ReportSummary::from_json(&text).map_err(|e| format!("{path}: {e}"))
            };
            let outcome = pdiff::diff(&load(old_path)?, &load(new_path)?, &thresholds);
            print!("{}", outcome.render());
            if outcome.is_pass() {
                Ok(())
            } else {
                Err(format!(
                    "profile diff found {} regression(s)",
                    outcome.regressions.len()
                ))
            }
        }
        _ => Err(format!(
            "profile needs a 'report' or 'diff' subcommand\n{USAGE}"
        )),
    }
}

/// The run's trace recorder, when `--trace-out` (`traced`) or
/// `--progress` needs one, and the `--progress` meter reading it; the
/// meter's line stops when it is dropped.
fn start_recorder(
    traced: bool,
    progress: bool,
) -> (Option<Arc<TraceRecorder>>, Option<ProgressMeter>) {
    let recorder = (traced || progress).then(|| Arc::new(TraceRecorder::new()));
    let meter = recorder.clone().filter(|_| progress);
    let interval = std::time::Duration::from_millis(200);
    (
        recorder,
        meter.map(|rec| ProgressMeter::start(rec, interval)),
    )
}

/// The run's memory as the kernel counts it in `/proc/self/status`, as the
/// `--metrics-out` `"process"` object (KiB): the resident high-water and
/// the resident set now, split into anonymous and file-backed pages.
/// `None` where the file or a field cannot be read.
fn process_memory() -> Option<Json> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = |field: &str| -> Option<u64> {
        status.lines().find_map(|line| {
            let value = line.strip_prefix(field)?.strip_prefix(':')?;
            value.trim().strip_suffix("kB")?.trim_end().parse().ok()
        })
    };
    Some(Json::obj([
        ("vm_hwm_kb", kb("VmHWM")?.into()),
        ("rss_anon_kb", kb("RssAnon")?.into()),
        ("rss_file_kb", kb("RssFile")?.into()),
    ]))
}

/// Writes one output artifact atomically under supervision: the write is
/// retried with the run's backoff policy, and chaos runs inject
/// `metrics.sink` / `trace.sink` faults through the gate inside
/// [`durable::write_atomic_gated`].
fn write_sink(
    path: &str,
    bytes: &[u8],
    hook: Hook,
    injector: Option<&FaultInjector>,
    policy: &RetryPolicy,
) -> Result<(), String> {
    let gate = injector.map(|inj| (inj, hook));
    supervise::supervised(policy, None, hook, PAIRLESS, None, || {
        durable::write_atomic_gated(std::path::Path::new(path), bytes, gate)
    })
    .map_err(|e| e.to_string())
}
