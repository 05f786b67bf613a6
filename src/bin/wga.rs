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
//!     executor: the calling thread plans, a pool of N workers seeds,
//!     filters, extends and journals, and ranges stream through one
//!     bounded queue, 4 tasks deep (results are byte-identical either
//!     way). --threads is at most 1024.
//!     --executor is still accepted and changes nothing. --trace-out
//!     writes one JSON line per pipeline span and funnel counter (see
//!     DESIGN.md "Observability"). --metrics-out writes the profile of
//!     the same spans, the bytes `wga profile report <trace> --json`
//!     writes, with the process's resident high-water and its anonymous
//!     / file-backed split as one more line, `"process"`, where
//!     `/proc/self/status` is readable. --progress keeps a throttled
//!     one-line status on stderr (pairs done, filter survival, cells/s
//!     and ETA of the pairs this run computes), advancing as each
//!     chromosome pair finishes. None of the three changes results.
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
//!     --max-filter-tiles and --max-extension-cells budgets bound work
//!     per pair; a tripped budget degrades the run (filter tiles past
//!     the cap in positional order, extensions worst-scoring first)
//!     instead of aborting it.
//!     --fault-plan loads a deterministic fault-injection plan for chaos
//!     testing (see DESIGN.md "Fault injection & crash-only recovery").
//!     Nothing is retried: an injected fault fails its pair, or at a
//!     journal, FASTA read or sink ends the command with exit 1, and a
//!     `crash` aborts the process; a rerun with the same --checkpoint
//!     resumes from the journal. The metrics and trace count the faults
//!     of pairs that failed, but not a sink's, which ends the command
//!     once its file is rendered. The MAF, metrics and trace artifacts are
//!     written atomically (tmp + fsync + rename), so an interrupted run
//!     never leaves a torn output file; a FIFO or character device
//!     (`/dev/null`, `/dev/stdout` on a pipe) is written in place.
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
//!     as each chromosome pair finishes; --trace-out and --metrics-out
//!     trace and measure the whole matrix as they do an `align` run.
//!
//! wga profile report <trace.jsonl>
//!     Analyse a --trace-out artifact: per-stage time attribution,
//!     busy/queue-wait/idle per worker, a critical-path estimate
//!     through seed -> filter -> extend, the K slowest filter batches
//!     and extension tiles, and the workload's modeled FPGA cycles.
//!     --json writes the integer-only
//!     profile_report.json atomically, byte-identical for one trace.
//!
//! wga profile diff <old.json> <new.json>
//!     Exit nonzero when a stage's share of pipeline time grew by more
//!     than --max-share-regression-centi (default 500 = 5 points).
//!     Either file may be a --metrics-out file.
//!
//! In every subcommand --help (or -h) prints the usage and exits 0, and
//! an argument starting with `--` that is not one of the subcommand's
//! options — or is a second occurrence of one — is an error, never a
//! file name. `align` and `many` check every option and output path
//! before they read the first input byte: an output may not be an
//! input (by any spelling or link), another output, a directory, or —
//! for a --checkpoint journal — anything but a regular file, and a run
//! that fails leaves no tmp file behind.
//! ```

use darwin_wga::align::Alignment;
use darwin_wga::chain::chainer::chain_alignments;
use darwin_wga::chain::metrics;
use darwin_wga::core::config::{ResourceBudget, WgaParams};
use darwin_wga::core::dataflow::ExecutorKind;
use darwin_wga::core::durable;
use darwin_wga::core::error::WgaError;
use darwin_wga::core::faultsim::{FaultInjector, FaultPlan, Hook};
use darwin_wga::core::genome_pipeline::{align_assemblies_observed, AlignOptions};
use darwin_wga::core::journal;
use darwin_wga::core::json::Json;
use darwin_wga::core::maf;
use darwin_wga::core::obs::{Obs, ProgressMeter, SpanName, SpanTimer, TraceRecorder, STRAND_NA};
use darwin_wga::core::report::RunOutcome;
use darwin_wga::genome::annotation::CoordinateMap;
use darwin_wga::genome::assembly::Assembly;
use darwin_wga::genome::evolve::{EvolutionParams, SyntheticPair};
use darwin_wga::genome::{fasta, Sequence};
use darwin_wga::profile::{ProfileReport, TraceFile};
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufReader, Write as _};
use std::path::{Path, PathBuf};
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
            [--metrics-out metrics.json] [--trace-out trace.jsonl] [--progress]
            (--progress advances as each chromosome pair finishes)
            [--filter-engine scalar|simd] [--shard-size N]
            [--checkpoint run.journal]
            [--max-filter-tiles N] [--max-extension-cells N]
            [--fault-plan plan.json]
  wga exons <alignments.maf> <exons.tsv> [--coverage F]
  wga many <genome1.fa> <genome2.fa> [more.fa ...] [--knn K]
           [--paf-out out.paf] [--report-out report.txt]
           [--metrics-out metrics.json] [--trace-out trace.jsonl]
           [--baseline] [--threads N]
           [--filter-engine scalar|simd]
           [--shard-size N] [--checkpoint dir] [--fault-plan plan.json]
           [--progress]
  wga profile report <trace.jsonl> [--json out.json] [--top K]
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
    /// The run's options but the fault plan and `knn`, set at the start.
    options: AlignOptions,
    filter_engine: Option<String>,
    shard_size: Option<usize>,
    fault_plan: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

/// A started `align` or `many` run: its validated parameters and
/// options, its genomes, the one fault injector of its FASTA reads,
/// matrix run and trace/metrics sinks, and the recorder the trace, the
/// metrics and the progress meter read.
struct Run {
    flags: RunFlags,
    params: WgaParams,
    genomes: Vec<Assembly>,
    injector: Option<FaultInjector>,
    recorder: Option<Arc<TraceRecorder>>,
    /// Dropped with the run, so any return — an error's too — removes
    /// each tmp sibling no write consumed.
    _staged: durable::Staged,
}

impl RunFlags {
    fn take(args: &mut Vec<String>) -> Result<RunFlags, String> {
        // `--threads` picks the schedule; `--executor` is still parsed, so
        // a misspelt one stays an error, and then dropped.
        take_parsed::<ExecutorKind>(args, "--executor")?;
        Ok(RunFlags {
            baseline: take_flag(args, "--baseline"),
            progress: take_flag(args, "--progress"),
            options: AlignOptions {
                threads: parse_opt(args, "--threads", 1)?,
                checkpoint: take_opt(args, "--checkpoint")?.map(PathBuf::from),
                ..AlignOptions::default()
            },
            filter_engine: take_opt(args, "--filter-engine")?,
            shard_size: take_parsed(args, "--shard-size")?,
            fault_plan: take_opt(args, "--fault-plan")?,
            trace_out: take_opt(args, "--trace-out")?,
            metrics_out: take_opt(args, "--metrics-out")?,
        })
    }

    /// Checks every option and output before the first input byte is
    /// read, then reads the genome `fastas` behind the run's fault gate.
    /// The parameters are the preset with its engine, range size and
    /// `budget`; the options gain the fault plan and `knn`. `outputs` are
    /// the command's own beside the trace and the metrics; the checkpoint
    /// is one too where it is a `journal` file, not a directory.
    /// Returns the run and the `--progress` meter, whose line stops when
    /// it is dropped.
    fn start(
        mut self,
        budget: ResourceBudget,
        knn: Option<usize>,
        fastas: &[String],
        outputs: &[(&str, &Option<String>)],
        journal: bool,
    ) -> Result<(Run, Option<ProgressMeter>), String> {
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
        let plan = self
            .fault_plan
            .as_deref()
            .map(|p| FaultPlan::from_file(Path::new(p)));
        self.options.fault_plan = plan.transpose().map_err(|e| e.to_string())?.map(Arc::new);
        self.options.knn = knn;
        self.options.validate().map_err(|e| e.to_string())?;

        let sinks = [
            ("--trace-out", &self.trace_out),
            ("--metrics-out", &self.metrics_out),
        ];
        let replaced: Vec<(&str, &Path)> = (outputs.iter().chain(&sinks))
            .filter_map(|&(flag, path)| Some((flag, Path::new(path.as_deref()?))))
            .collect();
        let checkpoint = self.options.checkpoint.as_deref().filter(|_| journal);
        let inputs: Vec<&Path> = (fastas.iter().chain(&self.fault_plan))
            .map(Path::new)
            .collect();
        let staged = durable::pre_open_outputs(
            &replaced,
            checkpoint.map(|path| ("--checkpoint", path)),
            &inputs,
        )
        .map_err(|e| e.to_string())?;
        // Another run's journal is refused before either FASTA is read.
        if let Some(path) = checkpoint {
            journal::check_header(path, &journal::params_fingerprint(&params))
                .map_err(|e| e.to_string())?;
        }

        let observed = self.trace_out.is_some() || self.metrics_out.is_some() || self.progress;
        let recorder = observed.then(|| Arc::new(TraceRecorder::new()));
        let mut run = Run {
            injector: self.options.injector(),
            flags: self,
            params,
            genomes: Vec::new(),
            recorder,
            _staged: staged,
        };
        run.genomes = (fastas.iter())
            .map(|path| read_genome(path, run.obs()))
            .collect::<Result<_, _>>()?;
        let interval = std::time::Duration::from_millis(200);
        let meter = (run.recorder.clone().filter(|_| run.flags.progress))
            .map(|rec| ProgressMeter::start(rec, interval));
        Ok((run, meter))
    }
}

impl Run {
    /// The command's one handle: its recorder and its fault injector,
    /// if any.
    fn obs(&self) -> Obs<'_> {
        let obs = self.recorder.as_deref().map_or(Obs::off(), Obs::new);
        (self.injector.as_ref()).map_or(obs, |injector| obs.with_injector(injector))
    }

    /// Writes the trace, then the metrics: the profile of the
    /// recorder's spans, as `wga profile report --json` writes it, with
    /// the process's memory as its first member, `"process"`. Last, so
    /// its high-water covers the whole command, every other output
    /// included.
    fn finish(&self) -> Result<(), String> {
        if let (Some(rec), Some(path)) = (&self.recorder, &self.flags.trace_out) {
            let mut buf: Vec<u8> = Vec::new();
            rec.write_trace(&mut buf)
                .map_err(|e| format!("{path}: {e}"))?;
            self.write_sink(path, &buf, Hook::TraceSink)?;
            println!("trace written to {path}");
        }
        if let (Some(rec), Some(path)) = (&self.recorder, &self.flags.metrics_out) {
            let trace = TraceFile::from_lines(rec.lines()).map_err(|e| format!("{path}: {e}"))?;
            let mut doc = ProfileReport::build(&trace, 5).to_doc();
            if let (Json::Obj(members), Some(process)) = (&mut doc, process_memory()) {
                members.insert(0, ("process".to_string(), process));
            }
            self.write_sink(path, doc.to_lines().as_bytes(), Hook::MetricsSink)?;
            println!("stage metrics written to {path}");
        }
        Ok(())
    }

    /// Writes one output artifact atomically, once: a failed write ends
    /// the command with exit 1, and the journal of a `--checkpoint` run
    /// stays as its last append left it. Chaos runs inject
    /// `metrics.sink` / `trace.sink` faults through the gate inside
    /// [`durable::write_atomic_gated`], after both artifacts are
    /// rendered, so neither counts them.
    fn write_sink(&self, path: &str, bytes: &[u8], hook: Hook) -> Result<(), String> {
        durable::write_atomic_gated(Path::new(path), bytes, hook, &self.obs())
            .map_err(|e| e.to_string())
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let len: usize = parse_opt(&mut args, "--len", 100_000)?;
    let distance: f64 = parse_opt(&mut args, "--distance", 0.3)?;
    let seed: u64 = parse_opt(&mut args, "--seed", 42)?;
    let chroms: usize = parse_opt(&mut args, "--chroms", 1)?;
    reject_leftover_options(&args)?;
    let (prefix, stray) = args
        .split_first()
        .ok_or_else(|| format!("generate needs an output prefix\n{USAGE}"))?;
    if let Some(arg) = stray.first() {
        return Err(format!(
            "unexpected argument {arg}: generate takes one <prefix>\n{USAGE}"
        ));
    }
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
        let pair = SyntheticPair::generate_seeded(len / chroms, &params, &mut rng);
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

    // `fasta::write` renders a file whole and writes it at once.
    let write_fa = |path: &str, records: &[fasta::Record]| -> Result<(), String> {
        let file = File::create(path).map_err(|e| format!("{path}: {e}"))?;
        fasta::write(file, records).map_err(|e| format!("{path}: {e}"))
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

/// Reads one genome FASTA behind the `fasta.read` fault gate of `obs`'s
/// injector, once. The error names the file, an injected fault's too.
fn read_genome(path: &str, obs: Obs<'_>) -> Result<Assembly, String> {
    obs.io_gate(Hook::FastaRead)
        .map_err(|injected| format!("{path}: {injected}"))?;
    read_assembly(path).map_err(|message| WgaError::input(path, message).to_string())
}

fn read_assembly(path: &str) -> Result<Assembly, String> {
    let file = File::open(path).map_err(|e| e.to_string())?;
    let name = Path::new(path)
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
    let flags = RunFlags::take(&mut args)?;
    let maf_path = take_opt(&mut args, "--maf")?;
    let budget = ResourceBudget {
        max_filter_tiles: take_parsed(&mut args, "--max-filter-tiles")?,
        max_extension_cells: take_parsed(&mut args, "--max-extension-cells")?,
    };
    reject_leftover_options(&args)?;
    if args.len() != 2 {
        return Err(format!("align needs <target.fa> <query.fa>\n{USAGE}"));
    }

    let (run, meter) = flags.start(budget, None, &args, &[("--maf", &maf_path)], true)?;
    let (target, query) = (&run.genomes[0], &run.genomes[1]);
    let obs = run.obs();
    eprintln!(
        "aligning {} ({} chromosomes, {} bp) vs {} ({} chromosomes, {} bp) with {}...",
        target.name,
        target.len(),
        target.total_bases(),
        query.name,
        query.len(),
        query.total_bases(),
        if run.flags.baseline {
            "LASTZ-like baseline"
        } else {
            "Darwin-WGA"
        },
    );

    let clock = SpanTimer::now();
    let result = align_assemblies_observed(&run.params, target, query, &run.flags.options, obs);
    drop(meter);
    let report = result.map_err(|e| e.to_string())?;
    let wall = clock.read();

    println!("== run summary");
    println!("wall time:          {wall:?}");
    println!("seeds queried:      {}", report.workload.seeds);
    println!("filter tiles:       {}", report.workload.filter_tiles);
    let alignments: usize = report.pairs.iter().map(|p| p.alignments.len()).sum();
    println!("alignments:         {alignments}");
    println!("matched base pairs: {}", report.total_matches());
    let completed = report.pairs.len() - report.degraded_pairs() - report.failed_pairs();
    println!(
        "chromosome pairs:   {} completed, {} degraded, {} failed ({} resumed from checkpoint)",
        completed,
        report.degraded_pairs(),
        report.failed_pairs(),
        report.resumed_pairs
    );
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

    // Per chromosome pair, in pair-id order (`ti * qn + qi`): chain and
    // summarise.
    let mut chain_buf = obs.buffer();
    for (pair_id, pair) in report.pairs.iter().enumerate() {
        let alignments: Vec<&Alignment> = pair.alignments.iter().map(|a| &a.alignment).collect();
        if alignments.is_empty() {
            continue;
        }
        let chain_timer = chain_buf.start();
        let chains = chain_alignments(&alignments, 3000);
        chain_buf.finish_for_pair(
            chain_timer,
            SpanName::Chain,
            pair_id as u64,
            STRAND_NA,
            0,
            chains.len() as u64,
            alignments.len() as u64,
        );
        println!(
            "== {} vs {}: {} alignments, {} chains, {} unique matched bp",
            pair.target_chrom,
            pair.query_chrom,
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
                pair.target_chrom,
                t0,
                t1
            );
        }
    }
    chain_buf.flush();

    if let Some(path) = maf_path {
        // Rendered block by block into the tmp sibling, then placed
        // atomically: a crash mid-run can never leave a torn MAF at the
        // destination, and the file is never held in memory.
        let chroms = (target.chromosomes().iter())
            .flat_map(|t| query.chromosomes().iter().map(move |q| (t, q)));
        durable::write_atomic_with(Path::new(&path), |out| {
            writeln!(out, "##maf version=1 scoring=darwin-wga")?;
            for ((tchrom, qchrom), pair) in chroms.zip(&report.pairs) {
                maf::write_maf_blocks(
                    &mut *out,
                    &tchrom.name,
                    &tchrom.sequence,
                    &qchrom.name,
                    &qchrom.sequence,
                    &pair.alignments,
                )?;
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;
        println!("MAF written to {path}");
    }

    run.finish()
}

fn cmd_many(args: &[String]) -> Result<(), String> {
    use darwin_wga::core::pangenome;

    let mut args = args.to_vec();
    let flags = RunFlags::take(&mut args)?;
    let knn: Option<usize> = take_parsed(&mut args, "--knn")?;
    let paf_out = take_opt(&mut args, "--paf-out")?;
    let report_out = take_opt(&mut args, "--report-out")?;
    reject_leftover_options(&args)?;
    if args.len() < 2 {
        return Err(format!("many needs at least two genome FASTAs\n{USAGE}"));
    }

    let outputs = [("--paf-out", &paf_out), ("--report-out", &report_out)];
    let (run, meter) = flags.start(ResourceBudget::default(), knn, &args, &outputs, false)?;
    let genomes = &run.genomes;
    eprintln!(
        "many-genome alignment: {} genomes, {} total bp, knn={}...",
        genomes.len(),
        genomes.iter().map(Assembly::total_bases).sum::<usize>(),
        knn.map_or("all".to_string(), |k| k.to_string()),
    );

    // One run over the whole matrix: it announces the matrix's
    // chromosome-pair total up front, so the meter renders pairs-done /
    // ETA across genome pairs.
    let clock = SpanTimer::now();
    let result =
        pangenome::align_many_observed(&run.params, genomes, &run.flags.options, run.obs());
    drop(meter);
    let report = result.map_err(|e| e.to_string())?;
    let wall = clock.read();

    println!("== many-genome summary");
    println!("wall time: {wall:?}");
    println!("{}", report.summary());
    for pair in report.pairs.iter().filter(|p| p.failed() > 0) {
        eprintln!(
            "warning: {} vs {}: {} chromosome pair(s) failed",
            pair.target_genome,
            pair.query_genome,
            pair.failed()
        );
    }
    if let Some(path) = report_out {
        durable::write_atomic(Path::new(&path), report.canonical_text().as_bytes())
            .map_err(|e| e.to_string())?;
        println!("canonical report written to {path}");
    }
    if let Some(path) = paf_out {
        let paf = pangenome::paf::paf_text(&report, genomes);
        durable::write_atomic(Path::new(&path), paf.as_bytes()).map_err(|e| e.to_string())?;
        println!("PAF written to {path}");
    }
    run.finish()
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    use darwin_wga::profile::diff as pdiff;

    match args.first().map(String::as_str) {
        Some("report") => {
            let mut args = args[1..].to_vec();
            let json_out = take_opt(&mut args, "--json")?;
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
            if let Some(path) = json_out {
                durable::write_atomic(Path::new(&path), report.to_json().as_bytes())
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

/// The run's memory as the kernel counts it in `/proc/self/status`, as the
/// `--metrics-out` `"process"` member (KiB): the resident high-water and
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
