//! `ledger` — the end-to-end benchmark of the `wga` command line.
//!
//! Closed loop, one client: one `wga` child at a time, the ledger blocked
//! in `wait4` until it exits. A run is one workload: input generation,
//! then timed passes of the identical command for `--seconds` seconds
//! (never fewer than four passes), every output checked; after each pass
//! input generation is repeated for `setup_s`. This file
//! imports nothing from the aligner's crates, so no refactor of their
//! APIs can stop the end-to-end numbers from building; `--trace 1` hands
//! the same inputs to the `layers` binary, which does import them.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use wga_ledger::dict::{self, Better, Timed, Workload};
use wga_ledger::inputs::{self, fasta_files, scrubbed_command};
use wga_ledger::json::{result_line, Metric};
use wga_ledger::paths::Paths;
use wga_ledger::{fasta, stats, sys, verify};

const USAGE: &str = "\
usage:
  ledger [run] --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--keep-work]
      One workload. --trace 0 (default): timed passes through the wga command
      line, the three gated end-to-end metrics and the two times. --trace 1:
      one traced run of the layers binary on the same inputs, the per-layer
      metrics.
  ledger all [--seed S] [--seconds N]
      Every workload, end to end.
  ledger aa [--sets N] [--seed S] [--seconds N]
      The whole benchmark N times (default 2) on the same code, workloads
      interleaved between sets; fails when two sets differ by more than a
      gated metric's bound, or differ at all in matched_bp.
  --seconds is how long the passes of a run measure (default 20); passes
  repeat until it is spent, and at least 4 run.
  The last line of standard output is the run's result as one JSON object.
";

/// Fewest passes a run measures, however slow the machine: the
/// fastest-half mean needs two survivors to average.
const MIN_PASSES: usize = 4;
/// Repetitions of input generation after each pass. One takes 10-25 ms,
/// too little to time alone; a run makes a hundred and more, a quarter to
/// half a second of them at a time, and spreading them over the run keeps
/// one bad second of the machine from deciding `setup_s`.
const SETUP_REPS_PER_PASS: usize = 25;

#[derive(Debug, Clone)]
struct Options {
    seed: u64,
    seconds: f64,
    keep_work: bool,
}

/// A per-run directory for inputs and outputs, removed when the run
/// succeeded unless `--keep-work` asked for it.
struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    fn create(paths: &Paths, workload: &str) -> Result<WorkDir, String> {
        let path = paths
            .bench_target
            .join("ledger-work")
            .join(format!("{workload}-{}", std::process::id()));
        // A crashed earlier run with this pid may have left one behind.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    fn finish(self, succeeded: bool, keep: bool) {
        if succeeded && !keep {
            let _ = std::fs::remove_dir_all(&self.path);
            // Gone too when this was the last run using it.
            if let Some(parent) = self.path.parent() {
                let _ = std::fs::remove_dir(parent);
            }
        } else {
            println!("work directory kept: {}", self.path.display());
        }
    }
}

/// Input generation, timed again and again through a run for `setup_s`.
/// What it times is the workload's `wga generate` calls, the aligner's
/// own work; the seed's rotation is the ledger's and stays off the clock.
struct Setup<'a> {
    paths: &'a Paths,
    workload: &'a Workload,
    /// Where repetitions after the first write, and are deleted from.
    again: PathBuf,
    /// What the generators wrote the first time, before the rotation.
    first: Vec<Vec<u8>>,
    times: Vec<f64>,
}

impl<'a> Setup<'a> {
    /// The first repetition makes the run's inputs in `dir`.
    fn first(
        paths: &'a Paths,
        workload: &'a Workload,
        seed: u64,
        dir: &Path,
    ) -> Result<Setup<'a>, String> {
        let started = Instant::now();
        inputs::run_generators(&paths.wga(), workload, dir)?;
        let times = vec![started.elapsed().as_secs_f64()];
        let first = inputs::read_all(workload, dir)?;
        inputs::rotate_in_place(workload, seed, dir)?;
        Ok(Setup {
            paths,
            workload,
            again: dir.join("setup-again"),
            first,
            times,
        })
    }

    /// One more repetition. It must write what the first wrote, byte for
    /// byte: the generators take fixed arguments.
    fn again(&mut self) -> Result<(), String> {
        let gone = |e| format!("{}: {e}", self.again.display());
        std::fs::create_dir_all(&self.again).map_err(gone)?;
        let started = Instant::now();
        inputs::run_generators(&self.paths.wga(), self.workload, &self.again)?;
        self.times.push(started.elapsed().as_secs_f64());
        if inputs::read_all(self.workload, &self.again)? != self.first {
            return Err("input generation is not repeatable: two repetitions differ".into());
        }
        std::fs::remove_dir_all(&self.again).map_err(gone)
    }
}

/// The timed command of a workload and the output file it writes.
fn timed_command(paths: &Paths, workload: &Workload, dir: &Path) -> (Command, &'static str) {
    let mut command = scrubbed_command(&paths.wga(), dir);
    let output = match workload.timed {
        Timed::Align { threads, dataflow } => {
            command
                .arg("align")
                .args(fasta_files(workload))
                .args(["--threads", &threads.to_string()]);
            if dataflow {
                command.args(["--executor", "dataflow"]);
            }
            command.args(["--maf", "out.maf"]);
            "out.maf"
        }
        Timed::Many => {
            command.arg("many").args(fasta_files(workload)).args([
                "--threads",
                "1",
                "--paf-out",
                "out.paf",
            ]);
            "out.paf"
        }
    };
    (command, output)
}

/// What checking a pass's output found.
struct Checked {
    matched_bp: u64,
    exon_recall_pct: Option<f64>,
}

/// Parses and checks the output of a pass against the inputs in `dir`.
fn check_output(
    workload: &Workload,
    seed: u64,
    dir: &Path,
    output: &[u8],
) -> Result<Checked, String> {
    let text = std::str::from_utf8(output).map_err(|e| format!("output is not UTF-8: {e}"))?;
    let files = fasta_files(workload);
    match workload.timed {
        Timed::Align { .. } => {
            let target = fasta::read(&dir.join(&files[0]))?;
            let query = fasta::read(&dir.join(&files[1]))?;
            let summary = verify::check_maf(text, &target, &query)?;
            let exons = std::fs::read_to_string(
                dir.join(format!("{}.exons.tsv", workload.inputs[0].prefix)),
            )
            .map_err(|e| format!("exons.tsv: {e}"))?;
            let lengths = fasta::by_name(&target);
            let exon_recall_pct = verify::exon_recall_pct(
                &exons,
                &summary.target_intervals,
                fasta::rotation_q32(seed),
                &|name| lengths.get(name).map(|bases| bases.len()),
            );
            Ok(Checked {
                matched_bp: summary.matched_bp,
                exon_recall_pct,
            })
        }
        Timed::Many => {
            // `wga many` names a sequence `<file stem>.<record name>`.
            let mut lengths = std::collections::BTreeMap::new();
            for file in &files {
                let stem = file.strip_suffix(".fa").unwrap_or(file);
                for record in fasta::read(&dir.join(file))? {
                    lengths.insert(format!("{stem}.{}", record.name()), record.bases.len());
                }
            }
            let summary = verify::check_paf(text, Some(&|name| lengths.get(name).copied()))?;
            Ok(Checked {
                matched_bp: summary.matched_bp,
                exon_recall_pct: None,
            })
        }
    }
}

/// The two times a run reports beside the gated metrics. They are not in
/// `BENCHMARK.json`: on a shared machine runs of the same code spread by
/// more than any bound the contract allows (README, "Measured on this
/// box"), so they are printed as measured and left unresolved.
const UNGATED_TIMES: [&str; 2] = ["wall_s", "cpu_s"];

/// The outcome of one end-to-end run.
struct RunReport {
    /// The gated metrics, in `dict::END_TO_END` order.
    metrics: Vec<Metric>,
    /// `UNGATED_TIMES`, in seconds.
    times: [f64; 2],
    passes: u64,
    passes_failed: u64,
}

impl RunReport {
    /// Prints the run's result line and returns whether every pass passed.
    fn print_result(&self) -> bool {
        let correct = self.passes_failed == 0;
        println!(
            "{}",
            result_line(correct, self.passes, self.passes_failed, &self.metrics)
        );
        correct
    }
}

fn print_fingerprint(paths: &Paths, workload: &Workload, options: &Options) {
    let mut line = format!(
        "ledger: workload={} seed={} seconds={} min_passes={MIN_PASSES}",
        workload.name, options.seed, options.seconds
    );
    for (key, value) in sys::fingerprint(&paths.root) {
        line.push_str(&format!(" {key}=\"{value}\""));
    }
    println!("{line}");
}

fn check_processors(workload: &Workload) -> Result<(), String> {
    if (sys::nproc() as u32) < workload.threads() {
        return Err(format!(
            "{} runs its child on {} threads and this machine has {} processor(s)",
            workload.name,
            workload.threads(),
            sys::nproc()
        ));
    }
    Ok(())
}

/// One end-to-end run of `workload`: set-up, timed passes, checks.
fn run_end_to_end(
    paths: &Paths,
    workload: &Workload,
    options: &Options,
) -> Result<RunReport, String> {
    check_processors(workload)?;
    print_fingerprint(paths, workload, options);
    paths.build_wga()?;
    let work = WorkDir::create(paths, workload.name)?;
    let dir = work.path.clone();
    let mut setup = Setup::first(paths, workload, options.seed, &dir)?;

    let (mut walls, mut cpus, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(Vec<u8>, Checked)> = None;
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let measuring = Instant::now();
    loop {
        let (mut command, output_name) = timed_command(paths, workload, &dir);
        let output_path = dir.join(output_name);
        let _ = std::fs::remove_file(&output_path);
        let log =
            |name: &str| std::fs::File::create(dir.join(name)).map_err(|e| format!("{name}: {e}"));
        command
            .stdout(log("pass.stdout")?)
            .stderr(log("pass.stderr")?);
        let cost = sys::run_child(&mut command)
            .map_err(|e| format!("cannot run {}: {e}", paths.wga().display()))?;
        for _ in 0..SETUP_REPS_PER_PASS {
            setup.again()?;
        }
        attempted += 1;

        let verdict: Result<(), String> = (|| {
            if !cost.success {
                let stderr = std::fs::read_to_string(dir.join("pass.stderr")).unwrap_or_default();
                return Err(format!(
                    "the child exited with an error: {}",
                    stderr.trim_end()
                ));
            }
            let output = std::fs::read(&output_path).map_err(|e| format!("{output_name}: {e}"))?;
            match &first {
                None => {
                    let checked = check_output(workload, options.seed, &dir, &output)?;
                    first = Some((output, checked));
                }
                Some((expected, _)) if *expected != output => {
                    return Err(format!("{output_name} differs from the first pass's"));
                }
                Some(_) => {}
            }
            Ok(())
        })();
        match verdict {
            Ok(()) => {
                println!(
                    "pass {attempted}: wall {:.3} s  cpu {:.3} s  peak rss {:.1} MB",
                    cost.wall_s, cost.cpu_s, cost.peak_rss_mb
                );
                walls.push(cost.wall_s);
                cpus.push(cost.cpu_s);
                rss.push(cost.peak_rss_mb);
            }
            Err(why) => {
                failed += 1;
                println!("pass {attempted}: FAILED: {why}");
            }
        }

        // Stop when the next pass, if as fast as the fastest so far,
        // would end after the time the run was given.
        let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
        if attempted as usize >= MIN_PASSES
            && measuring.elapsed().as_secs_f64() + fastest > options.seconds
        {
            break;
        }
    }

    let Some((_, checked)) = &first else {
        work.finish(false, options.keep_work);
        return Err("no pass produced an output that passed its checks".into());
    };
    // Noise on a shared machine only ever adds time: a time is the mean of
    // its fastest samples, half of the few passes, a tenth of the many
    // repetitions of set-up.
    let fastest = |values: &[f64], one_in| {
        stats::fastest_mean(values, one_in).expect("at least one pass succeeded")
    };
    let median = |values: &[f64]| stats::median(values).expect("at least one pass succeeded");
    let values = [
        median(&rss),
        fastest(&setup.times, 10),
        checked.matched_bp as f64,
    ];
    let metrics: Vec<Metric> = dict::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            value,
            unit: m.unit,
        })
        .collect();
    for metric in &metrics {
        println!("{:<12} {:>14.4} {}", metric.name, metric.value, metric.unit);
    }
    let times = [fastest(&walls, 2), fastest(&cpus, 2)];
    for (name, value) in UNGATED_TIMES.iter().zip(times) {
        println!("{name:<12} {value:>14.4} s  (not gated)");
    }
    let slowest = walls.iter().copied().fold(0.0, f64::max);
    println!("slowest_pass {slowest:>14.4} s");
    println!("median_pass  {:>14.4} s", median(&walls));
    if let Some(recall) = checked.exon_recall_pct {
        println!("exon_recall_pct {recall:>11.2} %");
    }
    println!(
        "passes {attempted}  passes_failed {failed}  setup_repetitions {}",
        setup.times.len()
    );
    work.finish(failed == 0, options.keep_work);
    Ok(RunReport {
        metrics,
        times,
        passes: attempted,
        passes_failed: failed,
    })
}

/// The traced run: the `layers` binary once, on the inputs an end-to-end
/// run of the same seed aligns. Returns the per-layer metrics and
/// whether `layers` found its replica and the program's own trace in
/// agreement.
fn run_traced(
    paths: &Paths,
    workload: &Workload,
    options: &Options,
) -> Result<(Vec<Metric>, bool), String> {
    check_processors(workload)?;
    print_fingerprint(paths, workload, options);
    paths.build_wga()?;
    paths.build_layers()?;
    let work = WorkDir::create(paths, workload.name)?;
    let dir = work.path.clone();
    inputs::generate(&paths.wga(), workload, options.seed, &dir)?;

    let mut command = scrubbed_command(&paths.layers(), &dir);
    match workload.timed {
        Timed::Align { threads, dataflow } => {
            command.args(["--kind", "align", "--threads", &threads.to_string()]);
            command.args(["--executor", if dataflow { "dataflow" } else { "barrier" }]);
        }
        Timed::Many => {
            command.args(["--kind", "many", "--threads", "1", "--executor", "barrier"]);
        }
    }
    let output = command
        .args(fasta_files(workload))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", paths.layers().display()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut metrics = Vec::with_capacity(dict::PER_LAYER.len());
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("metric\t") else {
            println!("{line}");
            continue;
        };
        let (name, value) = rest
            .split_once('\t')
            .ok_or_else(|| format!("layers: bad line '{line}'"))?;
        let known = dict::PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("layers: unknown metric '{name}'"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("layers: bad value in '{line}'"))?;
        println!("{:<36} {:>16.3} {}", known.name, value, known.unit);
        metrics.push(Metric {
            name: known.name,
            value,
            unit: known.unit,
        });
    }
    if let Some(missing) = dict::PER_LAYER
        .iter()
        .find(|m| !metrics.iter().any(|got| got.name == m.name))
    {
        work.finish(false, options.keep_work);
        return Err(format!("layers did not report {}", missing.name));
    }
    let agreed = output.status.success();
    work.finish(agreed, options.keep_work);
    Ok((metrics, agreed))
}

/// `ledger aa`: the whole benchmark `sets` times on the same code.
fn run_aa(paths: &Paths, sets: usize, options: &Options) -> Result<bool, String> {
    let mut reports: Vec<Vec<RunReport>> = Vec::new();
    for set in 0..sets {
        let mut row = Vec::new();
        for workload in &dict::WORKLOADS {
            println!("== set {} of {sets}: {}", set + 1, workload.name);
            row.push(run_end_to_end(paths, workload, options)?);
        }
        reports.push(row);
    }
    println!("== A/A: same code, {sets} sets, seed {}", options.seed);
    println!(
        "{:<11} {:<12} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "lowest", "highest", "gap", "bound"
    );
    let mut agreed = true;
    for (index, workload) in dict::WORKLOADS.iter().enumerate() {
        let row = |name: &str, values: Vec<f64>, better: Better, bound: Option<f64>| {
            let low = values.iter().copied().fold(f64::INFINITY, f64::min);
            let high = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            // Worst against best, as a share of the better one.
            let gap = match better {
                Better::Lower => (high - low) / low,
                Better::Higher => (high - low) / high,
            };
            let over = bound.is_some_and(|bound| gap > bound);
            let verdict = match bound {
                None => "not gated",
                Some(_) if over => "OVER",
                Some(_) => "ok",
            };
            let bound = bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
            println!(
                "{:<11} {name:<12} {low:>14.4} {high:>14.4} {:>7.2}% {bound:>7}  {verdict}",
                workload.name,
                gap * 100.0,
            );
            !over
        };
        for (at, metric) in dict::END_TO_END.iter().enumerate() {
            let values = reports.iter().map(|r| r[index].metrics[at].value).collect();
            // Two runs of the same code on the same seed count the same bases.
            let bound = if metric.name == "matched_bp" {
                0.0
            } else {
                metric.bound
            };
            agreed &= row(metric.name, values, metric.better, Some(bound));
        }
        for (at, name) in UNGATED_TIMES.iter().enumerate() {
            let values = reports.iter().map(|r| r[index].times[at]).collect();
            row(name, values, Better::Lower, None);
        }
        let failed: u64 = reports.iter().map(|row| row[index].passes_failed).sum();
        if failed > 0 {
            agreed = false;
            println!("{:<11} {failed} pass(es) failed", workload.name);
        }
    }
    Ok(agreed)
}

fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(Some(value))
        }
        Some(_) => Err(format!("{flag} needs a value")),
    }
}

fn parse_value<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, String> {
    take_value(args, flag)?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid value for {flag}: {v}"))
        })
        .transpose()
}

fn real_main() -> Result<ExitCode, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let subcommand = match args.first().map(String::as_str) {
        Some("-h" | "--help") | None => {
            print!("{USAGE}");
            return Ok(ExitCode::SUCCESS);
        }
        Some(first) if first.starts_with("--") => "run".to_string(),
        Some(_) => args.remove(0),
    };
    let workload_name = take_value(&mut args, "--workload")?;
    let trace: u8 = parse_value(&mut args, "--trace")?.unwrap_or(0);
    let sets: usize = parse_value(&mut args, "--sets")?.unwrap_or(2);
    let options = Options {
        seed: parse_value(&mut args, "--seed")?.unwrap_or(1),
        seconds: parse_value(&mut args, "--seconds")?.unwrap_or(20.0),
        keep_work: match args.iter().position(|a| a == "--keep-work") {
            Some(i) => {
                args.remove(i);
                true
            }
            None => false,
        },
    };
    if let Some(stray) = args.first() {
        return Err(format!("unexpected argument '{stray}'\n{USAGE}"));
    }
    if sets == 0 || trace > 1 || !options.seconds.is_finite() {
        return Err(format!("--sets starts at 1, --trace is 0 or 1\n{USAGE}"));
    }
    let named_workload = || -> Result<&'static Workload, String> {
        let name = workload_name
            .as_deref()
            .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
        dict::workload(name).ok_or_else(|| {
            let known: Vec<&str> = dict::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload '{name}' (known: {})", known.join(", "))
        })
    };
    let paths = Paths::locate();

    let ok = match (subcommand.as_str(), trace) {
        ("run", 1) => {
            let (metrics, agreed) = run_traced(&paths, named_workload()?, &options)?;
            println!("{}", result_line(agreed, 1, u64::from(!agreed), &metrics));
            agreed
        }
        ("run", _) => run_end_to_end(&paths, named_workload()?, &options)?.print_result(),
        ("all", _) => {
            let mut correct = true;
            for workload in &dict::WORKLOADS {
                correct &= run_end_to_end(&paths, workload, &options)?.print_result();
            }
            correct
        }
        ("aa", _) => run_aa(&paths, sets, &options)?,
        (other, _) => return Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    };
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|message| {
        eprintln!("ledger: {message}");
        ExitCode::from(2)
    })
}
