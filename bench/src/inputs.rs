//! Making a workload's inputs from the ledger's seed.

use crate::dict::Workload;
use crate::fasta;
use std::path::Path;
use std::process::{Command, Stdio};

/// What a chaos or debugging session may have left in the environment and
/// would change what a `wga` child does.
const SCRUBBED_ENV: [&str; 4] = [
    "WGA_FAULT_PLAN",
    "WGA_DISABLE_SIMD",
    "WGA_DATAFLOW_THREADS",
    "WGA_BENCH_TIMINGS",
];

/// A command that runs `program` in `dir` with a scrubbed environment
/// and no standard input.
pub fn scrubbed_command(program: &Path, dir: &Path) -> Command {
    let mut command = Command::new(program);
    command.current_dir(dir).stdin(Stdio::null());
    for name in SCRUBBED_ENV {
        command.env_remove(name);
    }
    command
}

/// The FASTA files of a workload in command-line order: per input, target
/// then query.
pub fn fasta_files(workload: &Workload) -> Vec<String> {
    workload
        .inputs
        .iter()
        .flat_map(|spec| {
            [
                format!("{}.target.fa", spec.prefix),
                format!("{}.query.fa", spec.prefix),
            ]
        })
        .collect()
}

/// Every file input generation writes: the FASTA files, then each
/// input's exon table.
pub fn input_files(workload: &Workload) -> Vec<String> {
    let mut names = fasta_files(workload);
    names.extend(
        workload
            .inputs
            .iter()
            .map(|spec| format!("{}.exons.tsv", spec.prefix)),
    );
    names
}

/// Runs every `wga generate` call of the workload in `dir`. This is all
/// of the aligner's own work in set-up, and what `setup_s` times.
pub fn run_generators(wga: &Path, workload: &Workload, dir: &Path) -> Result<(), String> {
    for spec in workload.inputs {
        let status = scrubbed_command(wga, dir)
            .args([
                "generate",
                spec.prefix,
                "--len",
                &spec.len.to_string(),
                "--distance",
                spec.distance,
            ])
            .args([
                "--seed",
                &spec.seed.to_string(),
                "--chroms",
                &spec.chroms.to_string(),
            ])
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run {}: {e}", wga.display()))?;
        if !status.success() {
            return Err(format!("wga generate {} failed", spec.prefix));
        }
    }
    Ok(())
}

/// Turns every sequence the generators wrote in `dir` about the origin
/// `seed` stands for. The ledger's own work, outside `setup_s`.
pub fn rotate_in_place(workload: &Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let rotation = fasta::rotation_q32(seed);
    if rotation != 0 {
        for name in fasta_files(workload) {
            let path = dir.join(name);
            let mut records = fasta::read(&path)?;
            fasta::rotate(&mut records, rotation);
            std::fs::write(&path, fasta::render(&records))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Makes the workload's inputs in `dir`: a function of the seed alone.
pub fn generate(wga: &Path, workload: &Workload, seed: u64, dir: &Path) -> Result<(), String> {
    run_generators(wga, workload, dir)?;
    rotate_in_place(workload, seed, dir)
}

/// Every input file's bytes in [`input_files`] order.
pub fn read_all(workload: &Workload, dir: &Path) -> Result<Vec<Vec<u8>>, String> {
    input_files(workload)
        .iter()
        .map(|name| std::fs::read(dir.join(name)).map_err(|e| format!("{name}: {e}")))
        .collect()
}
