//! `repro` — regenerates the paper's evaluation, one artefact per
//! subcommand. Run with `cargo run --release -p wga-bench -- <artefact>`;
//! `--help` lists the artefacts and their optional arguments.

mod ablations;
mod exons;
mod fig1;
mod fig10;
mod fig2;
mod fig3;
mod fig8;
mod fig9;
mod noise;
mod table3;
mod table4;
mod table5;

use std::process::ExitCode;

const USAGE: &str = "\
usage: repro <artefact> [args]   (every arg is a positive integer)
  fig1                        Fig. 1: genome assemblies and WGA species pairs by year
  fig2                        Fig. 2: ungapped block lengths, close vs distant pair
  fig3   [len=60000]          Fig. 3: browser view of chains over a gene region
  fig8   [len=60000]          Fig. 8: distances re-estimated from alignments
  fig9   [seed=9]             Fig. 9: an exon that only the gapped filter keeps
  fig10  [len=60000]          Fig. 10: GACT vs GACT-X, and GACT-X's DP-cell saving (§III-D)
  table3 [len=80000] [reps=3] Table III (+ Table I / Fig. 8 preamble): sensitivity
  table4                      Table IV + Table VI: ASIC area/power, platform power
  table5 [len=80000]          Table V: runtimes and workload; filter cost and rates (§I, §VI-C)
  noise  [len=60000] [reps=3] §VI-B: false positives against shuffled targets
  exons  [len=60000]          §V-E: exon recovery against the exons alignable by truth
  ablations [len=50000]       Table II: design-parameter ablations
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprint!("error: {msg}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the arguments and runs the named artefact. Every argument is
/// checked before anything is printed.
fn run(args: &[String]) -> Result<(), String> {
    let (name, rest) = args.split_first().ok_or("no artefact given")?;
    match name.as_str() {
        "fig1" => numbers(rest, []).map(|[]| fig1::run()),
        "fig2" => numbers(rest, []).map(|[]| fig2::run()),
        "fig3" => numbers(rest, [60_000]).map(|[len]| fig3::run(len)),
        "fig8" => numbers(rest, [60_000]).map(|[len]| fig8::run(len)),
        "fig9" => numbers(rest, [9]).and_then(|[seed]| fig9::run(seed as u64)),
        "fig10" => numbers(rest, [60_000]).map(|[len]| fig10::run(len)),
        "table3" => numbers(rest, [80_000, 3]).map(|[len, reps]| table3::run(len, reps as u64)),
        "table4" => numbers(rest, []).map(|[]| table4::run()),
        "table5" => numbers(rest, [80_000]).map(|[len]| table5::run(len)),
        "noise" => numbers(rest, [60_000, 3]).map(|[len, reps]| noise::run(len, reps as u64)),
        "exons" => numbers(rest, [60_000]).map(|[len]| exons::run(len)),
        "ablations" => numbers(rest, [50_000]).map(|[len]| ablations::run(len)),
        other => Err(format!("unknown artefact '{other}'")),
    }
}

/// An artefact's positional arguments: at most `N` positive integers,
/// each missing one taking its default.
fn numbers<const N: usize>(args: &[String], defaults: [usize; N]) -> Result<[usize; N], String> {
    if args.len() > N {
        return Err(format!(
            "too many arguments: {} given, at most {N} taken",
            args.len()
        ));
    }
    let mut values = defaults;
    for (value, arg) in values.iter_mut().zip(args) {
        *value = arg
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("'{arg}' is not a positive integer"))?;
    }
    Ok(values)
}
