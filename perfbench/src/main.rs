//! `emod-perfbench`: the repository benchmark.
//!
//! ```text
//! emod-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                --serve-bin <path> [--root <dir>]
//! ```
//!
//! Workloads: `campaign_cycles`, `campaign_codesize` (the paper's Figure 1
//! loop through the library API) and `serve_predict`, `serve_mix` (open-loop
//! traffic against the `emod-serve` binary). With `--trace 0` the run prints
//! the end-to-end metrics; with `--trace 1` it also replays the workload
//! through each layer's public functions and prints the per-layer metrics.
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Every output check runs outside the timed region; a failed check makes
//! `correct` false and the exit code 1.
//!
//! `perfbench/run.py` builds this binary and `emod-serve` and invokes it
//! with every `EMOD_*` variable removed, so shipped defaults are measured.

mod campaign;
mod host;
mod ladder;
mod layers;
mod load;
mod report;
mod serve;
mod spans;
mod stats;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// Design and GA seed of every model-building campaign: the `repro`
/// session seed, so the campaigns reproduce `repro`'s quick-scale designs
/// and their accuracy outputs are exact from run to run.
pub const DESIGN_SEED: u64 = 9001;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether to run the traced replay and print per-layer metrics.
    pub trace: bool,
    /// Path of the `emod-serve` binary (serve workloads).
    pub serve_bin: Option<PathBuf>,
    /// Checkout root (where `crates/` lives).
    pub root: PathBuf,
    /// Scratch directory for registries and span files.
    pub work: PathBuf,
    /// Internal: run one set-up and print its duration (set-up probes).
    pub setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        root: PathBuf::from("."),
        work: PathBuf::from(".bench_work"),
        setup_probe: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--setup-probe" {
            args.setup_probe = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", flag))?
            .clone();
        match flag {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds needs a number")?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value)),
            "--root" => args.root = PathBuf::from(value),
            "--work" => args.work = PathBuf::from(value),
            other => return Err(format!("unknown option {}", other)),
        }
        i += 2;
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {}", e);
            eprintln!(
                "usage: emod-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --serve-bin <path>"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(var) = std::env::vars()
        .map(|(k, _)| k)
        .find(|k| k.starts_with("EMOD_"))
    {
        eprintln!(
            "error: {} is set; the benchmark measures shipped defaults only",
            var
        );
        return ExitCode::from(2);
    }
    if std::fs::create_dir_all(&args.work).is_err() {
        eprintln!("error: cannot create {}", args.work.display());
        return ExitCode::from(2);
    }
    let outcome = match args.workload.as_str() {
        "campaign_cycles" | "campaign_codesize" => layers::run_campaign(&args),
        "serve_predict" | "serve_mix" => serve::run(&args),
        other => Err(format!("unknown workload {:?}", other)),
    };
    match outcome {
        Ok(None) => ExitCode::SUCCESS, // set-up probe: duration already printed
        Ok(Some(report)) => finish(&args, report),
        Err(e) => {
            eprintln!("error: {}", e);
            ExitCode::FAILURE
        }
    }
}

fn finish(args: &Args, report: Report) -> ExitCode {
    println!(
        "# {} seed={} trace={} nproc={} cpu=\"{}\" source={}",
        args.workload,
        args.seed,
        args.trace as u8,
        host::nproc(),
        host::cpu_model(),
        host::source_id(&args.root)
    );
    report.print_table();
    println!("{}", report.json_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: an output check failed; see the lines above");
        ExitCode::FAILURE
    }
}
