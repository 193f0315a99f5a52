//! End-to-end benchmark of the Rain workspace.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the system from outside, through the public APIs
//! of the layer crates, checks every output it times, and prints one JSON
//! object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (a separate run, so tracing never colours the end-to-end numbers).
//! `--workload all` runs every workload in a child process of its own.
//! See `perfbench/README.md` for the workload → layer → metric map.

mod library;
mod report;
mod serving;

use report::Outcome;
use std::process::{Command, ExitCode};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = [
    "dblp_join_debug",
    "digits_twostep_debug",
    "serve_ingest_mixed",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "bad --seconds")?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Run every workload in its own process (so `peak_rss_mb` is never
/// inherited from another workload) and relay their output.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    for workload in WORKLOADS {
        println!("== {workload}");
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("spawn workload process");
        ok &= status.success();
    }
    println!("{{\"all_correct\": {ok}}}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let mut outcome = Outcome::new(&args);
    match args.workload.as_str() {
        "dblp_join_debug" => library::run(library::Kind::DblpJoin, &args, &mut outcome),
        "digits_twostep_debug" => library::run(library::Kind::DigitsTwoStep, &args, &mut outcome),
        "serve_ingest_mixed" => serving::run(&args, &mut outcome),
        _ => unreachable!("validated by parse_args"),
    }
    outcome.finish()
}
