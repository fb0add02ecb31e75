//! The repository benchmark: one entry point that generates a workload
//! from a seed, drives the public APIs of `sint-core`, `sint-fleet`,
//! `sint-interconnect` and `sint-jtag` from outside, checks the outputs,
//! and prints every metric with its unit and direction.
//!
//! ```text
//! perfbench --workload <session_mix|adaptive_sparse|fleet_floor>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that gives the per-layer metrics and its own
//! overhead. The last line of standard output is the JSON result; the
//! exit code is non-zero when any correctness gate fails.

mod adaptive_sparse;
mod fleet_floor;
mod host;
mod metrics;
mod probe;
mod run;
mod session_mix;
mod stats;
mod trace;

use metrics::{result_line, END_TO_END, PER_LAYER};
use run::{Outcome, RunConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <session_mix|adaptive_sparse|fleet_floor> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => parsed.workload.clone_from(value),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

fn run_workload(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    match name {
        "session_mix" => Some(session_mix::run(cfg)),
        "adaptive_sparse" => Some(adaptive_sparse::run(cfg)),
        "fleet_floor" => Some(fleet_floor::run(cfg)),
        _ => None,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = host::nproc();
    let out_dir = std::path::PathBuf::from(".perfbench");
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        work_dir: out_dir.join(format!("work-{}", std::process::id())),
        out_dir,
    };
    let Some(outcome) = run_workload(&args.workload, &cfg) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    // Leaves the output directory only when a trace was written to it.
    let _ = std::fs::remove_dir(&cfg.out_dir);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let correct = outcome.correct();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={threads} threads={threads} cpu={:?} rustc={:?}",
        host::cpu_model(),
        host::rustc_version()
    );
    println!(
        "note: built with target-cpu=native (.cargo/config.toml), so host times do not carry \
         across hosts; the analog ND/SD detector model is unvalidated against silicon, and only \
         TCK has an exact reference (Table 6's closed form)"
    );
    for gate in &outcome.gates {
        let verdict = if gate.ok { "ok" } else { "FAILED" };
        println!("gate [{verdict}] {}: {}", gate.name, gate.detail);
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!(
        "{} metrics (attempted {}, failed {}):",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        outcome.attempted,
        outcome.failed
    );
    for line in outcome.values.report(table) {
        println!("{line}");
    }
    let metrics = match outcome.values.listed_json(table) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}",
        result_line(correct, outcome.attempted.max(1), outcome.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a correctness gate failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&args(
            "--workload fleet_floor --seed 7 --seconds 12 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "fleet_floor".into(),
                seed: 7,
                seconds: 12.0,
                trace: true,
            }
        );
        assert!(parse_args(&args("--workload x --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload x --seconds")).is_err());
        assert!(parse_args(&args("--workload x --seconds 0")).is_err());
    }
}
