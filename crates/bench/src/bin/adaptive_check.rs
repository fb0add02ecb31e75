//! **Tool** — adaptive campaign driver with kill/resume support and an
//! exhaustive-equivalence gate, used by `scripts/verify.sh`.
//!
//! Runs a fixed 24-trial severity sweep on a 6-wire bus through the
//! adaptive engine (`Campaign::run_adaptive_checkpointed`), snapshotting
//! the round-boundary checkpoint — trial entries *plus* the coverage
//! ledger and priority clock — to disk after every round. One trial in
//! eight panics by design, proving failed attempts fold into the
//! checkpoint stream too. With `--halt-after N` the process exits with
//! code 3 as soon as N trials are checkpointed — simulating a kill —
//! and a later invocation without the flag resumes from the snapshot,
//! dropping exactly the patterns the uninterrupted run would have.
//!
//! On completion the tool re-runs the batch through the
//! attributed-exhaustive oracle (`Campaign::run_attributed`) and exits
//! with code 2 unless the adaptive run's campaign-wide detected set
//! equals the oracle's — the equivalence gate of DESIGN.md §13. The
//! summary JSON is byte-identical to an uninterrupted run at any
//! `SINT_THREADS`.
//!
//! It also gates the detector memo (DESIGN.md §14): the default panel
//! width shares one memo across the batch, so the tool re-runs the
//! batch uninterrupted at panel width 1 — the scalar, memo-free path —
//! and exits with code 2 unless that summary is byte-identical too.
//!
//! ```text
//! adaptive_check <checkpoint.json> <summary.json> [--halt-after N]
//! ```
//!
//! Exit codes: 0 = campaign complete and equivalent, 2 = usage/IO
//! error or equivalence failure (oracle or memo), 3 = halted deliberately at the
//! `--halt-after` threshold.

use sint_bench::threads_from_env;
use sint_core::adaptive::AdaptiveCheckpoint;
use sint_core::campaign::{Campaign, RetryPolicy, Trial};
use sint_core::session::{ObservationMethod, SessionConfig};
use sint_interconnect::params::BusParams;
use sint_interconnect::Defect;
use sint_runtime::json::ToJson;
use std::process::ExitCode;

const WIRES: usize = 6;
const TRIALS: usize = 24;

/// The fixed batch: a severity sweep that keeps re-exciting the same
/// two defective wires (the shape where ledger-driven dropping pays),
/// a panicking trial per eight, borderline defects, and controls.
fn trials() -> Vec<Trial> {
    (0..TRIALS)
        .map(|i| match i % 8 {
            1 | 4 => Trial::defective(Defect::CouplingBoost {
                wire: 1 + 3 * (i % 2),
                factor: 5.0 + i as f64 / 8.0,
            }),
            3 => Trial::panicking(),
            6 => Trial::defective(Defect::CouplingBoost { wire: 2, factor: 1.02 }),
            _ => Trial::control(),
        })
        .collect()
}

fn campaign() -> Campaign {
    Campaign::new(WIRES)
        .bus_params(BusParams::dsm_bus(WIRES).segments(2))
        .session(SessionConfig { dt: 10e-12, ..SessionConfig::method(ObservationMethod::Once) })
        .retry(RetryPolicy { max_attempts: 2, ..RetryPolicy::default() })
}

struct Args {
    checkpoint_path: String,
    summary_path: String,
    halt_after: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut halt_after = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--halt-after" {
            let value = argv.next().ok_or("--halt-after needs a trial count")?;
            let count = value
                .parse::<usize>()
                .map_err(|_| format!("--halt-after wants a number, got {value:?}"))?;
            halt_after = Some(count);
        } else {
            positional.push(arg);
        }
    }
    if positional.len() != 2 {
        return Err(
            "usage: adaptive_check <checkpoint.json> <summary.json> [--halt-after N]".to_string()
        );
    }
    let mut positional = positional.into_iter();
    Ok(Args {
        checkpoint_path: positional.next().unwrap_or_default(),
        summary_path: positional.next().unwrap_or_default(),
        halt_after,
    })
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let threads = threads_from_env();

    // Resume from an existing snapshot, or start fresh.
    let mut checkpoint = match std::fs::read_to_string(&args.checkpoint_path) {
        Ok(text) => AdaptiveCheckpoint::parse(&text)
            .map_err(|e| format!("bad checkpoint {}: {e}", args.checkpoint_path))?,
        Err(_) => AdaptiveCheckpoint::new(WIRES),
    };
    let resumed_from = checkpoint.entries().len();

    // The sabotaged trials panic by design; keep their backtraces out
    // of the tool's output.
    std::panic::set_hook(Box::new(|_| {}));

    let campaign = campaign();
    let batch = trials();
    let checkpoint_path = args.checkpoint_path.clone();
    let halt_after = args.halt_after;
    let run = campaign.run_adaptive_checkpointed(&batch, threads, &mut checkpoint, |cp| {
        // Atomic replace: a kill mid-snapshot must leave the previous
        // checkpoint intact, never a half-file that parse() rejects.
        if let Err(e) = cp.store_atomic(std::path::Path::new(&checkpoint_path)) {
            eprintln!("adaptive_check: cannot write checkpoint: {e}");
            std::process::exit(2);
        }
        if let Some(limit) = halt_after {
            if cp.entries().len() >= limit {
                eprintln!(
                    "adaptive_check: halting deliberately with {} / {} trials checkpointed",
                    cp.entries().len(),
                    TRIALS
                );
                std::process::exit(3);
            }
        }
    });

    let summary = run.to_json().render_pretty();
    sint_runtime::durable::AtomicFile::write(
        std::path::Path::new(&args.summary_path),
        format!("{summary}\n").as_bytes(),
    )
    .map_err(|e| format!("cannot write summary {}: {e}", args.summary_path))?;
    eprintln!(
        "adaptive_check: {} trials ({} resumed from checkpoint), {} threads: {} \
         [dropped {} escalations {} tck {}]",
        TRIALS, resumed_from, threads, run.stats, run.dropped, run.escalations, run.total_tck
    );

    // The equivalence gate: the adaptive union must equal the
    // attributed-exhaustive oracle's exactly. The hook stays silenced —
    // the oracle re-runs the sabotaged trials too.
    let oracle = campaign.run_attributed(&batch, threads);
    let scalar_summary = campaign
        .clone()
        .panel_width(1)
        .run_adaptive_checkpointed(&batch, threads, &mut AdaptiveCheckpoint::new(WIRES), |_| {})
        .to_json()
        .render_pretty();
    let _ = std::panic::take_hook();
    if run.detected != oracle.detected {
        eprintln!(
            "adaptive_check: EQUIVALENCE FAILURE\n  adaptive:   {:?}\n  exhaustive: {:?}",
            run.detected, oracle.detected
        );
        return Ok(ExitCode::from(2));
    }
    eprintln!(
        "adaptive_check: equivalence holds ({} detected pairs, adaptive {} vs exhaustive {} tck)",
        run.detected.len(),
        run.total_tck,
        oracle.total_tck
    );
    if scalar_summary != summary {
        eprintln!("adaptive_check: MEMO EQUIVALENCE FAILURE: width-1 summary differs");
        return Ok(ExitCode::from(2));
    }
    eprintln!("adaptive_check: memoised summary byte-identical to the scalar, memo-free run");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("adaptive_check: {message}");
            ExitCode::from(2)
        }
    }
}
