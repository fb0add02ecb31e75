//! **Tool** — checkpointed campaign driver with kill/resume support,
//! used by `scripts/verify.sh` to prove the resume contract end to end.
//!
//! Runs a fixed 20-trial campaign in which 10% of trials are sabotaged
//! (one panics mid-trial, one injects a defect so extreme the transient
//! solver diverges), snapshotting the checkpoint to disk every 5
//! finished trials. With `--halt-after N` the process exits with code 3
//! as soon as N trials are checkpointed — simulating a kill — and a
//! later invocation without the flag resumes from the snapshot,
//! re-running only unfinished trials. The final summary JSON is
//! byte-identical to an uninterrupted run at any `SINT_THREADS`.
//!
//! Outside deadline mode the tool also gates the detector memo
//! (DESIGN.md §14): the default panel width shares one memo across the
//! batch, so it re-runs the batch uninterrupted at panel width 1 — the
//! scalar, memo-free path — and exits with code 4 unless that summary
//! is byte-identical too. (Deadline sheds report the first cancellation
//! poll, which a batched flush makes before its memo lookup, at step 0,
//! and the scalar path makes inside the solver, at step 32.)
//!
//! With `--deadline-ms N` the campaign runs deadline-bounded: every
//! trial gets an `N`-millisecond budget and one control is swapped for
//! a wedged trial (a solve that cannot finish inside any deadline). At
//! `N = 0` the deadline has already expired when the first
//! cancellation poll runs, so every solver-bound trial sheds at the
//! same deterministic step — which makes the kill/resume byte-identity
//! contract checkable for shed records too: the checkpoint must
//! round-trip `TrialShed` entries exactly.
//!
//! ```text
//! campaign_resume <checkpoint.json> <summary.json> \
//!     [--halt-after N] [--deadline-ms N]
//! ```
//!
//! Exit codes: 0 = campaign complete, 2 = usage/IO error, 3 = halted
//! deliberately at the `--halt-after` threshold, 4 = the width-1
//! summary differs.

use sint_bench::threads_from_env;
use sint_core::campaign::{Campaign, RetryPolicy, Trial};
use sint_core::checkpoint::CampaignCheckpoint;
use sint_interconnect::Defect;
use sint_runtime::json::ToJson;
use std::process::ExitCode;

const TRIALS: usize = 20;
const SNAPSHOT_EVERY: usize = 5;

/// The fixed batch: healthy controls, detectable and borderline
/// defects, plus two deliberately broken trials (indices 3 and 17 by
/// the `% 10` pattern below — one harness panic, one solver blow-up).
/// In deadline mode, index 5 becomes a wedged trial that can only end
/// by shedding at its deadline.
fn trials(wedged: bool) -> Vec<Trial> {
    (0..TRIALS)
        .map(|i| match i % 10 {
            3 => Trial::panicking(),
            5 if wedged && i == 5 => Trial::wedged(),
            7 => Trial::defective(Defect::CouplingBoost { wire: 1, factor: 1e308 }),
            k if k % 2 == 0 => Trial::control(),
            _ => Trial::defective(Defect::CouplingBoost { wire: 1, factor: 6.0 }),
        })
        .collect()
}

struct Args {
    checkpoint_path: String,
    summary_path: String,
    halt_after: Option<usize>,
    deadline_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut halt_after = None;
    let mut deadline_ms = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--halt-after" {
            let value = argv.next().ok_or("--halt-after needs a trial count")?;
            let count = value
                .parse::<usize>()
                .map_err(|_| format!("--halt-after wants a number, got {value:?}"))?;
            halt_after = Some(count);
        } else if arg == "--deadline-ms" {
            let value = argv.next().ok_or("--deadline-ms needs a millisecond count")?;
            let ms = value
                .parse::<u64>()
                .map_err(|_| format!("--deadline-ms wants a number, got {value:?}"))?;
            deadline_ms = Some(ms);
        } else {
            positional.push(arg);
        }
    }
    if positional.len() != 2 {
        return Err(
            "usage: campaign_resume <checkpoint.json> <summary.json> \
             [--halt-after N] [--deadline-ms N]"
                .to_string(),
        );
    }
    let mut positional = positional.into_iter();
    Ok(Args {
        checkpoint_path: positional.next().unwrap_or_default(),
        summary_path: positional.next().unwrap_or_default(),
        halt_after,
        deadline_ms,
    })
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let threads = threads_from_env();

    // Resume from an existing snapshot, or start fresh.
    let mut checkpoint = match std::fs::read_to_string(&args.checkpoint_path) {
        Ok(text) => CampaignCheckpoint::parse(&text)
            .map_err(|e| format!("bad checkpoint {}: {e}", args.checkpoint_path))?,
        Err(_) => CampaignCheckpoint::new(),
    };
    let resumed_from = checkpoint.len();

    // The sabotaged trials panic by design; keep their reports out of
    // the tool's output (the campaign engine records every failure in
    // the summary anyway).
    std::panic::set_hook(Box::new(|_| {}));

    let mut campaign =
        Campaign::new(3).retry(RetryPolicy { max_attempts: 2, ..RetryPolicy::default() });
    if let Some(ms) = args.deadline_ms {
        campaign = campaign.deadline(std::time::Duration::from_millis(ms));
    }
    let batch = trials(args.deadline_ms.is_some());
    let checkpoint_path = args.checkpoint_path.clone();
    let halt_after = args.halt_after;
    let run = campaign.run_checkpointed(&batch, threads, &mut checkpoint, SNAPSHOT_EVERY, |cp| {
        // Atomic replace: a kill mid-snapshot must leave the previous
        // checkpoint intact, never a half-file that parse() rejects.
        if let Err(e) = cp.store_atomic(std::path::Path::new(&checkpoint_path)) {
            eprintln!("campaign_resume: cannot write checkpoint: {e}");
            std::process::exit(2);
        }
        if let Some(limit) = halt_after {
            if cp.len() >= limit {
                eprintln!(
                    "campaign_resume: halting deliberately with {} / {} trials checkpointed",
                    cp.len(),
                    TRIALS
                );
                std::process::exit(3);
            }
        }
    });
    let scalar_summary = args.deadline_ms.is_none().then(|| {
        campaign
            .clone()
            .panel_width(1)
            .run_checkpointed(&batch, threads, &mut CampaignCheckpoint::new(), SNAPSHOT_EVERY, |_| {})
            .to_json()
            .render_pretty()
    });
    let _ = std::panic::take_hook();

    let summary = run.to_json().render_pretty();
    sint_runtime::durable::AtomicFile::write(
        std::path::Path::new(&args.summary_path),
        format!("{summary}\n").as_bytes(),
    )
    .map_err(|e| format!("cannot write summary {}: {e}", args.summary_path))?;
    eprintln!(
        "campaign_resume: {} trials ({} resumed from checkpoint), {} threads: {}",
        TRIALS,
        resumed_from,
        threads,
        run.stats
    );
    if let Some(scalar_summary) = scalar_summary {
        if scalar_summary != summary {
            eprintln!("campaign_resume: MEMO EQUIVALENCE FAILURE: width-1 summary differs");
            return Ok(ExitCode::from(4));
        }
        eprintln!("campaign_resume: memoised summary byte-identical to the scalar, memo-free run");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("campaign_resume: {message}");
            ExitCode::from(2)
        }
    }
}
