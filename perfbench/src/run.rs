//! What every workload shares: its configuration, its outcome, and the
//! set-up and timed-pass loops.

use crate::host::peak_rss_mb;
use crate::metrics::{Values, PER_LAYER};
use crate::stats::median;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPS: usize = 5;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Host seconds of timed passes.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Worker threads for the parallel workloads.
    pub threads: usize,
    /// Scratch directory for files the workload writes (removed at the
    /// end of the run).
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// A correctness gate and how it ended.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Evidence, for the report.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Trials (dies, campaign trials or board-trials) attempted.
    pub attempted: u64,
    /// Attempted trials that failed: shed, errored, or wrong.
    pub failed: u64,
    /// Every correctness gate checked.
    pub gates: Vec<Gate>,
    /// Measured metrics.
    pub values: Values,
    /// Free-form lines for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a gate.
    pub fn gate(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// Whether every gate held and no trial failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|g| g.ok)
    }

    /// Sets `failed_share` from the counts so far.
    pub fn set_failed_share(&mut self) {
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        self.values.set("failed_share", share);
    }
}

/// Runs `setup` [`SETUP_REPS`] times and returns the last result with
/// the median wall time in seconds.
pub fn measure_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS is positive"), median(&secs))
}

/// Marks every per-layer metric whose name starts with `prefix` as not
/// measured on this workload.
pub fn absent(values: &mut Values, prefix: &str, why: &str) {
    for m in PER_LAYER.iter().filter(|m| m.name.starts_with(prefix)) {
        values.not_applicable(m.name, why);
    }
}

/// Writes the traced run's spans to `<out_dir>/trace-<workload>-seed<seed>.jsonl`.
pub fn write_trace(tracer: &Tracer, cfg: &RunConfig, workload: &str, out: &mut Outcome) {
    let path = cfg
        .out_dir
        .join(format!("trace-{workload}-seed{}.jsonl", cfg.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
}

/// Passes after which `peak_rss_mb` is read: a fixed amount of work, so
/// the figure does not depend on how many passes the time budget
/// allowed (the allocator's high-water mark creeps up at random over
/// many passes).
const RSS_AFTER_PASSES: usize = 2;

/// The pass loop of both run kinds: `pass(index, traced)` runs until
/// `cfg.seconds` of wall time have gone. Untraced runs time untraced
/// passes only, at least two. Traced runs alternate untraced (even) and
/// traced (odd) passes, so drift over the run reaches both alike, at
/// least two of each. Returns the (untraced, traced) pass walls in
/// seconds, and records `peak_rss_mb` after the first passes.
pub fn run_passes(
    cfg: &RunConfig,
    values: &mut Values,
    mut pass: impl FnMut(usize, bool),
) -> (Vec<f64>, Vec<f64>) {
    let min_passes = if cfg.trace { 4 } else { 2 };
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min_passes || start.elapsed() < budget {
        let index = walls.len();
        let t0 = Instant::now();
        pass(index, cfg.trace && index % 2 == 1);
        walls.push(t0.elapsed().as_secs_f64());
        if walls.len() == RSS_AFTER_PASSES {
            match peak_rss_mb() {
                Some(mb) => values.set("peak_rss_mb", mb),
                None => values.not_applicable("peak_rss_mb", "no /proc/self/status"),
            }
        }
    }
    if !cfg.trace {
        return (walls, Vec::new());
    }
    let every_other = |first: usize| walls.iter().skip(first).step_by(2).copied().collect();
    (every_other(0), every_other(1))
}

/// Renders any error for a gate's detail.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}
