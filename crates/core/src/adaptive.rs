//! The adaptive campaign engine (ROADMAP item 3): campaign-level fault
//! dropping, escalating read-out localization, and recency-driven
//! pattern ordering on top of [`Campaign`].
//!
//! A conventional campaign re-excites every `(victim, fault)` pair on
//! every trial of a severity or corner sweep. The adaptive engine keeps
//! a campaign-wide [`CoverageLedger`] of pairs already *detected*; each
//! trial's session truncates or skips pattern halves whose pairs are
//! all covered ([`crate::soc::Soc::run_adaptive_session`]), probes the
//! remainder at method-1 cost, and escalates to binary-search
//! localization only where a probe actually flags. A [`FaultPriority`]
//! recency clock additionally reorders the two initial-value halves so
//! the recently-failing fault classes are excited first.
//!
//! Determinism contract: trials run in fixed-size **rounds**. Every
//! trial in a round sees the ledger and priority state snapshotted at
//! the round boundary, and results are folded back in trial-index
//! order, so the summary is byte-identical at any thread count — the
//! same contract [`Campaign::run_parallel`] honours, extended to the
//! mutable ledger.

use crate::campaign::{
    AttemptOutcome, Campaign, CampaignStats, ShedReason, Trial, TrialAbort, TrialFailure,
    TrialOutcome, TrialSabotage, TrialShed,
};
use crate::checkpoint::{CheckpointEntry, CheckpointError};
use crate::error::CoreError;
use crate::mafm::{CoverageLedger, IntegrityFault};
use crate::memo::DetectorMemo;
use crate::soc::AdaptiveSessionOutcome;
use sint_interconnect::drive::DriveLevel;
use sint_runtime::cancel::CancelToken;
use sint_runtime::json::{Json, ToJson};
use sint_runtime::pool::{panic_message, Pool};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Snapshot format version emitted by [`AdaptiveCheckpoint::to_json`].
const ADAPTIVE_CHECKPOINT_VERSION: u64 = 1;

/// Tuning knobs for the adaptive engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Trials per round. Within a round every trial sees the same
    /// ledger snapshot (so rounds bound how stale the drop decisions
    /// can be); across rounds the ledger is folded in index order.
    /// Also the checkpoint cadence of
    /// [`Campaign::run_adaptive_checkpointed`].
    pub round: usize,
    /// Whether [`FaultPriority`] reorders the two initial-value halves
    /// (most recently failing first). Disabled, halves always run
    /// `[Low, High]`.
    pub reorder: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig { round: 8, reorder: true }
    }
}

/// Recency clock over the six MA fault classes: which classes failed
/// most recently, campaign-wide. Drives the adaptive half ordering —
/// a defect that keeps producing, say, `Ng` failures puts the
/// high-initial half first on the next trial, so its single trailing
/// probe flags one half-generation earlier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPriority {
    /// Logical timestamp of the last detection per fault class, in
    /// [`IntegrityFault::ALL`] order (0 = never seen).
    last_hit: [u64; 6],
    /// Monotonic detection counter.
    clock: u64,
}

impl FaultPriority {
    /// A fresh clock: nothing has failed yet.
    #[must_use]
    pub fn new() -> FaultPriority {
        FaultPriority::default()
    }

    /// Records a detection of `fault` now.
    pub fn record(&mut self, fault: IntegrityFault) {
        self.clock += 1;
        self.last_hit[fault_index(fault)] = self.clock;
    }

    /// Most-recent detection timestamp among the three faults of the
    /// half starting from `initial` (0 when none has ever failed).
    #[must_use]
    fn half_recency(&self, initial: DriveLevel) -> u64 {
        IntegrityFault::covered_by_initial(initial)
            .iter()
            .map(|f| self.last_hit[fault_index(*f)])
            .max()
            .unwrap_or(0)
    }

    /// The half order the next trial should run: the half whose fault
    /// classes failed most recently first. Deterministic tie-break:
    /// `[Low, High]` (the paper's order) when the recencies are equal —
    /// in particular on a fresh clock.
    #[must_use]
    pub fn half_order(&self) -> [DriveLevel; 2] {
        if self.half_recency(DriveLevel::High) > self.half_recency(DriveLevel::Low) {
            [DriveLevel::High, DriveLevel::Low]
        } else {
            [DriveLevel::Low, DriveLevel::High]
        }
    }

    /// All six fault classes, most recently failing first; ties broken
    /// by [`IntegrityFault::ALL`] order. Feed this to
    /// [`crate::mafm::reorder_schedule`] to front-load a conventional
    /// schedule the same way the adaptive engine front-loads halves.
    #[must_use]
    pub fn order(&self) -> [IntegrityFault; 6] {
        let mut order = IntegrityFault::ALL;
        // Stable sort: equal recencies keep ALL order.
        order.sort_by_key(|f| std::cmp::Reverse(self.last_hit[fault_index(*f)]));
        order
    }
}

impl ToJson for FaultPriority {
    fn to_json(&self) -> Json {
        Json::obj([
            ("clock", self.clock.to_json()),
            ("last_hit", Json::Array(self.last_hit.iter().map(|t| t.to_json()).collect())),
        ])
    }
}

/// Position of `fault` in [`IntegrityFault::ALL`].
fn fault_index(fault: IntegrityFault) -> usize {
    IntegrityFault::ALL.iter().position(|f| *f == fault).expect("ALL enumerates every fault")
}

/// Everything an adaptive batch produced: the standard campaign fields
/// plus the campaign-wide detected-pair set and the adaptive economy
/// counters.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveRun {
    /// Aggregate statistics over `outcomes`.
    pub stats: CampaignStats,
    /// One outcome per input trial, in input order.
    pub outcomes: Vec<TrialOutcome>,
    /// Failure details for every [`TrialOutcome::Failed`].
    pub failures: Vec<TrialFailure>,
    /// Shed details for every [`TrialOutcome::Shed`].
    pub shed: Vec<TrialShed>,
    /// Every `(victim, fault)` pair detected across the whole batch,
    /// victim-major then [`IntegrityFault::ALL`] order. This is the
    /// set the exhaustive-equivalence gate compares.
    pub detected: Vec<(usize, IntegrityFault)>,
    /// Pattern applications skipped because their pairs were already in
    /// the ledger, summed over all trials.
    pub dropped: u64,
    /// Escalation passes (probed half re-runs) spent localizing
    /// failures, summed over all trials.
    pub escalations: u64,
    /// TCKs spent across every session that ran.
    pub total_tck: u64,
}

impl ToJson for AdaptiveRun {
    fn to_json(&self) -> Json {
        Json::obj([
            ("stats", self.stats.to_json()),
            ("outcomes", Json::Array(self.outcomes.iter().map(ToJson::to_json).collect())),
            ("failures", Json::Array(self.failures.iter().map(ToJson::to_json).collect())),
            ("shed", Json::Array(self.shed.iter().map(ToJson::to_json).collect())),
            ("detected", detected_to_json(&self.detected)),
            ("dropped", self.dropped.to_json()),
            ("escalations", self.escalations.to_json()),
            ("total_tck", self.total_tck.to_json()),
        ])
    }
}

fn detected_to_json(pairs: &[(usize, IntegrityFault)]) -> Json {
    Json::Array(
        pairs
            .iter()
            .map(|(wire, fault)| {
                Json::obj([
                    ("wire", wire.to_json()),
                    ("fault", fault_index(*fault).to_json()),
                ])
            })
            .collect(),
    )
}

/// Crash-consistent snapshot of a partially-run adaptive batch: the
/// finished trial entries **plus the coverage ledger and priority
/// clock**, so a resumed run drops exactly the patterns the original
/// would have. Snapshots are taken at round boundaries only — rounds
/// are the engine's determinism unit, so resuming at one reproduces
/// the uninterrupted byte stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveCheckpoint {
    rounds_done: usize,
    entries: Vec<CheckpointEntry>,
    ledger: CoverageLedger,
    priority: FaultPriority,
    total_tck: u64,
}

impl AdaptiveCheckpoint {
    /// An empty checkpoint for a `wires`-wide campaign.
    #[must_use]
    pub fn new(wires: usize) -> AdaptiveCheckpoint {
        AdaptiveCheckpoint {
            rounds_done: 0,
            entries: Vec::new(),
            ledger: CoverageLedger::new(wires),
            priority: FaultPriority::new(),
            total_tck: 0,
        }
    }

    /// Rounds fully folded into this snapshot.
    #[must_use]
    pub fn rounds_done(&self) -> usize {
        self.rounds_done
    }

    /// Finished trial entries, in index order.
    #[must_use]
    pub fn entries(&self) -> &[CheckpointEntry] {
        &self.entries
    }

    /// The campaign-wide coverage ledger as of the last round boundary.
    #[must_use]
    pub fn ledger(&self) -> &CoverageLedger {
        &self.ledger
    }

    /// TCKs spent by every session folded so far.
    #[must_use]
    pub fn total_tck(&self) -> u64 {
        self.total_tck
    }

    /// Decodes a snapshot produced by [`AdaptiveCheckpoint::to_json`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Json`] for malformed JSON,
    /// [`CheckpointError::Schema`] for anything that is not a version-1
    /// adaptive snapshot.
    pub fn parse(text: &str) -> Result<AdaptiveCheckpoint, CheckpointError> {
        let root = Json::parse(text).map_err(CheckpointError::Json)?;
        match root.get("version").and_then(Json::as_u64) {
            Some(ADAPTIVE_CHECKPOINT_VERSION) => {}
            Some(v) => {
                return Err(schema(format!("unsupported adaptive checkpoint version {v}")));
            }
            None => return Err(schema("missing version")),
        }
        let rounds_done = root
            .get("rounds_done")
            .and_then(Json::as_u64)
            .ok_or_else(|| schema("missing rounds_done"))? as usize;
        let total_tck = root
            .get("total_tck")
            .and_then(Json::as_u64)
            .ok_or_else(|| schema("missing total_tck"))?;
        let ledger = root
            .get("ledger")
            .and_then(CoverageLedger::from_json)
            .ok_or_else(|| schema("missing or malformed ledger"))?;
        let priority_json =
            root.get("priority").ok_or_else(|| schema("missing priority"))?;
        let clock = priority_json
            .get("clock")
            .and_then(Json::as_u64)
            .ok_or_else(|| schema("priority is missing clock"))?;
        let hits = priority_json
            .get("last_hit")
            .and_then(Json::as_array)
            .ok_or_else(|| schema("priority is missing last_hit"))?;
        if hits.len() != 6 {
            return Err(schema("priority last_hit must have six entries"));
        }
        let mut last_hit = [0u64; 6];
        for (slot, hit) in last_hit.iter_mut().zip(hits) {
            *slot = hit.as_u64().ok_or_else(|| schema("last_hit entry is not a count"))?;
        }
        let entries_json = root
            .get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| schema("missing entries array"))?;
        let mut entries = Vec::with_capacity(entries_json.len());
        for entry in entries_json {
            entries.push(CheckpointEntry::from_json(entry)?);
        }
        if !entries.windows(2).all(|w| w[0].index < w[1].index) {
            return Err(schema("entries must be strictly index-ordered"));
        }
        Ok(AdaptiveCheckpoint {
            rounds_done,
            entries,
            ledger,
            priority: FaultPriority { last_hit, clock },
            total_tck,
        })
    }

    /// Persists the snapshot crash-consistently (staged, fsynced,
    /// renamed — see [`sint_runtime::durable::AtomicFile`]).
    ///
    /// # Errors
    ///
    /// Any I/O failure from staging, syncing or renaming.
    pub fn store_atomic(&self, path: &std::path::Path) -> std::io::Result<()> {
        let payload = self.to_json().render() + "\n";
        sint_runtime::durable::AtomicFile::write(path, payload.as_bytes())
    }
}

impl ToJson for AdaptiveCheckpoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("version", ADAPTIVE_CHECKPOINT_VERSION.to_json()),
            ("rounds_done", self.rounds_done.to_json()),
            ("total_tck", self.total_tck.to_json()),
            ("ledger", self.ledger.to_json()),
            ("priority", self.priority.to_json()),
            ("entries", Json::Array(self.entries.iter().map(ToJson::to_json).collect())),
        ])
    }
}

fn schema(reason: impl Into<String>) -> CheckpointError {
    CheckpointError::Schema { reason: reason.into() }
}

/// What one successful adaptive attempt contributes to campaign state —
/// the fold half of [`Campaign::run_adaptive_trial_isolated`]'s return
/// value, handed to callers that keep their own ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdaptiveDelta {
    /// Freshly detected `(victim wire, fault)` pairs — record them into
    /// the campaign ledger so later trials can drop them.
    pub detected: Vec<(usize, IntegrityFault)>,
    /// Pattern halves skipped because their pairs were already covered.
    pub dropped: u64,
    /// Binary-search escalation passes the session had to run.
    pub escalations: u64,
}

/// What one adaptive trial produced, before folding into the campaign
/// state.
#[derive(Debug, Clone)]
struct AdaptiveTrialReport {
    outcome: TrialOutcome,
    detected: Vec<(usize, IntegrityFault)>,
    dropped: u64,
    escalations: u64,
    tck: u64,
}

impl Campaign {
    /// Runs a batch through the adaptive engine with a fresh ledger.
    ///
    /// Equivalent to [`Campaign::run_adaptive_checkpointed`] with an
    /// empty checkpoint and a discarding sink.
    #[must_use]
    pub fn run_adaptive(&self, trials: &[Trial], threads: usize) -> AdaptiveRun {
        let mut checkpoint = AdaptiveCheckpoint::new(self.wires());
        self.run_adaptive_checkpointed(trials, threads, &mut checkpoint, |_| {})
    }

    /// The adaptive engine with round-boundary checkpointing and
    /// resume.
    ///
    /// Rounds already recorded in `checkpoint` are skipped entirely —
    /// the ledger and priority clock resume from the snapshot, so the
    /// continuation drops exactly the patterns the uninterrupted run
    /// would have and the final summary is byte-identical. `sink` is
    /// invoked with the updated checkpoint after every round.
    ///
    /// # Panics
    ///
    /// Panics when `checkpoint` does not hold exactly the entries its
    /// round counter claims for this batch (a snapshot from a different
    /// batch layout).
    #[must_use]
    pub fn run_adaptive_checkpointed(
        &self,
        trials: &[Trial],
        threads: usize,
        checkpoint: &mut AdaptiveCheckpoint,
        mut sink: impl FnMut(&AdaptiveCheckpoint),
    ) -> AdaptiveRun {
        let cfg = self.adaptive_config();
        let round_size = cfg.round.max(1);
        let total_rounds = trials.len().div_ceil(round_size);
        let done = checkpoint.rounds_done.min(total_rounds);
        assert_eq!(
            checkpoint.entries.len(),
            (done * round_size).min(trials.len()),
            "adaptive checkpoint does not match this batch layout"
        );
        let pool = Pool::new(threads);
        let budget_token = self.campaign_budget().map(CancelToken::with_deadline);
        let memo = DetectorMemo::new();
        for round in done..total_rounds {
            let start = round * round_size;
            let end = ((round + 1) * round_size).min(trials.len());
            let order = if cfg.reorder {
                checkpoint.priority.half_order()
            } else {
                [DriveLevel::Low, DriveLevel::High]
            };
            let ledger = checkpoint.ledger.clone();
            let batch: Vec<(usize, Trial)> = (start..end).map(|i| (i, trials[i])).collect();
            let results = pool.try_map(&batch, |_, (index, trial)| {
                self.run_adaptive_trial_attempts(
                    *trial,
                    *index as u64,
                    budget_token.as_ref(),
                    Some(&ledger),
                    order,
                    Some(&memo),
                )
            });
            for ((index, _), result) in batch.iter().zip(results) {
                let entry = self.fold_result(*index, result, checkpoint);
                checkpoint.entries.push(entry);
            }
            checkpoint.rounds_done = round + 1;
            sink(checkpoint);
        }
        assemble(checkpoint)
    }

    /// The exhaustive oracle with per-pattern attribution: every trial
    /// runs the full schedule (nothing dropped, nothing reordered) with
    /// a probe after every pattern, and detections are unioned exactly
    /// like the adaptive engine's. The equivalence gate compares this
    /// run's `detected` set against [`Campaign::run_adaptive`]'s.
    #[must_use]
    pub fn run_attributed(&self, trials: &[Trial], threads: usize) -> AdaptiveRun {
        let mut checkpoint = AdaptiveCheckpoint::new(self.wires());
        let pool = Pool::new(threads);
        let budget_token = self.campaign_budget().map(CancelToken::with_deadline);
        let order = [DriveLevel::Low, DriveLevel::High];
        let batch: Vec<(usize, Trial)> = trials.iter().copied().enumerate().collect();
        let memo = DetectorMemo::new();
        let results = pool.try_map(&batch, |_, (index, trial)| {
            self.run_adaptive_trial_attempts(
                *trial,
                *index as u64,
                budget_token.as_ref(),
                None,
                order,
                Some(&memo),
            )
        });
        for ((index, _), result) in batch.iter().zip(results) {
            let entry = self.fold_result(*index, result, &mut checkpoint);
            checkpoint.entries.push(entry);
        }
        assemble(&checkpoint)
    }

    /// The fleet's serial adaptive path: streams one checkpoint-v2
    /// entry per trial (now carrying the `dropped` / `escalation`
    /// counters) while holding only the ledger and running stats in
    /// memory. Serial execution lets the ledger fold after every trial
    /// instead of every round, so a board sheds the maximum work.
    pub fn run_streaming_adaptive(
        &self,
        trials: &[Trial],
        budget: Option<&CancelToken>,
        mut emit: impl FnMut(&CheckpointEntry),
    ) -> CampaignStats {
        let own = if budget.is_none() {
            self.campaign_budget().map(CancelToken::with_deadline)
        } else {
            None
        };
        let budget = budget.or(own.as_ref());
        let cfg = self.adaptive_config();
        let mut checkpoint = AdaptiveCheckpoint::new(self.wires());
        let mut stats = CampaignStats::default();
        for (index, trial) in trials.iter().enumerate() {
            let order = if cfg.reorder {
                checkpoint.priority.half_order()
            } else {
                [DriveLevel::Low, DriveLevel::High]
            };
            let ledger = checkpoint.ledger.clone();
            let result = Ok(self.run_adaptive_trial_attempts(
                *trial,
                index as u64,
                budget,
                Some(&ledger),
                order,
                None,
            ));
            let entry = self.fold_result(index, result, &mut checkpoint);
            stats.accumulate(entry.outcome);
            emit(&entry);
            checkpoint.entries.push(entry);
        }
        stats
    }

    /// Runs exactly **one adaptive attempt** of one trial, isolating
    /// panics and classifying every way it can end — the adaptive
    /// counterpart of [`Campaign::run_trial_isolated`], for external
    /// supervisors (the fleet's circuit breaker) that own their own
    /// retry policy *and* their own campaign-wide [`CoverageLedger`].
    ///
    /// On a verdict the returned [`AdaptiveDelta`] carries the freshly
    /// detected `(victim, fault)` pairs plus the drop/escalation
    /// counters; the caller folds the pairs into its ledger (and its
    /// [`FaultPriority`] clock) before the next trial. Every other
    /// ending yields `None` — a shed or failed attempt detects nothing.
    #[must_use]
    pub fn run_adaptive_trial_isolated(
        &self,
        trial: Trial,
        seed: u64,
        ledger: &CoverageLedger,
        half_order: [DriveLevel; 2],
    ) -> (AttemptOutcome, Option<AdaptiveDelta>) {
        match catch_unwind(AssertUnwindSafe(|| {
            self.run_adaptive_trial_seeded(trial, seed, Some(ledger), half_order, None)
        })) {
            Ok(Ok(report)) => (
                AttemptOutcome::Verdict(report.outcome),
                Some(AdaptiveDelta {
                    detected: report.detected,
                    dropped: report.dropped,
                    escalations: report.escalations,
                }),
            ),
            Ok(Err(CoreError::DeadlineExceeded { step })) => {
                (AttemptOutcome::Shed(ShedReason::Deadline { step }), None)
            }
            Ok(Err(error @ CoreError::Infrastructure(_))) => {
                (AttemptOutcome::Infrastructure { error: error.to_string() }, None)
            }
            Ok(Err(error)) => (AttemptOutcome::Error { error: error.to_string() }, None),
            Err(payload) => {
                (AttemptOutcome::Infrastructure { error: panic_message(&*payload) }, None)
            }
        }
    }

    /// Folds one trial result into the campaign state (ledger, priority
    /// clock, TCK tally) and returns its checkpoint entry.
    fn fold_result(
        &self,
        index: usize,
        result: Result<Result<AdaptiveTrialReport, TrialAbort>, sint_runtime::pool::JobPanic>,
        checkpoint: &mut AdaptiveCheckpoint,
    ) -> CheckpointEntry {
        let seed = index as u64;
        let max_attempts = self.retry_policy().max_attempts.max(1);
        let mut entry = CheckpointEntry {
            index,
            seed,
            outcome: TrialOutcome::Failed,
            failure: None,
            shed: None,
            dropped: 0,
            escalation: 0,
        };
        match result {
            Ok(Ok(report)) => {
                entry.outcome = report.outcome;
                entry.dropped = report.dropped;
                entry.escalation = report.escalations;
                checkpoint.total_tck += report.tck;
                for (victim, fault) in report.detected {
                    if checkpoint.ledger.record(victim, fault) {
                        checkpoint.priority.record(fault);
                    }
                }
            }
            Ok(Err(TrialAbort::Failed { attempts, error })) => {
                entry.failure = Some(TrialFailure { index, seed, attempts, error });
            }
            Ok(Err(TrialAbort::Shed(reason))) => {
                entry.outcome = TrialOutcome::Shed;
                entry.shed = Some(TrialShed { index, seed, reason });
            }
            Err(panic) => {
                entry.failure = Some(TrialFailure {
                    index,
                    seed,
                    attempts: max_attempts,
                    error: panic.message,
                });
            }
        }
        entry
    }

    /// Adaptive counterpart of the internal retry engine: bounded,
    /// seed-perturbed attempts with panic isolation, running either the
    /// ledger-driven adaptive session (`ledger = Some`) or the
    /// attributed-exhaustive oracle (`ledger = None`), on SoCs sharing
    /// the calling batch engine's detector memo, if any.
    fn run_adaptive_trial_attempts(
        &self,
        trial: Trial,
        base_seed: u64,
        budget: Option<&CancelToken>,
        ledger: Option<&CoverageLedger>,
        half_order: [DriveLevel; 2],
        memo: Option<&DetectorMemo>,
    ) -> Result<AdaptiveTrialReport, TrialAbort> {
        if let Some(token) = budget {
            if token.poll_deadline() || token.is_cancelled() {
                return Err(TrialAbort::Shed(crate::campaign::ShedReason::Budget));
            }
        }
        let policy = self.retry_policy();
        let max_attempts = policy.max_attempts.max(1);
        let mut last_error = String::new();
        for attempt in 0..max_attempts {
            let seed = base_seed.wrapping_add((attempt as u64).wrapping_mul(policy.seed_stride));
            match catch_unwind(AssertUnwindSafe(|| {
                self.run_adaptive_trial_seeded(trial, seed, ledger, half_order, memo)
            })) {
                Ok(Ok(report)) => return Ok(report),
                Ok(Err(CoreError::DeadlineExceeded { step })) => {
                    return Err(TrialAbort::Shed(crate::campaign::ShedReason::Deadline { step }));
                }
                Ok(Err(error)) => last_error = error.to_string(),
                Err(payload) => last_error = panic_message(&*payload),
            }
        }
        Err(TrialAbort::Failed { attempts: max_attempts, error: last_error })
    }

    /// Runs one adaptive (or attributed-exhaustive) trial.
    fn run_adaptive_trial_seeded(
        &self,
        trial: Trial,
        seed_offset: u64,
        ledger: Option<&CoverageLedger>,
        half_order: [DriveLevel; 2],
        memo: Option<&DetectorMemo>,
    ) -> Result<AdaptiveTrialReport, CoreError> {
        if trial.sabotage == TrialSabotage::Panic {
            panic!("injected fault: sabotaged trial (TrialSabotage::Panic)");
        }
        let config = self.trial_session_config(trial)?;
        let mut soc = self.build_trial_soc(trial, seed_offset, memo)?;
        let outcome = match ledger {
            Some(ledger) => soc.run_adaptive_session(&config, ledger, half_order)?,
            None => soc.run_attributed_exhaustive(&config)?,
        };
        let empty = CoverageLedger::new(0);
        let judged = judge_adaptive(trial, &outcome, ledger.unwrap_or(&empty));
        Ok(AdaptiveTrialReport {
            outcome: judged,
            tck: outcome.report.tck_used,
            detected: outcome.detected,
            dropped: outcome.dropped,
            escalations: outcome.escalations,
        })
    }
}

/// Judges one adaptive session. Unlike the exhaustive judge, a dropped
/// re-excitation must still count: when the judged wire's pairs are
/// already in the campaign ledger, the defect was *previously*
/// detected and the skipped patterns would only have confirmed it, so
/// the trial is credited from the ledger — noise from any covered
/// glitch-class pair, skew from any covered skew-class pair.
fn judge_adaptive(
    trial: Trial,
    outcome: &AdaptiveSessionOutcome,
    ledger: &CoverageLedger,
) -> TrialOutcome {
    match trial.defect {
        Some(_) => {
            let wire = trial.judged_wire();
            let v = outcome.report.wire(wire);
            let mut noise = v.noise;
            let mut skew = v.skew;
            for fault in IntegrityFault::ALL {
                if ledger.is_covered(wire, fault) {
                    if fault.is_skew() {
                        skew = true;
                    } else {
                        noise = true;
                    }
                }
            }
            if noise || skew {
                TrialOutcome::Detected { noise, skew }
            } else {
                TrialOutcome::Missed
            }
        }
        None => {
            if outcome.report.any_violation() {
                TrialOutcome::FalseAlarm
            } else {
                TrialOutcome::CleanPass
            }
        }
    }
}

/// Assembles the public run summary from a fully-folded checkpoint.
fn assemble(checkpoint: &AdaptiveCheckpoint) -> AdaptiveRun {
    let mut outcomes = Vec::with_capacity(checkpoint.entries.len());
    let mut failures = Vec::new();
    let mut shed = Vec::new();
    let mut dropped = 0u64;
    let mut escalations = 0u64;
    for entry in &checkpoint.entries {
        outcomes.push(entry.outcome);
        if let Some(failure) = &entry.failure {
            failures.push(failure.clone());
        }
        if let Some(record) = entry.shed {
            shed.push(record);
        }
        dropped += entry.dropped;
        escalations += entry.escalation;
    }
    AdaptiveRun {
        stats: CampaignStats::tally(&outcomes),
        outcomes,
        failures,
        shed,
        detected: checkpoint.ledger.pairs(),
        dropped,
        escalations,
        total_tck: checkpoint.total_tck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::MethodPlanner;
    use crate::session::ObservationMethod;
    use sint_interconnect::defect::Defect;

    fn sweep_trials() -> Vec<Trial> {
        // A severity sweep: the same two defects re-presented at
        // several severities plus controls — exactly the shape where
        // fault dropping pays.
        let mut trials = Vec::new();
        for factor in [6.0, 7.0, 8.0] {
            trials.push(Trial::defective(Defect::CouplingBoost { wire: 1, factor }));
            trials.push(Trial::control());
            trials.push(Trial::defective(Defect::CouplingBoost { wire: 2, factor }));
        }
        trials
    }

    #[test]
    fn adaptive_detected_set_matches_the_exhaustive_oracle() {
        // Round size 1 folds the ledger after every trial — on a bus
        // this narrow the re-presented defects must be dropped
        // immediately for the savings to beat the escalation spent on
        // their first appearance.
        let campaign = Campaign::new(4).adaptive(AdaptiveConfig { round: 1, reorder: true });
        let trials = sweep_trials();
        let adaptive = campaign.run_adaptive(&trials, 1);
        let oracle = campaign.run_attributed(&trials, 1);
        assert_eq!(adaptive.detected, oracle.detected);
        assert!(!adaptive.detected.is_empty(), "the sweep's defects must be detected");
        assert!(adaptive.stats.detected > 0, "dropped re-excitations keep their credit");
        assert_eq!(adaptive.stats.false_alarms, 0);
        assert!(adaptive.dropped > 0, "re-presented defects must be dropped");
        assert_eq!(oracle.dropped, 0, "the oracle never drops");
        assert!(
            adaptive.total_tck < oracle.total_tck,
            "dropping must save TCKs: {} vs {}",
            adaptive.total_tck,
            oracle.total_tck
        );
    }

    #[test]
    fn adaptive_summary_is_byte_identical_at_any_thread_count() {
        let campaign = Campaign::new(4);
        let trials = sweep_trials();
        let serial = campaign.run_adaptive(&trials, 1).to_json().render();
        for threads in [2usize, 4, 8] {
            let parallel = campaign.run_adaptive(&trials, threads).to_json().render();
            assert_eq!(parallel, serial, "{threads} threads");
        }
    }

    #[test]
    fn streaming_adaptive_agrees_with_the_rounds_engine() {
        // Streaming folds the ledger per trial instead of per round, so
        // it can only drop *more*; outcomes and the detected set must
        // agree (ledger credit covers every drop).
        let campaign = Campaign::new(4);
        let trials = sweep_trials();
        let rounds = campaign.run_adaptive(&trials, 1);
        let mut streamed = Vec::new();
        let stats = campaign.run_streaming_adaptive(&trials, None, |e| streamed.push(e.clone()));
        assert_eq!(stats, rounds.stats);
        let outcomes: Vec<_> = streamed.iter().map(|e| e.outcome).collect();
        assert_eq!(outcomes, rounds.outcomes);
        let streamed_dropped: u64 = streamed.iter().map(|e| e.dropped).sum();
        assert!(streamed_dropped >= rounds.dropped);
    }

    #[test]
    fn checkpoint_resume_is_byte_identical() {
        let campaign = Campaign::new(4).adaptive(AdaptiveConfig { round: 3, reorder: true });
        let trials = sweep_trials();

        let mut reference_ckpt = AdaptiveCheckpoint::new(4);
        let reference =
            campaign.run_adaptive_checkpointed(&trials, 1, &mut reference_ckpt, |_| {});

        // Kill after the first round; resume from the persisted bytes.
        let mut first_snapshot = None;
        let mut halted = AdaptiveCheckpoint::new(4);
        let _ = campaign.run_adaptive_checkpointed(&trials, 1, &mut halted, |cp| {
            if first_snapshot.is_none() {
                first_snapshot = Some(cp.to_json().render());
            }
        });
        let snapshot = first_snapshot.expect("at least one round ran");
        let mut resumed_ckpt = AdaptiveCheckpoint::parse(&snapshot).unwrap();
        assert_eq!(resumed_ckpt.rounds_done(), 1);
        assert_eq!(resumed_ckpt.entries().len(), 3);
        let resumed = campaign.run_adaptive_checkpointed(&trials, 4, &mut resumed_ckpt, |_| {});
        assert_eq!(resumed.to_json().render(), reference.to_json().render());
    }

    #[test]
    fn checkpoint_parse_rejects_malformed_snapshots() {
        assert!(matches!(
            AdaptiveCheckpoint::parse("not json"),
            Err(CheckpointError::Json(_))
        ));
        for bad in [
            r#"{"rounds_done":0}"#,
            r#"{"version":9,"rounds_done":0}"#,
            r#"{"version":1}"#,
            r#"{"version":1,"rounds_done":0,"total_tck":0,"ledger":{"wires":2},"priority":{"clock":0,"last_hit":[0,0,0,0,0,0]},"entries":[]}"#,
            r#"{"version":1,"rounds_done":0,"total_tck":0,"ledger":{"wires":2,"masks":[0,0]},"priority":{"clock":0,"last_hit":[0,0]},"entries":[]}"#,
        ] {
            assert!(
                matches!(AdaptiveCheckpoint::parse(bad), Err(CheckpointError::Schema { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn priority_orders_recent_failures_first() {
        let mut priority = FaultPriority::new();
        assert_eq!(priority.half_order(), [DriveLevel::Low, DriveLevel::High]);
        priority.record(IntegrityFault::Ng);
        assert_eq!(priority.half_order(), [DriveLevel::High, DriveLevel::Low]);
        priority.record(IntegrityFault::Rs);
        assert_eq!(priority.half_order(), [DriveLevel::Low, DriveLevel::High]);
        let order = priority.order();
        assert_eq!(order[0], IntegrityFault::Rs, "most recent first: {order:?}");
        assert_eq!(order[1], IntegrityFault::Ng);
        // Never-seen faults keep ALL order behind the recent ones.
        assert_eq!(
            &order[2..],
            &[
                IntegrityFault::Pg,
                IntegrityFault::PgBar,
                IntegrityFault::NgBar,
                IntegrityFault::Fs
            ]
        );
    }

    #[test]
    fn sabotage_and_shed_flow_through_the_adaptive_engine() {
        use std::time::Duration;
        // The deadline is generous for a clean adaptive control trial
        // but hopeless for the wedge's thousandfold settle window; no
        // defect trial rides along because an escalating session's
        // wall-clock is the one thing this test must not depend on.
        let campaign = Campaign::new(3).deadline(Duration::from_millis(250));
        let trials = vec![Trial::control(), Trial::panicking(), Trial::wedged()];
        let run = campaign.run_adaptive(&trials, 2);
        assert_eq!(run.outcomes[0], TrialOutcome::CleanPass);
        assert_eq!(run.outcomes[1], TrialOutcome::Failed);
        assert_eq!(run.outcomes[2], TrialOutcome::Shed);
        assert_eq!(run.failures.len(), 1);
        assert_eq!(run.shed.len(), 1);
        assert!(run.failures[0].error.contains("injected fault"), "{}", run.failures[0].error);
    }

    #[test]
    fn planner_choice_applies_to_trial_configs() {
        let campaign = Campaign::new(8).planner(MethodPlanner::new(1.0).unwrap());
        let config = campaign.trial_session_config(Trial::control()).unwrap();
        assert_eq!(config.method, ObservationMethod::PerPattern);
        let sparse = Campaign::new(8).planner(MethodPlanner::new(0.001).unwrap());
        let config = sparse.trial_session_config(Trial::control()).unwrap();
        assert_eq!(config.method, ObservationMethod::Once);
    }
}
