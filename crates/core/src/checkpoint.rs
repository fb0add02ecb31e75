//! Campaign checkpointing: periodic snapshots and byte-identical
//! resume.
//!
//! Long defect-injection campaigns are exactly the runs most likely to
//! be interrupted — a killed CI job, a power cut on the test floor.
//! [`Campaign::run_checkpointed`] snapshots finished trials every
//! `snapshot_every` completions through a caller-supplied sink; feeding
//! the last snapshot back in resumes the batch, re-running only the
//! unfinished trials. Because every trial's behaviour is keyed to its
//! index (its variation seed), the resumed summary is byte-identical to
//! an uninterrupted run at any thread count.

use crate::campaign::{
    Campaign, CampaignRun, CampaignStats, ShedReason, Trial, TrialAbort, TrialFailure,
    TrialOutcome, TrialShed,
};
use crate::memo::DetectorMemo;
use sint_runtime::cancel::CancelToken;
use sint_runtime::json::{Json, JsonParseError, ToJson};
use sint_runtime::pool::Pool;
use std::fmt;

/// Checkpoint format version emitted by [`CampaignCheckpoint::to_json`].
/// Version 2 added shed records ([`TrialOutcome::Shed`] plus the
/// `shed` field); version-1 snapshots predate deadline support and are
/// rejected rather than silently resumed without their shed state.
const CHECKPOINT_VERSION: u64 = 2;

/// Errors produced while decoding a checkpoint snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The snapshot is not valid JSON.
    Json(JsonParseError),
    /// The JSON is well-formed but not a checkpoint (wrong version,
    /// missing field, wrong type).
    Schema {
        /// Human-readable reason.
        reason: String,
    },
}

impl CheckpointError {
    fn schema(reason: impl Into<String>) -> CheckpointError {
        CheckpointError::Schema { reason: reason.into() }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Json(e) => write!(f, "checkpoint is not valid JSON: {e}"),
            CheckpointError::Schema { reason } => {
                write!(f, "checkpoint schema violation: {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<JsonParseError> for CheckpointError {
    fn from(e: JsonParseError) -> Self {
        CheckpointError::Json(e)
    }
}

/// One finished trial in a checkpoint, keyed by trial index *and* the
/// seed that index implied — a snapshot taken against a different
/// batch layout is rejected at lookup time, not replayed silently.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointEntry {
    /// Index of the trial in the batch.
    pub index: usize,
    /// Base variation seed the trial ran with (its index).
    pub seed: u64,
    /// The verdict ([`TrialOutcome::Failed`] when every attempt died,
    /// [`TrialOutcome::Shed`] when a deadline or the budget cut it).
    pub outcome: TrialOutcome,
    /// Failure details when `outcome` is [`TrialOutcome::Failed`].
    pub failure: Option<TrialFailure>,
    /// Shed details when `outcome` is [`TrialOutcome::Shed`]. Recorded
    /// so a resumed summary stays byte-identical to an uninterrupted
    /// one; drop the entry from the snapshot to re-run a shed trial
    /// under a fresh budget.
    pub shed: Option<TrialShed>,
    /// Patterns the adaptive engine skipped for this trial because
    /// their `(victim, fault)` pairs were already in the campaign
    /// coverage ledger. Zero for non-adaptive runs; rendered only when
    /// nonzero so existing v2 records stay byte-identical.
    pub dropped: u64,
    /// Escalation passes (extra half re-runs with mid-half probes) the
    /// adaptive engine spent localizing this trial's failures. Zero for
    /// non-adaptive runs; rendered only when nonzero.
    pub escalation: u64,
}

impl CheckpointEntry {
    /// Decodes one entry from its [`ToJson`] rendering — the public
    /// inverse used by streaming consumers (the fleet's incremental
    /// JSONL artifacts embed checkpoint-v2 entries verbatim, and replay
    /// tooling parses them back through this).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Schema`] when the JSON is not an entry.
    pub fn from_json(json: &Json) -> Result<CheckpointEntry, CheckpointError> {
        parse_entry(json)
    }
}

impl ToJson for CheckpointEntry {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("index", self.index.to_json()),
            ("seed", self.seed.to_json()),
            ("outcome", self.outcome.to_json()),
            ("failure", match &self.failure {
                Some(f) => f.to_json(),
                None => Json::Null,
            }),
            ("shed", match &self.shed {
                Some(s) => s.to_json(),
                None => Json::Null,
            }),
        ];
        // Adaptive counters render only when nonzero so pre-adaptive v2
        // records (and their goldens) stay byte-identical.
        if self.dropped != 0 {
            fields.push(("dropped", self.dropped.to_json()));
        }
        if self.escalation != 0 {
            fields.push(("escalation", self.escalation.to_json()));
        }
        Json::obj(fields)
    }
}

/// Accumulated finished trials of one campaign batch, ordered by trial
/// index.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignCheckpoint {
    entries: Vec<CheckpointEntry>,
}

impl CampaignCheckpoint {
    /// An empty checkpoint (a fresh, un-resumed run).
    #[must_use]
    pub fn new() -> CampaignCheckpoint {
        CampaignCheckpoint::default()
    }

    /// Finished trials recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded entries, ordered by trial index.
    #[must_use]
    pub fn entries(&self) -> &[CheckpointEntry] {
        &self.entries
    }

    /// The entry for trial `index`, provided it was recorded under the
    /// same `seed` (otherwise the snapshot belongs to a different batch
    /// layout and must not be reused).
    #[must_use]
    pub fn entry_for(&self, index: usize, seed: u64) -> Option<&CheckpointEntry> {
        self.entries
            .binary_search_by_key(&index, |e| e.index)
            .ok()
            .map(|pos| &self.entries[pos])
            .filter(|e| e.seed == seed)
    }

    /// Records a finished trial, replacing any previous entry for the
    /// same index.
    pub fn record(&mut self, entry: CheckpointEntry) {
        match self.entries.binary_search_by_key(&entry.index, |e| e.index) {
            Ok(pos) => self.entries[pos] = entry,
            Err(pos) => self.entries.insert(pos, entry),
        }
    }

    /// Decodes a snapshot produced by [`CampaignCheckpoint::to_json`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Json`] for malformed JSON,
    /// [`CheckpointError::Schema`] for a well-formed document that is
    /// not a version-1 checkpoint.
    pub fn parse(text: &str) -> Result<CampaignCheckpoint, CheckpointError> {
        let root = Json::parse(text)?;
        match root.get("version").and_then(Json::as_u64) {
            Some(CHECKPOINT_VERSION) => {}
            Some(v) => {
                return Err(CheckpointError::schema(format!("unsupported version {v}")));
            }
            None => return Err(CheckpointError::schema("missing version")),
        }
        let entries = root
            .get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| CheckpointError::schema("missing entries array"))?;
        let mut checkpoint = CampaignCheckpoint::new();
        for entry in entries {
            checkpoint.record(parse_entry(entry)?);
        }
        Ok(checkpoint)
    }

    /// Persists the snapshot crash-consistently: the rendering is
    /// staged to a temporary sibling, fsynced, and renamed over `path`
    /// ([`sint_runtime::durable::AtomicFile`]), so a kill at any byte
    /// offset leaves either the previous snapshot or this one — never
    /// a half-written file that [`CampaignCheckpoint::parse`] rejects.
    ///
    /// # Errors
    ///
    /// Any I/O failure from staging, syncing or renaming.
    pub fn store_atomic(&self, path: &std::path::Path) -> std::io::Result<()> {
        let payload = self.to_json().render() + "\n";
        sint_runtime::durable::AtomicFile::write(path, payload.as_bytes())
    }
}

impl ToJson for CampaignCheckpoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("version", CHECKPOINT_VERSION.to_json()),
            ("entries", Json::Array(self.entries.iter().map(ToJson::to_json).collect())),
        ])
    }
}

fn field_u64(entry: &Json, key: &str) -> Result<u64, CheckpointError> {
    entry
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| CheckpointError::schema(format!("entry is missing numeric {key:?}")))
}

fn field_bool(obj: &Json, key: &str) -> Result<bool, CheckpointError> {
    obj.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| CheckpointError::schema(format!("outcome is missing boolean {key:?}")))
}

fn parse_outcome(outcome: &Json) -> Result<TrialOutcome, CheckpointError> {
    let kind = outcome
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| CheckpointError::schema("outcome is missing its kind"))?;
    Ok(match kind {
        "detected" => TrialOutcome::Detected {
            noise: field_bool(outcome, "noise")?,
            skew: field_bool(outcome, "skew")?,
        },
        "missed" => TrialOutcome::Missed,
        "clean_pass" => TrialOutcome::CleanPass,
        "false_alarm" => TrialOutcome::FalseAlarm,
        "failed" => TrialOutcome::Failed,
        "shed" => TrialOutcome::Shed,
        other => {
            return Err(CheckpointError::schema(format!("unknown outcome kind {other:?}")));
        }
    })
}

fn parse_shed_reason(reason: &Json) -> Result<ShedReason, CheckpointError> {
    let kind = reason
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| CheckpointError::schema("shed reason is missing its kind"))?;
    match kind {
        "deadline" => Ok(ShedReason::Deadline { step: field_u64(reason, "step")? as usize }),
        "budget" => Ok(ShedReason::Budget),
        "quarantined" => Ok(ShedReason::Quarantined),
        other => Err(CheckpointError::schema(format!("unknown shed reason {other:?}"))),
    }
}

fn parse_entry(entry: &Json) -> Result<CheckpointEntry, CheckpointError> {
    let index = field_u64(entry, "index")? as usize;
    let seed = field_u64(entry, "seed")?;
    let outcome = parse_outcome(
        entry.get("outcome").ok_or_else(|| CheckpointError::schema("entry has no outcome"))?,
    )?;
    let failure = match entry.get("failure") {
        None | Some(Json::Null) => None,
        Some(f) => Some(TrialFailure {
            index: field_u64(f, "index")? as usize,
            seed: field_u64(f, "seed")?,
            attempts: field_u64(f, "attempts")? as usize,
            error: f
                .get("error")
                .and_then(Json::as_str)
                .ok_or_else(|| CheckpointError::schema("failure is missing its error text"))?
                .to_string(),
        }),
    };
    let shed = match entry.get("shed") {
        None | Some(Json::Null) => None,
        Some(s) => Some(TrialShed {
            index: field_u64(s, "index")? as usize,
            seed: field_u64(s, "seed")?,
            reason: parse_shed_reason(
                s.get("reason")
                    .ok_or_else(|| CheckpointError::schema("shed record has no reason"))?,
            )?,
        }),
    };
    // Absent counters decode as zero: pre-adaptive records carry none.
    let dropped = match entry.get("dropped") {
        None | Some(Json::Null) => 0,
        Some(_) => field_u64(entry, "dropped")?,
    };
    let escalation = match entry.get("escalation") {
        None | Some(Json::Null) => 0,
        Some(_) => field_u64(entry, "escalation")?,
    };
    Ok(CheckpointEntry { index, seed, outcome, failure, shed, dropped, escalation })
}

impl Campaign {
    /// Runs a batch serially with **constant memory**, pushing one
    /// checkpoint-v2 record per trial through `emit` instead of
    /// accumulating a `Vec<TrialOutcome>`.
    ///
    /// This is the fleet engine's per-board path: records stream out
    /// incrementally (to a JSONL artifact, a channel, a tally — the
    /// sink's choice) while only the running [`CampaignStats`] counters
    /// stay resident, so a million-trial run holds a few dozen bytes of
    /// state. Every record is keyed by trial index and seed exactly as
    /// [`Campaign::run_checkpointed`] would record it, and outcomes are
    /// derived from the same index-keyed seeds as
    /// [`Campaign::run_parallel`], so the streamed records and the
    /// in-memory run agree byte for byte.
    ///
    /// `budget` layers admission control on top of the campaign's own
    /// configuration: when the token (typically a per-client child of a
    /// fleet-wide [`CancelToken`]) has fired, every remaining trial is
    /// shed with [`ShedReason::Budget`] before it starts. When `budget`
    /// is `None`, the campaign's own [`Campaign::budget`] (if any)
    /// applies, measured from this call.
    pub fn run_streaming(
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
        let mut stats = CampaignStats::default();
        for (index, trial) in trials.iter().enumerate() {
            let seed = index as u64;
            let (outcome, failure, shed) = match self.run_trial_attempts(*trial, seed, budget, None) {
                Ok(outcome) => (outcome, None, None),
                Err(TrialAbort::Failed { attempts, error }) => (
                    TrialOutcome::Failed,
                    Some(TrialFailure { index, seed, attempts, error }),
                    None,
                ),
                Err(TrialAbort::Shed(reason)) => {
                    (TrialOutcome::Shed, None, Some(TrialShed { index, seed, reason }))
                }
            };
            stats.accumulate(outcome);
            emit(&CheckpointEntry { index, seed, outcome, failure, shed, dropped: 0, escalation: 0 });
        }
        stats
    }

    /// Runs a batch with periodic checkpointing and resume.
    ///
    /// Trials already present in `checkpoint` (matched by index *and*
    /// seed) are skipped; the rest run through the failure-isolating
    /// engine in chunks of `snapshot_every`, and `sink` is invoked with
    /// the updated checkpoint after each chunk — typically to persist
    /// its [`ToJson`] rendering. The final [`CampaignRun`] is assembled
    /// from the checkpoint in index order, so a resumed run is
    /// byte-identical to an uninterrupted one at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint` claims an index at or beyond
    /// `trials.len()` under a matching seed *and* internal bookkeeping
    /// failed to record a trial — both indicate a checkpoint from a
    /// different batch that slipped past the seed key.
    pub fn run_checkpointed(
        &self,
        trials: &[Trial],
        threads: usize,
        checkpoint: &mut CampaignCheckpoint,
        snapshot_every: usize,
        mut sink: impl FnMut(&CampaignCheckpoint),
    ) -> CampaignRun {
        let pending: Vec<(usize, Trial)> = trials
            .iter()
            .enumerate()
            .filter(|(i, _)| checkpoint.entry_for(*i, *i as u64).is_none())
            .map(|(i, t)| (i, *t))
            .collect();
        let pool = Pool::new(threads);
        let max_attempts = self.retry_policy().max_attempts.max(1);
        let budget_token = self.campaign_budget().map(CancelToken::with_deadline);
        let memo = DetectorMemo::new();
        for batch in pending.chunks(snapshot_every.max(1)) {
            let results = pool.try_map(batch, |_, (index, trial)| {
                self.run_trial_attempts(*trial, *index as u64, budget_token.as_ref(), Some(&memo))
            });
            for ((index, _), result) in batch.iter().zip(results) {
                let seed = *index as u64;
                let (outcome, failure, shed) = match result {
                    Ok(Ok(outcome)) => (outcome, None, None),
                    Ok(Err(TrialAbort::Failed { attempts, error })) => (
                        TrialOutcome::Failed,
                        Some(TrialFailure { index: *index, seed, attempts, error }),
                        None,
                    ),
                    Ok(Err(TrialAbort::Shed(reason))) => (
                        TrialOutcome::Shed,
                        None,
                        Some(TrialShed { index: *index, seed, reason }),
                    ),
                    Err(panic) => (
                        TrialOutcome::Failed,
                        Some(TrialFailure {
                            index: *index,
                            seed,
                            attempts: max_attempts,
                            error: panic.message,
                        }),
                        None,
                    ),
                };
                checkpoint.record(CheckpointEntry { index: *index, seed, outcome, failure, shed, dropped: 0, escalation: 0 });
            }
            sink(checkpoint);
        }
        let mut outcomes = Vec::with_capacity(trials.len());
        let mut failures = Vec::new();
        let mut shed = Vec::new();
        for index in 0..trials.len() {
            let entry = checkpoint
                .entry_for(index, index as u64)
                .expect("every pending trial was just recorded");
            outcomes.push(entry.outcome);
            if let Some(failure) = &entry.failure {
                failures.push(failure.clone());
            }
            if let Some(record) = entry.shed {
                shed.push(record);
            }
        }
        CampaignRun { stats: CampaignStats::tally(&outcomes), outcomes, failures, shed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sint_interconnect::defect::Defect;

    fn trials() -> Vec<Trial> {
        vec![
            Trial::control(),
            Trial::defective(Defect::CouplingBoost { wire: 1, factor: 6.0 }),
            Trial::panicking(),
            Trial::defective(Defect::CouplingBoost { wire: 1, factor: 1.01 }),
            Trial::control(),
        ]
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut checkpoint = CampaignCheckpoint::new();
        checkpoint.record(CheckpointEntry {
            index: 0,
            seed: 0,
            outcome: TrialOutcome::Detected { noise: true, skew: false },
            failure: None,
            shed: None,
                    dropped: 0,
            escalation: 0,
        });
        checkpoint.record(CheckpointEntry {
            index: 2,
            seed: 2,
            outcome: TrialOutcome::Failed,
            failure: Some(TrialFailure {
                index: 2,
                seed: 2,
                attempts: 2,
                error: "injected fault: sabotaged trial".into(),
            }),
            shed: None,
                    dropped: 0,
            escalation: 0,
        });
        checkpoint.record(CheckpointEntry {
            index: 3,
            seed: 3,
            outcome: TrialOutcome::Shed,
            failure: None,
            shed: Some(TrialShed {
                index: 3,
                seed: 3,
                reason: ShedReason::Deadline { step: 64 },
            }),
                    dropped: 0,
            escalation: 0,
        });
        checkpoint.record(CheckpointEntry {
            index: 4,
            seed: 4,
            outcome: TrialOutcome::Shed,
            failure: None,
            shed: Some(TrialShed { index: 4, seed: 4, reason: ShedReason::Budget }),
                    dropped: 0,
            escalation: 0,
        });
        let rendered = checkpoint.to_json().render();
        assert!(rendered.contains(r#""version":2"#), "{rendered}");
        let parsed = CampaignCheckpoint::parse(&rendered).unwrap();
        assert_eq!(parsed, checkpoint);
        assert_eq!(parsed.to_json().render(), rendered, "re-rendering is stable");
    }

    #[test]
    fn parse_rejects_malformed_snapshots() {
        assert!(matches!(
            CampaignCheckpoint::parse("not json"),
            Err(CheckpointError::Json(_))
        ));
        for bad in [
            r#"{"entries":[]}"#,
            r#"{"version":9,"entries":[]}"#,
            r#"{"version":1,"entries":[]}"#,
            r#"{"version":2}"#,
            r#"{"version":2,"entries":[{"index":0}]}"#,
            r#"{"version":2,"entries":[{"index":0,"seed":0,"outcome":{"kind":"nope"},"failure":null}]}"#,
            r#"{"version":2,"entries":[{"index":0,"seed":0,"outcome":{"kind":"shed"},"failure":null,"shed":{"index":0,"seed":0,"reason":{"kind":"nope"}}}]}"#,
        ] {
            assert!(
                matches!(CampaignCheckpoint::parse(bad), Err(CheckpointError::Schema { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn version_mismatch_converts_to_a_typed_core_error() {
        use crate::error::CoreError;
        // A pre-deadline (version 1) snapshot must be refused with a
        // typed error the caller can branch on, not replayed silently.
        let err = CampaignCheckpoint::parse(r#"{"version":1,"entries":[]}"#).unwrap_err();
        let core: CoreError = err.into();
        assert!(matches!(core, CoreError::Checkpoint(CheckpointError::Schema { .. })), "{core:?}");
        let text = core.to_string();
        assert!(text.contains("unsupported version 1"), "{text}");
    }

    #[test]
    fn seed_mismatch_invalidates_entries() {
        let mut checkpoint = CampaignCheckpoint::new();
        checkpoint.record(CheckpointEntry {
            index: 3,
            seed: 3,
            outcome: TrialOutcome::CleanPass,
            failure: None,
            shed: None,
                    dropped: 0,
            escalation: 0,
        });
        assert!(checkpoint.entry_for(3, 3).is_some());
        assert!(checkpoint.entry_for(3, 7).is_none(), "wrong seed must not match");
        assert!(checkpoint.entry_for(1, 1).is_none());
    }

    #[test]
    fn resumed_run_is_byte_identical_to_uninterrupted() {
        let campaign = Campaign::new(3);
        let trials = trials();

        // Uninterrupted reference run.
        let mut reference_ckpt = CampaignCheckpoint::new();
        let reference =
            campaign.run_checkpointed(&trials, 1, &mut reference_ckpt, 2, |_| {});

        // Interrupted run: capture the snapshot after the first chunk,
        // then abandon the rest (simulating a kill).
        let mut first_snapshot = None;
        let mut halted = CampaignCheckpoint::new();
        let _ = campaign.run_checkpointed(&trials, 1, &mut halted, 2, |cp| {
            if first_snapshot.is_none() {
                first_snapshot = Some(cp.to_json().render());
            }
        });
        let snapshot = first_snapshot.expect("at least one snapshot was taken");

        // Resume from the persisted snapshot on a different thread
        // count; only unfinished trials re-run.
        let mut resumed_ckpt = CampaignCheckpoint::parse(&snapshot).unwrap();
        assert_eq!(resumed_ckpt.len(), 2, "snapshot holds exactly the first chunk");
        let mut snapshots_after_resume = 0usize;
        let resumed = campaign.run_checkpointed(&trials, 4, &mut resumed_ckpt, 2, |_| {
            snapshots_after_resume += 1;
        });
        assert_eq!(snapshots_after_resume, 2, "3 pending trials in chunks of 2");
        assert_eq!(resumed.to_json().render(), reference.to_json().render());
        assert_eq!(resumed.stats.failed_trials, 1);

        // And the plain engine agrees with the checkpointed one.
        let plain = campaign.run_parallel(&trials, 2);
        assert_eq!(plain.to_json().render(), reference.to_json().render());
    }

    #[test]
    fn streamed_records_match_the_in_memory_engine() {
        let campaign = Campaign::new(3);
        let batch = trials();
        let mut streamed: Vec<CheckpointEntry> = Vec::new();
        let stats = campaign.run_streaming(&batch, None, |entry| streamed.push(entry.clone()));

        // Same outcomes, failures and stats as the in-memory engine.
        let reference = campaign.run(&batch);
        assert_eq!(stats, reference.stats);
        let outcomes: Vec<_> = streamed.iter().map(|e| e.outcome).collect();
        assert_eq!(outcomes, reference.outcomes);
        let failures: Vec<_> = streamed.iter().filter_map(|e| e.failure.clone()).collect();
        assert_eq!(failures, reference.failures);

        // Record shapes are checkpoint-v2 entries byte for byte: a
        // checkpoint built from the stream round-trips identically to
        // one recorded by run_checkpointed.
        let mut from_stream = CampaignCheckpoint::new();
        for entry in &streamed {
            from_stream.record(entry.clone());
        }
        let mut recorded = CampaignCheckpoint::new();
        let _ = campaign.run_checkpointed(&batch, 1, &mut recorded, 2, |_| {});
        assert_eq!(from_stream.to_json().render(), recorded.to_json().render());
    }

    #[test]
    fn streamed_budget_token_sheds_everything_once_fired() {
        use sint_runtime::cancel::CancelToken;
        let campaign = Campaign::new(3);
        let batch = trials();
        let fleet = CancelToken::new();
        let client = fleet.child_with_deadline(std::time::Duration::ZERO);
        let mut entries = 0usize;
        let stats = campaign.run_streaming(&batch, Some(&client), |entry| {
            assert_eq!(entry.outcome, TrialOutcome::Shed);
            assert!(matches!(
                entry.shed,
                Some(TrialShed { reason: ShedReason::Budget, .. })
            ));
            entries += 1;
        });
        assert_eq!(entries, batch.len());
        assert_eq!(stats.shed_trials, batch.len());
        assert!(!fleet.is_cancelled(), "client overrun never fires the fleet token");
    }

    #[test]
    fn entry_from_json_round_trips() {
        let entry = CheckpointEntry {
            index: 5,
            seed: 5,
            outcome: TrialOutcome::Shed,
            failure: None,
            shed: Some(TrialShed { index: 5, seed: 5, reason: ShedReason::Deadline { step: 9 } }),
                    dropped: 0,
            escalation: 0,
        };
        let parsed = CheckpointEntry::from_json(&entry.to_json()).unwrap();
        assert_eq!(parsed, entry);
        assert!(CheckpointEntry::from_json(&sint_runtime::json::Json::Null).is_err());
    }

    #[test]
    fn fully_checkpointed_batch_runs_nothing() {
        let campaign = Campaign::new(3);
        let trials = vec![Trial::control(), Trial::control()];
        let mut checkpoint = CampaignCheckpoint::new();
        let first = campaign.run_checkpointed(&trials, 1, &mut checkpoint, 10, |_| {});
        let mut sink_calls = 0usize;
        let second = campaign.run_checkpointed(&trials, 1, &mut checkpoint, 10, |_| {
            sink_calls += 1;
        });
        assert_eq!(sink_calls, 0, "nothing pending, nothing snapshotted");
        assert_eq!(first, second);
    }
}
