//! Checkpointing: periodic snapshots and byte-identical resume.
//!
//! A checkpointed run — a campaign batch or a fleet floor — snapshots
//! its finished units as entries keyed by position *and* the seed that
//! position implied, so a snapshot taken against a different layout is
//! rejected at lookup time, not replayed silently. One [`Checkpoint`]
//! type serves every format: the keyed entry table, one envelope parse
//! (version check, retired versions refused by name, repeated keys
//! refused) and one store/load pair on a [`GenPair`]; a [`Payload`]
//! adds what a format carries beside its entries. A resumed run re-runs
//! only the unfinished units, so its summary is byte-identical to an
//! uninterrupted run at any thread count.

use crate::adaptive::{assemble, AdaptiveRun, TrialFold};
use crate::campaign::{
    AttemptOutcome, Campaign, CampaignRun, CampaignStats, ShedReason, Trial, TrialAttempt,
    TrialFailure, TrialOutcome, TrialShed,
};
use crate::memo::DetectorMemo;
use crate::soc::SessionPlan;
use sint_runtime::cancel::CancelToken;
use sint_runtime::durable::GenPair;
use sint_runtime::json::{Json, JsonParseError, ToJson};
use sint_runtime::pool::Pool;
use std::fmt;

/// Errors produced while decoding or persisting a checkpoint snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The snapshot is not valid JSON.
    Json(JsonParseError),
    /// The JSON is well-formed but not a checkpoint (wrong version,
    /// missing field, wrong type), or it does not fit the resumed run.
    Schema {
        /// Human-readable reason.
        reason: String,
    },
    /// A checkpoint generation slot could not be read or written.
    Io {
        /// The underlying I/O failure, rendered as text.
        reason: String,
    },
}

impl CheckpointError {
    pub(crate) fn schema(reason: impl Into<String>) -> CheckpointError {
        CheckpointError::Schema { reason: reason.into() }
    }

    fn io(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io { reason: e.to_string() }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Json(e) => write!(f, "checkpoint is not valid JSON: {e}"),
            CheckpointError::Schema { reason } => {
                write!(f, "checkpoint schema violation: {reason}")
            }
            CheckpointError::Io { reason } => write!(f, "checkpoint storage failed: {reason}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<JsonParseError> for CheckpointError {
    fn from(e: JsonParseError) -> Self {
        CheckpointError::Json(e)
    }
}

/// A checkpoint format: what it carries beside its entries, rendered as
/// `{"version":V,<fields>,"entries":[..]}`.
pub trait Payload: Sized {
    /// The format's name, used in refusals.
    const NAME: &'static str;
    /// The version this build writes and reads.
    const VERSION: u64;
    /// `(version, marker key, name)` of each format this one replaced:
    /// a document at that version (carrying the marker key, if any) is
    /// refused by that name.
    const RETIRED: &'static [(u64, Option<&'static str>, &'static str)];
    /// One finished unit.
    type Entry: ToJson;
    /// What decoding a snapshot fails with.
    type Error: From<CheckpointError>;
    /// An entry's `(position, seed)` key.
    fn key(entry: &Self::Entry) -> (usize, u64);
    /// Decodes one entry.
    fn decode_entry(json: &Json) -> Result<Self::Entry, Self::Error>;
    /// Decodes the payload from the document root.
    fn decode(root: &Json) -> Result<Self, Self::Error>;
    /// The payload's fields.
    fn fields(&self) -> Vec<(&'static str, Json)>;
}

/// The finished units of one run, ordered by position, plus its
/// [`Payload`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<P: Payload> {
    entries: Vec<P::Entry>,
    payload: P,
}

impl<P: Payload + Default> Default for Checkpoint<P> {
    fn default() -> Self {
        Checkpoint { entries: Vec::new(), payload: P::default() }
    }
}

impl<P: Payload + Default> Checkpoint<P> {
    /// An empty checkpoint (a fresh, un-resumed run).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// [`Checkpoint::load`], with a pair that holds no snapshot read as
    /// an empty checkpoint at generation zero.
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::load`].
    pub fn load_pair(pair: &GenPair) -> Result<(Self, u64), P::Error> {
        Ok(Self::load(pair)?.unwrap_or_default())
    }
}

impl<P: Payload> Checkpoint<P> {
    /// Finished units recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded entries, ordered by position.
    #[must_use]
    pub fn entries(&self) -> &[P::Entry] {
        &self.entries
    }

    /// The entry at `position`, provided it was recorded under the same
    /// `seed` (otherwise the snapshot belongs to a different layout and
    /// must not be reused).
    #[must_use]
    pub fn entry_for(&self, position: usize, seed: u64) -> Option<&P::Entry> {
        self.entries
            .binary_search_by_key(&position, |e| P::key(e).0)
            .ok()
            .map(|pos| &self.entries[pos])
            .filter(|e| P::key(e).1 == seed)
    }

    /// Records a finished unit, replacing any entry at its position.
    pub fn record(&mut self, entry: P::Entry) {
        match self.entries.binary_search_by_key(&P::key(&entry).0, |e| P::key(e).0) {
            Ok(pos) => self.entries[pos] = entry,
            Err(pos) => self.entries.insert(pos, entry),
        }
    }

    /// Decodes a snapshot produced by the [`ToJson`] rendering.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Json`] for malformed JSON;
    /// [`CheckpointError::Schema`] for a key repeated in any object
    /// (which copy a reader would honour is ambiguous), a missing or
    /// foreign version (a retired one named), or entries that are not
    /// strictly position-ordered; the payload's own decoding errors.
    pub fn parse(text: &str) -> Result<Self, P::Error> {
        let root = parse_document(text)?;
        let version = root
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| CheckpointError::schema("missing version"))?;
        if version != P::VERSION {
            let retired = P::RETIRED.iter().find(|(v, marker, _)| {
                *v == version && marker.is_none_or(|key| root.get(key).is_some())
            });
            let reason = match retired {
                Some((_, _, old)) => format!(
                    "{old} is a retired format; this build reads {} version {}",
                    P::NAME,
                    P::VERSION
                ),
                None => format!("unsupported {} version {version}", P::NAME),
            };
            return Err(CheckpointError::schema(reason).into());
        }
        let items = root
            .get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| CheckpointError::schema("missing entries array"))?;
        let mut entries: Vec<P::Entry> = Vec::with_capacity(items.len());
        for item in items {
            let entry = P::decode_entry(item)?;
            if entries.last().is_some_and(|last| P::key(last).0 >= P::key(&entry).0) {
                return Err(CheckpointError::schema("entries must be strictly ordered").into());
            }
            entries.push(entry);
        }
        Ok(Checkpoint { entries, payload: P::decode(&root)? })
    }

    /// Stores this checkpoint as the next generation of `pair`, leaving
    /// the previous generation untouched in the other slot: a crash
    /// during the write loses at most this snapshot. Returns the
    /// generation written.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the slot cannot be written.
    pub fn store_pair(&self, pair: &GenPair) -> Result<u64, P::Error> {
        let payload = self.to_json().render() + "\n";
        Ok(pair.store(&payload).map_err(CheckpointError::io)?)
    }

    /// Loads the newest valid generation of `pair` — the crash-safe
    /// resume path — with its generation number, or `None` when no slot
    /// holds one (a fresh run, or both slots destroyed).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the slots cannot be read at all; a
    /// decoding error when the surviving generation (its frame intact,
    /// so corrupt beyond a torn write) is not a snapshot of this format.
    pub fn load(pair: &GenPair) -> Result<Option<(Self, u64)>, P::Error> {
        match pair.load().map_err(CheckpointError::io)? {
            None => Ok(None),
            Some((generation, text)) => Ok(Some((Self::parse(&text)?, generation))),
        }
    }
}

impl<P: Payload> ToJson for Checkpoint<P> {
    fn to_json(&self) -> Json {
        let mut fields = vec![("version", P::VERSION.to_json())];
        fields.extend(self.payload.fields());
        fields.push(("entries", Json::Array(self.entries.iter().map(ToJson::to_json).collect())));
        Json::obj(fields)
    }
}

/// Parses a snapshot document. An object repeating a key is a schema
/// error, not a syntax one: the text is well-formed, its meaning is not.
fn parse_document(text: &str) -> Result<Json, CheckpointError> {
    Json::parse(text).map_err(|e| match e.duplicate_key {
        Some(_) => CheckpointError::schema(e.message),
        None => CheckpointError::Json(e),
    })
}

/// One finished trial in a checkpoint, keyed by trial index *and* the
/// seed that index implied.
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

impl ToJson for CheckpointEntry {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("index", self.index.to_json()),
            ("seed", self.seed.to_json()),
            ("outcome", self.outcome.to_json()),
            ("failure", self.failure.to_json()),
            ("shed", self.shed.to_json()),
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

/// Which engine a campaign checkpoint belongs to. A snapshot resumes
/// only under the engine that wrote it: neither engine's entries mean
/// the same thing to the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// [`Campaign::run_checkpointed`]: every trial runs the full
    /// schedule; any subset of trials may be recorded.
    Exhaustive,
    /// [`Campaign::run_adaptive_checkpointed`]: trials drop what the
    /// ledger already covers, so snapshots hold whole rounds only.
    Adaptive,
}

impl Strategy {
    fn name(self) -> &'static str {
        match self {
            Strategy::Exhaustive => "exhaustive",
            Strategy::Adaptive => "adaptive",
        }
    }
}

/// The campaign checkpoint payload: the [`Strategy`] that wrote the
/// snapshot and the fold state (coverage ledger, priority clock, TCK
/// tally) its entries built.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPayload {
    strategy: Strategy,
    fold: TrialFold,
}

impl Payload for CampaignPayload {
    const NAME: &'static str = "campaign checkpoint";
    /// Version 3 merged the exhaustive and adaptive snapshots into one
    /// document carrying a strategy tag and the fold state.
    const VERSION: u64 = 3;
    const RETIRED: &'static [(u64, Option<&'static str>, &'static str)] = &[
        (1, Some("rounds_done"), "adaptive checkpoint v1"),
        (1, None, "campaign checkpoint v1 (no shed records)"),
        (2, None, "campaign checkpoint v2 (no strategy tag or fold state)"),
    ];
    type Entry = CheckpointEntry;
    type Error = CheckpointError;

    fn key(entry: &CheckpointEntry) -> (usize, u64) {
        (entry.index, entry.seed)
    }

    fn decode_entry(json: &Json) -> Result<CheckpointEntry, CheckpointError> {
        CheckpointEntry::from_json(json)
    }

    fn decode(root: &Json) -> Result<CampaignPayload, CheckpointError> {
        let tag = root.get("strategy").and_then(Json::as_str);
        let strategy = [Strategy::Exhaustive, Strategy::Adaptive]
            .into_iter()
            .find(|s| Some(s.name()) == tag)
            .ok_or_else(|| CheckpointError::schema("missing or unknown strategy"))?;
        let fold = root.get("fold").ok_or_else(|| CheckpointError::schema("missing fold"))?;
        Ok(CampaignPayload { strategy, fold: TrialFold::from_json(fold)? })
    }

    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![("strategy", self.strategy.name().to_json()), ("fold", self.fold.to_json())]
    }
}

/// The finished trials of one campaign batch, ordered by trial index,
/// with their [`CampaignPayload`].
pub type CampaignCheckpoint = Checkpoint<CampaignPayload>;

impl Checkpoint<CampaignPayload> {
    /// An empty checkpoint (a fresh, un-resumed run) for a `wires`-wide
    /// campaign run by `strategy`.
    #[must_use]
    pub fn new(strategy: Strategy, wires: usize) -> CampaignCheckpoint {
        let payload = CampaignPayload { strategy, fold: TrialFold::new(wires) };
        Checkpoint { entries: Vec::new(), payload }
    }

    /// The engine that wrote this checkpoint.
    #[must_use]
    pub fn strategy(&self) -> Strategy {
        self.payload.strategy
    }

    /// The fold state as of the last snapshot.
    #[must_use]
    pub fn fold(&self) -> &TrialFold {
        &self.payload.fold
    }

    /// Checks that the snapshot fits a batch of `trials` trials run by
    /// `strategy`, `round` at a time, on a `wires`-wide bus: written by
    /// that strategy, a ledger of that width and — for the adaptive
    /// engine, whose fold state is only meaningful at a round boundary
    /// — entries forming a dense index-and-seed prefix of whole rounds.
    pub(crate) fn check_layout(
        &self,
        strategy: Strategy,
        wires: usize,
        round: usize,
        trials: usize,
    ) -> Result<(), CheckpointError> {
        let refuse = |reason: String| Err(CheckpointError::schema(reason));
        if self.strategy() != strategy {
            let (written_by, engine) = (self.strategy().name(), strategy.name());
            return refuse(format!("an {written_by} checkpoint cannot resume the {engine} engine"));
        }
        let ledger = self.fold().ledger().wires();
        if ledger != wires {
            return refuse(format!("ledger tracks {ledger} wires but the campaign has {wires}"));
        }
        if strategy == Strategy::Adaptive {
            let done = self.len();
            if self.entries.iter().enumerate().any(|(i, e)| (e.index, e.seed) != (i, i as u64)) {
                return refuse("entries are not a dense prefix of the batch".into());
            }
            if done > trials || (!done.is_multiple_of(round) && done != trials) {
                let layout = format!("whole rounds of {round} over {trials} trials");
                return refuse(format!("{done} entries are not {layout}"));
            }
        }
        Ok(())
    }
}

/// Reads the count at `key` of a snapshot object.
///
/// # Errors
///
/// [`CheckpointError::Schema`] when the field is absent or not a count.
pub fn field_u64(json: &Json, key: &str) -> Result<u64, CheckpointError> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| CheckpointError::schema(format!("missing numeric {key:?}")))
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

impl CheckpointEntry {
    /// Decodes one entry from its [`ToJson`] rendering — the public
    /// inverse used by streaming consumers (the fleet's incremental
    /// JSONL artifacts embed checkpoint entries verbatim, and replay
    /// tooling parses them back through this).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Schema`] when the JSON is not an entry.
    pub fn from_json(entry: &Json) -> Result<CheckpointEntry, CheckpointError> {
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
}

impl From<AdaptiveRun> for CampaignRun {
    fn from(run: AdaptiveRun) -> CampaignRun {
        let AdaptiveRun { stats, outcomes, failures, shed, .. } = run;
        CampaignRun { stats, outcomes, failures, shed }
    }
}

impl Campaign {
    /// Runs a batch serially with **constant memory**, pushing one
    /// checkpoint record per trial through `emit` instead of
    /// accumulating a `Vec<TrialOutcome>`.
    ///
    /// This is the fleet engine's per-board path: records stream out
    /// incrementally (to a JSONL artifact, a channel, a tally — the
    /// sink's choice) while only the running [`CampaignStats`] counters
    /// and the fold state (ledger and priority clock) stay resident.
    /// Every record is keyed by trial index and seed exactly as
    /// [`Campaign::run_checkpointed`] would record it, and outcomes are
    /// derived from the same index-keyed seeds as
    /// [`Campaign::run_parallel`], so the streamed records and the
    /// in-memory run agree byte for byte.
    ///
    /// With `adaptive` set, trials run the adaptive session and the
    /// ledger folds after every trial instead of every round, so a
    /// board sheds the maximum work; records then carry the `dropped` /
    /// `escalation` counters.
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
        adaptive: bool,
        mut emit: impl FnMut(&CheckpointEntry),
    ) -> CampaignStats {
        let own = if budget.is_none() {
            self.campaign_budget().map(CancelToken::with_deadline)
        } else {
            None
        };
        let budget = budget.or(own.as_ref());
        let mut fold = TrialFold::new(self.wires());
        let mut stats = CampaignStats::default();
        for (index, trial) in trials.iter().enumerate() {
            let plan = if adaptive { fold.adaptive() } else { SessionPlan::Exhaustive };
            let attempt = self.run_attempts(*trial, index, budget, plan, None);
            let entry = fold.fold(index, attempt);
            stats.accumulate(entry.outcome);
            emit(&entry);
        }
        stats
    }

    /// Runs a batch with periodic checkpointing and resume.
    ///
    /// Trials already present in `checkpoint` (matched by index *and*
    /// seed) are skipped; the rest run through the failure-isolating
    /// engine in chunks of `snapshot_every`, and `sink` is invoked with
    /// the updated checkpoint after each chunk — typically to persist
    /// it ([`Checkpoint::store_pair`]). The final [`CampaignRun`] is
    /// assembled from the checkpoint in index order, so a resumed run is
    /// byte-identical to an uninterrupted one at any thread count.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Schema`], before any trial runs, when
    /// `checkpoint` was written by the adaptive engine or tracks a
    /// ledger of another width.
    pub fn run_checkpointed(
        &self,
        trials: &[Trial],
        threads: usize,
        checkpoint: &mut CampaignCheckpoint,
        snapshot_every: usize,
        sink: impl FnMut(&CampaignCheckpoint),
    ) -> Result<CampaignRun, CheckpointError> {
        checkpoint.check_layout(Strategy::Exhaustive, self.wires(), snapshot_every, trials.len())?;
        let exhaustive = |_: &TrialFold| SessionPlan::Exhaustive;
        Ok(self.run_batch(trials, threads, snapshot_every, exhaustive, checkpoint, sink).into())
    }

    /// The resume loop behind every in-memory engine: runs the trials
    /// `checkpoint` does not hold yet in chunks of `chunk` across
    /// `threads` workers sharing one detector memo and one budget token.
    /// Every trial of a chunk runs the session plan `plan_for` picks from
    /// the fold state at the chunk boundary; results fold back in index
    /// order and `sink` sees the checkpoint after every chunk. The run
    /// is assembled from the checkpoint in index order, so it is
    /// byte-identical at any thread count and across kill/resume.
    pub(crate) fn run_batch(
        &self,
        trials: &[Trial],
        threads: usize,
        chunk: usize,
        plan_for: fn(&TrialFold) -> SessionPlan<'_>,
        checkpoint: &mut CampaignCheckpoint,
        mut sink: impl FnMut(&CampaignCheckpoint),
    ) -> AdaptiveRun {
        let pending: Vec<(usize, Trial)> = trials
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| checkpoint.entry_for(*i, *i as u64).is_none())
            .collect();
        let pool = Pool::new(threads);
        let budget = self.campaign_budget().map(CancelToken::with_deadline);
        let memo = DetectorMemo::new();
        let max_attempts = self.retry_policy().max_attempts.max(1);
        for batch in pending.chunks(chunk.max(1)) {
            let plan = plan_for(&checkpoint.payload.fold);
            let results = pool.try_map(batch, |_, &(index, trial)| {
                self.run_attempts(trial, index, budget.as_ref(), plan, Some(&memo))
            });
            for (&(index, _), result) in batch.iter().zip(results) {
                // The attempt isolates its own panics; the pool's
                // isolation is the backstop.
                let attempt = result.unwrap_or_else(|panic| {
                    TrialAttempt::new(
                        AttemptOutcome::Infrastructure { error: panic.message },
                        max_attempts,
                    )
                });
                let entry = checkpoint.payload.fold.fold(index, attempt);
                checkpoint.record(entry);
            }
            sink(checkpoint);
        }
        let entries = (0..trials.len()).map(|index| {
            let entry = checkpoint.entry_for(index, index as u64);
            entry.expect("every pending trial was just recorded")
        });
        assemble(entries, checkpoint.fold())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveConfig;
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

    fn fresh() -> CampaignCheckpoint {
        CampaignCheckpoint::new(Strategy::Exhaustive, 3)
    }

    fn clean(index: usize) -> CheckpointEntry {
        CheckpointEntry {
            index,
            seed: index as u64,
            outcome: TrialOutcome::CleanPass,
            failure: None,
            shed: None,
            dropped: 0,
            escalation: 0,
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut checkpoint = CampaignCheckpoint::new(Strategy::Adaptive, 3);
        checkpoint.record(CheckpointEntry {
            outcome: TrialOutcome::Detected { noise: true, skew: false },
            dropped: 4,
            escalation: 1,
            ..clean(0)
        });
        checkpoint.record(CheckpointEntry {
            outcome: TrialOutcome::Failed,
            failure: Some(TrialFailure {
                index: 2,
                seed: 2,
                attempts: 2,
                error: "injected fault: sabotaged trial".into(),
            }),
            ..clean(2)
        });
        checkpoint.record(CheckpointEntry {
            outcome: TrialOutcome::Shed,
            shed: Some(TrialShed {
                index: 3,
                seed: 3,
                reason: ShedReason::Deadline { step: 64 },
            }),
            ..clean(3)
        });
        checkpoint.record(CheckpointEntry {
            outcome: TrialOutcome::Shed,
            shed: Some(TrialShed { index: 4, seed: 4, reason: ShedReason::Budget }),
            ..clean(4)
        });
        let rendered = checkpoint.to_json().render();
        let head = r#"{"version":3,"strategy":"adaptive","fold":{"#;
        assert!(rendered.starts_with(head), "{rendered}");
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
        let fold = fresh().fold().to_json().render();
        for bad in [
            r#"{"entries":[]}"#.to_string(),
            r#"{"version":9,"entries":[]}"#.to_string(),
            format!(r#"{{"version":3,"strategy":"exhaustive","fold":{fold}}}"#),
            r#"{"version":3,"fold":{},"entries":[]}"#.to_string(),
            format!(r#"{{"version":3,"strategy":"sideways","fold":{fold},"entries":[]}}"#),
            r#"{"version":3,"strategy":"exhaustive","entries":[]}"#.to_string(),
            r#"{"version":3,"strategy":"exhaustive","fold":{"total_tck":0},"entries":[]}"#
                .to_string(),
            format!(r#"{{"version":3,"strategy":"exhaustive","fold":{fold},"entries":[{{"index":0}}]}}"#),
            format!(
                r#"{{"version":3,"strategy":"exhaustive","fold":{fold},"entries":[{{"index":0,"seed":0,"outcome":{{"kind":"nope"}},"failure":null}}]}}"#
            ),
            format!(
                r#"{{"version":3,"strategy":"exhaustive","fold":{fold},"entries":[{{"index":0,"seed":0,"outcome":{{"kind":"shed"}},"failure":null,"shed":{{"index":0,"seed":0,"reason":{{"kind":"nope"}}}}}}]}}"#
            ),
        ] {
            assert!(
                matches!(CampaignCheckpoint::parse(&bad), Err(CheckpointError::Schema { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn entries_must_be_strictly_index_ordered() {
        let fold = fresh().fold().to_json().render();
        for order in [[2, 1], [1, 1]] {
            let [a, b] = order.map(|i| clean(i).to_json().render());
            let text = format!(
                r#"{{"version":3,"strategy":"exhaustive","fold":{fold},"entries":[{a},{b}]}}"#
            );
            match CampaignCheckpoint::parse(&text) {
                Err(CheckpointError::Schema { reason }) => {
                    assert!(reason.contains("strictly ordered"), "{reason}");
                }
                other => panic!("{order:?} must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn retired_formats_are_refused_by_name() {
        use crate::error::CoreError;
        for (old, name) in [
            (r#"{"version":1,"entries":[]}"#, "campaign checkpoint v1"),
            (r#"{"version":2,"entries":[]}"#, "campaign checkpoint v2"),
            (
                r#"{"version":1,"rounds_done":0,"total_tck":0,"ledger":{"wires":3,"masks":[0,0,0]},"priority":{"clock":0,"last_hit":[0,0,0,0,0,0]},"entries":[]}"#,
                "adaptive checkpoint v1",
            ),
        ] {
            // A retired snapshot must be refused with a typed error the
            // caller can branch on, not replayed silently.
            let err = CampaignCheckpoint::parse(old).unwrap_err();
            let core: CoreError = err.into();
            assert!(
                matches!(core, CoreError::Checkpoint(CheckpointError::Schema { .. })),
                "{core:?}"
            );
            let text = core.to_string();
            assert!(text.contains(&format!("{name} ")), "{text}");
            assert!(text.contains("retired format"), "{text}");
        }
    }

    #[test]
    fn each_strategy_refuses_the_others_snapshot() {
        let campaign = Campaign::new(3).adaptive(AdaptiveConfig { round: 1 });
        let trials = vec![Trial::control(); 2];
        let mut exhaustive = fresh();
        campaign.run_checkpointed(&trials, 1, &mut exhaustive, 1, |_| {}).unwrap();
        let mut adaptive = CampaignCheckpoint::new(Strategy::Adaptive, 3);
        campaign.run_adaptive_checkpointed(&trials, 1, &mut adaptive, |_| {}).unwrap();

        let mut sink_calls = 0usize;
        let err = campaign
            .run_adaptive_checkpointed(&trials, 1, &mut exhaustive, |_| sink_calls += 1)
            .unwrap_err();
        let refusal = "an exhaustive checkpoint cannot resume the adaptive engine";
        assert!(err.to_string().contains(refusal), "{err}");
        let err = campaign
            .run_checkpointed(&trials, 1, &mut adaptive, 1, |_| sink_calls += 1)
            .unwrap_err();
        let refusal = "an adaptive checkpoint cannot resume the exhaustive engine";
        assert!(err.to_string().contains(refusal), "{err}");
        assert_eq!(sink_calls, 0, "nothing may run on a foreign checkpoint");
    }

    #[test]
    fn seed_mismatch_invalidates_entries() {
        let mut checkpoint = fresh();
        checkpoint.record(clean(3));
        assert!(checkpoint.entry_for(3, 3).is_some());
        assert!(checkpoint.entry_for(3, 7).is_none(), "wrong seed must not match");
        assert!(checkpoint.entry_for(1, 1).is_none());
    }

    #[test]
    fn resumed_run_is_byte_identical_to_uninterrupted() {
        let campaign = Campaign::new(3);
        let trials = trials();

        // Uninterrupted reference run.
        let mut reference_ckpt = fresh();
        let reference =
            campaign.run_checkpointed(&trials, 1, &mut reference_ckpt, 2, |_| {}).unwrap();

        // Interrupted run: capture the snapshot after the first chunk,
        // then abandon the rest (simulating a kill).
        let mut first_snapshot = None;
        let mut halted = fresh();
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
        let resumed = campaign
            .run_checkpointed(&trials, 4, &mut resumed_ckpt, 2, |_| {
                snapshots_after_resume += 1;
            })
            .unwrap();
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
        let stats =
            campaign.run_streaming(&batch, None, false, |entry| streamed.push(entry.clone()));

        // Same outcomes, failures and stats as the in-memory engine.
        let reference = campaign.run(&batch);
        assert_eq!(stats, reference.stats);
        let outcomes: Vec<_> = streamed.iter().map(|e| e.outcome).collect();
        assert_eq!(outcomes, reference.outcomes);
        let failures: Vec<_> = streamed.iter().filter_map(|e| e.failure.clone()).collect();
        assert_eq!(failures, reference.failures);

        // Record shapes are checkpoint entries byte for byte: entries
        // built from the stream render identically to those recorded
        // by run_checkpointed.
        let mut from_stream = fresh();
        for entry in &streamed {
            from_stream.record(entry.clone());
        }
        let mut recorded = fresh();
        campaign.run_checkpointed(&batch, 1, &mut recorded, 2, |_| {}).unwrap();
        assert_eq!(from_stream.entries().to_json().render(), recorded.entries().to_json().render());
    }

    #[test]
    fn streamed_budget_token_sheds_everything_once_fired() {
        use sint_runtime::cancel::CancelToken;
        let campaign = Campaign::new(3);
        let batch = trials();
        let fleet = CancelToken::new();
        let client = fleet.child_with_deadline(std::time::Duration::ZERO);
        let mut entries = 0usize;
        let stats = campaign.run_streaming(&batch, Some(&client), false, |entry| {
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
            outcome: TrialOutcome::Shed,
            shed: Some(TrialShed { index: 5, seed: 5, reason: ShedReason::Deadline { step: 9 } }),
            ..clean(5)
        };
        let parsed = CheckpointEntry::from_json(&entry.to_json()).unwrap();
        assert_eq!(parsed, entry);
        assert!(CheckpointEntry::from_json(&sint_runtime::json::Json::Null).is_err());
    }

    #[test]
    fn fully_checkpointed_batch_runs_nothing() {
        let campaign = Campaign::new(3);
        let trials = vec![Trial::control(), Trial::control()];
        let mut checkpoint = fresh();
        let first = campaign.run_checkpointed(&trials, 1, &mut checkpoint, 10, |_| {}).unwrap();
        let mut sink_calls = 0usize;
        let second = campaign
            .run_checkpointed(&trials, 1, &mut checkpoint, 10, |_| {
                sink_calls += 1;
            })
            .unwrap();
        assert_eq!(sink_calls, 0, "nothing pending, nothing snapshotted");
        assert_eq!(first, second);
    }

    #[test]
    fn generation_pair_stores_and_loads_the_newest_snapshot() {
        let dir = std::env::temp_dir()
            .join(format!("sint_campaign_ckpt_pair_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pair = GenPair::new(dir.join("ckpt"));
        let loaded = CampaignCheckpoint::load(&pair).unwrap();
        assert!(loaded.is_none(), "a fresh pair holds nothing to resume");

        let mut checkpoint = fresh();
        checkpoint.record(clean(0));
        assert_eq!(checkpoint.store_pair(&pair).unwrap(), 1);
        checkpoint.record(clean(1));
        assert_eq!(checkpoint.store_pair(&pair).unwrap(), 2);
        let (loaded, generation) = CampaignCheckpoint::load(&pair).unwrap().unwrap();
        assert_eq!((loaded, generation), (checkpoint, 2));
        std::fs::remove_dir_all(&dir).ok();
    }
}
