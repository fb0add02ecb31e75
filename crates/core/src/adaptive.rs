//! The adaptive campaign engine (ROADMAP item 3): campaign-level fault
//! dropping, escalating read-out localization, and recency-driven
//! pattern ordering on top of [`Campaign`].
//!
//! A conventional campaign re-excites every `(victim, fault)` pair on
//! every trial of a severity or corner sweep. The adaptive engine keeps
//! a campaign-wide [`CoverageLedger`] of pairs already *detected*; each
//! trial's session truncates or skips pattern halves whose pairs are
//! all covered ([`crate::soc::SessionPlan::Adaptive`]), probes the
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
    AttemptOutcome, Campaign, CampaignStats, Trial, TrialAttempt, TrialFailure, TrialOutcome,
    TrialShed,
};
use crate::checkpoint::{field_u64, CampaignCheckpoint, CheckpointEntry, CheckpointError, Strategy};
use crate::mafm::{CoverageLedger, IntegrityFault};
use crate::soc::SessionPlan;
use sint_interconnect::drive::DriveLevel;
use sint_runtime::json::{Json, ToJson};

/// Tuning knobs for the adaptive engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Trials per round. Within a round every trial sees the same
    /// ledger snapshot (so rounds bound how stale the drop decisions
    /// can be); across rounds the ledger is folded in index order.
    /// Also the checkpoint cadence of
    /// [`Campaign::run_adaptive_checkpointed`].
    pub round: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig { round: 8 }
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

/// What one session contributes to campaign state: returned by
/// [`crate::soc::Soc::run_session`], carried by [`TrialAttempt::delta`]
/// and folded in by [`TrialFold::fold`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdaptiveDelta {
    /// Isolated failing patterns as `(victim wire, fault)` pairs,
    /// sorted victim-major, then by fault — recorded into the campaign
    /// ledger so later trials can drop them. Empty for an exhaustive
    /// session.
    pub detected: Vec<(usize, IntegrityFault)>,
    /// Pattern applications skipped because their pairs were already
    /// covered (whole halves and truncated suffixes): a fully covered
    /// 4-wire die drops all 24.
    pub dropped: u64,
    /// Binary-search escalation passes the session had to run.
    pub escalations: u64,
    /// TCKs the session spent.
    pub tck: u64,
}

/// The campaign-wide state every finished trial folds into: the
/// coverage ledger, the [`FaultPriority`] clock that orders the next
/// trial's halves, and the TCK tally. The batch loop, the serial
/// streaming engine and the fleet supervisor all fold through it, so a
/// trial result becomes a [`CheckpointEntry`] in exactly one place; a
/// [`CampaignCheckpoint`] carries it across kill/resume.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialFold {
    ledger: CoverageLedger,
    priority: FaultPriority,
    total_tck: u64,
}

impl TrialFold {
    /// A fresh fold for a `wires`-wide campaign: nothing detected yet.
    #[must_use]
    pub fn new(wires: usize) -> TrialFold {
        let ledger = CoverageLedger::new(wires);
        TrialFold { ledger, priority: FaultPriority::new(), total_tck: 0 }
    }

    /// The pairs detected so far.
    #[must_use]
    pub fn ledger(&self) -> &CoverageLedger {
        &self.ledger
    }

    /// The half order the next trial runs
    /// ([`FaultPriority::half_order`]).
    #[must_use]
    pub fn half_order(&self) -> [DriveLevel; 2] {
        self.priority.half_order()
    }

    /// The adaptive plan the next trial runs against this state.
    #[must_use]
    pub fn adaptive(&self) -> SessionPlan<'_> {
        SessionPlan::Adaptive { ledger: &self.ledger, half_order: self.half_order() }
    }

    /// Folds trial `index`'s result in — a verdict's detections into
    /// the ledger and priority clock, its TCKs into the tally — and
    /// returns the trial's checkpoint entry. A trial whose attempt
    /// ended in an infrastructure fault or error is recorded as
    /// [`TrialOutcome::Failed`] after `attempt.attempts` attempts.
    pub fn fold(&mut self, index: usize, attempt: TrialAttempt) -> CheckpointEntry {
        let seed = index as u64;
        let mut entry = CheckpointEntry {
            index,
            seed,
            outcome: TrialOutcome::Failed,
            failure: None,
            shed: None,
            dropped: 0,
            escalation: 0,
        };
        match attempt.outcome {
            AttemptOutcome::Verdict(outcome) => {
                let delta = attempt.delta;
                entry.outcome = outcome;
                entry.dropped = delta.dropped;
                entry.escalation = delta.escalations;
                self.total_tck += delta.tck;
                for (victim, fault) in delta.detected {
                    if self.ledger.record(victim, fault) {
                        self.priority.record(fault);
                    }
                }
            }
            AttemptOutcome::Shed(reason) => {
                entry.outcome = TrialOutcome::Shed;
                entry.shed = Some(TrialShed { index, seed, reason });
            }
            AttemptOutcome::Infrastructure { error } | AttemptOutcome::Error { error } => {
                let attempts = attempt.attempts;
                entry.failure = Some(TrialFailure { index, seed, attempts, error });
            }
        }
        entry
    }

    /// Decodes a fold from its [`ToJson`] rendering (the `fold` of a
    /// campaign checkpoint).
    pub(crate) fn from_json(json: &Json) -> Result<TrialFold, CheckpointError> {
        let schema = CheckpointError::schema;
        let ledger = json
            .get("ledger")
            .and_then(CoverageLedger::from_json)
            .ok_or_else(|| schema("missing or malformed ledger"))?;
        let priority = json.get("priority").ok_or_else(|| schema("missing priority"))?;
        let last_hit: [u64; 6] = priority
            .get("last_hit")
            .and_then(Json::as_array)
            .and_then(|hits| hits.iter().map(Json::as_u64).collect::<Option<Vec<_>>>())
            .and_then(|hits| hits.try_into().ok())
            .ok_or_else(|| schema("priority last_hit must be six counts"))?;
        let priority = FaultPriority { last_hit, clock: field_u64(priority, "clock")? };
        Ok(TrialFold { ledger, priority, total_tck: field_u64(json, "total_tck")? })
    }
}

impl ToJson for TrialFold {
    fn to_json(&self) -> Json {
        Json::obj([
            ("total_tck", self.total_tck.to_json()),
            ("ledger", self.ledger.to_json()),
            ("priority", self.priority.to_json()),
        ])
    }
}

impl Campaign {
    /// Runs a batch through the adaptive engine with a fresh ledger.
    ///
    /// Equivalent to [`Campaign::run_adaptive_checkpointed`] with an
    /// empty checkpoint and a discarding sink.
    #[must_use]
    pub fn run_adaptive(&self, trials: &[Trial], threads: usize) -> AdaptiveRun {
        let mut checkpoint = CampaignCheckpoint::new(Strategy::Adaptive, self.wires());
        let round = self.adaptive_config().round;
        self.run_batch(trials, threads, round, TrialFold::adaptive, &mut checkpoint, |_| {})
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
    /// # Errors
    ///
    /// [`CheckpointError::Schema`], before any trial runs, when
    /// `checkpoint` does not fit this batch: a snapshot of the
    /// exhaustive engine, a ledger of another width, or entries that
    /// are not a dense prefix of whole rounds (a snapshot from a
    /// different batch layout).
    pub fn run_adaptive_checkpointed(
        &self,
        trials: &[Trial],
        threads: usize,
        checkpoint: &mut CampaignCheckpoint,
        sink: impl FnMut(&CampaignCheckpoint),
    ) -> Result<AdaptiveRun, CheckpointError> {
        let round = self.adaptive_config().round.max(1);
        checkpoint.check_layout(Strategy::Adaptive, self.wires(), round, trials.len())?;
        Ok(self.run_batch(trials, threads, round, TrialFold::adaptive, checkpoint, sink))
    }

    /// The exhaustive oracle with per-pattern attribution: every trial
    /// runs the full schedule (nothing dropped, nothing reordered) with
    /// a probe after every pattern, and detections are unioned exactly
    /// like the adaptive engine's. The equivalence gate compares this
    /// run's `detected` set against [`Campaign::run_adaptive`]'s.
    #[must_use]
    pub fn run_attributed(&self, trials: &[Trial], threads: usize) -> AdaptiveRun {
        let mut checkpoint = CampaignCheckpoint::new(Strategy::Exhaustive, self.wires());
        let attributed = |_: &TrialFold| SessionPlan::Attributed;
        self.run_batch(trials, threads, usize::MAX, attributed, &mut checkpoint, |_| {})
    }
}

/// Assembles a run summary from finished entries in index order, plus
/// the fold's detected-pair set and TCK tally — the one assembly behind
/// both [`AdaptiveRun`] and [`crate::campaign::CampaignRun`].
pub(crate) fn assemble<'a>(
    entries: impl IntoIterator<Item = &'a CheckpointEntry>,
    fold: &TrialFold,
) -> AdaptiveRun {
    let mut outcomes = Vec::new();
    let mut failures = Vec::new();
    let mut shed = Vec::new();
    let mut dropped = 0u64;
    let mut escalations = 0u64;
    for entry in entries {
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
        detected: fold.ledger.pairs(),
        dropped,
        escalations,
        total_tck: fold.total_tck,
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
        let campaign = Campaign::new(4).adaptive(AdaptiveConfig { round: 1 });
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
        let stats = campaign.run_streaming(&trials, None, true, |e| streamed.push(e.clone()));
        assert_eq!(stats, rounds.stats);
        let outcomes: Vec<_> = streamed.iter().map(|e| e.outcome).collect();
        assert_eq!(outcomes, rounds.outcomes);
        let streamed_dropped: u64 = streamed.iter().map(|e| e.dropped).sum();
        assert!(streamed_dropped >= rounds.dropped);
    }

    #[test]
    fn checkpoint_resume_is_byte_identical() {
        let campaign = Campaign::new(4).adaptive(AdaptiveConfig { round: 3 });
        let trials = sweep_trials();

        let mut reference_ckpt = CampaignCheckpoint::new(Strategy::Adaptive, 4);
        let reference =
            campaign.run_adaptive_checkpointed(&trials, 1, &mut reference_ckpt, |_| {}).unwrap();

        // Kill after the first round; resume from the persisted bytes.
        let mut first_snapshot = None;
        let mut halted = CampaignCheckpoint::new(Strategy::Adaptive, 4);
        let _ = campaign.run_adaptive_checkpointed(&trials, 1, &mut halted, |cp| {
            if first_snapshot.is_none() {
                first_snapshot = Some(cp.to_json().render());
            }
        });
        let snapshot = first_snapshot.expect("at least one round ran");
        let mut resumed_ckpt = CampaignCheckpoint::parse(&snapshot).unwrap();
        assert_eq!(resumed_ckpt.len(), 3, "the snapshot holds exactly one round");
        let resumed =
            campaign.run_adaptive_checkpointed(&trials, 4, &mut resumed_ckpt, |_| {}).unwrap();
        assert_eq!(resumed.to_json().render(), reference.to_json().render());
    }

    /// A version-3 adaptive snapshot over a `wires`-wide ledger holding
    /// `entries`.
    fn snapshot(wires: usize, entries: &[usize]) -> String {
        let mut checkpoint = CampaignCheckpoint::new(Strategy::Adaptive, wires);
        for &index in entries {
            checkpoint.record(CheckpointEntry {
                index,
                seed: index as u64,
                outcome: TrialOutcome::CleanPass,
                failure: None,
                shed: None,
                dropped: 0,
                escalation: 0,
            });
        }
        checkpoint.to_json().render()
    }

    /// A snapshot `parse` accepts but that cannot belong to `trials`
    /// must be refused with a schema error before any trial runs.
    fn refuses_to_resume(campaign: &Campaign, trials: &[Trial], snapshot: &str) -> String {
        let mut checkpoint = CampaignCheckpoint::parse(snapshot).unwrap();
        let mut sink_calls = 0usize;
        let result = campaign.run_adaptive_checkpointed(trials, 1, &mut checkpoint, |_| {
            sink_calls += 1;
        });
        assert_eq!(sink_calls, 0, "nothing may run on a misfit checkpoint");
        match result {
            Err(CheckpointError::Schema { reason }) => reason,
            other => panic!("expected a schema error, got {other:?}"),
        }
    }

    #[test]
    fn resume_refuses_entries_that_end_mid_round() {
        let campaign = Campaign::new(6).adaptive(AdaptiveConfig { round: 2 });
        let trials = vec![Trial::control(); 8];
        let reason = refuses_to_resume(&campaign, &trials, &snapshot(6, &[0, 1, 2]));
        assert!(reason.contains("3 entries are not whole rounds of 2 over 8 trials"), "{reason}");
        let reason = refuses_to_resume(&campaign, &trials[..2], &snapshot(6, &[0, 1, 2]));
        assert!(reason.contains("over 2 trials"), "{reason}");
    }

    #[test]
    fn resume_refuses_a_ledger_of_another_width() {
        let campaign = Campaign::new(6);
        let trials = vec![Trial::control(); 8];
        let reason = refuses_to_resume(&campaign, &trials, &snapshot(2, &[]));
        assert!(reason.contains("ledger tracks 2 wires"), "{reason}");
    }

    #[test]
    fn resume_refuses_entries_that_skip_a_trial() {
        let campaign = Campaign::new(4).adaptive(AdaptiveConfig { round: 1 });
        let trials = vec![Trial::control(); 3];
        let reason = refuses_to_resume(&campaign, &trials, &snapshot(4, &[0, 2]));
        assert!(reason.contains("dense prefix"), "{reason}");
    }

    #[test]
    fn fold_parse_rejects_malformed_state() {
        let fresh = CampaignCheckpoint::new(Strategy::Adaptive, 2).to_json().render();
        let good_fold = TrialFold::new(2).to_json().render();
        assert!(fresh.contains(&good_fold), "{fresh}");
        for bad in [
            r#"{"ledger":{"wires":2,"masks":[0,0]},"priority":{"clock":0,"last_hit":[0,0,0,0,0,0]}}"#,
            r#"{"total_tck":0,"ledger":{"wires":2},"priority":{"clock":0,"last_hit":[0,0,0,0,0,0]}}"#,
            r#"{"total_tck":0,"ledger":{"wires":2,"masks":[0,0]},"priority":{"clock":0,"last_hit":[0,0]}}"#,
            r#"{"total_tck":0,"ledger":{"wires":2,"masks":[0,0]},"priority":{"last_hit":[0,0,0,0,0,0]}}"#,
            r#"{"total_tck":0,"ledger":{"wires":2,"masks":[0,0]}}"#,
        ] {
            let text = fresh.replace(&good_fold, bad);
            assert!(
                matches!(CampaignCheckpoint::parse(&text), Err(CheckpointError::Schema { .. })),
                "{text}"
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
        // The step budget is generous for a clean adaptive control
        // trial but hopeless for the wedge's thousandfold settle window,
        // and it counts solver steps, not wall-clock, so machine load
        // cannot shed the control.
        let campaign = Campaign::new(3).fuel(100_000);
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
