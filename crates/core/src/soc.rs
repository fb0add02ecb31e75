//! The two-core SoC of the paper's Fig 11: Core *i* drives an `n`-wire
//! interconnect through PGBSCs; Core *j* receives it through OBSCs with
//! ND/SD detectors; a single TAP serves the whole chip; `m` further
//! standard cells share the boundary chain.
//!
//! [`Soc`] closes the loop between the digital and analog substrates:
//! every boundary Update-DR that changes the PGBSC outputs launches a
//! transient simulation of the coupled bus, and the resulting waveforms
//! feed the receiving detectors — so an injected physical defect
//! propagates all the way to bits scanned out of TDO, with every TCK
//! accounted for.

use crate::cost::MethodPlanner;
use crate::degrade::{ChainPolicy, DegradationEvent, DegradedOutcome};
use crate::error::CoreError;
use crate::infra::InfrastructureDiagnosis;
use crate::instructions::extended_instruction_set;
use crate::mafm::{victim_select, CoverageLedger, CoverageReport, IntegrityFault, QUARANTINE_PARK};
use crate::memo::{DetectorBits, DetectorMemo, MemoSlot, PairKey, WireVerdict};
use crate::timing::ChainGeometry;
use crate::nd::NdThresholds;
use crate::obsc::Obsc;
use crate::pgbsc::Pgbsc;
use crate::sd::SdWindow;
use crate::session::{
    IntegrityReport, ObservationMethod, ReadoutPoint, ReadoutRecord, SessionConfig,
};
use sint_interconnect::defect::Defect;
use sint_interconnect::drive::{DriveLevel, VectorPair};
use sint_interconnect::error::InterconnectError;
use sint_interconnect::measure::{propagation_delay, settled_value};
use sint_interconnect::params::{Bus, BusParams};
use sint_interconnect::solver::{
    GuardrailEvent, GuardrailPolicy, PanelScratch, SimScratch, TransientSim, WavePanel,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use sint_interconnect::variation::{apply_variation, VariationSigma};
use sint_jtag::bcell::{BoundaryCell, StandardBsc};
use sint_jtag::chain::Chain;
use sint_jtag::device::Device;
use sint_jtag::driver::JtagDriver;
use sint_jtag::error::JtagError;
use sint_jtag::fault::ScanFault;
use sint_jtag::integrity::{
    check_boundary, check_chain, localize_boundary_fault, ChainAnomaly, ChainCheckReport,
    FaultLocalization, QuarantineSet,
};
use sint_logic::{BitVector, Logic};
use sint_runtime::cancel::CancelToken;

/// Builder for a [`Soc`].
#[derive(Debug, Clone)]
pub struct SocBuilder {
    wires: usize,
    extra_cells: usize,
    bus_params: BusParams,
    defects: Vec<Defect>,
    nd: Option<NdThresholds>,
    sd_window: Option<f64>,
    variation: Option<(VariationSigma, u64)>,
    scan_fault: Option<ScanFault>,
    chain_policy: ChainPolicy,
    panel_width: usize,
    solver_cache: Option<SolverCache>,
    memo: Option<DetectorMemo>,
}

impl SocBuilder {
    /// An `wires`-wide SoC over the default DSM bus, no defects, no
    /// extra chain cells, detector parameters derived automatically.
    #[must_use]
    pub fn new(wires: usize) -> SocBuilder {
        SocBuilder {
            wires,
            extra_cells: 0,
            bus_params: BusParams::dsm_bus(wires),
            defects: Vec::new(),
            nd: None,
            sd_window: None,
            variation: None,
            scan_fault: None,
            chain_policy: ChainPolicy::default(),
            panel_width: DEFAULT_PANEL_WIDTH,
            solver_cache: None,
            memo: None,
        }
    }

    /// Sets how many queued patterns one batched transient advances
    /// together (default [`DEFAULT_PANEL_WIDTH`]). Width 1 disables
    /// batching entirely: every pattern runs through the scalar
    /// single-RHS solver at Update-DR time — the correctness oracle the
    /// batched path is byte-compared against in `verify.sh`.
    #[must_use]
    pub fn panel_width(mut self, width: usize) -> Self {
        self.panel_width = width.max(1);
        self
    }

    /// Attaches a shared [`SolverCache`]: when this SoC's bus differs
    /// from the cache's seeded baseline only in coupling capacitance (a
    /// severity or corner sweep point), the solver is derived from the
    /// cached factors by a low-rank update instead of refactorising.
    /// Opt-in because the derived waveforms agree with fresh factors
    /// numerically (≤ 1e-12), not bitwise — byte-determinism contracts
    /// must not attach a cache.
    #[must_use]
    pub fn solver_cache(mut self, cache: SolverCache) -> Self {
        self.solver_cache = Some(cache);
        self
    }

    /// Shares a batch-scoped [`DetectorMemo`]: batched flushes replay
    /// the stored detector bits of patterns any SoC on the memo has
    /// already solved on this exact bus, and solve only the rest. The
    /// batch engines attach one memo per call. Ignored at panel width
    /// 1 (the scalar oracle) and on [`SolverCache`]-derived solvers,
    /// whose waveforms agree with fresh factors only numerically.
    #[must_use]
    pub(crate) fn detector_memo(mut self, memo: DetectorMemo) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Adds `m` standard boundary cells to the chain (the paper's other
    /// pins).
    #[must_use]
    pub fn extra_cells(mut self, m: usize) -> Self {
        self.extra_cells = m;
        self
    }

    /// Replaces the bus description entirely.
    ///
    /// The parameter width must match; checked at [`SocBuilder::build`].
    #[must_use]
    pub fn bus_params(mut self, params: BusParams) -> Self {
        self.bus_params = params;
        self
    }

    /// Injects an arbitrary defect.
    #[must_use]
    pub fn defect(mut self, defect: Defect) -> Self {
        self.defects.push(defect);
        self
    }

    /// Shortcut: multiply the coupling around `wire` by `factor`.
    #[must_use]
    pub fn coupling_defect(self, wire: usize, factor: f64) -> Self {
        self.defect(Defect::CouplingBoost { wire, factor })
    }

    /// Shortcut: resistive open adding `extra_ohms` on `wire`.
    #[must_use]
    pub fn open_defect(self, wire: usize, extra_ohms: f64) -> Self {
        self.defect(Defect::ResistiveOpen { wire, segment: 0, extra_ohms })
    }

    /// Shortcut: weaken `wire`'s driver by `factor`.
    #[must_use]
    pub fn weak_driver_defect(self, wire: usize, factor: f64) -> Self {
        self.defect(Defect::WeakDriver { wire, factor })
    }

    /// Applies seeded within-die parameter mismatch to the built bus
    /// (defects stack on top). Detector calibration still uses the
    /// *nominal* healthy bus — the designer budgets for the typical
    /// die, and the mismatch must fit inside the calibration margins.
    #[must_use]
    pub fn with_variation(mut self, sigma: VariationSigma, seed: u64) -> Self {
        self.variation = Some((sigma, seed));
        self
    }

    /// Overrides the ND thresholds (default: [`NdThresholds::for_vdd`]).
    #[must_use]
    pub fn nd_thresholds(mut self, nd: NdThresholds) -> Self {
        self.nd = Some(nd);
        self
    }

    /// Overrides the SD skew-immune window in seconds (default:
    /// calibrated to twice the healthiest worst-case arrival, see
    /// [`SocBuilder::build`]).
    #[must_use]
    pub fn sd_window(mut self, seconds: f64) -> Self {
        self.sd_window = Some(seconds);
        self
    }

    /// Injects a fault into the scan infrastructure itself (not the
    /// bus): a stuck serial link, a flipping bit, a wedged TAP, dropped
    /// TCK edges. The pre-session self-check
    /// ([`Soc::check_infrastructure`]) must catch it and refuse the
    /// session rather than let corrupted scans masquerade as
    /// signal-integrity verdicts.
    #[must_use]
    pub fn scan_fault(mut self, fault: ScanFault) -> Self {
        self.scan_fault = Some(fault);
        self
    }

    /// Sets what a session does when the pre-session self-check finds
    /// the chain damaged (default: [`ChainPolicy::Strict`], the refuse
    /// behaviour). Under [`ChainPolicy::Degrade`] a localizable
    /// boundary break is quarantined and a partial session runs over
    /// the healthy wires — see [`crate::degrade`].
    #[must_use]
    pub fn chain_policy(mut self, policy: ChainPolicy) -> Self {
        self.chain_policy = policy;
        self
    }

    /// Builds the SoC: injects defects, calibrates detectors against the
    /// *healthy* bus (the designer's delay budget, §2.2), constructs the
    /// boundary chain and resets the TAP.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for fewer than two wires, mismatched
    /// bus width, inverted or non-finite ND thresholds, or a
    /// non-positive SD window; substrate errors are propagated.
    pub fn build(self) -> Result<Soc, CoreError> {
        if self.wires < 2 {
            return Err(CoreError::config("a coupled-bus SoC needs at least two wires"));
        }
        if let Some(nd) = &self.nd {
            if !nd.v_low_max.is_finite()
                || !nd.v_high_min.is_finite()
                || !nd.overshoot_margin.is_finite()
            {
                return Err(CoreError::config("ND thresholds must be finite"));
            }
            if nd.v_low_max < 0.0 || nd.overshoot_margin < 0.0 {
                return Err(CoreError::config("ND thresholds must be non-negative"));
            }
            if nd.v_low_max >= nd.v_high_min {
                return Err(CoreError::config(
                    "ND thresholds inverted: v_low_max must sit below v_high_min",
                ));
            }
        }
        if let Some(w) = self.sd_window {
            if w <= 0.0 || !w.is_finite() {
                return Err(CoreError::config("SD window must be positive and finite"));
            }
        }
        let healthy = self.bus_params.clone().build()?;
        if healthy.wires() != self.wires {
            return Err(CoreError::config(format!(
                "bus parameters describe {} wires, SoC wants {}",
                healthy.wires(),
                self.wires
            )));
        }
        let mut bus = healthy.clone();
        if let Some((sigma, seed)) = self.variation {
            apply_variation(&mut bus, sigma, seed)?;
        }
        for d in &self.defects {
            d.apply(&mut bus)?;
        }

        let dt = 2e-12;
        let settle = 2e-9;
        // Calibrate the skew-immune window on the healthy bus: worst-case
        // MA skew pattern (victim rising against falling aggressors, the
        // Miller-slowed case) on a middle wire, with 2x design margin.
        let sd_window = match self.sd_window {
            Some(w) => w,
            None => {
                let sim = TransientSim::new(&healthy, dt)?;
                let victim = self.wires / 2;
                let pair = crate::mafm::fault_pair(self.wires, victim, IntegrityFault::Rs)?;
                let waves = sim.run_pair(&pair, settle)?;
                let delay = propagation_delay(
                    waves.wire(victim),
                    waves.dt(),
                    healthy.vdd(),
                    sim.switch_at(),
                    true,
                )
                .ok_or_else(|| {
                    CoreError::config("healthy bus never settles; cannot calibrate SD window")
                })?;
                2.0 * delay + healthy.rise_time()
            }
        };
        let nd = self.nd.unwrap_or_else(|| NdThresholds::for_vdd(bus.vdd()));
        let sd = SdWindow::for_vdd(sd_window, bus.vdd());

        let mut device = Device::new("soc", extended_instruction_set()?);
        for _ in 0..self.wires {
            device.push_cell(Box::new(Pgbsc::new()));
        }
        for _ in 0..self.wires {
            device.push_cell(Box::new(Obsc::new(nd, sd)));
        }
        for _ in 0..self.extra_cells {
            device.push_cell(Box::new(StandardBsc::new()));
        }
        // A sweep-shared cache may already hold factors this bus can be
        // derived from by a low-rank update; otherwise factor fresh. A
        // defect-injected bus can push the nominal factorisation into
        // singularity; the guarded constructor recovers where the policy
        // allows and reports every action it took.
        let cached = self.solver_cache.as_ref().and_then(|c| c.for_bus(&bus, dt));
        let (sim, guardrail_events) = match cached {
            Some(sim) => (sim, Vec::new()),
            None => {
                let (sim, events) =
                    TransientSim::new_guarded(&bus, dt, GuardrailPolicy::default())?;
                (Arc::new(sim), events)
            }
        };
        let sim_key = (bus.fingerprint(), sim.dt().to_bits());
        let sim_cache = HashMap::from([(sim_key, Arc::clone(&sim))]);
        let memo = self
            .memo
            .filter(|_| self.panel_width > 1 && !sim.is_rank_updated())
            .and_then(|memo| memo.slot_for(&bus, &nd, &sd).map(|slot| (memo, slot)));
        let mut chain = Chain::single(device);
        if let Some(fault) = self.scan_fault {
            chain.inject_fault(fault);
        }
        let mut driver = JtagDriver::new(chain);
        driver.reset();

        Ok(Soc {
            driver,
            bus,
            sim,
            sim_key,
            sim_cache,
            guardrail_events,
            scratch: SimScratch::new(),
            panel_scratch: PanelScratch::new(),
            panel: WavePanel::new(),
            pending: Vec::new(),
            panel_width: self.panel_width,
            nd,
            sd,
            memo,
            wires: self.wires,
            extra_cells: self.extra_cells,
            prev: None,
            settle,
            transients_run: 0,
            patterns_applied: 0,
            policy: self.chain_policy,
            quarantine: None,
            degradation_events: Vec::new(),
            cancel: None,
        })
    }
}

/// Default [`SocBuilder::panel_width`]: how many deferred patterns one
/// batched multi-RHS transient advances together. Eight fills the
/// widest hand-unrolled solver kernel exactly.
pub const DEFAULT_PANEL_WIDTH: usize = 8;

/// A pattern whose Update-DR has been applied digitally but whose bus
/// transient is still queued for the next batched solve.
#[derive(Debug, Clone)]
struct PendingPattern {
    pair: VectorPair,
    /// Detector-enable (CE) sampled when the pattern was applied.
    ce: bool,
}

/// A factorisation cache shared across the SoCs of a severity or corner
/// sweep: seed it with one baseline solver, and every subsequently
/// built SoC whose bus differs from the baseline only in coupling
/// capacitance derives its solver from the seeded factors by a
/// Sherman–Morrison–Woodbury low-rank update (see
/// [`TransientSim::try_rank_update`]) instead of refactorising, keyed
/// by the delta fingerprint.
///
/// The base is seeded explicitly — never first-writer-wins — so sweep
/// results do not depend on trial scheduling. Derived solvers agree
/// with fresh factorisations numerically (≤ 1e-12 on waveforms) but not
/// bitwise; attach a cache only where that tolerance is acceptable.
#[derive(Debug, Clone, Default)]
pub struct SolverCache {
    inner: Arc<Mutex<SolverCacheInner>>,
}

#[derive(Debug, Default)]
struct SolverCacheInner {
    base: Option<Arc<TransientSim>>,
    derived: HashMap<u64, Arc<TransientSim>>,
}

impl SolverCache {
    /// An empty cache; until seeded, every lookup misses.
    #[must_use]
    pub fn new() -> SolverCache {
        SolverCache::default()
    }

    /// Installs the baseline solver the sweep's deltas are applied to,
    /// clearing any previously derived factors.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned.
    pub fn seed(&self, sim: Arc<TransientSim>) {
        let mut inner = self.inner.lock().expect("solver cache poisoned");
        inner.base = Some(sim);
        inner.derived.clear();
    }

    /// Number of derived (low-rank-updated) solvers held.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned.
    #[must_use]
    pub fn derived_count(&self) -> usize {
        self.inner.lock().expect("solver cache poisoned").derived.len()
    }

    /// The solver for `bus` at `dt`, derived from the seeded baseline
    /// when the delta qualifies for a low-rank update; `None` on any
    /// miss (no baseline, different `dt`, or a delta that requires a
    /// fresh factorisation).
    fn for_bus(&self, bus: &Bus, dt: f64) -> Option<Arc<TransientSim>> {
        let mut inner = self.inner.lock().expect("solver cache poisoned");
        let base = inner.base.as_ref()?;
        if base.dt() != dt {
            return None;
        }
        let fp = base.update_fingerprint(bus)?;
        if let Some(hit) = inner.derived.get(&fp) {
            return Some(Arc::clone(hit));
        }
        let derived = Arc::new(base.try_rank_update(bus)?);
        inner.derived.insert(fp, Arc::clone(&derived));
        Some(derived)
    }
}

/// A simulated two-core SoC with the enhanced boundary-scan
/// architecture.
#[derive(Debug)]
pub struct Soc {
    driver: JtagDriver,
    bus: Bus,
    /// The active factored solver; shared with `sim_cache`.
    sim: Arc<TransientSim>,
    /// Cache key of `sim`: `(bus fingerprint, dt bits)`.
    sim_key: (u64, u64),
    /// Every solver factored so far, keyed by `(bus fingerprint, dt
    /// bits)` — a campaign that alternates session configs (or re-tests
    /// at the same dt) never refactors the same system twice.
    sim_cache: HashMap<(u64, u64), Arc<TransientSim>>,
    /// Recovery actions the guarded solver constructor took at build
    /// time (empty when the nominal factorisation succeeded).
    guardrail_events: Vec<GuardrailEvent>,
    /// Reused solver scratch: keeps the per-pattern transient runs
    /// allocation-free in the timestep loop.
    scratch: SimScratch,
    /// Reused multi-RHS scratch for the batched pattern path.
    panel_scratch: PanelScratch,
    /// Reused waveform storage for the batched pattern path.
    panel: WavePanel,
    /// Patterns whose Update-DR has happened digitally but whose
    /// transient has not run yet: the bus response is deferred until a
    /// read-out (or a full panel) forces it, then solved as one
    /// multi-RHS batch. Invariant: always empty at session boundaries.
    pending: Vec<PendingPattern>,
    /// Max pending patterns per batched solve; 1 = scalar oracle path.
    panel_width: usize,
    /// The ND thresholds every OBSC was built with.
    nd: NdThresholds,
    /// The SD window every OBSC was built with.
    sd: SdWindow,
    /// The batch-scoped detector memo and this SoC's slot in it; `None`
    /// runs every pattern through the solver.
    memo: Option<(DetectorMemo, MemoSlot)>,
    wires: usize,
    extra_cells: usize,
    /// Last defined vector driven onto the bus.
    prev: Option<Vec<DriveLevel>>,
    settle: f64,
    transients_run: usize,
    patterns_applied: usize,
    /// What to do when the self-check finds the chain damaged.
    policy: ChainPolicy,
    /// Active quarantine while a degraded session runs: these wires'
    /// drives are parked at [`QUARANTINE_PARK`] in the bus model.
    quarantine: Option<QuarantineSet>,
    /// Concessions the most recent degraded session made (empty after
    /// a healthy session), parallel to `guardrail_events`.
    degradation_events: Vec<DegradationEvent>,
    /// Cooperative cancellation: checked inside every solver timestep
    /// loop; an expired deadline surfaces as
    /// [`CoreError::DeadlineExceeded`].
    cancel: Option<CancelToken>,
}

impl Soc {
    /// Interconnect width.
    #[must_use]
    pub fn wires(&self) -> usize {
        self.wires
    }

    /// Extra standard cells on the chain.
    #[must_use]
    pub fn extra_cells(&self) -> usize {
        self.extra_cells
    }

    /// Total boundary chain length (`2n + m`).
    #[must_use]
    pub fn chain_len(&self) -> usize {
        2 * self.wires + self.extra_cells
    }

    /// The (possibly defect-injected) bus model.
    #[must_use]
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// TCKs spent so far.
    #[must_use]
    pub fn tck(&self) -> u64 {
        self.driver.tck()
    }

    /// Patterns whose bus response has been observed so far — solved
    /// or, on a hit in a batch engine's detector memo, replayed from
    /// stored detector bits. Schedule-independent: the count is the
    /// same whichever SoC of a batch solved a shared pattern first.
    #[must_use]
    pub fn transients_run(&self) -> usize {
        self.transients_run
    }

    /// Recovery actions the guarded solver constructor took at build
    /// time. Empty for a healthy configuration; a non-empty list means
    /// the SoC runs on a degraded solver setup (halved dt or the dense
    /// oracle) and results should be read with that in mind.
    #[must_use]
    pub fn guardrail_events(&self) -> &[GuardrailEvent] {
        &self.guardrail_events
    }

    /// The JTAG driver, for custom test plans.
    pub fn driver_mut(&mut self) -> &mut JtagDriver {
        &mut self.driver
    }

    /// The active factored solver — shareable, e.g. as a
    /// [`SolverCache`] baseline for a severity sweep.
    #[must_use]
    pub fn transient_sim(&self) -> Arc<TransientSim> {
        Arc::clone(&self.sim)
    }

    /// Whether the active solver runs on low-rank-updated factors (a
    /// [`SolverCache`] hit) rather than a direct factorisation.
    #[must_use]
    pub fn solver_is_rank_updated(&self) -> bool {
        self.sim.is_rank_updated()
    }

    /// The configured batching width (1 = scalar per-pattern solves).
    #[must_use]
    pub fn panel_width(&self) -> usize {
        self.panel_width
    }

    /// The configured chain-damage policy.
    #[must_use]
    pub fn chain_policy(&self) -> ChainPolicy {
        self.policy
    }

    /// Concessions the most recent degraded session made, in order.
    /// Empty after a healthy session (and before any session). The
    /// same trail is attached to the session's report via
    /// [`IntegrityReport::degradation`].
    #[must_use]
    pub fn degradation_events(&self) -> &[DegradationEvent] {
        &self.degradation_events
    }

    /// Installs (or clears) a cancellation token. The solver polls it
    /// every few timesteps; once it fires — explicitly or via its
    /// wall-clock deadline — the in-flight transient stops and the
    /// session fails with [`CoreError::DeadlineExceeded`].
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// The installed cancellation token, if any.
    #[must_use]
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Runs the ATE-style scan-chain self-check (reset probe, BYPASS
    /// flush, IR capture read-back) and refuses further testing when
    /// the chain is unhealthy.
    ///
    /// [`Soc::run_integrity_test`] calls this before every session, so
    /// a faulty scan infrastructure is reported as
    /// [`CoreError::Infrastructure`] — naming the stuck link, corrupted
    /// cell or wedged TAP state — instead of corrupting detector
    /// verdicts. SVF recording is suspended for the check's scans: the
    /// recorded program stays exactly the session.
    ///
    /// # Errors
    ///
    /// [`CoreError::Infrastructure`] with the structured diagnosis when
    /// the self-check finds anomalies; [`CoreError::Jtag`] if the chain
    /// cannot be probed at all.
    pub fn check_infrastructure(&mut self) -> Result<ChainCheckReport, CoreError> {
        let report = self.qualify_chain()?;
        if report.healthy() {
            Ok(report)
        } else {
            Err(CoreError::Infrastructure(InfrastructureDiagnosis {
                chain_cells: self.chain_len(),
                report,
            }))
        }
    }

    /// Runs the full qualification sequence — BYPASS-path self-check,
    /// then (only when that passes) the boundary-path probe — and
    /// returns the merged report without applying any policy. SVF
    /// recording is suspended throughout.
    fn qualify_chain(&mut self) -> Result<ChainCheckReport, CoreError> {
        let recording = self.driver.suspend_recording();
        let result = check_chain(&mut self.driver).and_then(|mut report| {
            if report.healthy() {
                let boundary = check_boundary(&mut self.driver)?;
                report.anomalies.extend(boundary.anomalies);
                report.tck_cost += boundary.tck_cost;
            }
            Ok(report)
        });
        self.driver.restore_recording(recording);
        Ok(result?)
    }

    /// Points `self.sim` at the factored solver for this session's
    /// `dt` (factoring and caching it on first sight) and adopts the
    /// session's settle time.
    fn select_sim(&mut self, config: &SessionConfig) -> Result<(), CoreError> {
        self.settle = config.settle_time;
        let key = (self.bus.fingerprint(), config.dt.to_bits());
        if self.sim_key != key {
            self.sim = match self.sim_cache.get(&key) {
                Some(sim) => Arc::clone(sim),
                None => {
                    let sim = Arc::new(TransientSim::new(&self.bus, config.dt)?);
                    self.sim_cache.insert(key, Arc::clone(&sim));
                    sim
                }
            };
            self.sim_key = key;
        }
        Ok(())
    }

    fn obsc_mut(&mut self, wire: usize) -> Result<&mut Obsc, CoreError> {
        let idx = self.wires + wire;
        let cell = self
            .driver
            .chain_mut()
            .device_mut(0)?
            .boundary_mut()
            .cell_mut(idx)?
            .as_any_mut()
            .downcast_mut::<Obsc>()
            .expect("cells n..2n are OBSCs by construction");
        Ok(cell)
    }

    /// Builds the TDI-order scan word that deposits `values[j]` into
    /// boundary cell `j` (cell 0 nearest TDI).
    fn scan_word(&self, values: &[Logic]) -> BitVector {
        // The last bit shifted lands in cell 0, so shift in reverse
        // cell order.
        values.iter().rev().copied().collect()
    }

    fn uniform_word(&self, level: DriveLevel) -> BitVector {
        let v = Logic::from(level == DriveLevel::High);
        BitVector::filled(self.chain_len(), v)
    }

    fn victim_select_word(&self, victim: usize) -> Result<BitVector, CoreError> {
        let one_hot = victim_select(self.wires, victim)?;
        let mut values = vec![Logic::Zero; self.chain_len()];
        for (i, v) in one_hot.iter().enumerate() {
            values[i] = v;
        }
        Ok(self.scan_word(&values))
    }

    /// Samples the PGBSC outputs and, if they form a newly *defined*
    /// vector different from the previous one, runs the analog
    /// transient and feeds the detectors.
    fn apply_bus_state(&mut self) -> Result<(), CoreError> {
        let ctrl = self.driver.chain().device(0)?.cell_control();
        let mut new = Vec::with_capacity(self.wires);
        for i in 0..self.wires {
            // A quarantined wire's PGBSC sits behind the broken shift
            // segment: whatever it holds is scan fill, not a planned
            // pattern. Model its driver parked at the quiescent level.
            if self.quarantine.as_ref().is_some_and(|q| q.is_quarantined(i)) {
                new.push(QUARANTINE_PARK);
                continue;
            }
            let out = self.driver.chain().device(0)?.boundary().cell(i)?.output(&ctrl);
            match out.to_bool() {
                Some(b) => new.push(DriveLevel::from(b)),
                None => {
                    // Undefined drive (pre-preload): nothing physical yet.
                    self.prev = None;
                    return Ok(());
                }
            }
        }
        let prev = match self.prev.take() {
            Some(p) => p,
            None => {
                self.prev = Some(new);
                return Ok(());
            }
        };
        if prev == new {
            self.prev = Some(new);
            return Ok(());
        }
        let pair = VectorPair::new(prev, new.clone());
        let ce = ctrl.ce;
        if self.panel_width <= 1 {
            // Scalar oracle path: one single-RHS transient per pattern,
            // at Update-DR time.
            let sim = Arc::clone(&self.sim);
            let waves = match sim.run_pair_cancellable(
                &pair,
                self.settle,
                &mut self.scratch,
                self.cancel.as_ref(),
            ) {
                Ok(waves) => waves,
                Err(InterconnectError::Cancelled { step }) => {
                    return Err(CoreError::DeadlineExceeded { step });
                }
                Err(e) => return Err(e.into()),
            };
            self.transients_run += 1;
            self.patterns_applied += 1;
            for w in 0..self.wires {
                let v = self.wire_verdict(w, waves.wire(w), &pair, waves.dt(), sim.switch_at(), ce);
                self.latch_wire(w, v, ce)?;
            }
        } else {
            // Batched path: the pattern is digitally applied now, its
            // transient deferred to the next panel flush. Detector
            // state is only observable through a read-out, and every
            // read-out flushes first, so the deferral is invisible.
            self.patterns_applied += 1;
            self.pending.push(PendingPattern { pair, ce });
            if self.pending.len() >= self.panel_width {
                self.flush_pending()?;
            }
        }
        self.prev = Some(new);
        Ok(())
    }

    /// Observes every queued pattern, in application order. With a
    /// memo attached, patterns whose detector bits are already stored
    /// are replayed and only the rest are solved; otherwise all of them
    /// are solved as one multi-RHS panel transient. The panel path is
    /// bitwise identical to the scalar oracle for finite systems (and
    /// replays sequentially through it otherwise), and the detectors
    /// are pure CE-gated OR-latches, so flushing at read-out boundaries
    /// observes exactly what per-pattern scalar runs would have.
    fn flush_pending(&mut self) -> Result<(), CoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut self.pending);
        // Size the solve buffers for a full panel up front, whether or
        // not this flush solves anything: every SoC then makes the same
        // allocations whatever the memo serves it. Buffers grown by miss
        // count, or only in SoCs that happen to miss, fragment the
        // worker heaps and spread peak RSS from run to run.
        self.sim.reserve_panel(self.panel_width, self.settle, &mut self.panel_scratch, &mut self.panel);
        let bits = match self.memo.clone() {
            Some((memo, slot)) => self.memoised_bits(&memo, slot, &pending)?,
            None => {
                let pairs: Vec<VectorPair> = pending.iter().map(|p| p.pair.clone()).collect();
                let detectors: Vec<bool> = pending.iter().map(|p| p.ce).collect();
                self.solve_bits(&pairs, &detectors)?
            }
        };
        self.transients_run += pending.len();
        for (p, bits) in pending.iter().zip(&bits) {
            for w in 0..self.wires {
                self.latch_wire(w, bits.get(w), p.ce)?;
            }
        }
        Ok(())
    }

    /// Every pending pattern's detector bits: stored ones from the
    /// memo, the rest solved (each distinct pair once) and inserted.
    fn memoised_bits(
        &mut self,
        memo: &DetectorMemo,
        slot: MemoSlot,
        pending: &[PendingPattern],
    ) -> Result<Vec<DetectorBits>, CoreError> {
        // A hit never reaches the solver's cancellation polls, so poll
        // here, before any lookup: an expired deadline sheds the same
        // way whether the patterns hit or miss.
        if self.cancel.as_ref().is_some_and(CancelToken::poll_deadline) {
            return Err(CoreError::DeadlineExceeded { step: 0 });
        }
        let table = slot.table(self.sim.dt(), self.settle);
        let keys: Vec<PairKey> = pending.iter().map(|p| PairKey::pack(&p.pair)).collect();
        let found = memo.lookup(table, &keys);
        let mut misses: Vec<usize> = Vec::new();
        for (i, hit) in found.iter().enumerate() {
            if hit.is_none() && !misses.iter().any(|&m| keys[m] == keys[i]) {
                misses.push(i);
            }
        }
        let pairs: Vec<VectorPair> = misses.iter().map(|&i| pending[i].pair.clone()).collect();
        let solved = self.solve_bits(&pairs, &vec![true; pairs.len()])?;
        let fresh: Vec<(PairKey, DetectorBits)> =
            misses.iter().map(|&i| keys[i].clone()).zip(solved).collect();
        memo.insert(table, &fresh);
        Ok(found
            .into_iter()
            .zip(&keys)
            .map(|(hit, key)| {
                hit.unwrap_or_else(|| {
                    let (_, bits) = fresh.iter().find(|(k, _)| k == key).expect("every miss was solved");
                    bits.clone()
                })
            })
            .collect())
    }

    /// Solves `pairs` as one panel on the active solver and reduces each
    /// pattern's waveforms to detector bits; `detectors[c]` false skips
    /// the ND/SD verdicts of pattern `c` (a CE-low pattern nothing will
    /// replay).
    fn solve_bits(
        &mut self,
        pairs: &[VectorPair],
        detectors: &[bool],
    ) -> Result<Vec<DetectorBits>, CoreError> {
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        let Soc { sim, settle, cancel, panel_scratch: scratch, panel, .. } = self;
        match sim.run_pairs_into(pairs, *settle, scratch, cancel.as_ref(), panel) {
            Ok(()) => {}
            Err(InterconnectError::Cancelled { step }) => {
                return Err(CoreError::DeadlineExceeded { step });
            }
            Err(e) => return Err(e.into()),
        }
        let (dt, switch_at) = (self.panel.dt(), self.panel.switch_at());
        let panel = &self.panel;
        Ok(pairs
            .iter()
            .zip(detectors)
            .enumerate()
            .map(|(c, (pair, &full))| {
                let mut bits = DetectorBits::new(self.wires);
                for w in 0..self.wires {
                    bits.set(w, self.wire_verdict(w, panel.wire(c, w), pair, dt, switch_at, full));
                }
                bits
            })
            .collect())
    }

    /// Reduces one wire's received waveform to what its OBSC consumes:
    /// the ND and SD verdicts (SD only when the wire switched; both
    /// skipped when `detectors` is false) and the settled level.
    fn wire_verdict(
        &self,
        w: usize,
        wave: &[f64],
        pair: &VectorPair,
        dt: f64,
        switch_at: f64,
        detectors: bool,
    ) -> WireVerdict {
        let vdd = self.bus.vdd();
        WireVerdict {
            nd: detectors && self.nd.violated_by(wave, vdd),
            sd: detectors
                && pair.switches(w)
                && self.sd.violated_by(wave, dt, vdd, pair.after(w), switch_at),
            high: settled_value(wave, 0.1) > vdd / 2.0,
        }
    }

    /// Feeds one wire's verdict into its OBSC under detector-enable
    /// `ce`: the ND/SD flip-flops latch a verdict only while enabled,
    /// and the settled level becomes the parallel input.
    fn latch_wire(&mut self, w: usize, v: WireVerdict, ce: bool) -> Result<(), CoreError> {
        let obsc = self.obsc_mut(w)?;
        obsc.set_detectors_enabled(ce);
        obsc.nd_mut().record(v.nd);
        obsc.sd_mut().record(v.sd);
        obsc.set_parallel_input(Logic::from(v.high));
        Ok(())
    }

    /// Extracts the OBSC bits from a full-chain scan-out (TDO order).
    fn obsc_bits(&self, out: &BitVector) -> Vec<bool> {
        let len = self.chain_len();
        (0..self.wires)
            .map(|w| out.get(len - 1 - (self.wires + w)) == Some(Logic::One))
            .collect()
    }

    /// One O-SITEST double read-out: loads the instruction, scans the ND
    /// flip-flops, then (ND̄/SD having toggled on Update-DR) the SD
    /// flip-flops.
    fn readout(&mut self, point: ReadoutPoint) -> Result<ReadoutRecord, CoreError> {
        // The scanned flip-flops must reflect every pattern applied so
        // far: force any deferred transients through now.
        self.flush_pending()?;
        self.driver.load_instruction("O-SITEST")?;
        let zeros = BitVector::zeros(self.chain_len());
        let nd_out = self.driver.scan_dr(&zeros)?;
        let sd_out = self.driver.scan_dr(&zeros)?;
        // Update-DRs during O-SITEST hold the pattern generators (CE=0),
        // so the bus state is undisturbed; keep `prev` as is.
        Ok(ReadoutRecord {
            point,
            nd: self.obsc_bits(&nd_out),
            sd: self.obsc_bits(&sd_out),
        })
    }

    /// Restores the victim-select word after a mid-half read-out and
    /// reloads `G-SITEST` (see `timing::resume_tcks`).
    fn resume(&mut self, victim: usize) -> Result<(), CoreError> {
        // Restore under O-SITEST: its Update-DR leaves the generators
        // untouched (CE gating), so the extra update is inert.
        let word = self.victim_select_word(victim)?;
        self.driver.scan_dr(&word)?;
        self.driver.load_instruction("G-SITEST")?;
        Ok(())
    }

    /// Runs the **conventional** pattern-application campaign (the
    /// Table 5 baseline): every MA vector is scanned into the full
    /// boundary chain under EXTEST and applied by Update-DR — no
    /// on-chip generation, `12` scans per victim, `O(n²)` TCKs overall.
    ///
    /// Returns `(tcks_used, patterns_applied)`. The conventional
    /// architecture has no detectors (CE stays low under EXTEST), so
    /// only the cost is meaningful — exactly how the paper uses it.
    ///
    /// # Errors
    ///
    /// Substrate errors are propagated.
    pub fn run_conventional_generation(&mut self) -> Result<(u64, usize), CoreError> {
        self.driver.reset();
        self.patterns_applied = 0;
        self.prev = None;
        let tck_start = self.driver.tck();
        self.driver.load_instruction("EXTEST")?;
        let schedule = crate::mafm::conventional_schedule(self.wires)?;
        for sched in &schedule {
            for vector in [
                (0..self.wires).map(|w| sched.pair.before(w)).collect::<Vec<_>>(),
                (0..self.wires).map(|w| sched.pair.after(w)).collect::<Vec<_>>(),
            ] {
                let mut values = vec![Logic::Zero; self.chain_len()];
                for (w, level) in vector.iter().enumerate() {
                    values[w] = Logic::from(*level == DriveLevel::High);
                }
                let word = self.scan_word(&values);
                self.driver.scan_dr(&word)?;
                self.apply_bus_state()?;
            }
        }
        self.flush_pending()?;
        Ok((self.driver.tck() - tck_start, self.patterns_applied))
    }

    /// Runs the integrity session while recording every host operation
    /// and returns the report together with the SVF program that would
    /// replay the session on real test equipment.
    ///
    /// # Errors
    ///
    /// As for [`Soc::run_integrity_test`].
    pub fn run_integrity_test_with_svf(
        &mut self,
        config: &SessionConfig,
        options: &sint_jtag::svf::SvfOptions,
    ) -> Result<(IntegrityReport, String), CoreError> {
        self.driver.start_recording();
        let report = self.run_integrity_test(config)?;
        let ops = self.driver.take_recording();
        Ok((report, sint_jtag::svf::to_svf(&ops, options)))
    }

    /// Clears every detector flip-flop (start of a session).
    ///
    /// # Errors
    ///
    /// Substrate errors are propagated.
    pub fn clear_detectors(&mut self) -> Result<(), CoreError> {
        // Deferred patterns precede the clear in application order:
        // their observations are made (and wiped) exactly as the
        // scalar path would have.
        self.flush_pending()?;
        for w in 0..self.wires {
            self.obsc_mut(w)?.clear_detectors();
        }
        Ok(())
    }

    /// Runs the full signal-integrity test algorithm (Figs 8 and 12)
    /// and returns the report.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for a non-positive settle time or
    /// timestep; [`CoreError::Infrastructure`] when the pre-session
    /// chain self-check finds the scan infrastructure faulty; substrate
    /// errors are propagated.
    pub fn run_integrity_test(
        &mut self,
        config: &SessionConfig,
    ) -> Result<IntegrityReport, CoreError> {
        if config.settle_time <= 0.0 || config.dt <= 0.0 {
            return Err(CoreError::config("settle time and dt must be positive"));
        }
        self.quarantine = None;
        self.degradation_events.clear();
        let qualification = self.qualify_chain()?;
        if !qualification.healthy() {
            return self.run_degraded(config, qualification);
        }
        self.select_sim(config)?;
        self.driver.reset();
        self.clear_detectors()?;
        self.patterns_applied = 0;
        let tck_start = self.driver.tck();

        let mut readouts = Vec::new();
        let n = self.wires;
        for initial in [DriveLevel::Low, DriveLevel::High] {
            // Preload the initial value into every update stage.
            self.driver.load_instruction("SAMPLE/PRELOAD")?;
            let word = self.uniform_word(initial);
            self.driver.scan_dr(&word)?;
            self.apply_bus_state()?;
            // Enter signal-integrity mode; the pattern stages now drive
            // the bus with the initial value (the baseline state the
            // first Update-DR transitions away from).
            self.driver.load_instruction("G-SITEST")?;
            self.apply_bus_state()?;
            for victim in 0..n {
                // Pattern 1 of this victim rides on the trailing
                // Update-DR of the select scan / rotation shift.
                if victim == 0 {
                    let word = self.victim_select_word(0)?;
                    self.driver.scan_dr(&word)?;
                } else {
                    let one = BitVector::zeros(1);
                    self.driver.shift_dr_bits(&one)?;
                }
                self.apply_bus_state()?;
                self.per_pattern_readout(config, initial, victim, 0, &mut readouts)?;
                for p in 1..3usize {
                    self.driver.pulse_update_dr(1)?;
                    self.apply_bus_state()?;
                    self.per_pattern_readout(config, initial, victim, p, &mut readouts)?;
                }
            }
            if config.method == ObservationMethod::PerInitialValue {
                readouts.push(self.readout(ReadoutPoint::AfterInitialValue(initial))?);
            }
        }
        if config.method == ObservationMethod::Once {
            readouts.push(self.readout(ReadoutPoint::Final)?);
        }
        self.flush_pending()?;

        let tck_used = self.driver.tck() - tck_start;
        Ok(IntegrityReport::new(
            config.method,
            n,
            readouts,
            tck_used,
            self.patterns_applied,
        ))
    }

    fn per_pattern_readout(
        &mut self,
        config: &SessionConfig,
        initial: DriveLevel,
        victim: usize,
        pattern_index: usize,
        readouts: &mut Vec<ReadoutRecord>,
    ) -> Result<(), CoreError> {
        if config.method != ObservationMethod::PerPattern {
            return Ok(());
        }
        let fault = IntegrityFault::covered_by_initial(initial)[pattern_index];
        readouts.push(self.readout(ReadoutPoint::AfterPattern { initial, victim, fault })?);
        // Resume unless this was the last pattern of the half (the next
        // half re-preloads everything anyway).
        let last_of_half = victim == self.wires - 1 && pattern_index == 2;
        if !last_of_half {
            self.resume(victim)?;
        }
        Ok(())
    }

    /// The damaged-chain path of [`Soc::run_integrity_test`]: applies
    /// [`ChainPolicy`], localizes the break, quarantines the affected
    /// wires and — when enough coverage survives — runs the partial
    /// session, attaching the full [`DegradedOutcome`] to the report.
    fn run_degraded(
        &mut self,
        config: &SessionConfig,
        qualification: ChainCheckReport,
    ) -> Result<IntegrityReport, CoreError> {
        let (localization, coverage, events) = self.apply_degradation_policy(qualification)?;
        let report = self.run_degraded_session(config)?;
        Ok(report.with_degradation(DegradedOutcome { localization, coverage, events }))
    }

    /// The policy/localization/quarantine half of the damaged-chain
    /// path, shared by [`Soc::run_integrity_test`] and the adaptive
    /// sessions: checks [`ChainPolicy`], localizes the break, installs
    /// the quarantine and the concession trail on `self`, and enforces
    /// the coverage floor. Returns the pieces of the eventual
    /// [`DegradedOutcome`].
    fn apply_degradation_policy(
        &mut self,
        qualification: ChainCheckReport,
    ) -> Result<(FaultLocalization, CoverageReport, Vec<DegradationEvent>), CoreError> {
        let min_coverage = match self.policy {
            ChainPolicy::Strict => {
                return Err(CoreError::Infrastructure(InfrastructureDiagnosis {
                    chain_cells: self.chain_len(),
                    report: qualification,
                }));
            }
            ChainPolicy::Degrade { min_coverage } => min_coverage,
        };
        // Only a boundary-path break is localizable: every other fault
        // class (stuck serial link, bit flips, a wedged TAP, dropped
        // TCK edges) corrupts the BYPASS path the walking-one probe
        // itself travels, so no degraded verdict could be trusted.
        if !qualification
            .anomalies
            .iter()
            .all(|a| matches!(a, ChainAnomaly::BoundaryPathStuck { .. }))
        {
            return Err(CoreError::InsufficientCoverage {
                covered: 0,
                total: IntegrityFault::ALL.len() * self.wires,
                min_coverage,
            });
        }
        let localization = self.localize_break()?;
        let mut events: Vec<DegradationEvent> = qualification
            .anomalies
            .iter()
            .cloned()
            .map(|anomaly| DegradationEvent::AnomalyDetected { anomaly })
            .collect();
        events.push(DegradationEvent::BreakLocalized {
            segment: localization.segment,
            probe_tcks: localization.tck_cost,
        });
        for wire in localization.quarantine.quarantined_wires() {
            events.push(DegradationEvent::WireQuarantined { wire });
            events.push(DegradationEvent::AggressorParked { wire });
            events.push(DegradationEvent::VerdictMasked { wire });
        }
        let coverage = CoverageReport::for_quarantine(self.wires, &localization.quarantine);
        if localization.quarantine.healthy_count() < 2 || !coverage.meets(min_coverage) {
            // Keep the trail: the caller can see what was found and
            // how much coverage the break would have cost.
            self.degradation_events = events;
            return Err(CoreError::InsufficientCoverage {
                covered: coverage.covered_count(),
                total: coverage.total(),
                min_coverage,
            });
        }
        self.quarantine = Some(localization.quarantine.clone());
        self.degradation_events = events.clone();
        Ok((localization, coverage, events))
    }

    /// Runs the walking-one probe (see
    /// [`sint_jtag::integrity::localize_boundary_fault`]) under EXTEST
    /// with SVF recording suspended: each pass drives a one-hot word
    /// from the PGBSCs, loops the driven levels back into the OBSCs at
    /// DC, and reads the capture back through the damaged chain.
    fn localize_break(&mut self) -> Result<FaultLocalization, CoreError> {
        let wires = self.wires;
        let chain_len = self.chain_len();
        let recording = self.driver.suspend_recording();
        let result = (|| -> Result<FaultLocalization, JtagError> {
            self.driver.reset();
            self.driver.load_instruction("EXTEST")?;
            localize_boundary_fault(&mut self.driver, wires, |driver, target| {
                probe_pass(driver, wires, chain_len, target)
            })
        })();
        self.driver.restore_recording(recording);
        Ok(result?)
    }

    /// The partial session over the healthy wires: the same two-half
    /// PGBSC campaign as the healthy path, except that only healthy
    /// wires take the victim role — and because the survivors may be
    /// non-contiguous, every round scans the full victim-select word
    /// instead of riding the 1-bit rotation.
    fn run_degraded_session(
        &mut self,
        config: &SessionConfig,
    ) -> Result<IntegrityReport, CoreError> {
        self.select_sim(config)?;
        self.driver.reset();
        self.clear_detectors()?;
        self.patterns_applied = 0;
        let victims = match &self.quarantine {
            Some(q) => q.healthy_wires(),
            None => (0..self.wires).collect(),
        };
        let tck_start = self.driver.tck();

        let mut readouts = Vec::new();
        for initial in [DriveLevel::Low, DriveLevel::High] {
            self.driver.load_instruction("SAMPLE/PRELOAD")?;
            let word = self.uniform_word(initial);
            self.driver.scan_dr(&word)?;
            self.apply_bus_state()?;
            self.driver.load_instruction("G-SITEST")?;
            self.apply_bus_state()?;
            for (round, &victim) in victims.iter().enumerate() {
                let word = self.victim_select_word(victim)?;
                self.driver.scan_dr(&word)?;
                self.apply_bus_state()?;
                let last_victim = round == victims.len() - 1;
                self.degraded_readout(config, initial, victim, 0, last_victim, &mut readouts)?;
                for p in 1..3usize {
                    self.driver.pulse_update_dr(1)?;
                    self.apply_bus_state()?;
                    self.degraded_readout(config, initial, victim, p, last_victim, &mut readouts)?;
                }
            }
            if config.method == ObservationMethod::PerInitialValue {
                readouts.push(self.masked_readout(ReadoutPoint::AfterInitialValue(initial))?);
            }
        }
        if config.method == ObservationMethod::Once {
            readouts.push(self.masked_readout(ReadoutPoint::Final)?);
        }
        self.flush_pending()?;

        let tck_used = self.driver.tck() - tck_start;
        Ok(IntegrityReport::new(
            config.method,
            self.wires,
            readouts,
            tck_used,
            self.patterns_applied,
        ))
    }

    /// A read-out with quarantined wires' verdict bits forced clear:
    /// their scan-outs cross (or their detectors sit behind) the broken
    /// segment, so whatever arrives cannot be trusted either way.
    fn masked_readout(&mut self, point: ReadoutPoint) -> Result<ReadoutRecord, CoreError> {
        let mut record = self.readout(point)?;
        if let Some(q) = &self.quarantine {
            for w in 0..self.wires {
                if q.is_quarantined(w) {
                    record.nd[w] = false;
                    record.sd[w] = false;
                }
            }
        }
        Ok(record)
    }

    /// Per-pattern read-out for the degraded loop: like
    /// [`Soc::per_pattern_readout`] but masked, and "last pattern of
    /// the half" means the last *healthy* victim's third pattern.
    fn degraded_readout(
        &mut self,
        config: &SessionConfig,
        initial: DriveLevel,
        victim: usize,
        pattern_index: usize,
        last_victim: bool,
        readouts: &mut Vec<ReadoutRecord>,
    ) -> Result<(), CoreError> {
        if config.method != ObservationMethod::PerPattern {
            return Ok(());
        }
        let fault = IntegrityFault::covered_by_initial(initial)[pattern_index];
        readouts
            .push(self.masked_readout(ReadoutPoint::AfterPattern { initial, victim, fault })?);
        let last_of_half = last_victim && pattern_index == 2;
        if !last_of_half {
            self.resume(victim)?;
        }
        Ok(())
    }

    /// The observation method the cost model picks for this SoC's
    /// chain geometry (see [`MethodPlanner`]).
    #[must_use]
    pub fn plan_method(&self, planner: &MethodPlanner) -> ObservationMethod {
        planner.choose(ChainGeometry::new(self.wires, self.extra_cells))
    }

    /// Runs one PGBSC half with *probes* — masked read-outs that clear
    /// the detectors afterwards — at the scheduled `(victim position,
    /// pattern index)` points, truncating the half right after `stop`.
    ///
    /// `probes` must be ascending and end exactly at `stop` (the pass's
    /// last action, which therefore needs no resume). Returns one
    /// "any detector latched since the previous probe" flag per probe.
    ///
    /// Probing is trajectory-neutral: read-outs run under `O-SITEST`
    /// whose Update-DRs hold the pattern generators (CE=0), detector
    /// clearing is host-side, and the resume restores the exact select
    /// word — so pattern `k` of a truncated or probed half excites the
    /// bus identically to pattern `k` of the uninterrupted session.
    fn run_half_instrumented(
        &mut self,
        initial: DriveLevel,
        victims: &[usize],
        rotate: bool,
        stop: (usize, usize),
        probes: &[(usize, usize)],
        readouts: &mut Vec<ReadoutRecord>,
    ) -> Result<Vec<bool>, CoreError> {
        debug_assert!(probes.last() == Some(&stop), "probe schedule must end at the stop");
        debug_assert!(probes.windows(2).all(|w| w[0] < w[1]), "probes must ascend");
        self.driver.load_instruction("SAMPLE/PRELOAD")?;
        let word = self.uniform_word(initial);
        self.driver.scan_dr(&word)?;
        self.apply_bus_state()?;
        self.driver.load_instruction("G-SITEST")?;
        self.apply_bus_state()?;
        let mut flags = Vec::with_capacity(probes.len());
        let mut next_probe = 0usize;
        for (pos, &victim) in victims.iter().enumerate().take(stop.0 + 1) {
            if pos == 0 || !rotate {
                let word = self.victim_select_word(victim)?;
                self.driver.scan_dr(&word)?;
            } else {
                self.driver.shift_dr_bits(&BitVector::zeros(1))?;
            }
            self.apply_bus_state()?;
            self.probe_if_scheduled(initial, victim, (pos, 0), probes, &mut next_probe, &mut flags, readouts)?;
            let last_pattern = if pos == stop.0 { stop.1 } else { 2 };
            for p in 1..=last_pattern {
                self.driver.pulse_update_dr(1)?;
                self.apply_bus_state()?;
                self.probe_if_scheduled(initial, victim, (pos, p), probes, &mut next_probe, &mut flags, readouts)?;
            }
        }
        Ok(flags)
    }

    #[allow(clippy::too_many_arguments)]
    fn probe_if_scheduled(
        &mut self,
        initial: DriveLevel,
        victim: usize,
        at: (usize, usize),
        probes: &[(usize, usize)],
        next_probe: &mut usize,
        flags: &mut Vec<bool>,
        readouts: &mut Vec<ReadoutRecord>,
    ) -> Result<(), CoreError> {
        if probes.get(*next_probe) != Some(&at) {
            return Ok(());
        }
        *next_probe += 1;
        let record =
            self.masked_readout(ReadoutPoint::Probe { initial, victim, pattern: at.1 })?;
        flags.push(record.nd.iter().chain(&record.sd).any(|&b| b));
        readouts.push(record);
        self.clear_detectors()?;
        // The last probe sits at `stop`, the pass's final action: only
        // earlier probes must restore the select word before the next
        // pattern fires.
        if *next_probe < probes.len() {
            self.resume(victim)?;
        }
        Ok(())
    }

    /// Session preamble shared by the adaptive paths: policy handling
    /// for an unhealthy chain, victim roster, solver selection, driver
    /// reset and detector clear.
    #[allow(clippy::type_complexity)]
    fn begin_adaptive_session(
        &mut self,
        config: &SessionConfig,
    ) -> Result<
        (Vec<usize>, bool, Option<(FaultLocalization, CoverageReport, Vec<DegradationEvent>)>),
        CoreError,
    > {
        if config.settle_time <= 0.0 || config.dt <= 0.0 {
            return Err(CoreError::config("settle time and dt must be positive"));
        }
        self.quarantine = None;
        self.degradation_events.clear();
        let qualification = self.qualify_chain()?;
        let degraded = if qualification.healthy() {
            None
        } else {
            Some(self.apply_degradation_policy(qualification)?)
        };
        let (victims, rotate) = match &self.quarantine {
            Some(q) => (q.healthy_wires(), false),
            None => ((0..self.wires).collect(), true),
        };
        self.select_sim(config)?;
        self.driver.reset();
        self.clear_detectors()?;
        self.patterns_applied = 0;
        Ok((victims, rotate, degraded))
    }

    /// Assembles the adaptive outcome: appends the synthesized
    /// cumulative record the verdicts are read from (the per-probe
    /// records are windowed, not cumulative — ORing them recovers the
    /// sticky-detector semantics of the standard session *for the
    /// patterns that ran*).
    #[allow(clippy::too_many_arguments)]
    fn finish_adaptive_session(
        &mut self,
        config: &SessionConfig,
        mut readouts: Vec<ReadoutRecord>,
        tck_start: u64,
        degraded: Option<(FaultLocalization, CoverageReport, Vec<DegradationEvent>)>,
        detected: std::collections::BTreeSet<(usize, IntegrityFault)>,
        dropped: u64,
        escalations: u64,
    ) -> Result<AdaptiveSessionOutcome, CoreError> {
        self.flush_pending()?;
        let n = self.wires;
        let mut nd = vec![false; n];
        let mut sd = vec![false; n];
        for record in &readouts {
            for w in 0..n {
                nd[w] |= record.nd[w];
                sd[w] |= record.sd[w];
            }
        }
        readouts.push(ReadoutRecord { point: ReadoutPoint::Final, nd, sd });
        let tck_used = self.driver.tck() - tck_start;
        let mut report =
            IntegrityReport::new(config.method, n, readouts, tck_used, self.patterns_applied);
        if let Some((localization, coverage, events)) = degraded {
            report = report.with_degradation(DegradedOutcome { localization, coverage, events });
        }
        Ok(AdaptiveSessionOutcome {
            report,
            detected: detected.into_iter().collect(),
            dropped,
            escalations,
        })
    }

    /// The adaptive session (ROADMAP item 3): **fault dropping** plus
    /// **escalating read-out localization**.
    ///
    /// Per half (run in `half_order` — the adaptive engine puts the
    /// recently-failing half first), the coverage `ledger` truncates the
    /// schedule after the last still-uncovered `(victim, fault)` pair —
    /// or skips the half outright when everything is covered. The
    /// truncated half runs at method-1 cost with a single trailing
    /// probe; only if that probe flags does the engine escalate, binary-
    /// searching the flagged pattern window with further probed re-runs
    /// (method 2 → 3 granularity, but only where failures actually
    /// live) until every failing pattern is isolated.
    ///
    /// `detected` holds pattern-identity attributions: `(victim, fault)`
    /// of each isolated failing pattern. Because dropping only ever
    /// removes pairs *already recorded* in the ledger, the union of
    /// `detected` across a campaign equals the exhaustive sweep's union
    /// exactly — the equivalence `tests/props.rs` locks.
    ///
    /// # Errors
    ///
    /// As for [`Soc::run_integrity_test`].
    pub fn run_adaptive_session(
        &mut self,
        config: &SessionConfig,
        ledger: &CoverageLedger,
        half_order: [DriveLevel; 2],
    ) -> Result<AdaptiveSessionOutcome, CoreError> {
        let (victims, rotate, degraded) = self.begin_adaptive_session(config)?;
        let tck_start = self.driver.tck();
        let mut readouts = Vec::new();
        let mut detected = std::collections::BTreeSet::new();
        let mut dropped = 0u64;
        let mut escalations = 0u64;
        for initial in half_order {
            let faults = IntegrityFault::covered_by_initial(initial);
            let full = 3 * victims.len() as u64;
            let Some(stop) = ledger.last_uncovered(&victims, &faults) else {
                dropped += full;
                continue;
            };
            let last_linear = 3 * stop.0 + stop.1;
            dropped += full - (last_linear as u64 + 1);
            let flags =
                self.run_half_instrumented(initial, &victims, rotate, stop, &[stop], &mut readouts)?;
            if !flags[0] {
                continue;
            }
            if last_linear == 0 {
                detected.insert((victims[0], faults[0]));
                continue;
            }
            // Binary-search the flagged window (linear pattern indices
            // `lo+1..=hi`; `-1` is the pre-half sentinel). Each pass
            // re-runs the half truncated at its furthest probe; a probe
            // window that still flags splits, a singleton that flags is
            // an isolated failing pattern. Gaps between windows are not
            // necessarily clean — a re-run re-fires patterns isolated
            // in earlier passes — so a window preceded by a gap gets a
            // discarded *guard* probe at `lo`, clearing whatever the
            // gap latched and keeping the mid probe's flag an exact OR
            // over `lo+1..=mid`.
            let mut windows: Vec<(i64, i64)> = vec![(-1, last_linear as i64)];
            while !windows.is_empty() {
                escalations += 1;
                let at = |linear: i64| -> (usize, usize) {
                    let linear = linear as usize;
                    (linear / 3, linear % 3)
                };
                let mut plan = Vec::with_capacity(windows.len());
                let mut probes = Vec::with_capacity(3 * windows.len());
                let mut prev = -1i64;
                for &(lo, hi) in &windows {
                    let mid = (lo + hi) / 2;
                    if lo > prev {
                        probes.push(at(lo));
                    }
                    plan.push((lo, mid, hi, probes.len()));
                    probes.push(at(mid));
                    probes.push(at(hi));
                    prev = hi;
                }
                let pass_stop = *probes.last().expect("windows is non-empty");
                let flags = self.run_half_instrumented(
                    initial, &victims, rotate, pass_stop, &probes, &mut readouts,
                )?;
                let mut next = Vec::new();
                for (lo, mid, hi, base) in plan {
                    for (wlo, whi, flagged) in
                        [(lo, mid, flags[base]), (mid, hi, flags[base + 1])]
                    {
                        if !flagged {
                            continue;
                        }
                        if whi - wlo == 1 {
                            let (pos, p) = at(whi);
                            detected.insert((victims[pos], faults[p]));
                        } else {
                            next.push((wlo, whi));
                        }
                    }
                }
                windows = next;
            }
        }
        self.finish_adaptive_session(
            config, readouts, tck_start, degraded, detected, dropped, escalations,
        )
    }

    /// The exhaustive counterpart of [`Soc::run_adaptive_session`]: no
    /// ledger, no truncation, a probe after **every** pattern — full
    /// pattern-identity attribution at exactly method-3 cost (the TCK
    /// equality with [`crate::timing::method_total_tcks`] is asserted
    /// in tests). This is both the adaptive path's correctness oracle
    /// and the cost baseline `BENCH_adaptive.json` measures against.
    ///
    /// # Errors
    ///
    /// As for [`Soc::run_integrity_test`].
    pub fn run_attributed_exhaustive(
        &mut self,
        config: &SessionConfig,
    ) -> Result<AdaptiveSessionOutcome, CoreError> {
        let (victims, rotate, degraded) = self.begin_adaptive_session(config)?;
        let tck_start = self.driver.tck();
        let mut readouts = Vec::new();
        let mut detected = std::collections::BTreeSet::new();
        for initial in [DriveLevel::Low, DriveLevel::High] {
            let faults = IntegrityFault::covered_by_initial(initial);
            let stop = (victims.len() - 1, 2);
            let probes: Vec<(usize, usize)> =
                (0..victims.len()).flat_map(|pos| (0..3).map(move |p| (pos, p))).collect();
            let flags =
                self.run_half_instrumented(initial, &victims, rotate, stop, &probes, &mut readouts)?;
            for (i, flagged) in flags.into_iter().enumerate() {
                if flagged {
                    detected.insert((victims[i / 3], faults[i % 3]));
                }
            }
        }
        self.finish_adaptive_session(config, readouts, tck_start, degraded, detected, 0, 0)
    }
}

/// Outcome of one adaptive or attributed-exhaustive session: the
/// report (verdicts OR-folded over every probe window that ran), the
/// pattern-identity detections, and the adaptivity counters the fleet
/// record format carries per trial.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveSessionOutcome {
    /// Session report. Its verdicts cover only the patterns that ran:
    /// a fully-dropped pair shows clean here even if a defect persists
    /// — the campaign ledger, not the per-trial report, is the
    /// authority on cumulative coverage.
    pub report: IntegrityReport,
    /// Isolated failing patterns as `(victim, fault)` pairs, sorted
    /// victim-major then [`IntegrityFault::ALL`] order.
    pub detected: Vec<(usize, IntegrityFault)>,
    /// Patterns skipped by ledger-driven dropping (whole halves and
    /// truncated suffixes).
    pub dropped: u64,
    /// Escalation passes beyond the initial probe of each half.
    pub escalations: u64,
}

/// One walking-one probe pass over the DC loop PGBSC → pin → OBSC.
///
/// Scans a word driving only `target` high (all-low for the `None`
/// baseline); EXTEST's trailing Update-DR puts it on the pins. The
/// driven level of each wire is then copied into the receiving OBSC's
/// parallel input — the settled DC value; the analog bus is not the
/// suspect here, the serial chain is — and a zero scan captures and
/// shifts the observations out. Both the stimulus and the observation
/// scans cross the damaged chain, so a break reveals itself as wires
/// that cannot echo their one back.
fn probe_pass(
    driver: &mut JtagDriver,
    wires: usize,
    chain_len: usize,
    target: Option<usize>,
) -> Result<Vec<bool>, JtagError> {
    let mut values = vec![Logic::Zero; chain_len];
    if let Some(w) = target {
        values[w] = Logic::One;
    }
    let word: BitVector = values.iter().rev().copied().collect();
    driver.scan_dr(&word)?;
    let ctrl = driver.chain().device(0)?.cell_control();
    let mut driven = Vec::with_capacity(wires);
    for w in 0..wires {
        driven.push(driver.chain().device(0)?.boundary().cell(w)?.output(&ctrl));
    }
    for (w, level) in driven.into_iter().enumerate() {
        driver
            .chain_mut()
            .device_mut(0)?
            .boundary_mut()
            .cell_mut(wires + w)?
            .set_parallel_input(level);
    }
    let out = driver.scan_dr(&BitVector::zeros(chain_len))?;
    Ok((0..wires)
        .map(|w| out.get(chain_len - 1 - (wires + w)) == Some(Logic::One))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{method_total_tcks, pgbsc_generation_tcks, ChainGeometry};
    use sint_runtime::ToJson;

    fn healthy(n: usize) -> Soc {
        SocBuilder::new(n).build().unwrap()
    }

    #[test]
    fn builder_validates() {
        assert!(SocBuilder::new(1).build().is_err());
        assert!(SocBuilder::new(2).build().is_ok());
        // Width mismatch between builder and explicit bus params.
        let err = SocBuilder::new(4).bus_params(BusParams::dsm_bus(3)).build();
        assert!(err.is_err());
    }

    fn bad_config_reason(result: Result<Soc, CoreError>) -> String {
        match result {
            Err(CoreError::BadConfig { reason }) => reason,
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }

    #[test]
    fn builder_rejects_degenerate_widths() {
        let reason = bad_config_reason(SocBuilder::new(0).build());
        assert!(reason.contains("two wires"), "{reason}");
        let reason = bad_config_reason(SocBuilder::new(1).build());
        assert!(reason.contains("two wires"), "{reason}");
    }

    #[test]
    fn builder_rejects_inverted_or_nonfinite_nd_thresholds() {
        let inverted =
            NdThresholds { v_low_max: 1.5, v_high_min: 0.3, overshoot_margin: 0.2 };
        let reason = bad_config_reason(SocBuilder::new(3).nd_thresholds(inverted).build());
        assert!(reason.contains("inverted"), "{reason}");

        let nan = NdThresholds { v_low_max: f64::NAN, v_high_min: 1.4, overshoot_margin: 0.2 };
        let reason = bad_config_reason(SocBuilder::new(3).nd_thresholds(nan).build());
        assert!(reason.contains("finite"), "{reason}");

        let negative =
            NdThresholds { v_low_max: -0.1, v_high_min: 1.4, overshoot_margin: 0.2 };
        let reason = bad_config_reason(SocBuilder::new(3).nd_thresholds(negative).build());
        assert!(reason.contains("non-negative"), "{reason}");
    }

    #[test]
    fn builder_rejects_bad_sd_windows() {
        for bad in [0.0, -1e-9, f64::NAN, f64::INFINITY] {
            let reason = bad_config_reason(SocBuilder::new(3).sd_window(bad).build());
            assert!(reason.contains("SD window"), "{bad}: {reason}");
        }
    }

    #[test]
    fn healthy_soc_passes_infrastructure_check() {
        let mut soc = healthy(3);
        let report = soc.check_infrastructure().unwrap();
        assert!(report.healthy());
        assert_eq!(report.devices, 1);
        assert!(soc.guardrail_events().is_empty(), "nominal build needs no recovery");
    }

    #[test]
    fn scan_fault_refuses_the_session_with_a_diagnosis() {
        use sint_jtag::fault::ScanFault;
        let mut soc =
            SocBuilder::new(3).scan_fault(ScanFault::StuckAtZero { link: 0 }).build().unwrap();
        let err = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::Once))
            .unwrap_err();
        match err {
            CoreError::Infrastructure(diag) => {
                assert_eq!(diag.chain_cells, 6);
                assert!(!diag.report.healthy());
                assert!(!diag.report.anomalies.is_empty());
            }
            other => panic!("expected Infrastructure, got {other:?}"),
        }
    }

    #[test]
    fn infrastructure_check_does_not_pollute_svf_recordings() {
        // The self-check runs inside the recorded session; its scans
        // must be suspended so the SVF program is exactly the session:
        // its statement count stays the session's own op count, and two
        // identically built SoCs record identical programs.
        let opts = sint_jtag::svf::SvfOptions::default();
        let cfg = SessionConfig::method(ObservationMethod::Once);
        let (report, svf) = healthy(3).run_integrity_test_with_svf(&cfg, &opts).unwrap();
        let scans = svf.lines().filter(|l| l.starts_with("SDR") || l.starts_with("SIR")).count();
        // Per half: 1 preload SIR+SDR, 1 G-SITEST SIR, 1 select SDR and
        // (n-1) rotation SDRs; plus the final O-SITEST SIR + 2 SDRs.
        // The self-check's own BYPASS scans must not appear on top.
        let n = 3;
        assert_eq!(scans, 2 * (2 + 1 + n) + 3, "self-check scans leaked into the SVF");
        assert!(report.tck_used > 0);
        let (_, svf_again) = healthy(3).run_integrity_test_with_svf(&cfg, &opts).unwrap();
        assert_eq!(svf, svf_again);
    }

    #[test]
    fn chain_layout() {
        let soc = SocBuilder::new(5).extra_cells(7).build().unwrap();
        assert_eq!(soc.chain_len(), 17);
        assert_eq!(soc.wires(), 5);
        assert_eq!(soc.extra_cells(), 7);
    }

    #[test]
    fn healthy_bus_passes_method1() {
        let mut soc = healthy(4);
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        assert!(
            !report.any_violation(),
            "healthy bus must be clean: {report}"
        );
        assert_eq!(report.patterns_applied, 2 * 4 * 3, "3 patterns per victim per half");
    }

    #[test]
    fn coupling_defect_detected_as_noise() {
        let mut soc = SocBuilder::new(4).coupling_defect(2, 6.0).build().unwrap();
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        assert!(report.wire(2).noise, "boosted coupling must latch the victim's ND: {report}");
    }

    #[test]
    fn open_defect_detected_as_skew() {
        let mut soc = SocBuilder::new(4).open_defect(1, 3000.0).build().unwrap();
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        assert!(report.wire(1).skew, "resistive open must latch the victim's SD: {report}");
    }

    #[test]
    fn generation_tcks_match_closed_form() {
        // Measure only the generation part by running method 1 and
        // subtracting the single final read-out.
        let n = 4;
        let m = 3;
        let mut soc = SocBuilder::new(n).extra_cells(m).build().unwrap();
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        let g = ChainGeometry::new(n, m);
        let expected = method_total_tcks(g, ObservationMethod::Once);
        assert_eq!(report.tck_used, expected, "driver TCKs must equal the Table 5/6 formulas");
        let _ = pgbsc_generation_tcks(g);
    }

    #[test]
    fn method_tcks_match_closed_form_for_all_methods() {
        for method in [
            ObservationMethod::Once,
            ObservationMethod::PerInitialValue,
            ObservationMethod::PerPattern,
        ] {
            let n = 3;
            let m = 2;
            let mut soc = SocBuilder::new(n).extra_cells(m).build().unwrap();
            let report = soc.run_integrity_test(&SessionConfig::method(method)).unwrap();
            let g = ChainGeometry::new(n, m);
            assert_eq!(report.tck_used, method_total_tcks(g, method), "{method}");
        }
    }

    #[test]
    fn method3_attributes_fault_class() {
        // Boosted coupling on wire 1 of 3: the per-pattern read-outs
        // must first show wire 1's ND latching during one of wire 1's
        // glitch patterns.
        let mut soc = SocBuilder::new(3).coupling_defect(1, 6.0).build().unwrap();
        let report = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::PerPattern))
            .unwrap();
        let first_hit = report
            .readouts
            .iter()
            .find(|r| r.nd[1])
            .expect("defect must be seen in some read-out");
        match first_hit.point {
            ReadoutPoint::AfterPattern { victim, fault, .. } => {
                assert_eq!(victim, 1, "first ND hit attributed to wire 1's own round");
                assert!(fault.is_glitch(), "coupling defect is a noise fault, got {fault}");
            }
            other => panic!("unexpected read-out point {other:?}"),
        }
    }

    #[test]
    fn conventional_generation_matches_closed_form_and_is_slower() {
        use crate::timing::conventional_generation_tcks;
        let n = 4;
        let m = 2;
        let mut soc = SocBuilder::new(n).extra_cells(m).build().unwrap();
        let (tck_conv, patterns) = soc.run_conventional_generation().unwrap();
        let g = ChainGeometry::new(n, m);
        assert_eq!(tck_conv, conventional_generation_tcks(g));
        assert!(patterns >= 6 * n, "every fault pair applies at least one transition");
        // And it must dwarf the PGBSC campaign on the same geometry.
        assert!(tck_conv > pgbsc_generation_tcks(g));
    }

    #[test]
    fn sim_cache_reuses_factored_solvers() {
        let mut soc = healthy(3);
        let built = Arc::clone(&soc.sim);
        let default_cfg = SessionConfig::method(ObservationMethod::Once);
        // Same dt as build time: the factored solver is reused as-is.
        soc.run_integrity_test(&default_cfg).unwrap();
        assert!(Arc::ptr_eq(&built, &soc.sim), "default dt must not refactor");
        // New dt: factored once, cached.
        let fine = SessionConfig { dt: 1e-12, ..default_cfg };
        soc.run_integrity_test(&fine).unwrap();
        let fine_sim = Arc::clone(&soc.sim);
        assert!(!Arc::ptr_eq(&built, &fine_sim));
        // Alternating back and forth hits the cache both ways.
        soc.run_integrity_test(&default_cfg).unwrap();
        assert!(Arc::ptr_eq(&built, &soc.sim), "original solver came from cache");
        soc.run_integrity_test(&fine).unwrap();
        assert!(Arc::ptr_eq(&fine_sim, &soc.sim), "fine-dt solver came from cache");
        assert_eq!(soc.sim_cache.len(), 2, "exactly one factorisation per distinct dt");
    }

    #[test]
    fn healthy_session_attaches_no_degradation() {
        let mut soc = healthy(3);
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        assert!(report.degradation().is_none());
        assert!(soc.degradation_events().is_empty());
        assert!(!report.to_json().render().contains("degradation"));
    }

    #[test]
    fn degraded_session_quarantines_the_broken_wire_and_reports_coverage() {
        // The acceptance scenario: an 8-wire bus whose boundary shift
        // path breaks after PGBSC cell 6 (stuck at 0). Wire 7's PGBSC
        // is uncontrollable; everything else survives. A Degrade
        // session must quarantine wire 7, cover 42 of the 48 MA faults
        // and surface every concession.
        let mut soc = SocBuilder::new(8)
            .scan_fault(ScanFault::BoundaryStuck { device: 0, cell: 6, level: false })
            .chain_policy(ChainPolicy::Degrade { min_coverage: 0.8 })
            .build()
            .unwrap();
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        let outcome = report.degradation().expect("degraded session attaches its outcome");
        assert_eq!(outcome.quarantine().quarantined_wires(), vec![7]);
        assert_eq!(outcome.localization.segment, Some(6));
        assert_eq!(outcome.coverage.covered_count(), 42);
        assert_eq!(outcome.coverage.total(), 48);
        assert_eq!(outcome.coverage.lost_count(), 6);
        let kinds: Vec<&str> = outcome.events.iter().map(|e| e.kind()).collect();
        for kind in [
            "anomaly_detected",
            "break_localized",
            "wire_quarantined",
            "aggressor_parked",
            "verdict_masked",
        ] {
            assert!(kinds.contains(&kind), "{kind} missing from {kinds:?}");
        }
        assert_eq!(soc.degradation_events(), &outcome.events[..]);
        assert!(!report.any_violation(), "healthy wires on a healthy bus stay clean: {report}");
        for r in &report.readouts {
            assert!(!r.nd[7] && !r.sd[7], "quarantined wire's verdicts must be masked");
        }
        let j = report.to_json().render();
        assert!(j.contains(r#""degradation""#), "{j}");
        assert!(j.contains(r#""coverage""#), "{j}");
    }

    #[test]
    fn degraded_session_still_finds_defects_on_healthy_wires() {
        // Quarantining wire 7 must not blind the session to a real bus
        // defect among the survivors.
        let mut soc = SocBuilder::new(8)
            .coupling_defect(2, 6.0)
            .scan_fault(ScanFault::BoundaryStuck { device: 0, cell: 6, level: false })
            .chain_policy(ChainPolicy::Degrade { min_coverage: 0.8 })
            .build()
            .unwrap();
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        assert!(report.degradation().is_some());
        assert!(report.wire(2).noise, "defect on a healthy wire must still latch: {report}");
    }

    #[test]
    fn strict_policy_refuses_a_boundary_break() {
        let mut soc = SocBuilder::new(4)
            .scan_fault(ScanFault::BoundaryStuck { device: 0, cell: 2, level: true })
            .build()
            .unwrap();
        let err = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::Once))
            .unwrap_err();
        match err {
            CoreError::Infrastructure(diag) => {
                assert!(diag
                    .report
                    .anomalies
                    .iter()
                    .any(|a| matches!(a, ChainAnomaly::BoundaryPathStuck { .. })));
            }
            other => panic!("expected Infrastructure, got {other:?}"),
        }
    }

    #[test]
    fn degrade_cannot_rescue_a_serial_link_fault() {
        // A stuck serial link corrupts the very path the localization
        // probe travels: even the laxest Degrade policy must refuse.
        let mut soc = SocBuilder::new(3)
            .scan_fault(ScanFault::StuckAtZero { link: 0 })
            .chain_policy(ChainPolicy::Degrade { min_coverage: 0.0 })
            .build()
            .unwrap();
        let err = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::Once))
            .unwrap_err();
        match err {
            CoreError::InsufficientCoverage { covered, total, .. } => {
                assert_eq!(covered, 0);
                assert_eq!(total, 18);
            }
            other => panic!("expected InsufficientCoverage, got {other:?}"),
        }
    }

    #[test]
    fn coverage_floor_refuses_a_deep_break() {
        // Break after PGBSC cell 0 of a 4-wire bus: only wire 0
        // survives — below the two-wire minimum regardless of policy.
        let mut soc = SocBuilder::new(4)
            .scan_fault(ScanFault::BoundaryStuck { device: 0, cell: 0, level: false })
            .chain_policy(ChainPolicy::Degrade { min_coverage: 0.0 })
            .build()
            .unwrap();
        let err = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::Once))
            .unwrap_err();
        assert!(matches!(err, CoreError::InsufficientCoverage { .. }), "{err:?}");
        // The trail still documents what the probe found.
        assert!(!soc.degradation_events().is_empty());

        // A floor above the surviving 42/48 also refuses.
        let mut soc = SocBuilder::new(8)
            .scan_fault(ScanFault::BoundaryStuck { device: 0, cell: 6, level: false })
            .chain_policy(ChainPolicy::Degrade { min_coverage: 0.9 })
            .build()
            .unwrap();
        let err = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::Once))
            .unwrap_err();
        match err {
            CoreError::InsufficientCoverage { covered, total, min_coverage } => {
                assert_eq!((covered, total), (42, 48));
                assert!((min_coverage - 0.9).abs() < 1e-12);
            }
            other => panic!("expected InsufficientCoverage, got {other:?}"),
        }
    }

    #[test]
    fn degraded_per_pattern_session_attributes_to_healthy_victims_only() {
        let mut soc = SocBuilder::new(4)
            .scan_fault(ScanFault::BoundaryStuck { device: 0, cell: 2, level: false })
            .chain_policy(ChainPolicy::Degrade { min_coverage: 0.5 })
            .build()
            .unwrap();
        let report = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::PerPattern))
            .unwrap();
        let outcome = report.degradation().unwrap();
        assert_eq!(outcome.quarantine().quarantined_wires(), vec![3]);
        // 2 halves x 3 healthy victims x 3 patterns.
        assert_eq!(report.readouts.len(), 18);
        for r in &report.readouts {
            match r.point {
                ReadoutPoint::AfterPattern { victim, .. } => {
                    assert_ne!(victim, 3, "quarantined wire must never take the victim role")
                }
                other => panic!("unexpected read-out point {other:?}"),
            }
        }
    }

    #[test]
    fn precancelled_token_aborts_with_deadline_error() {
        let mut soc = healthy(3);
        let token = CancelToken::new();
        token.cancel();
        soc.set_cancel_token(Some(token));
        let err = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::Once))
            .unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded { .. }), "{err:?}");
        // Clearing the token restores normal operation on the same SoC.
        soc.set_cancel_token(None);
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        assert!(!report.any_violation());
    }

    #[test]
    fn batched_session_is_byte_identical_to_scalar_oracle() {
        // The same defected SoC at panel widths 1 (scalar oracle), 3
        // (ragged tails) and 8 (default) must produce identical
        // reports for every observation method — detector verdicts,
        // read-out order, TCKs and pattern counts.
        for method in [
            ObservationMethod::Once,
            ObservationMethod::PerInitialValue,
            ObservationMethod::PerPattern,
        ] {
            let cfg = SessionConfig::method(method);
            let run = |width: usize| {
                let mut soc = SocBuilder::new(4)
                    .coupling_defect(2, 6.0)
                    .panel_width(width)
                    .build()
                    .unwrap();
                let report = soc.run_integrity_test(&cfg).unwrap();
                assert!(soc.pending.is_empty(), "queue must drain by session end");
                (report, soc.transients_run(), soc.patterns_applied)
            };
            let oracle = run(1);
            for width in [3, DEFAULT_PANEL_WIDTH, 64] {
                assert_eq!(run(width), oracle, "panel width {width} diverged ({method})");
            }
        }
    }

    #[test]
    fn batched_conventional_generation_matches_scalar() {
        let run = |width: usize| {
            let mut soc = SocBuilder::new(4).panel_width(width).build().unwrap();
            soc.run_conventional_generation().unwrap()
        };
        assert_eq!(run(DEFAULT_PANEL_WIDTH), run(1));
    }

    #[test]
    fn batched_session_still_honors_cancellation() {
        let mut soc = SocBuilder::new(3).build().unwrap();
        assert_eq!(soc.panel_width(), DEFAULT_PANEL_WIDTH);
        let token = CancelToken::new();
        token.cancel();
        soc.set_cancel_token(Some(token));
        let err = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::Once))
            .unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded { .. }), "{err:?}");
        soc.set_cancel_token(None);
        assert!(soc.pending.is_empty(), "a failed flush must not leave stale patterns");
        let report =
            soc.run_integrity_test(&SessionConfig::method(ObservationMethod::Once)).unwrap();
        assert!(!report.any_violation());
    }

    #[test]
    fn solver_cache_derives_sweep_points_by_low_rank_update() {
        let cache = SolverCache::new();
        let baseline = SocBuilder::new(4).build().unwrap();
        cache.seed(baseline.transient_sim());

        // A coupling-severity sweep point: derived, not refactored.
        let mut swept = SocBuilder::new(4)
            .coupling_defect(2, 6.0)
            .solver_cache(cache.clone())
            .build()
            .unwrap();
        assert!(swept.solver_is_rank_updated(), "coupling delta must hit the cache");
        assert_eq!(cache.derived_count(), 1);

        // Same severity again: served from the derived map.
        let again = SocBuilder::new(4)
            .coupling_defect(2, 6.0)
            .solver_cache(cache.clone())
            .build()
            .unwrap();
        assert!(Arc::ptr_eq(&swept.transient_sim(), &again.transient_sim()));
        assert_eq!(cache.derived_count(), 1);

        // The derived solver's verdicts match a fresh factorisation's.
        let mut fresh = SocBuilder::new(4).coupling_defect(2, 6.0).build().unwrap();
        assert!(!fresh.solver_is_rank_updated());
        let cfg = SessionConfig::method(ObservationMethod::Once);
        let a = swept.run_integrity_test(&cfg).unwrap();
        let b = fresh.run_integrity_test(&cfg).unwrap();
        assert_eq!(a, b, "low-rank-updated session verdicts must match fresh factors");
    }

    #[test]
    fn solver_cache_falls_back_to_refactorise_on_non_coupling_deltas() {
        let cache = SolverCache::new();
        let baseline = SocBuilder::new(4).build().unwrap();
        cache.seed(baseline.transient_sim());
        // A weak driver changes G: never low-rank-updatable.
        let soc = SocBuilder::new(4)
            .weak_driver_defect(1, 4.0)
            .solver_cache(cache.clone())
            .build()
            .unwrap();
        assert!(!soc.solver_is_rank_updated());
        assert_eq!(cache.derived_count(), 0);
        // An unseeded cache misses everything.
        let unseeded = SolverCache::new();
        let soc = SocBuilder::new(4)
            .coupling_defect(2, 6.0)
            .solver_cache(unseeded.clone())
            .build()
            .unwrap();
        assert!(!soc.solver_is_rank_updated());
        assert_eq!(unseeded.derived_count(), 0);
    }

    #[test]
    fn detectors_accumulate_across_readouts() {
        let mut soc = SocBuilder::new(3).coupling_defect(1, 6.0).build().unwrap();
        let report = soc
            .run_integrity_test(&SessionConfig::method(ObservationMethod::PerInitialValue))
            .unwrap();
        assert_eq!(report.readouts.len(), 2);
        let last = report.readouts.last().unwrap();
        assert!(last.nd[1], "final read-out is cumulative");
    }

    #[test]
    fn attributed_exhaustive_costs_exactly_method3() {
        // Probes after every pattern are the same read-out + resume
        // cadence as method 3, so the attributed oracle's TCK count
        // must equal the Table 6 formula to the cycle.
        for (n, m) in [(3usize, 2usize), (4, 0), (5, 7)] {
            let mut soc = SocBuilder::new(n).extra_cells(m).build().unwrap();
            let cfg = SessionConfig::method(ObservationMethod::PerPattern);
            let outcome = soc.run_attributed_exhaustive(&cfg).unwrap();
            let g = ChainGeometry::new(n, m);
            assert_eq!(
                outcome.report.tck_used,
                method_total_tcks(g, ObservationMethod::PerPattern),
                "n={n} m={m}"
            );
            assert!(outcome.detected.is_empty(), "healthy bus detects nothing");
            assert_eq!((outcome.dropped, outcome.escalations), (0, 0));
        }
    }

    #[test]
    fn adaptive_clean_session_costs_near_method1() {
        // An empty ledger on a healthy bus: each half runs in full with
        // one trailing probe and never escalates — generation plus two
        // read-outs, no resumes (each probe is its half's last action).
        let (n, m) = (4usize, 3usize);
        let mut soc = SocBuilder::new(n).extra_cells(m).build().unwrap();
        let cfg = SessionConfig::method(ObservationMethod::Once);
        let ledger = CoverageLedger::new(n);
        let outcome = soc
            .run_adaptive_session(&cfg, &ledger, [DriveLevel::Low, DriveLevel::High])
            .unwrap();
        let g = ChainGeometry::new(n, m);
        let expected =
            crate::timing::pgbsc_generation_tcks(g) + 2 * crate::timing::readout_tcks(g);
        assert_eq!(outcome.report.tck_used, expected);
        assert!(outcome.detected.is_empty());
        assert_eq!(outcome.escalations, 0);
        assert_eq!(outcome.dropped, 0);
        assert!(!outcome.report.any_violation());
    }

    #[test]
    fn adaptive_detects_what_the_oracle_detects() {
        let build = || {
            SocBuilder::new(4)
                .coupling_defect(2, 6.0)
                .open_defect(1, 3000.0)
                .build()
                .unwrap()
        };
        let cfg = SessionConfig::method(ObservationMethod::Once);
        let oracle = build().run_attributed_exhaustive(&cfg).unwrap();
        assert!(!oracle.detected.is_empty(), "defects must be seen by the oracle");
        let ledger = CoverageLedger::new(4);
        let adaptive = build()
            .run_adaptive_session(&cfg, &ledger, [DriveLevel::Low, DriveLevel::High])
            .unwrap();
        assert_eq!(adaptive.detected, oracle.detected);
        assert!(adaptive.escalations > 0, "failing halves must escalate");
        // With defects this dense on a 4-wire bus the escalating
        // re-runs cost more than per-pattern probing — the adaptive
        // win is on clean/sparse trials (see the clean-session test and
        // BENCH_adaptive.json), not here; this test locks *equality*.
    }

    #[test]
    fn adaptive_drops_covered_pairs_and_skips_covered_halves() {
        let cfg = SessionConfig::method(ObservationMethod::Once);
        let oracle = SocBuilder::new(4)
            .coupling_defect(2, 6.0)
            .build()
            .unwrap()
            .run_attributed_exhaustive(&cfg)
            .unwrap();
        // Seed a ledger that already covers everything the defect can
        // show: the adaptive session then detects nothing new, drops
        // the covered suffixes, and re-excites only what's left.
        let mut ledger = CoverageLedger::new(4);
        for &(victim, fault) in &oracle.detected {
            ledger.record(victim, fault);
        }
        let mut soc = SocBuilder::new(4).coupling_defect(2, 6.0).build().unwrap();
        let adaptive = soc
            .run_adaptive_session(&cfg, &ledger, [DriveLevel::Low, DriveLevel::High])
            .unwrap();
        assert!(adaptive.detected.is_empty(), "nothing new: {:?}", adaptive.detected);
        assert!(adaptive.dropped > 0);
        // A fully-covered ledger skips both halves outright.
        let mut full = CoverageLedger::new(4);
        for victim in 0..4 {
            for fault in IntegrityFault::ALL {
                full.record(victim, fault);
            }
        }
        let mut soc = SocBuilder::new(4).coupling_defect(2, 6.0).build().unwrap();
        let skipped = soc
            .run_adaptive_session(&cfg, &full, [DriveLevel::Low, DriveLevel::High])
            .unwrap();
        assert_eq!(skipped.dropped, 2 * 3 * 4, "both halves dropped whole");
        assert_eq!(skipped.report.patterns_applied, 0);
        assert!(skipped.detected.is_empty());
        assert!(!skipped.report.any_violation(), "synthesized record is all-clear");
    }

    #[test]
    fn adaptive_half_order_does_not_change_detections() {
        let cfg = SessionConfig::method(ObservationMethod::Once);
        let ledger = CoverageLedger::new(4);
        let run = |order| {
            SocBuilder::new(4)
                .coupling_defect(2, 6.0)
                .build()
                .unwrap()
                .run_adaptive_session(&cfg, &ledger, order)
                .unwrap()
        };
        let low_first = run([DriveLevel::Low, DriveLevel::High]);
        let high_first = run([DriveLevel::High, DriveLevel::Low]);
        assert_eq!(low_first.detected, high_first.detected, "halves are independent");
    }

    #[test]
    fn adaptive_session_respects_quarantine() {
        use sint_jtag::fault::ScanFault;
        let build = || {
            SocBuilder::new(4)
                .coupling_defect(2, 6.0)
                .scan_fault(ScanFault::BoundaryStuck { device: 0, cell: 2, level: false })
                .chain_policy(ChainPolicy::Degrade { min_coverage: 0.5 })
                .build()
                .unwrap()
        };
        let cfg = SessionConfig::method(ObservationMethod::Once);
        let oracle = build().run_attributed_exhaustive(&cfg).unwrap();
        let adaptive = build()
            .run_adaptive_session(&cfg, &CoverageLedger::new(4), [DriveLevel::Low, DriveLevel::High])
            .unwrap();
        assert_eq!(adaptive.detected, oracle.detected);
        let degraded = adaptive.report.degradation().expect("session ran degraded");
        let quarantined = degraded.quarantine();
        assert_eq!(quarantined.quarantined_wires(), vec![3]);
        for &(victim, _) in &adaptive.detected {
            assert!(!quarantined.is_quarantined(victim), "quarantined victim excited");
        }
    }

    #[test]
    fn plan_method_uses_chain_geometry() {
        let soc = SocBuilder::new(8).extra_cells(10).build().unwrap();
        let sparse = crate::cost::MethodPlanner::new(0.01).unwrap();
        assert_eq!(soc.plan_method(&sparse), ObservationMethod::Once);
        let dense = crate::cost::MethodPlanner::new(1.0).unwrap();
        assert_eq!(soc.plan_method(&dense), ObservationMethod::PerPattern);
    }
}
