//! Layer probes: the traced run's calls into each layer's public
//! functions on a workload's own devices under test.
//!
//! The program has no spans of its own yet, so layer costs are measured
//! from outside: for each probe device the benchmark builds the SoC,
//! runs a session and the chain self-check, then replays the layers the
//! session used on the same bus and chain geometry — factorisation,
//! transient solves, ND/SD observation, MA planning and JTAG shifting —
//! each inside its own span.

use crate::metrics::Values;
use crate::run::err;
use crate::trace::{totals_by_name, Span, Tracer};
use sint_core::mafm::{pgbsc_sequence, CoverageLedger, IntegrityFault};
use sint_core::nd::{NdThresholds, NoiseDetector};
use sint_core::sd::{SdWindow, SkewDetector};
use sint_core::session::{ObservationMethod, SessionConfig};
use sint_core::soc::{Soc, SocBuilder};
use sint_core::timing::{method_total_tcks, ChainGeometry};
use sint_interconnect::drive::{DriveLevel, Stimulus, VectorPair};
use sint_interconnect::params::Bus;
use sint_interconnect::solver::{BusWaveforms, TransientSim, WavePanel};
use sint_logic::BitVector;
use std::collections::HashSet;

/// Victims whose MA patterns the solve probe replays per device.
const PROBE_VICTIMS: usize = 4;
/// Patterns one batched solve advances together (the SoC default).
const PANEL: usize = 8;
/// Scan/shift/update rounds the JTAG probe times per device.
const SHIFT_ROUNDS: usize = 8;

/// One device the probe drives.
#[derive(Debug, Clone)]
pub struct Dut {
    /// How to build it (bus, defect, variation).
    pub builder: SocBuilder,
    /// The session it runs.
    pub config: SessionConfig,
    /// Die, trial or board index, for the spans.
    pub unit: u64,
}

/// Counters gathered beside the spans.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Σ `Soc::transients_run` over sessions that ran inside a
    /// `core.session.*` span.
    pub spanned_transients: u64,
    /// Σ `Soc::transients_run` over the workload's reference set.
    pub solves: u64,
    /// Σ `Soc::tck` (self-check included) over the same set.
    pub jtag_tck: u64,
    /// Lanes (one pattern each) the solve probe advanced.
    pub solve_lanes: u64,
    /// Waveforms the ND/SD probe observed.
    pub waves: u64,
    /// Session schedules the planning probe built.
    pub plans: u64,
    /// TCKs the shift probe clocked.
    pub shift_tck: u64,
    /// Probe sessions whose TCK missed the closed form.
    pub tck_mismatches: Vec<String>,
}

/// The span name of a session by observation method.
#[must_use]
pub fn session_span(method: ObservationMethod) -> &'static str {
    match method {
        ObservationMethod::Once => "core.session.m1",
        ObservationMethod::PerInitialValue => "core.session.m2",
        ObservationMethod::PerPattern => "core.session.m3",
    }
}

/// Table 6's closed-form session TCK for an `n`-wire chain with no
/// bystander cells.
#[must_use]
pub fn expected_tck(wires: usize, method: ObservationMethod) -> u64 {
    method_total_tcks(ChainGeometry::new(wires, 0), method)
}

/// Drives every probe device through every layer. The probe's sessions
/// count towards `solves` and `jtag_tck`.
///
/// # Errors
///
/// The first build, self-check, session or solver error.
pub fn run(tracer: &Tracer, duts: &[Dut], counts: &mut LayerCounts) -> Result<(), String> {
    for dut in duts {
        probe_one(tracer, dut, counts).map_err(|e| format!("probe unit {}: {e}", dut.unit))?;
    }
    Ok(())
}

fn probe_one(tracer: &Tracer, dut: &Dut, counts: &mut LayerCounts) -> Result<(), String> {
    let unit = dut.unit;
    let cfg = dut.config;
    let mut soc: Soc = tracer
        .span("core.build", None, unit, |_| dut.builder.clone().build())
        .map_err(err)?;
    let report = tracer
        .span(session_span(cfg.method), None, unit, |_| {
            soc.run_integrity_test(&cfg)
        })
        .map_err(err)?;
    let n = soc.wires();
    if report.tck_used != expected_tck(n, cfg.method) {
        counts.tck_mismatches.push(format!(
            "unit {unit}: {} TCK, closed form {}",
            report.tck_used,
            expected_tck(n, cfg.method)
        ));
    }
    let transients = soc.transients_run() as u64;
    counts.spanned_transients += transients;
    counts.solves += transients;
    counts.jtag_tck += soc.tck();
    // The session ran its own self-check; this one is timed on its own,
    // after the TCK count above so it is not counted twice.
    tracer
        .span("jtag.selfcheck", None, unit, |_| soc.check_infrastructure())
        .map_err(err)?;

    let bus = soc.bus().clone();
    let sim = tracer
        .span("interconnect.factorise", None, unit, |_| {
            TransientSim::new(&bus, cfg.dt)
        })
        .map_err(err)?;
    let pairs = probe_pairs(n)?;
    solve_and_observe(tracer, &sim, &bus, &pairs, cfg, unit, counts)?;

    let mut ledger = CoverageLedger::new(n);
    for victim in 0..n {
        for fault in IntegrityFault::ALL {
            ledger.record(victim, fault);
        }
    }
    let victims: Vec<usize> = (0..n).collect();
    tracer.span("core.mafm.plan", None, unit, |_| -> Result<(), String> {
        for initial in [DriveLevel::Low, DriveLevel::High] {
            for &victim in &victims {
                std::hint::black_box(pgbsc_sequence(n, victim, initial).map_err(err)?);
            }
            let faults = IntegrityFault::covered_by_initial(initial);
            std::hint::black_box(ledger.last_uncovered(&victims, &faults));
        }
        Ok(())
    })?;
    counts.plans += 1;

    let chain_len = soc.chain_len();
    let driver = soc.driver_mut();
    driver.load_instruction("SAMPLE/PRELOAD").map_err(err)?;
    let word = BitVector::zeros(chain_len);
    let bit = BitVector::zeros(1);
    let before = driver.tck();
    tracer.span("jtag.shift", None, unit, |_| -> Result<(), String> {
        for _ in 0..SHIFT_ROUNDS {
            std::hint::black_box(driver.scan_dr(&word).map_err(err)?);
            std::hint::black_box(driver.shift_dr_bits(&bit).map_err(err)?);
            driver.pulse_update_dr(1).map_err(err)?;
        }
        Ok(())
    })?;
    counts.shift_tck += driver.tck() - before;
    Ok(())
}

/// The first victims' MA transitions from both initial values.
fn probe_pairs(n: usize) -> Result<Vec<VectorPair>, String> {
    let mut pairs = Vec::new();
    for initial in [DriveLevel::Low, DriveLevel::High] {
        for victim in 0..n.min(PROBE_VICTIMS) {
            pairs.extend(
                pgbsc_sequence(n, victim, initial)
                    .map_err(err)?
                    .into_iter()
                    .map(|p| p.pair),
            );
        }
    }
    Ok(pairs)
}

/// Solves `pairs` the way the session does — one scalar transient per
/// pattern under method 3 (every read-out breaks the panel), batched
/// panels otherwise — and feeds every received waveform to fresh ND and
/// SD detectors.
fn solve_and_observe(
    tracer: &Tracer,
    sim: &TransientSim,
    bus: &Bus,
    pairs: &[VectorPair],
    cfg: SessionConfig,
    unit: u64,
    counts: &mut LayerCounts,
) -> Result<(), String> {
    let vdd = bus.vdd();
    let mut nd = NoiseDetector::new(NdThresholds::for_vdd(vdd));
    let window = 2.0 * bus.elmore_estimate() + bus.rise_time();
    let mut sd = SkewDetector::new(SdWindow::for_vdd(window, vdd));
    let width = if cfg.method == ObservationMethod::PerPattern {
        1
    } else {
        PANEL
    };
    for chunk in pairs.chunks(width) {
        let stimuli: Vec<Stimulus> = chunk
            .iter()
            .map(|p| Stimulus::from_pair(bus, p, sim.switch_at()))
            .collect::<Result<_, _>>()
            .map_err(err)?;
        let solved = tracer.span("interconnect.solve", None, unit, |_| {
            if width == 1 {
                sim.run_pair(&chunk[0], cfg.settle_time).map(Solved::Scalar)
            } else {
                sim.run_panel(&stimuli, cfg.settle_time).map(Solved::Panel)
            }
        });
        let solved = solved.map_err(err)?;
        counts.solve_lanes += chunk.len() as u64;
        tracer.span("core.observe", None, unit, |_| {
            for (lane, pair) in chunk.iter().enumerate() {
                for wire in 0..bus.wires() {
                    let wave = solved.wave(lane, wire);
                    nd.clear();
                    sd.clear();
                    std::hint::black_box(nd.observe(wave, sim.dt(), vdd));
                    std::hint::black_box(sd.observe(
                        wave,
                        sim.dt(),
                        vdd,
                        pair.after(wire),
                        sim.switch_at(),
                    ));
                }
            }
        });
        counts.waves += (chunk.len() * bus.wires()) as u64;
    }
    Ok(())
}

/// A solve's result: one scalar transient or a batched panel.
enum Solved {
    Scalar(BusWaveforms),
    Panel(WavePanel),
}

impl Solved {
    fn wave(&self, lane: usize, wire: usize) -> &[f64] {
        match self {
            Solved::Scalar(w) => w.wire(wire),
            Solved::Panel(p) => p.wire(lane, wire),
        }
    }
}

/// Share of the MA schedule's solves whose `(Bus::fingerprint, vector
/// pair)` key an earlier solve already had, over the full (undropped)
/// schedule of every session in order. Each session is given as its
/// bus fingerprint and width.
#[must_use]
pub fn repeat_share(sessions: impl IntoIterator<Item = (u64, usize)>) -> f64 {
    let mut seen: HashSet<(u64, VectorPair)> = HashSet::new();
    let (mut total, mut repeats) = (0u64, 0u64);
    for (fingerprint, n) in sessions {
        for initial in [DriveLevel::Low, DriveLevel::High] {
            for victim in 0..n {
                let schedule =
                    pgbsc_sequence(n, victim, initial).expect("victim within the bus width");
                for pattern in schedule {
                    total += 1;
                    if !seen.insert((fingerprint, pattern.pair)) {
                        repeats += 1;
                    }
                }
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        repeats as f64 / total as f64
    }
}

/// Fills the probe-derived per-layer metrics from the spans and counts.
pub fn layer_values(spans: &[Span], counts: &LayerCounts, values: &mut Values) {
    let totals = totals_by_name(spans);
    let per = |name: &str, per: u64, scale: f64| -> Option<f64> {
        totals
            .get(name)
            .filter(|_| per > 0)
            .map(|t| t.self_ns as f64 / per as f64 / scale)
    };
    let count = |name: &str| totals.get(name).map_or(0, |t| t.count);
    let mean = |name: &str, scale: f64| per(name, count(name), scale);

    values.set(
        "interconnect.factorise.count",
        count("interconnect.factorise") as f64,
    );
    set(
        values,
        "interconnect.factorise.us",
        mean("interconnect.factorise", 1e3),
    );
    values.set("interconnect.solve.count", counts.solves as f64);
    let solve_us = per("interconnect.solve", counts.solve_lanes, 1e3);
    set(values, "interconnect.solve.us", solve_us);
    let session_ns: u64 = ["core.session.m1", "core.session.m2", "core.session.m3"]
        .iter()
        .filter_map(|n| totals.get(n).map(|t| t.self_ns))
        .sum();
    if let (Some(us), true) = (solve_us, session_ns > 0) {
        values.set(
            "interconnect.solve.share",
            counts.spanned_transients as f64 * us * 1e3 / session_ns as f64,
        );
    }
    values.set("jtag.tck", counts.jtag_tck as f64);
    set(
        values,
        "jtag.shift.ns_per_tck",
        per("jtag.shift", counts.shift_tck, 1.0),
    );
    set(values, "jtag.selfcheck.us", mean("jtag.selfcheck", 1e3));
    set(values, "core.build.us", mean("core.build", 1e3));
    for (metric, span) in [
        ("core.session.ms.m1", "core.session.m1"),
        ("core.session.ms.m2", "core.session.m2"),
        ("core.session.ms.m3", "core.session.m3"),
    ] {
        set(values, metric, mean(span, 1e6));
    }
    set(
        values,
        "core.observe.ns_per_wave",
        per("core.observe", counts.waves, 1.0),
    );
    set(
        values,
        "core.mafm.plan.us",
        per("core.mafm.plan", counts.plans, 1e3),
    );
}

fn set(values: &mut Values, name: &'static str, value: Option<f64>) {
    match value {
        Some(v) => values.set(name, v),
        None => values.not_applicable(name, "no spans recorded"),
    }
}
