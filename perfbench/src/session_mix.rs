//! `session_mix`: a closed loop with one caller testing one freshly
//! built die at a time.
//!
//! Every pass tests [`PASS_DIES`] dies: each (width, method) cell of
//! {8, 16} wires × methods {1, 2, 3} four times, half of them with a
//! seeded coupling defect, in a seeded order. Every die carries its own
//! within-die variation seed, so no two dies of a run share a bus and
//! caches keyed on the bus never hit.

use crate::metrics::Values;
use crate::probe::{self, expected_tck, session_span, Dut, LayerCounts};
use crate::run::{absent, measure_setup, run_passes, write_trace, Outcome, RunConfig};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use sint_core::session::{ObservationMethod, SessionConfig};
use sint_core::soc::SocBuilder;
use sint_interconnect::params::BusParams;
use sint_interconnect::variation::VariationSigma;
use sint_interconnect::Defect;
use sint_runtime::rng::Rng64;
use std::time::Instant;

/// Bus widths in the mix (32-wire method-3 sessions cost ~0.5 s each
/// and would swamp the loop).
pub const WIDTHS: [usize; 2] = [8, 16];
/// Observation methods in the mix.
pub const METHODS: [ObservationMethod; 3] = [
    ObservationMethod::Once,
    ObservationMethod::PerInitialValue,
    ObservationMethod::PerPattern,
];
/// Dies per (width, method) cell per pass; odd positions carry a defect.
const PER_CELL: usize = 4;
/// Dies per pass.
pub const PASS_DIES: usize = WIDTHS.len() * METHODS.len() * PER_CELL;
/// Lumped segments per wire and solver timestep: the coarse grid every
/// workload uses.
const SEGMENTS: usize = 2;
const DT: f64 = 10e-12;
/// Pass index of the set-up warm-up dies, apart from every timed pass.
const WARMUP_PASS: u64 = u64::MAX;

/// One die of the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Die {
    /// Bus width.
    pub width: usize,
    /// Observation method of its session.
    pub method: ObservationMethod,
    /// Within-die variation seed.
    pub variation_seed: u64,
    /// The seeded defect, on half the dies.
    pub defect: Option<Defect>,
}

impl Die {
    fn builder(&self) -> SocBuilder {
        let builder = SocBuilder::new(self.width)
            .bus_params(BusParams::dsm_bus(self.width).segments(SEGMENTS))
            .with_variation(VariationSigma::typical(), self.variation_seed);
        match self.defect {
            Some(d) => builder.defect(d),
            None => builder,
        }
    }

    fn session(&self) -> SessionConfig {
        SessionConfig {
            dt: DT,
            ..SessionConfig::method(self.method)
        }
    }
}

/// The dies of timed pass `pass` under workload seed `seed`.
#[must_use]
pub fn pass_dies(seed: u64, pass: u64) -> Vec<Die> {
    let mut rng = Rng64::new(seed).fork(pass);
    let mut dies = Vec::with_capacity(PASS_DIES);
    for &width in &WIDTHS {
        for &method in &METHODS {
            for k in 0..PER_CELL {
                let variation_seed = rng.gen_u64();
                let defect = (k % 2 == 1).then(|| Defect::CouplingBoost {
                    wire: rng.gen_index(width),
                    factor: 3.0 + 5.0 * rng.gen_f64(),
                });
                dies.push(Die {
                    width,
                    method,
                    variation_seed,
                    defect,
                });
            }
        }
    }
    for i in (1..dies.len()).rev() {
        let j = rng.gen_index(i + 1);
        dies.swap(i, j);
    }
    dies
}

/// What one pass measured.
#[derive(Debug, Default, Clone)]
struct Pass {
    latencies: Vec<f64>,
    sim_tck: u64,
    jtag_tck: u64,
    solves: u64,
    fingerprints: Vec<(u64, usize)>,
    defect: u64,
    detected: u64,
    control: u64,
    false_alarms: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Pass {
    /// The simulated counters that must repeat exactly on every pass.
    fn counters(&self) -> (u64, u64, u64) {
        (self.sim_tck, self.jtag_tck, self.solves)
    }
}

fn run_pass(dies: &[Die], tracer: &Tracer, first_unit: u64) -> Pass {
    let mut pass = Pass::default();
    for (i, die) in dies.iter().enumerate() {
        let unit = first_unit + i as u64;
        let t0 = Instant::now();
        let result = tracer.span("session_mix.die", None, unit, |parent| {
            let mut soc = tracer.span("core.build", parent, unit, |_| die.builder().build())?;
            let cfg = die.session();
            let report = tracer.span(session_span(die.method), parent, unit, |_| {
                soc.run_integrity_test(&cfg)
            })?;
            Ok::<_, sint_core::CoreError>((soc, report))
        });
        pass.latencies.push(t0.elapsed().as_secs_f64());
        let (soc, report) = match result {
            Ok(done) => done,
            Err(e) => {
                pass.failed += 1;
                pass.errors.push(format!("die {unit}: {e}"));
                continue;
            }
        };
        let expected = expected_tck(die.width, die.method);
        if report.tck_used != expected {
            pass.failed += 1;
            pass.errors.push(format!(
                "die {unit}: session used {} TCK, Table 6 closed form {expected}",
                report.tck_used
            ));
        }
        pass.sim_tck += report.tck_used;
        pass.jtag_tck += soc.tck();
        pass.solves += soc.transients_run() as u64;
        pass.fingerprints.push((soc.bus().fingerprint(), die.width));
        match die.defect {
            Some(d) => {
                pass.defect += 1;
                pass.detected += u64::from(report.wire(d.focus_wire()).any());
            }
            None => {
                pass.control += 1;
                pass.false_alarms += u64::from(report.any_violation());
            }
        }
    }
    pass
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let off = Tracer::new(false);
    let (first, setup_s) = measure_setup(|| {
        let dies = pass_dies(cfg.seed, 0);
        // Warm-up: one die of every (width, method) cell, untimed.
        let warm = pass_dies(cfg.seed, WARMUP_PASS);
        let cells: Vec<Die> = WIDTHS
            .iter()
            .flat_map(|&w| METHODS.iter().map(move |&m| (w, m)))
            .filter_map(|(w, m)| warm.iter().find(|d| d.width == w && d.method == m).cloned())
            .collect();
        std::hint::black_box(run_pass(&cells, &off, 0));
        dies
    });
    out.values.set("setup_s", setup_s);

    let tracer = Tracer::new(cfg.trace);
    let (mut passes, mut traced) = (Vec::new(), Vec::new());
    let (walls, traced_walls) = run_passes(cfg, &mut out.values, |i, on| {
        let dies = if i == 0 {
            first.clone()
        } else {
            pass_dies(cfg.seed, i as u64)
        };
        let unit = (i * PASS_DIES) as u64;
        if on {
            traced.push(run_pass(&dies, &tracer, unit));
        } else {
            passes.push(run_pass(&dies, &off, unit));
        }
    });
    fold_passes(&mut out, &passes, &walls);

    if cfg.trace {
        out.attempted += (traced.len() * PASS_DIES) as u64;
        out.failed += traced.iter().map(|p| p.failed).sum::<u64>();
        let bad: Vec<String> = traced
            .iter()
            .filter(|p| !p.errors.is_empty() || p.counters() != passes[0].counters())
            .map(|p| format!("{:?} {}", p.counters(), p.errors.join("; ")))
            .collect();
        out.gate(
            "traced passes run clean and repeat the untraced counters",
            bad.is_empty(),
            bad.join(" | "),
        );
        let mut counts = LayerCounts {
            spanned_transients: traced.iter().map(|p| p.solves).sum(),
            ..LayerCounts::default()
        };
        // Probe one die of every cell of the first pass.
        let duts: Vec<Dut> = first
            .iter()
            .enumerate()
            .filter(|(i, d)| {
                first[..*i]
                    .iter()
                    .all(|e| (e.width, e.method) != (d.width, d.method))
            })
            .map(|(i, d)| Dut {
                builder: d.builder(),
                config: d.session(),
                unit: i as u64,
            })
            .collect();
        if let Err(e) = probe::run(&tracer, &duts, &mut counts) {
            out.gate("layer probe runs", false, e);
        }
        out.gate(
            "probe sessions match Table 6 TCK",
            counts.tck_mismatches.is_empty(),
            counts.tck_mismatches.join("; "),
        );
        counts.solves = passes[0].solves;
        counts.jtag_tck = passes[0].jtag_tck;
        let spans = tracer.spans();
        probe::layer_values(&spans, &counts, &mut out.values);
        layer_extras(&mut out.values, &passes, &walls, &traced_walls);
        out.notes.push(format!(
            "traced passes: {} ({} dies); spans: {}",
            traced.len(),
            traced.len() * PASS_DIES,
            spans.len()
        ));
        write_trace(&tracer, cfg, "session_mix", &mut out);
    }
    out.set_failed_share();
    out
}

fn fold_passes(out: &mut Outcome, passes: &[Pass], walls: &[f64]) {
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies.iter().copied())
        .collect();
    let ms: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
    let rates: Vec<f64> = walls.iter().map(|w| PASS_DIES as f64 / w).collect();
    let v = &mut out.values;
    v.set_stat("trials_per_s", median(&rates), rates.len());
    v.set_opt("session_p50_ms", percentile(&ms, 0.5), ms.len());
    v.set_opt("session_p95_ms", percentile(&ms, 0.95), ms.len());
    v.set("sim_tck", passes[0].sim_tck as f64);
    let sum = |f: fn(&Pass) -> u64| passes.iter().map(f).sum::<u64>();
    let (defect, detected) = (sum(|p| p.defect), sum(|p| p.detected));
    let (control, alarms) = (sum(|p| p.control), sum(|p| p.false_alarms));
    v.set_stat(
        "detection_rate",
        detected as f64 / defect.max(1) as f64,
        defect as usize,
    );
    v.set_stat(
        "false_alarm_rate",
        alarms as f64 / control.max(1) as f64,
        control as usize,
    );
    out.attempted += (passes.len() * PASS_DIES) as u64;
    out.failed += sum(|p| p.failed);
    let errors: Vec<String> = passes
        .iter()
        .flat_map(|p| p.errors.iter().cloned())
        .collect();
    out.gate(
        "every session ran and used Table 6's closed-form TCK",
        errors.is_empty(),
        if errors.is_empty() {
            format!("{} sessions", latencies.len())
        } else {
            errors.join("; ")
        },
    );
    let same = passes.iter().all(|p| p.counters() == passes[0].counters());
    out.gate(
        "simulated counters repeat on every pass",
        same,
        format!(
            "(sim_tck, jtag_tck, solves) = {:?} over {} passes",
            passes[0].counters(),
            passes.len()
        ),
    );
    out.notes.push(format!(
        "passes: {} × {PASS_DIES} dies; single caller (closed loop)",
        passes.len()
    ));
}

/// Per-layer metrics that come from the timed passes rather than the
/// probe: reuse potential, adaptive counters (none here), pool idle and
/// tracing overhead.
fn layer_extras(v: &mut Values, passes: &[Pass], walls: &[f64], traced_walls: &[f64]) {
    v.set(
        "interconnect.solve.repeat_share",
        probe::repeat_share(passes[0].fingerprints.clone()),
    );
    v.set("core.adaptive.dropped", 0.0);
    v.set("core.adaptive.escalations", 0.0);
    v.set("core.adaptive.drop_share", 0.0);
    // One caller: the "pool" is the caller itself, idle between dies.
    let idle: Vec<f64> = passes
        .iter()
        .zip(walls)
        .map(|(p, w)| 1.0 - p.latencies.iter().sum::<f64>() / w)
        .collect();
    v.set_stat("runtime.pool.idle_share", median(&idle), idle.len());
    v.set("trace.overhead", median(traced_walls) / median(walls));
    absent(v, "core.campaign.trial_ms.", "no campaign in this workload");
    absent(v, "fleet.", "no fleet in this workload");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_generates_the_same_dies() {
        assert_eq!(pass_dies(7, 0), pass_dies(7, 0));
        assert_eq!(pass_dies(7, 3), pass_dies(7, 3));
        assert_ne!(pass_dies(7, 0), pass_dies(8, 0));
        assert_ne!(
            pass_dies(7, 0),
            pass_dies(7, 1),
            "every pass tests fresh dies"
        );
    }

    #[test]
    fn every_pass_has_the_fixed_mix() {
        let dies = pass_dies(11, 2);
        assert_eq!(dies.len(), PASS_DIES);
        for &w in &WIDTHS {
            for &m in &METHODS {
                let cell: Vec<&Die> = dies
                    .iter()
                    .filter(|d| d.width == w && d.method == m)
                    .collect();
                assert_eq!(cell.len(), PER_CELL);
                assert_eq!(
                    cell.iter().filter(|d| d.defect.is_some()).count(),
                    PER_CELL / 2
                );
            }
        }
    }
}
