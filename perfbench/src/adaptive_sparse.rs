//! `adaptive_sparse`: `Campaign::run_adaptive` over a 32-wire sparse
//! severity sweep at `nproc` threads.
//!
//! Most of the [`TRIALS`] trials are healthy controls; two seeded wires
//! are re-excited at rising coupling severity, the shape of the
//! `bench_adaptive` bin with the seed choosing the wires. Only here do
//! the coverage ledger, read-out escalation and round barriers do real
//! work, and the controls share one bus, so most solves repeat a
//! (bus, vector-pair) key already solved.

use crate::probe::{self, Dut, LayerCounts};
use crate::run::{absent, measure_setup, run_passes, write_trace, Outcome, RunConfig};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use sint_core::adaptive::AdaptiveRun;
use sint_core::campaign::{Campaign, Trial, TrialOutcome};
use sint_core::session::{ObservationMethod, SessionConfig};
use sint_core::soc::SocBuilder;
use sint_interconnect::params::BusParams;
use sint_interconnect::Defect;
use sint_runtime::json::ToJson;
use sint_runtime::rng::Rng64;
use std::time::Instant;

/// Bus width of every trial.
pub const WIRES: usize = 32;
/// Trials per campaign pass.
pub const TRIALS: usize = 48;
/// Lumped segments per wire (the coarse grid `bench_adaptive` uses).
const SEGMENTS: usize = 2;
/// Solver timestep, seconds.
const DT: f64 = 10e-12;
/// RNG substream that picks the defective wires.
const WIRE_STREAM: u64 = 0xAD_A9;

/// Interior wires the seed picks the first defective wire from. The
/// escalation's localization cost grows with the victim's position, so
/// a narrow band keeps the work per pass nearly the same on every seed.
const SEEDED_BAND: std::ops::Range<usize> = 2..6;

/// The two wires the sweep re-excites: one chosen by the seed from
/// [`SEEDED_BAND`], and the bus's last wire. The ledger can only drop a
/// schedule's suffix, so covering the last victim is what lets dropping
/// work on every seed.
#[must_use]
pub fn defect_wires(seed: u64) -> [usize; 2] {
    let mut rng = Rng64::new(seed).fork(WIRE_STREAM);
    [
        SEEDED_BAND.start + rng.gen_index(SEEDED_BAND.len()),
        WIRES - 1,
    ]
}

/// The sweep: every eighth trial, offset 1, boosts wire `a`, offset 5
/// boosts wire `b`, severity rising by one per round of eight; the rest
/// are controls.
#[must_use]
pub fn trials(seed: u64) -> Vec<Trial> {
    let [a, b] = defect_wires(seed);
    (0..TRIALS)
        .map(|i| {
            let factor = 5.0 + (i / 8) as f64;
            match i % 8 {
                1 => Trial::defective(Defect::CouplingBoost { wire: a, factor }),
                5 => Trial::defective(Defect::CouplingBoost { wire: b, factor }),
                _ => Trial::control(),
            }
        })
        .collect()
}

fn bus_params() -> BusParams {
    BusParams::dsm_bus(WIRES).segments(SEGMENTS)
}

fn session(method: ObservationMethod) -> SessionConfig {
    SessionConfig {
        dt: DT,
        ..SessionConfig::method(method)
    }
}

/// The campaign every pass runs.
#[must_use]
pub fn campaign() -> Campaign {
    Campaign::new(WIRES)
        .bus_params(bus_params())
        .session(session(ObservationMethod::Once))
}

/// Trials of `run` that produced no verdict.
fn unfinished(run: &AdaptiveRun) -> u64 {
    run.outcomes
        .iter()
        .filter(|o| matches!(o, TrialOutcome::Failed | TrialOutcome::Shed))
        .count() as u64
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let ((batch, campaign), setup_s) = measure_setup(|| {
        let batch = trials(cfg.seed);
        let campaign = campaign();
        // Warm-up: one control session, untimed.
        std::hint::black_box(campaign.run_trial(Trial::control()).ok());
        (batch, campaign)
    });
    out.values.set("setup_s", setup_s);

    // The oracle: the exhaustive attributed sweep, outside set-up and
    // outside the timed passes.
    let t0 = Instant::now();
    let oracle = campaign.run_attributed(&batch, cfg.threads);
    out.notes.push(format!(
        "oracle (run_attributed): {:.2} s, {} detected pairs, {} TCK",
        t0.elapsed().as_secs_f64(),
        oracle.detected.len(),
        oracle.total_tck
    ));

    let tracer = Tracer::new(cfg.trace);
    let (mut runs, mut traced_runs) = (Vec::new(), Vec::new());
    let (walls, traced_walls) = run_passes(cfg, &mut out.values, |i, on| {
        if on {
            traced_runs.push(
                tracer.span("core.campaign.run_adaptive", None, i as u64, |_| {
                    campaign.run_adaptive(&batch, cfg.threads)
                }),
            );
        } else {
            runs.push(campaign.run_adaptive(&batch, cfg.threads));
        }
    });
    let first = runs[0].clone();
    let reference = first.to_json().render();
    check_runs(
        &mut out,
        &runs,
        &oracle,
        &reference,
        "every pass detects exactly the run_attributed oracle's set and repeats the first",
    );

    let v = &mut out.values;
    let rates: Vec<f64> = walls.iter().map(|w| TRIALS as f64 / w).collect();
    v.set_stat("trials_per_s", median(&rates), rates.len());
    v.set("sim_tck", first.total_tck as f64);
    v.set("detection_rate", first.stats.detection_rate());
    v.set("false_alarm_rate", first.stats.false_alarm_rate());
    for name in ["session_p50_ms", "session_p95_ms"] {
        v.not_applicable(name, "run_adaptive exposes no per-session latency");
    }
    out.notes.push(format!(
        "passes: {} × {TRIALS} trials at {} threads; wires {:?}; dropped {}, escalations {}",
        runs.len(),
        cfg.threads,
        defect_wires(cfg.seed),
        first.dropped,
        first.escalations
    ));

    if cfg.trace {
        // One serial pass: Σ busy time of the trials, and the 1-thread
        // half of the thread-count invariance check.
        let t0 = Instant::now();
        traced_runs.push(campaign.run_adaptive(&batch, 1));
        let serial = t0.elapsed().as_secs_f64();
        check_runs(
            &mut out,
            &traced_runs,
            &oracle,
            &reference,
            "traced and 1-thread passes repeat the untraced result",
        );
        let idle = 1.0 - serial / (cfg.threads as f64 * median(&walls));
        out.values
            .set_stat("runtime.pool.idle_share", idle, walls.len());
        out.values
            .set("trace.overhead", median(&traced_walls) / median(&walls));
        out.notes.push(format!("serial pass {serial:.2} s"));
        layers(cfg, &mut out, &tracer, &campaign, &batch, &first);
    }
    out.set_failed_share();
    out
}

/// Gates a set of passes against the oracle and the first pass, and
/// counts their trials.
fn check_runs(
    out: &mut Outcome,
    runs: &[AdaptiveRun],
    oracle: &AdaptiveRun,
    reference: &str,
    gate: &'static str,
) {
    out.attempted += (runs.len() * TRIALS) as u64;
    let mut mismatched = 0;
    for run in runs {
        if run.detected != oracle.detected || run.to_json().render() != reference {
            mismatched += 1;
            out.failed += TRIALS as u64;
        } else {
            out.failed += unfinished(run);
        }
    }
    out.gate(
        gate,
        mismatched == 0,
        format!("{mismatched} of {} passes differ", runs.len()),
    );
}

/// The traced run's per-layer metrics: a serial trial replay, the layer
/// probe, and the counters of the first pass.
fn layers(
    cfg: &RunConfig,
    out: &mut Outcome,
    tracer: &Tracer,
    campaign: &Campaign,
    batch: &[Trial],
    first: &AdaptiveRun,
) {
    // Serial replay of every trial through the plain campaign path.
    let mut trial_ms = Vec::new();
    for (i, trial) in batch.iter().enumerate() {
        let t0 = Instant::now();
        let ok = tracer.span("core.campaign.trial", None, i as u64, |_| {
            campaign.run_trial(*trial)
        });
        trial_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = ok {
            out.gate("campaign trial replay runs", false, e.to_string());
        }
    }

    let [a, b] = defect_wires(cfg.seed);
    let dut = |unit: u64, defect: Option<Defect>, method| {
        let builder = SocBuilder::new(WIRES).bus_params(bus_params());
        Dut {
            builder: match defect {
                Some(d) => builder.defect(d),
                None => builder,
            },
            config: session(method),
            unit,
        }
    };
    let boost = |wire| Some(Defect::CouplingBoost { wire, factor: 5.0 });
    let duts = [
        dut(0, None, ObservationMethod::Once),
        dut(1, boost(a), ObservationMethod::Once),
        dut(5, boost(b), ObservationMethod::Once),
        dut(0, None, ObservationMethod::PerInitialValue),
        dut(0, None, ObservationMethod::PerPattern),
    ];
    let mut counts = LayerCounts::default();
    if let Err(e) = probe::run(tracer, &duts, &mut counts) {
        out.gate("layer probe runs", false, e);
    }
    out.gate(
        "probe sessions match Table 6 TCK",
        counts.tck_mismatches.is_empty(),
        counts.tck_mismatches.join("; "),
    );
    let spans = tracer.spans();
    let v = &mut out.values;
    probe::layer_values(&spans, &counts, v);
    let buses: Vec<(u64, usize)> = batch
        .iter()
        .map(|t| {
            let mut bus = bus_params()
                .build()
                .expect("the sweep's bus parameters are valid");
            if let Some(d) = t.defect {
                d.apply(&mut bus).expect("the sweep's defects fit the bus");
            }
            (bus.fingerprint(), WIRES)
        })
        .collect();
    v.set(
        "interconnect.solve.repeat_share",
        probe::repeat_share(buses),
    );
    v.set("core.adaptive.dropped", first.dropped as f64);
    v.set("core.adaptive.escalations", first.escalations as f64);
    // Applied + dropped = the full schedule, 6n patterns per trial.
    v.set(
        "core.adaptive.drop_share",
        first.dropped as f64 / (TRIALS * 6 * WIRES) as f64,
    );
    v.set_opt(
        "core.campaign.trial_ms.p50",
        percentile(&trial_ms, 0.5),
        trial_ms.len(),
    );
    v.set_opt(
        "core.campaign.trial_ms.p95",
        percentile(&trial_ms, 0.95),
        trial_ms.len(),
    );
    absent(v, "fleet.", "no fleet in this workload");
    out.notes.push(format!("spans: {}", spans.len()));
    write_trace(tracer, cfg, "adaptive_sparse", out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_generates_the_same_sweep() {
        assert_eq!(trials(3), trials(3));
        assert_eq!(defect_wires(3), defect_wires(3));
        for seed in 0..64 {
            let [a, b] = defect_wires(seed);
            assert!(
                SEEDED_BAND.contains(&a) && b == WIRES - 1,
                "seed {seed}: wires {a}, {b}"
            );
        }
        assert!(
            (0..16).any(|s| defect_wires(s) != defect_wires(0)),
            "the seed picks the wires"
        );
    }

    #[test]
    fn the_sweep_is_sparse() {
        let batch = trials(9);
        let defective = batch.iter().filter(|t| t.defect.is_some()).count();
        assert_eq!(defective, TRIALS / 4);
    }
}
