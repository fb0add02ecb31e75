//! `fleet_floor`: a 1000-board × 3-trial floor through
//! `FleetEngine::run_checkpointed` at `nproc` threads, streaming
//! CRC-framed JSONL to a real file, storing a generation-paired
//! checkpoint per chunk and finishing with fsync — then reading both
//! back (`FleetCheckpoint::load_pair`, `replay_summary`).
//!
//! The only workload where pool scheduling, the supervisor, the record
//! sink, fsync and checkpointing take a measurable share of the time.

use crate::probe::{self, Dut, LayerCounts};
use crate::run::{err, measure_setup, run_passes, write_trace, Outcome, RunConfig};
use crate::stats::{median, percentile};
use crate::trace::{totals_by_name, Tracer};
use sint_core::checkpoint::CheckpointEntry;
use sint_core::session::{ObservationMethod, SessionConfig};
use sint_core::soc::SocBuilder;
use sint_fleet::{
    replay_summary, BoardSpec, BoardSummary, ClientSpec, FleetCheckpoint, FleetEngine, FleetError,
    FleetSummary, FloorSpec, JsonlSink, RecordSink,
};
use sint_interconnect::params::BusParams;
use sint_runtime::durable::GenPair;
use sint_runtime::json::ToJson;
use sint_runtime::rng::Rng64;
use std::fs::{self, File};
use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

/// Boards on the floor.
pub const BOARDS: usize = 1000;
/// Trials per board.
pub const TRIALS_EACH: usize = 3;
/// Board-trials per pass.
pub const PASS_TRIALS: usize = BOARDS * TRIALS_EACH;
/// Boards per checkpoint chunk.
const CHUNK: usize = 100;
/// Bus width of every board (the floor default).
const WIRES: usize = 3;
/// Solver grid: lumped segments per wire and timestep (coarse).
const SEGMENTS: usize = 2;
const DT: f64 = 10e-12;
/// Boards whose trials the serial campaign replay times.
const REPLAY_BOARDS: usize = 70;
/// RNG substream that derives the floor seed.
const FLOOR_STREAM: u64 = 0xF1_0085;

/// The floor for workload seed `seed`: three clients, no budgets.
#[must_use]
pub fn floor(seed: u64) -> FloorSpec {
    floor_of(seed, BOARDS)
}

fn floor_of(seed: u64, boards: usize) -> FloorSpec {
    FloorSpec::new(boards)
        .wires(WIRES)
        .trials_per_board(TRIALS_EACH)
        .solver_grid(SEGMENTS, DT)
        .seed(Rng64::new(seed).fork(FLOOR_STREAM).gen_u64())
        .with_clients(vec![
            ClientSpec::new("assembly"),
            ClientSpec::new("qualification"),
            ClientSpec::new("burst"),
        ])
}

/// Wraps the JSONL sink in a `fleet.record` span per record.
struct TracedSink<'a, S: RecordSink> {
    inner: &'a S,
    tracer: &'a Tracer,
    parent: Option<u64>,
}

impl<S: RecordSink> RecordSink for TracedSink<'_, S> {
    fn record(
        &self,
        board: &BoardSpec,
        client: &str,
        entry: &CheckpointEntry,
    ) -> Result<(), FleetError> {
        self.tracer
            .span("fleet.record", self.parent, board.id as u64, |_| {
                self.inner.record(board, client, entry)
            })
    }

    fn board_done(&self, summary: &BoardSummary) -> Result<(), FleetError> {
        self.tracer
            .span("fleet.record", self.parent, summary.board as u64, |_| {
                self.inner.board_done(summary)
            })
    }
}

/// What one pass produced.
struct FloorPass {
    summary: FleetSummary,
    rendered: String,
    records: u64,
    record_bytes: u64,
    checkpoint_bytes: u64,
    errors: Vec<String>,
}

/// One pass: run, stream, checkpoint, fsync, then read everything back.
fn run_floor(
    engine: &FleetEngine,
    threads: usize,
    dir: &Path,
    tracer: &Tracer,
    unit: u64,
) -> Result<FloorPass, String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(err)?;
    let records_path = dir.join("records.jsonl");
    let pair = GenPair::new(dir.join("floor.ckpt"));
    let sink = JsonlSink::new(BufWriter::new(File::create(&records_path).map_err(err)?));
    let mut errors = Vec::new();
    let mut checkpoint = FleetCheckpoint::new();
    let summary = tracer.span("fleet.run", None, unit, |parent| {
        let traced = TracedSink {
            inner: &sink,
            tracer,
            parent,
        };
        let target: &dyn RecordSink = if tracer.enabled() { &traced } else { &sink };
        engine.run_checkpointed(threads, &mut checkpoint, CHUNK, target, |snapshot| {
            // Write-ahead order: records reach the file before the
            // checkpoint that claims their boards.
            if let Err(e) = tracer.span("fleet.record.flush", parent, unit, |_| sink.flush()) {
                errors.push(format!("flush: {e}"));
            }
            let stored = tracer.span("fleet.checkpoint.store", parent, unit, |_| {
                snapshot.store_pair(&pair)
            });
            if let Err(e) = stored {
                errors.push(format!("checkpoint store: {e}"));
            }
        })
    });
    let (writer, records) = sink.finish().map_err(err)?;
    let file = writer.into_inner().map_err(|e| e.to_string())?;
    tracer
        .span("fleet.fsync", None, unit, |_| file.sync_all())
        .map_err(err)?;

    let (loaded, _) = tracer
        .span("fleet.checkpoint.load", None, unit, |_| {
            FleetCheckpoint::load_pair(&pair)
        })
        .map_err(err)?;
    let boards = engine.spec().boards();
    if loaded.len() != boards || loaded != checkpoint {
        errors.push(format!(
            "load_pair returned {} of {boards} boards",
            loaded.len()
        ));
    }
    let text = fs::read_to_string(&records_path).map_err(err)?;
    let replayed = tracer
        .span("fleet.replay", None, unit, |_| replay_summary(&text))
        .map_err(err)?;
    let rendered = summary.to_json().render();
    if replayed.to_json().render() != rendered {
        errors.push("replay_summary differs from the engine summary".to_string());
    }
    let (a, b) = pair.slots();
    let size = |p: &Path| fs::metadata(p).map_or(0, |m| m.len());
    let checkpoint_bytes = size(&a).max(size(&b));
    let record_bytes = text.len() as u64;
    let _ = fs::remove_dir_all(dir);
    Ok(FloorPass {
        summary,
        rendered,
        records,
        record_bytes,
        checkpoint_bytes,
        errors,
    })
}

/// Folds passes into the outcome: trials attempted and failed, and the
/// gates. A pass whose read-back or repetition check fails counts all
/// of its trials as failed.
fn check_passes(
    out: &mut Outcome,
    passes: &[Result<FloorPass, String>],
    reference: Option<&str>,
    gate: &'static str,
) {
    let mut problems = Vec::new();
    for (i, pass) in passes.iter().enumerate() {
        out.attempted += PASS_TRIALS as u64;
        match pass {
            Ok(p) if p.errors.is_empty() && reference.is_none_or(|r| r == p.rendered) => {
                let t = &p.summary.totals;
                out.failed +=
                    (t.failed_trials + t.shed_trials) as u64 + p.summary.resilience.sink_errors;
            }
            Ok(p) => {
                out.failed += PASS_TRIALS as u64;
                let mut why = p.errors.clone();
                if reference.is_some_and(|r| r != p.rendered) {
                    why.push("summary differs from the first pass".to_string());
                }
                problems.push(format!("pass {i}: {}", why.join(", ")));
            }
            Err(e) => {
                out.failed += PASS_TRIALS as u64;
                problems.push(format!("pass {i}: {e}"));
            }
        }
    }
    let detail = if problems.is_empty() {
        format!("{} passes", passes.len())
    } else {
        problems.join("; ")
    };
    out.gate(gate, problems.is_empty(), detail);
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let off = Tracer::new(false);
    let warm_dir = cfg.work_dir.join("warm");
    let (engine, setup_s) = measure_setup(|| {
        let engine = FleetEngine::new(floor(cfg.seed)).expect("the floor spec is valid");
        // Warm-up: one chunk's worth of boards, untimed.
        let warm = FleetEngine::new(floor_of(cfg.seed, CHUNK)).expect("the floor spec is valid");
        std::hint::black_box(run_floor(&warm, cfg.threads, &warm_dir, &off, 0).ok());
        engine
    });
    out.values.set("setup_s", setup_s);

    let tracer = Tracer::new(cfg.trace);
    let (mut passes, mut traced_passes) = (Vec::new(), Vec::new());
    let (walls, traced_walls) = run_passes(cfg, &mut out.values, |i, on| {
        let dir = cfg.work_dir.join(format!("pass{i}"));
        if on {
            traced_passes.push(run_floor(&engine, cfg.threads, &dir, &tracer, i as u64));
        } else {
            passes.push(run_floor(&engine, cfg.threads, &dir, &off, i as u64));
        }
    });
    let reference = passes
        .iter()
        .find_map(|p| p.as_ref().ok())
        .map(|p| p.rendered.clone());
    check_passes(
        &mut out,
        &passes,
        reference.as_deref(),
        "replay and checkpoint read back the engine summary, identical on every pass",
    );
    let Some(first) = passes.iter().find_map(|p| p.as_ref().ok()) else {
        out.set_failed_share();
        return out;
    };
    let v = &mut out.values;
    let rates: Vec<f64> = walls.iter().map(|w| PASS_TRIALS as f64 / w).collect();
    v.set_stat("trials_per_s", median(&rates), rates.len());
    v.set("detection_rate", first.summary.totals.detection_rate());
    v.set("false_alarm_rate", first.summary.totals.false_alarm_rate());
    v.not_applicable("sim_tck", "fleet summaries carry no TCK");
    for name in ["session_p50_ms", "session_p95_ms"] {
        v.not_applicable(name, "the engine exposes no per-session latency");
    }
    out.notes.push(format!(
        "passes: {} × {BOARDS} boards × {TRIALS_EACH} trials at {} threads, {CHUNK}-board chunks",
        passes.len(),
        cfg.threads
    ));

    if cfg.trace {
        // One serial pass: Σ busy time of the boards, and the 1-thread
        // half of the thread-count invariance check.
        let t0 = Instant::now();
        traced_passes.push(run_floor(&engine, 1, &cfg.work_dir.join("serial"), &off, 0));
        let serial = t0.elapsed().as_secs_f64();
        check_passes(
            &mut out,
            &traced_passes,
            reference.as_deref(),
            "traced and 1-thread passes repeat the untraced summary",
        );
        let idle = 1.0 - serial / (cfg.threads as f64 * median(&walls));
        out.values
            .set_stat("runtime.pool.idle_share", idle, walls.len());
        out.values
            .set("trace.overhead", median(&traced_walls) / median(&walls));
        out.notes.push(format!("serial pass {serial:.2} s"));
        layers(cfg, &mut out, &tracer, &engine, first);
    }
    out.set_failed_share();
    out
}

/// The traced run's per-layer metrics: a serial trial replay, the layer
/// probe, the durability spans and the first pass's counters.
fn layers(
    cfg: &RunConfig,
    out: &mut Outcome,
    tracer: &Tracer,
    engine: &FleetEngine,
    first: &FloorPass,
) {
    let spec = engine.spec();
    let campaign = spec.campaign();
    let mut trial_ms = Vec::new();
    for id in 0..REPLAY_BOARDS {
        for trial in spec.trials(&spec.board(id)) {
            let t0 = Instant::now();
            let ok = tracer.span("core.campaign.trial", None, id as u64, |_| {
                campaign.run_trial(trial)
            });
            trial_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = ok {
                out.gate("campaign trial replay runs", false, e.to_string());
            }
        }
    }

    let bus_params = || BusParams::dsm_bus(WIRES).segments(SEGMENTS);
    let session = |method| SessionConfig {
        dt: DT,
        ..SessionConfig::method(method)
    };
    let mut duts: Vec<Dut> = (0..4)
        .flat_map(|id| {
            spec.trials(&spec.board(id))
                .into_iter()
                .map(move |t| (id, t))
        })
        .map(|(id, trial)| {
            let builder = SocBuilder::new(WIRES).bus_params(bus_params());
            Dut {
                builder: match trial.defect {
                    Some(d) => builder.defect(d),
                    None => builder,
                },
                config: session(ObservationMethod::Once),
                unit: id as u64,
            }
        })
        .collect();
    for method in [
        ObservationMethod::PerInitialValue,
        ObservationMethod::PerPattern,
    ] {
        duts.push(Dut {
            config: session(method),
            ..duts[0].clone()
        });
    }
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
    let totals = totals_by_name(&spans);
    let mean_ms = |name: &str| {
        totals
            .get(name)
            .filter(|t| t.count > 0)
            .map(|t| t.self_ns as f64 / t.count as f64 / 1e6)
    };
    let v = &mut out.values;
    probe::layer_values(&spans, &counts, v);
    let buses: Vec<(u64, usize)> = (0..BOARDS)
        .flat_map(|id| spec.trials(&spec.board(id)))
        .map(|trial| {
            let mut bus = bus_params()
                .build()
                .expect("the floor's bus parameters are valid");
            if let Some(d) = trial.defect {
                d.apply(&mut bus).expect("the floor's defects fit the bus");
            }
            (bus.fingerprint(), WIRES)
        })
        .collect();
    v.set(
        "interconnect.solve.repeat_share",
        probe::repeat_share(buses),
    );
    v.set(
        "core.adaptive.dropped",
        first.summary.adaptive.dropped as f64,
    );
    v.set(
        "core.adaptive.escalations",
        first.summary.adaptive.escalation as f64,
    );
    v.set("core.adaptive.drop_share", 0.0);
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
    v.set("fleet.record.count", first.records as f64);
    v.set("fleet.record.bytes", first.record_bytes as f64);
    v.set("fleet.checkpoint.bytes", first.checkpoint_bytes as f64);
    for (metric, span) in [
        ("fleet.record.flush_ms", "fleet.record.flush"),
        ("fleet.fsync_ms", "fleet.fsync"),
        ("fleet.checkpoint.store_ms", "fleet.checkpoint.store"),
        ("fleet.checkpoint.load_ms", "fleet.checkpoint.load"),
        ("fleet.replay_ms", "fleet.replay"),
    ] {
        match mean_ms(span) {
            Some(ms) => v.set(metric, ms),
            None => v.not_applicable(metric, "no spans recorded"),
        }
    }
    match mean_ms("fleet.record") {
        Some(ms) => v.set("fleet.record.us", ms * 1e3),
        None => v.not_applicable("fleet.record.us", "no spans recorded"),
    }
    v.set(
        "fleet.resilience.retries",
        first.summary.resilience.retries as f64,
    );
    v.set(
        "fleet.resilience.sink_errors",
        first.summary.resilience.sink_errors as f64,
    );
    out.notes.push(format!("spans: {}", spans.len()));
    write_trace(tracer, cfg, "fleet_floor", out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_generates_the_same_floor() {
        let (a, b) = (floor(5), floor(5));
        assert_eq!(a, b);
        for id in [0, 1, 499, 999] {
            assert_eq!(a.board(id), b.board(id));
            assert_eq!(a.trials(&a.board(id)), b.trials(&b.board(id)));
        }
        assert_ne!(
            floor(5).board(0),
            floor(6).board(0),
            "the seed reaches the boards"
        );
    }
}
