//! Golden session snapshots: pins the exact bytes every SI session plan
//! produces — the three observation methods' reports and SVF programs,
//! the degraded session's reports, and the attributed and adaptive
//! plans' probe sequences, detections and counters.
//!
//! Each case is one line of `tests/golden/session_cases.jsonl`
//! (`{"case": .., ..}`), and each method's SVF program is its own file,
//! so a drift shows up as a per-case diff. Re-run with
//! `SINT_REGEN_GOLDEN=1` to rewrite the files after an intentional
//! change, and review the diff.

use sint::core::adaptive::AdaptiveDelta;
use sint::core::degrade::ChainPolicy;
use sint::core::mafm::{CoverageLedger, IntegrityFault};
use sint::core::session::{IntegrityReport, ObservationMethod, SessionConfig};
use sint::core::soc::{SessionPlan, Soc, SocBuilder};
use sint::interconnect::drive::DriveLevel;
use sint::interconnect::params::BusParams;
use sint::jtag::fault::ScanFault;
use sint::jtag::svf::SvfOptions;
use sint::runtime::json::{Json, ToJson};

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

const METHODS: [(&str, ObservationMethod); 3] = [
    ("m1", ObservationMethod::Once),
    ("m2", ObservationMethod::PerInitialValue),
    ("m3", ObservationMethod::PerPattern),
];

const HALF_ORDERS: [(&str, [DriveLevel; 2]); 2] = [
    ("low_first", [DriveLevel::Low, DriveLevel::High]),
    ("high_first", [DriveLevel::High, DriveLevel::Low]),
];

/// Every die runs on a coarse two-segment bus at a 10 ps timestep: the
/// snapshots pin the session schedule, not solver accuracy.
fn config(method: ObservationMethod) -> SessionConfig {
    SessionConfig { dt: 10e-12, ..SessionConfig::method(method) }
}

fn die(wires: usize) -> SocBuilder {
    SocBuilder::new(wires).bus_params(BusParams::dsm_bus(wires).segments(2))
}

/// A 4-wire die with a crosstalk defect on wire 2.
fn defective4() -> Soc {
    die(4).coupling_defect(2, 3.0).build().unwrap()
}

/// A 6-wire die whose boundary path breaks after cell 3: wires 4 and 5
/// are quarantined, and a resistive open sits on healthy wire 1.
fn degraded6() -> Soc {
    die(6)
        .open_defect(1, 3000.0)
        .scan_fault(ScanFault::BoundaryStuck { device: 0, cell: 3, level: false })
        .chain_policy(ChainPolicy::Degrade { min_coverage: 0.5 })
        .build()
        .unwrap()
}

fn plan_case(case: String, (report, delta): (IntegrityReport, AdaptiveDelta)) -> Json {
    let detected = delta.detected.iter().map(|(victim, fault)| {
        Json::obj([("victim", victim.to_json()), ("fault", format!("{fault:?}").to_json())])
    });
    Json::obj([
        ("case", case.to_json()),
        ("report", report.to_json()),
        ("detected", Json::Array(detected.collect())),
        ("dropped", delta.dropped.to_json()),
        ("escalations", delta.escalations.to_json()),
    ])
}

/// The attributed plan and the adaptive plan under an empty, a partial
/// and a full ledger, in both half orders. The partial ledger covers
/// every other pair the attributed oracle detects plus all pairs of
/// victims 0 and 3 (the last victim either die excites), so the adaptive
/// plan both truncates and escalates.
fn plan_cases(die: &str, build: fn() -> Soc, wires: usize, cases: &mut Vec<Json>) {
    let cfg = config(ObservationMethod::Once);
    let oracle = build().run_session(&cfg, SessionPlan::Attributed).unwrap();
    let mut partial = CoverageLedger::new(wires);
    for &(victim, fault) in oracle.1.detected.iter().step_by(2) {
        partial.record(victim, fault);
    }
    for fault in IntegrityFault::ALL {
        partial.record(0, fault);
        partial.record(3, fault);
    }
    let mut full = CoverageLedger::new(wires);
    for victim in 0..wires {
        for fault in IntegrityFault::ALL {
            full.record(victim, fault);
        }
    }
    assert!(!oracle.1.detected.is_empty(), "the {die} die must have something to attribute");
    cases.push(plan_case(format!("{die}/attributed"), oracle));
    let ledgers = [("empty", CoverageLedger::new(wires)), ("partial", partial), ("full", full)];
    for (ledger_name, ledger) in &ledgers {
        for (order_name, half_order) in HALF_ORDERS {
            let plan = SessionPlan::Adaptive { ledger, half_order };
            let outcome = build().run_session(&cfg, plan).unwrap();
            cases.push(plan_case(format!("{die}/adaptive/{ledger_name}/{order_name}"), outcome));
        }
    }
}

/// Every golden file's name and expected contents.
fn golden_files() -> Vec<(String, String)> {
    let mut files = Vec::new();
    let mut cases = Vec::new();
    for (name, method) in METHODS {
        let (report, svf) = defective4()
            .run_integrity_test_with_svf(&config(method), &SvfOptions::default())
            .unwrap();
        files.push((format!("session_defective4_{name}.svf"), svf));
        let case = format!("defective4/{name}");
        cases.push(Json::obj([("case", case.to_json()), ("report", report.to_json())]));
    }
    for (name, method) in METHODS {
        let report = degraded6().run_integrity_test(&config(method)).unwrap();
        assert!(report.degradation().is_some(), "the 6-wire die must run degraded");
        let case = format!("degraded6/{name}");
        cases.push(Json::obj([("case", case.to_json()), ("report", report.to_json())]));
    }
    plan_cases("defective4", defective4, 4, &mut cases);
    plan_cases("degraded6", degraded6, 6, &mut cases);
    let lines: String = cases.iter().map(|case| case.render() + "\n").collect();
    files.push(("session_cases.jsonl".to_string(), lines));
    files
}

#[test]
fn session_plans_match_their_golden_snapshots() {
    let regen = std::env::var_os("SINT_REGEN_GOLDEN").is_some();
    for (name, rendered) in golden_files() {
        let path = format!("{GOLDEN_DIR}/{name}");
        if regen {
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).expect("golden file present");
        if rendered == expected {
            continue;
        }
        let (line, (got, want)) = rendered
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (got, want))| got != want)
            .unwrap_or((0, ("<length differs>", "")));
        panic!(
            "{name} drifted from its golden snapshot at line {}:\n  got:  {got}\n  want: {want}\n\
             if the change is intentional, re-run with SINT_REGEN_GOLDEN=1 and review the diff",
            line + 1
        );
    }
}
