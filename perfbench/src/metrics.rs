//! The metric registry, the values a run collects, and the two outputs:
//! a human report and the one-line JSON result.
//!
//! Metrics marked `listed` are the ones `BENCHMARK.json` names: every
//! workload measures each of them, and the listed end-to-end metrics are
//! never zero on a correct run, so a relative bound means something. The
//! rest are measured only where the workload has the work they describe;
//! the report prints them, with `n/a` elsewhere.

use sint_runtime::json::{Json, ToJson};
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Whether `BENCHMARK.json` lists it (measured on every workload).
    pub listed: bool,
}

const fn m(name: &'static str, unit: &'static str, better: Better, listed: bool) -> Metric {
    Metric {
        name,
        unit,
        better,
        listed,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported from untraced runs.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower, true),
    m("trials_per_s", "1/s", Higher, true),
    m("detection_rate", "ratio", Higher, true),
    m("peak_rss_mb", "MiB", Lower, true),
    m("session_p50_ms", "ms", Lower, false),
    m("session_p95_ms", "ms", Lower, false),
    m("sim_tck", "TCK", Lower, false),
    m("false_alarm_rate", "ratio", Lower, false),
    m("failed_share", "ratio", Lower, false),
];

/// Per-layer metrics, reported from traced runs.
pub const PER_LAYER: &[Metric] = &[
    m("interconnect.factorise.count", "count", Lower, true),
    m("interconnect.factorise.us", "us", Lower, true),
    m("interconnect.solve.count", "count", Lower, true),
    m("interconnect.solve.us", "us", Lower, true),
    m("interconnect.solve.share", "ratio", Lower, true),
    m("interconnect.solve.repeat_share", "ratio", Lower, true),
    m("jtag.tck", "TCK", Lower, true),
    m("jtag.shift.ns_per_tck", "ns", Lower, true),
    m("jtag.selfcheck.us", "us", Lower, true),
    m("core.build.us", "us", Lower, true),
    m("core.session.ms.m1", "ms", Lower, true),
    m("core.session.ms.m2", "ms", Lower, true),
    m("core.session.ms.m3", "ms", Lower, true),
    m("core.observe.ns_per_wave", "ns", Lower, true),
    m("core.mafm.plan.us", "us", Lower, true),
    m("core.adaptive.dropped", "count", Higher, true),
    m("core.adaptive.escalations", "count", Lower, true),
    m("core.adaptive.drop_share", "ratio", Higher, true),
    m("runtime.pool.idle_share", "ratio", Lower, true),
    m("trace.overhead", "ratio", Lower, true),
    m("core.campaign.trial_ms.p50", "ms", Lower, false),
    m("core.campaign.trial_ms.p95", "ms", Lower, false),
    m("fleet.record.count", "count", Lower, false),
    m("fleet.record.bytes", "B", Lower, false),
    m("fleet.record.us", "us", Lower, false),
    m("fleet.record.flush_ms", "ms", Lower, false),
    m("fleet.fsync_ms", "ms", Lower, false),
    m("fleet.checkpoint.store_ms", "ms", Lower, false),
    m("fleet.checkpoint.bytes", "B", Lower, false),
    m("fleet.checkpoint.load_ms", "ms", Lower, false),
    m("fleet.replay_ms", "ms", Lower, false),
    m("fleet.resilience.retries", "count", Lower, false),
    m("fleet.resilience.sink_errors", "count", Lower, false),
];

/// Looks a metric up by name in either table.
#[must_use]
pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One measured value, with the sample count behind it when it is a
/// statistic over samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The number.
    pub value: f64,
    /// Samples it summarises, when it is a median or percentile.
    pub samples: Option<usize>,
}

/// The values one run collected, by metric name. A metric left out is
/// `n/a` on this workload, with the reason in `missing`.
#[derive(Debug, Default)]
pub struct Values {
    values: BTreeMap<&'static str, Value>,
    missing: BTreeMap<&'static str, String>,
}

impl Values {
    /// Records a plain value.
    ///
    /// # Panics
    ///
    /// On a name the registry does not hold (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.put(
            name,
            Value {
                value,
                samples: None,
            },
        );
    }

    /// Records a statistic over `samples` samples.
    pub fn set_stat(&mut self, name: &'static str, value: f64, samples: usize) {
        self.put(
            name,
            Value {
                value,
                samples: Some(samples),
            },
        );
    }

    /// Records a statistic that may be unavailable (too few samples).
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        match value {
            Some(v) => self.set_stat(name, v, samples),
            None => self.not_applicable(
                name,
                format!("too few samples ({samples}) for 10 beyond the tail"),
            ),
        }
    }

    /// Marks a metric as not measured on this workload.
    pub fn not_applicable(&mut self, name: &'static str, why: impl Into<String>) {
        assert!(lookup(name).is_some(), "unregistered metric {name}");
        self.missing.insert(name, why.into());
    }

    fn put(&mut self, name: &'static str, value: Value) {
        assert!(lookup(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, value);
    }

    /// The recorded value, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.value)
    }

    /// Human-readable lines for every metric of `table`.
    #[must_use]
    pub fn report(&self, table: &[Metric]) -> Vec<String> {
        table
            .iter()
            .map(|m| {
                let tag = if m.listed { "listed" } else { "report" };
                match self.values.get(m.name) {
                    Some(v) => {
                        let n = v.samples.map_or_else(String::new, |n| format!(", n={n}"));
                        format!(
                            "  {:<34} {:>16} {:<6} ({} is better{n}) [{tag}]",
                            m.name,
                            fmt_value(v.value),
                            m.unit,
                            m.better.as_str()
                        )
                    }
                    None => {
                        let why = self
                            .missing
                            .get(m.name)
                            .map_or("not measured", String::as_str);
                        format!(
                            "  {:<34} {:>16} {:<6} ({why}) [{tag}]",
                            m.name, "n/a", m.unit
                        )
                    }
                }
            })
            .collect()
    }

    /// The `metrics` object of the result line: every listed metric of
    /// `table`.
    ///
    /// # Errors
    ///
    /// Names a listed metric that was not measured or is not finite.
    pub fn listed_json(&self, table: &[Metric]) -> Result<Json, String> {
        let mut out = Json::obj(Vec::<(String, Json)>::new());
        for m in table.iter().filter(|m| m.listed) {
            let v = self
                .get(m.name)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("listed metric {} was not measured", m.name))?;
            out.push(
                m.name,
                Json::obj([("value", v.to_json()), ("unit", m.unit.to_json())]),
            );
        }
        Ok(out)
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// The last line of standard output.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", correct.to_json()),
        ("attempted", attempted.to_json()),
        ("failed", failed.to_json()),
        ("metrics", metrics),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, at most
    /// 64 characters, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for m in &all {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} on {}",
                m.unit,
                m.name
            );
            assert_eq!(
                all.iter().filter(|o| o.name == m.name).count(),
                1,
                "{} twice",
                m.name
            );
        }
        assert!(!valid_name("core.session.ms.m1|m2"));
        assert!(!valid_name(".hidden"));
        assert!(lookup("setup_s").is_some_and(|m| m.listed && m.better == Better::Lower));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_listed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str, &str)> = root
                .get(key)
                .and_then(Json::as_array)
                .expect("metric array")
                .iter()
                .map(|e| {
                    let field = |k: &str| e.get(k).and_then(Json::as_str).expect("string field");
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let expected: Vec<(&str, &str, &str)> = table
                .iter()
                .filter(|m| m.listed)
                .map(|m| (m.name, m.unit, m.better.as_str()))
                .collect();
            assert_eq!(listed, expected, "{key} drifted from the registry");
        }
    }

    #[test]
    fn result_line_carries_only_listed_metrics() {
        let mut values = Values::default();
        for m in END_TO_END {
            values.set(m.name, 1.5);
        }
        let line = result_line(
            true,
            3,
            0,
            values.listed_json(END_TO_END).expect("all measured"),
        );
        let parsed = Json::parse(&line).expect("valid JSON");
        let metrics = parsed.get("metrics").expect("metrics object");
        assert!(metrics.get("setup_s").is_some());
        assert!(metrics.get("failed_share").is_none());
        let mut partial = Values::default();
        partial.set("setup_s", 1.0);
        assert!(partial.listed_json(END_TO_END).is_err());
    }
}
