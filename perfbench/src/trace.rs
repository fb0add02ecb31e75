//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, the span that caused it and
//! the trial, die or board it belongs to. Spans stay in memory during
//! the run and are written out when it ends. A disabled tracer records
//! nothing and reads no clock, so untraced passes pay one branch per
//! call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer operation, e.g. `interconnect.factorise`.
    pub name: &'static str,
    /// Die, trial or board index the work belongs to.
    pub unit: u64,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans when enabled; does nothing otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// (`None` when disabled) to parent its own spans on.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        unit: u64,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(Some(id));
        let end = self.now();
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .push(Span {
                id,
                parent,
                name,
                unit,
                start,
                end,
            });
        out
    }

    /// Every span recorded so far, ordered by id.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans();
        for (s, own) in spans.iter().zip(self_times(&spans)) {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"unit\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                parent,
                s.name,
                s.unit,
                s.start,
                s.end,
                own
            )?;
        }
        out.flush()
    }
}

/// `span`'s duration minus the part of it its children cover (children
/// may overlap one another when they ran on different threads).
#[must_use]
pub fn self_ns(span: &Span, spans: &[Span]) -> u64 {
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| s < e)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start;
    for (s, e) in children {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.ns() - covered
}

/// Self time of every span in `spans`, in the same order.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s.clone());
        }
    }
    spans
        .iter()
        .map(|s| children.get(&s.id).map_or(s.ns(), |c| self_ns(s, c)))
        .collect()
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Sums count and self time per span name.
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            unit: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_coverage() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 90, 120),
            span(5, Some(2), 12, 14),
        ];
        // Children cover [10, 50) and [90, 100): 50 ns of 100.
        assert_eq!(self_ns(&spans[0], &spans), 50);
        assert_eq!(self_ns(&spans[1], &spans), 18);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["x"].count, 5);
        assert_eq!(totals["x"].self_ns, 50 + 18 + 30 + 30 + 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let off = Tracer::new(false);
        assert_eq!(off.span("a", None, 0, |id| id), None);
        assert!(off.spans().is_empty());
        let on = Tracer::new(true);
        let inner = on.span("outer", None, 7, |outer| {
            on.span("inner", outer, 7, |id| (outer, id))
        });
        assert_eq!(inner, (Some(1), Some(2)));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(1)));
    }
}
