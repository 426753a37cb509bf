//! In-memory spans for the traced runs.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public function: name (`<layer>.<call>`), start, end, parent span and a
//! point or request id. Spans stay in memory until the run ends, when they
//! are written out as JSON lines and reduced to per-layer self times.
//!
//! A span's self time is its duration minus the part of its interval that
//! its children cover. Children may run on other threads (simulations fan
//! out over the pool), so the covered part is the union of the children's
//! intervals clipped to the parent, not the sum of their durations.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run (1-based; 0 is never used).
    pub id: u64,
    /// Span that made this call, if any.
    pub parent: Option<u64>,
    /// `<layer>.<call>`, e.g. `uarch.simulate_sampled`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Design-point index or request id the call served.
    pub tag: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// A disabled tracer runs each call and records nothing.
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            enabled: true,
        }
    }

    /// A tracer that records nothing: the same code runs without the
    /// spans, which is what `trace.overhead_pct` compares against.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        tag: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            tag,
        });
        out
    }

    /// Adds a finished span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// All spans recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span buffer lock").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"tag\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns,
                s.tag
            )?;
        }
        Ok(())
    }
}

/// Total length of the union of `intervals`.
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span, keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            if hi > lo {
                children.entry(p.id).or_default().push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get_mut(&s.id).map_or(0, |c| union_ns(c));
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Summed self time per layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_insert(0) += selfs[&s.id];
    }
    out
}

/// Share (0–1) of `[start_ns, end_ns]` that no span covers.
pub fn unattributed_share(spans: &[Span], start_ns: u64, end_ns: u64) -> f64 {
    let wall = end_ns.saturating_sub(start_ns);
    if wall == 0 {
        return 0.0;
    }
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns.max(start_ns), s.end_ns.min(end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    1.0 - union_ns(&mut iv) as f64 / wall as f64
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: s,
            end_ns: e,
            tag: 0,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(&mut []), 0);
        assert_eq!(union_ns(&mut [(3, 4), (0, 10)]), 10);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // A batch span whose two children overlap (two pool workers).
        let spans = [
            span(1, None, "core.batch", 0, 100),
            span(2, Some(1), "uarch.simulate_sampled", 10, 60),
            span(3, Some(1), "uarch.simulate_sampled", 20, 90),
            span(4, Some(2), "isa.step", 10, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 80); // children cover [10, 90]
        assert_eq!(selfs[&2], 50 - 10);
        assert_eq!(selfs[&3], 70);
        assert_eq!(selfs[&4], 10);
        let layers = self_time_by_layer(&spans);
        assert_eq!(layers["uarch"], 110);
        assert_eq!(layers["core"], 20);
        assert_eq!(layers["isa"], 10);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(1, None, "serve.handle", 0, 10),
            span(2, Some(1), "models.predict", 5, 30),
        ];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn unattributed_is_the_uncovered_share() {
        let spans = [
            span(1, None, "compiler.midend", 0, 40),
            span(2, None, "uarch.simulate_sampled", 30, 80),
        ];
        assert!((unattributed_share(&spans, 0, 100) - 0.2).abs() < 1e-12);
        assert_eq!(unattributed_share(&spans, 0, 0), 0.0);
    }

    #[test]
    fn tracer_records_nested_calls() {
        let t = Tracer::new();
        let v = t.time("core.batch", None, 0, |outer| {
            t.time("compiler.midend", Some(outer), 7, |_| 41) + 1
        });
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "compiler.midend").unwrap();
        let outer = spans.iter().find(|s| s.name == "core.batch").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.tag, 7);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 2);
    }

    #[test]
    fn a_disabled_tracer_runs_calls_and_records_nothing() {
        let t = Tracer::disabled();
        let v = t.time("core.batch", None, 0, |outer| {
            t.time("compiler.midend", Some(outer), 7, |_| 41) + 1
        });
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
    }
}
