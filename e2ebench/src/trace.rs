//! In-memory span recorder and its reduction to per-layer self time.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer of the program. A span has a name (`layer.stage`),
//! a start, an end, its parent's id (0 for a root) and the run id. Spans
//! stay in memory until the run ends; then they are written out as JSON
//! lines and reduced: a span's self time is its duration minus the part
//! of that interval its children cover.
//!
//! With tracing off every call is a no-op that reads no clock, so the
//! untraced run executes the same code path without the cost.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span recorder for one run.
pub struct Tracer {
    on: bool,
    run: u64,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; records itself when dropped (or [`Guard::end`]ed).
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: Cow<'static, str>,
    start_ns: u64,
}

impl Tracer {
    /// A recorder; with `on == false` nothing is ever recorded.
    pub fn new(on: bool, run: u64) -> Self {
        Tracer {
            on,
            run,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::new(false, 0)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under `parent` (0 for a root).
    pub fn span(&self, name: impl Into<Cow<'static, str>>, parent: u64) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: self,
                id: 0,
                parent: 0,
                name: Cow::Borrowed(""),
                start_ns: 0,
            };
        }
        Guard {
            tracer: self,
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.into(),
            start_ns: self.now_ns(),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &self,
        name: impl Into<Cow<'static, str>>,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let _g = self.span(name, parent);
        f()
    }

    /// Every span recorded so far, in end order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Guard<'_> {
    /// The span id to pass as a child's parent (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span now.
    pub fn end(self) {}
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        // Never panic in drop: a poisoned buffer just loses the span.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// The reduction of one run's spans.
#[derive(Debug, Default)]
pub struct Reduction {
    /// Self time in seconds per span name, roots excluded. Spans under a
    /// unit-of-work root count per unit.
    pub self_s: BTreeMap<String, f64>,
    /// Summed duration of the root spans, in seconds.
    pub root_wall_s: f64,
    /// Summed self time of the root spans: wall time no layer span covers.
    pub root_self_s: f64,
}

/// Self time of each span in seconds, in the order of `spans`.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let kids = children.remove(&s.id).unwrap_or_default();
            (dur - covered(kids, s.start_ns, s.end_ns).min(dur)) as f64 * 1e-9
        })
        .collect()
}

/// Reduces `spans` to self time per span name; spans under a root named
/// `unit_root` are divided by `units`.
pub fn reduce(spans: &[Span], unit_root: &str, units: f64) -> Reduction {
    fn root<'a>(by_id: &HashMap<u64, &'a Span>, mut s: &'a Span) -> &'a str {
        while let Some(p) = by_id.get(&s.parent) {
            s = p;
        }
        &s.name
    }
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut r = Reduction::default();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if s.parent == 0 {
            r.root_wall_s += s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9;
            r.root_self_s += own;
            continue;
        }
        let per = if root(&by_id, s) == unit_root {
            units
        } else {
            1.0
        };
        *r.self_s.entry(s.name.to_string()).or_default() += own / per;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name: Cow::Borrowed(name),
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 50), // overlaps a: union 10..50
            span(4, 2, "c", 15, 20),
        ];
        let r = reduce(&spans, "root", 1.0);
        let ns = |name: &str| (r.self_s[name] * 1e9).round() as u64;
        assert_eq!(ns("a"), 25);
        assert_eq!(ns("b"), 20);
        assert_eq!(ns("c"), 5);
        // Per unit under the unit root.
        let per_two = reduce(&spans, "root", 2.0);
        assert_eq!((per_two.self_s["a"] * 1e9).round() as u64, 13);
        assert_eq!((r.root_wall_s * 1e9).round() as u64, 100);
        assert_eq!((r.root_self_s * 1e9).round() as u64, 60);
    }

    #[test]
    fn an_untraced_run_records_nothing() {
        let t = Tracer::off();
        {
            let g = t.span("x", 0);
            assert_eq!(g.id(), 0);
        }
        assert!(t.spans().is_empty());
    }
}
