//! Wall-clock spans recorded around the benchmark's own calls into each
//! layer.
//!
//! A span has a name, a start, an end and the span that caused it; the
//! spans of one run share a run id. They are kept in memory and written out
//! once, when the run ends. A layer's *self time* is its span's duration
//! minus the part of that interval its child spans cover — children may run
//! in parallel on the compute pool, so the covered part is the union of
//! their intervals, not their sum.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn duration_ms(&self) -> f64 {
        self.duration_ns() as f64 / 1e6
    }
}

/// The in-memory span store of one traced run (untraced runs create none).
pub struct Tracer {
    run_id: u64,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(run_id: u64) -> Tracer {
        Tracer {
            run_id,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so it can parent further spans.
    pub fn span<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce(u64) -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        self.push(Span {
            id,
            parent,
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(Instant::now()),
        });
        out
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .clone()
    }

    /// Durations (ms) of the spans named `name` under the span `parent`.
    pub fn child_durations_ms(&self, name: &str, parent: u64) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name && s.parent == Some(parent))
            .map(Span::duration_ms)
            .collect()
    }

    /// Writes the spans as JSON lines (`run`, `id`, `parent`, `name`,
    /// `start_ns`, `end_ns`, `self_ns`) to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                self.run_id, span.id, span.name, span.start_ns, span.end_ns, selfs[&span.id]
            )?;
        }
        out.flush()
    }
}

/// Self time of `span`: its duration minus the union of its children's
/// intervals, each clipped to the span.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    span.duration_ns() - covered
}

/// Self time of every span, keyed by span id.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push(span);
        }
    }
    spans
        .iter()
        .map(|span| {
            let kids = children.get(&span.id).map_or(&[][..], Vec::as_slice);
            (span.id, self_time_ns(span, kids))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let root = span(1, None, 0, 100);
        let a = span(2, Some(1), 10, 30);
        let b = span(3, Some(1), 50, 60);
        assert_eq!(self_time_ns(&root, &[&a, &b]), 70);
    }

    #[test]
    fn overlapping_parallel_children_count_once() {
        let root = span(1, None, 0, 100);
        // Two pool tasks overlapping on [20, 40] cover [10, 50].
        let a = span(2, Some(1), 10, 40);
        let b = span(3, Some(1), 20, 50);
        assert_eq!(self_time_ns(&root, &[&a, &b]), 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let root = span(1, None, 100, 200);
        let early = span(2, Some(1), 50, 120);
        let late = span(3, Some(1), 190, 260);
        assert_eq!(self_time_ns(&root, &[&early, &late]), 70);
        assert_eq!(self_time_ns(&root, &[]), 100);
    }

    #[test]
    fn self_times_cover_a_tree() {
        let spans = vec![
            span(2, Some(1), 10, 40),
            span(3, Some(2), 15, 25),
            span(1, None, 0, 100),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[&1], 70);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 10);
    }

    #[test]
    fn tracer_records_parented_spans() {
        let tracer = Tracer::new(7);
        tracer.span("outer", None, |outer| {
            tracer.span("inner", Some(outer), |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
