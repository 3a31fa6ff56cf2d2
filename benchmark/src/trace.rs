//! Spans recorded by the benchmark around every call it makes into an
//! engine layer. Spans stay in memory until the run ends; a layer's
//! self time is its spans' duration minus the part their child spans
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the tracer's origin,
/// the index of the span that caused it and the operation it served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, `crate.module.call`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Identifier shared by all spans of one operation.
    pub op: u64,
}

/// Per-name totals derived from a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean span duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.count.max(1) as f64
    }

    /// Mean span duration in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1e3
    }
}

/// Span recorder. A disabled tracer runs the wrapped call and records
/// nothing, so untraced runs pay one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only forwards calls.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, child of whichever span is
    /// open on this tracer.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// Writes one JSON document: per-layer count, total and self time,
    /// then every span.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"workload\":\"{workload}\",\"layers\":{{")?;
        for (i, (name, t)) in self.layer_times().iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(
                out,
                "{sep}\n\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        out.write_all(b"\n},\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                Some(p) => write!(out, "{p}")?,
                None => out.write_all(b"null")?,
            }
            write!(out, ",\"op\":{}}}", s.op)?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// Folds `spans` into per-name totals; a child's whole duration is
/// subtracted from its parent's self time.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) has siblings parse [0,10) and eval [10,90);
        // eval has a nested read [20,50) which has a nested page [25,30).
        let spans = [
            span("op", 0, 100, None),
            span("parse", 0, 10, Some(0)),
            span("eval", 10, 90, Some(0)),
            span("read", 20, 50, Some(2)),
            span("page", 25, 30, Some(3)),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["op"].self_ns, 10); // 100 - (10 + 80)
        assert_eq!(t["eval"].self_ns, 50); // 80 - 30
        assert_eq!(t["read"].self_ns, 25); // 30 - 5
        assert_eq!(t["page"].self_ns, 5);
        assert_eq!(t["parse"].self_ns, 10);
        let self_sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the root span");
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = [
            span("op", 0, 10, None),
            span("op", 10, 30, None),
            span("read", 12, 20, Some(1)),
        ];
        let t = layer_times(&spans);
        assert_eq!(
            (t["op"].count, t["op"].total_ns, t["op"].self_ns),
            (2, 30, 22)
        );
        assert_eq!(t["op"].mean_us(), 0.015);
    }

    #[test]
    fn tracer_links_children_to_the_open_span() {
        let mut tr = Tracer::new(true);
        tr.set_op(7);
        tr.span("outer", |tr| {
            tr.span("inner", |tr| tr.span("innermost", |_| ()));
            tr.span("sibling", |_| ());
        });
        tr.span("next", |_| ());
        let s = tr.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0));
        assert_eq!(s[4].parent, None);
        assert!(s.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_tracer_forwards_and_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |tr| tr.span("y", |_| 5)), 5);
        assert!(tr.spans().is_empty());
    }
}
