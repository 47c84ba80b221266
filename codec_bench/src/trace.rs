//! In-memory spans recorded by the benchmark around its calls into the
//! codec's layers, with the arithmetic the report needs: self time and
//! top-level coverage of a window. Spans are written out when the run
//! ends, never during it.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `recovery.solve`.
    pub name: &'static str,
    /// Start (ns).
    pub start: u64,
    /// End (ns).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The frame or stream the span worked on.
    pub id: u64,
}

/// An open span: its start instant, and its slot when recording.
#[derive(Debug)]
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

/// Span recorder. Disabled, it still times every call (the untraced run
/// needs the same per-call latencies) but keeps nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; nested spans opened before its end become its
    /// children.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            let slot = self.spans.len();
            self.spans.push(Span {
                name,
                start: (start - self.origin).as_nanos() as u64,
                end: 0,
                parent: self.stack.last().copied(),
                id,
            });
            self.stack.push(slot);
            slot
        });
        Open { start, slot }
    }

    /// Closes a span, returning its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(slot) = open.slot {
            self.spans[slot].end = (end - self.origin).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(slot), "spans must close innermost first");
        }
        (end - open.start).as_secs_f64()
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name, id);
        let out = f();
        (out, self.end(open))
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times (seconds) of every span named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time_ns(&self.spans, i) as f64 * 1e-9)
            .collect()
    }

    /// Renders every span as one JSON document (one span per line).
    pub fn to_json(&self, facts: &str) -> String {
        let mut out = format!("{{\"facts\": {facts},\n \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let self_ns = self_time_ns(&self.spans, i);
            let _ = write!(
                out,
                "  {{\"i\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {self_ns}, \"parent\": {parent}, \"id\": {}}}",
                s.name, s.start, s.end, s.id
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str(" ]}\n");
        out
    }
}

/// Length of the union of `intervals` (each `(start, end)`), clipped to
/// `[lo, hi]`.
pub fn union_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// A span's duration minus the part of it covered by its direct
/// children.
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let span = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start, s.end))
        .collect();
    (span.end - span.start) - union_ns(&mut children, span.start, span.end)
}

/// Share of the window `[lo, hi]` covered by top-level spans (spans
/// without a parent).
pub fn coverage(spans: &[Span], lo: u64, hi: u64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    let mut top: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start, s.end))
        .collect();
    union_ns(&mut top, lo, hi) as f64 / (hi - lo) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),  // overlaps a: union is 10..50
            span("c", 90, 120, Some(0)), // runs past the parent's end
            span("grandchild", 12, 20, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans, 1), 30 - 8);
        assert_eq!(self_time_ns(&spans, 4), 8);
    }

    #[test]
    fn coverage_counts_only_top_level_spans_inside_the_window() {
        let spans = vec![
            span("x", 0, 30, None),
            span("inner", 5, 25, Some(0)),
            span("y", 25, 60, None),
            span("z", 90, 200, None),
        ];
        // Union of top-level spans within [10, 100]: 10..60 and 90..100.
        assert!((coverage(&spans, 10, 100) - 60.0 / 90.0).abs() < 1e-12);
        assert_eq!(coverage(&spans, 5, 5), 0.0);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        let ((), inner_s) = t.time("inner", 2, || {});
        let outer_s = t.end(outer);
        assert!(outer_s >= inner_s);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.self_times("outer").len(), 1);
        assert!(t.to_json("{}").contains("\"name\": \"inner\""));

        let mut off = Tracer::new(false);
        let (_, s) = off.time("x", 0, || 1 + 1);
        assert!(s >= 0.0);
        assert!(off.spans().is_empty());
    }
}
