//! Spans recorded by the benchmark around its calls into each layer:
//! name, start, end and parent, kept in memory and written out at the
//! end. A layer's self time is its span's duration minus the part of it
//! that child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let now = self.ns(Instant::now());
        let id = self.push(name, self.open.last().copied(), now, now);
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Record a finished span from boundaries taken elsewhere (e.g. on
    /// another thread), as a child of `parent`.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, parent, s, e.max(s))
    }

    fn push(&mut self, name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `id`'s duration minus the union of its children's intervals
    /// (clipped to the span).
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (s.end_ns - s.start_ns) - covered
    }

    /// Every span as a JSON array, with its self time.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}}}{}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(s.id),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let e = t.epoch;
        let at = |ns: u64| e + Duration::from_nanos(ns);
        let root = t.record("root", None, at(0), at(100));
        // Overlapping children cover [10, 40) and [60, 70) once each.
        t.record("a", Some(root), at(10), at(30));
        t.record("b", Some(root), at(20), at(40));
        t.record("c", Some(root), at(60), at(70));
        // A child reaching past its parent only counts inside it.
        let d = t.record("d", Some(root), at(95), at(120));
        // Grandchildren belong to their own parent.
        t.record("e", Some(d), at(96), at(97));
        assert_eq!(t.self_ns(root), 100 - 30 - 10 - 5);
        assert_eq!(t.self_ns(d), 25 - 1);
    }

    #[test]
    fn begin_end_nests_and_serialises() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans()[inner].parent, Some(outer));
        assert!(t.self_ns(outer) <= t.spans()[outer].end_ns - t.spans()[outer].start_ns);
        let json = t.to_json();
        assert!(json.contains("\"name\": \"inner\"") && json.contains("\"parent\": 0"));
    }
}
