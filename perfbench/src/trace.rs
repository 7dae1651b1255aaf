//! In-memory spans recorded by the benchmark around its calls into qof.
//!
//! Each span names the call it wraps, its start and end (nanoseconds since
//! the tracer was created) and the span that caused it. All spans of one
//! query share a query id. Nothing is written until the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub query: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans; the query id is set by [`Tracer::next_query`].
pub struct Tracer {
    origin: Instant,
    query: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), query: 0, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new query: later spans carry its id.
    pub fn next_query(&mut self) -> u64 {
        self.query += 1;
        self.query
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, query: self.query, parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result with the span's id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Records a span timed elsewhere (on another thread).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> SpanId {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(Span { name, query: self.query, parent: None, start_ns, end_ns });
        self.spans.len() - 1
    }

    /// Duration of a closed span in microseconds.
    pub fn us(&self, id: SpanId) -> f64 {
        self.spans[id].dur_ns() as f64 / 1e3
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part of
/// its interval covered by its direct children. Overlapping children count
/// once, and a child reaching outside its parent counts only inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let Some(kids) = children.get_mut(&id) else { return s.dur_ns() };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// JSON of the spans of the first `max_queries` queries, with each span's
/// self time, for the per-layer artifact.
pub fn spans_json(spans: &[Span], max_queries: u64) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[");
    let mut first = true;
    for (id, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        if s.query == 0 || s.query > max_queries {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "\n    {{\"id\":{id},\"parent\":{parent},\"query\":{},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.query, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n  ]");
    out
}

/// Per span name: count, median duration and median self time (µs).
pub fn span_summary(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut by_name: Vec<(&'static str, Vec<f64>, Vec<f64>)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let i = match by_name.iter().position(|(n, _, _)| *n == s.name) {
            Some(i) => i,
            None => {
                by_name.push((s.name, Vec::new(), Vec::new()));
                by_name.len() - 1
            }
        };
        by_name[i].1.push(s.dur_ns() as f64 / 1e3);
        by_name[i].2.push(self_ns as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, durs, selfs)| {
            let med = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
            (name, durs.len(), med(&durs), med(&selfs))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "s", query: 1, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(None, 0, 100),    // 0: root
            span(Some(0), 10, 30), // 1: child
            span(Some(0), 40, 90), // 2: child
            span(Some(2), 50, 60), // 3: grandchild, inside 2
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(None, 100, 200),
            span(Some(0), 90, 130),  // overhangs the start: 30 inside
            span(Some(0), 120, 150), // overlaps the first: 20 new
            span(Some(0), 190, 250), // overhangs the end: 10 inside
        ];
        assert_eq!(self_times(&spans)[0], 100 - 30 - 20 - 10);
    }

    #[test]
    fn tracer_nests_and_summarizes() {
        let mut tr = Tracer::new();
        tr.next_query();
        let root = tr.begin("root", None);
        let (v, child) = tr.time("child", Some(root), || 7);
        tr.end(root);
        assert_eq!(v, 7);
        assert_eq!(tr.spans()[child].parent, Some(root));
        assert!(tr.spans()[root].dur_ns() >= tr.spans()[child].dur_ns());
        let names: Vec<_> = span_summary(tr.spans()).iter().map(|s| (s.0, s.1)).collect();
        assert_eq!(names, vec![("root", 1), ("child", 1)]);
        assert!(spans_json(tr.spans(), 1).contains("\"name\":\"child\""));
        assert!(!spans_json(tr.spans(), 0).contains("child"));
    }
}
