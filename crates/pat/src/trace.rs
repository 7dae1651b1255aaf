//! Execution tracing and process-wide metrics for the region algebra.
//!
//! Two instruments live here:
//!
//! * [`TraceSink`] / [`OpTrace`] — a per-evaluation operator trace. The
//!   engine, when a sink is attached ([`Engine::with_trace`]), records one
//!   tree node per operator application: monotonic wall time, input/output
//!   region-set cardinalities, text bytes scanned, word-index probes, and
//!   whether the node was answered from the per-`eval` memo. Every
//!   `FileDatabase` query attaches one; an engine used directly without a
//!   sink records nothing.
//! * [`MetricsRegistry`] — per-database query counters and latency
//!   histograms (queries executed, per-phase and per-operator p50/p95),
//!   fed once by every `FileDatabase` query and read by `qof stats` and
//!   the server. Counters are relaxed atomics; histograms use fixed log₂
//!   buckets so recording never allocates.
//!
//! [`Engine::with_trace`]: crate::Engine::with_trace

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where a traced node's result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSource {
    /// Computed by applying the operator.
    Computed,
    /// Served by the per-`eval` memo (§5.2 sharing within one expression).
    LocalMemo,
}

impl CacheSource {
    /// Stable lowercase label (used by the JSON export).
    pub fn label(self) -> &'static str {
        match self {
            CacheSource::Computed => "computed",
            CacheSource::LocalMemo => "memo",
        }
    }
}

/// One node of an operator trace: a single operator application with its
/// cost, in tree position (children are the operand evaluations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// Span id, unique within one trace. The sink assigns ids in `enter`
    /// order starting from 1; the query-trace assembler renumbers them
    /// pre-order. 0 means "never stamped".
    pub span_id: u64,
    /// Start of this span on the sink's monotonic timeline: nanoseconds
    /// since the sink's origin instant, which the executor shares with its
    /// phase stamps, so spans and phases are directly comparable.
    pub start_nanos: u64,
    /// Operator label: the algebra symbol (`⊃`, `σ`, `∪`, …) or the leaf
    /// kind (`name`, `word`, `prefix`), matching the keys of
    /// [`EvalStats::op_counts`](crate::EvalStats).
    pub op: &'static str,
    /// Operator argument, when one exists: the region name of a `name`
    /// leaf, the quoted constant of a `word`/`σ` node, a `⊃^n` depth.
    pub detail: String,
    /// Regions consumed from the operand sets (0 for leaves).
    pub input: usize,
    /// Regions in the produced set.
    pub output: usize,
    /// Inclusive wall time of this node, nanoseconds (monotonic clock).
    pub nanos: u64,
    /// Text bytes scanned inside this node and its children.
    pub bytes: u64,
    /// Word-index probes inside this node and its children.
    pub probes: u64,
    /// Where the result came from.
    pub source: CacheSource,
    /// Operand evaluations (empty for leaves and memo hits).
    pub children: Vec<OpTrace>,
}

impl Default for OpTrace {
    fn default() -> Self {
        Self {
            span_id: 0,
            start_nanos: 0,
            op: "",
            detail: String::new(),
            input: 0,
            output: 0,
            nanos: 0,
            bytes: 0,
            probes: 0,
            source: CacheSource::Computed,
            children: Vec::new(),
        }
    }
}

impl OpTrace {
    /// Wall time spent in this node exclusive of its children.
    pub fn self_nanos(&self) -> u64 {
        self.nanos.saturating_sub(self.children.iter().map(|c| c.nanos).sum())
    }

    /// End of this span on its sink's timeline (`start_nanos + nanos`).
    pub fn end_nanos(&self) -> u64 {
        self.start_nanos.saturating_add(self.nanos)
    }

    /// Total nodes in this subtree (itself included).
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(OpTrace::node_count).sum::<usize>()
    }

    /// Walks the subtree pre-order.
    pub fn walk(&self, f: &mut impl FnMut(&OpTrace)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }
}

/// Collects a hierarchical span tree during one or more engine
/// evaluations.
///
/// The sink keeps a stack of open frames mirroring the evaluator's
/// recursion; [`TraceSink::enter`] opens a span (stamping its start on the
/// sink's monotonic timeline and assigning its id), [`TraceSink::exit`]
/// closes it and files the finished node under its parent. Completed
/// top-level evaluations accumulate as roots until [`TraceSink::take`].
///
/// The sink — not the caller — is authoritative for timing: `enter` stamps
/// `start_nanos`, `exit`/`exit_with` stamp the duration from the matching
/// `enter`. Because the engine is single-threaded per sink, this makes the
/// span-tree invariants true *by construction*: every child interval nests
/// within its parent and sibling spans never overlap. Handing the sink the
/// executor's origin instant ([`TraceSink::with_origin`]) puts its spans
/// on the same timeline as the phase stamps.
#[derive(Debug)]
pub struct TraceSink {
    frames: RefCell<Vec<Vec<OpTrace>>>,
    /// Open spans as `(span_id, start_nanos)`, parallel to the frames
    /// opened by `enter`.
    open: RefCell<Vec<(u64, u64)>>,
    next_id: Cell<u64>,
    origin: Instant,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// An empty sink whose timeline starts now.
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    /// An empty sink stamping spans relative to `origin` — the executor
    /// passes the origin of its phase stamps, so all spans of one query
    /// share a timeline.
    pub fn with_origin(origin: Instant) -> Self {
        Self {
            frames: RefCell::new(vec![Vec::new()]),
            open: RefCell::new(Vec::new()),
            next_id: Cell::new(1),
            origin,
        }
    }

    /// Nanoseconds elapsed on this sink's timeline.
    pub fn now_nanos(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn fresh_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    /// Opens a span for an operator application about to run: stamps its
    /// start time and assigns its id.
    pub fn enter(&self) {
        self.frames.borrow_mut().push(Vec::new());
        let id = self.fresh_id();
        self.open.borrow_mut().push((id, self.now_nanos()));
    }

    /// Closes the innermost span: the finished node adopts the children
    /// recorded inside the span, receives the sink's id and interval for
    /// the span (overriding whatever the caller put in `span_id` /
    /// `start_nanos` / `nanos`), and is filed under the enclosing span (or
    /// as a root).
    pub fn exit(&self, mut node: OpTrace) {
        node.children = self.frames.borrow_mut().pop().unwrap_or_default();
        self.stamp(&mut node);
        self.file(node);
    }

    /// Like [`TraceSink::exit`], but the caller builds the node *from* the
    /// recorded children (e.g. to derive the input cardinality as the sum
    /// of child outputs before filing). Timing fields the builder sets are
    /// overridden by the sink's stamps.
    pub fn exit_with(&self, build: impl FnOnce(Vec<OpTrace>) -> OpTrace) {
        let children = self.frames.borrow_mut().pop().unwrap_or_default();
        let mut node = build(children);
        self.stamp(&mut node);
        self.file(node);
    }

    /// Records a childless node (a memo hit or a leaf observed whole):
    /// assigns an id and stamps its start at the current instant, keeping
    /// the caller's duration (memo hits record 0 — a zero-width span).
    pub fn leaf(&self, mut node: OpTrace) {
        node.span_id = self.fresh_id();
        node.start_nanos = self.now_nanos();
        self.file(node);
    }

    /// Fills the timing fields of a node closing the innermost open span.
    fn stamp(&self, node: &mut OpTrace) {
        let end = self.now_nanos();
        // An unbalanced exit (no matching `enter`) still gets a fresh id
        // and a zero-width interval rather than being lost.
        let (id, start) = self.open.borrow_mut().pop().unwrap_or_else(|| (self.fresh_id(), end));
        node.span_id = id;
        node.start_nanos = start;
        node.nanos = end.saturating_sub(start);
    }

    fn file(&self, node: OpTrace) {
        let mut frames = self.frames.borrow_mut();
        match frames.last_mut() {
            Some(parent) => parent.push(node),
            None => frames.push(vec![node]),
        }
    }

    /// Takes the completed root nodes, leaving the sink empty and reusable
    /// (the timeline origin and id sequence carry on).
    pub fn take(&self) -> Vec<OpTrace> {
        let mut frames = self.frames.borrow_mut();
        let roots = if frames.is_empty() { Vec::new() } else { std::mem::take(&mut frames[0]) };
        *frames = vec![Vec::new()];
        self.open.borrow_mut().clear();
        roots
    }
}

// ---------------------------------------------------------------------------
// Metrics: histograms and the process-wide registry.
// ---------------------------------------------------------------------------

/// Number of log₂ latency buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` nanoseconds; the last bucket is open-ended (≳ 9 min).
pub const HISTOGRAM_BUCKETS: usize = 40;
const BUCKETS: usize = HISTOGRAM_BUCKETS;

/// A fixed-bucket log₂ latency histogram. Recording is allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { buckets: [0; BUCKETS], count: 0, sum: 0 }
    }

    /// Records one sample (nanoseconds).
    pub fn record(&mut self, nanos: u64) {
        let b = (64 - u64::leading_zeros(nanos.max(1)) as usize - 1).min(BUCKETS - 1);
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += nanos;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, nanoseconds.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Approximate quantile (`0.0 ..= 1.0`): the upper bound of the bucket
    /// holding the q-th sample, so the estimate is within 2× of the true
    /// value. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        1u64 << 63
    }

    /// Merges another histogram into this one (bucket-wise sums; lossless).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The raw per-bucket sample counts (not cumulative), bucket `i`
    /// covering `[2^i, 2^(i+1))` nanoseconds and the last bucket open-ended.
    pub fn bucket_counts(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Exclusive upper bound of bucket `i` in nanoseconds, or `None` for
    /// the open-ended last bucket (Prometheus `+Inf`).
    pub fn bucket_upper_bound(i: usize) -> Option<u64> {
        if i + 1 < HISTOGRAM_BUCKETS {
            Some(1u64 << (i + 1))
        } else {
            None
        }
    }
}

/// An immutable summary of one histogram, for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub sum_nanos: u64,
    /// Approximate median, nanoseconds.
    pub p50_nanos: u64,
    /// Approximate 95th percentile, nanoseconds.
    pub p95_nanos: u64,
}

impl Histogram {
    /// Count / sum / p50 / p95 snapshot.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum_nanos: self.sum,
            p50_nanos: self.quantile(0.50),
            p95_nanos: self.quantile(0.95),
        }
    }
}

/// Counters and histograms for one engine's workload. Every database owns
/// one registry and records every query into it, so concurrent engines
/// never share mutable counters.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    queries: AtomicU64,
    query_errors: AtomicU64,
    query_latency: Mutex<Histogram>,
    phase_latency: Mutex<BTreeMap<String, Histogram>>,
    op_latency: Mutex<BTreeMap<String, Histogram>>,
}

/// A point-in-time copy of a [`MetricsRegistry`] — counters plus the
/// *full* latency histograms — beside the plan-cache counters and index
/// gauges read from where the database holds them, so every reporting
/// surface (the CLI's `qof stats`, the server's Prometheus `/metrics`)
/// renders from one struct and cannot drift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Queries executed (successes and failures).
    pub queries: u64,
    /// Queries that returned an error.
    pub query_errors: u64,
    /// Plan-cache lookups that found a chain lowered already.
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that had to optimize and certify the chain.
    pub plan_cache_misses: u64,
    /// End-to-end query latency.
    pub query_latency: Histogram,
    /// Per-phase latency of successful queries, keyed by phase name
    /// (`parse`, `plan`, `index-candidates`, …).
    pub phase_latency: BTreeMap<String, Histogram>,
    /// Per-operator latency, keyed by operator label.
    pub op_latency: BTreeMap<String, Histogram>,
    /// Resident word-index footprint in bytes (gauge).
    pub index_bytes: u64,
    /// Corpus text size in bytes behind the index (gauge).
    pub corpus_bytes: u64,
}

impl MetricsSnapshot {
    /// Fraction of plan-cache lookups that hit (0 when never consulted).
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.plan_cache_hits as f64 / total as f64
            }
        }
    }
}

impl MetricsRegistry {
    /// A fresh, private registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed query and its end-to-end latency.
    pub fn record_query(&self, nanos: u64, ok: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.query_errors.fetch_add(1, Ordering::Relaxed);
        }
        self.query_latency.lock().expect("metrics lock poisoned").record(nanos);
    }

    /// Records one query's phase timings (`(name, nanos)` pairs) into the
    /// per-phase histograms, under one lock acquisition.
    pub fn record_phases<'a>(&self, phases: impl IntoIterator<Item = (&'a str, u64)>) {
        let mut map = self.phase_latency.lock().expect("metrics lock poisoned");
        for (name, nanos) in phases {
            record_labelled(&mut map, name, nanos);
        }
    }

    /// Folds every node of an operator trace into the per-op histograms
    /// (exclusive times, so parents don't double-count their children),
    /// under one lock acquisition.
    pub fn record_op_trace(&self, roots: &[OpTrace]) {
        let mut map = self.op_latency.lock().expect("metrics lock poisoned");
        for root in roots {
            root.walk(&mut |node| {
                if node.source == CacheSource::Computed {
                    record_labelled(&mut map, node.op, node.self_nanos());
                }
            });
        }
    }

    /// A point-in-time copy of every counter and histogram, beside the
    /// counts the registry does not hold: the owner's plan-cache
    /// `(hits, misses)` and its `(index, corpus)` bytes, read when the
    /// snapshot is taken.
    pub fn snapshot(&self, plan_cache: (u64, u64), bytes: (u64, u64)) -> MetricsSnapshot {
        MetricsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            query_errors: self.query_errors.load(Ordering::Relaxed),
            plan_cache_hits: plan_cache.0,
            plan_cache_misses: plan_cache.1,
            query_latency: self.query_latency.lock().expect("metrics lock poisoned").clone(),
            phase_latency: self.phase_latency.lock().expect("metrics lock poisoned").clone(),
            op_latency: self.op_latency.lock().expect("metrics lock poisoned").clone(),
            index_bytes: bytes.0,
            corpus_bytes: bytes.1,
        }
    }
}

/// Records one latency sample under `label`, allocating the label only
/// the first time it is seen.
fn record_labelled(map: &mut BTreeMap<String, Histogram>, label: &str, nanos: u64) {
    match map.get_mut(label) {
        Some(h) => h.record(nanos),
        None => {
            let mut h = Histogram::new();
            h.record(nanos);
            map.insert(label.to_owned(), h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(op: &'static str, nanos: u64) -> OpTrace {
        OpTrace { op, nanos, ..OpTrace::default() }
    }

    #[test]
    fn sink_builds_nested_tree() {
        let sink = TraceSink::new();
        sink.enter(); // ⊃
        sink.enter(); // name A
        sink.exit(node("name A", 0));
        sink.enter(); // name B
        sink.exit(node("name B", 0));
        sink.exit(node("⊃", 0));
        let roots = sink.take();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].op, "⊃");
        assert_eq!(roots[0].children.len(), 2);
        assert_eq!(roots[0].children[0].op, "name A");
        assert_eq!(roots[0].node_count(), 3);
        // The sink is reusable after take().
        sink.enter();
        sink.exit(node("σ", 0));
        assert_eq!(sink.take().len(), 1);
    }

    #[test]
    fn sink_stamps_span_ids_and_nested_intervals() {
        let sink = TraceSink::new();
        sink.enter(); // ⊃ — span 1
        sink.enter(); // name A — span 2
        sink.exit(node("name A", 0));
        sink.enter(); // name B — span 3
        sink.exit(node("name B", 0));
        sink.exit(node("⊃", 0));
        let roots = sink.take();
        let root = &roots[0];
        assert_eq!(root.span_id, 1);
        assert_eq!(root.children[0].span_id, 2);
        assert_eq!(root.children[1].span_id, 3);
        // Children nest within the parent interval …
        for c in &root.children {
            assert!(c.start_nanos >= root.start_nanos, "{c:?} starts before {root:?}");
            assert!(c.end_nanos() <= root.end_nanos(), "{c:?} ends after {root:?}");
        }
        // … and siblings on one thread never overlap.
        let (a, b) = (&root.children[0], &root.children[1]);
        assert!(a.end_nanos() <= b.start_nanos, "siblings overlap: {a:?} vs {b:?}");
        // Exclusive time is well-defined: the sink's stamps make the
        // children's durations sum to no more than the parent's.
        assert!(root.nanos >= a.nanos + b.nanos);
        assert_eq!(root.self_nanos(), root.nanos - a.nanos - b.nanos);
    }

    #[test]
    fn sinks_sharing_an_origin_share_a_timeline() {
        let origin = Instant::now();
        let first = TraceSink::with_origin(origin);
        first.enter();
        first.exit(node("σ", 0));
        let second = TraceSink::with_origin(origin);
        second.enter();
        second.exit(node("∪", 0));
        let a = first.take().pop().unwrap();
        let b = second.take().pop().unwrap();
        // The second sink was created after the first span closed, so its
        // span starts no earlier on the shared timeline.
        assert!(b.start_nanos >= a.start_nanos);
    }

    #[test]
    fn sink_collects_multiple_roots_and_leaves() {
        let sink = TraceSink::new();
        sink.enter();
        sink.exit(node("∪", 0));
        sink.leaf(node("memo-hit", 0));
        let roots = sink.take();
        assert_eq!(roots.len(), 2);
        // Leaves get ids from the same sequence and a zero-width interval.
        assert_eq!(roots[1].span_id, 2);
        assert_eq!(roots[1].nanos, 0);
        assert!(roots[1].start_nanos >= roots[0].end_nanos());
        assert!(sink.take().is_empty());
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = Histogram::new();
        for _ in 0..95 {
            h.record(1_000); // ~2^10
        }
        for _ in 0..5 {
            h.record(1_000_000); // ~2^20
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        assert!((1_000..=2_048).contains(&p50), "p50 = {p50}");
        let p95 = h.quantile(0.95);
        assert!(p95 <= 2_048, "p95 falls in the 1µs bucket: {p95}");
        let p99 = h.quantile(0.99);
        assert!((1_000_000..=2_097_152).contains(&p99), "p99 = {p99}");
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn histogram_merge_is_lossless() {
        let mut a = Histogram::new();
        a.record(100);
        let mut b = Histogram::new();
        b.record(100);
        b.record(1 << 30);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 200 + (1 << 30));
        let s = a.summary();
        assert_eq!(s.count, 3);
    }

    #[test]
    fn registry_counts_and_snapshots() {
        let reg = MetricsRegistry::new();
        reg.record_query(1_000, true);
        reg.record_query(2_000, false);
        reg.record_op_trace(&[node("⊃", 500), node("⊃", 700), node("σ", 80)]);
        let s = reg.snapshot((0, 0), (0, 0));
        assert_eq!(s.queries, 2);
        assert_eq!(s.query_errors, 1);
        assert_eq!(s.op_latency["⊃"].count(), 2);
        assert_eq!(s.op_latency["σ"].count(), 1);
        assert_eq!(s.query_latency.count(), 2);
        reg.record_phases([("parse", 10), ("plan", 20)]);
        reg.record_phases([("parse", 30), ("plan", 40)]);
        let s = reg.snapshot((0, 0), (0, 0));
        assert_eq!(s.phase_latency["parse"].count(), 2);
        assert_eq!(s.phase_latency["plan"].sum(), 60);
    }

    #[test]
    fn record_op_trace_uses_exclusive_times_and_skips_cache_hits() {
        let reg = MetricsRegistry::new();
        let mut parent = node("⊃", 100);
        parent.children.push(node("name A", 30));
        let mut hit = node("σ", 20);
        hit.source = CacheSource::LocalMemo;
        parent.children.push(hit);
        reg.record_op_trace(&[parent]);
        let s = reg.snapshot((0, 0), (0, 0));
        // ⊃ recorded with 100 − 30 − 20 = 50ns exclusive; σ (memo hit) not
        // recorded at all.
        assert_eq!(s.op_latency["⊃"].count(), 1);
        assert!(!s.op_latency.contains_key("σ"));
        assert_eq!(s.op_latency["name A"].count(), 1);
    }

    #[test]
    fn plan_cache_counters_flow_to_snapshot() {
        let reg = MetricsRegistry::new();
        let s = reg.snapshot((2, 1), (4096, 10_000));
        assert_eq!((s.plan_cache_hits, s.plan_cache_misses), (2, 1));
        assert_eq!((s.index_bytes, s.corpus_bytes), (4096, 10_000));
        assert!((s.plan_cache_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        let s = reg.snapshot((0, 0), (0, 0));
        assert!(s.plan_cache_hit_rate().abs() < 1e-9);
    }
}
