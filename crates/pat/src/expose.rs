//! Metrics exposition: the renderers that turn a [`MetricsSnapshot`] into
//! machine-readable text. Two surfaces exist and both live here so they
//! cannot drift apart:
//!
//! * [`render_prometheus`] — Prometheus text exposition format v0.0.4, the
//!   body of the query server's `GET /metrics`. Counters become `counter`
//!   series; the log₂ latency histograms become native Prometheus
//!   `histogram` series (`_bucket{le=…}` cumulative counts, `_sum`,
//!   `_count`), with per-phase histograms labelled `{phase="plan"}` and
//!   per-operator histograms labelled `{op="⊃"}`.
//! * [`snapshot_to_json`] — a dependency-free JSON document with the same
//!   counters and full bucket contents, the body of `qof stats --json` and
//!   of `GET /metrics?format=json`.
//!
//! All durations are nanoseconds in the JSON document and seconds in the
//! Prometheus rendering (Prometheus' base-unit convention).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::escape;
use crate::trace::{Histogram, MetricsSnapshot};
use crate::workload::WorkloadEntry;

/// Escapes a Prometheus label value (`\`, `"`, newline).
fn esc_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds as a Prometheus seconds value (`f64` prints shortest
/// round-tripping decimal, so `2048` ns renders as `0.000002048`).
#[allow(clippy::cast_precision_loss)]
fn secs(nanos: u64) -> String {
    format!("{}", nanos as f64 / 1e9)
}

/// Emits one histogram's `_bucket`/`_sum`/`_count` series under `name`,
/// with `labels` (e.g. `op="⊃"`) spliced into every sample.
fn histogram_series(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (i, &n) in h.bucket_counts().iter().enumerate() {
        cumulative += n;
        // Only materialize boundaries up to the last non-empty bucket;
        // `+Inf` below carries the total regardless.
        if cumulative == 0 || n == 0 {
            continue;
        }
        if let Some(ub) = Histogram::bucket_upper_bound(i) {
            let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}", secs(ub));
        }
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count());
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", secs(h.sum()));
        let _ = writeln!(out, "{name}_count {}", h.count());
    } else {
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", secs(h.sum()));
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
    }
}

/// Renders the snapshot in the Prometheus text exposition format v0.0.4.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let counters: [(&str, &str, u64); 4] = [
        ("qof_queries_total", "Queries executed (successes and failures).", snap.queries),
        ("qof_query_errors_total", "Queries that returned an error.", snap.query_errors),
        ("qof_plan_cache_hits_total", "Optimized-plan cache hits.", snap.plan_cache_hits),
        ("qof_plan_cache_misses_total", "Optimized-plan cache misses.", snap.plan_cache_misses),
    ];
    for (name, help, value) in counters {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    let _ = writeln!(out, "# HELP qof_index_bytes Resident word-index footprint in bytes.");
    let _ = writeln!(out, "# TYPE qof_index_bytes gauge");
    let _ = writeln!(out, "qof_index_bytes {}", snap.index_bytes);
    let _ = writeln!(out, "# HELP qof_corpus_bytes Corpus text bytes behind the index.");
    let _ = writeln!(out, "# TYPE qof_corpus_bytes gauge");
    let _ = writeln!(out, "qof_corpus_bytes {}", snap.corpus_bytes);
    let _ = writeln!(out, "# HELP qof_query_latency_seconds End-to-end query latency.");
    let _ = writeln!(out, "# TYPE qof_query_latency_seconds histogram");
    histogram_series(&mut out, "qof_query_latency_seconds", "", &snap.query_latency);
    labelled_family(
        &mut out,
        "qof_phase_latency_seconds",
        "Per-phase latency of successful queries.",
        "phase",
        &snap.phase_latency,
    );
    labelled_family(
        &mut out,
        "qof_op_latency_seconds",
        "Per-operator evaluation latency (exclusive time).",
        "op",
        &snap.op_latency,
    );
    out
}

/// Emits one histogram family with a `{key="…"}` label per entry, or
/// nothing when no entry has been recorded.
fn labelled_family(
    out: &mut String,
    name: &str,
    help: &str,
    key: &str,
    histograms: &BTreeMap<String, Histogram>,
) {
    if histograms.is_empty() {
        return;
    }
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (label, h) in histograms {
        histogram_series(out, name, &format!("{key}=\"{}\"", esc_label(label)), h);
    }
}

/// One histogram as a JSON object: count, sum, the p50/p95 summary, and
/// the non-empty buckets (`le_nanos` exclusive upper bound, 0 = open end).
fn histogram_json(h: &Histogram) -> String {
    let s = h.summary();
    let mut out = format!(
        "{{\"count\":{},\"sum_nanos\":{},\"p50_nanos\":{},\"p95_nanos\":{},\"buckets\":[",
        s.count, s.sum_nanos, s.p50_nanos, s.p95_nanos
    );
    let mut first = true;
    for (i, &n) in h.bucket_counts().iter().enumerate() {
        if n == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let le = Histogram::bucket_upper_bound(i).unwrap_or(0);
        let _ = write!(out, "{{\"le_nanos\":{le},\"count\":{n}}}");
    }
    out.push_str("]}");
    out
}

/// Serializes the snapshot as JSON: the `qof stats --json` document, also
/// served by `GET /metrics?format=json`.
pub fn snapshot_to_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("{");
    let _ = write!(out, "\"queries\":{},\"query_errors\":{}", snap.queries, snap.query_errors);
    let _ = write!(
        out,
        ",\"plan_cache_hits\":{},\"plan_cache_misses\":{}",
        snap.plan_cache_hits, snap.plan_cache_misses
    );
    let _ = write!(out, ",\"plan_cache_hit_rate\":{}", snap.plan_cache_hit_rate());
    let _ =
        write!(out, ",\"index_bytes\":{},\"corpus_bytes\":{}", snap.index_bytes, snap.corpus_bytes);
    let _ = write!(out, ",\"query_latency\":{}", histogram_json(&snap.query_latency));
    let _ = write!(out, ",\"phase_latency\":{}", labelled_json(&snap.phase_latency));
    let _ = write!(out, ",\"op_latency\":{}}}", labelled_json(&snap.op_latency));
    out
}

/// Labelled histograms as one JSON object keyed by label.
fn labelled_json(histograms: &BTreeMap<String, Histogram>) -> String {
    let mut out = String::from("{");
    for (i, (label, h)) in histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape(label), histogram_json(h));
    }
    out.push('}');
    out
}

/// Version stamp of the `GET /workload` JSON envelope. Within v2 the
/// per-entry `errors` key was dropped: failed queries never reach the
/// table, so it was always 0. v3 dropped `worst_est_ratio` and
/// `worst_est_trace`: queries no longer carry cardinality estimates. v4
/// dropped `plan_cache_hits` and `plan_cache_misses`: a plan-cache lookup
/// is the cache's to count (`qof_plan_cache_*_total`), not a query's. v5
/// keys entries by trace v10's shape fingerprint; no key changed.
pub const WORKLOAD_SCHEMA_VERSION: u64 = 5;

/// Serializes a workload-table snapshot as the `GET /workload` document,
/// also printed by `qof stats --workload --json`. Fingerprints render as
/// fixed-width 16-hex strings (JSON numbers would lose bits past 2^53 in
/// consumers).
pub fn workload_to_json(entries: &[WorkloadEntry], capacity: usize) -> String {
    let mut out = format!(
        "{{\"schema_version\":{WORKLOAD_SCHEMA_VERSION},\"capacity\":{capacity},\
         \"entries\":["
    );
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"fingerprint\":\"{:016x}\",\"exemplar\":\"{}\",\"hits\":{},\
             \"overcount\":{},\"total_bytes\":{},\"max_bytes\":{},\"latency\":{}}}",
            e.fingerprint,
            escape(&e.exemplar),
            e.hits,
            e.overcount,
            e.total_bytes,
            e.max_bytes,
            histogram_json(&e.latency)
        );
    }
    out.push_str("]}");
    out
}

/// Renders the workload table as Prometheus series with `fingerprint`
/// labels — appended after [`render_prometheus`] by the server when
/// `GET /workload?format=prometheus` is asked, so the base exposition
/// (and its golden test) stays byte-identical.
///
/// Everything is a gauge, not a counter: space-saving eviction can
/// recycle an entry, so a series may reset or vanish between scrapes.
pub fn render_workload_prometheus(entries: &[WorkloadEntry]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP qof_workload_hits Observations counted against the fingerprint \
         (space-saving: up to `overcount` may be inherited)."
    );
    let _ = writeln!(out, "# TYPE qof_workload_hits gauge");
    for e in entries {
        let _ =
            writeln!(out, "qof_workload_hits{{fingerprint=\"{:016x}\"}} {}", e.fingerprint, e.hits);
    }
    let _ = writeln!(out, "# HELP qof_workload_bytes_total Bytes touched per fingerprint.");
    let _ = writeln!(out, "# TYPE qof_workload_bytes_total gauge");
    for e in entries {
        let _ = writeln!(
            out,
            "qof_workload_bytes_total{{fingerprint=\"{:016x}\"}} {}",
            e.fingerprint, e.total_bytes
        );
    }
    let _ = writeln!(out, "# HELP qof_workload_latency_seconds Per-fingerprint query latency.");
    let _ = writeln!(out, "# TYPE qof_workload_latency_seconds histogram");
    for e in entries {
        let label = format!("fingerprint=\"{:016x}\"", e.fingerprint);
        histogram_series(&mut out, "qof_workload_latency_seconds", &label, &e.latency);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_json::{get, get_arr, get_u64, Json};
    use crate::trace::{MetricsRegistry, OpTrace};

    /// A snapshot with a fully known content: 3 queries (1 error), plan
    /// cache 2/1, two ops, a 4096-byte index over 10 000 corpus bytes.
    /// Latencies land in known log₂ buckets.
    fn known_snapshot() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.record_query(1_000, true); // bucket [512, 1024) → le 1024ns
        reg.record_query(1_000, true);
        reg.record_query(1 << 20, false); // le 2^21 ns
        reg.record_op_trace(&[
            OpTrace { op: "⊃", nanos: 600, ..OpTrace::default() }, // le 1024ns
            OpTrace { op: "σ", nanos: 100, ..OpTrace::default() }, // le 128ns
        ]);
        reg.snapshot((2, 1), (4096, 10_000))
    }

    #[test]
    fn prometheus_rendering_is_golden() {
        let text = render_prometheus(&known_snapshot());
        let want = "\
# HELP qof_queries_total Queries executed (successes and failures).
# TYPE qof_queries_total counter
qof_queries_total 3
# HELP qof_query_errors_total Queries that returned an error.
# TYPE qof_query_errors_total counter
qof_query_errors_total 1
# HELP qof_plan_cache_hits_total Optimized-plan cache hits.
# TYPE qof_plan_cache_hits_total counter
qof_plan_cache_hits_total 2
# HELP qof_plan_cache_misses_total Optimized-plan cache misses.
# TYPE qof_plan_cache_misses_total counter
qof_plan_cache_misses_total 1
# HELP qof_index_bytes Resident word-index footprint in bytes.
# TYPE qof_index_bytes gauge
qof_index_bytes 4096
# HELP qof_corpus_bytes Corpus text bytes behind the index.
# TYPE qof_corpus_bytes gauge
qof_corpus_bytes 10000
# HELP qof_query_latency_seconds End-to-end query latency.
# TYPE qof_query_latency_seconds histogram
qof_query_latency_seconds_bucket{le=\"0.000001024\"} 2
qof_query_latency_seconds_bucket{le=\"0.002097152\"} 3
qof_query_latency_seconds_bucket{le=\"+Inf\"} 3
qof_query_latency_seconds_sum 0.001050576
qof_query_latency_seconds_count 3
# HELP qof_op_latency_seconds Per-operator evaluation latency (exclusive time).
# TYPE qof_op_latency_seconds histogram
qof_op_latency_seconds_bucket{op=\"σ\",le=\"0.000000128\"} 1
qof_op_latency_seconds_bucket{op=\"σ\",le=\"+Inf\"} 1
qof_op_latency_seconds_sum{op=\"σ\"} 0.0000001
qof_op_latency_seconds_count{op=\"σ\"} 1
qof_op_latency_seconds_bucket{op=\"⊃\",le=\"0.000001024\"} 1
qof_op_latency_seconds_bucket{op=\"⊃\",le=\"+Inf\"} 1
qof_op_latency_seconds_sum{op=\"⊃\"} 0.0000006
qof_op_latency_seconds_count{op=\"⊃\"} 1
";
        assert_eq!(text, want);
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_at_inf() {
        let text = render_prometheus(&known_snapshot());
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("qof_query_latency_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
        assert_eq!(*buckets.last().unwrap(), 3, "+Inf bucket carries the total count");
    }

    #[test]
    fn empty_snapshot_renders_cleanly() {
        let snap = MetricsRegistry::new().snapshot((0, 0), (0, 0));
        let text = render_prometheus(&snap);
        assert!(text.contains("qof_queries_total 0"));
        assert!(text.contains("qof_query_latency_seconds_bucket{le=\"+Inf\"} 0"));
        assert!(!text.contains("qof_op_latency_seconds"), "no op series when none recorded");
        assert!(text.contains("qof_index_bytes 0\n"), "{text}");
        let json = snapshot_to_json(&snap);
        assert!(json.contains("\"queries\":0"));
        assert!(json.contains("\"phase_latency\":{},\"op_latency\":{}"), "{json}");
        assert!(json.contains("\"index_bytes\":0,\"corpus_bytes\":0"), "{json}");
    }

    #[test]
    fn json_document_matches_the_snapshot() {
        let snap = known_snapshot();
        let json = snapshot_to_json(&snap);
        assert!(json.contains("\"queries\":3,\"query_errors\":1"));
        assert!(!json.contains("\"cache_hits\""), "{json}");
        assert!(json.contains("\"plan_cache_hits\":2,\"plan_cache_misses\":1"), "{json}");
        assert!(json.contains("\"plan_cache_hit_rate\":0.6666666666666666"), "{json}");
        assert!(json.contains("\"index_bytes\":4096,\"corpus_bytes\":10000"), "{json}");
        assert!(json.contains("\"le_nanos\":1024,\"count\":2"), "{json}");
        assert!(json.contains("\"⊃\""));
        // Structural sanity: balanced braces, no trailing commas.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
        assert!(!json.contains(",}") && !json.contains(",]"), "{json}");
    }

    #[test]
    fn phase_histograms_render_in_both_surfaces() {
        let reg = MetricsRegistry::new();
        reg.record_phases([("parse", 100), ("index-candidates", 600)]);
        let snap = reg.snapshot((0, 0), (0, 0));
        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE qof_phase_latency_seconds histogram"), "{text}");
        assert!(
            text.contains("qof_phase_latency_seconds_count{phase=\"index-candidates\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("qof_phase_latency_seconds_bucket{phase=\"parse\",le=\"0.000000128\"} 1"),
            "{text}"
        );
        let json = snapshot_to_json(&snap);
        let parsed = Json::parse(&json).expect("snapshot parses");
        let obj = parsed.as_obj().unwrap();
        let phases = get(obj, "phase_latency").unwrap().as_obj().unwrap();
        let parse = get(phases, "parse").unwrap().as_obj().unwrap();
        assert_eq!(get_u64(parse, "count").unwrap(), 1);
        assert_eq!(get_u64(parse, "sum_nanos").unwrap(), 100);
    }

    #[test]
    fn label_escaping() {
        assert_eq!(esc_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc_label("⊃"), "⊃");
    }

    #[test]
    fn workload_json_and_prometheus() {
        use crate::workload::{WorkloadObs, WorkloadTable};
        let t = WorkloadTable::new();
        t.observe(&WorkloadObs {
            fingerprint: 0xabcd,
            exemplar: "SELECT r FROM References r",
            nanos: 1_000,
            bytes: 42,
        });
        let snap = t.snapshot();
        let json = workload_to_json(&snap, t.capacity());
        assert!(json.contains("\"schema_version\":5,\"capacity\":64"), "{json}");
        assert!(json.contains("\"fingerprint\":\"000000000000abcd\""), "{json}");
        assert!(json.contains("\"hits\":1,\"overcount\":0,\"total_bytes\""), "{json}");
        assert!(json.contains("\"total_bytes\":42,\"max_bytes\":42"), "{json}");
        assert!(json.contains("\"max_bytes\":42,\"latency\":{"), "{json}");
        assert!(!json.contains("worst_est") && !json.contains("plan_cache"), "{json}");
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
        let parsed = Json::parse(&json).expect("workload document parses");
        let obj = parsed.as_obj().unwrap();
        assert_eq!(get_arr(obj, "entries").unwrap().len(), 1);
        let text = render_workload_prometheus(&snap);
        assert!(text.contains("qof_workload_hits{fingerprint=\"000000000000abcd\"} 1"), "{text}");
        assert!(
            text.contains("qof_workload_bytes_total{fingerprint=\"000000000000abcd\"} 42"),
            "{text}"
        );
        assert!(
            text.contains("qof_workload_latency_seconds_count{fingerprint=\"000000000000abcd\"} 1"),
            "{text}"
        );
    }
}
