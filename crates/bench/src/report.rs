//! Machine-readable experiment reporting: the `BENCH_harness.json` file
//! that CI archives and validates. The format is hand-rolled (the crate is
//! dependency-free so the workspace builds offline) and deliberately flat:
//!
//! ```json
//! {
//!   "schema_version": 4,
//!   "scale": "small",
//!   "total_wall_secs": 1.25,
//!   "experiments": [
//!     { "id": "a5", "title": "…", "wall_secs": 0.42,
//!       "trace": { "schema_version": 8, "query": "…", "phases": [], … },
//!       "measurements": [
//!         { "name": "analytics_overhead_pct_200", "value": 0.4, "unit": "%" }
//!       ] }
//!   ]
//! }
//! ```
//!
//! Schema history: v2 added the optional per-experiment `trace` block — a
//! full `QueryTrace` document (see `qof_core::TRACE_SCHEMA_VERSION`) with
//! per-operator timings, per-phase breakdowns and the run's cache hit
//! ratio. v3 added the `e12` server-load experiment to the canonical run
//! order and bumped embedded traces to trace schema v2 (which carries the
//! query `id`). All v2 fields are unchanged. Embedded traces follow
//! `qof_core::TRACE_SCHEMA_VERSION` as it evolves (v3 adds per-rewrite
//! `certified` and the static `facts` array; v4 adds estimated-vs-actual
//! cardinalities and plan-cache counters); the `a2` analyzer-overhead and
//! `a3` cost-model experiments joined the canonical order without a report
//! schema bump — experiments are data, not schema. v4 marks the embedded
//! traces' move to trace schema v5, which restructures every operator span
//! (sink-assigned `span_id`, timeline `start_nanos` offsets on ops, phases
//! and shards) — a consumer reading v4 must be span-aware; the `a4`
//! observability experiment rode along as data, and the retired `e11`
//! and `a4` experiments left the canonical order without a bump.

use std::fmt::Write as _;
use std::path::Path;

use qof_pat::json::escape;

/// One named scalar an experiment measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Measurement name, unique within its experiment (e.g. `index_secs_800`).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label: `s`, `x` (ratio), `B`, `regions`, …
    pub unit: &'static str,
}

/// Everything one experiment run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment id (`f2`, `e1` … `e13`, `a1` … `a5`; `e11` and `a4` are
    /// retired).
    pub id: &'static str,
    /// Human title, matching the harness banner.
    pub title: &'static str,
    /// Wall-clock seconds of the whole experiment (setup included).
    pub wall_secs: f64,
    /// Key numbers the experiment printed.
    pub measurements: Vec<Measurement>,
    /// An optional pre-serialized `QueryTrace` JSON document from a traced
    /// run of the experiment's representative query, embedded verbatim
    /// under `"trace"`. Must be the output of `QueryTrace::to_json` (the
    /// renderer trusts it to be valid JSON).
    pub trace_json: Option<String>,
}

/// A JSON number (or `null` for non-finite values, which JSON cannot hold).
/// Negative zero (e.g. an empty `f64` sum) is normalized to plain `0`.
fn num(v: f64) -> String {
    if v.is_finite() {
        let v = if v == 0.0 { 0.0 } else { v };
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Renders the full report document.
pub fn render_json(scale: &str, reports: &[ExperimentReport]) -> String {
    let total: f64 = reports.iter().map(|r| r.wall_secs).sum();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": 4,");
    let _ = writeln!(out, "  \"scale\": \"{}\",", escape(scale));
    let _ = writeln!(out, "  \"total_wall_secs\": {},", num(total));
    out.push_str("  \"experiments\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"id\": \"{}\",", escape(r.id));
        let _ = writeln!(out, "      \"title\": \"{}\",", escape(r.title));
        let _ = writeln!(out, "      \"wall_secs\": {},", num(r.wall_secs));
        if let Some(trace) = &r.trace_json {
            let _ = writeln!(out, "      \"trace\": {trace},");
        }
        out.push_str("      \"measurements\": [\n");
        for (j, m) in r.measurements.iter().enumerate() {
            let comma = if j + 1 == r.measurements.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "        {{ \"name\": \"{}\", \"value\": {}, \"unit\": \"{}\" }}{comma}",
                escape(&m.name),
                num(m.value),
                escape(m.unit),
            );
        }
        out.push_str("      ]\n");
        let comma = if i + 1 == reports.len() { "" } else { "," };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the report document to `path`.
pub fn write_json(path: &Path, scale: &str, reports: &[ExperimentReport]) -> std::io::Result<()> {
    std::fs::write(path, render_json(scale, reports))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_escaped_valid_json() {
        let reports = vec![ExperimentReport {
            id: "e12",
            title: "quote \" and slash \\",
            wall_secs: 0.5,
            measurements: vec![
                Measurement { name: "speedup".into(), value: 2.0, unit: "x" },
                Measurement { name: "bad".into(), value: f64::INFINITY, unit: "s" },
            ],
            trace_json: None,
        }];
        let json = render_json("small", &reports);
        assert!(json.contains("\"schema_version\": 4"));
        assert!(!json.contains("\"trace\""), "no trace block unless one was attached");
        assert!(json.contains("quote \\\" and slash \\\\"));
        assert!(json.contains("\"value\": null"), "non-finite values become null");
        assert!(json.contains("\"total_wall_secs\": 0.5"));
        // Balanced braces/brackets is a cheap structural sanity check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn empty_report_is_well_formed() {
        let json = render_json("full", &[]);
        assert!(json.contains("\"experiments\": [\n  ]"));
        assert!(json.contains("\"total_wall_secs\": 0"));
    }

    #[test]
    fn trace_block_embeds_verbatim() {
        let reports = vec![ExperimentReport {
            id: "e12",
            title: "t",
            wall_secs: 0.1,
            measurements: vec![],
            trace_json: Some("{\"schema_version\":1,\"ops\":[]}".to_owned()),
        }];
        let json = render_json("small", &reports);
        assert!(json.contains("\"trace\": {\"schema_version\":1,\"ops\":[]},"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }
}
