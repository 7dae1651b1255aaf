//! The offline qlog analyzer: replays a (possibly rotated) structured
//! query log and rebuilds the same per-fingerprint workload table the
//! server aggregates live at `/workload`. `qof qlog analyze FILE` drives
//! this; CI cross-checks the rebuilt hit counts against the live endpoint.
//!
//! Rotated files are replayed oldest-first — `query.log.3` →
//! `query.log.2` → `query.log.1` → `query.log` — so query IDs run in
//! issue order and the report can assert the chain is contiguous:
//! every ID seen exactly once, no gaps, no reordering.

use std::path::{Path, PathBuf};

use qof_pat::json::{self, Json};
use qof_pat::{workload_to_json, WorkloadObs, WorkloadTable};

use qof_pat::json::escape;

/// Schema version of the `qof qlog analyze --json` envelope. Version 2
/// dropped the `warnings` count: the log holds query lines only. Version
/// 3 embeds the `/workload` v4 document, whose entries carry no
/// plan-cache counts.
pub const QLOG_REPORT_SCHEMA_VERSION: u64 = 3;

/// What one replay of a query-log chain saw.
pub struct QlogReport {
    /// The files replayed, oldest first.
    pub files: Vec<PathBuf>,
    /// Successful query lines (`"outcome":"ok"`).
    pub queries: u64,
    /// Failed query lines (`"outcome":"error"`).
    pub errors: u64,
    /// Lines that failed to parse as qlog JSON.
    pub malformed: u64,
    /// Smallest query ID seen.
    pub first_id: Option<u64>,
    /// Largest query ID seen.
    pub last_id: Option<u64>,
    /// Query IDs seen more than once.
    pub duplicates: u64,
    /// IDs missing from an otherwise ascending chain.
    pub gaps: u64,
    /// Lines whose ID was not strictly greater than the previous one.
    pub out_of_order: u64,
    /// Summed `total_nanos` of every query line.
    pub total_nanos: u64,
    /// Summed `bytes` of every ok line.
    pub total_bytes: u64,
    /// The rebuilt per-fingerprint heavy-hitter table (ok lines only —
    /// the live table is fed by the traced success path, so only ok
    /// lines keep the two aggregations comparable one-to-one).
    pub table: WorkloadTable,
}

impl QlogReport {
    /// Whether the replayed ID chain was complete: every ID from
    /// `first_id` to `last_id` exactly once, in order.
    pub fn ids_contiguous(&self) -> bool {
        self.duplicates == 0 && self.gaps == 0 && self.out_of_order == 0
    }
}

/// The rotation chain for `path`, oldest first: highest-numbered
/// `path.N` down to `path.1`, then the live file. Only files that exist
/// are returned; the live file is always included (missing files surface
/// as the open error during replay).
fn chain_files(path: &Path) -> Vec<PathBuf> {
    let rotated = |n: usize| {
        let mut name = path.as_os_str().to_owned();
        name.push(format!(".{n}"));
        PathBuf::from(name)
    };
    let mut max = 0;
    while rotated(max + 1).exists() {
        max += 1;
    }
    let mut files: Vec<PathBuf> = (1..=max).rev().map(rotated).collect();
    files.push(path.to_path_buf());
    files
}

/// One parsed qlog line folded into the report.
fn fold_line(report: &mut QlogReport, line: &str) {
    let Ok(parsed) = Json::parse(line) else {
        report.malformed += 1;
        return;
    };
    let Some(obj) = parsed.as_obj() else {
        report.malformed += 1;
        return;
    };
    let (Ok(id), Ok(outcome)) = (json::get_u64(obj, "id"), json::get_str(obj, "outcome")) else {
        report.malformed += 1;
        return;
    };
    match report.last_id {
        Some(prev) if id <= prev => {
            if id == prev {
                report.duplicates += 1;
            } else {
                report.out_of_order += 1;
            }
        }
        Some(prev) => report.gaps += id - prev - 1,
        None => {}
    }
    report.first_id = Some(report.first_id.map_or(id, |f| f.min(id)));
    report.last_id = Some(report.last_id.map_or(id, |l| l.max(id)));
    let nanos = json::get_u64(obj, "total_nanos").unwrap_or(0);
    report.total_nanos = report.total_nanos.saturating_add(nanos);
    if outcome != "ok" {
        report.errors += 1;
        return;
    }
    report.queries += 1;
    // Pre-fingerprint logs lack `fp`; group those lines under zero
    // rather than rejecting the whole file.
    let fingerprint = json::get_str(obj, "fp")
        .ok()
        .and_then(|hex| u64::from_str_radix(&hex, 16).ok())
        .unwrap_or(0);
    let bytes = json::get_u64(obj, "bytes").unwrap_or(0);
    report.total_bytes = report.total_bytes.saturating_add(bytes);
    report.table.observe(&WorkloadObs {
        fingerprint,
        exemplar: &json::get_str(obj, "query").unwrap_or_default(),
        nanos,
        bytes,
    });
}

/// Replays the query-log chain rooted at `path` (rotations oldest-first,
/// then the live file) and rebuilds the workload table plus chain
/// integrity counters. Fails only if a chain file cannot be read.
pub fn analyze_qlog(path: &Path) -> std::io::Result<QlogReport> {
    let files = chain_files(path);
    let mut report = QlogReport {
        files: files.clone(),
        queries: 0,
        errors: 0,
        malformed: 0,
        first_id: None,
        last_id: None,
        duplicates: 0,
        gaps: 0,
        out_of_order: 0,
        total_nanos: 0,
        total_bytes: 0,
        table: WorkloadTable::new(),
    };
    for file in &files {
        let content = std::fs::read_to_string(file)?;
        for line in content.lines().filter(|l| !l.trim().is_empty()) {
            fold_line(&mut report, line);
        }
    }
    Ok(report)
}

/// The human-readable analyzer report.
pub fn render_report(report: &QlogReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "qlog chain ({} file(s)):", report.files.len());
    for file in &report.files {
        let _ = writeln!(out, "  {}", file.display());
    }
    let _ = writeln!(
        out,
        "lines: {} ok, {} error, {} malformed",
        report.queries, report.errors, report.malformed
    );
    if let (Some(first), Some(last)) = (report.first_id, report.last_id) {
        let verdict = if report.ids_contiguous() {
            "contiguous".to_owned()
        } else {
            format!(
                "{} duplicate(s), {} gap(s), {} out of order",
                report.duplicates, report.gaps, report.out_of_order
            )
        };
        let _ = writeln!(out, "ids: {first}..={last} — {verdict}");
    }
    let _ = writeln!(
        out,
        "totals: {:.3}s query time, {} bytes touched",
        report.total_nanos as f64 / 1e9,
        report.total_bytes
    );
    let entries = report.table.snapshot();
    let _ = writeln!(out, "top fingerprints ({}):", entries.len());
    let _ =
        writeln!(out, "  {:<16} {:>6} {:>9} {:>9}  exemplar", "fingerprint", "hits", "p50", "p95");
    for e in &entries {
        let s = e.latency.summary();
        let mut exemplar = e.exemplar.clone();
        if exemplar.chars().count() > 48 {
            exemplar = exemplar.chars().take(47).collect::<String>() + "…";
        }
        let _ = writeln!(
            out,
            "  {:016x} {:>6} {:>8.3}ms {:>8.3}ms  {}",
            e.fingerprint,
            e.hits,
            s.p50_nanos as f64 / 1e6,
            s.p95_nanos as f64 / 1e6,
            exemplar
        );
    }
    out
}

/// The `--json` envelope: chain integrity counters plus the same
/// workload JSON `GET /workload` serves, for machine cross-checks.
pub fn report_json(report: &QlogReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{{\"schema_version\":{QLOG_REPORT_SCHEMA_VERSION},\"files\":[");
    for (i, file) in report.files.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", escape(&file.display().to_string()));
    }
    let _ = write!(
        out,
        "],\"queries\":{},\"errors\":{},\"malformed\":{}",
        report.queries, report.errors, report.malformed
    );
    if let (Some(first), Some(last)) = (report.first_id, report.last_id) {
        let _ = write!(out, ",\"first_id\":{first},\"last_id\":{last}");
    }
    let _ = write!(
        out,
        ",\"duplicates\":{},\"gaps\":{},\"out_of_order\":{},\"ids_contiguous\":{},\
         \"total_nanos\":{},\"total_bytes\":{},\"workload\":{}",
        report.duplicates,
        report.gaps,
        report.out_of_order,
        report.ids_contiguous(),
        report.total_nanos,
        report.total_bytes,
        workload_to_json(&report.table.snapshot(), report.table.capacity())
    );
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qlog::QueryLog;
    use qof_core::QueryTrace;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qof-analyze-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn trace(id: u64, fp: u64, nanos: u64) -> QueryTrace {
        QueryTrace {
            id,
            fingerprint: fp,
            query: "SELECT r FROM References r".into(),
            total_nanos: nanos,
            bytes_touched: 100,
            candidates: 10,
            results: 2,
            ..Default::default()
        }
    }

    #[test]
    fn analyzer_rebuilds_the_workload_table() {
        let dir = tmp_dir("rebuild");
        let path = dir.join("query.log");
        {
            let log = QueryLog::rotating(&path, 0, 0).unwrap();
            for id in 1..=6 {
                let fp = if id % 2 == 0 { 0xaaaa } else { 0xbbbb };
                log.log_success(&trace(id, fp, 1_000_000));
            }
            log.log_error(7, "SELEC nope", "syntax", 5_000);
        }
        let report = analyze_qlog(&path).unwrap();
        assert_eq!((report.queries, report.errors), (6, 1));
        assert_eq!((report.first_id, report.last_id), (Some(1), Some(7)));
        assert!(report.ids_contiguous());
        assert_eq!(report.total_bytes, 600);
        let entries = report.table.snapshot();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|e| e.hits == 3));
        let json = report_json(&report);
        assert!(json.contains("\"queries\":6"), "{json}");
        assert!(json.contains("\"ids_contiguous\":true"), "{json}");
        assert!(json.contains("\"workload\":{\"schema_version\":4,"), "{json}");
        assert!(!json.contains("plan_cache"), "{json}");
        let text = render_report(&report);
        assert!(text.contains("ids: 1..=7 — contiguous"), "{text}");
        assert!(text.contains("000000000000aaaa"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn analyzer_replays_rotations_in_id_order() {
        // Satellite: write through at least two rotations, then assert the
        // analyzer sees every id exactly once, contiguous and in order
        // across `.N → … → .1 → base`.
        let dir = tmp_dir("rotate");
        let path = dir.join("query.log");
        let total = 60u64;
        {
            // ~190-byte lines against a 600-byte cap: a rotation every
            // ~3 lines, far more than the keep count — the oldest files
            // fall off and only a suffix of the id space survives.
            let log = QueryLog::rotating(&path, 600, 3).unwrap();
            for id in 1..=total {
                log.log_success(&trace(id, 0xcafe, 2_000_000));
            }
        }
        assert!(dir.join("query.log.3").exists(), "cap forces >= 3 rotations");
        let report = analyze_qlog(&path).unwrap();
        assert_eq!(report.files.len(), 4, "chain is .3, .2, .1, base");
        assert!(report.ids_contiguous(), "no duplicate, gap or reorder across the chain");
        let (first, last) = (report.first_id.unwrap(), report.last_id.unwrap());
        assert_eq!(last, total);
        assert_eq!(report.queries, last - first + 1, "every surviving id exactly once");
        assert!(report.queries >= 8, "at least two full rotations survived");
        let entries = report.table.snapshot();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].hits, report.queries);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_and_legacy_lines_are_tolerated() {
        let dir = tmp_dir("legacy");
        let path = dir.join("query.log");
        // A legacy line without `fp`/`bytes` plus junk.
        std::fs::write(
            &path,
            "{\"ts_ms\":1,\"id\":1,\"query\":\"q\",\"outcome\":\"ok\",\"total_nanos\":10,\
             \"candidates\":1,\"results\":1,\"cache_hits\":0,\"cache_misses\":1,\
             \"exact_index\":false}\nnot json\n",
        )
        .unwrap();
        let report = analyze_qlog(&path).unwrap();
        assert_eq!((report.queries, report.malformed), (1, 1));
        let entries = report.table.snapshot();
        assert_eq!(entries[0].fingerprint, 0, "legacy lines group under fp 0");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
