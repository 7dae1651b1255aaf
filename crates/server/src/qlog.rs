//! The structured query log: one JSON line per `/query` request —
//! successes and failures alike — carrying the query ID, the normalized
//! query text, timings, cardinalities and the outcome.
//! `qof_queries_total` in `/metrics` and the number of *query* lines
//! written here advance in lockstep; CI asserts that.
//!
//! With `--qlog-max-bytes` the log rotates: when appending a line would
//! push the current file past the cap, `query.log` is renamed to
//! `query.log.1` (existing rotations shift to `.2`, `.3`, …, the oldest
//! beyond the keep count is deleted) and a fresh file is started. The
//! rotation happens *between* lines, so no line is ever split or lost.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use qof_core::QueryTrace;

use qof_pat::json::escape;

/// Rotated files kept around (`query.log.1` … `query.log.N`).
pub const DEFAULT_QLOG_KEEP: usize = 3;

/// Collapses whitespace runs so multi-line queries become one log token.
pub fn normalize_query(src: &str) -> String {
    src.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn now_ms() -> u128 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis())
}

/// The log line for a successful traced query (no trailing newline). The
/// query fingerprint is rendered as a fixed 16-hex-digit string — like the
/// trace JSON, because a u64 does not survive an f64 round-trip as a JSON
/// number — so `qof qlog analyze` rebuilds the same workload table the
/// server aggregates live.
pub fn success_line(trace: &QueryTrace, ts_ms: u128) -> String {
    format!(
        "{{\"ts_ms\":{ts_ms},\"id\":{},\"fp\":\"{:016x}\",\"query\":\"{}\",\"outcome\":\"ok\",\
         \"total_nanos\":{},\"bytes\":{},\"candidates\":{},\"results\":{},\"exact_index\":{}}}",
        trace.id,
        trace.fingerprint,
        escape(&normalize_query(&trace.query)),
        trace.total_nanos,
        trace.bytes_touched,
        trace.candidates,
        trace.results,
        trace.exact_index,
    )
}

/// The log line for a failed query (no trailing newline). A failed query
/// died before planning finished, so it has no fingerprint; the analyzer
/// groups these under the all-zero fingerprint.
pub fn error_line(id: u64, query: &str, error: &str, total_nanos: u64, ts_ms: u128) -> String {
    format!(
        "{{\"ts_ms\":{ts_ms},\"id\":{id},\"fp\":\"{:016x}\",\"query\":\"{}\",\
         \"outcome\":\"error\",\"error\":\"{}\",\"total_nanos\":{total_nanos}}}",
        0u64,
        escape(&normalize_query(query)),
        escape(error),
    )
}

/// Where log lines go: a plain stream, or a size-capped rotating file.
enum LogSink {
    Stream(Box<dyn Write + Send>),
    Rotating(RotatingFile),
}

/// An append-only file that rotates between lines once it would exceed
/// `max_bytes`.
struct RotatingFile {
    path: PathBuf,
    max_bytes: u64,
    keep: usize,
    file: File,
    bytes: u64,
}

impl RotatingFile {
    fn open(path: &Path, max_bytes: u64, keep: usize) -> std::io::Result<RotatingFile> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = file.metadata().map_or(0, |m| m.len());
        Ok(RotatingFile { path: path.to_path_buf(), max_bytes, keep, file, bytes })
    }

    fn rotated(&self, n: usize) -> PathBuf {
        let mut name = self.path.as_os_str().to_owned();
        name.push(format!(".{n}"));
        PathBuf::from(name)
    }

    /// Shifts `query.log.{i}` → `query.log.{i+1}` (dropping the oldest),
    /// moves the live file to `.1` and starts a fresh one. On any rename
    /// or reopen failure the current file stays in place — a full disk
    /// degrades to an over-long log, never to lost lines.
    fn rotate(&mut self) {
        if self.keep == 0 {
            return;
        }
        let _ = self.file.flush();
        let _ = std::fs::remove_file(self.rotated(self.keep));
        for i in (1..self.keep).rev() {
            let _ = std::fs::rename(self.rotated(i), self.rotated(i + 1));
        }
        if std::fs::rename(&self.path, self.rotated(1)).is_err() {
            return;
        }
        match OpenOptions::new().create(true).append(true).open(&self.path) {
            Ok(file) => {
                self.file = file;
                self.bytes = 0;
            }
            Err(_) => {
                // Put the log back so appends keep landing somewhere.
                let _ = std::fs::rename(self.rotated(1), &self.path);
            }
        }
    }

    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        let needed = line.len() as u64 + 1;
        if self.max_bytes > 0 && self.bytes > 0 && self.bytes + needed > self.max_bytes {
            self.rotate();
        }
        writeln!(self.file, "{line}")?;
        self.file.flush()?;
        self.bytes += needed;
        Ok(())
    }
}

/// A line-oriented JSON log over any `Write` sink (a file for
/// `qof serve --log`, a `Vec<u8>` in tests, [`std::io::sink`] when
/// disabled), optionally size-capped and rotating. Writes are serialized
/// under a mutex so concurrent connection threads never interleave
/// partial lines.
pub struct QueryLog {
    sink: Mutex<LogSink>,
    lines: AtomicU64,
}

impl QueryLog {
    /// A log writing to `sink`.
    pub fn new(sink: Box<dyn Write + Send>) -> QueryLog {
        QueryLog { sink: Mutex::new(LogSink::Stream(sink)), lines: AtomicU64::new(0) }
    }

    /// A log that counts lines but writes nothing (no `--log` flag).
    pub fn discard() -> QueryLog {
        QueryLog::new(Box::new(std::io::sink()))
    }

    /// A rotating file log: once appending a line would push `path` past
    /// `max_bytes`, the file is renamed to `path.1` (shifting existing
    /// rotations up, keeping `keep` of them) and restarted.
    /// `max_bytes == 0` disables rotation.
    pub fn rotating(path: &Path, max_bytes: u64, keep: usize) -> std::io::Result<QueryLog> {
        Ok(QueryLog {
            sink: Mutex::new(LogSink::Rotating(RotatingFile::open(path, max_bytes, keep)?)),
            lines: AtomicU64::new(0),
        })
    }

    /// Lines written so far — this mirrors `qof_queries_total`.
    pub fn lines_written(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }

    /// Appends one line; returns whether it fully reached the sink.
    fn append(&self, line: &str) -> bool {
        let mut sink = self.sink.lock().expect("query log lock");
        // A failed write must not take the server down; the caller only
        // counts the line on success so the metrics cross-check stays
        // honest.
        match &mut *sink {
            LogSink::Stream(w) => writeln!(w, "{line}").is_ok() && w.flush().is_ok(),
            LogSink::Rotating(f) => f.write_line(line).is_ok(),
        }
    }

    /// Appends the line for a successful query.
    pub fn log_success(&self, trace: &QueryTrace) {
        if self.append(&success_line(trace, now_ms())) {
            self.lines.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends the line for a failed query.
    pub fn log_error(&self, id: u64, query: &str, error: &str, total_nanos: u64) {
        if self.append(&error_line(id, query, error, total_nanos, now_ms())) {
            self.lines.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_collapses_whitespace() {
        assert_eq!(normalize_query("SELECT r\n  FROM\tRefs r"), "SELECT r FROM Refs r");
        assert_eq!(normalize_query("  x  "), "x");
    }

    #[test]
    fn success_line_shape() {
        let trace = QueryTrace {
            id: 3,
            fingerprint: 0xdead_beef_0042_0007,
            query: "SELECT r\nFROM References r".into(),
            total_nanos: 1234,
            bytes_touched: 4096,
            candidates: 10,
            results: 2,
            exact_index: true,
            ..Default::default()
        };
        let line = success_line(&trace, 1700000000000);
        assert_eq!(
            line,
            "{\"ts_ms\":1700000000000,\"id\":3,\"fp\":\"deadbeef00420007\",\
             \"query\":\"SELECT r FROM References r\",\"outcome\":\"ok\",\
             \"total_nanos\":1234,\"bytes\":4096,\"candidates\":10,\"results\":2,\
             \"exact_index\":true}"
        );
    }

    #[test]
    fn error_line_escapes_the_message() {
        let line = error_line(9, "SELEC \"x\"", "parse error:\nline 1", 55, 7);
        assert!(line.contains("\"outcome\":\"error\""));
        assert!(line.contains("\"query\":\"SELEC \\\"x\\\"\""));
        assert!(line.contains("\"error\":\"parse error:\\nline 1\""));
    }

    #[test]
    fn log_counts_each_line_once() {
        let log = QueryLog::discard();
        log.log_success(&QueryTrace { id: 1, ..Default::default() });
        log.log_error(2, "bad", "nope", 10);
        assert_eq!(log.lines_written(), 2);
    }

    #[test]
    fn rotation_loses_no_line_and_keeps_n_files() {
        let dir = std::env::temp_dir().join(format!("qof-qlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("query.log");
        // ~160-byte lines against a 400-byte cap: rotation every 2 lines.
        let total = 40u64;
        {
            let log = QueryLog::rotating(&path, 400, 2).unwrap();
            for id in 1..=total {
                log.log_error(id, "SELECT r FROM References r", "synthetic failure", 1_000);
            }
            assert_eq!(log.lines_written(), total);
        }
        // Exactly the live file + the kept rotations exist …
        assert!(path.exists());
        assert!(dir.join("query.log.1").exists());
        assert!(dir.join("query.log.2").exists());
        assert!(!dir.join("query.log.3").exists(), "keep=2 bounds the rotation chain");
        // … every surviving file holds only whole lines, the newest ids
        // are in the live file, and the chain is contiguous: ids run
        // oldest → newest across (.2, .1, live) with nothing missing in
        // between — rotation never drops or splits a line mid-chain.
        let mut ids: Vec<u64> = Vec::new();
        for file in [dir.join("query.log.2"), dir.join("query.log.1"), path.clone()] {
            let content = std::fs::read_to_string(&file).unwrap();
            assert!(content.ends_with('}') || content.ends_with('\n'), "no split line");
            for line in content.lines() {
                assert!(line.starts_with('{') && line.ends_with('}'), "whole line: {line}");
                let id = line.split("\"id\":").nth(1).unwrap();
                ids.push(id.split(',').next().unwrap().parse().unwrap());
            }
        }
        let want: Vec<u64> = ((total - ids.len() as u64 + 1)..=total).collect();
        assert_eq!(ids, want, "surviving ids are contiguous and end at the newest");
        assert!(ids.len() >= 4, "cap forces multiple rotations: {}", ids.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_disabled_when_cap_is_zero() {
        let dir = std::env::temp_dir().join(format!("qof-qlog-nocap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("query.log");
        let log = QueryLog::rotating(&path, 0, 2).unwrap();
        for id in 1..=20 {
            log.log_error(id, "SELECT r FROM References r", "synthetic failure", 1_000);
        }
        assert_eq!(log.lines_written(), 20);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 20);
        assert!(!dir.join("query.log.1").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
