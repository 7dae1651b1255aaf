#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # qof-server
//!
//! A long-running query server over a [`FileDatabase`]: load the corpus
//! and its indexes once, then answer queries over HTTP. Dependency-free —
//! the HTTP layer is a small hand-rolled HTTP/1.1 implementation on
//! [`std::net::TcpListener`] with thread-per-connection and keep-alive.
//!
//! Endpoints:
//!
//! * `POST /query` — query text in the body, JSON results back; append
//!   `?explain=1` to attach the full [`QueryTrace`] to the response.
//! * `GET /metrics` — Prometheus text exposition (v0.0.4) of the database's
//!   [`MetricsSnapshot`]; `?format=json` returns the same snapshot as the
//!   `qof stats --json` document (both renderers live in `qof_pat`): query
//!   and per-operator latency, one latency histogram per query phase, the
//!   plan cache's lookup counters and the index footprint.
//! * `GET /healthz` — liveness plus uptime and query count.
//! * `GET /flight-recorder` — the last N traces and recent slow traces;
//!   `?format=perfetto` exports the whole window as a Chrome trace-event
//!   document (openable in Perfetto).
//! * `GET /flight-recorder/{id}` — one retained trace by query ID, also
//!   with `?format=perfetto`.
//! * `POST /shutdown` — stop accepting and drain.
//!
//! Every `/query` request — success or failure — appends one JSON line to
//! the structured query log; `qof_queries_total` and the log line count
//! advance in lockstep. `/metrics` reads
//! [`FileDatabase::metrics_snapshot`]: the counters every query of the
//! served database records, the plan cache's own counters and the index
//! footprint, each read when the scrape arrives.
//!
//! [`QueryTrace`]: qof_core::QueryTrace
//! [`MetricsSnapshot`]: qof_pat::MetricsSnapshot

pub mod http;
mod qlog;
mod recorder;

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use qof_core::{trace_to_perfetto, traces_to_perfetto, FileDatabase};
use qof_pat::json::escape;
use qof_pat::{render_prometheus, render_workload_prometheus, snapshot_to_json, workload_to_json};

pub use http::Client;
use http::{read_request, write_response, Request, RequestError};
pub use qlog::{error_line, normalize_query, success_line, QueryLog, DEFAULT_QLOG_KEEP};
pub use recorder::FlightRecorder;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Queries at least this slow (milliseconds) are pinned in the flight
    /// recorder's slow ring.
    pub slow_ms: u64,
    /// Capacity of each flight-recorder ring.
    pub recorder_capacity: usize,
    /// Socket read and write timeout in milliseconds (0 disables). A
    /// client that stalls mid-request — or holds a keep-alive connection
    /// open without sending anything — is dropped after this long,
    /// freeing its handler thread; a response write blocks no longer on a
    /// peer that stops draining. Without it a stalled peer pins a thread
    /// forever.
    pub timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { slow_ms: 100, recorder_capacity: 64, timeout_ms: 30_000 }
    }
}

struct State {
    db: FileDatabase,
    recorder: FlightRecorder,
    log: QueryLog,
    shutdown: AtomicBool,
    started: Instant,
    addr: SocketAddr,
    /// The socket timeout; `None` (from `timeout_ms` 0) disables it.
    timeout: Option<std::time::Duration>,
}

/// A running server: its bound address and the means to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Query-log lines written so far.
    pub fn log_lines_written(&self) -> u64 {
        self.state.log.lines_written()
    }

    /// Stops accepting connections and joins the accept thread. In-flight
    /// connection handlers finish their current request and exit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the accept loop exits — i.e. until some client issues
    /// `POST /shutdown`. This is `qof serve`'s foreground mode.
    pub fn wait(mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }

    fn stop(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept()`; a throwaway connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts serving `db` on `listener`. `/metrics` reads
/// [`FileDatabase::metrics_snapshot`], and every successful
/// query's trace goes to the flight recorder. Returns immediately; the
/// accept loop runs on its own thread.
pub fn serve(
    db: FileDatabase,
    listener: TcpListener,
    log: QueryLog,
    config: &ServerConfig,
) -> std::io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let recorder =
        FlightRecorder::new(config.recorder_capacity, config.slow_ms.saturating_mul(1_000_000));
    let state = Arc::new(State {
        db,
        recorder,
        log,
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        addr,
        timeout: (config.timeout_ms > 0)
            .then(|| std::time::Duration::from_millis(config.timeout_ms)),
    });

    let accept_state = Arc::clone(&state);
    let accept = std::thread::Builder::new().name("qof-accept".into()).spawn(move || {
        for stream in listener.incoming() {
            if accept_state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let conn_state = Arc::clone(&accept_state);
            let _ = std::thread::Builder::new()
                .name("qof-conn".into())
                .spawn(move || handle_connection(&conn_state, stream));
        }
    })?;

    Ok(ServerHandle { addr, state, accept: Some(accept) })
}

/// Serves one connection until the client closes it, asks to, stalls past
/// the configured timeout, or errors.
fn handle_connection(state: &State, stream: TcpStream) {
    if stream.set_read_timeout(state.timeout).is_err()
        || stream.set_write_timeout(state.timeout).is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return, // clean EOF between requests
            // A stalled client gets no response — it is not reading one —
            // just its connection back. The thread frees itself.
            Err(RequestError::TimedOut) => return,
            Err(RequestError::Malformed(e)) => {
                let body = format!("{{\"error\":\"{}\"}}", escape(&e));
                let _ = write_response(&mut stream, 400, "application/json", &body, false);
                return;
            }
        };
        let (status, content_type, body) = route(state, &req);
        // Checked *after* routing: `POST /shutdown` sets the flag while
        // handling this very request, and its own response must close the
        // connection rather than hold it open.
        let keep_alive = req.keep_alive && !state.shutdown.load(Ordering::SeqCst);
        let write_ok = write_response(&mut stream, status, content_type, &body, keep_alive).is_ok();
        if state.shutdown.load(Ordering::SeqCst) {
            // Wake the accept loop (blocked in `accept()`) only now that the
            // response bytes are in the socket: the foreground process exits
            // as soon as the accept thread does, and waking first races that
            // exit against the shutdown reply reaching the client.
            let _ = TcpStream::connect(state.addr);
        }
        if !write_ok || !keep_alive {
            return;
        }
    }
}

fn route(state: &State, req: &Request) -> (u16, &'static str, String) {
    const JSON: &str = "application/json";
    const PROM: &str = "text/plain; version=0.0.4";
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/query") => handle_query(state, req),
        ("GET", "/metrics") => {
            let snap = state.db.metrics_snapshot();
            if req.query_param("format") == Some("json") {
                (200, JSON, snapshot_to_json(&snap))
            } else {
                (200, PROM, render_prometheus(&snap))
            }
        }
        ("GET", "/healthz") => {
            let snap = state.db.metrics_snapshot();
            let body = format!(
                "{{\"status\":\"ok\",\"uptime_ms\":{},\"queries\":{},\"query_errors\":{},\
                 \"log_lines\":{}}}",
                state.started.elapsed().as_millis(),
                snap.queries,
                snap.query_errors,
                state.log.lines_written(),
            );
            (200, JSON, body)
        }
        ("GET", "/flight-recorder") => {
            if req.query_param("format") == Some("perfetto") {
                (200, JSON, traces_to_perfetto(&state.recorder.window()))
            } else {
                (200, JSON, state.recorder.to_json())
            }
        }
        ("GET", p) if p.strip_prefix("/flight-recorder/").is_some() => {
            handle_recorded(state, req, p.strip_prefix("/flight-recorder/").unwrap_or_default())
        }
        ("GET", "/workload") => {
            let workload = state.db.workload();
            let entries = workload.snapshot();
            if req.query_param("format") == Some("prometheus") {
                (200, PROM, render_workload_prometheus(&entries))
            } else {
                (200, JSON, workload_to_json(&entries, workload.capacity()))
            }
        }
        ("POST", "/shutdown") => {
            // Only sets the flag; the caller wakes the accept loop after the
            // response is written so the client reliably sees the reply.
            state.shutdown.store(true, Ordering::SeqCst);
            (200, JSON, "{\"status\":\"shutting down\"}".to_owned())
        }
        (_, "/query" | "/shutdown") | ("POST" | "PUT" | "DELETE", _) => {
            (405, JSON, "{\"error\":\"method not allowed\"}".to_owned())
        }
        _ => (404, JSON, "{\"error\":\"not found\"}".to_owned()),
    }
}

/// `GET /flight-recorder/{id}`: one retained trace by query ID, as trace
/// JSON or (`?format=perfetto`) as a Chrome trace-event document.
fn handle_recorded(state: &State, req: &Request, id: &str) -> (u16, &'static str, String) {
    const JSON: &str = "application/json";
    let Ok(id) = id.parse::<u64>() else {
        return (400, JSON, "{\"error\":\"trace id must be a number\"}".to_owned());
    };
    let Some(trace) = state.recorder.find(id) else {
        return (404, JSON, format!("{{\"error\":\"no retained trace with id {id}\"}}"));
    };
    if req.query_param("format") == Some("perfetto") {
        (200, JSON, trace_to_perfetto(&trace))
    } else {
        (200, JSON, trace.to_json())
    }
}

/// `POST /query`: runs the body as a query. Draws the query ID before
/// executing so a failure is still logged under the ID it consumed.
fn handle_query(state: &State, req: &Request) -> (u16, &'static str, String) {
    const JSON: &str = "application/json";
    let Ok(src) = std::str::from_utf8(&req.body) else {
        // Never reached the engine: neither a metrics count nor a log line.
        return (400, JSON, "{\"error\":\"body is not UTF-8\"}".to_owned());
    };
    let src = src.trim();
    if src.is_empty() {
        return (400, JSON, "{\"error\":\"empty query body\"}".to_owned());
    }
    let id = state.db.allocate_query_id();
    let started = Instant::now();
    match state.db.query_traced_with_id(src, id) {
        Ok((res, trace)) => {
            state.log.log_success(&trace);
            state.recorder.record(&trace);
            let mut body = format!(
                "{{\"id\":{id},\"results\":{},\"candidates\":{},\"exact_index\":{},\
                 \"total_nanos\":{},\"values\":[",
                trace.results, trace.candidates, trace.exact_index, trace.total_nanos
            );
            for (i, v) in res.values.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push('"');
                body.push_str(&escape(&v.to_string()));
                body.push('"');
            }
            body.push(']');
            if req.query_param("explain") == Some("1") {
                body.push_str(",\"trace\":");
                body.push_str(&trace.to_json());
            }
            body.push('}');
            (200, JSON, body)
        }
        Err(e) => {
            let msg = e.to_string();
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            state.log.log_error(id, src, &msg, nanos);
            (400, JSON, format!("{{\"id\":{id},\"error\":\"{}\"}}", escape(&msg)))
        }
    }
}

// The tests' JSON reader (see its module doc); no target ships it.
#[cfg(test)]
#[path = "../../../tests/common/json.rs"]
mod test_json;
