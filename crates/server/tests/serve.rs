//! End-to-end tests: a real server on a loopback listener, a real HTTP
//! client, a generated BibTeX corpus.

use std::net::TcpListener;

use qof_corpus::bibtex;
use qof_grammar::IndexSpec;
use qof_server::{serve, Client, QueryLog, ServerConfig};
use qof_text::Corpus;

const QUERY: &str = "SELECT r FROM References r WHERE r.Year = \"1982\"";

fn test_db() -> qof_core::FileDatabase {
    let (text, _) = bibtex::generate(&bibtex::BibtexConfig::with_refs(30));
    qof_core::FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), IndexSpec::full())
        .unwrap()
}

fn start(log: QueryLog, config: &ServerConfig) -> qof_server::ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    serve(test_db(), listener, log, config).unwrap()
}

#[test]
fn healthz_metrics_and_query_roundtrip() {
    let handle = start(QueryLog::discard(), &ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let (status, body) = client.post("/query", QUERY).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"id\":1"), "{body}");
    assert!(body.contains("\"values\":["), "{body}");
    assert!(!body.contains("\"trace\""), "no trace unless explain=1: {body}");

    let (status, body) = client.post("/query?explain=1", QUERY).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"id\":2"), "{body}");
    assert!(body.contains("\"trace\":{"), "{body}");
    assert!(body.contains("\"schema_version\":9"), "{body}");
    // v8: no cardinality estimates; v9: no plan-cache counts, which are
    // the cache's own and served by /metrics.
    assert!(!body.contains("\"estimates\""), "{body}");
    assert!(!body.contains("plan_cache"), "{body}");

    // Metrics saw both queries — and only them (private registry).
    let (status, metrics) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("qof_queries_total 2"), "{metrics}");
    assert!(metrics.contains("qof_query_errors_total 0"), "{metrics}");
    assert!(metrics.contains("qof_query_latency_seconds_bucket"), "{metrics}");
    // Identical query twice: the second planning pass hits the plan cache.
    assert!(metrics.contains("qof_plan_cache_hits_total 1"), "{metrics}");
    assert!(metrics.contains("qof_plan_cache_misses_total 1"), "{metrics}");

    // The JSON surface is the same snapshot through the other renderer —
    // including the plan-cache counters.
    let (status, json) = client.get("/metrics?format=json").unwrap();
    assert_eq!(status, 200);
    assert!(json.contains("\"queries\":2"), "{json}");
    assert!(json.contains("\"plan_cache_hits\":1"), "{json}");
    assert!(json.contains("\"plan_cache_misses\":1"), "{json}");

    handle.shutdown();
}

#[test]
fn stalled_client_is_dropped_after_the_read_timeout() {
    use std::io::{Read as _, Write as _};

    let config = ServerConfig { timeout_ms: 200, ..Default::default() };
    let handle = start(QueryLog::discard(), &config);

    // A client that sends half a request and then stalls. Without socket
    // timeouts this pinned a handler thread (and the connection) forever.
    let mut stalled = std::net::TcpStream::connect(handle.addr()).unwrap();
    stalled.write_all(b"POST /query HTTP/1.1\r\nContent-Length: 64\r\n\r\npartial").unwrap();
    stalled.flush().unwrap();

    // The server must hang up on its own: the handler thread times out,
    // returns, and drops the socket — observed here as EOF (or a reset).
    stalled.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 64];
    match stalled.read(&mut buf) {
        Ok(0) => {} // clean close
        Err(e) => panic!("expected EOF from server-side close, got {e}"),
        Ok(n) => panic!("expected no response bytes, got {n}"),
    }

    // The server is still healthy for well-behaved clients.
    let mut client = Client::connect(handle.addr()).unwrap();
    let (status, _) = client.post("/query", QUERY).unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn errors_are_logged_and_counted_under_their_id() {
    let handle = start(QueryLog::discard(), &ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    let (status, body) = client.post("/query", "SELEC nope").unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("\"id\":1"), "{body}");
    assert!(body.contains("\"error\":"), "{body}");

    let (_, body) = client.post("/query", QUERY).unwrap();
    assert!(body.contains("\"id\":2"), "the error consumed ID 1: {body}");

    let (_, metrics) = client.get("/metrics").unwrap();
    assert!(metrics.contains("qof_queries_total 2"), "{metrics}");
    assert!(metrics.contains("qof_query_errors_total 1"), "{metrics}");
    // One log line per query, including the failure.
    assert_eq!(handle.log_lines_written(), 2);

    // Malformed requests that never reach the engine count nowhere.
    let (status, _) = client.post("/query", "").unwrap();
    assert_eq!(status, 400);
    assert_eq!(handle.log_lines_written(), 2);

    handle.shutdown();
}

#[test]
fn flight_recorder_correlates_with_responses() {
    let config = ServerConfig { slow_ms: 0, recorder_capacity: 2, ..Default::default() };
    let handle = start(QueryLog::discard(), &config);
    let mut client = Client::connect(handle.addr()).unwrap();
    for _ in 0..3 {
        let (status, _) = client.post("/query", QUERY).unwrap();
        assert_eq!(status, 200);
    }
    let (status, body) = client.get("/flight-recorder").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"capacity\":2"), "{body}");
    // Ring of 2: IDs 2 and 3 remain; with slow_ms 0 every query is "slow".
    let recent = body.split("\"recent\":").nth(1).unwrap();
    assert!(!recent.contains("\"id\":1,"), "oldest trace evicted: {recent}");
    assert!(recent.contains("\"id\":2,") && recent.contains("\"id\":3,"), "{recent}");
    assert!(body.split("\"slow\":").nth(1).unwrap().contains("\"id\":"), "{body}");
    handle.shutdown();
}

#[test]
fn query_log_lines_match_metrics_counter() {
    let dir = std::env::temp_dir().join(format!("qof-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("query.log");
    let file = std::fs::File::create(&log_path).unwrap();
    let handle = start(QueryLog::new(Box::new(file)), &ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    for i in 0..4 {
        let q = if i % 2 == 0 { QUERY } else { "SELEC nope" };
        let _ = client.post("/query", q).unwrap();
    }
    let (_, metrics) = client.get("/metrics").unwrap();
    assert!(metrics.contains("qof_queries_total 4"), "{metrics}");

    let text = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "one log line per query:\n{text}");
    for (i, line) in lines.iter().enumerate() {
        assert!(line.starts_with('{') && line.ends_with('}'), "JSON line: {line}");
        assert!(line.contains(&format!("\"id\":{}", i + 1)), "IDs in order: {line}");
        let want = if i % 2 == 0 { "\"outcome\":\"ok\"" } else { "\"outcome\":\"error\"" };
        assert!(line.contains(want), "{line}");
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perfetto_endpoints_export_recorded_traces() {
    let config = ServerConfig { slow_ms: 0, ..Default::default() };
    let handle = start(QueryLog::discard(), &config);
    let mut client = Client::connect(handle.addr()).unwrap();

    let (status, _) = client.post("/query", QUERY).unwrap();
    assert_eq!(status, 200);
    let (status, _) = client.post("/query", "SELEC nope").unwrap();
    assert_eq!(status, 400);

    // No time-series ring is kept: the endpoint does not exist.
    let (status, _) = client.get("/metrics/history?window=60").unwrap();
    assert_eq!(status, 404);
    // Phase histograms count the successful query only.
    let (_, metrics) = client.get("/metrics").unwrap();
    assert!(
        metrics.contains("qof_phase_latency_seconds_count{phase=\"index-candidates\"} 1"),
        "{metrics}"
    );

    // Perfetto export: the whole window and a single trace by id.
    let (status, body) = client.get("/flight-recorder?format=perfetto").unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["), "{body}");
    assert!(body.contains("\"ph\":\"B\"") && body.contains("\"ph\":\"E\""), "{body}");
    let (status, body) = client.get("/flight-recorder/1?format=perfetto").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"process_name\"") && body.contains("query 1:"), "{body}");
    let (status, body) = client.get("/flight-recorder/1").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"schema_version\":9"), "{body}");
    let (status, _) = client.get("/flight-recorder/999").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.get("/flight-recorder/xyz").unwrap();
    assert_eq!(status, 400);

    handle.shutdown();
}

#[test]
fn workload_endpoint_aggregates_fingerprints() {
    let handle = start(QueryLog::discard(), &ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    // Two spellings of the same shape (whitespace only) plus a different
    // shape: the fingerprint keys the normalized region expression, so
    // the table must show two entries with hits 2 and 1.
    client.post("/query", QUERY).unwrap();
    client.post("/query", "SELECT r\n  FROM References r\n  WHERE r.Year = \"1982\"").unwrap();
    let other = "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"";
    client.post("/query", other).unwrap();

    let (status, body) = client.get("/workload").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"schema_version\":4"), "{body}");
    assert!(body.contains("\"capacity\":64"), "{body}");
    assert!(body.contains("\"hits\":2"), "{body}");
    assert!(body.contains("\"hits\":1"), "{body}");
    assert_eq!(body.matches("\"fingerprint\":").count(), 2, "two shapes: {body}");
    // Plan-cache lookups are the cache's to count, not a shape's.
    assert!(!body.contains("plan_cache"), "{body}");

    let (status, prom) = client.get("/workload?format=prometheus").unwrap();
    assert_eq!(status, 200);
    assert!(prom.contains("# TYPE qof_workload_hits gauge"), "{prom}");
    assert!(prom.contains("} 2"), "{prom}");
    assert!(prom.contains("qof_workload_latency_seconds_bucket"), "{prom}");

    handle.shutdown();
}

#[test]
fn keep_alive_and_fresh_connections_share_the_server() {
    let handle = start(QueryLog::discard(), &ServerConfig::default());
    // Two clients, interleaved requests on persistent connections.
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    let (s1, _) = a.post("/query", QUERY).unwrap();
    let (s2, _) = b.post("/query", QUERY).unwrap();
    let (s3, _) = a.get("/healthz").unwrap();
    assert_eq!((s1, s2, s3), (200, 200, 200));
    let (_, metrics) = b.get("/metrics").unwrap();
    assert!(metrics.contains("qof_queries_total 2"), "{metrics}");

    // Unknown paths and wrong methods get proper statuses.
    let (s404, _) = a.get("/nope").unwrap();
    assert_eq!(s404, 404);
    let (s405, _) = a.get("/query").unwrap();
    assert_eq!(s405, 405);
    handle.shutdown();
}

#[test]
fn shutdown_endpoint_stops_the_accept_loop() {
    let handle = start(QueryLog::discard(), &ServerConfig::default());
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    let (status, body) = client.post("/shutdown", "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("shutting down"), "{body}");
    // The handle's own shutdown (also run by Drop) joins the accept
    // thread; afterwards new connections are refused or go unanswered.
    handle.shutdown();
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.get("/healthz").is_err(), "accept loop must be gone"),
    }
}

#[test]
fn shutdown_reply_is_fully_delivered_before_the_accept_loop_dies() {
    use std::io::{Read as _, Write as _};

    let handle = start(QueryLog::discard(), &ServerConfig::default());

    // Raw socket so we see the exact bytes and the close. The accept loop
    // must only be woken *after* the reply is in the socket — `qof serve`'s
    // foreground process exits the moment the accept thread does, and
    // waking first raced that exit against the reply reaching the client
    // (observed as curl exit 52, empty reply).
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap(); // reads to EOF: server must close
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(reply.contains("\"status\":\"shutting down\""), "{reply}");
    // The shutdown response must not hold the connection open, even though
    // the client asked for (implicit HTTP/1.1) keep-alive.
    assert!(reply.contains("Connection: close"), "{reply}");
    handle.shutdown();
}
