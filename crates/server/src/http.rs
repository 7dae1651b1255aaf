//! A minimal HTTP/1.1 implementation over [`std::net::TcpStream`]: enough
//! of the protocol for the query server (request line, headers,
//! `Content-Length` framing, keep-alive) and a tiny blocking client used
//! by the integration tests and the `e12` load experiment. No external
//! crates, no chunked encoding — requests and responses always carry an
//! explicit `Content-Length`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Largest request body the server accepts (1 MiB — queries are small).
pub const MAX_BODY: usize = 1 << 20;

/// Longest request line or header line the server reads, its line end
/// included (8 KiB).
pub const MAX_LINE: usize = 8 << 10;

/// Most header lines one request may carry.
pub const MAX_HEADERS: usize = 100;

/// A parsed HTTP request: method, path, query string, body.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string (`/query`).
    pub path: String,
    /// Raw query string without the leading `?` (empty if none).
    pub query: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// Returns the value of `key` in the query string (`?a=1&b=2`), if any.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

/// Why [`read_request`] could not produce a request.
#[derive(Debug)]
pub enum RequestError {
    /// The socket's read timeout elapsed — the client stalled (possibly
    /// mid-request). The connection should be dropped without a response:
    /// a stalled peer is not draining its receive side either.
    TimedOut,
    /// The bytes received do not form an acceptable request.
    Malformed(String),
}

impl RequestError {
    fn io(context: &str, e: &std::io::Error) -> RequestError {
        use std::io::ErrorKind;
        // `set_read_timeout` surfaces as `WouldBlock` or `TimedOut`
        // depending on the platform.
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            RequestError::TimedOut
        } else {
            RequestError::Malformed(format!("{context}: {e}"))
        }
    }
}

/// Reads one line of at most [`MAX_LINE`] bytes. Returns `Ok(None)` on EOF
/// before the first byte.
fn read_line<R: BufRead>(reader: &mut R, context: &str) -> Result<Option<String>, RequestError> {
    let mut line = Vec::new();
    reader
        .take(MAX_LINE as u64)
        .read_until(b'\n', &mut line)
        .map_err(|e| RequestError::io(context, &e))?;
    if line.is_empty() {
        return Ok(None);
    }
    if line.len() == MAX_LINE && line.last() != Some(&b'\n') {
        return Err(RequestError::Malformed(format!("{context}: longer than {MAX_LINE} bytes")));
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| RequestError::Malformed(format!("{context}: not UTF-8")))
}

/// Reads one request from the stream. Returns `Ok(None)` on a clean EOF
/// (the client closed a keep-alive connection between requests). Every
/// line is bounded by [`MAX_LINE`], the header count by [`MAX_HEADERS`]
/// and the body by [`MAX_BODY`], so no request allocates without bound.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, RequestError> {
    let malformed = |m: &str| RequestError::Malformed(m.to_owned());
    let Some(line) = read_line(reader, "read request line")? else { return Ok(None) };
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| malformed("empty request line"))?.to_uppercase();
    let target = parts.next().ok_or_else(|| malformed("request line missing path"))?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    let (path, query) = target.split_once('?').unwrap_or((target, ""));

    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    let mut headers = 0;
    loop {
        let h = read_line(reader, "read header")?.unwrap_or_default();
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(malformed(&format!("more than {MAX_HEADERS} headers")));
        }
        let Some((name, value)) = h.split_once(':') else { continue };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value.parse().map_err(|_| {
                    RequestError::Malformed(format!("bad Content-Length `{value}`"))
                })?;
            }
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    if content_length > MAX_BODY {
        return Err(RequestError::Malformed(format!(
            "body of {content_length} bytes exceeds {MAX_BODY}"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| RequestError::io("read body", &e))?;
    Ok(Some(Request { method, path: path.to_owned(), query: query.to_owned(), body, keep_alive }))
}

/// The reason phrase for the handful of status codes the server uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    }
}

/// Writes one response with `Content-Length` framing. The whole message
/// goes out in a single `write_all`: `write!` on a socket sends one
/// segment per formatted piece, and Nagle's algorithm then holds the tail
/// until the peer's delayed ACK (~40 ms per response).
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let message = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        reason(status),
        body.len(),
    );
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

/// A blocking keep-alive HTTP client for tests and the load harness: one
/// TCP connection, sequential requests.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to the server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends `GET path` and returns `(status, body)`.
    pub fn get(&mut self, path: &str) -> Result<(u16, String), String> {
        self.request("GET", path, "")
    }

    /// Sends `POST path` with `body` and returns `(status, body)`.
    pub fn post(&mut self, path: &str, body: &str) -> Result<(u16, String), String> {
        self.request("POST", path, body)
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        // One write per request, for the same Nagle reason as
        // `write_response`.
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: qof\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(message.as_bytes()).map_err(|e| format!("send: {e}"))?;
        self.stream.flush().map_err(|e| format!("flush: {e}"))?;

        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).map_err(|e| format!("read status: {e}"))?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line `{}`", status_line.trim_end()))?;
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            self.reader.read_line(&mut h).map_err(|e| format!("read header: {e}"))?;
            if h.trim_end().is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|e| format!("length: {e}"))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).map_err(|e| format!("read body: {e}"))?;
        String::from_utf8(body).map(|b| (status, b)).map_err(|e| format!("utf8: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `bytes` as one request: a request within the caps, `None`
    /// for no bytes, or a typed error, never a panic.
    fn read_within_caps(bytes: &[u8]) -> Result<(), String> {
        let read = std::panic::catch_unwind(|| read_request(&mut std::io::Cursor::new(bytes)));
        match read {
            Err(_) => Err("panicked".into()),
            Ok(Ok(Some(req))) if req.path.len() + req.query.len() >= MAX_LINE => {
                Err(format!("a {}-byte target passed the line cap", req.path.len()))
            }
            Ok(Ok(Some(req))) if req.body.len() > MAX_BODY => {
                Err(format!("a {}-byte body passed the body cap", req.body.len()))
            }
            Ok(Ok(None)) if !bytes.is_empty() => Err("bytes read as a clean EOF".into()),
            Ok(Err(RequestError::TimedOut)) => Err("a cursor timed out".into()),
            Ok(_) => Ok(()),
        }
    }

    #[test]
    fn json_escaping() {
        // The response writers escape with the one shared escaper.
        use qof_pat::json::escape;
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn mutated_requests_never_panic_and_stay_within_the_caps() {
        use qof_corpus::{Rng, StdRng};
        let requests: [&[u8]; 3] = [
            b"POST /query?explain=1 HTTP/1.1\r\nContent-Length: 16\r\n\r\nSELECT r FROM R r",
            b"GET /metrics?format=json HTTP/1.0\r\nHost: localhost\r\nConnection: close\r\n\r\n",
            b"POST /shutdown HTTP/1.1\r\n\r\n",
        ];
        let mut seeds = StdRng::seed_from_u64(0x4777_7e57);
        for case in 0..2000 {
            let seed = seeds.next_u64();
            let rng = &mut StdRng::seed_from_u64(seed);
            let mut bytes = requests[rng.random_range(0..requests.len())].to_vec();
            for _ in 0..rng.random_range(1..4) {
                let at = rng.random_range(0..=bytes.len());
                let byte = [b'\r', b'\n', b':', b' ', b'9', rng.random_range(0..256) as u8]
                    [rng.random_range(0..6)];
                match rng.random_range(0..5) {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    // A line longer than the cap.
                    2 => {
                        let run = vec![byte; rng.random_range(MAX_LINE / 2..MAX_LINE * 2)];
                        bytes.splice(at..at, run);
                    }
                    // More headers than the cap.
                    3 => {
                        let header = b"X-Pad: 1\r\n".repeat(rng.random_range(1..MAX_HEADERS * 2));
                        bytes.splice(at..at, header);
                    }
                    _ => bytes.insert(at, byte),
                }
            }
            if let Err(msg) = read_within_caps(&bytes) {
                panic!("case {case} (seed {seed:#x}): {msg}");
            }
        }
    }

    #[test]
    fn endless_lines_and_headers_are_malformed() {
        // Without a newline a stream never ends a line: the cap ends it.
        let mut endless = BufReader::new(std::io::repeat(b'a'));
        assert!(matches!(read_request(&mut endless), Err(RequestError::Malformed(_))));
        let mut long_header = b"GET / HTTP/1.1\r\nX: ".to_vec();
        long_header.resize(MAX_LINE * 2, b'x');
        let read = read_request(&mut std::io::Cursor::new(long_header));
        assert!(matches!(read, Err(RequestError::Malformed(_))));
        let many = [&b"GET / HTTP/1.1\r\n"[..], &b"X: y\r\n".repeat(MAX_HEADERS + 1), b"\r\n"];
        let read = read_request(&mut std::io::Cursor::new(many.concat()));
        assert!(matches!(read, Err(RequestError::Malformed(m)) if m.contains("headers")));
        let most = [&b"GET / HTTP/1.1\r\n"[..], &b"X: y\r\n".repeat(MAX_HEADERS), b"\r\n"];
        let read = read_request(&mut std::io::Cursor::new(most.concat()));
        assert!(matches!(read, Ok(Some(req)) if req.path == "/"));
    }

    #[test]
    fn query_param_parsing() {
        let req = Request {
            method: "GET".into(),
            path: "/metrics".into(),
            query: "format=json&explain=1".into(),
            body: Vec::new(),
            keep_alive: true,
        };
        assert_eq!(req.query_param("format"), Some("json"));
        assert_eq!(req.query_param("explain"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_goes_out_in_one_write() {
        let mut w = CountingWriter::default();
        write_response(&mut w, 200, "application/json", "{\"id\":1}", true).unwrap();
        assert_eq!(w.writes, 1, "the whole response must be a single write");
        assert_eq!(
            String::from_utf8(w.bytes).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 8\r\n\
             Connection: keep-alive\r\n\r\n{\"id\":1}"
        );
    }
}
