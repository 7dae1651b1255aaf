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

/// Reads one request from the stream. Returns `Ok(None)` on a clean EOF
/// (the client closed a keep-alive connection between requests).
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Option<Request>, RequestError> {
    let malformed = |m: &str| RequestError::Malformed(m.to_owned());
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(RequestError::io("read request line", &e)),
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| malformed("empty request line"))?.to_uppercase();
    let target = parts.next().ok_or_else(|| malformed("request line missing path"))?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    let (path, query) = target.split_once('?').unwrap_or((target, ""));

    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).map_err(|e| RequestError::io("read header", &e))?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
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

/// Escapes a string for a JSON literal (shared by the response writers).
pub fn esc_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn json_escaping() {
        assert_eq!(esc_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc_json("\u{1}"), "\\u0001");
    }
}
