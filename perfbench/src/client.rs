//! A minimal keep-alive HTTP client for `POST /query`.
//!
//! Each request leaves in a single `write_all` on a `TCP_NODELAY` socket,
//! and the reply is read by its `Content-Length`. `qof_server::Client`
//! writes a request as several small writes, so Nagle's algorithm holds the
//! later ones until the server acknowledges the first; that adds its own
//! delay to every request and would be measured as server latency.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

/// What the benchmark checks in a `/query` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub results: Option<usize>,
    pub exact_index: Option<bool>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader, line: String::new() })
    }

    /// Posts `query` and reads the whole reply.
    pub fn query(&mut self, query: &str) -> std::io::Result<Reply> {
        let request = format!(
            "POST /query HTTP/1.1\r\nHost: qof\r\nContent-Length: {}\r\n\r\n{query}",
            query.len()
        );
        self.stream.write_all(request.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        self.read_line()?;
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = None;
        loop {
            self.read_line()?;
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let mut body = vec![0; length.ok_or_else(|| bad("no Content-Length"))?];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8_lossy(&body);
        Ok(Reply {
            status,
            results: json_field(&body, "results").and_then(|v| v.parse().ok()),
            exact_index: json_field(&body, "exact_index").and_then(|v| v.parse().ok()),
        })
    }

    fn read_line(&mut self) -> std::io::Result<()> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
    }
}

/// The raw value of a top-level scalar field of a flat JSON object.
fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let start = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

#[cfg(test)]
mod tests {
    use super::json_field;

    #[test]
    fn reads_scalar_fields() {
        let body = r#"{"id":3,"results":12,"candidates":40,"exact_index":false,"values":["a"]}"#;
        assert_eq!(json_field(body, "results"), Some("12"));
        assert_eq!(json_field(body, "exact_index"), Some("false"));
        assert_eq!(json_field(body, "missing"), None);
    }
}
