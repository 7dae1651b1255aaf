//! A minimal, dependency-free JSON reader for the tests: they read back
//! what this workspace's JSON writers emit (trace JSON, the Perfetto
//! export, `/metrics?format=json`, `/workload`, the flight recorder, the
//! query log). No library or binary target parses JSON, so the reader
//! lives here, beside the tests, and ships in no crate.
//!
//! The root integration tests mount it through `mod common`; the unit
//! tests of `qof-pat`, `qof-core` and `qof-server` mount this file from
//! their `lib.rs` as `test_json`, and `crates/server/tests/serve.rs`
//! mounts it by path. Each mount uses a part of it.
//!
//! It parses exactly the subset our writers emit — objects, arrays,
//! strings with escapes, unsigned integers, floats, booleans — and keeps
//! unsigned integers exact (`Json::Num(u64)`) rather than routing them
//! through `f64`, so nanosecond counters round-trip losslessly. It
//! recurses once per nesting level and has no depth bound: it reads
//! trusted test output only.
#![allow(dead_code)]

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string.
    Str(String),
    /// An unsigned integer (kept exact; never coerced through `f64`).
    Num(u64),
    /// A float (anything with a fraction, exponent, or sign).
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs (duplicate keys keep the
    /// first occurrence under [`get`]).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing content is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let chars: Vec<char> = text.chars().collect();
        let mut p = Parser { chars, i: 0 };
        let v = p.value()?;
        p.ws();
        if p.i != p.chars.len() {
            return Err(format!("trailing content at offset {}", p.i));
        }
        Ok(v)
    }

    /// The object's fields, or `None` for non-objects.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array's items, or `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string value, or `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value as `f64` (integers included), or `None`.
    #[allow(clippy::cast_precision_loss)]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The unsigned integer value, or `None` (floats are not coerced).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Looks up `key` in an object's fields.
pub fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v).ok_or_else(|| format!("missing key `{key}`"))
}

/// Required string field.
pub fn get_str(obj: &[(String, Json)], key: &str) -> Result<String, String> {
    match get(obj, key)? {
        Json::Str(s) => Ok(s.clone()),
        _ => Err(format!("key `{key}` is not a string")),
    }
}

/// Required unsigned integer field.
pub fn get_u64(obj: &[(String, Json)], key: &str) -> Result<u64, String> {
    match get(obj, key)? {
        Json::Num(n) => Ok(*n),
        _ => Err(format!("key `{key}` is not a number")),
    }
}

/// Required numeric field, integers widened to `f64`.
pub fn get_f64(obj: &[(String, Json)], key: &str) -> Result<f64, String> {
    get(obj, key)?.as_f64().ok_or_else(|| format!("key `{key}` is not a number"))
}

/// Required array field.
pub fn get_arr<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a [Json], String> {
    match get(obj, key)? {
        Json::Arr(items) => Ok(items),
        _ => Err(format!("key `{key}` is not an array")),
    }
}

struct Parser {
    chars: Vec<char>,
    i: usize,
}

impl Parser {
    fn ws(&mut self) {
        while self.i < self.chars.len() && self.chars[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{c}` at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some(c) if c.is_ascii_digit() || c == '-' => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.i)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for c in word.chars() {
            self.expect(c)?;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some('-') {
            self.i += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' => {}
                '.' | 'e' | 'E' | '+' | '-' => integral = false,
                _ => break,
            }
            self.i += 1;
        }
        let token: String = self.chars[start..self.i].iter().collect();
        if token.is_empty() || token == "-" {
            return Err(format!("expected a digit at offset {start}"));
        }
        if integral && !token.starts_with('-') {
            // Unsigned integers stay exact.
            return token
                .parse::<u64>()
                .map(Json::Num)
                .map_err(|_| format!("number overflow at offset {start}"));
        }
        token.parse::<f64>().map(Json::Float).map_err(|_| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some('"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some('/') => out.push('/'),
                        Some('n') => out.push('\n'),
                        Some('r') => out.push('\r'),
                        Some('t') => out.push('\t'),
                        Some('b') => out.push('\u{8}'),
                        Some('f') => out.push('\u{c}'),
                        Some('u') => {
                            let hex: String = self
                                .chars
                                .get(self.i + 1..self.i + 5)
                                .unwrap_or(&[])
                                .iter()
                                .collect();
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|_| format!("bad \\u escape at offset {}", self.i))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad code point U+{code:04X}"))?,
                            );
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(',') => self.i += 1,
                Some(']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected `,` or `]`, found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some('}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.ws();
            match self.peek() {
                Some(',') => self.i += 1,
                Some('}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected `,` or `}}`, found {other:?}")),
            }
        }
    }
}
