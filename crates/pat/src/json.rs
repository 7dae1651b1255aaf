//! A minimal, dependency-free JSON reader shared by every surface that
//! consumes this workspace's own JSON writers: trace checks
//! (`--trace-json`), the bench harness and the query-log analyzer. The
//! writers share its string escaper, [`escape`].
//!
//! It parses exactly the subset our writers emit — objects, arrays,
//! strings with escapes, unsigned integers, floats, booleans — and keeps
//! unsigned integers exact (`Json::Num(u64)`) rather than routing them
//! through `f64`, so nanosecond counters round-trip losslessly.

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

/// Escapes a string for a JSON string literal: quotes, backslashes and
/// control characters; everything else passes through.
pub fn escape(s: &str) -> String {
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
    fn parses_our_writers_subset() {
        let v = Json::parse(r#"{"a":1,"b":"x","c":[true,false],"d":{"e":[]}}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(get_u64(obj, "a").unwrap(), 1);
        assert_eq!(get_str(obj, "b").unwrap(), "x");
        assert_eq!(get_arr(obj, "c").unwrap().len(), 2);
        assert!(get(obj, "d").unwrap().as_obj().is_some());
        assert!(get(obj, "missing").is_err());
    }

    #[test]
    fn integers_stay_exact_and_floats_parse() {
        let v =
            Json::parse(r#"{"n":18446744073709551615,"f":0.6666666666666666,"e":1e3}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(get_u64(obj, "n").unwrap(), u64::MAX);
        assert!((get_f64(obj, "f").unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((get_f64(obj, "e").unwrap() - 1000.0).abs() < 1e-12);
        // Integers widen, floats don't narrow.
        assert!((get_f64(obj, "n").unwrap() - u64::MAX as f64).abs() < 1e-12 * u64::MAX as f64);
        assert!(get_u64(obj, "f").is_err());
        let neg = Json::parse("-3.5").unwrap();
        assert_eq!(neg, Json::Float(-3.5));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{}x").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nope").is_err());
        assert!(Json::parse("-").is_err());
    }

    #[test]
    fn esc_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("⊃d"), "⊃d");
        let parsed = Json::parse("\"a\\u0041⊃\"").unwrap();
        assert_eq!(parsed, Json::Str("aA⊃".into()));
        // Every escaped string reads back as itself.
        let s = "q\"\\\n\r\t\u{1f}⊃";
        assert_eq!(Json::parse(&format!("\"{}\"", escape(s))).unwrap(), Json::Str(s.into()));
    }

    #[test]
    fn string_escapes_round_trip() {
        let parsed = Json::parse("\"a\\u0041⊃\\n\"").unwrap();
        assert_eq!(parsed, Json::Str("aA⊃\n".into()));
    }
}
