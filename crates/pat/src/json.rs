//! The string escaper every JSON writer in the workspace shares: trace
//! JSON, the Perfetto export, `/metrics?format=json`, `/workload`, the
//! flight recorder, the query log and the bench reports. No library or
//! binary target reads JSON back; the tests' reader is
//! `tests/common/json.rs`.

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

// The test reader's own tests run here, once, rather than in every test
// binary that mounts it; they also pin that `escape` and the reader agree.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_json::{get, get_arr, get_f64, get_str, get_u64, Json};

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
