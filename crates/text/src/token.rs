//! Word scanning. The word index and the PAT array both index *word start*
//! positions, as PAT does: a word is a maximal run of ASCII alphanumerics.
//! This is the one word rule: the index build, incremental appends and the
//! engine's split of query constants all scan with [`words`].

use crate::{Pos, Span};

/// A single word occurrence: its span in the global text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'a> {
    /// The word text (a slice of the corpus).
    pub text: &'a str,
    /// Where the word occurs.
    pub span: Span,
}

/// Iterates over the words of `text`, with spans offset by `base` (the
/// position of `text` within the global corpus). Word bytes are ASCII, so a
/// word never starts or ends inside a multi-byte UTF-8 sequence; matching is
/// case-sensitive.
pub fn words(text: &str, base: Pos) -> impl Iterator<Item = Token<'_>> {
    let bytes = text.as_bytes();
    let mut at = 0;
    std::iter::from_fn(move || {
        let start = at + bytes[at..].iter().position(u8::is_ascii_alphanumeric)?;
        at = bytes[start..]
            .iter()
            .position(|b| !b.is_ascii_alphanumeric())
            .map_or(bytes.len(), |len| start + len);
        // Word bytes are ASCII, so `start` and `at` are char boundaries.
        let span = (base + start as Pos)..(base + at as Pos);
        Some(Token { text: &text[start..at], span })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(s: &str) -> Vec<&str> {
        words(s, 0).map(|t| t.text).collect()
    }

    #[test]
    fn basic_words() {
        assert_eq!(
            texts("G. F. Corliss and Y. F. Chang"),
            ["G", "F", "Corliss", "and", "Y", "F", "Chang"]
        );
    }

    #[test]
    fn spans_are_offset_by_base() {
        let toks: Vec<_> = words("ab cd", 100).collect();
        assert_eq!(toks[0].span, 100..102);
        assert_eq!(toks[1].span, 103..105);
    }

    #[test]
    fn digits_are_words() {
        assert_eq!(texts("pages 114--144, 1982"), ["pages", "114", "144", "1982"]);
    }

    #[test]
    fn unicode_is_skipped_without_panic() {
        assert_eq!(texts("naïve café x"), ["na", "ve", "caf", "x"]);
        // U+9000 is E9 80 80 in UTF-8: no byte of it is a word byte.
        assert_eq!(texts("a-b \u{9000}x-\u{9000}"), ["a", "b", "x"]);
    }

    #[test]
    fn empty_and_symbol_only() {
        assert!(texts("").is_empty());
        assert!(texts("!@# $%").is_empty());
    }
}
