//! Word tokenization. The word index and the PAT array both index *word
//! start* positions, as PAT does: a word is a maximal run of word characters.

use crate::{Pos, Span};

/// A single word occurrence: its span in the global text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'a> {
    /// The word text (a slice of the corpus).
    pub text: &'a str,
    /// Where the word occurs.
    pub span: Span,
}

/// Splits corpus text into word tokens.
///
/// A word character is ASCII alphanumeric by default; additional ASCII
/// characters (e.g. `-` or `_`) can be admitted. Word characters are ASCII
/// only, so a token never starts or ends inside a multi-byte UTF-8
/// sequence. Matching can be case-folded, in which case the index stores
/// lowercase keys while spans always refer to the original text.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    /// `word[b]`: whether byte `b` is a word character. Only ASCII bytes
    /// ever are.
    word: [bool; 256],
    case_fold: bool,
}

impl Default for Tokenizer {
    fn default() -> Self {
        let mut word = [false; 256];
        for b in 0..0x80u8 {
            word[usize::from(b)] = b.is_ascii_alphanumeric();
        }
        Self { word, case_fold: false }
    }
}

impl Tokenizer {
    /// Case-sensitive ASCII-alphanumeric tokenizer (the default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits additional word characters such as `-` or `'`.
    ///
    /// # Panics
    /// Panics if a character is not ASCII: the tokenizer classifies bytes,
    /// and a non-ASCII word character would cut tokens inside UTF-8
    /// sequences.
    pub fn with_extra_chars(mut self, chars: &[char]) -> Self {
        for &c in chars {
            assert!(c.is_ascii(), "extra word character {c:?} is not ASCII");
            self.word[c as usize] = true;
        }
        self
    }

    /// Enables case folding: index keys are lowercased.
    pub fn case_insensitive(mut self) -> Self {
        self.case_fold = true;
        self
    }

    /// Whether this tokenizer folds case.
    pub fn folds_case(&self) -> bool {
        self.case_fold
    }

    /// Normalizes a query word the same way indexed words are normalized.
    pub fn normalize(&self, word: &str) -> String {
        if self.case_fold {
            word.to_lowercase()
        } else {
            word.to_owned()
        }
    }

    /// Iterates over the tokens of `text`, with spans offset by `base`
    /// (the position of `text` within the global corpus).
    pub fn tokenize<'a>(
        &'a self,
        text: &'a str,
        base: Pos,
    ) -> impl Iterator<Item = Token<'a>> + 'a {
        let word = &self.word;
        let bytes = text.as_bytes();
        let mut at = 0;
        std::iter::from_fn(move || {
            let start = at + bytes[at..].iter().position(|&b| word[usize::from(b)])?;
            at = bytes[start..]
                .iter()
                .position(|&b| !word[usize::from(b)])
                .map_or(bytes.len(), |len| start + len);
            // Word bytes are ASCII, so `start` and `at` are char boundaries.
            let span = (base + start as Pos)..(base + at as Pos);
            Some(Token { text: &text[start..at], span })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(t: &Tokenizer, s: &str) -> Vec<String> {
        t.tokenize(s, 0).map(|t| t.text.to_owned()).collect()
    }

    #[test]
    fn basic_words() {
        let t = Tokenizer::new();
        assert_eq!(
            words(&t, "G. F. Corliss and Y. F. Chang"),
            ["G", "F", "Corliss", "and", "Y", "F", "Chang"]
        );
    }

    #[test]
    fn spans_are_offset_by_base() {
        let t = Tokenizer::new();
        let toks: Vec<_> = t.tokenize("ab cd", 100).collect();
        assert_eq!(toks[0].span, 100..102);
        assert_eq!(toks[1].span, 103..105);
    }

    #[test]
    fn extra_chars_join_words() {
        let t = Tokenizer::new().with_extra_chars(&['-']);
        assert_eq!(words(&t, "pre-processor runs"), ["pre-processor", "runs"]);
    }

    #[test]
    fn ascii_extra_chars_leave_multibyte_text_whole() {
        // U+9000 is E9 80 80 in UTF-8: its lead byte is the Latin-1 code
        // of `é`, which once made the tokenizer cut a token inside it.
        let t = Tokenizer::new().with_extra_chars(&['-']);
        assert_eq!(words(&t, "a-b \u{9000}x-\u{9000} é-"), ["a-b", "x-", "-"]);
    }

    #[test]
    #[should_panic(expected = "not ASCII")]
    fn non_ascii_extra_chars_are_rejected() {
        let _ = Tokenizer::new().with_extra_chars(&['é']);
    }

    #[test]
    fn digits_are_words() {
        let t = Tokenizer::new();
        assert_eq!(words(&t, "pages 114--144, 1982"), ["pages", "114", "144", "1982"]);
    }

    #[test]
    fn unicode_is_skipped_without_panic() {
        let t = Tokenizer::new();
        assert_eq!(words(&t, "naïve café x"), ["na", "ve", "caf", "x"]);
    }

    #[test]
    fn empty_and_symbol_only() {
        let t = Tokenizer::new();
        assert!(words(&t, "").is_empty());
        assert!(words(&t, "!@# $%").is_empty());
    }

    #[test]
    fn normalize_respects_case_mode() {
        let cs = Tokenizer::new();
        let ci = Tokenizer::new().case_insensitive();
        assert_eq!(cs.normalize("Chang"), "Chang");
        assert_eq!(ci.normalize("Chang"), "chang");
    }
}
