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

/// `WORD_BYTE[b]` is 1 iff byte `b` is a word byte (an ASCII alphanumeric).
static WORD_BYTE: [u8; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = (b as u8).is_ascii_alphanumeric() as u8;
        b += 1;
    }
    table
};

/// Bytes classified per block: one bit of a `u64` mask each.
const BLOCK: usize = 64;

/// The word mask of one block of at most 64 bytes: bit `i` is set iff
/// `block[i]` is a word byte.
fn word_mask(block: &[u8]) -> u64 {
    let mut mask = 0;
    for (i, &b) in block.iter().enumerate() {
        mask |= u64::from(WORD_BYTE[usize::from(b)]) << i;
    }
    mask
}

/// Iterates over the words of `text`, with spans offset by `base` (the
/// position of `text` within the global corpus). Word bytes are ASCII, so a
/// word never starts or ends inside a multi-byte UTF-8 sequence; matching is
/// case-sensitive.
///
/// The scan classifies 64 bytes at a time into a word mask and walks the
/// mask's edges (a bit that differs from the one before it) with
/// `trailing_zeros`, so it costs no branch per byte. Edges alternate
/// between a word's start and the byte after its end. A word that runs
/// past a block's last byte carries over into the next block.
pub fn words(text: &str, base: Pos) -> impl Iterator<Item = Token<'_>> {
    let bytes = text.as_bytes();
    // Offset of the block to classify next, and of the block `edges`
    // belongs to.
    let (mut next_block, mut block) = (0, 0);
    // The edges of the current block not walked yet: bit `i` is set iff
    // byte `block + i` is a word byte and the byte before it is not, or the
    // other way round.
    let mut edges = 0u64;
    // 1 iff the last byte of the current block is a word byte.
    let mut carry = 0;
    // The start of the word under way, once its start edge is walked.
    let mut start = None;
    std::iter::from_fn(move || loop {
        if edges != 0 {
            let at = block + edges.trailing_zeros() as usize;
            edges &= edges - 1;
            match start.take() {
                Some(start) => return Some(token(text, base, start, at)),
                None => start = Some(at),
            }
        } else if next_block < bytes.len() {
            let end = bytes.len().min(next_block + BLOCK);
            let mask = word_mask(&bytes[next_block..end]);
            edges = mask ^ (mask << 1 | carry);
            carry = mask >> (BLOCK - 1);
            block = next_block;
            next_block = end;
        } else {
            // A word running to the end of the text has no end edge.
            return Some(token(text, base, start.take()?, bytes.len()));
        }
    })
}

/// The word at `start..end` of `text`.
fn token(text: &str, base: Pos, start: usize, end: usize) -> Token<'_> {
    // Word bytes are ASCII, so `start` and `end` are char boundaries.
    let span = (base + start as Pos)..(base + end as Pos);
    Token { text: &text[start..end], span }
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
