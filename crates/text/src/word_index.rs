//! The word index: for every indexed word, the sorted list of its occurrence
//! positions. This is the paper's "word index, recording the location(s) of
//! all the words in the file" (§2), with optional *selective word indexing*
//! (§7): only occurrences inside given spans are indexed.

use std::collections::HashMap;
use std::ops::Range;

use crate::{words, Corpus, Pos, Span};

/// Aggregate statistics about a built [`WordIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WordStats {
    /// Number of distinct words.
    pub distinct_words: usize,
    /// Total number of indexed occurrences (postings).
    pub postings: usize,
    /// Approximate resident size of the index in bytes.
    pub approx_bytes: usize,
}

/// Inverted index mapping each word to the sorted positions where it starts.
#[derive(Debug, Clone, Default)]
pub struct WordIndex {
    map: HashMap<String, Vec<Pos>>,
    postings: usize,
    /// The spans this index was selectively built over (sorted by start,
    /// descending end at ties), or `None` for a full index. Incremental
    /// appends filter against it so out-of-scope occurrences can never
    /// leak into a selective index.
    scope: Option<Vec<Span>>,
}

/// Builder configuring word-index construction.
#[derive(Debug, Default)]
pub struct WordIndexBuilder {
    /// When set, only occurrences whose span is inside one of these spans
    /// are indexed (selective indexing). Spans must be sorted by start.
    scope: Option<Vec<Span>>,
}

impl WordIndexBuilder {
    /// A builder indexing every word occurrence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts indexing to occurrences inside the given spans. The spans
    /// may arrive in any order (the builder sorts them by start) and may
    /// overlap.
    pub fn scoped_to(mut self, mut spans: Vec<Span>) -> Self {
        spans.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
        self.scope = Some(spans);
        self
    }

    /// Scans the corpus for words and builds the index.
    pub fn build(self, corpus: &Corpus) -> WordIndex {
        let mut index = WordIndex { map: HashMap::new(), postings: 0, scope: self.scope };
        index.index_text(corpus.text(), 0);
        index
    }
}

impl WordIndex {
    /// Convenience: index every word of `corpus`.
    pub fn build(corpus: &Corpus) -> Self {
        WordIndexBuilder::new().build(corpus)
    }

    /// Sorted start positions of `word` (case-sensitive). Returns an empty
    /// slice for unindexed words. This is the engine's hottest index entry
    /// point.
    pub fn positions(&self, word: &str) -> &[Pos] {
        self.map.get(word).map_or(&[], Vec::as_slice)
    }

    /// Whether the index has at least one posting for `word`.
    pub fn contains(&self, word: &str) -> bool {
        !self.positions(word).is_empty()
    }

    /// Number of occurrences of `word` (PAT's frequency search primitive).
    pub fn frequency(&self, word: &str) -> usize {
        self.positions(word).len()
    }

    /// Index statistics, used by the index-size/performance tradeoff
    /// experiments (E9).
    pub fn stats(&self) -> WordStats {
        let key_bytes: usize = self.map.keys().map(std::string::String::len).sum();
        // Each entry also pays for its `String` and `Vec` headers plus the
        // hash table's control byte; without this the E9 size/performance
        // tradeoff under-reported small-vocabulary indexes.
        let entry_overhead = std::mem::size_of::<String>() + std::mem::size_of::<Vec<Pos>>() + 1;
        WordStats {
            distinct_words: self.map.len(),
            postings: self.postings,
            approx_bytes: key_bytes
                + self.postings * std::mem::size_of::<Pos>()
                + self.map.len() * entry_overhead,
        }
    }

    /// Total number of indexed occurrences.
    pub fn postings(&self) -> usize {
        self.postings
    }

    /// Iterates over `(word, positions)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Pos])> {
        self.map.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Whether this index was selectively built (§7): only occurrences
    /// inside its scope spans are indexed.
    pub fn is_scoped(&self) -> bool {
        self.scope.is_some()
    }

    /// The selective-indexing scope spans, if any.
    pub fn scope(&self) -> Option<&[Span]> {
        self.scope.as_deref()
    }

    /// Reassembles an index from its posting lists, as a persisted index
    /// is reopened. Each list must ascend strictly; the caller checks that
    /// of untrusted input before it gets here.
    pub fn from_lists(lists: HashMap<String, Vec<Pos>>, scope: Option<Vec<Span>>) -> Self {
        debug_assert!(lists.values().all(|l| l.windows(2).all(|w| w[0] < w[1])));
        let postings = lists.values().map(Vec::len).sum();
        WordIndex { map: lists, postings, scope }
    }

    /// Extends the scope of a selectively built index with more spans
    /// (e.g. the in-scope regions of a newly appended file) ahead of
    /// [`WordIndex::append_span`]. No-op on a full index, which always
    /// indexes everything.
    pub fn extend_scope(&mut self, spans: impl IntoIterator<Item = Span>) {
        if let Some(scope) = &mut self.scope {
            scope.extend(spans);
            scope.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
        }
    }

    /// Indexes the words of a newly appended span (incremental indexing).
    /// The span must lie past every previously indexed position, so the
    /// per-word position lists stay sorted.
    ///
    /// On a selectively built index, only occurrences inside the scope are
    /// appended — the scope the index was built with is stored, so
    /// incremental appends can never index out-of-scope occurrences. Grow
    /// the scope first with [`WordIndex::extend_scope`] when the new file
    /// contributes in-scope regions.
    ///
    /// # Panics
    /// Panics in debug builds if an out-of-order position is appended.
    pub fn append_span(&mut self, corpus: &Corpus, span: Span) {
        self.index_text(corpus.slice(span.clone()), span.start);
    }

    /// Appends the in-scope word occurrences of `text`, which starts at
    /// global position `base`, to their posting lists: each word's
    /// positions in `text` move to the end of its list, one map lookup per
    /// distinct word.
    fn index_text(&mut self, text: &str, base: Pos) {
        for (word, mut positions) in positions_by_word(text, base, self.scope.as_deref()) {
            self.postings += positions.len();
            match self.map.get_mut(word) {
                Some(list) => {
                    debug_assert!(list.last() < positions.first());
                    list.append(&mut positions);
                }
                None => {
                    self.map.insert(word.to_owned(), positions);
                }
            }
        }
    }
}

/// The words of `text`, which starts at global position `base`, in order
/// of first occurrence, each with the sorted positions of its occurrences
/// inside `scope` (everywhere, without a scope).
///
/// A word's list is found through a keyed map from word to list number.
/// A direct-mapped cache of [`SLOTS`] list numbers sits in front of that
/// map: a cheap unkeyed hash of a word picks its slot, and the slot's list
/// is taken only if its word's bytes equal the token's. On a miss the word
/// goes to the map and then takes the slot. Crafted words can at worst
/// miss every time: the map never sees more lookups than tokens, so its
/// collision resistance is kept.
fn positions_by_word<'t>(
    text: &'t str,
    base: Pos,
    scope: Option<&[Span]>,
) -> Vec<(&'t str, Vec<Pos>)> {
    let mut lists: Vec<(&str, Vec<Pos>)> = Vec::new();
    let mut list_of: HashMap<&str, usize> = HashMap::new();
    // A list number per slot; `usize::MAX` while the slot is unused.
    let mut slots = vec![usize::MAX; SLOTS];
    // A token is in scope iff some scope span starting at or before it
    // covers its end: keep the running maximum of those spans' ends.
    let mut scope_idx = 0usize;
    let mut max_end: Pos = 0;
    for tok in words(text, base) {
        if let Some(spans) = scope {
            while scope_idx < spans.len() && spans[scope_idx].start <= tok.span.start {
                max_end = max_end.max(spans[scope_idx].end);
                scope_idx += 1;
            }
            if tok.span.end > max_end {
                continue;
            }
        }
        let at = (tok.span.start - base) as usize;
        let slot = &mut slots[slot_of(text.as_bytes(), at..at + tok.text.len())];
        let list = match lists.get(*slot) {
            Some((word, _)) if *word == tok.text => *slot,
            _ => {
                *slot = *list_of.entry(tok.text).or_insert_with(|| {
                    lists.push((tok.text, Vec::new()));
                    lists.len() - 1
                });
                *slot
            }
        };
        lists[list].1.push(tok.span.start);
    }
    lists
}

/// Slots of the word cache of [`positions_by_word`].
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_BITS: u32 = 12;

/// The cache slot of the word at `word` in `text`, from its first and last
/// eight bytes and its length. Not keyed: a collision only costs a miss.
fn slot_of(text: &[u8], word: Range<usize>) -> usize {
    let eight = |at: usize| text.get(at..at + 8).and_then(|b| b.try_into().ok());
    let n = word.len();
    let (head, tail) = match eight(word.start).map(u64::from_le_bytes) {
        Some(head) if n >= 8 => {
            (head, u64::from_le_bytes(eight(word.end - 8).expect("the word's last eight bytes")))
        }
        Some(head) => (head & ((1 << (8 * n)) - 1), 0),
        // Fewer than eight bytes from the word's start to the text's end.
        None => (text[word].iter().rev().fold(0, |h, &b| h << 8 | u64::from(b)), 0),
    };
    let hash = (head ^ tail.rotate_left(29) ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (hash >> (64 - SLOT_BITS)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(text: &str) -> (Corpus, WordIndex) {
        let c = Corpus::from_text(text);
        let i = WordIndex::build(&c);
        (c, i)
    }

    #[test]
    fn positions_are_sorted_starts() {
        let (_, i) = idx("a b a c a");
        assert_eq!(i.positions("a"), &[0, 4, 8]);
        assert_eq!(i.positions("b"), &[2]);
        assert!(i.positions("z").is_empty());
    }

    #[test]
    fn frequency_counts() {
        let (_, i) = idx("Chang and Chang and Corliss");
        assert_eq!(i.frequency("Chang"), 2);
        assert_eq!(i.frequency("Corliss"), 1);
        assert_eq!(i.frequency("chang"), 0); // case-sensitive
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn scoped_index_only_covers_given_spans() {
        let c = Corpus::from_text("aaa bbb ccc ddd");
        // Scope covers "bbb ccc" only.
        let i = WordIndexBuilder::new().scoped_to(Vec::from([4..11])).build(&c);
        assert!(i.positions("aaa").is_empty());
        assert_eq!(i.positions("bbb"), &[4]);
        assert_eq!(i.positions("ccc"), &[8]);
        assert!(i.positions("ddd").is_empty());
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn scoped_index_requires_full_containment() {
        let c = Corpus::from_text("abcdef");
        // Token 0..6; scopes 0..3 and 0..5 cut it: not indexed.
        for end in [3, 5] {
            let i = WordIndexBuilder::new().scoped_to(Vec::from([0..end])).build(&c);
            assert!(i.positions("abcdef").is_empty());
        }
    }

    #[test]
    fn stats_reflect_content() {
        let (_, i) = idx("x y x");
        let s = i.stats();
        assert_eq!(s.distinct_words, 2);
        assert_eq!(s.postings, 3);
        assert!(s.approx_bytes > 0);
    }

    #[test]
    fn multiple_files_share_one_index() {
        let mut b = CorpusBuilder::new();
        b.add_file("a", "alpha beta");
        b.add_file("b", "beta gamma");
        let c = b.build();
        let i = WordIndex::build(&c);
        assert_eq!(i.frequency("beta"), 2);
        assert_eq!(i.positions("beta"), &[6, 11]);
    }

    use crate::CorpusBuilder;

    #[test]
    fn stats_count_entry_overhead() {
        let (_, i) = idx("x y x");
        let s = i.stats();
        let headers = std::mem::size_of::<String>() + std::mem::size_of::<Vec<Pos>>() + 1;
        // 2 distinct words of 1 byte each, 3 postings, plus 2 entry headers.
        assert_eq!(s.approx_bytes, 2 + 3 * std::mem::size_of::<Pos>() + 2 * headers);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn append_to_scoped_index_respects_stored_scope() {
        // Scope covers "bbb" only; the initial build indexes just that.
        let mut c = Corpus::from_text("aaa bbb");
        let mut i = WordIndexBuilder::new().scoped_to(Vec::from([4..7])).build(&c);
        assert!(i.is_scoped());
        assert_eq!(i.frequency("bbb"), 1);
        // Appending a file without extending the scope must index nothing:
        // the new text lies entirely outside the selective scope.
        let id = c.push_file("more", "bbb ccc");
        let span = c.file(id).unwrap().span.clone();
        i.append_span(&c, span);
        assert_eq!(i.frequency("bbb"), 1, "out-of-scope occurrence was indexed");
        assert_eq!(i.frequency("ccc"), 0, "out-of-scope occurrence was indexed");
        // Extending the scope over part of the next file indexes only that
        // part: "ddd" is in scope, "eee" is not.
        let id = c.push_file("scoped", "ddd eee");
        let span = c.file(id).unwrap().span.clone();
        i.extend_scope([span.start..span.start + 3]);
        i.append_span(&c, span);
        assert_eq!(i.frequency("ddd"), 1);
        assert_eq!(i.frequency("eee"), 0);
    }

    #[test]
    fn append_to_full_index_still_indexes_everything() {
        let mut c = Corpus::from_text("alpha");
        let mut i = WordIndex::build(&c);
        assert!(!i.is_scoped());
        // extend_scope on a full index is a no-op and must not narrow it.
        i.extend_scope(std::iter::once(0..1));
        let id = c.push_file("more", "beta");
        let span = c.file(id).unwrap().span.clone();
        i.append_span(&c, span);
        assert_eq!(i.frequency("beta"), 1);
    }

    #[test]
    fn append_span_extends_postings() {
        let mut c = Corpus::from_text("alpha beta");
        let mut i = WordIndex::build(&c);
        let id = c.push_file("more", "beta gamma");
        let span = c.file(id).unwrap().span.clone();
        i.append_span(&c, span);
        assert_eq!(i.frequency("beta"), 2);
        assert_eq!(i.frequency("gamma"), 1);
        assert_eq!(i.positions("beta"), &[6, 11]);
    }
}
