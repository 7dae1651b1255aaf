//! The corpus: one or more named files mapped into a single global offset
//! space, mirroring how PAT indexes a whole file system as one logical text.

use crate::{Pos, Span};

/// Identifier of a file within a [`Corpus`] (its insertion index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// A single file's name and the span it occupies in the global text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// File name (path-like label; the corpus does not touch the real FS).
    pub name: String,
    /// Span of this file's contents in the global text.
    pub span: Span,
}

/// An immutable collection of files concatenated into one logical text.
///
/// Files are separated by a single `\n` so that no token can straddle a file
/// boundary. All higher layers (word index, region indices, parse trees)
/// address the corpus through global byte offsets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Corpus {
    text: String,
    files: Vec<FileEntry>,
}

/// Incremental constructor for a [`Corpus`].
#[derive(Debug, Default)]
pub struct CorpusBuilder {
    text: String,
    files: Vec<FileEntry>,
}

impl CorpusBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a file, returning its id. A newline separator is inserted
    /// between files so spans of distinct files never touch.
    pub fn add_file(&mut self, name: impl Into<String>, contents: &str) -> FileId {
        if !self.files.is_empty() {
            self.text.push('\n');
        }
        let start = self.text.len() as Pos;
        self.text.push_str(contents);
        let end = self.text.len() as Pos;
        let id = FileId(self.files.len() as u32);
        self.files.push(FileEntry { name: name.into(), span: start..end });
        id
    }

    /// Finalizes the corpus.
    pub fn build(self) -> Corpus {
        Corpus { text: self.text, files: self.files }
    }
}

impl Corpus {
    /// Builds a corpus holding a single anonymous file.
    pub fn from_text(contents: &str) -> Self {
        let mut b = CorpusBuilder::new();
        b.add_file("<text>", contents);
        b.build()
    }

    /// The complete global text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Total length of the global text in bytes.
    pub fn len(&self) -> Pos {
        self.text.len() as Pos
    }

    /// True if the corpus holds no text.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// The registered files in insertion order.
    pub fn files(&self) -> &[FileEntry] {
        &self.files
    }

    /// Slice of the global text covered by `span`.
    ///
    /// # Panics
    /// Panics if the span is out of bounds or not on char boundaries.
    pub fn slice(&self, span: Span) -> &str {
        &self.text[span.start as usize..span.end as usize]
    }

    /// The file containing position `pos`, if any (separator bytes between
    /// files belong to no file).
    pub fn file_of(&self, pos: Pos) -> Option<FileId> {
        let idx = self.files.partition_point(|f| f.span.end <= pos);
        let f = self.files.get(idx)?;
        (f.span.start <= pos && pos < f.span.end).then_some(FileId(idx as u32))
    }

    /// Entry for a given file id.
    pub fn file(&self, id: FileId) -> Option<&FileEntry> {
        self.files.get(id.0 as usize)
    }

    /// Reassembles a corpus from a previously captured global text and
    /// file table — the persistent-index reopen path. Validates the
    /// builder invariants an on-disk file could violate: spans must be
    /// in bounds, ascending, non-overlapping, and lie on `char`
    /// boundaries of `text`.
    pub fn from_parts(text: String, files: Vec<FileEntry>) -> Result<Self, String> {
        let len = text.len();
        let mut prev_end = 0usize;
        for (i, f) in files.iter().enumerate() {
            let (start, end) = (f.span.start as usize, f.span.end as usize);
            if start > end || end > len {
                return Err(format!("file {i} span {start}..{end} out of bounds"));
            }
            if i > 0 && start < prev_end {
                return Err(format!("file {i} span overlaps its predecessor"));
            }
            if !text.is_char_boundary(start) || !text.is_char_boundary(end) {
                return Err(format!("file {i} span splits a character"));
            }
            prev_end = end;
        }
        Ok(Corpus { text, files })
    }

    /// Appends a file to the corpus (the incremental-indexing path), with
    /// the same separator convention as [`CorpusBuilder::add_file`].
    /// Returns the new file's id; its span starts past all existing text,
    /// so existing offsets remain valid.
    pub fn push_file(&mut self, name: impl Into<String>, contents: &str) -> FileId {
        if !self.files.is_empty() {
            self.text.push('\n');
        }
        let start = self.text.len() as Pos;
        self.text.push_str(contents);
        let end = self.text.len() as Pos;
        let id = FileId(self.files.len() as u32);
        self.files.push(FileEntry { name: name.into(), span: start..end });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_file_roundtrip() {
        let c = Corpus::from_text("hello world");
        assert_eq!(c.text(), "hello world");
        assert_eq!(c.len(), 11);
        assert_eq!(c.files().len(), 1);
        assert_eq!(c.slice(0..5), "hello");
    }

    #[test]
    fn files_are_separated() {
        let mut b = CorpusBuilder::new();
        let a = b.add_file("a.bib", "aaa");
        let d = b.add_file("b.bib", "bbbb");
        let c = b.build();
        assert_eq!(c.text(), "aaa\nbbbb");
        assert_eq!(c.file(a).unwrap().span, 0..3);
        assert_eq!(c.file(d).unwrap().span, 4..8);
    }

    #[test]
    fn file_of_maps_positions() {
        let mut b = CorpusBuilder::new();
        b.add_file("a", "xy");
        b.add_file("b", "zw");
        let c = b.build();
        assert_eq!(c.file_of(0), Some(FileId(0)));
        assert_eq!(c.file_of(1), Some(FileId(0)));
        assert_eq!(c.file_of(2), None); // separator newline
        assert_eq!(c.file_of(3), Some(FileId(1)));
        assert_eq!(c.file_of(4), Some(FileId(1)));
        assert_eq!(c.file_of(5), None); // past the end
    }

    #[test]
    fn empty_corpus() {
        let c = Corpus::default();
        assert!(c.is_empty());
        assert_eq!(c.file_of(0), None);
    }

    #[test]
    fn push_file_appends_with_separator() {
        let mut c = Corpus::from_text("aaa");
        let id = c.push_file("b", "bbb");
        assert_eq!(c.text(), "aaa\nbbb");
        assert_eq!(c.file(id).unwrap().span, 4..7);
        assert_eq!(c.file_of(5), Some(id));
    }

    #[test]
    fn empty_file_entries_are_tracked() {
        let mut b = CorpusBuilder::new();
        b.add_file("empty", "");
        let id = b.add_file("full", "abc");
        let c = b.build();
        assert_eq!(c.files().len(), 2);
        assert_eq!(c.file(id).unwrap().span, 1..4);
    }
}
