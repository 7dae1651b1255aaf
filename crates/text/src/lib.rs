#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # qof-text
//!
//! Low-level text substrate for the *Optimizing Queries on Files* (Consens &
//! Milo, SIGMOD 1994) reproduction: a multi-file [`Corpus`] with a single
//! global byte-offset space, the word scanner [`words`] (a word is a maximal
//! run of ASCII alphanumerics), and an inverted [`WordIndex`] recording the
//! location of every indexed word (the paper's "word index").
//!
//! Positions are `u32` byte offsets ([`Pos`]); a span is a half-open
//! `start..end` pair. Everything higher in the stack (regions, the region
//! algebra, structuring schemas) is expressed in terms of these offsets.

mod corpus;
mod token;
pub mod varint;
mod word_index;

pub use corpus::{Corpus, CorpusBuilder, FileEntry, FileId};
pub use token::{words, Token};
pub use word_index::{WordIndex, WordIndexBuilder, WordStats};

/// A byte offset into the global corpus text.
pub type Pos = u32;

/// A half-open byte span `start..end` in the global corpus text.
pub type Span = std::ops::Range<Pos>;
