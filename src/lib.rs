#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # qof — Querying files through text indexes
//!
//! A reproduction of Consens & Milo, *Optimizing Queries on Files*
//! (SIGMOD 1994). This facade crate re-exports the whole stack:
//!
//! * [`text`] — corpus, word scanner, word index;
//! * [`pat`] — the region algebra engine (§3.1);
//! * [`db`] — the in-memory object database (baseline substrate);
//! * [`grammar`] — structuring schemas (§4);
//! * [`corpus`] — synthetic corpora with ground truths;
//! * [`server`] — the `qof serve` HTTP query server (metrics, query log,
//!   flight recorder);
//! * the core items (query language, RIG, optimizer, planner, executor,
//!   baseline, index advisor) at the crate root.
//!
//! ## Quickstart
//!
//! ```
//! use qof::{FileDatabase, corpus::bibtex};
//! use qof::grammar::IndexSpec;
//! use qof::text::Corpus;
//!
//! let (text, _truth) = bibtex::generate(&bibtex::BibtexConfig::with_refs(20));
//! let fdb = FileDatabase::build(
//!     Corpus::from_text(&text),
//!     bibtex::schema(),
//!     IndexSpec::full(),
//! ).unwrap();
//! let result = fdb
//!     .query("SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"")
//!     .unwrap();
//! assert!(result.stats.exact_index);
//! ```

pub use qof_core::*;

/// Corpus model, word scanner and word index.
pub mod text {
    pub use qof_text::*;
}

/// The PAT-style region algebra engine.
pub mod pat {
    pub use qof_pat::*;
}

/// The in-memory object database.
pub mod db {
    pub use qof_db::*;
}

/// Structuring schemas: grammars, parser, value building, extraction.
pub mod grammar {
    pub use qof_grammar::*;
}

/// Synthetic corpora (BibTeX, mail, logs, SGML) with ground truths.
pub mod corpus {
    pub use qof_corpus::*;
}

/// The long-running query server (`qof serve`): HTTP endpoints, Prometheus
/// metrics, structured query log, flight recorder.
pub mod server {
    pub use qof_server::*;
}
