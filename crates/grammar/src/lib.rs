#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # qof-grammar
//!
//! *Structuring schemas* (§4 of Consens & Milo, after Abiteboul–Cluet–Milo
//! VLDB'93): an annotated context-free grammar that specifies how data
//! stored in a file should be interpreted in a database.
//!
//! A [`Grammar`] describes the file structure with rules of the shapes the
//! paper's *natural* schemas use — `A → B*` (sets/lists), `A → lit B lit …`
//! (tuples/objects), `A → B | C` (disjunctive types, footnote 5), and token
//! rules for terminals. Each rule carries a [`ValueBuilder`] annotation (the
//! `$$ := …` programs of §4.1) describing how a word derived from the rule
//! maps into a database value.
//!
//! The crate provides:
//!
//! * a backtracking recursive-descent [`Parser`] (our stand-in for Yacc):
//!   one walk that reports every node it recognizes, with its exact span,
//!   to a [`Sink`], and counts bytes scanned;
//! * the region sink ([`RegionSink`]) building a region-index
//!   [`Instance`](qof_pat::Instance) under full, partial or *selective*
//!   (region-scoped, §7) indexing — the [`IndexSpec`];
//! * the value sink ([`ValueSink`]) executing the annotations against a
//!   [`Database`](qof_db::Database) with a [`PathFilter`] — the §6.2
//!   optimization that *pushes the query into the parsing process* so only
//!   objects on needed paths are constructed;
//! * the view-path resolver ([`resolve_path`]): what each step of a query
//!   path names in the database view, answered at once as a region chain,
//!   database path steps and a push-down filter path (§4.1, §5.1);
//! * a thin tree API for tools and tests: [`ParseNode`] trees from
//!   [`Parser::parse_root`], replayed into the sinks by [`extract_regions`]
//!   and [`build_value`], and rendered by [`render_tree`] (Figures 2 and 3).

mod build;
mod extract;
mod grammar;
mod parser;
mod render;
mod schema;
mod translate;

pub use build::{build_value, build_value_filtered, AtomText, PathFilter, ValueMark, ValueSink};
pub use extract::{extract_regions, IndexSpec, RegionSink};
pub use grammar::{
    lit, nt, Grammar, GrammarBuilder, GrammarError, Rule, RuleBody, SeqTerm, SymbolId, Term,
    TokenPattern, ValueBuilder,
};
pub use parser::{ParseError, ParseNode, ParseStats, Parser, Sink, Tape};
pub use render::render_tree;
pub use schema::StructuringSchema;
pub use translate::{resolve_path, PathError, PathSpec, QStep, SkOp, Skeleton};
