#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # qof-db
//!
//! A small in-memory object-oriented database, standing in for the O2 system
//! that the paper's prototype used (\[BCD89\]). It provides exactly what the
//! "standard database implementation" baseline needs:
//!
//! * a complex-value model ([`Value`]): atomic strings and integers, tuples,
//!   sets, lists and object references, matching the data model of the
//!   paper's structuring schemas (§4.1);
//! * a [`Database`] with named classes, object identity and class extents;
//! * object-oriented *path expressions* ([`DbStep`], [`eval_path`], and the
//!   depth-first [`walk_path`] that can stop early), whose variable steps
//!   (`*X` of XSQL, §5.3) follow a [`Moves`] table the query resolver
//!   builds from the grammar, with traversal-cost accounting (E7 measures
//!   the paper's claim that path variables are expensive in an OODBMS
//!   through these counters).

mod path;
mod store;
mod value;

pub use path::{eval_path, eval_path_counted, walk_path, DbStep, MoveState, Moves, PathCost};
pub use store::{Database, DbMark, DbStats, Oid};
pub use value::{Atom, Fields, Shape, Value};
