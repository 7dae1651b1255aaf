#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # qof-core
//!
//! The primary contribution of *Optimizing Queries on Files* (Consens &
//! Milo, SIGMOD 1994): querying semi-structured files through a text index,
//! with RIG-based optimization of region expressions.
//!
//! The pipeline, mirroring the paper:
//!
//! 1. A file format is described by a *structuring schema*
//!    ([`qof_grammar::StructuringSchema`]); [`FileDatabase::build`] parses
//!    the corpus once, extracts the configured region indices and the word
//!    index (the service the underlying text system provides).
//! 2. The *region inclusion graph* ([`Rig`]) is derived automatically from
//!    the grammar (§4.2), both for full indexing and for any partial index
//!    subset (§6.1).
//! 3. An XSQL-like query ([`Query`], parsed by [`parse_query`]) is
//!    *translated* into inclusion expressions ([`InclusionExpr`]) over the
//!    indexed region names (§5.1), along the region chains
//!    [`qof_grammar::resolve_path`] gives each of its paths.
//! 4. The [`optimize`] algorithm (§3.2) rewrites each expression into its
//!    unique most efficient version: `⊃d` weakened to `⊃` and chains
//!    shortened, justified by Propositions 3.3 and 3.5 and Theorem 3.6.
//! 5. The [`planner`](plan) decides whether the index computes the query
//!    exactly (§6.3) or yields *candidate regions* that are then parsed with
//!    the query pushed into the parsing process (§6.2), and the executor
//!    runs the whole plan, joining region contents in the object database
//!    where the region algebra cannot (§5.2).
//!
//! [`baseline`] implements the comparison system: the standard-database
//! pipeline that parses and loads the whole file before querying. §7's
//! index-selection guidelines are implemented by [`advise`].

mod advisor;
pub mod analyze;
pub mod baseline;
mod exec;
mod incl;
mod optimizer;
pub mod perfetto;
mod plan;
mod plan_cache;
pub mod qofx;
mod query;
mod residual;
mod rig;
mod trace;

pub use advisor::{advise, Advice};
pub use analyze::absint::{certify, uncertified_diagnostic, AbsInterp, AbsState, CertifyResult};
pub use analyze::{
    check_index, check_query, check_schema, render_all, Code, Diagnostic, Severity, Span,
};
pub use exec::{BuildError, BuildPhases, FileDatabase, QueryError, QueryResult, RunStats};
pub use incl::{ChainOp, Direction, InclusionExpr, SelectKind};
pub use optimizer::{is_trivially_empty, normal_forms, optimize, Optimized, Rewrite, RewriteKind};
pub use perfetto::{trace_to_perfetto, traces_to_perfetto};
pub use plan::{
    lower_run, Exactness, InexactHop, InexactReason, Plan, PlanError, PlanRewrite, Planner,
};
pub use plan_cache::{CachedChain, PlanCache, PlanCacheStats, DEFAULT_PLAN_CACHE_ENTRIES};
pub use qofx::{inspect_qofx, QofxError, QofxSummary, QOFX_MAGIC, QOFX_VERSION};
pub use query::{parse_query, Cond, Projection, QPath, QStep, Query, QueryParseError, RightHand};
pub use residual::{compile_cond, eval_pair, eval_single, path_values, CompiledCond};
pub use rig::{Rig, RigViolation};
pub use trace::{fmt_nanos, NodeFact, PhaseTrace, QueryTrace, TRACE_SCHEMA_VERSION};
