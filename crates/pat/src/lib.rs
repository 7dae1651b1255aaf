#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # qof-pat
//!
//! A PAT-style *region algebra* engine, reproducing the subset of the PAT
//! algebra ([Salminen & Tompa 1992], [Gonnet 1987]) that *Optimizing Queries
//! on Files* (Consens & Milo, SIGMOD 1994) builds on — §3.1 of the paper.
//!
//! Two kinds of sets exist in the algebra: sets of *match points* (word
//! occurrences, which we model as their occurrence spans) and sets of
//! *regions* — substrings of the indexed text identified by a begin/end pair.
//! This crate provides:
//!
//! * [`Region`] and [`RegionSet`] — sorted, duplicate-free sets of regions
//!   with "no restrictions on overlaps";
//! * every operator of the paper's region algebra: `∪ ∩ −`, the selection
//!   `σ_w`, innermost `ι` / outermost `ω`, inclusion `⊃ ⊂`, and *direct*
//!   inclusion `⊃d ⊂d` (which quantifies over all indexed regions);
//! * [`Instance`] — an instance of a region index: a mapping from region
//!   names to region sets (Definition 3.1's domain);
//! * [`RegionExpr`] — the expression language generated by the paper's
//!   grammar, and [`Engine`] — an evaluator with per-query cost accounting
//!   (operator counts, regions touched, word-index probes), which the
//!   benchmark harness uses to report scan-volume tradeoffs;
//! * three independent implementations of `⊃d` (fast nesting-forest,
//!   the paper's layered while-program, and a brute-force oracle), which the
//!   test suite checks against each other.

mod direct;
mod engine;
mod expose;
mod expr;
mod forest;
mod instance;
pub mod json;
mod region;
mod set;
mod stats;
mod trace;
mod workload;

pub use direct::{
    direct_included_in, direct_included_in_counted, direct_included_in_layered,
    direct_included_in_naive, direct_including, direct_including_counted, direct_including_layered,
    direct_including_naive,
};
pub use engine::{Engine, EvalError};
pub use expose::{
    render_prometheus, render_workload_prometheus, snapshot_to_json, workload_to_json,
    WORKLOAD_SCHEMA_VERSION,
};
pub use expr::RegionExpr;
pub use forest::UniverseForest;
pub use instance::Instance;
pub use region::Region;
pub use set::RegionSet;
pub use stats::EvalStats;
pub use trace::{
    CacheSource, Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot, OpTrace, TraceSink,
    HISTOGRAM_BUCKETS,
};
pub use workload::{fnv1a64, WorkloadEntry, WorkloadObs, WorkloadTable, WORKLOAD_CAPACITY};

pub use qof_text::{Pos, Span};

// The tests' JSON reader (see its module doc); no target ships it.
#[cfg(test)]
#[path = "../../../tests/common/json.rs"]
mod test_json;
