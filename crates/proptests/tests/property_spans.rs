//! Span-tree property tests: every trace the executor assembles must be a
//! well-formed hierarchy of sink-stamped spans. The invariants checked here
//! are exactly what the Perfetto exporter relies on — a child span nests
//! inside its parent, sibling spans never overlap (engines evaluate operands
//! sequentially), span ids are a collision-free pre-order numbering, phases
//! tile the execution window in order, and every span fits inside the
//! query's total wall time.

use proptest::prelude::*;
use qof::corpus::bibtex::{self, BibtexConfig};
use qof::grammar::IndexSpec;
use qof::pat::OpTrace;
use qof::text::{Corpus, CorpusBuilder};
use qof::{FileDatabase, QueryTrace};

fn bibtex_corpus(files: usize, refs: usize, seed: u64) -> Corpus {
    let mut b = CorpusBuilder::new();
    for i in 0..files {
        let cfg = BibtexConfig {
            n_refs: refs,
            seed: seed.wrapping_mul(31).wrapping_add(i as u64),
            name_pool: 8,
            ..Default::default()
        };
        b.add_file(format!("f{i}.bib"), &bibtex::generate(&cfg).0);
    }
    b.build()
}

fn queries() -> Vec<&'static str> {
    vec![
        "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"",
        "SELECT r FROM References r WHERE r.Year = \"1982\"",
        "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\" \
         AND r.Year = \"1975\"",
        "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\" \
         OR r.Editors.Name.Last_Name = \"Chang\"",
        "SELECT r FROM References r WHERE NOT r.Authors.Name.Last_Name = \"Chang\"",
        "SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = \"Milo\"",
    ]
}

/// Child spans nest inside `[start, start + nanos]` of their parent, and
/// siblings are sequential: ordered by start and non-overlapping.
fn check_nesting(ops: &[OpTrace], ctx: &str) -> Result<(), TestCaseError> {
    for op in ops {
        let end = op.start_nanos + op.nanos;
        for child in &op.children {
            prop_assert!(
                child.start_nanos >= op.start_nanos,
                "child starts before parent: {} in {}",
                child.op,
                ctx
            );
            prop_assert!(
                child.start_nanos + child.nanos <= end,
                "child {} [{}+{}] escapes parent {} [{}+{}] in {}",
                child.op,
                child.start_nanos,
                child.nanos,
                op.op,
                op.start_nanos,
                op.nanos,
                ctx
            );
        }
        for pair in op.children.windows(2) {
            prop_assert!(
                pair[0].start_nanos + pair[0].nanos <= pair[1].start_nanos,
                "sibling spans overlap under {} in {}",
                op.op,
                ctx
            );
        }
        check_nesting(&op.children, ctx)?;
    }
    Ok(())
}

/// Root spans of one engine are themselves sequential siblings.
fn check_roots_sequential(ops: &[OpTrace], ctx: &str) -> Result<(), TestCaseError> {
    for pair in ops.windows(2) {
        prop_assert!(
            pair[0].start_nanos + pair[0].nanos <= pair[1].start_nanos,
            "root spans overlap in {}",
            ctx
        );
    }
    Ok(())
}

fn collect_ids(ops: &[OpTrace], out: &mut Vec<u64>) {
    for op in ops {
        out.push(op.span_id);
        collect_ids(&op.children, out);
    }
}

fn max_end(ops: &[OpTrace]) -> u64 {
    ops.iter().map(|op| (op.start_nanos + op.nanos).max(max_end(&op.children))).max().unwrap_or(0)
}

/// The full invariant bundle for one assembled trace.
fn check_trace(trace: &QueryTrace, ctx: &str) -> Result<(), TestCaseError> {
    // Operator spans: nesting, sibling order, per-engine root order.
    check_nesting(&trace.ops, ctx)?;
    check_roots_sequential(&trace.ops, ctx)?;
    // Span ids: pre-order, unique, contiguous from 1.
    let mut ids = Vec::new();
    collect_ids(&trace.ops, &mut ids);
    let expect: Vec<u64> = (1..=ids.len() as u64).collect();
    prop_assert_eq!(ids, expect, "span ids are a pre-order renumbering in {}", ctx);
    // Phases: in order, non-overlapping, inside the total window.
    for pair in trace.phases.windows(2) {
        prop_assert!(
            pair[0].start_nanos + pair[0].nanos <= pair[1].start_nanos,
            "phases overlap in {}",
            ctx
        );
    }
    let phase_sum: u64 = trace.phases.iter().map(|p| p.nanos).sum();
    prop_assert!(
        phase_sum <= trace.total_nanos,
        "phase sum {} exceeds total {} in {}",
        phase_sum,
        trace.total_nanos,
        ctx
    );
    // Every span ends inside the query's total wall time (total includes
    // parse + plan, which precede the execution timeline's origin).
    let spans_end = max_end(&trace.ops);
    prop_assert!(
        spans_end <= trace.total_nanos,
        "span end {} exceeds total {} in {}",
        spans_end,
        trace.total_nanos,
        ctx
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every query's trace satisfies the span invariants, on the
    /// plan-cache miss path and again on the hit path.
    #[test]
    fn traces_are_well_formed(seed in 0u64..500, refs in 4usize..16) {
        let corpus = bibtex_corpus(2, refs, seed);
        let db = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        for q in queries().into_iter().chain(queries()) {
            let (_, trace) = db.query_traced(q).unwrap();
            check_trace(&trace, q)?;
        }
    }
}
