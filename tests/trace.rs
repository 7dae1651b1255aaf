//! End-to-end tests of the observability layer: the `--explain-analyze`
//! render (rewrite annotations, per-operator cardinalities), trace
//! cardinalities against independently evaluated region sets, and the
//! `--trace-json` document read back with the tests' JSON reader.

mod common;

use common::json::{get_arr, get_str, get_u64, Json};
use qof::corpus::bibtex;
use qof::grammar::IndexSpec;
use qof::pat::{Engine, OpTrace, RegionExpr};
use qof::text::Corpus;
use qof::{FileDatabase, TRACE_SCHEMA_VERSION};

/// The paper's running example: §3.2's author query, whose optimized plan
/// is `Reference ⊃ Authors ⊃ σ_"Chang"(Last_Name)` after the 3.5(b)
/// chain-shortening drops `Name`.
const CHANG: &str = "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"";

fn db() -> FileDatabase {
    let (text, _) = bibtex::generate(&bibtex::BibtexConfig::with_refs(60));
    FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), IndexSpec::full()).unwrap()
}

/// Walks a trace tree asserting the structural invariant the renderers
/// rely on: a parent's input cardinality is the sum of its children's
/// outputs.
fn assert_inputs_consistent(nodes: &[OpTrace]) {
    for n in nodes {
        if !n.children.is_empty() {
            let sum: usize = n.children.iter().map(|c| c.output).sum();
            assert_eq!(n.input, sum, "input of `{}` must sum its children's outputs", n.op);
        }
        assert_inputs_consistent(&n.children);
    }
}

#[test]
fn explain_analyze_shows_the_chain_shortening_rewrite() {
    let (res, trace) = db().query_traced(CHANG).unwrap();
    let text = trace.render();
    assert!(
        text.contains("[3.5(b)] drop Name"),
        "the golden query must show chain shortening:\n{text}"
    );
    assert!(text.contains("[3.5(a)]"), "weakening rewrites must be annotated:\n{text}");
    assert!(text.contains("index-candidates"), "phase timings must render:\n{text}");
    assert!(text.contains("└─"), "the operator tree must render:\n{text}");
    // The totals line reports the real result count.
    assert!(!res.regions.is_empty(), "degenerate corpus: the golden query found nothing");
    assert_eq!(trace.results, res.regions.len());
    assert!(text.contains(&format!("{} results", trace.results)), "{text}");
}

#[test]
fn traced_cardinalities_equal_actual_region_set_lengths() {
    let fdb = db();
    let (res, trace) = fdb.query_traced(CHANG).unwrap();
    assert_inputs_consistent(&trace.ops);

    // Re-evaluate the optimized plan's subexpressions independently and
    // compare against what the trace reported.
    let engine = Engine::new(fdb.corpus(), fdb.word_index(), fdb.instance());
    let sigma = RegionExpr::name("Last_Name").select_eq("Chang");
    let inner = RegionExpr::name("Authors").including(sigma.clone());
    let full = RegionExpr::name("Reference").including(inner.clone());

    assert_eq!(trace.ops.len(), 1, "one root evaluation for a single-condition plan");
    let root = &trace.ops[0];
    assert_eq!(root.op, "⊃");
    assert_eq!(root.output, engine.eval(&full).unwrap().len(), "root output cardinality");
    assert_eq!(root.output, res.regions.len(), "the root IS the candidate set here");

    let inner_node = root.children.iter().find(|c| c.op == "⊃").expect("nested ⊃ under the root");
    assert_eq!(inner_node.output, engine.eval(&inner).unwrap().len());

    let mut leaf_checks = 0;
    for (name, parent) in [("Reference", root), ("Authors", inner_node)] {
        let leaf = parent
            .children
            .iter()
            .find(|c| c.op == "name" && c.detail == name)
            .unwrap_or_else(|| panic!("missing name leaf `{name}`"));
        let want = fdb.instance().get(name).map_or(0, qof::pat::RegionSet::len);
        assert_eq!(leaf.output, want, "leaf `{name}` output cardinality");
        leaf_checks += 1;
    }
    assert_eq!(leaf_checks, 2);

    let sigma_node =
        inner_node.children.iter().find(|c| c.op == "σ").expect("σ node under the nested ⊃");
    assert_eq!(sigma_node.detail, "\"Chang\"");
    assert_eq!(sigma_node.output, engine.eval(&sigma).unwrap().len());
}

#[test]
fn trace_json_round_trips_through_the_public_surface() {
    let (_, trace) = db().query_traced(CHANG).unwrap();
    let doc = Json::parse(&trace.to_json()).expect("own JSON parses");
    let obj = doc.as_obj().unwrap();
    assert_eq!(get_u64(obj, "schema_version").unwrap(), TRACE_SCHEMA_VERSION);
    assert_eq!(get_u64(obj, "id").unwrap(), trace.id);
    assert_eq!(get_str(obj, "fingerprint").unwrap(), format!("{:016x}", trace.fingerprint));
    assert_eq!(get_str(obj, "query").unwrap(), CHANG);
    assert_eq!(get_arr(obj, "rewrites").unwrap().len(), trace.rewrites.len());
    assert_eq!(get_arr(obj, "facts").unwrap().len(), trace.facts.len());
    assert!(get_arr(obj, "estimates").is_err(), "v8 carries no estimates");
    let phases: Vec<String> = get_arr(obj, "phases")
        .unwrap()
        .iter()
        .map(|p| get_str(p.as_obj().unwrap(), "name").unwrap())
        .collect();
    assert_eq!(phases, trace.phases.iter().map(|p| p.name).collect::<Vec<_>>());
    let root = get_arr(obj, "ops").unwrap()[0].as_obj().unwrap();
    assert_eq!(get_str(root, "op").unwrap(), trace.ops[0].op);
    assert_eq!(get_u64(root, "output").unwrap(), trace.ops[0].output as u64);
    assert_eq!(get_u64(obj, "total_nanos").unwrap(), trace.total_nanos);
    assert_eq!(get_u64(obj, "results").unwrap(), trace.results as u64);
    // The plan text embedded in the trace is the EXPLAIN text, verbatim.
    let plan = get_str(obj, "plan").unwrap();
    assert_eq!(plan, trace.plan);
    assert_eq!(plan, db().explain(CHANG).unwrap());
}

#[test]
fn phases_account_for_a_warm_query() {
    // Parse and plan are phases, and engine set-up is O(1), so the phases
    // cover nearly all of a warm query.
    // The median over several runs keeps one descheduled run from deciding.
    let fdb = db();
    fdb.query(CHANG).unwrap();
    let mut ratios: Vec<f64> = (0..15)
        .map(|_| {
            let (_, trace) = fdb.query_traced(CHANG).unwrap();
            let covered: u64 = trace.phases.iter().map(|p| p.nanos).sum();
            covered as f64 / trace.total_nanos as f64
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    assert!(median >= 0.95, "phases cover {median:.3} of total_nanos: {ratios:?}");
}
