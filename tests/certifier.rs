//! Golden tests for the rewrite certifier: every rewrite the optimizer
//! fires on the existing trace-suite queries must come out `certified`
//! in the `QueryTrace` JSON, every normal form of generated chains over
//! all five schemas must certify, and a constructed uncertifiable step
//! must fail certification, render as a `QOF110` diagnostic and leave
//! its run unoptimized.

use std::collections::BTreeSet;

use qof::baseline::{run_baseline, BaselineMode};
use qof::corpus::{bibtex, code, logs, mail, sgml, Rng, StdRng};
use qof::grammar::{IndexSpec, StructuringSchema};
use qof::text::Corpus;
use qof::{
    certify, lower_run, normal_forms, optimize, uncertified_diagnostic, ChainOp, FileDatabase,
    InclusionExpr, Optimized, Rewrite, RewriteKind, Rig, Severity,
};

/// The §3.2 running example plus the other shapes the trace suite
/// exercises: weakening-only, chain-shortening, a multi-condition AND,
/// and a projection chain.
const QUERIES: &[&str] = &[
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"",
    "SELECT r FROM References r WHERE r.Year = \"1982\"",
    "SELECT r FROM References r WHERE r.Title = \"On\" AND r.Authors.Name.Last_Name = \"Chang\"",
    "SELECT r.Authors.Name.Last_Name FROM References r WHERE r.Year = \"1982\"",
];

fn db() -> FileDatabase {
    let (text, _) = bibtex::generate(&bibtex::BibtexConfig::with_refs(60));
    FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), IndexSpec::full()).unwrap()
}

#[test]
fn every_fired_rewrite_is_certified_in_the_trace_json() {
    let fdb = db();
    let mut rewrites_seen = 0;
    for q in QUERIES {
        let (_, trace) = fdb.query_traced(q).unwrap();
        let json = trace.to_json();
        for rw in &trace.rewrites {
            rewrites_seen += 1;
            assert!(rw.certified, "uncertified rewrite in `{q}`: {rw:?}");
        }
        assert!(
            !json.contains("\"certified\":false"),
            "trace JSON for `{q}` carries an uncertified rewrite:\n{json}"
        );
        if !trace.rewrites.is_empty() {
            assert!(
                json.contains("\"certified\":true"),
                "certification must be visible in the trace JSON for `{q}`:\n{json}"
            );
        }
    }
    assert!(rewrites_seen >= 3, "the suite must actually exercise rewrites ({rewrites_seen})");
}

#[test]
fn certified_marks_render_in_explain_analyze() {
    let (_, trace) = db()
        .query_traced("SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"x\"")
        .unwrap();
    let text = trace.render();
    assert!(text.contains("✓ certified"), "{text}");
    assert!(!text.contains("NOT certified"), "{text}");
}

#[test]
fn static_facts_appear_in_trace_json_and_render() {
    let (_, trace) = db().query_traced(QUERIES[0]).unwrap();
    assert!(!trace.facts.is_empty(), "the traced plan must carry node facts");
    let json = trace.to_json();
    assert!(json.contains("\"facts\":["), "{json}");
    assert!(json.contains("\"domain_known\":true"), "{json}");
    let text = trace.render();
    assert!(text.contains("static facts:"), "{text}");
    // Every plan node of an indexed chain has a RIG-derived domain.
    assert!(
        trace.facts.iter().any(|f| f.domain_known && !f.domain.is_empty()),
        "{:?}",
        trace.facts
    );
}

/// Across every built-in corpus schema, no real optimizer verdict may
/// fail certification (the certifier is a soundness check, not a
/// heuristic: a false alarm leaves a sound rewrite unapplied).
#[test]
fn real_rewrites_across_schemas_always_certify() {
    let bib_text = bibtex::generate(&bibtex::BibtexConfig::with_refs(20)).0;
    let sgml_text = sgml::generate(&sgml::SgmlConfig::default()).0;
    for (schema, text, query) in [
        (
            bibtex::schema(),
            &bib_text,
            "SELECT r FROM References r WHERE r.Authors.Name.First_Name = \"A\"",
        ),
        (sgml::schema(), &sgml_text, "SELECT s FROM Sections s WHERE s.Paras.Para = \"x\""),
    ] {
        let fdb = FileDatabase::build(Corpus::from_text(text), schema, IndexSpec::full()).unwrap();
        let (_, trace) = fdb.query_traced(query).unwrap();
        for rw in &trace.rewrites {
            assert!(rw.certified, "`{query}`: {rw:?}");
        }
    }
}

#[test]
fn forged_shortcut_fails_certification_and_renders_qof110() {
    // A diamond RIG: A → B → C and A → C directly. Dropping B from
    // `A ⊃ B ⊃ C` is unsound (a C directly under A would be admitted),
    // so Proposition 3.5(b) does not license the step.
    let mut rig = Rig::new();
    rig.add_edge("A", "B");
    rig.add_edge("B", "C");
    rig.add_edge("A", "C");
    let names: Vec<String> = ["A", "B", "C"].iter().map(ToString::to_string).collect();
    let original = InclusionExpr::including(names, vec![ChainOp::Incl, ChainOp::Incl], None);
    let shortcut: Vec<String> = ["A", "C"].iter().map(ToString::to_string).collect();
    let forged = Optimized {
        expr: InclusionExpr::including(shortcut, vec![ChainOp::Incl], None),
        trivially_empty: false,
        trace: vec![Rewrite {
            kind: RewriteKind::Shorten { at: 0 },
            description: "drop B from A ⊃ B ⊃ C".into(),
            result: "A ⊃ C".into(),
        }],
    };
    let cert = certify(&original, &rig, &forged);
    assert!(!cert.all_certified());
    assert!(!cert.steps[0]);

    // The uncertified step renders through the same constructor the
    // `qof check` path uses.
    let diag = uncertified_diagnostic("3.5(b)", "drop B from A ⊃ B ⊃ C");
    assert_eq!(diag.severity, Severity::Warning);
    assert_eq!(diag.code.as_str(), "QOF110");
    let rendered = diag.render(None);
    assert!(rendered.contains("QOF110"), "{rendered}");
    assert!(rendered.contains("failed certification"), "{rendered}");
    assert!(rendered.contains("unoptimized"), "{rendered}");
    let json = diag.to_json();
    assert!(json.contains("\"code\":\"QOF110\""), "{json}");
    assert!(json.contains("\"severity\":\"warning\""), "{json}");
}

#[test]
fn forged_uncertified_trace_leaves_the_run_unoptimized() {
    // The same diamond: the planner's lowering must refuse the forged
    // shortcut and keep the original chain, with the step on record as
    // uncertified.
    let mut rig = Rig::new();
    rig.add_edge("A", "B");
    rig.add_edge("B", "C");
    rig.add_edge("A", "C");
    let names: Vec<String> = ["A", "B", "C"].iter().map(ToString::to_string).collect();
    let original = InclusionExpr::including(names, vec![ChainOp::Incl, ChainOp::Incl], None);
    let shortcut: Vec<String> = ["A", "C"].iter().map(ToString::to_string).collect();
    let forged = Optimized {
        expr: InclusionExpr::including(shortcut, vec![ChainOp::Incl], None),
        trivially_empty: false,
        trace: vec![Rewrite {
            kind: RewriteKind::Shorten { at: 0 },
            description: "drop B from A ⊃ B ⊃ C".into(),
            result: "A ⊃ C".into(),
        }],
    };
    let lowered = lower_run(&original, &rig, forged);
    assert_eq!(lowered.expr, original, "an uncertified run must stay unoptimized");
    assert!(!lowered.empty);
    assert_eq!(lowered.rewrites.len(), 1);
    assert!(!lowered.rewrites[0].certified);

    // The optimizer's own verdict on the same chain certifies and applies.
    let real = optimize(&original, &rig);
    let lowered = lower_run(&original, &rig, real.clone());
    assert_eq!(lowered.expr, real.expr);
    assert!(lowered.rewrites.iter().all(|r| r.certified), "{lowered:?}");
}

/// Chains whose rewrites repeat a hop: the sgml and code grammars nest
/// themselves, so the same name pair occurs at two hops of one chain.
const REPEATED_HOPS: [(&str, &str); 2] = [
    ("sgml", "SELECT s FROM Sections s WHERE s.Subsections.Section.Subsections = \"intro\""),
    ("code", "SELECT f FROM Functions f WHERE f.Body.Stmt.Nested.Stmt.Nested = \"f1\""),
];

#[test]
fn repeated_hop_queries_certify_and_match_the_baseline() {
    for (name, query) in REPEATED_HOPS {
        let (schema, text) = match name {
            "sgml" => (sgml::schema(), sgml::generate(&sgml::SgmlConfig::default()).0),
            _ => (code::schema(), code::generate(&code::CodeConfig::default()).0),
        };
        let corpus = Corpus::from_text(&text);
        let fdb = FileDatabase::build(corpus.clone(), schema.clone(), IndexSpec::full()).unwrap();
        let (res, trace) = fdb.query_traced(query).unwrap();
        assert!(!trace.rewrites.is_empty(), "`{query}` must rewrite");
        for rw in &trace.rewrites {
            assert!(rw.certified, "`{query}`: {rw:?}");
        }
        // The endpoint hop repeats an earlier hop's names; it is weakened.
        let last = trace.plan.lines().find(|l| l.contains('σ')).unwrap_or_default().to_owned();
        assert!(!last.contains("⊃d σ"), "`{query}` keeps its endpoint ⊃d: {last}");
        let explain = fdb.explain(query).unwrap();
        let n = trace.rewrites.len();
        assert!(explain.contains(&format!("{n} rewrite(s), {n} certified")), "{explain}");
        let baseline = run_baseline(&corpus, &schema, query, BaselineMode::FullLoad).unwrap();
        let sorted = |v: &[qof::db::Value]| {
            let mut out: Vec<String> = v.iter().map(ToString::to_string).collect();
            out.sort();
            out
        };
        assert_eq!(sorted(&res.values), sorted(&baseline.values), "`{query}`");
    }
}

fn schemas() -> [(&'static str, StructuringSchema); 5] {
    [
        ("bibtex", bibtex::schema()),
        ("sgml", sgml::schema()),
        ("code", code::schema()),
        ("logs", logs::schema()),
        ("mail", mail::schema()),
    ]
}

/// Partial RIGs drawn per schema, beside the full one.
const PARTIAL_RIGS: usize = 12;
/// Chains drawn per RIG; each runs in both directions.
const CHAINS_PER_RIG: usize = 24;

/// A chain over `rig`'s names: usually a walk along RIG edges (which
/// repeats names on a cyclic RIG), sometimes arbitrary names (which may be
/// trivially empty), and ops mostly `⊃d` with some `⊃`, as lowered paths
/// with `*X` steps have.
fn draw_chain(rng: &mut StdRng, rig: &Rig, nodes: &[&str]) -> (Vec<String>, Vec<ChainOp>) {
    let len = rng.random_range(2..7);
    let mut names = vec![nodes[rng.random_range(0..nodes.len())].to_owned()];
    let walk = rng.random_range(0..5) != 0;
    while names.len() < len {
        let next = if walk {
            let succs = rig.successors(names.last().expect("non-empty"));
            if succs.is_empty() {
                break;
            }
            succs[rng.random_range(0..succs.len())]
        } else {
            nodes[rng.random_range(0..nodes.len())]
        };
        names.push(next.to_owned());
    }
    let ops = (1..names.len())
        .map(|_| if rng.random_range(0..4) == 0 { ChainOp::Incl } else { ChainOp::Direct })
        .collect();
    (names, ops)
}

#[test]
fn optimizer_and_certifier_agree_on_generated_chains() {
    // Over all five schemas, full and partial RIGs and both directions,
    // every normal form must certify and cost what every other one costs
    // (Theorem 3.6 up to the documented cost-equal counterexample), and
    // the canonical optimizer output must be the first normal form, trace
    // and all.
    let mut rng = StdRng::seed_from_u64(0xce27_f1ed);
    let (mut chains, mut repeating) = (0, 0);
    for (schema_name, schema) in schemas() {
        let full = Rig::from_grammar(&schema.grammar);
        let all: Vec<String> = full.node_names().map(str::to_owned).collect();
        let mut rigs = vec![full.clone()];
        for _ in 0..PARTIAL_RIGS {
            let subset: BTreeSet<String> =
                all.iter().filter(|_| rng.random_range(0..3) != 0).cloned().collect();
            rigs.push(full.partial(&subset));
        }
        for rig in &rigs {
            let nodes: Vec<&str> = rig.node_names().collect();
            if nodes.is_empty() {
                continue;
            }
            for _ in 0..CHAINS_PER_RIG {
                let (names, ops) = draw_chain(&mut rng, rig, &nodes);
                if names.len() < 2 {
                    continue;
                }
                let distinct: BTreeSet<&String> = names.iter().collect();
                repeating += usize::from(distinct.len() < names.len());
                for e in [
                    InclusionExpr::including(names.clone(), ops.clone(), None),
                    InclusionExpr::included_in(names.clone(), ops.clone(), None),
                ] {
                    let at = format!("{schema_name}, chain `{e}` over {rig:?}");
                    let forms = normal_forms(&e, rig);
                    assert_eq!(forms[0], optimize(&e, rig), "{at}");
                    let cost = |f: &Optimized| (f.expr.ops().len(), f.expr.direct_ops());
                    for form in &forms {
                        let cert = certify(&e, rig, form);
                        assert!(cert.all_certified(), "{at}: `{}` {cert:?}", form.expr);
                        assert_eq!(
                            cost(form),
                            cost(&forms[0]),
                            "{at}: normal forms `{}` and `{}` differ in cost",
                            form.expr,
                            forms[0].expr
                        );
                    }
                    chains += 1;
                }
            }
        }
    }
    assert!(chains > 1000, "{chains}");
    assert!(repeating > 100, "chains that repeat a name: {repeating}");
}
