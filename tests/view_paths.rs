//! What a view path names when it crosses a `Child` node — a node whose
//! value is its child's, such as code's `Stmt → Call | If` and sgml's
//! `Para → <p> Text </p>` (DESIGN.md §19).
//!
//! * Both sides of the paper's comparison read one resolver: the index
//!   (`FileDatabase::query`) and the baseline (`run_baseline`) return the
//!   same values, or the same plan error, on full and partial indexes. A
//!   path may not name a choice branch (`Stmt.Call`) or a `Child`
//!   sequence's inner symbol (`Para.Text`); a path that ends on a `Child`
//!   node compares the node its value comes from (`Paras.Para = "…"`).
//! * Resolver oracle, with neither the index nor the baseline: for every
//!   schema and every attribute path of one to three steps that resolves,
//!   the resolved `DbStep`s evaluated over a view node's built value reach
//!   exactly the values built for the parse-tree nodes its region chain
//!   reaches from the same view node.

mod common;

use std::collections::BTreeSet;

use common::{show, shown};
use qof::baseline::{run_baseline, BaselineMode};
use qof::corpus::{bibtex, code, logs, mail, sgml};
use qof::db::{eval_path, Database};
use qof::grammar::{
    build_value, resolve_path, Grammar, IndexSpec, ParseNode, Parser, QStep, StructuringSchema,
    SymbolId,
};
use qof::text::Corpus;
use qof::FileDatabase;

/// The index's answer and the baseline's, as sorted renderings or as the
/// error text.
fn both_sides(db: &FileDatabase, q: &str) -> [Result<Vec<String>, String>; 2] {
    let index = db.query(q).map(|r| shown(&r.values, &r.db)).map_err(|e| e.to_string());
    let baseline = run_baseline(db.corpus(), db.schema(), q, BaselineMode::FullLoad)
        .map(|r| shown(&r.values, &r.db))
        .map_err(|e| e.to_string());
    [index, baseline]
}

/// What a query must return on both sides.
enum Expect {
    /// This many values, at least one.
    Values(Option<usize>),
    /// A plan error naming the attribute and the symbol under it.
    NoSuchAttribute(&'static str, &'static str),
}

fn check(db: &FileDatabase, at: &str, q: &str, expect: &Expect) {
    let [index, baseline] = both_sides(db, q);
    assert_eq!(index, baseline, "{at}: index and baseline disagree on {q}");
    match (expect, &index) {
        (Expect::Values(n), Ok(values)) => {
            assert!(!values.is_empty(), "{at}: {q} returned nothing");
            if let Some(n) = n {
                assert_eq!(values.len(), *n, "{at}: {q}");
            }
        }
        (Expect::NoSuchAttribute(attribute, under), Err(e)) => assert_eq!(
            *e,
            format!("attribute `{attribute}` does not exist under `{under}`"),
            "{at}: {q}"
        ),
        (_, got) => panic!("{at}: {q} returned {got:?}"),
    }
}

#[test]
fn child_paths_mean_the_same_on_the_index_and_the_baseline() {
    let text =
        code::generate(&code::CodeConfig { n_functions: 50, if_percent: 40, ..Default::default() })
            .0;
    for spec in [IndexSpec::full(), IndexSpec::names(["Function", "Stmt", "Callee"])] {
        let at = format!("code, {spec:?}");
        let db = FileDatabase::build(Corpus::from_text(&text), code::schema(), spec).unwrap();
        for (q, expect) in [
            (
                "SELECT v.Body.Stmt.Call.Callee FROM Functions v",
                Expect::NoSuchAttribute("Call", "Stmt"),
            ),
            ("SELECT v.Body.Stmt.If FROM Functions v", Expect::NoSuchAttribute("If", "Stmt")),
            (
                "SELECT v.Body.Stmt.If.Nested FROM Functions v",
                Expect::NoSuchAttribute("If", "Stmt"),
            ),
            ("SELECT v.Body.Stmt.Callee FROM Functions v", Expect::Values(None)),
            ("SELECT v.Body.Stmt.Nested FROM Functions v", Expect::Values(None)),
            ("SELECT v.Body.Stmt FROM Functions v", Expect::Values(None)),
            ("SELECT v.Stmt+.Callee FROM Functions v", Expect::Values(None)),
        ] {
            check(&db, &at, q, &expect);
        }
    }

    let text = sgml::generate(&sgml::SgmlConfig::default()).0;
    let corpus = Corpus::from_text(&text);
    let paras = run_baseline(
        &corpus,
        &sgml::schema(),
        "SELECT v.Paras.Para FROM Sections v",
        BaselineMode::FullLoad,
    )
    .unwrap();
    let para = paras.values[0].as_str().expect("a paragraph's value is its text").to_owned();
    for spec in [IndexSpec::full(), IndexSpec::names(["Section", "Text"])] {
        let at = format!("sgml, {spec:?}");
        let db = FileDatabase::build(corpus.clone(), sgml::schema(), spec).unwrap();
        for (q, expect) in [
            (
                "SELECT v.Paras.Para.Text FROM Sections v".to_owned(),
                Expect::NoSuchAttribute("Text", "Para"),
            ),
            (
                format!("SELECT v FROM Sections v WHERE v.Paras.Para.Text = \"{para}\""),
                Expect::NoSuchAttribute("Text", "Para"),
            ),
            (
                "SELECT v.Paras.Para FROM Sections v".to_owned(),
                Expect::Values(Some(paras.values.len())),
            ),
            (
                format!("SELECT v FROM Sections v WHERE v.Paras.Para = \"{para}\""),
                Expect::Values(Some(1)),
            ),
            (
                format!("SELECT v.Head FROM Sections v WHERE v.Paras.Para = \"{para}\""),
                Expect::Values(Some(1)),
            ),
        ] {
            check(&db, &at, &q, &expect);
        }
    }
}

/// Every grammar path of `1..=depth` steps below `symbol`, spelled as
/// symbol names.
fn grammar_paths(g: &Grammar, symbol: SymbolId, depth: usize) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    if depth == 0 {
        return out;
    }
    for child in g.children_of(symbol) {
        out.push(vec![g.name(child).to_owned()]);
        for mut rest in grammar_paths(g, child, depth - 1) {
            rest.insert(0, g.name(child).to_owned());
            out.push(rest);
        }
    }
    out
}

/// The parse-tree nodes a chain of symbol names reaches from `node`, one
/// child hop per name.
fn chain_nodes<'a>(g: &Grammar, node: &'a ParseNode, names: &[String]) -> Vec<&'a ParseNode> {
    let mut frontier = vec![node];
    for name in names {
        frontier = frontier
            .into_iter()
            .flat_map(|n| &n.children)
            .filter(|c| g.name(c.symbol) == name)
            .collect();
    }
    frontier
}

#[test]
fn resolved_steps_reach_what_the_region_chain_reaches() {
    let schemas: Vec<(&str, StructuringSchema, String)> = vec![
        ("bibtex", bibtex::schema(), bibtex::generate(&bibtex::BibtexConfig::with_refs(6)).0),
        (
            "sgml",
            sgml::schema(),
            sgml::generate(&sgml::SgmlConfig { top_sections: 3, ..Default::default() }).0,
        ),
        (
            "code",
            code::schema(),
            code::generate(&code::CodeConfig {
                n_functions: 8,
                if_percent: 40,
                ..Default::default()
            })
            .0,
        ),
        (
            "logs",
            logs::schema(),
            logs::generate(&logs::LogConfig { n_sessions: 5, ..Default::default() }).0,
        ),
        (
            "mail",
            mail::schema(),
            mail::generate(&mail::MailConfig { n_messages: 5, ..Default::default() }).0,
        ),
    ];
    for (name, schema, text) in schemas {
        let g = &schema.grammar;
        let (_, view_symbol) = schema.views().next().expect("a view");
        let sym = g.symbol(view_symbol).expect("view symbol");
        let tree = Parser::new(g, &text).parse_root(0..text.len() as u32).unwrap();
        let mut views: Vec<&ParseNode> = Vec::new();
        tree.walk(&mut |n| {
            if n.symbol == sym {
                views.push(n);
            }
        });
        let (mut checked, mut crossing) = (0, 0);
        for path in grammar_paths(g, sym, 3) {
            let steps: Vec<QStep> = path.iter().map(|s| QStep::Attr(s.clone())).collect();
            let Ok(spec) = resolve_path(g, view_symbol, &steps) else { continue };
            for view in &views {
                let mut db = Database::new();
                let value = build_value(view, g, &text, &mut db);
                let mut via_steps = BTreeSet::new();
                let mut via_chain = BTreeSet::new();
                for alt in &spec.alternatives {
                    via_steps
                        .extend(eval_path(&db, &value, &alt.steps).iter().map(|v| show(v, &db)));
                    let mut chain_db = Database::new();
                    for node in chain_nodes(g, view, &alt.names[1..]) {
                        let v = build_value(node, g, &text, &mut chain_db);
                        via_chain.insert(show(&v, &chain_db));
                    }
                }
                let at = format!("{name}: {} from the view at {:?}", path.join("."), view.span);
                assert_eq!(via_steps, via_chain, "{at}");
                if spec.alternatives.iter().any(|a| a.names.len() > path.len() + 1)
                    && !via_steps.is_empty()
                {
                    crossing += 1;
                }
                checked += 1;
            }
        }
        assert!(checked > 0, "{name}: no path checked");
        if matches!(name, "sgml" | "code") {
            assert!(crossing > 0, "{name}: no `Child`-crossing path returned values");
        }
    }
}

#[test]
fn content_compares_of_non_atomic_paths_compare_values() {
    // Only an atom's value is its region text. A session with one request
    // has a `Requests` region and a `Request` region of the same text, yet
    // a set of one tuple is not that tuple, so neither compare holds.
    let text = logs::generate(&logs::LogConfig { n_sessions: 12, ..Default::default() }).0;
    for spec in [IndexSpec::full(), IndexSpec::names(["Session", "Requests", "Request"])] {
        let at = format!("logs, {spec:?}");
        let db = FileDatabase::build(Corpus::from_text(&text), logs::schema(), spec).unwrap();
        for q in [
            "SELECT v FROM Sessions v WHERE v.Requests.Request = v.Requests",
            "SELECT v FROM Sessions v, Sessions w WHERE v.Requests.Request = w.Requests",
        ] {
            let [index, baseline] = both_sides(&db, q);
            assert_eq!(index, baseline, "{at}: index and baseline disagree on {q}");
        }
    }
    // A cross-variable join pairs by value, not by region text: two
    // author sets of one value may be written in different orders. Under
    // a partial index the chains are inexact and may locate an enclosing
    // region, whose text is no key at all.
    let cfg = bibtex::BibtexConfig { n_refs: 200, name_pool: 4, ..Default::default() };
    let text = bibtex::generate(&cfg).0;
    for spec in [
        IndexSpec::full(),
        IndexSpec::names(["Reference", "Last_Name"]),
        IndexSpec::names(["Reference", "Authors", "Editors"]),
    ] {
        let at = format!("bibtex, {spec:?}");
        let db = FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), spec).unwrap();
        for q in [
            "SELECT r FROM References r, References s WHERE r.Authors = s.Editors",
            "SELECT r FROM References r, References s WHERE r.Authors.Name = s.Editors.Name",
            "SELECT r FROM References r, References s \
             WHERE r.Authors.Name.Last_Name = s.Editors.Name.Last_Name",
        ] {
            check(&db, &at, q, &Expect::Values(None));
        }
    }
    // Compares between atoms along exact chains stay exact index answers.
    let cfg = bibtex::BibtexConfig {
        n_refs: 60,
        name_pool: 6,
        editors_per_ref: (1, 2),
        referred_per_ref: (1, 2),
        ..Default::default()
    };
    let text = bibtex::generate(&cfg).0;
    let same_var =
        "SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name";
    let cross_var = "SELECT r FROM References r, References s WHERE r.Referred.RefKey = s.Key";
    let db =
        FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), IndexSpec::full()).unwrap();
    for q in [same_var, cross_var] {
        check(&db, "bibtex, full", q, &Expect::Values(None));
        assert!(db.query(q).unwrap().stats.exact_index, "{q} needs no residual");
    }
}
